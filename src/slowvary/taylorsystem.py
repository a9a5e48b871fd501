"""Block Taylor systems: the grouped view of a cross-section family.

Collecting the local Taylor coefficients ``u^(n)(x, t)`` of a field, for
all multi-indices ``|n| <= N``, turns the original evolution into a large
coupled linear system.  Its generator has a block upper-triangular-like
layout in the graded index order: block row ``n``, block column ``k``
holds ``L_{k-n}`` whenever ``k >= n`` componentwise (zero otherwise), so
every diagonal block is the base operator ``L_0``.

Because the layout is triangular in each grade direction, the spectrum of
the grouped generator is the spectrum of ``L_0`` repeated once per
retained index.  The reduced closure has the same structure with blocks
``A_{k-n}``, and the generating basis flattens into a slow-subspace matrix
``S`` satisfying ``(grouped L) S = S (grouped A)``.  Block ``(k, n)`` of
its residual is the invariance residual of index ``n - k``, which
:func:`slowvary.slowreduce.check_invariance` evaluates once per index
from the basis vectors, so ``reduce`` runs only that check and the block
functions here are the reference the tests hold it against.

:func:`symbol_order_check` is the other check that ``reduce`` runs: it
follows the slow invariant subspace of the micro symbol ``S(kappa)`` at
finite wavenumbers and measures the order to which the model's symbol
reproduces the dynamics on it.  Its chord correction solves the
construction's constrained Sylvester equation with the construction's
bordered Schur sweep, :class:`slowvary.slowreduce._BorderedSylvester`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse

from . import _rational as rat
from .crosssection import OperatorFamily, SpectralSplit
from .multiindex import enumerate_indices, index_factorial, index_sub, lower_sets, order
from .slowreduce import GeneratingBasis, ReducedModel, _BorderedSylvester

__all__ = [
    "BlockOperator",
    "build_block_operator",
    "build_block_A",
    "block_spectrum_check",
    "slow_subspace_matrix",
    "verify_slow_subspace",
    "SymbolOrder",
    "symbol_order_check",
]


@dataclass
class BlockOperator:
    """A matrix over the grouped Taylor state.

    ``table``, the indices of :func:`~slowvary.multiindex.enumerate_indices`
    in graded order, fixes the block layout; ``inner_dim`` is the per-index
    state size (``dimU`` for the full system, ``m`` for the reduced one).
    """

    table: tuple
    inner_dim: int
    matrix: np.ndarray

    @property
    def is_exact(self) -> bool:
        return self.matrix.dtype == object


def _assemble(table: tuple, inner: int, pick, exact: bool) -> np.ndarray:
    size = len(table) * inner
    out = rat.zeros((size, size), exact)
    pos = {k: i for i, k in enumerate(table)}
    for j, (k, below) in enumerate(lower_sets(table).items()):
        for n in below:
            blockmat = pick(index_sub(k, n))
            if sparse.issparse(blockmat):  # a CSR family operator
                blockmat = blockmat.toarray()
            if blockmat is not None:
                i = pos[n]
                out[i * inner : (i + 1) * inner, j * inner : (j + 1) * inner] = blockmat
    return out


def build_block_operator(family: OperatorFamily, N: int) -> BlockOperator:
    """Grouped generator with block ``(n, k) = L_{k-n}`` for ``k >= n``."""
    table = enumerate_indices(family.M, N)
    matrix = _assemble(table, family.dimU, family.operator, family.is_exact)
    return BlockOperator(table, family.dimU, matrix)


def build_block_A(model: ReducedModel) -> BlockOperator:
    """Grouped closure with block ``(n, k) = A_{k-n}`` for ``k >= n``."""
    table = enumerate_indices(model.M, model.N)

    def pick(diff):
        return model.A.get(diff)

    matrix = _assemble(table, model.m, pick, model.is_exact)
    return BlockOperator(table, model.m, matrix)


def block_spectrum_check(block: BlockOperator, family: OperatorFamily) -> float:
    """Largest distance pairing the block spectrum against tiled L_0 modes.

    The grouped generator is block upper triangular with ``L_0`` on every
    diagonal block, so its spectrum is that of ``L_0`` repeated once per
    retained index by construction.  Both spectra are computed with a
    dense ``eigvals``, then matched greedily nearest-first; the returned
    value is the worst matched distance.  It reads neither the model nor
    the basis and so measures only LAPACK's accuracy on a block-triangular
    matrix (about ``sqrt(eps)`` on a Jordan centre).  ``reduce`` no longer
    runs it; :func:`symbol_order_check` checks the model instead.
    """
    mat = rat.as_float(block.matrix)
    L0 = rat.as_float(family.L0)
    got = np.sort_complex(sla.eigvals(mat))
    expect = np.sort_complex(np.tile(sla.eigvals(L0), len(block.table)))
    if got.size != expect.size:
        raise ValueError("spectrum size mismatch; wrong family for this block")
    used = np.zeros(expect.size, dtype=bool)
    worst = 0.0
    for lam in got:
        diff = lam - expect
        dist = np.hypot(diff.real, diff.imag)  # np.abs of complex rounds unlike abs()
        dist[used] = np.inf
        j = int(np.argmin(dist))  # the first nearest, in the order of expect
        worst = max(worst, float(dist[j]))
        used[j] = True
    return worst


def slow_subspace_matrix(basis: GeneratingBasis) -> np.ndarray:
    """Flatten the generating polynomials into grouped-state columns.

    Column block ``n`` holds, at block row ``k``, the coefficient of
    ``xi^k / k!`` in the generating polynomial for ``n`` (that is,
    ``V^{n-k}``); rows beyond the triangle are zero.
    """
    table = enumerate_indices(basis.M, basis.N)
    d, m = basis.dimU, basis.m
    size = len(table)
    out = rat.zeros((size * d, size * m), basis.is_exact)
    pos = {k: i for i, k in enumerate(table)}
    for j, n in enumerate(table):
        for k, coeff in basis.poly[n].items():
            i = pos[k]
            out[i * d : (i + 1) * d, j * m : (j + 1) * m] = coeff * index_factorial(k)
    return out


def verify_slow_subspace(
    block: BlockOperator, block_A: BlockOperator, basis: GeneratingBasis
) -> float:
    """Max-abs residual of ``(grouped L) S - S (grouped A)``.

    Zero (to rounding) exactly when the flattened generating basis spans an
    invariant subspace of the grouped generator on which the dynamics is
    the grouped closure.  Exact inputs are evaluated in RatMatrix
    arithmetic, so they give exactly 0.0 when everything is right; with a
    float among them all three are taken as float.
    """
    mats = (block.matrix, block_A.matrix, slow_subspace_matrix(basis))
    convert = rat.as_ratmatrix if all(map(rat.is_exact, mats)) else rat.as_float
    L, A, S = map(convert, mats)
    resid = L @ S - S @ A
    return float(abs(resid).max()) if resid.size else 0.0


# -- the symbol-order oracle --------------------------------------------------

_RUNGS = 4  # |kappa| = kappa0 * 2^-j for j = 0 .. _RUNGS - 1
_CHORD_TOL = 1e-13  # relative residual max|S V - V B| / (|S|_inf max|V|)
_CHORD_MAXIT = 100
_FLOOR = 1e3 * np.finfo(float).eps  # rounding floor of the scaled coefficients


@dataclass
class SymbolOrder:
    """Outcome of :func:`symbol_order_check`.

    ``slopes`` maps each direction to the fitted slope of the error
    against ``|kappa|``, or None when fewer than two of its rungs lie above
    the rounding floor; ``slope`` is the smallest fitted slope (None when
    no direction has one).  ``iterations`` is the largest number of chord
    iterations any rung needed, ``message`` says why the check failed.
    """

    passed: bool
    slope: float | None
    rungs: int
    iterations: int
    slopes: dict = field(default_factory=dict)
    message: str = ""


def _norm2(L) -> float:
    """Spectral norm of a dense or CSR matrix, estimated from below by ten
    power steps on ``L.T L`` from a fixed random start."""
    v = np.random.default_rng(0).standard_normal(L.shape[1])
    v /= np.linalg.norm(v)
    s = 0.0
    for _ in range(10):
        w = L.T @ (L @ v)
        s = float(np.linalg.norm(w))
        if s == 0.0:
            break
        v = w / s
    return math.sqrt(s)


def _kappa_top(nu: dict, u, gap: float) -> float:
    """A quarter of the largest ``|kappa|`` at which each of the Q terms of
    ``sum_q c_q |kappa|^q``, a bound on ``|S(kappa u) - L_0|_2``, is at most
    ``gap / Q``; ``c_q`` sums ``|u^k| nu_k`` over ``|k| = q``."""
    c: dict = {}
    for k, x in nu.items():
        c[order(k)] = c.get(order(k), 0.0) + abs(math.prod(map(pow, u, k))) * x
    c = {q: cq for q, cq in c.items() if cq > 0}
    return 0.25 * min(((gap / (len(c) * cq)) ** (1.0 / q) for q, cq in c.items()), default=4.0)


def _fmt(u) -> str:
    return "(" + ", ".join(f"{x:.3g}" for x in u) + ")"


def _charpoly(stack) -> np.ndarray:
    """Characteristic-polynomial coefficients of each matrix of a stack,
    computed as ``np.poly`` does: multiplied out from the eigenvalues."""
    lam = np.linalg.eigvals(stack)
    c = np.zeros(lam.shape[:1] + (lam.shape[1] + 1,), dtype=complex)
    c[:, 0] = 1.0
    for j in range(lam.shape[1]):
        c[:, 1:j + 2] -= lam[:, j:j + 1] * c[:, :j + 1]
    return c


def symbol_order_check(
    family: OperatorFamily, split: SpectralSplit, model: ReducedModel, N: int
) -> SymbolOrder:
    """Measure the order to which ``model`` follows the slow symbol branch.

    The micro symbol ``S(kappa) = sum_k L_k (i kappa)^k`` has an
    m-dimensional slow invariant subspace ``V(kappa)`` near ``V0``; with
    ``Z0.T V = I`` the dynamics on it is ``B(kappa) = Z0.T S V``.  An
    order-N model reproduces it to ``O(|kappa|^(N+1))``.  The check takes
    ``|kappa| = kappa0 2^-j`` (j = 0..3) along each axis and, for M >= 2,
    along the all-ones diagonal.  Per direction, ``kappa0`` keeps a bound
    on ``|S(kappa) - L_0|`` (power-iteration estimates of ``|L_k|_2``) well
    below the gap ``beta`` (:func:`_kappa_top`).

    At every rung, ``V`` is found by the chord (Riccati) iteration
    ``V -= C^-1 (S V - V B)`` from ``V0``, where ``C`` is the constrained
    Sylvester operator ``Y -> L_0 Y - Y A_0`` with ``Z0.T Y = 0`` of the
    construction, inverted by its bordered Schur sweep
    (:class:`~slowvary.slowreduce._BorderedSylvester`, factorised once per
    call).  All rungs iterate together: ``C`` is real, so the real and
    imaginary parts of every live rung's residual go through one sweep as
    one real stack.  A rung stops only when its residual ``S V - V B``,
    computed directly, is below ``1e-13`` relative to ``|S|_inf max|V|``,
    so the fixed point is the true slow subspace whatever the solver does.  The characteristic
    polynomials of ``B / beta`` and of the model's symbol
    ``sum_n A_n (i kappa)^n / beta`` are compared (they are well
    conditioned on Jordan centres, where eigenvalues are not), and the
    slope of the error against ``|kappa|`` is fitted on the leading rungs
    above a rounding floor.  The check passes when every fitted slope is
    at least ``N + 0.5``; a direction with fewer than two rungs above the
    floor passes.  A rung whose iteration does not converge fails the
    check, with a message; a singular bordered matrix raises
    :class:`~slowvary.errors.SylvesterInconsistent`.  Costs
    ``O(rungs * iterations * dimU^2 * m)`` plus one sparse LU of size
    ``dimU + m`` per centre mode.
    """
    fam = family.to_float()
    V0, Z0, A0 = (rat.as_float(x) for x in (split.V0, split.Z0, split.A0))
    zero = fam.zero_index
    d, m, M = fam.dimU, split.m, fam.M
    gap = split.beta if math.isfinite(split.beta) else 1.0
    nu = {k: _norm2(L) for k, L in fam.ops.items() if k != zero}
    dirs = [tuple(e) for e in np.eye(M).tolist()] + ([(M ** -0.5,) * M] if M > 1 else [])
    ladder = np.array([_kappa_top(nu, u, gap) for u in dirs])[:, None] * 2.0 ** -np.arange(_RUNGS)
    kv = (ladder[:, :, None] * np.array(dirs)[:, None, :]).reshape(-1, M)  # (R, M)
    R = len(kv)
    # V, S V and the residual are (dimU, R, m) arrays; S V is sum_k f_k (L_k V),
    # each L_k V one real product with the interleaved view of V
    terms = [(np.prod((1j * kv) ** np.array(k), axis=1)[:, None], L)
             for k, L in fam.ops.items()]
    Snorm = sum(np.abs(f[:, 0]) * abs(L).sum(axis=1).max() for f, L in terms)
    chord = _BorderedSylvester(fam.L0, A0, Z0, solve=split.bordered_solve)
    V = np.repeat(V0[:, None, :], R, axis=1).astype(complex)
    done = np.zeros(R, dtype=bool)
    iters = np.zeros(R, dtype=int)
    with np.errstate(all="ignore"):
        for it in range(_CHORD_MAXIT + 1):
            wide = V.view(float).reshape(d, -1)
            SV = sum(f * (L @ wide).view(complex).reshape(d, R, m) for f, L in terms)
            B = (Z0.T @ SV.reshape(d, -1)).reshape(m, R, m).transpose(1, 0, 2)
            resid = SV - np.einsum("dri,rij->drj", V, B)
            scale = np.maximum(Snorm * np.abs(V).max(axis=(0, 2)), np.finfo(float).tiny)
            rel = np.abs(resid).max(axis=(0, 2)) / scale
            new = (rel <= _CHORD_TOL) & ~done
            iters[new] = it
            done |= new
            if (done | ~np.isfinite(rel)).all() or it == _CHORD_MAXIT:
                break
            live = resid[:, ~done]  # the real operator solves real and imaginary parts
            k = live.shape[1]
            Y = chord.sweep(np.concatenate([live.real, live.imag], axis=1),
                            np.zeros((m, 2 * k, m)))
            V[:, ~done] -= Y[:, :k] + 1j * Y[:, k:]
    if not done.all():
        r = int(np.flatnonzero(~done)[0])
        return SymbolOrder(False, None, R, it, message=(
            f"chord iteration for the slow subspace did not converge at |kappa| = "
            f"{ladder.flat[r]:.3g} along {_fmt(dirs[r // _RUNGS])} (relative residual "
            f"{rel[r]:.3g} after {it} iterations)"))
    # the model's symbol sum_n A_n (i kappa)^n at every rung
    exps = np.array(list(model.A))
    coeffs = np.array([rat.as_float(An) for An in model.A.values()])
    Ahat = np.prod((1j * kv[:, None, :]) ** exps, axis=2) @ coeffs.reshape(len(exps), -1)
    err = np.abs(_charpoly(B / gap) - _charpoly(Ahat.reshape(R, m, m) / gap)).max(axis=1)
    slopes = {}
    for i, u in enumerate(dirs):
        e = err[i * _RUNGS:(i + 1) * _RUNGS]
        above = int(np.argmin(e > _FLOOR)) if (e <= _FLOOR).any() else _RUNGS
        slopes[u] = (float(np.polyfit(np.log2(ladder[i, :above]), np.log2(e[:above]), 1)[0])
                     if above >= 2 else None)
    fitted = [(x, u) for u, x in slopes.items() if x is not None]
    slope, worst = min(fitted, default=(None, None))
    passed = slope is None or slope >= N + 0.5
    message = "" if passed else (
        f"the slow symbol branch error falls like |kappa|^{slope:.3g} along {_fmt(worst)}, "
        f"below the order N + 0.5 = {N + 0.5} of an order-{N} model")
    return SymbolOrder(passed, slope, R, int(iters.max()), slopes, message)

