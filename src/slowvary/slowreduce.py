"""Slow-variable reduction of a cross-section family.

Given a family ``L_k`` whose base operator admits a centre/stable split,
the macroscale closure is a polynomial evolution law

    dU/dt = sum_{|n| <= N} A_n d^n U / dx^n

whose coefficients, together with the basis vectors ``V^n`` mapping the
slow amplitudes back into the full state, satisfy a triangular recursion in
the graded order of ``n``:

    A_n = sum_{0 < k <= n} Z0.T L_k V^{n-k}
    L_0 V^n - V^n A_0 = - sum_{0 < k <= n} L_k V^{n-k}
                        + sum_{0 < k <= n} V^{n-k} A_k
    Z0.T V^n = 0.

The Sylvester operator on the left is singular (its nullspace is the centre
subspace itself); the orthogonality constraint against ``Z0`` restores a
unique solution.  Each step is solved on the Schur form ``A0 = U T U^H``:
the columns of ``V U`` are swept in order, each one a bordered system of
size ``dimU + m`` (``L0 - T_jj I`` bordered by ``Z0``) that is factorised
once per split and reused for every index.

The recursion runs on the generating polynomials
``Vt^n(xi) = sum_{k <= n} V^{n-k} xi^k / k!``, for which the same data
obeys a shifted convolution

    L_0 Vt^n - Vt^n A_0 = - sum_{0 < l <= n} L_l Vt^{n-l}
                          + sum_{0 < k <= n} Vt^{n-k} A_k,
    Z0.T Vt^n = xi^n / n!,

solved for every exponent at once.  Exponent 0 of ``Vt^n`` is ``V^n`` and
couples only to exponent 0, where the shifted convolution is the
recursion above term for term.  ``method="vectors"`` solves only that
exponent and forms the others as ``V^{n-k} / k!``; ``method="generating"``
solves every exponent.  Both give bitwise-equal ``A_n`` and ``V^n``; the
higher exponents of the second route are solved, not formed, so tests
compare them with ``V^{n-k} / k!``.

Inside this module a polynomial is a list of its exponents and one
coefficient stack of shape ``(K, dimU, m)``, slice i holding the
coefficient of exponent i.  Each term of the recursion is one array
operation on a whole stack (``L_l @ stack`` or ``stack @ A_k``), added
into the exponent positions of ``n`` in the recursion's order, and the
Sylvester solve takes the stack of right-hand sides.  Results leave as
dicts mapping exponents to ``(dimU, m)`` coefficients.  Float results
are bitwise equal to solving one coefficient at a time: numpy multiplies
each slice of a stack as it multiplies a lone matrix, CSR multiplies
each column of a block as it multiplies a lone column, sums start from
their first term (see :func:`_sum_at`) and each float slice keeps its
own LU solve.

Exact families (Fraction object arrays, ``--exact``) run the same code
in :class:`~slowvary._rational.RatMatrix` arithmetic (integer numerators
over one denominator), the only exact arithmetic type: the recursion,
the Sylvester solve and :func:`check_invariance` convert their Fraction
inputs on entry, and the recursion and the solve convert their results
back on exit, so models, bases and their files hold Fractions.  Each
exact solve must leave a zero residual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import _rational as rat
from .crosssection import DEFAULT_TOL, OperatorFamily, SpectralSplit, spectral_split
from .errors import SylvesterInconsistent
from .multiindex import (
    enumerate_indices,
    format_index,
    graded_key,
    index_factorial,
    index_sub,
    lower_sets,
    order,
    parse_index,
    partial_leq,
)

__all__ = [
    "ReducedModel",
    "GeneratingBasis",
    "construct_reduction",
    "solve_constrained_sylvester",
    "generating_vectors",
    "check_invariance",
]


# -- coefficient stacks -----------------------------------------------------
#
# A polynomial in the reconstruction variables is a list of monomial
# exponent tuples and a stack of shape (K, dimU, m) whose slice i is the
# coefficient of exponent i: a float array, or a RatMatrix in exact mode.
# Every step multiplies or accumulates whole stacks, never one coefficient
# at a time.


def _lmul(L, stack):
    """``L @ c`` for every coefficient ``c`` of a stack.

    A sparse ``L`` multiplies the stack laid side by side as one
    ``dimU x K*m`` block; CSR computes each column as it would alone.
    """
    if not sparse.issparse(L):
        return L @ stack
    K, d, m = stack.shape
    wide = stack.transpose(1, 0, 2).reshape(d, K * m)
    return (L @ wide).reshape(d, K, m).transpose(1, 0, 2)


def _sum_at(shape, terms, exact: bool):
    """Zeros of ``shape`` plus each term ``(pos, sign, stack)``, in order:
    ``sign * stack`` added at the exponent positions ``pos``.

    Float positions that some term reaches start from ``-0.0``, the
    additive identity (``-0.0 + x`` is ``x`` for every x, ``+0.0`` too), so
    each sum carries the bits, signed zeros included, of one that starts
    from its first term; the other positions hold ``+0.0``.
    """
    if exact:
        return rat.RatMatrix.sum_at(shape, terms)
    acc = np.zeros(shape)
    acc[sorted({i for pos, _, _ in terms for i in pos})] = -0.0
    for pos, sign, stack in terms:
        if sign > 0:
            acc[pos] += stack
        else:
            acc[pos] -= stack
    return acc


# -- the bordered Sylvester solver -----------------------------------------


class _BorderedSylvester:
    """Factorised solver for L0 V - V A0 = RHS subject to Z0.T V = G.

    On the Schur form ``A0 = U T U^H`` the columns of ``W = V U`` are
    swept in order, column j solving the bordered system
        [ L0 - T_jj I   Z0 ] [ w_j ]   [ (RHS U)_j + sum_{i<j} w_i T_ij ]
        [ Z0.T           0 ] [ mu  ] = [ (G U)_j                         ]
    factorised once per split.  It is nonsingular when T_jj is a centre
    eigenvalue: ``Z0.T w = 0`` puts w in the stable subspace, where
    ``L0 - T_jj I`` is invertible.  Float mode factorises with a sparse LU;
    the Schur form is real unless A0 has complex eigenvalues.  Exact mode
    takes ``U = I`` and ``T = A0`` (diagonal for an exact split), works in
    :class:`~slowvary._rational.RatMatrix` arithmetic and keeps the two
    blocks ``P, Q`` of the exact inverse that give ``w_j = P b + Q g``.
    Exact mode accepts only a zero residual, so a nonzero multiplier (an
    inconsistent system) raises.

    :meth:`solve` takes stacks: K right-hand sides of shape (K, dimU, m)
    and K constraints of shape (K, m, m), one system per slice.
    """

    def __init__(self, L0, A0, Z0, tol: float = DEFAULT_TOL):
        L0, A0, Z0 = (rat.as_ratmatrix(x) for x in (L0, A0, Z0))
        self.exact = isinstance(L0, rat.RatMatrix)
        self.L0, self.A0, self.Z0 = L0, A0, Z0
        self.d, self.m = L0.shape[0], A0.shape[0]
        self.tol = 0 if self.exact else tol
        self._size = abs(L0).max() + abs(A0).max()  # L0 may be CSR
        if self.exact:
            self._T = A0
        else:
            self._T, self._U = sla.schur(A0)
            if np.diag(self._T, -1).any():  # complex eigenvalues
                self._T, self._U = sla.rsf2csf(self._T, self._U)
        self._solves = [self._factorise(self._T[j, j]) for j in range(self.m)]

    def _factorise(self, t):
        """Column solve with the bordered matrix of ``L0 - t I``."""
        d, m = self.d, self.m
        try:
            if self.exact:
                R = rat.RatMatrix
                inv = rat.inverse_exact(R.block(
                    [[self.L0 - R.eye(d) * t, self.Z0], [self.Z0.T, R.zeros((m, m))]]
                ))
                return inv[:d, :d], inv[:d, d:]
            Z0s = sparse.csc_matrix(self.Z0)
            return spla.splu(sparse.bmat(
                [[sparse.csc_matrix(self.L0) - t * sparse.identity(d), Z0s], [Z0s.T, None]],
                format="csc",
            )).solve
        except (RuntimeError, ValueError) as exc:  # splu / exact: singular
            raise SylvesterInconsistent(
                f"bordered Sylvester matrix is singular at t = {t}: {exc}"
            ) from None

    def _schur_sweep(self, rhs, constraint):
        d, T = self.d, self._T
        RU, GU = rhs @ self._U, constraint @ self._U
        W = np.zeros(RU.shape, dtype=RU.dtype)
        for j, lu_solve in enumerate(self._solves):
            B = RU[:, :, j] + W[:, :, :j] @ T[:j, j]
            # one solve per slice: a multi-column SuperLU solve rounds differently
            for i, b in enumerate(B):
                W[i, :, j] = lu_solve(np.concatenate([b, GU[i, :, j]]))[:d]
        return (W @ self._U.conj().T).real

    def _exact_sweep(self, rhs, constraint):
        W = None
        for j, (P, Q) in enumerate(self._solves):
            b = rhs[:, :, j:j + 1]
            if j:
                b = b + W @ self._T[:j, j:j + 1]
            w = P @ b + Q @ constraint[:, :, j:j + 1]
            W = rat.RatMatrix.block([[W, w]]) if j else w
        return W

    def solve(self, rhs, constraint):
        """Return the unique stack V; ``constraint`` is the target of Z0.T V."""
        sweep = self._exact_sweep if self.exact else self._schur_sweep
        V = sweep(rhs, constraint)
        self._check(V, rhs, constraint)
        return V

    def _check(self, V, rhs, constraint) -> None:
        """Bound each slice's residuals by tol times that slice's scale;
        exact mode accepts only zero residuals."""
        axes = (1, 2)
        R1 = _lmul(self.L0, V) - V @ self.A0 - rhs
        R2 = self.Z0.T @ V - constraint
        if self.exact:
            bound = np.zeros(V.shape[0])
            bad = R1.any(axis=axes) | R2.any(axis=axes)
        else:
            scale = np.maximum(np.maximum(1.0, np.abs(rhs).max(axis=axes)),
                               np.abs(V).max(axis=axes) * self._size)
            bound = self.tol * scale
            ok = (np.abs(R1).max(axis=axes) <= bound) & (np.abs(R2).max(axis=axes) <= bound)
            bad = ~ok  # a NaN residual fails too
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise SylvesterInconsistent(
                f"constrained Sylvester residuals {float(abs(R1[i]).max()):.3g} (equation) / "
                f"{float(abs(R2[i]).max()):.3g} (constraint) exceed tol*scale = {bound[i]:.3g}"
            )


def solve_constrained_sylvester(
    L0: np.ndarray,
    A0: np.ndarray,
    Z0: np.ndarray,
    rhs: np.ndarray,
    constraint: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Solve ``L0 V - V A0 = rhs`` subject to ``Z0.T V = constraint``.

    The unconstrained Sylvester operator is singular whenever ``A0``'s
    spectrum sits inside ``L0``'s (always the case for a centre split); the
    constraint removes exactly that nullspace.  Raises
    :class:`SylvesterInconsistent` when no solution meets the tolerance.
    """
    solver = _BorderedSylvester(L0, A0, Z0, tol)
    if constraint is None:
        constraint = rat.zeros((solver.m, solver.m), solver.exact)
    rhs, constraint = rat.as_ratmatrix(rhs), rat.as_ratmatrix(constraint)
    return rat.as_fractions(solver.solve(rhs[None], constraint[None])[0])


# -- result types -----------------------------------------------------------


@dataclass
class ReducedModel:
    """Macroscale closure coefficients ``A_n`` for ``|n| <= N``."""

    M: int
    N: int
    m: int
    A: dict
    label: str | None = None

    @property
    def is_exact(self) -> bool:
        return next(iter(self.A.values())).dtype == object

    def coefficient(self, n) -> np.ndarray:
        n = tuple(n)
        if n in self.A:
            return self.A[n]
        return rat.zeros((self.m, self.m), self.is_exact)

    def equation_text(self, var: str = "U") -> str:
        """Human-readable PDE, e.g. ``dt U = -1/3 dx U + 8/27 dxx U``.

        Scalar closures only (m = 1); matrix-valued coefficients do not
        print well on one line.
        """
        if self.m != 1:
            raise ValueError("equation_text requires a scalar closure (m = 1)")
        names = "xyz" if self.M <= 3 else None
        parts = []
        graded = [(n, self.A[n]) for n in sorted(self.A, key=graded_key)]
        # rounding dust from a float construction is not worth printing
        floor = 1e-12 * max(
            (abs(float(An[0, 0])) for _, An in graded), default=0.0
        )
        for n, An in graded:
            a = An[0, 0]
            if order(n) == 0 or (not a) or abs(float(a)) < floor:
                continue
            coeff = str(a) if isinstance(a, Fraction) else f"{float(a):.6g}"
            dd = "".join(
                (names[j] if names else f"x{j + 1}") * nj
                for j, nj in enumerate(n)
            )
            parts.append(f"{coeff} ∂{dd} {var}")
        rhs = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"∂t {var} = {rhs}"

    def to_json(self) -> dict:
        A = {format_index(n): rat.encode_matrix(An) for n, An in self.A.items()}
        doc = {"N": self.N, "m": self.m, "A": A}
        if self.label is not None:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_json(cls, doc: dict, exact: bool = False) -> "ReducedModel":
        try:
            N = rat.json_int(doc, "N")
            m = rat.json_int(doc, "m")
            table = doc["A"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed reduced-model document: {exc}") from None
        if not isinstance(table, dict) or not table:
            raise ValueError("reduced-model document has no coefficients")
        A = {}
        M = None
        for key, rows in table.items():
            n = parse_index(key)
            M = len(n) if M is None else M
            if len(n) != M:
                raise ValueError("inconsistent multi-index dimensions in model")
            try:
                A[n] = rat.decode_matrix(rows, exact, (m, m))
            except ValueError as exc:
                raise ValueError(f"coefficient {key!r}: {exc}") from None
        return cls(M=M, N=N, m=m, A=A, label=doc.get("label"))

    def to_float(self) -> "ReducedModel":
        if not self.is_exact:
            return self
        A = {n: rat.as_float(An) for n, An in self.A.items()}
        return ReducedModel(M=self.M, N=self.N, m=self.m, A=A, label=self.label)

    def save(self, path) -> None:
        rat.save_json(path, self.to_json())

    @classmethod
    def load(cls, path, exact: bool = False) -> "ReducedModel":
        return cls.from_json(rat.load_json(path), exact=exact)


@dataclass
class GeneratingBasis:
    """Slow-subspace basis vectors and their generating polynomials.

    ``vectors[n]`` is the (dimU, m) coefficient ``V^n``; ``poly[n]`` maps a
    monomial exponent ``k`` to the coefficient of ``xi^k`` in the generating
    polynomial, which by construction equals ``V^{n-k} / k!``.  The two share
    arrays (``vectors[n]`` is ``poly[n][0]``, and on the vectors route so is
    ``poly[n+k][k]`` where ``k! == 1``), so neither is written into.
    """

    M: int
    N: int
    m: int
    dimU: int
    vectors: dict
    poly: dict

    @property
    def is_exact(self) -> bool:
        return next(iter(self.vectors.values())).dtype == object

    def to_float(self) -> "GeneratingBasis":
        if not self.is_exact:
            return self
        vectors = {n: rat.as_float(v) for n, v in self.vectors.items()}
        poly = {
            n: {k: rat.as_float(c) for k, c in p.items()}
            for n, p in self.poly.items()
        }
        return GeneratingBasis(
            M=self.M, N=self.N, m=self.m, dimU=self.dimU,
            vectors=vectors, poly=poly,
        )

    def to_json(self) -> dict:
        distinct = {id(c): c for p in (self.vectors, *self.poly.values()) for c in p.values()}
        rows = {key: rat.encode_matrix(c) for key, c in distinct.items()}  # each array once
        return {
            "N": self.N,
            "m": self.m,
            "dimU": self.dimU,
            "vectors": {format_index(n): rows[id(v)] for n, v in self.vectors.items()},
            "poly": {
                format_index(n): {format_index(k): rows[id(c)] for k, c in p.items()}
                for n, p in self.poly.items()
            },
        }

    def save(self, path) -> None:
        rat.save_json(path, self.to_json())


def generating_vectors(vectors: dict) -> dict:
    """Generating polynomials from plain basis vectors.

    For each stored index ``n`` the polynomial coefficient at exponent
    ``k <= n`` is ``V^{n-k} / k!``; other exponents vanish.  Each distinct
    ``V^j / q`` is formed once and shared; ``V^j / 1`` is ``V^j`` itself.
    """
    exact = rat.is_exact(next(iter(vectors.values())))

    @functools.cache
    def coefficient(j, q):
        return vectors[j] if q == 1 else vectors[j] * _reciprocal(q, exact)

    return {
        n: {k: coefficient(index_sub(n, k), index_factorial(k)) for k in below}
        for n, below in lower_sets(vectors).items()
    }


def _reciprocal(q: int, exact: bool):
    return Fraction(1, q) if exact else 1.0 / q


# -- the reduction itself ----------------------------------------------------


def _reduce(family, split, table, tol, every_exponent):
    """Run the recursion on the generating polynomials; returns (A, poly).

    Exponent 0 of ``Vt^n`` is ``V^n``.  It couples only to exponent 0, so
    without ``every_exponent`` only that coefficient is solved and
    ``poly`` is formed from the vectors by :func:`generating_vectors`.
    With it every exponent is solved, and exponent ``n`` carries the
    constraint ``Z0.T Vt^n = xi^n / n!``.  Each ``Vt^n`` is held as an
    exponent list and a coefficient stack; a nonzero exponent whose
    solved coefficient is zero is dropped.  Every term of a right-hand
    side is one stack product, added into the exponent positions of
    ``n`` in the order of the recursion.  Exact matrices are converted to
    RatMatrix on entry and back to Fraction arrays on exit.
    """
    zero = (0,) * family.M
    exact = family.is_exact
    d, m = family.dimU, split.m
    ops = {k: rat.as_ratmatrix(L) for k, L in family.ops.items() if k != zero}
    V0, Z0, A0 = (rat.as_ratmatrix(x) for x in (split.V0, split.Z0, split.A0))
    zeros, eye = (rat.RatMatrix.zeros, rat.RatMatrix.eye) if exact else (np.zeros, np.eye)
    eye_m = eye(m)
    poly = {zero: ([zero], V0[None])}
    A = {zero: A0}
    solver = _BorderedSylvester(family.L0, A0, Z0, tol)
    for n, below in lower_sets(table).items():
        if n == zero:
            continue
        rest = {k: poly[index_sub(n, k)] for k in below if k != zero}  # Vt^{n-k}
        An = None
        for k in below:
            if k in ops:
                term = Z0.T @ (ops[k] @ rest[k][1][0])
                An = term if An is None else An + term
        if An is None:
            An = zeros((m, m))
        A[n] = An
        # every exponent below lies on the right-hand side; exponent n, of
        # higher order than all of them, only carries the constraint
        exps = sorted({e for es, _ in rest.values() for e in es}, key=lambda t: (order(t), t))
        pos = {e: i for i, e in enumerate(exps)}
        terms = [([0], 1, (V0 @ An)[None])]
        for ell in below:
            if ell in ops:
                es, stack = rest[ell]
                terms.append(([pos[e] for e in es], -1, _lmul(ops[ell], stack)))
        for k in below:
            if k != zero and k != n:
                es, stack = rest[k]
                terms.append(([pos[e] for e in es], 1, stack @ A[k]))
        K = len(exps) + every_exponent
        rhs = _sum_at((K, d, m), terms, exact)
        target = [([K - 1], 1, (eye_m * _reciprocal(index_factorial(n), exact))[None])]
        constraint = _sum_at((K, m, m), target if every_exponent else [], exact)
        exps += [n] if every_exponent else []
        V = solver.solve(rhs, constraint)
        nonzero = V.any(axis=(1, 2))
        keep = [i for i, e in enumerate(exps) if e == zero or nonzero[i]]
        poly[n] = ([exps[i] for i in keep], V if len(keep) == len(exps) else V[keep])
    A = {n: rat.as_fractions(An) for n, An in A.items()}
    if not every_exponent:
        return A, generating_vectors({n: rat.as_fractions(V[0]) for n, (_, V) in poly.items()})
    return A, {n: dict(zip(es, rat.as_fractions(V))) for n, (es, V) in poly.items()}


def construct_reduction(
    family: OperatorFamily,
    N: int,
    split: SpectralSplit | None = None,
    alpha: float | None = None,
    tol: float = DEFAULT_TOL,
    method: str = "vectors",
) -> tuple[ReducedModel, GeneratingBasis]:
    """Construct the order-N macroscale closure of a family.

    Parameters
    ----------
    family : OperatorFamily
    N : int
        Truncation order of the closure.
    split : SpectralSplit, optional
        Reuse an existing split; computed from the family otherwise.
    alpha : float, optional
        Passed to :func:`spectral_split` when the split is computed here.
    tol : float
        Residual tolerance for each constrained Sylvester solve.
    method : {"vectors", "generating"}
        Solve only exponent 0 of the generating polynomials (the plain
        basis vectors) and form the higher exponents as ``V^{n-k} / k!``,
        or solve every exponent.  ``A_n`` and ``V^n`` are bitwise equal
        on both routes; only the higher polynomial coefficients differ,
        by rounding.

    Returns
    -------
    (ReducedModel, GeneratingBasis)
    """
    if method not in ("vectors", "generating"):
        raise ValueError(f"unknown construction method {method!r}")
    if split is None:
        split = spectral_split(family, N, alpha)
    if family.is_exact != split.is_exact:
        raise ValueError("family and split must share the arithmetic mode")
    table = enumerate_indices(family.M, N)
    zero = (0,) * family.M
    A, poly = _reduce(family, split, table, tol, every_exponent=method == "generating")
    vectors = {n: poly[n][zero] for n in poly}
    model = ReducedModel(M=family.M, N=N, m=split.m, A=A, label=family.label)
    basis = GeneratingBasis(
        M=family.M,
        N=N,
        m=split.m,
        dimU=family.dimU,
        vectors=vectors,
        poly=poly,
    )
    return model, basis


def _invariance_residuals(family: OperatorFamily, model: ReducedModel,
                          basis: GeneratingBasis):
    """Yield ``(n, exponents, diff, mag)`` for every retained index ``n``:
    at ``exponents``, the coefficients of the residual of
    :func:`check_invariance` for ``Vt^n`` and of its scale (zeros if exact)."""
    exact = basis.is_exact
    ops = {ell: rat.as_ratmatrix(L) for ell, L in family.ops.items()}
    poly = {n: (list(p), rat.as_ratmatrix(np.stack(list(p.values()))))
            for n, p in basis.poly.items()}
    A = {k: rat.as_ratmatrix(model.coefficient(k)) for k in poly}
    mag_ops, mag_A = ({}, {}) if exact else (
        {ell: abs(L) for ell, L in ops.items()}, {k: np.abs(a) for k, a in A.items()})
    # d^l takes exponent k >= l to k - l with weight prod_i k_i! / (k_i - l_i)!
    shifts = {(k, ell): (index_sub(k, ell), math.prod(map(math.perm, k, ell)))
              for k in {e for es, _ in poly.values() for e in es}
              for ell in ops if partial_leq(ell, k)}
    for n, below in lower_sets(poly).items():
        exps, stack = poly[n]
        pos: dict = {}
        lhs_terms, rhs_terms, mag_terms = [], [], []
        for ell, L in ops.items():
            hit = [(i, *shifts[k, ell]) for i, k in enumerate(exps) if (k, ell) in shifts]
            if hit:
                idx, targets, weights = zip(*hit)
                derivative = stack[list(idx)] * np.array(weights).reshape(-1, 1, 1)
                at = [pos.setdefault(e, len(pos)) for e in targets]
                lhs_terms.append((at, 1, _lmul(L, derivative)))
                if not exact:
                    mag_terms.append((at, 1, _lmul(mag_ops[ell], abs(derivative))))
        for k in below:
            es, part = poly[index_sub(n, k)]
            at = [pos.setdefault(e, len(pos)) for e in es]
            rhs_terms.append((at, 1, part @ A[k]))
            if not exact:
                mag_terms.append((at, 1, abs(part) @ mag_A[k]))
        shape = (len(pos), basis.dimU, basis.m)
        diff = _sum_at(shape, lhs_terms, exact) - _sum_at(shape, rhs_terms, exact)
        yield n, list(pos), diff, _sum_at(shape, mag_terms, False)


def check_invariance(family: OperatorFamily, model: ReducedModel, basis: GeneratingBasis,
                     with_scale: bool = False):
    """Residual of the slow-subspace invariance identity.

    For every retained index ``n`` the generating polynomials must satisfy
    ``sum_l L_l d^l Vt^n = sum_{k <= n} Vt^{n-k} A_k`` coefficient by
    coefficient; the derivative on the left is evaluated as an actual
    polynomial derivative, so this is an independent check of the
    construction, not a restatement of it.  Each polynomial is stacked as
    in the recursion: ``d^l`` gathers the coefficients of exponents
    ``k >= l``, weights them by the falling factorials and moves them to
    ``k - l``.  Returns the largest absolute residual entry (exactly 0.0
    in exact mode when everything is right; exact inputs are evaluated in
    RatMatrix arithmetic; NaN if any entry is NaN).  The tests hold the
    residual entry by entry against the block Taylor system of
    :mod:`slowvary.taylorsystem`.

    With ``with_scale`` it returns ``(residual, scale)``, the scale being the
    largest entry of ``sum_l |L_l| |d^l Vt^n| + sum_k |Vt^{n-k}| |A_k|``,
    the size rounding scales with (0.0 for exact inputs: no rounding).
    """
    worst = scale = 0.0
    for _, _, diff, mag in _invariance_residuals(family, model, basis):
        worst = np.maximum(worst, float(abs(diff).max()))
        scale = np.maximum(scale, mag.max())
    return (float(worst), float(scale)) if with_scale else float(worst)
