"""The recursion on the basis vectors and its invariance check against
the dict-based polynomial code.

``slowreduce`` once held each generating polynomial as a dict of
``(dimU, m)`` coefficients, solved one coefficient at a time, and could
solve every exponent of it.  That code is kept below, unchanged but for its
imports, as the reference.  On seeded families, construction with either
``method`` value must give, against the reference's exponent-0 sweep,
bitwise-equal float ``A_n``, ``V^n`` and polynomials (signed zeros and the
key order of ``poly[n]`` included) and Fraction-equal exact ones.  Against
the reference's every-exponent solve, ``A_n`` and ``V^n`` are again
bitwise equal and the polynomials formed from the vectors equal the
solved ones: as Fractions in exact mode, within 1e-9 relative in float.
The invariance residual, evaluated once per index from the vectors, is
bitwise the largest coefficient of the reference's derivative-form
residual over every exponent.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

import slowvary as sv
from slowvary import _rational as rat
from slowvary.crosssection import DEFAULT_TOL, OperatorFamily
from slowvary.errors import SylvesterInconsistent
from slowvary.models import (
    CellProblem,
    cell_spectral_split,
    homogenisation_cell,
    random_walker_modal,
    random_walker_physical,
)
from slowvary.multiindex import (
    enumerate_indices,
    index_factorial,
    index_sub,
    lower_sets,
    order,
    partial_leq,
)
from slowvary.slowreduce import GeneratingBasis, ReducedModel, generating_vectors

from conftest import random_gap_family, random_rational_family


# -- polynomial helpers ----------------------------------------------------
#
# A polynomial in the reconstruction variables is a dict mapping monomial
# exponent tuples to (dimU, m) coefficient arrays.  Zero coefficients are
# simply absent.


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        out[k] = out[k] + c if k in out else c
    return out


def _poly_sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        out[k] = out[k] - c if k in out else -c
    return out


def _poly_lmul(L: np.ndarray, p: dict) -> dict:
    return {k: L @ c for k, c in p.items()}


def _poly_rmul(p: dict, A: np.ndarray) -> dict:
    return {k: c @ A for k, c in p.items()}


def _poly_diff(p: dict, ell: tuple[int, ...]) -> dict:
    """Apply the monomial derivative d^ell; exact falling factorials."""
    out = {}
    for k, c in p.items():
        if not partial_leq(ell, k):
            continue
        fall = 1
        for ki, li in zip(k, ell):
            for j in range(ki, ki - li, -1):
                fall *= j
        out[index_sub(k, ell)] = c * fall
    return out


def _poly_maxabs(p: dict) -> float:
    worst = 0.0
    for c in p.values():
        if c.size:
            worst = max(worst, float(abs(c).max()))
    return worst


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
        W = np.zeros((d, self.m), dtype=RU.dtype)
        for j, lu_solve in enumerate(self._solves):
            b = RU[:, j] + W[:, :j] @ T[:j, j]
            W[:, j] = lu_solve(np.concatenate([b, GU[:, j]]))[:d]
        return (W @ self._U.conj().T).real

    def _exact_sweep(self, rhs, constraint):
        W = None
        for j, (P, Q) in enumerate(self._solves):
            b = rhs[:, j:j + 1]
            if j:
                b = b + W @ self._T[:j, j:j + 1]
            w = P @ b + Q @ constraint[:, j:j + 1]
            W = rat.RatMatrix.block([[W, w]]) if j else w
        return W

    def solve(self, rhs, constraint=None):
        """Return the unique V; ``constraint`` is the target of Z0.T V."""
        if constraint is None:
            zeros = rat.RatMatrix.zeros if self.exact else np.zeros
            constraint = zeros((self.m, self.m))
        rhs, constraint = rat.as_ratmatrix(rhs), rat.as_ratmatrix(constraint)
        sweep = self._exact_sweep if self.exact else self._schur_sweep
        V = sweep(rhs, constraint)
        self._check(V, rhs, constraint)
        return V

    def _check(self, V, rhs, constraint) -> None:
        res1 = abs(self.L0 @ V - V @ self.A0 - rhs).max()
        res2 = abs(self.Z0.T @ V - constraint).max()
        scale = max(
            1.0,
            float(abs(rhs).max()) if rhs.size else 0.0,
            float(abs(V).max()) * self._size,
        )
        bound = self.tol * scale
        if not (res1 <= bound and res2 <= bound):  # a NaN residual fails too
            raise SylvesterInconsistent(
                f"constrained Sylvester residuals {float(res1):.3g} (equation) / "
                f"{float(res2):.3g} (constraint) exceed tol*scale = {bound:.3g}"
            )


def _reciprocal(q: int, exact: bool):
    return Fraction(1, q) if exact else 1.0 / q


# -- the reduction itself ----------------------------------------------------


def _reduce(family, split, table, tol, every_exponent):
    """Run the recursion on the generating polynomials; returns (A, poly).

    Exponent 0 of ``Vt^n`` is ``V^n``.  It couples only to exponent 0, so
    without ``every_exponent`` only that coefficient is solved and
    ``poly`` is formed from the vectors by :func:`generating_vectors`.
    With it every exponent is solved, and exponent ``n`` carries the
    constraint ``Z0.T Vt^n = xi^n / n!``.  Exact matrices are converted to
    RatMatrix on entry and back to Fraction arrays on exit.
    """
    zero = (0,) * family.M
    exact = family.is_exact
    m = split.m
    ops = {k: rat.as_ratmatrix(L) for k, L in family.ops.items() if k != zero}
    V0, Z0, A0 = (rat.as_ratmatrix(x) for x in (split.V0, split.Z0, split.A0))
    zeros, eye = (rat.RatMatrix.zeros, rat.RatMatrix.eye) if exact else (np.zeros, np.eye)
    eye_m = eye(m)
    poly = {zero: {zero: V0}}
    A = {zero: A0}
    solver = _BorderedSylvester(family.L0, A0, Z0, tol)
    for n, below in lower_sets(table).items():
        if n == zero:
            continue
        An = None
        for k in below:
            if k in ops:
                term = Z0.T @ (ops[k] @ poly[index_sub(n, k)][zero])
                An = term if An is None else An + term
        if An is None:
            An = zeros((m, m))
        A[n] = An
        rhs = _poly_rmul(poly[zero], An)
        for ell in below:
            if ell in ops:
                rhs = _poly_sub(rhs, _poly_lmul(ops[ell], poly[index_sub(n, ell)]))
        for k in below:
            if k != zero and k != n:
                rhs = _poly_add(rhs, _poly_rmul(poly[index_sub(n, k)], A[k]))
        target = eye_m * _reciprocal(index_factorial(n), exact)
        exponents = (
            sorted(set(rhs) | {n}, key=lambda t: (order(t), t)) if every_exponent else [zero]
        )
        terms = {}
        for e in exponents:
            rhs_e = rhs.get(e)
            if rhs_e is None:
                rhs_e = zeros((family.dimU, m))
            coeff = solver.solve(rhs_e, target if e == n else None)
            if e == zero or coeff.any():
                terms[e] = coeff
        poly[n] = terms
    if not every_exponent:
        poly = generating_vectors({n: p[zero] for n, p in poly.items()})
    A = {n: rat.as_fractions(An) for n, An in A.items()}
    return A, {n: {e: rat.as_fractions(c) for e, c in p.items()} for n, p in poly.items()}


def check_invariance(
    family: OperatorFamily, model: ReducedModel, basis: GeneratingBasis
) -> float:
    """Residual of the slow-subspace invariance identity.

    For every retained index ``n`` the generating polynomials must satisfy
    ``sum_l L_l d^l Vt^n = sum_{k <= n} Vt^{n-k} A_k`` coefficient by
    coefficient; the derivative on the left is evaluated as an actual
    polynomial derivative, so this is an independent check of the
    construction, not a restatement of it.  Returns the largest absolute
    residual entry (exactly 0.0 in exact mode when everything is right;
    exact inputs are evaluated in RatMatrix arithmetic).
    """
    ops = {ell: rat.as_ratmatrix(L) for ell, L in family.ops.items()}
    poly = {n: {k: rat.as_ratmatrix(c) for k, c in p.items()} for n, p in basis.poly.items()}
    A = {k: rat.as_ratmatrix(model.coefficient(k)) for k in poly}
    worst = 0.0
    for n, below in lower_sets(poly).items():
        lhs: dict = {}
        for ell, L in ops.items():
            lhs = _poly_add(lhs, _poly_lmul(L, _poly_diff(poly[n], ell)))
        rhs: dict = {}
        for k in below:
            rhs = _poly_add(rhs, _poly_rmul(poly[index_sub(n, k)], A[k]))
        diff = _poly_sub(lhs, rhs)
        worst = max(worst, _poly_maxabs(diff))
    return worst


# -- the comparison ------------------------------------------------------------


def _assert_same_array(got, want, where):
    if rat.is_exact(want):
        assert rat.is_exact(got) and got.tolist() == want.tolist(), where
        return
    assert got.dtype == want.dtype and got.shape == want.shape, where
    assert (np.signbit(got) == np.signbit(want)).all(), where
    assert got.tobytes() == want.tobytes(), where


def assert_matches_solved_route(family, N, split, method="vectors", rel=1e-9):
    """The construction against the reference solve of every exponent:
    bitwise ``A_n`` and ``V^n``, and each ``basis.poly[n][k]``, formed as
    ``V^{n-k} / k!``, equal to the solved coefficient (a missing one is
    zero): exactly for exact bases, within ``rel`` of the largest vector
    entry in float.  Returns the model and the basis."""
    model, basis = sv.construct_reduction(family, N, split=split, method=method)
    A, poly = _reduce(family, split, enumerate_indices(family.M, N), DEFAULT_TOL,
                      every_exponent=True)
    zero = (0,) * family.M
    assert list(model.A) == list(A) and list(basis.poly) == list(poly)
    for n in A:
        _assert_same_array(model.A[n], A[n], ("A", n))
        _assert_same_array(basis.vectors[n], poly[n][zero], ("V", n))
    scale = max(1.0, max(float(np.abs(np.asarray(v, float)).max())
                         for v in basis.vectors.values()))
    for n, terms in basis.poly.items():
        for k in terms.keys() | poly[n].keys():
            diff = terms.get(k, 0) - poly[n].get(k, 0)
            if basis.is_exact:
                assert all(x == 0 for x in diff.reshape(-1)), (n, k)
            else:
                assert np.abs(diff).max() <= rel * scale, (n, k, np.abs(diff).max())
    return model, basis


def _assert_matches_reference(family, N, method, split):
    """Either method value against the exponent-0 sweep (bitwise, polynomials
    included); ``"generating"`` also against the every-exponent solve."""
    model, basis = sv.construct_reduction(family, N, split=split, method=method)
    A, poly = _reduce(family, split, enumerate_indices(family.M, N), DEFAULT_TOL,
                      every_exponent=False)
    zero = (0,) * family.M
    assert list(model.A) == list(A) and list(basis.poly) == list(poly)
    for n in A:
        _assert_same_array(model.A[n], A[n], ("A", n))
        _assert_same_array(basis.vectors[n], poly[n][zero], ("V", n))
        assert list(basis.poly[n]) == list(poly[n]), ("poly keys", n)
        for e in poly[n]:
            _assert_same_array(basis.poly[n][e], poly[n][e], ("poly", n, e))
    if method == "generating":
        assert_matches_solved_route(family, N, split, method)
    got, want = sv.check_invariance(family, model, basis), check_invariance(family, model, basis)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)
    return model, basis


_METHODS = ("vectors", "generating")
_JORDAN_ALPHA = {2: 1e-6, 3: 1e-4}
# (seed, centre, m, M, N); dimU is drawn from the seed
_DENSE_CASES = [(6000, "zero", 1, 2, 4), (6001, "zero", 2, 1, 5), (6002, "zero", 3, 2, 3),
                (6003, "rotation", 2, 1, 4), (6004, "rotation", 2, 2, 3),
                (6005, "jordan", 2, 2, 3), (6006, "jordan", 3, 1, 4)]


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("seed, centre, m, M, N", _DENSE_CASES,
                         ids=[f"{c}-m{m}-M{M}" for _, c, m, M, _ in _DENSE_CASES])
def test_dense_float_matches_reference(seed, centre, m, M, N, method):
    rng = np.random.default_rng(seed)
    fam = random_gap_family(rng, dimU=int(rng.integers(m + 2, 40)), M=M, m=m, centre=centre)
    alpha = _JORDAN_ALPHA[m] if centre == "jordan" else None
    _assert_matches_reference(fam, N, method, sv.spectral_split(fam, N, alpha=alpha))


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("walker", ["modal", "physical"])
def test_float_walker_matches_reference(walker, method):
    """The walker's operators hold exact zeros, so its sums meet signed zeros."""
    fam = (random_walker_modal if walker == "modal" else random_walker_physical)()
    _assert_matches_reference(fam, 6, method, sv.spectral_split(fam, 6))


@pytest.mark.parametrize("method", _METHODS)
def test_support_gap_float_matches_reference(method):
    rng = np.random.default_rng(6100)
    full = random_gap_family(rng, dimU=11, M=2, m=2)
    fam = sv.OperatorFamily({k: full.ops[k] for k in [(0, 0), (2, 0), (0, 2)]})
    _assert_matches_reference(fam, 4, method, sv.spectral_split(fam, 4))


@pytest.mark.parametrize("method", _METHODS)
def test_csr_cell_matches_reference(method):
    fam = homogenisation_cell(CellProblem.from_expression("layered_cos", n=16))
    assert sparse.issparse(fam.L0)
    _assert_matches_reference(fam, 3, method, cell_spectral_split(fam, 3))


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("walker, N", [("modal", 6), ("physical", 6), ("modal", 10)])
def test_exact_walker_matches_reference(walker, N, method):
    fam = (random_walker_modal if walker == "modal" else random_walker_physical)(exact=True)
    model, _ = _assert_matches_reference(fam, N, method, sv.spectral_split(fam, N))
    if walker == "modal":
        assert model.A[(2, 0)][0, 0] == Fraction(8, 27)


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("seed, M, m, support", [
    (6200, 2, 2, None), (6201, 1, 1, None), (6202, 2, 1, [(0, 0), (1, 1), (0, 2)]),
], ids=["M2-m2", "M1-m1", "M2-gaps"])
def test_exact_rational_matches_reference(seed, M, m, support, method):
    rng = np.random.default_rng(seed)
    fam = random_rational_family(rng, dimU=int(rng.integers(m + 2, 6)), M=M, m=m)
    if support is not None:
        fam = sv.OperatorFamily({k: fam.ops[k] for k in support})
    _assert_matches_reference(fam, 3, method, sv.spectral_split(fam, 3))
