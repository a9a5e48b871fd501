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

The generating polynomials ``Vt^n(xi) = sum_{k <= n} V^{n-k} xi^k / k!``
(the cross-section Taylor series of the slow subspace) obey a shifted
convolution of the same data,

    L_0 Vt^n - Vt^n A_0 = - sum_{0 < l <= n} L_l Vt^{n-l}
                          + sum_{0 < k <= n} Vt^{n-k} A_k,

whose exponent-0 coefficient is the recursion above term for term and
whose exponent-``e`` coefficient is ``1/e!`` times the exponent-0
coefficient for ``n - e``.  So the polynomials hold nothing that the
vectors do not: the recursion runs on the vectors alone, one bordered
solve per index, and :func:`generating_vectors` forms the polynomials
from them for ``basis.json`` and the block Taylor reference.  Likewise
:func:`check_invariance` evaluates the exponent-0 identity once per
index.

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
import operator
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
            if sparse.issparse(self.L0):
                Z0s = sparse.csc_matrix(self.Z0)
                border = sparse.bmat(
                    [[sparse.csc_matrix(self.L0) - t * sparse.identity(d), Z0s], [Z0s.T, None]],
                    format="csc",
                )
            else:  # the same CSC matrix, assembled several times faster than by bmat
                border = sparse.csc_matrix(np.block(
                    [[self.L0 - t * np.eye(d), self.Z0], [self.Z0.T, np.zeros((m, m))]]))
            return spla.splu(border).solve
        except (RuntimeError, ValueError) as exc:  # splu / exact: singular
            raise SylvesterInconsistent(
                f"bordered Sylvester matrix is singular at t = {t}: {exc}"
            ) from None

    def _schur_sweep(self, rhs, constraint):
        d, T = self.d, self._T
        RU, GU = rhs @ self._U, constraint @ self._U
        W = np.zeros(RU.shape, dtype=RU.dtype)
        for j, lu_solve in enumerate(self._solves):
            b = RU[..., j] + W[..., :j] @ T[:j, j]
            W[..., j] = lu_solve(np.concatenate([b, GU[..., j]]))[:d]
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

    def sweep(self, rhs, constraint):
        """The unchecked solution V of ``L0 V - V A0 = rhs``, ``Z0.T V = constraint``.

        ``rhs`` is ``(dimU, m)`` and ``constraint`` ``(m, m)``.  In float mode
        they may also be real stacks ``(dimU, K, m)`` and ``(m, K, m)`` of K
        systems, solved together column by column of the Schur form; slice
        ``[:, k]`` of the result solves system k.  Nothing checks the
        residuals, and a non-finite input gives a non-finite output.
        """
        sweep = self._exact_sweep if self.exact else self._schur_sweep
        return sweep(rhs, constraint)

    def solve(self, rhs, constraint):
        """Return the unique ``(dimU, m)`` V; ``constraint`` is the target of Z0.T V."""
        V = self.sweep(rhs, constraint)
        self._check(V, rhs, constraint)
        return V

    def _check(self, V, rhs, constraint) -> None:
        """Bound both residuals by tol times the solve's scale; exact mode
        (tol 0) accepts only zero residuals."""
        res1 = abs(self.L0 @ V - V @ self.A0 - rhs).max()
        res2 = abs(self.Z0.T @ V - constraint).max()
        scale = np.maximum(np.maximum(1.0, float(abs(rhs).max())),
                           float(abs(V).max()) * self._size)
        bound = self.tol * scale
        if not (res1 <= bound and res2 <= bound):  # a NaN residual fails too
            raise SylvesterInconsistent(
                f"constrained Sylvester residuals {float(res1):.3g} (equation) / "
                f"{float(res2):.3g} (constraint) exceed tol*scale = {bound:.3g}"
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
    return rat.as_fractions(solver.solve(rhs, constraint))


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

    def equation_text(self) -> str:
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
            parts.append(f"{coeff} ∂{dd} U")
        rhs = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"∂t U = {rhs}"

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

    ``vectors[n]`` is the (dimU, m) coefficient ``V^n``.  ``poly``, formed
    once from them by :func:`generating_vectors`, maps each ``n`` to its
    generating polynomial: exponent ``k`` to the coefficient ``V^{n-k} / k!``
    of ``xi^k``.  The two share arrays (``poly[n][k]`` is ``vectors[n-k]``
    where ``k! == 1``), so neither is written into.
    """

    M: int
    N: int
    m: int
    dimU: int
    vectors: dict

    @functools.cached_property
    def poly(self) -> dict:
        return generating_vectors(self.vectors)

    @property
    def is_exact(self) -> bool:
        return next(iter(self.vectors.values())).dtype == object

    def to_float(self) -> "GeneratingBasis":
        if not self.is_exact:
            return self
        vectors = {n: rat.as_float(v) for n, v in self.vectors.items()}
        return GeneratingBasis(M=self.M, N=self.N, m=self.m, dimU=self.dimU, vectors=vectors)

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
        return vectors[j] if q == 1 else vectors[j] * (Fraction(1, q) if exact else 1.0 / q)

    return {
        n: {k: coefficient(index_sub(n, k), index_factorial(k)) for k in below}
        for n, below in lower_sets(vectors).items()
    }


def _total(terms):
    """Sum of ``terms`` that starts from the first one, so a float sum keeps
    the signed zeros that a sum from ``0.0`` would lose."""
    return functools.reduce(operator.add, terms)


# -- the reduction itself ----------------------------------------------------


def _reduce(family, split, table, tol):
    """Run the recursion on the basis vectors; returns (A, vectors).

    Per index, ``A_n`` first, then the right-hand side
    ``V0 A_n - sum_l L_l V^{n-l} + sum_k V^{n-k} A_k`` summed term by term
    in that order, then one bordered solve with the constraint
    ``Z0.T V^n = 0``.  Exact matrices are converted to RatMatrix on entry
    and back to Fraction arrays on exit.
    """
    zero = (0,) * family.M
    m = split.m
    ops = {k: rat.as_ratmatrix(L) for k, L in family.ops.items() if k != zero}
    V0, Z0, A0 = (rat.as_ratmatrix(x) for x in (split.V0, split.Z0, split.A0))
    zeros = rat.RatMatrix.zeros if family.is_exact else np.zeros
    constraint = zeros((m, m))
    solver = _BorderedSylvester(family.L0, A0, Z0, tol)
    A, V = {zero: A0}, {zero: V0}
    for n, below in lower_sets(table).items():
        if n == zero:
            continue
        terms = [Z0.T @ (ops[k] @ V[index_sub(n, k)]) for k in below if k in ops]
        A[n] = _total(terms) if terms else zeros((m, m))
        rhs = V0 @ A[n]
        for ell in below:
            if ell in ops:
                rhs = rhs - ops[ell] @ V[index_sub(n, ell)]
        for k in below:
            if k != zero and k != n:
                rhs = rhs + V[index_sub(n, k)] @ A[k]
        V[n] = solver.solve(rhs, constraint)
    return ({n: rat.as_fractions(An) for n, An in A.items()},
            {n: rat.as_fractions(Vn) for n, Vn in V.items()})


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
        Both values run the one recursion on the basis vectors and give
        the same model and basis.  The argument stays, validated, until
        the benchmark that passes ``"generating"`` drops it.

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
    A, vectors = _reduce(family, split, enumerate_indices(family.M, N), tol)
    model = ReducedModel(M=family.M, N=N, m=split.m, A=A, label=family.label)
    basis = GeneratingBasis(M=family.M, N=N, m=split.m, dimU=family.dimU, vectors=vectors)
    return model, basis


def _invariance_residuals(family: OperatorFamily, model: ReducedModel,
                          basis: GeneratingBasis):
    """Yield ``(n, diff, mag)`` for every retained index ``n``: the residual
    of :func:`check_invariance` for ``n`` and its scale (None if exact)."""
    exact = basis.is_exact
    ops = {ell: rat.as_ratmatrix(L) for ell, L in family.ops.items()}
    V = {n: rat.as_ratmatrix(v) for n, v in basis.vectors.items()}
    A = {k: rat.as_ratmatrix(model.coefficient(k)) for k in V}
    if not exact:
        mag_ops, mag_V, mag_A = ({k: abs(x) for k, x in d.items()} for d in (ops, V, A))
    for n, below in lower_sets(V).items():
        left = [(ell, index_sub(n, ell)) for ell in ops if partial_leq(ell, n)]
        right = [(index_sub(n, k), k) for k in below]
        diff = _total(ops[ell] @ V[j] for ell, j in left) - _total(V[j] @ A[k] for j, k in right)
        mag = None if exact else _total(
            [mag_ops[ell] @ mag_V[j] for ell, j in left] + [mag_V[j] @ mag_A[k] for j, k in right])
        yield n, diff, mag


def check_invariance(family: OperatorFamily, model: ReducedModel, basis: GeneratingBasis,
                     with_scale: bool = False):
    """Residual of the slow-subspace invariance identity.

    For every retained index ``n`` the basis vectors and the closure must
    satisfy ``sum_{l <= n} L_l V^{n-l} = sum_{k <= n} V^{n-k} A_k``, the
    exponent-0 coefficient of the identity
    ``sum_l L_l d^l Vt^n = sum_k Vt^{n-k} A_k`` of the generating
    polynomials, whose exponent ``e`` is ``1/e!`` times the identity of
    ``n - e``.  It is evaluated once per index from ``basis.vectors`` and
    ``model.A``, apart from the recursion's right-hand-side assembly.
    Returns the largest absolute residual entry (exactly 0.0 in exact mode
    when everything is right; exact inputs are evaluated in RatMatrix
    arithmetic; NaN if any entry is NaN).  The tests hold the residual
    entry by entry against the block Taylor system of
    :mod:`slowvary.taylorsystem`: its block ``(k, n)`` is the residual of
    ``n - k``.

    With ``with_scale`` it returns ``(residual, scale)``, the scale being the
    largest entry of ``sum_l |L_l| |V^{n-l}| + sum_k |V^{n-k}| |A_k|``,
    the size rounding scales with (0.0 for exact inputs: no rounding).
    """
    worst = scale = 0.0
    for _, diff, mag in _invariance_residuals(family, model, basis):
        worst = np.maximum(worst, float(abs(diff).max()))
        if mag is not None:
            scale = np.maximum(scale, mag.max())
    return (float(worst), float(scale)) if with_scale else float(worst)
