"""Operator families over the cross-section and their spectral splitting.

An evolution system ``du/dt = sum_k L_k d^k u / dx^k`` for fields with
``dimU`` components over ``M`` unbounded directions is described by the
finite family of cross-section operators ``L_k``, one square matrix per
derivative multi-index ``k``.  The base operator ``L_0`` generates the
cross-section dynamics; splitting its spectrum into a slow centre cluster
and a uniformly decaying remainder is the structural assumption every
reduction downstream rests on:

* centre eigenvalues satisfy ``|Re lam| <= alpha``,
* all remaining eigenvalues satisfy ``Re lam <= -beta < 0``,
* the gap is wide enough for the truncation order: ``beta > N * alpha``.

All pairings between left and right basis vectors are Euclidean dot
products.  Where a discretisation calls for quadrature weights they are
folded into the left basis ``Z0`` rather than kept as a separate metric.

In exact mode the matrices are dense numpy object arrays of
``fractions.Fraction``; the exact split computes in
:class:`~slowvary._rational.RatMatrix` arithmetic and stores its bases
as Fraction arrays again.  Float families hold float64 arrays or, for a
sparse input such as a cell problem, float CSR matrices that every step
of the reduction takes as they are; only small or inherently dense
computations (the dense eigen-split, block Taylor checks, simulation
symbols, JSON documents) densify them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from . import _rational as rat
from .errors import (
    DefectiveNormalisation,
    GapViolation,
    MissingBaseOperator,
    NoCentreMode,
    UnstableMode,
    UnsupportedSplit,
)
from .multiindex import format_index, graded_key

__all__ = [
    "OperatorFamily",
    "SpectralSplit",
    "ValidationReport",
    "spectral_split",
    "validate_family",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10

# Base operators larger than this are split on their known centre, the
# constant field: symmetric, mean-conserving operators only (the cells).
_DENSE_EIG_LIMIT = 600


class _CSR(sparse.csr_matrix):
    """Float CSR operator whose ``nbytes`` is its storage, as for an ndarray."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


class OperatorFamily:
    """Finite map from derivative multi-indices to cross-section matrices.

    Parameters
    ----------
    ops : dict
        Mapping ``multi-index tuple -> (dimU, dimU) array``.  The zero
        index must be present; it is the base operator ``L_0``.
    label : str, optional
        Human-readable name carried through reports.

    The family is immutable by convention: hold the arrays, do not write
    to them.  ``is_exact`` is True when the matrices are Fraction-valued
    object arrays.  A SciPy sparse operator is stored as float CSR.
    """

    def __init__(self, ops: dict, label: str | None = None):
        if not ops:
            raise ValueError("operator family needs at least the base operator")
        keys = [tuple(int(e) for e in k) for k in ops]
        M = len(keys[0])
        for k in keys:
            if len(k) != M:
                raise ValueError(f"inconsistent multi-index dimensions: {keys[0]} vs {k}")
            if any(e < 0 for e in k):
                raise ValueError(f"negative derivative multi-index {k}")
        zero = (0,) * M
        if zero not in set(keys):
            raise MissingBaseOperator(
                f"family has no order-zero operator L_{zero}; "
                "the base operator is required"
            )
        first = ops[next(iter(ops))]
        exact = not sparse.issparse(first) and np.asarray(first).dtype == object
        dimU = np.shape(first)[0]
        stored: dict[tuple[int, ...], np.ndarray] = {}
        for k_raw, mat in ops.items():
            k = tuple(int(e) for e in k_raw)
            if sparse.issparse(mat) and not exact:
                arr = _CSR(mat, dtype=float)
            else:
                arr = np.asarray(mat, dtype=object if exact else float)
            if arr.shape != (dimU, dimU):
                raise ValueError(
                    f"operator at {k} has shape {arr.shape}, expected {(dimU, dimU)}"
                )
            stored[k] = arr
        self.M = M
        self.dimU = dimU
        self.ops = {k: stored[k] for k in sorted(stored, key=graded_key)}
        self.label = label

    @property
    def support(self) -> list[tuple[int, ...]]:
        """Multi-indices with a stored operator, in graded order."""
        return list(self.ops.keys())

    @property
    def zero_index(self) -> tuple[int, ...]:
        return (0,) * self.M

    @property
    def L0(self) -> np.ndarray:
        return self.ops[self.zero_index]

    @property
    def is_exact(self) -> bool:
        return self.L0.dtype == object

    @property
    def storage(self) -> str:
        """``"exact"``, ``"csr"`` (sparse base operator) or ``"dense"``."""
        if self.is_exact:
            return "exact"
        return "csr" if sparse.issparse(self.L0) else "dense"

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored matrices (for CSR: data, indices, indptr)."""
        return sum(op.nbytes for op in self.ops.values())

    def operator(self, k: tuple[int, ...]):
        """The matrix stored at ``k``, or None when absent (meaning zero)."""
        return self.ops.get(tuple(k))

    def to_float(self) -> "OperatorFamily":
        if not self.is_exact:
            return self
        return OperatorFamily(
            {k: rat.as_float(v) for k, v in self.ops.items()}, label=self.label
        )

    # -- JSON model documents ------------------------------------------

    def _document(self) -> dict:
        operators = {format_index(k): mat for k, mat in self.ops.items()}
        doc = {"M": self.M, "dimU": self.dimU, "operators": operators}
        if self.label is not None:
            doc["label"] = self.label
        return doc

    def to_json(self) -> dict:
        """Model document; exact entries become ``"p/q"`` strings."""
        return rat.encode_arrays(self._document())

    @classmethod
    def from_json(cls, doc: dict, exact: bool = False) -> "OperatorFamily":
        """Parse a model document.

        ``M`` and ``dimU`` are JSON integers; matrix entries follow
        :func:`slowvary._rational.decode_matrix` (numbers or rational strings
        like ``"8/27"``) and are kept as Fractions with ``exact=True``.
        """
        try:
            M = rat.json_int(doc, "M")
            dimU = rat.json_int(doc, "dimU")
            operators = doc["operators"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed model document: {exc}") from None
        if not isinstance(operators, dict) or not operators:
            raise ValueError("model document has no operators")
        ops = rat.decode_index_table(operators, exact, (dimU, dimU), "operator", M)
        return cls(ops, label=doc.get("label"))

    def save(self, path) -> None:
        rat.save_json(path, self._document())

    @classmethod
    def load(cls, path, exact: bool = False) -> "OperatorFamily":
        return cls.from_json(rat.load_json(path), exact=exact)

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return (
            f"OperatorFamily({name} M={self.M}, dimU={self.dimU}, "
            f"support={[format_index(k) for k in self.support]})"
        )


@dataclass
class SpectralSplit:
    """Centre/stable decomposition of a base operator.

    ``V0`` holds the right centre basis as columns, ``Z0`` the left basis
    with the binormalisation ``Z0.T @ V0 = I``.  ``A0 = Z0.T @ L0 @ V0`` is
    the centre block; it is kept exactly as computed and in particular is
    not forced diagonal (a defective centre cluster leaves it in Jordan-like
    form).  ``eigenvalues`` lists the spectrum of ``L0``; above the dense
    limit only ``A0`` and the slowest stable eigenvalue are recorded and
    ``spectrum_complete`` is False.  The sparse split also sets
    ``bordered_solve``, its SuperLU solve with ``[[L0 - A0 I, Z0], [Z0.T, 0]]``:
    a cached factor that the construction reuses, outside repr and equality.
    """

    m: int
    V0: np.ndarray
    Z0: np.ndarray
    A0: np.ndarray
    alpha: float
    beta: float
    eigenvalues: np.ndarray
    spectrum_complete: bool = True
    bordered_solve: Callable | None = field(default=None, repr=False, compare=False)

    @property
    def is_exact(self) -> bool:
        return self.V0.dtype == object

    def centre_eigenvalues(self) -> np.ndarray:
        lam = self.eigenvalues
        return lam[np.abs(lam.real) <= self.alpha]


def _classify(evals: np.ndarray, N: int, alpha: float | None):
    radius = float(np.abs(evals).max()) if evals.size else 0.0
    if alpha is None:
        alpha = 1e-9 * radius
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    centre = np.abs(evals.real) <= alpha
    m = int(centre.sum())
    if m == 0:
        raise NoCentreMode(
            f"no eigenvalue within the centre band |Re| <= {alpha:.6g}; "
            f"closest real part {evals.real[np.abs(evals.real).argmin()]:.6g}"
        )
    rest = evals[~centre]
    if rest.size and rest.real.max() > alpha:
        raise UnstableMode(
            f"eigenvalue with Re = {rest.real.max():.6g} > alpha = {alpha:.6g} "
            "outside the centre band grows in time"
        )
    beta = float(-rest.real.max()) if rest.size else np.inf
    if not beta > N * alpha:
        raise GapViolation(
            f"stable decay rate beta = {beta:.6g} does not exceed "
            f"N * alpha = {N * alpha:.6g}; the spectral gap is too narrow "
            f"for truncation order N = {N}"
        )
    return alpha, beta, m, centre


def _canonical_signs(V: np.ndarray) -> np.ndarray:
    V = V.copy()
    for j in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    return V


def _binormalise(W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Scale the left basis W so that the result Z satisfies Z.T V = I."""
    C = W.T @ V
    smax, smin = np.linalg.svd(C, compute_uv=False)[[0, -1]]
    if smax == 0 or smin / smax < 1e-12:
        raise DefectiveNormalisation(
            "left/right centre bases pair singularly; "
            f"smallest singular value ratio {0.0 if smax == 0 else smin / smax:.3g}"
        )
    return W @ np.linalg.inv(C).T


def _dense_split(L0: np.ndarray, N: int, alpha: float | None) -> SpectralSplit:
    # one real Schur form L0 = Q T Q.T gives the eigenvalues and both bases;
    # the workspace query first, as scipy.linalg.schur makes it: the QR
    # path, and so the centre basis, depends on the workspace LAPACK gets
    L0 = np.asarray_chkfinite(L0)
    lwork = int(lapack.dgees(lambda re, im: 0, L0, lwork=-1)[-2][0])
    T, _, wr, wi, Q, _, info = lapack.dgees(lambda re, im: 0, L0, lwork=lwork)
    if info != 0:
        raise DefectiveNormalisation(f"real Schur form of L0 failed (dgees info {info})")
    evals = wr + 1j * wi
    alpha, beta, m, centre = _classify(evals, N, alpha)
    if not np.isfinite(beta):  # all centre: the bases are the identity
        V0 = np.eye(len(L0))
        W = V0
    else:
        # strictly separating threshold keeps the reordering in agreement
        # with the eigenvalue classification
        thr = 0.5 * (np.abs(wr[centre]).max() + beta)
        T, Q, _, _, sdim, _, _, info = lapack.dtrsen(
            (np.abs(wr) <= thr).astype(np.int32), T, Q, job="N", overwrite_t=1, overwrite_q=1)
        if info != 0 or sdim != m:
            raise DefectiveNormalisation(
                f"spectral reordering selected {sdim} modes where {m} were classified "
                f"(dtrsen info {info}); the centre cluster is numerically inseparable"
            )
        # the left centre basis is [I, -X] Q.T with T11 X - X T22 = -T12,
        # so that W.T V0 = I before any scaling
        X, scale, info = lapack.dtrsyl(T[:m, :m], T[m:, m:], -T[:m, m:], isgn=-1)
        if info != 0:
            raise DefectiveNormalisation(f"centre and stable blocks share eigenvalues "
                                         f"to rounding (dtrsyl info {info})")
        V0 = Q[:, :m]
        W = V0 - Q[:, m:] @ (X / scale).T
    V0 = _canonical_signs(V0)
    Z0 = _binormalise(W, V0)
    A0 = Z0.T @ L0 @ V0
    return SpectralSplit(m, V0, Z0, A0, alpha, beta, evals, True)


def _exact_split(L0x: np.ndarray, N: int, alpha: float | None) -> SpectralSplit:
    L0 = rat.as_ratmatrix(L0x)
    evals = sla.eigvals(rat.as_float(L0x))
    alpha, beta, m, centre = _classify(evals, N, alpha)
    radius = float(np.abs(evals).max()) if evals.size else 0.0
    lam_centre = evals[centre]
    if np.abs(lam_centre.imag).max(initial=0.0) > max(1e-9 * max(radius, 1.0), alpha):
        raise UnsupportedSplit(
            "exact mode supports only real rational centre eigenvalues; "
            "use the float path for oscillatory centre clusters"
        )
    # distinct rational candidates for the centre eigenvalues
    cands: list[Fraction] = []
    for lam in sorted(set(np.round(lam_centre.real, 9))):
        f = Fraction(float(lam)).limit_denominator(10**9)
        if f not in cands:
            cands.append(f)
    eye = rat.RatMatrix.eye(L0.shape[0])
    blocks_V, blocks_Z = [], []
    for lam in cands:
        B = L0 - eye * lam
        kern = rat.nullspace_exact(B)
        if kern.shape[1] == 0:
            raise UnsupportedSplit(
                f"exact mode could not confirm {lam} as an eigenvalue of L0"
            )
        blocks_V.append(kern)
        blocks_Z.append(rat.nullspace_exact(B.T))
    V0 = rat.RatMatrix.block([blocks_V])
    Z0raw = rat.RatMatrix.block([blocks_Z])
    if V0.shape[1] != m:
        raise UnsupportedSplit(
            "exact mode supports only semisimple centre clusters; "
            f"geometric multiplicity {V0.shape[1]} != algebraic {m}"
        )
    C = Z0raw.T @ V0
    try:
        Z0 = rat.solve_exact(C, Z0raw.T).T
    except ValueError:
        raise DefectiveNormalisation(
            "left/right centre bases pair singularly in exact arithmetic"
        ) from None
    A0 = Z0.T @ L0 @ V0
    V0, Z0, A0 = (rat.as_fractions(x) for x in (V0, Z0, A0))
    return SpectralSplit(m, V0, Z0, A0, alpha, beta, evals, True)


def _bordered_solve(L0, t, Z0, permc_spec: str = "COLAMD"):
    """SuperLU solve with ``[[L0 - t I, Z0], [Z0.T, 0]]`` for a float array or
    SciPy sparse ``L0`` and a dense ``Z0``; RuntimeError when singular."""
    d, m = Z0.shape
    if sparse.issparse(L0):
        Z0s = sparse.csc_matrix(Z0)
        border = sparse.bmat([[sparse.csc_matrix(L0) - t * sparse.identity(d), Z0s],
                              [Z0s.T, None]], format="csc")
    else:  # the same CSC matrix, assembled several times faster than by bmat
        border = sparse.csc_matrix(np.block([[L0 - t * np.eye(d), Z0], [Z0.T, np.zeros((m, m))]]))
    return spla.splu(border, permc_spec=permc_spec).solve


def _mean_conserving_split(L0, N: int, alpha: float | None) -> SpectralSplit:
    n = L0.shape[0]
    A = sparse.csr_matrix(L0)  # no copy when L0 is CSR already
    absA = abs(A)
    size = 1.0 + absA.max()
    too_large = f"base operator of size {n} exceeds the dense limit ({_DENSE_EIG_LIMIT})"
    if abs(A - A.T).max() > 1e-10 * size:
        raise UnsupportedSplit(f"{too_large} and is not symmetric; cannot split its spectrum")
    drift = float(np.abs(A @ np.ones(n)).max())
    if drift > 1e-10 * size:
        raise UnsupportedSplit(f"{too_large} and does not conserve its mean (max|L0 1| = "
                               f"{drift:.3g}); the sparse split needs a mean-conserving "
                               "base operator")
    # one fixed start vector for every ARPACK call makes the split, and so
    # every output downstream of it, the same on each run (a vector of ones
    # would be the exact null vector, on which Lanczos breaks down)
    v0 = np.random.default_rng(0).standard_normal(n)

    def eigenvalue(call: str, start, **kwargs) -> float:
        try:
            return float(spla.eigsh(A, k=1, v0=start, return_eigenvectors=False, **kwargs)[0])
        except spla.ArpackError as exc:  # ArpackNoConvergence included
            raise UnsupportedSplit(f"ARPACK {call} failed on the base operator "
                                   f"of size {n}: {exc}") from None

    diag = A.diagonal()
    scale = max(float(np.abs(diag).max()), 1.0)
    # Gershgorin: every eigenvalue lies in [min_i, max_i] of a_ii -/+
    # sum_{j != i} |a_ij|.  The lower end stands in for the lowest eigenvalue
    # in the spectral radius behind the default alpha.  When the upper end
    # settles lam_top <= alpha it stands in for lam_top; otherwise
    # shift-invert from just above it finds lam_top in a few solves.
    offdiag = np.asarray(absA.sum(axis=1)).ravel() - np.abs(diag)
    lam_bot = float((diag - offdiag).min())
    lam_top = float((diag + offdiag).max())
    band = 1e-9 * max(abs(lam_top), abs(lam_bot)) if alpha is None else alpha
    if lam_top > band:
        lam_top = eigenvalue("shift-invert eigsh(k=1)", v0, sigma=lam_top + 1e-6 * scale,
                             which="LM")
    if alpha is None:
        alpha = 1e-9 * max(abs(lam_top), abs(lam_bot))
    alpha = float(alpha)
    if lam_top > alpha:
        raise UnstableMode(f"largest eigenvalue Re = {lam_top:.6g} > alpha = {alpha:.6g}")
    # the centre is the constant field, paired with the cell average
    V0 = np.ones((n, 1))
    Z0 = V0 / n
    A0 = Z0.T @ (A @ V0)
    # the construction's own bordered matrix, factorised once here; the
    # minimum-degree ordering on A + A.T suits the symmetric pattern
    try:
        solve = _bordered_solve(A, A0[0, 0], Z0, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise UnsupportedSplit(f"base operator bordered by the constant field is singular "
                               f"({str(exc).strip()}): L0 has a centre mode besides it") from None
    # the border deflates the centre: its solution is mean-free and its
    # multiplier takes up the mean of the right-hand side, so shift-invert
    # at A0 sees only the stable modes and finds the slowest of them
    OPinv = spla.LinearOperator((n, n), matvec=lambda x: solve(np.append(x, 0.0))[:n],
                                dtype=float)
    # tol = 1e-10 bounds the Ritz residual relative to the Ritz value; for a
    # symmetric operator that bounds the relative error in beta by the same
    # (quadratic in the residual when the slowest mode stands apart), and
    # ARPACK ends after its first Lanczos sweep
    lam_slow = eigenvalue("shift-invert eigsh at the centre", v0 - v0.mean(),
                          sigma=A0[0, 0], which="LM", OPinv=OPinv, tol=1e-10)
    known = np.array([A0[0, 0], lam_slow], dtype=complex)
    alpha, beta, m, _ = _classify(known, N, alpha)
    if m != 1:
        raise UnsupportedSplit(f"a second eigenvalue {lam_slow:.6g} lies inside the centre band "
                               f"|Re| <= {alpha:.6g}; the sparse split's one centre mode is "
                               "the constant field")
    return SpectralSplit(1, V0, Z0, A0, alpha, beta, known, False, solve)


def spectral_split(family: OperatorFamily, N: int, alpha: float | None = None) -> SpectralSplit:
    """Split the base operator's spectrum into centre and stable parts.

    Parameters
    ----------
    family : OperatorFamily
        Source of the base operator ``L_0``.
    N : int
        Intended truncation order; the spectral gap must satisfy
        ``beta > N * alpha`` or :class:`GapViolation` is raised.
    alpha : float, optional
        Centre band half-width.  Defaults to ``1e-9`` times the spectral
        radius of ``L_0``, which captures exact zero modes while rejecting
        anything dynamically relevant.  Up to ``dimU`` 600 the radius is
        read off the eigenvalues of one real Schur form of ``L_0``, which
        also gives both centre bases; above, the lowest eigenvalue in it
        is replaced by its Gershgorin bound ``min_i (a_ii - sum_{j != i}
        |a_ij|)``.

    Above ``dimU`` 600 a float ``L_0`` must be symmetric and conserve its
    mean (``L_0 1 = 0`` to rounding), as a cell operator does; its one
    centre mode is then the constant field, and anything else raises
    :class:`UnsupportedSplit`.  ``beta`` then comes from one shift-invert
    ARPACK call at the centre, to a residual of ``1e-10``.

    Returns
    -------
    SpectralSplit

    Raises
    ------
    NoCentreMode, UnstableMode, GapViolation, DefectiveNormalisation,
    UnsupportedSplit
    """
    if N < 0:
        raise ValueError("truncation order must be >= 0")
    L0 = family.L0
    if family.is_exact:
        return _exact_split(L0, N, alpha)
    if family.dimU > _DENSE_EIG_LIMIT:
        return _mean_conserving_split(L0, N, alpha)
    return _dense_split(rat.as_float(L0), N, alpha)


@dataclass
class ValidationReport:
    """Numerical residuals of a family's split, for the caller to judge.

    ``binorm_residual`` is ``max|Z0.T V0 - I|`` and ``invariance_residual``
    is ``max|L0 V0 - V0 A0|``; the split itself carries the gap.
    """

    binorm_residual: float
    invariance_residual: float


def validate_family(
    family: OperatorFamily,
    N: int,
    alpha: float | None = None,
    split: SpectralSplit | None = None,
) -> ValidationReport:
    """Run the structural checks that admit a family for order-N reduction.

    Raises the spectral errors on structural failure; numerical residuals
    are returned in the report for the caller to judge against a tolerance.
    A precomputed ``split`` skips the eigen-decomposition.
    """
    if split is None:
        split = spectral_split(family, N, alpha)
    Vf = rat.as_float(split.V0)
    Zf = rat.as_float(split.Z0)
    Af = rat.as_float(split.A0)
    binorm = float(np.abs(Zf.T @ Vf - np.eye(split.m)).max())
    invres = float(np.abs(family.to_float().L0 @ Vf - Vf @ Af).max())
    return ValidationReport(binorm_residual=binorm, invariance_residual=invres)
