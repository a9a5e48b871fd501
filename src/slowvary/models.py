"""Built-in model families.

Two kinds of concrete systems ship with the package.  The first is a small
three-velocity random walker on a plane lattice whose mean density is the
slow variable; it comes in a physical basis (particle densities per
velocity) and a modal basis (mean plus two decaying combinations), related
by an explicit similarity transform.  Its reduction constants are exact
rationals, which makes it the golden example for every structural test.

The second is the embedding of a periodic-medium diffusion problem: a cell
of side ``h`` discretised on an n-by-n grid, carrying variable diffusivity
``K``.  Its slow reduction recovers the homogenised (effective) diffusion
tensor, with the classical harmonic/arithmetic bounds as sanity rails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import numpy as np
import scipy.sparse as sparse

from . import _rational as rat
from .crosssection import OperatorFamily, SpectralSplit, spectral_split
from .errors import GridTooCoarse, NonPositiveDiffusivity, UnsupportedSplit

__all__ = [
    "random_walker_modal",
    "random_walker_physical",
    "modal_transform",
    "modal_transform_check",
    "CellProblem",
    "homogenisation_cell",
    "cell_spectral_split",
    "cell_gap_ratio",
]


# -- the three-velocity random walker ---------------------------------------
#
# Particles hop with unit rate between three velocity states
# v1 = (1, 1), v2 = (-1, 0), v3 = (1, -1); densities p1, p2, p3 advect with
# their velocity while exchanging mass through the chain p1 <-> p2 <-> p3.

_WALKER_PHYSICAL = {
    (0, 0): [[-1, 1, 0], [1, -2, 1], [0, 1, -1]],
    (1, 0): [[-1, 0, 0], [0, 1, 0], [0, 0, -1]],
    (0, 1): [[-1, 0, 0], [0, 0, 0], [0, 0, 1]],
}

# modal variables: mean (p1+p2+p3)/3, shear (p1-p3)/2, stretch (p1-2p2+p3)/6
_MODAL_T = [
    [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
    [Fraction(1, 2), 0, Fraction(-1, 2)],
    [Fraction(1, 6), Fraction(-1, 3), Fraction(1, 6)],
]

_WALKER_MODAL = {
    (0, 0): [[0, 0, 0], [0, -1, 0], [0, 0, -3]],
    (1, 0): [
        [Fraction(-1, 3), 0, Fraction(-4, 3)],
        [0, -1, 0],
        [Fraction(-2, 3), 0, Fraction(1, 3)],
    ],
    (0, 1): [
        [0, Fraction(-2, 3), 0],
        [-1, 0, -1],
        [0, Fraction(-1, 3), 0],
    ],
}


def _family(table: dict, exact: bool, label: str) -> OperatorFamily:
    if exact:
        ops = {k: rat.frac_matrix(v) for k, v in table.items()}
    else:
        ops = {k: np.array(v, dtype=float) for k, v in table.items()}
    return OperatorFamily(ops, label=label)


def random_walker_physical(exact: bool = False) -> OperatorFamily:
    """Walker family in the particle-density basis.

    The base operator is the velocity-exchange chain; rows and columns both
    sum to zero, so total mass is conserved and the uniform density is the
    sole centre mode.
    """
    return _family(_WALKER_PHYSICAL, exact, "walker-physical")


def random_walker_modal(exact: bool = False) -> OperatorFamily:
    """Walker family in the modal basis (mean, shear, stretch).

    The base operator is diagonal with rates 0, -1, -3; the golden values
    used across the test-suite are stated in this basis.
    """
    return _family(_WALKER_MODAL, exact, "walker-modal")


def modal_transform(exact: bool = False) -> np.ndarray:
    """Similarity transform T with ``u_modal = T u_physical``."""
    if exact:
        return rat.frac_matrix(_MODAL_T)
    return np.array([[float(x) for x in row] for row in _MODAL_T])


def modal_transform_check(
    physical: OperatorFamily | None = None, modal: OperatorFamily | None = None
) -> float:
    """Largest entry of ``T L_k^phys T^-1 - L_k^modal`` over the support.

    With the built-in families the residual is exactly zero in exact mode;
    perturbing any physical entry by eps moves the residual to eps scale,
    so this doubles as a consistency alarm for hand-edited model files.
    """
    if physical is None:
        physical = random_walker_physical(exact=True)
    if modal is None:
        modal = random_walker_modal(exact=physical.is_exact)
    if physical.M != modal.M or physical.dimU != modal.dimU:
        raise ValueError("families do not share a state space")
    exact = physical.is_exact and modal.is_exact
    matrix = rat.as_ratmatrix if exact else rat.as_float
    T = matrix(modal_transform(exact=exact))
    Tinv = rat.inverse_exact(T) if exact else np.linalg.inv(T)
    worst = 0.0
    for k in sorted(set(physical.support) | set(modal.support)):
        P = physical.operator(k)
        Q = modal.operator(k)
        if P is None or Q is None:
            raise ValueError(f"operator {k} present in only one family")
        worst = max(worst, float(abs(T @ matrix(P) @ Tinv - matrix(Q)).max()))
    return worst


# -- periodic-medium diffusion cell ------------------------------------------


def _k_constant(base: float):
    return lambda y1, y2: base * np.ones_like(np.asarray(y1, dtype=float))


def _k_layered_cos(base: float, amplitude: float, h: float):
    return lambda y1, y2: base + amplitude * np.cos(2 * np.pi * np.asarray(y1) / h)


def _k_checkerboard_smooth(base: float, amplitude: float, h: float):
    return lambda y1, y2: base + amplitude * np.cos(
        2 * np.pi * np.asarray(y1) / h
    ) * np.cos(2 * np.pi * np.asarray(y2) / h)


_K_EXPRESSIONS = {
    "constant": _k_constant,
    "layered_cos": _k_layered_cos,
    "checkerboard_smooth": _k_checkerboard_smooth,
}


def _check_grid(n: int) -> None:
    if n < 4 or n % 2:
        raise GridTooCoarse(
            f"cell grid n = {n} must be even and at least 4 "
            "for the face-centred flux stencil"
        )


@dataclass
class CellProblem:
    """One periodic cell of a diffusive medium.

    ``K`` holds diffusivity samples at the n-by-n grid nodes ``(i d, j d)``
    with spacing ``d = h / n``.  When the problem was built from a named
    expression the analytic function is kept alongside and face values are
    sampled at the true midpoints; otherwise faces take the arithmetic
    average of their two neighbouring nodes.
    """

    h: float
    n: int
    K: np.ndarray
    k_func: object | None = None
    expr: str | None = None
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        _check_grid(self.n)
        self.K = np.asarray(self.K, dtype=float)
        if self.K.shape != (self.n, self.n):
            raise ValueError(f"K samples must be {self.n} x {self.n}")
        if not self.h > 0 or not math.isfinite(self.h):
            raise ValueError("cell size h must be positive and finite")
        for arr in (self.K, self.face_K(0), self.face_K(1)):
            if not arr.min() > 0:  # NaN fails too
                raise NonPositiveDiffusivity(
                    f"diffusivity reaches {arr.min():.6g}; it must stay positive"
                )

    @classmethod
    def from_expression(
        cls, expr: str, n: int = 32, h: float = 1.0, base: float = 1.0,
        amplitude: float = 0.5,
    ) -> "CellProblem":
        try:
            maker = _K_EXPRESSIONS[expr]
        except KeyError:
            raise ValueError(
                f"unknown K expression {expr!r}; "
                f"choose from {sorted(_K_EXPRESSIONS)}"
            ) from None
        if expr == "constant":
            func = maker(base)
            params = {"base": base}
        else:
            func = maker(base, amplitude, h)
            params = {"base": base, "amplitude": amplitude}
        _check_grid(n)  # before sampling at spacing h / n
        if not h > 0 or not math.isfinite(h):
            raise ValueError("cell size h must be positive and finite")
        d = h / n
        y1, y2 = np.meshgrid(
            d * np.arange(n), d * np.arange(n), indexing="ij"
        )
        return cls(h=h, n=n, K=func(y1, y2), k_func=func, expr=expr, params=params)

    def face_K(self, axis: int) -> np.ndarray:
        """Diffusivity at the faces in direction ``axis``.

        Entry ``[i, j]`` is the face between node ``(i, j)`` and its
        positive neighbour along ``axis``; analytic midpoint sample when
        the expression is known, arithmetic average otherwise.
        """
        d = self.h / self.n
        if self.k_func is not None:
            y1, y2 = np.meshgrid(
                d * np.arange(self.n), d * np.arange(self.n), indexing="ij"
            )
            if axis == 0:
                return np.asarray(self.k_func(y1 + d / 2, y2), dtype=float)
            return np.asarray(self.k_func(y1, y2 + d / 2), dtype=float)
        return 0.5 * (self.K + np.roll(self.K, -1, axis=axis))

    def _document(self) -> dict:
        if self.expr is not None:
            return {"h": self.h, "n": self.n, "K_expr": self.expr, **self.params}
        return {"h": self.h, "n": self.n, "K": self.K}

    def to_json(self) -> dict:
        return rat.encode_arrays(self._document())

    @classmethod
    def from_json(cls, doc: dict) -> "CellProblem":
        """Parse a cell document: JSON integer ``n``, optional JSON numbers
        ``h``, ``base`` and ``amplitude``, and ``K`` samples (read by
        :func:`slowvary._rational.decode_matrix`) or ``K_expr``."""
        if "K" not in doc and "K_expr" not in doc:
            raise ValueError("cell document needs either K samples or K_expr")
        try:
            h = rat.json_number(doc, "h", 1.0)
            n = rat.json_int(doc, "n")
            if "K_expr" in doc:
                return cls.from_expression(
                    doc["K_expr"],
                    n=n,
                    h=h,
                    base=rat.json_number(doc, "base", 1.0),
                    amplitude=rat.json_number(doc, "amplitude", 0.5),
                )
            K = rat.decode_matrix(doc["K"], shape=(n, n))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed cell document: {exc}") from None
        return cls(h=h, n=n, K=K)

    def save(self, path) -> None:
        rat.save_json(path, self._document())

    @classmethod
    def load(cls, path) -> "CellProblem":
        return cls.from_json(rat.load_json(path))


def homogenisation_cell(cell: CellProblem) -> OperatorFamily:
    """Embed the cell diffusion problem as a cross-section family.

    The embedding treats the two macroscale directions as slow modulations
    of the periodic cell field.  Its operators are

        L_0     = div(K grad .)            (periodic flux form)
        L_(1,0) = dK/dy1 + 2 K d/dy1       (and the y2 counterpart)
        L_(2,0) = L_(0,2) = K

    discretised conservatively: fluxes use face-centred K, and the
    derivative of K inside the first-order operators is the difference of
    the same face values, so the discrete family inherits the structural
    identities of the continuum one (in particular the first-order
    closure coefficients vanish identically by telescoping).

    Node ``(i, j)`` is state component ``i n + j``.  Each operator is a
    periodic stencil of at most five entries per row, assembled at once
    from rolled index arrays and stored as CSR, so the family holds
    ``O(n^2)`` numbers instead of ``O(n^4)``.
    """
    n = cell.n
    d = cell.h / n
    Kc = cell.K
    Kx = cell.face_K(0)  # face (i+1/2, j)
    Ky = cell.face_K(1)  # face (i, j+1/2)
    kxm, kym = np.roll(Kx, 1, axis=0), np.roll(Ky, 1, axis=1)  # (i-1/2, j), (i, j-1/2)
    p = np.arange(n * n).reshape(n, n)
    east, west = np.roll(p, -1, axis=0), np.roll(p, 1, axis=0)  # (i+1, j), (i-1, j)
    north, south = np.roll(p, -1, axis=1), np.roll(p, 1, axis=1)  # (i, j+1), (i, j-1)

    def stencil(*entries):
        """CSR matrix with entry ``values[i, j]`` at (node (i, j), ``cols[i, j]``)
        for each ``(cols, values)`` pair; no position repeats for n >= 4."""
        cols, vals = zip(*entries)
        return sparse.csr_matrix(
            (np.concatenate([v.ravel() for v in vals]),
             (np.tile(p.ravel(), len(entries)), np.concatenate([c.ravel() for c in cols]))),
            shape=(n * n, n * n),
        )

    L0 = stencil(
        (east, Kx / d**2), (west, kxm / d**2), (north, Ky / d**2), (south, kym / d**2),
        (p, -(Kx + kxm + Ky + kym) / d**2),
    )
    # dK/dy as the difference of the flux-form face values, plus 2 K d/dy
    # with a centred difference
    L10 = stencil((p, (Kx - kxm) / d), (east, Kc / d), (west, -Kc / d))
    L01 = stencil((p, (Ky - kym) / d), (north, Kc / d), (south, -Kc / d))
    K2 = stencil((p, Kc))
    label = f"homogenise-{cell.expr or 'samples'}-n{n}"
    return OperatorFamily(
        {(0, 0): L0, (1, 0): L10, (0, 1): L01, (2, 0): K2, (0, 2): K2},
        label=label,
    )


def cell_spectral_split(
    family: OperatorFamily, N: int = 2, alpha: float | None = None
) -> SpectralSplit:
    """Spectral split of a cell family in the uniform-weight convention.

    The centre mode of the flux-form operator is the constant field.  The
    dense split returns it normalised; here it is rescaled so the right
    basis is the vector of ones and the left basis carries the quadrature
    weights ``1/n^2``, i.e. projection onto the slow variable is the plain
    cell average.  The sparse split returns that basis (scale exactly 1),
    so its ``bordered_solve`` carries over to the construction unchanged.
    """
    split = spectral_split(family, N, alpha)
    if split.m != 1:
        raise UnsupportedSplit(
            f"cell problems have a single centre mode, found m = {split.m}"
        )
    s = float(split.V0.mean())
    if abs(s) < 1e-12:
        raise UnsupportedSplit("centre mode is not the constant field")
    return replace(split, V0=split.V0 / s, Z0=split.Z0 * s)


def cell_gap_ratio(cell: CellProblem, split: SpectralSplit) -> float:
    """Measured stable rate over the guaranteed bound ``4 pi^2 K_min / h^2``."""
    k_min = min(
        float(cell.K.min()), float(cell.face_K(0).min()), float(cell.face_K(1).min())
    )
    bound = 4 * math.pi**2 * k_min / cell.h**2
    return float(split.beta / bound)
