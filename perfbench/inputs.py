"""Seeded input generator for the benchmark.

Writes every model the benchmark feeds to ``slowvary`` as a JSON document
in the documented formats, using only numpy and the standard library:

* operator families ``{"M", "dimU", "operators": {"k1,k2": [[...]]}}``
  with float entries, or ``"p/q"`` strings for rational families;
* cell problems ``{"h", "n", "K_expr", "base", "amplitude"}``.

Inputs come in four parts, one per kind of problem; a workload runs two
of them (``workloads.PARTS``).  Seeds change matrix entries and
amplitudes, never sizes, so the work of a workload does not depend on
its seed.

The same seed gives byte-identical files.  The generated matrices are
also returned, so the oracles can check results against the inputs
without reading them back through the program.

Run ``python3 perfbench/inputs.py --seed 3 --out DIR`` to write every
part's inputs into DIR.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np


@dataclass
class GapFamily:
    """A random float family with an exact centre of size ``m`` and gap >= 1."""

    path: Path
    dimU: int
    m: int
    N: int
    centre: str
    ops: dict  # multi-index tuple -> (dimU, dimU) float array


@dataclass
class CellInput:
    path: Path
    expr: str
    n: int
    amplitude: float


@dataclass
class WalkerInput:
    path: Path
    ops: dict  # multi-index tuple -> (3, 3) float array


@dataclass
class RationalFamily:
    path: Path
    dimU: int
    m: int
    ops: dict  # multi-index tuple -> (dimU, dimU) object array of Fractions


def _indices(M: int, max_order: int) -> list[tuple[int, ...]]:
    """All M-component multi-indices of order 0..max_order, graded."""
    out = [()]
    for _ in range(M):
        out = [k + (e,) for k in out for e in range(max_order + 1)]
    out = [k for k in out if sum(k) <= max_order]
    return sorted(out, key=lambda k: (sum(k), tuple(-e for e in k)))


def _key(k: tuple[int, ...]) -> str:
    return ",".join(str(e) for e in k)


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def gap_family(rng, path: Path, dimU: int, m: int, N: int, centre: str,
               M: int = 2, max_order: int = 2) -> GapFamily:
    """Base operator orthogonally similar to a block-diagonal gap matrix.

    The centre block is zero ("zero"), a nilpotent chain ("jordan") or an
    imaginary pair ("rotation", m = 2); the stable blocks have real parts
    in [-4, -1].  Higher operators are Gaussian, scaled by 1 / (1 + |k|).
    """
    if centre == "zero":
        C = np.zeros((m, m))
    elif centre == "jordan":
        C = np.diag(np.ones(m - 1), 1)
    elif centre == "rotation" and m == 2:
        w = 0.5 + rng.random()
        C = np.array([[0.0, w], [-w, 0.0]])
    else:
        raise ValueError(f"unsupported centre {centre!r} with m = {m}")
    B = np.zeros((dimU, dimU))
    B[:m, :m] = C
    i = m
    while i < dimU:
        a = -1.0 - 3.0 * rng.random()
        if i + 1 < dimU and rng.random() < 0.5:
            b = 0.5 + rng.random()
            B[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
            i += 2
        else:
            B[i, i] = a
            i += 1
    Q = np.linalg.qr(rng.standard_normal((dimU, dimU)))[0]
    ops = {}
    for k in _indices(M, max_order):
        if sum(k) == 0:
            ops[k] = Q @ B @ Q.T
        else:
            ops[k] = rng.standard_normal((dimU, dimU)) / (1.0 + sum(k))
    doc = {"M": M, "dimU": dimU, "operators": {
        _key(k): [[float(x) for x in row] for row in mat] for k, mat in ops.items()
    }}
    _write(path, doc)
    return GapFamily(path, dimU, m, N, centre, ops)


def cell_input(rng, path: Path, expr: str, n: int) -> CellInput:
    """Named-expression cell problem with a seeded amplitude in [0.3, 0.6]."""
    amplitude = round(0.3 + 0.3 * float(rng.random()), 6)
    _write(path, {"h": 1.0, "n": n, "K_expr": expr, "base": 1.0,
                  "amplitude": amplitude})
    return CellInput(path, expr, n, amplitude)


# The three-velocity random walker: unit-rate exchange along the chain
# v1 <-> v2 <-> v3 with velocities v1 = (1, 1), v2 = (-1, 0), v3 = (1, -1);
# L_(1,0) and L_(0,1) are minus the velocity components.
WALKER = {
    (0, 0): [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]],
    (1, 0): [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]],
    (0, 1): [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
}


def walker_input(rng, path: Path) -> WalkerInput:
    """The walker in a seeded orthogonal basis, ``L_k -> Q L_k Q^T``.

    A change of basis leaves the spectrum of every symbol ``S(kappa)``,
    hence the closure, the integrator's step size and the work, unchanged.
    """
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    ops = {k: Q @ np.array(L) @ Q.T for k, L in WALKER.items()}
    _write(path, {"M": 2, "dimU": 3, "operators": {
        _key(k): [[float(x) for x in row] for row in mat] for k, mat in ops.items()
    }})
    return WalkerInput(path, ops)


def _frac_array(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = Fraction(x)
    return out


def _unit_bidiagonal(rng, n: int) -> np.ndarray:
    """Lower unit-bidiagonal integer matrix; its inverse has entries +-1, 0."""
    T = np.eye(n, dtype=np.int64)
    for i in range(1, n):
        T[i, i - 1] = int(rng.choice((-1, 1)))
    return T


def rational_family(rng, path: Path, dimU: int, m: int,
                    M: int = 2, max_order: int = 2) -> RationalFamily:
    """Rational family whose base operator has a semisimple zero centre.

    ``L0 = P D P^-1`` with ``D = diag(0 * m, -2..-4)`` and ``P`` an integer
    unit-bidiagonal matrix, so ``P^-1`` is an integer matrix too and every
    entry stays a small rational.  Higher operators have
    entries ``p / q`` with ``|p| <= 1`` and ``q`` in 2..3.
    """
    D = np.zeros((dimU, dimU), dtype=np.int64)
    for i in range(m, dimU):
        D[i, i] = -int(rng.integers(2, 5))
    P = _unit_bidiagonal(rng, dimU)
    Pinv = np.rint(np.linalg.inv(P)).astype(np.int64)
    if not (P @ Pinv == np.eye(dimU, dtype=np.int64)).all():
        raise AssertionError("integer inverse of a unimodular matrix failed")
    ops = {}
    for k in _indices(M, max_order):
        if sum(k) == 0:
            ops[k] = _frac_array((P @ D @ Pinv).tolist())
        else:
            num = rng.integers(-1, 2, size=(dimU, dimU))
            den = rng.integers(2, 4, size=(dimU, dimU))
            ops[k] = _frac_array([[Fraction(int(p), int(q)) for p, q in zip(r, s)]
                                  for r, s in zip(num, den)])
    doc = {"M": M, "dimU": dimU, "operators": {
        _key(k): [[str(x) for x in row] for row in mat.tolist()]
        for k, mat in ops.items()
    }}
    _write(path, doc)
    return RationalFamily(path, dimU, m, ops)


# -- input sets, one per part ------------------------------------------------

# (dimU, m, N, centre): the first two fall under the CLI's 2000-row
# block-check limit (rows = number of indices * dimU), the last two over it.
GAP_CONFIGS = (
    (64, 3, 4, "zero"),
    (96, 2, 3, "rotation"),
    (136, 2, 4, "jordan"),
    (200, 1, 4, "zero"),
)

CELL_CONFIGS = (
    ("layered_cos", 48),
    ("checkerboard_smooth", 48),
    ("layered_cos", 64),
    ("checkerboard_smooth", 64),
)

RATIONAL_CONFIGS = ((6, 1), (8, 2))


def generate(part: str, seed: int, out: Path) -> list:
    """Write the inputs of one part into ``out`` and describe them."""
    rng = np.random.default_rng([seed, len(part)] + [ord(c) for c in part])
    out.mkdir(parents=True, exist_ok=True)
    if part == "reduce-random":
        return [gap_family(rng, out / f"gap{i}.json", d, m, N, c)
                for i, (d, m, N, c) in enumerate(GAP_CONFIGS)]
    if part == "cell-homogenise":
        return [cell_input(rng, out / f"cell{i}.json", e, n)
                for i, (e, n) in enumerate(CELL_CONFIGS)]
    if part == "simulate-walker":
        return [walker_input(rng, out / "walker.json")]
    if part == "reduce-exact":
        return [rational_family(rng, out / f"rational{i}.json", d, m)
                for i, (d, m) in enumerate(RATIONAL_CONFIGS)]
    raise ValueError(f"unknown part {part!r}")


PARTS = ("reduce-random", "reduce-exact", "cell-homogenise", "simulate-walker")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    for part in PARTS:
        generate(part, args.seed, args.out / part)


if __name__ == "__main__":
    main()
