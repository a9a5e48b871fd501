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
``S`` satisfying ``(grouped L) S = S (grouped A)``.  The functions here
assemble those matrices and measure how well the identities hold, which is
the main end-to-end consistency check of a constructed reduction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse

from . import _rational as rat
from .crosssection import OperatorFamily
from .multiindex import (
    IndexTable,
    enumerate_indices,
    format_index,
    index_factorial,
    index_sub,
    lower_sets,
)
from .slowreduce import GeneratingBasis, ReducedModel

__all__ = [
    "BlockOperator",
    "build_block_operator",
    "build_block_A",
    "block_spectrum_check",
    "slow_subspace_matrix",
    "verify_slow_subspace",
    "block_to_csv",
]


@dataclass
class BlockOperator:
    """A matrix over the grouped Taylor state.

    ``table`` fixes the block layout; ``inner_dim`` is the per-index state
    size (``dimU`` for the full system, ``m`` for the reduced one).
    ``labels`` names the scalar rows as ``"n1,n2|c"``.
    """

    table: IndexTable
    inner_dim: int
    matrix: np.ndarray

    @property
    def labels(self) -> list[str]:
        return [
            f"{format_index(n)}|{c}" for n in self.table for c in range(self.inner_dim)
        ]

    @property
    def is_exact(self) -> bool:
        return self.matrix.dtype == object


def _assemble(table: IndexTable, inner: int, pick, exact: bool) -> np.ndarray:
    size = len(table) * inner
    out = rat.zeros((size, size), exact)
    for j, (k, below) in enumerate(lower_sets(table).items()):
        for n in below:
            blockmat = pick(index_sub(k, n))
            if sparse.issparse(blockmat):  # a CSR family operator
                blockmat = blockmat.toarray()
            if blockmat is not None:
                i = table.position(n)
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

    The grouped generator must have every eigenvalue of ``L_0`` repeated
    once per retained index.  Both spectra are computed, then matched
    greedily nearest-first; the returned value is the worst matched
    distance (small means the multiset structure holds).
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
    for j, n in enumerate(table):
        for k, coeff in basis.poly[n].items():
            i = table.position(k)
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


def block_to_csv(block: BlockOperator, path) -> None:
    """Row-major CSV dump with block labels on both axes."""
    mat = rat.as_float(block.matrix)
    labels = block.labels
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row"] + labels)
        for lab, row in zip(labels, mat):
            writer.writerow([lab] + [repr(float(x)) for x in row])
