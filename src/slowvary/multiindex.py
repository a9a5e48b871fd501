"""Multi-index bookkeeping for truncated Taylor expansions.

A multi-index is represented throughout as a plain tuple of non-negative
ints, one entry per spatial dimension.  Its order is the entry sum.  The
functions here enumerate truncated index sets, count them, and provide the
combinatorial helpers (componentwise comparison, multi-binomials,
factorials) that the Taylor recursions are built from.

Index sets are listed in graded order: ascending in the order ``|n|`` and,
within one grade, lexicographically with the leading dimension dominant and
larger exponents first.  For two dimensions and order two this reads

    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2)

which is also the layout every block matrix in :mod:`slowvary.taylorsystem`
uses.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

__all__ = [
    "order",
    "graded_key",
    "partial_leq",
    "lower_sets",
    "multi_binomial",
    "index_factorial",
    "index_sub",
    "index_add",
    "parse_index",
    "format_index",
    "index_count",
    "enumerate_indices",
    "IndexTable",
]

# Tables beyond this many entries are refused rather than exhausting memory.
MAX_TABLE_SIZE = 10_000_000


def _check_index(idx: tuple[int, ...]) -> None:
    if len(idx) == 0:
        raise ValueError("multi-index needs at least one component")
    for e in idx:
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"multi-index components must be ints, got {e!r}")
        if e < 0:
            raise ValueError(f"multi-index components must be >= 0, got {idx}")


def order(idx: tuple[int, ...]) -> int:
    """Order ``|n|`` of a multi-index: the sum of its components."""
    return sum(idx)


def graded_key(idx: tuple[int, ...]) -> tuple:
    """Sort key of the graded order in which :func:`enumerate_indices` lists."""
    return (order(idx), tuple(-e for e in idx))


def partial_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Componentwise partial order: True iff ``a_i <= b_i`` for every i."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def lower_sets(indices) -> dict:
    """Map each index ``n`` of ``indices`` to its members ``k <= n``.

    Each list is in the order of ``indices``, so sums over it add their
    terms in the same order as a filter of ``indices`` would.
    """
    pos = {k: i for i, k in enumerate(indices)}
    boxes = {n: itertools.product(*(range(e + 1) for e in n)) for n in pos}
    return {n: sorted((k for k in box if k in pos), key=pos.__getitem__)
            for n, box in boxes.items()}


def multi_binomial(n: tuple[int, ...], k: tuple[int, ...]) -> int:
    """Product of componentwise binomial coefficients ``C(n_i, k_i)``.

    Zero whenever ``k`` is not componentwise below ``n``, matching the
    scalar convention ``C(n, k) = 0`` for ``k > n``.  Exact integer
    arithmetic, no floating point.
    """
    if len(n) != len(k):
        raise ValueError(f"dimension mismatch: {len(n)} vs {len(k)}")
    out = 1
    for ni, ki in zip(n, k):
        if ki < 0 or ki > ni:
            return 0
        out *= math.comb(ni, ki)
    return out


def index_factorial(idx: tuple[int, ...]) -> int:
    """Multi-index factorial ``n! = n_1! n_2! ... n_M!``, exact."""
    out = 1
    for e in idx:
        out *= math.factorial(e)
    return out


def index_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise difference ``a - b``; requires ``b <= a``."""
    if not partial_leq(b, a):
        raise ValueError(f"{b} is not componentwise <= {a}")
    return tuple(x - y for x, y in zip(a, b))


def index_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise sum ``a + b``."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def parse_index(text: str) -> tuple[int, ...]:
    """Parse the comma-joined serialisation ``"k1,k2,...,kM"``."""
    parts = text.split(",")
    try:
        idx = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError(f"malformed multi-index string {text!r}") from None
    _check_index(idx)
    return idx


def format_index(idx: tuple[int, ...]) -> str:
    """Serialise a multi-index as the comma-joined string ``"k1,k2"``."""
    _check_index(tuple(idx))
    return ",".join(str(e) for e in idx)


def _check_dims(M: int, N: int) -> None:
    if not isinstance(M, int) or isinstance(M, bool) or M < 1:
        raise ValueError(f"number of dimensions must be an int >= 1, got {M!r}")
    if not isinstance(N, int) or isinstance(N, bool) or N < 0:
        raise ValueError(f"truncation order must be an int >= 0, got {N!r}")


def index_count(M: int, N: int) -> int:
    """Number of multi-indices with M components and order at most N.

    Equals the binomial coefficient ``C(N + M, M)``; computed with exact
    integer arithmetic so the count never silently overflows.
    """
    _check_dims(M, N)
    return math.comb(N + M, M)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Leading component largest first, recursively; this realises the
    # within-grade ordering documented at module level.
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_indices(M: int, N: int) -> "IndexTable":
    """Enumerate all multi-indices with ``|n| <= N`` in graded order.

    Parameters
    ----------
    M : int
        Number of components (spatial dimensions), at least 1.
    N : int
        Truncation order, at least 0.

    Returns
    -------
    IndexTable
        The ordered table together with its inverse position lookup.
    """
    _check_dims(M, N)
    count = index_count(M, N)
    if count > MAX_TABLE_SIZE:
        raise ValueError(
            f"index table for M={M}, N={N} would hold {count} entries, "
            f"beyond the supported limit of {MAX_TABLE_SIZE}"
        )
    indices: list[tuple[int, ...]] = []
    for grade in range(N + 1):
        indices.extend(_compositions(grade, M))
    return IndexTable(M, N, indices)


class IndexTable:
    """Ordered set of multi-indices with constant-time position lookup.

    The table is built by :func:`enumerate_indices`; it is immutable by
    convention and safe to share between threads.  ``position`` is the
    inverse of indexing: ``table[table.position(n)] == n``.
    """

    def __init__(self, M: int, N: int, indices: list[tuple[int, ...]]):
        self.M = M
        self.N = N
        self.indices = tuple(indices)
        self._pos = {idx: i for i, idx in enumerate(self.indices)}
        if len(self._pos) != len(self.indices):
            raise ValueError("duplicate multi-indices in table")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.indices)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.indices[i]

    def __contains__(self, idx: tuple[int, ...]) -> bool:
        return tuple(idx) in self._pos

    def position(self, idx: tuple[int, ...]) -> int:
        """Position of ``idx`` in the graded order; KeyError if absent."""
        try:
            return self._pos[tuple(idx)]
        except KeyError:
            raise KeyError(
                f"multi-index {tuple(idx)} not in table (M={self.M}, N={self.N})"
            ) from None

    def __repr__(self) -> str:
        return f"IndexTable(M={self.M}, N={self.N}, size={len(self)})"
