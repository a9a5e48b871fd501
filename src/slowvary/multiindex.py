"""Multi-index bookkeeping for truncated Taylor expansions.

A multi-index is represented throughout as a plain tuple of non-negative
ints, one entry per spatial dimension.  Its order is the entry sum.  The
functions here enumerate truncated index sets, count them, parse and
format them, and provide the helpers (componentwise comparison and
difference, lower sets, factorials) that the Taylor recursions are built
from.

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
    "index_factorial",
    "index_sub",
    "parse_index",
    "format_index",
    "index_count",
    "enumerate_indices",
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


def enumerate_indices(M: int, N: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices with ``M`` components and ``|n| <= N``, as a tuple
    in graded order.

    ``M`` is at least 1 and ``N`` at least 0; more than
    :data:`MAX_TABLE_SIZE` indices are refused.
    """
    _check_dims(M, N)
    count = index_count(M, N)
    if count > MAX_TABLE_SIZE:
        raise ValueError(
            f"index table for M={M}, N={N} would hold {count} entries, "
            f"beyond the supported limit of {MAX_TABLE_SIZE}"
        )
    return tuple(idx for grade in range(N + 1) for idx in _compositions(grade, M))
