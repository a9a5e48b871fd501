import itertools
import math
import random

import pytest

from slowvary import multiindex as mi


def brute_force_indices(M, N):
    out = [
        n
        for n in itertools.product(range(N + 1), repeat=M)
        if sum(n) <= N
    ]
    return set(out)


def test_two_dim_order_two_layout():
    table = mi.enumerate_indices(2, 2)
    assert list(table) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_two_dim_order_three_layout():
    table = mi.enumerate_indices(2, 3)
    assert list(table)[6:] == [(3, 0), (2, 1), (1, 2), (0, 3)]


@pytest.mark.parametrize("M,N", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_enumeration_is_complete(M, N):
    table = mi.enumerate_indices(M, N)
    assert set(table) == brute_force_indices(M, N)
    assert len(table) == len(set(table))


@pytest.mark.parametrize("M,N", [(1, 0), (1, 7), (2, 5), (3, 4), (5, 2)])
def test_count_matches_binomial(M, N):
    assert mi.index_count(M, N) == math.comb(N + M, M)
    assert len(mi.enumerate_indices(M, N)) == mi.index_count(M, N)


def test_graded_order_properties():
    table = mi.enumerate_indices(3, 4)
    seq = list(table)
    for a, b in zip(seq, seq[1:]):
        if mi.order(a) == mi.order(b):
            # within a grade the leading dimension dominates, descending
            assert a > b
        else:
            assert mi.order(a) < mi.order(b)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_graded_key_matches_enumeration(M):
    table = list(mi.enumerate_indices(M, 4))
    shuffled = table[:]
    random.Random(M).shuffle(shuffled)
    assert sorted(shuffled, key=mi.graded_key) == table


def test_index_arithmetic():
    assert mi.index_sub((4, 2), (3, 0)) == (1, 2)
    assert mi.index_factorial((3, 2)) == 12
    assert mi.index_factorial((0, 0)) == 1
    assert mi.order((2, 5, 1)) == 8


def test_parse_and_format():
    assert mi.parse_index("2,0") == (2, 0)
    assert mi.parse_index(" 1 , 3 ") == (1, 3)
    assert mi.format_index((2, 0)) == "2,0"
    for n in mi.enumerate_indices(3, 2):
        assert mi.parse_index(mi.format_index(n)) == n
    with pytest.raises(ValueError):
        mi.parse_index("1,-2")
    with pytest.raises(ValueError):
        mi.parse_index("a,b")


def test_count_is_exact_for_large_arguments():
    # python integers keep this exact far beyond any float
    assert mi.index_count(12, 60) == math.comb(72, 12)


def test_enumeration_size_guard():
    with pytest.raises(ValueError):
        mi.enumerate_indices(10, 40)
