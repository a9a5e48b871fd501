import csv
from fractions import Fraction

import numpy as np
import pytest

import slowvary as sv

F = Fraction


def frac_mat(rows):
    return np.array([[F(x) for x in r] for r in rows], dtype=object)


# The six slow directions of the order-2 block system, written out in the
# flattened (18-component) coordinates: station blocks ordered
# (0,0),(1,0),(0,1),(2,0),(1,1),(0,2), three components each.
SLOW_DIRECTIONS = {
    (0, 0): [1] + [0] * 17,
    (1, 0): [0, 0, F(-2, 9), 1] + [0] * 14,
    (0, 1): [0, -1, 0, 0, 0, 0, 1] + [0] * 11,
    (2, 0): [0, 0, F(-4, 81), 0, 0, F(-2, 9), 0, 0, 0, 1] + [0] * 8,
    (1, 1): [0, F(8, 9), 0, 0, -1, 0, 0, 0, F(-2, 9), 0, 0, 0, 1] + [0] * 5,
    (0, 2): [0, 0, F(1, 9), 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
}

BLOCK_A_GOLDEN = frac_mat([
    [0, F(-1, 3), 0, F(8, 27), 0, F(2, 3)],
    [0, 0, 0, F(-1, 3), 0, 0],
    [0, 0, 0, 0, F(-1, 3), 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
])


def test_block_layout(walker):
    block = sv.build_block_operator(walker, N=2)
    assert block.matrix.shape == (18, 18)
    table = block.table
    idx = list(table)
    assert idx == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # row block n, column block k carries the operator for index k - n
    for i, n in enumerate(idx):
        for j, k in enumerate(idx):
            b = block.matrix[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
            diff = tuple(kj - nj for kj, nj in zip(k, n))
            if all(c >= 0 for c in diff) and diff in walker.ops:
                np.testing.assert_allclose(b, walker.ops[diff], atol=0)
            else:
                assert np.abs(b).max() == 0


def test_block_labels(walker):
    block = sv.build_block_operator(walker, N=1)
    assert block.labels[:4] == ["0,0|0", "0,0|1", "0,0|2", "1,0|0"]


def test_block_spectrum_multiplicity(walker):
    block = sv.build_block_operator(walker, N=2)
    assert sv.block_spectrum_check(block, walker) < 1e-10
    ev = np.sort(np.linalg.eigvals(block.matrix).real)
    for lam, count in [(-3.0, 6), (-1.0, 6), (0.0, 6)]:
        assert np.sum(np.abs(ev - lam) < 1e-8) == count


def test_block_A_matches_golden(walker_exact):
    model, _ = sv.construct_reduction(walker_exact, N=2)
    blockA = sv.build_block_A(model)
    assert blockA.matrix.shape == (6, 6)
    assert (blockA.matrix == BLOCK_A_GOLDEN).all()


def test_slow_subspace_columns_are_golden_vectors(walker_exact):
    _, basis = sv.construct_reduction(walker_exact, N=2)
    S = sv.slow_subspace_matrix(basis)
    assert S.shape == (18, 6)
    for j, n in enumerate(basis.poly):
        expected = SLOW_DIRECTIONS[n]
        assert S[:, j].tolist() == expected, n


def test_slow_subspace_invariance_exact(walker_exact):
    model, basis = sv.construct_reduction(walker_exact, N=2)
    block = sv.build_block_operator(walker_exact, N=2)
    blockA = sv.build_block_A(model)
    assert sv.verify_slow_subspace(block, blockA, basis) == 0


def test_slow_subspace_invariance_float(walker):
    model, basis = sv.construct_reduction(walker, N=2)
    block = sv.build_block_operator(walker, N=2)
    blockA = sv.build_block_A(model)
    assert sv.verify_slow_subspace(block, blockA, basis) < 1e-12


def test_block_invariance_random_family():
    from conftest import random_gap_family

    rng = np.random.default_rng(3)
    fam = random_gap_family(rng, dimU=4, m=1, max_order=2)
    model, basis = sv.construct_reduction(fam, N=3)
    block = sv.build_block_operator(fam, N=3)
    blockA = sv.build_block_A(model)
    assert sv.block_spectrum_check(block, fam) < 1e-8
    assert sv.verify_slow_subspace(block, blockA, basis) < 1e-10


def test_block_csv_export(tmp_path, walker):
    block = sv.build_block_operator(walker, N=1)
    path = tmp_path / "block.csv"
    sv.block_to_csv(block, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "row"
    assert rows[0][1:] == block.labels
    assert len(rows) == 1 + 9
    assert float(rows[2][2]) == -1.0  # L0[1,1] in the first diagonal block


def test_one_dimensional_block(walker):
    ops = {(0,): walker.ops[(0, 0)], (1,): walker.ops[(1, 0)]}
    fam = sv.OperatorFamily(ops)
    block = sv.build_block_operator(fam, N=2)
    assert block.matrix.shape == (9, 9)
    model, basis = sv.construct_reduction(fam, N=2)
    blockA = sv.build_block_A(model)
    assert sv.verify_slow_subspace(block, blockA, basis) < 1e-12


def test_exact_slow_subspace_residual_is_zero_and_sensitive(walker_exact):
    model, basis = sv.construct_reduction(walker_exact, N=6)
    block = sv.build_block_operator(walker_exact, N=6)
    assert block.matrix.shape == (84, 84) and block.is_exact
    assert sv.verify_slow_subspace(block, sv.build_block_A(model), basis) == 0
    n = sorted(model.A)[len(model.A) // 2]
    A = dict(model.A)
    A[n] = A[n].copy()
    A[n][0, 0] += F(1, 10**9)
    moved = sv.ReducedModel(M=model.M, N=model.N, m=model.m, A=A)
    assert sv.verify_slow_subspace(block, sv.build_block_A(moved), basis) > 0


def _pairing_by_list(block, family):
    """The greedy nearest-first pairing as a plain Python loop over a list."""
    import scipy.linalg as sla

    got = np.sort_complex(sla.eigvals(np.asarray(block.matrix, dtype=float)))
    expect = np.sort_complex(np.tile(sla.eigvals(np.asarray(family.L0, dtype=float)),
                                     len(block.table)))
    remaining = list(expect)
    worst = 0.0
    for lam in got:
        dist = [abs(lam - mu) for mu in remaining]
        j = int(np.argmin(dist))
        worst = max(worst, float(dist[j]))
        remaining.pop(j)
    return worst


@pytest.mark.parametrize("seed, centre, m, N", [(7000, "zero", 1, 3), (7001, "rotation", 2, 2),
                                                (7002, "jordan", 2, 3), (7003, "zero", 3, 2)])
def test_block_spectrum_pairing_matches_list_loop(seed, centre, m, N, walker):
    from conftest import random_gap_family

    rng = np.random.default_rng(seed)
    fam = random_gap_family(rng, dimU=int(rng.integers(m + 2, 12)), M=2, m=m, centre=centre)
    for family in (fam, walker):
        block = sv.build_block_operator(family, N=N)
        got, want = sv.block_spectrum_check(block, family), _pairing_by_list(block, family)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
