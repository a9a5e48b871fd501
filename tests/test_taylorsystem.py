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
    idx = list(block.table)
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


# -- the symbol-order oracle -------------------------------------------------


def _gap_case(seed, centre, m, N, dimU=8, M=2, alpha=None):
    from conftest import random_gap_family

    fam = random_gap_family(np.random.default_rng(seed), dimU=dimU, M=M, m=m, centre=centre)
    split = sv.spectral_split(fam, N, alpha)
    model, basis = sv.construct_reduction(fam, N, split=split)
    return fam, split, model, basis


def _moved(model, n, rel):
    """``model`` with the largest entry of ``A_n`` moved by ``rel`` of itself."""
    A = {k: np.array(v, dtype=float) for k, v in model.A.items()}
    i = np.unravel_index(np.abs(A[n]).argmax(), A[n].shape)
    A[n][i] *= 1 + rel
    return sv.ReducedModel(M=model.M, N=model.N, m=model.m, A=A)


@pytest.mark.parametrize("seed, centre, m, M, N, alpha", [
    (7100, "zero", 1, 2, 2, None), (7101, "zero", 3, 2, 3, None),
    (7102, "rotation", 2, 2, 2, None), (7103, "jordan", 2, 2, 2, 1e-6),
    (7104, "zero", 2, 1, 3, None), (7105, "zero", 1, 3, 1, None),
])
def test_symbol_order_check_measures_the_order(seed, centre, m, M, N, alpha):
    fam, split, model, _ = _gap_case(seed, centre, m, N, M=M, alpha=alpha)
    got = sv.symbol_order_check(fam, split, model, N)
    assert got.passed, got.message
    assert N + 0.5 <= got.slope <= N + 1.5
    assert len(got.slopes) == M + (M > 1) and got.rungs == 4 * len(got.slopes)
    assert 0 < got.iterations < 100


def test_symbol_order_check_on_exact_walker(walker_exact):
    split = sv.spectral_split(walker_exact, 6)
    model, _ = sv.construct_reduction(walker_exact, 6, split=split)
    got = sv.symbol_order_check(walker_exact, split, model, 6)
    assert got.passed and 6.5 <= got.slope <= 7.5


@pytest.mark.parametrize("n, hit, spared", [((1, 0), [0, 2], 1), ((0, 2), [1, 2], 0)])
def test_symbol_order_check_fails_a_moved_coefficient(n, hit, spared):
    """A 1e-3 relative error in a grade-1 or a grade-2 coefficient shows as
    a low slope along the directions whose symbol contains it."""
    fam, split, model, _ = _gap_case(7110, "zero", 2, 3)
    got = sv.symbol_order_check(fam, split, _moved(model, n, 1e-3), 3)
    slopes = list(got.slopes.values())  # x axis, y axis, diagonal
    assert not got.passed and "falls like" in got.message
    assert all(slopes[i] < 3.5 for i in hit)
    assert slopes[spared] >= 3.5


def test_symbol_order_check_reports_no_convergence(monkeypatch):
    from slowvary import taylorsystem

    fam, split, model, _ = _gap_case(7120, "zero", 1, 2)
    monkeypatch.setattr(taylorsystem, "_CHORD_MAXIT", 1)
    got = sv.symbol_order_check(fam, split, model, 2)
    assert not got.passed and got.slope is None
    assert "did not converge" in got.message


def test_symbol_order_check_names_a_singular_bordered_matrix():
    """The chord correction runs on the construction's solver, which
    refuses a singular bordered matrix: here ``A0 = [-1]`` is a stable
    eigenvalue of ``L0``."""
    from slowvary.errors import SylvesterInconsistent

    fam = sv.OperatorFamily({(0,): np.diag([0.0, -1.0]), (1,): np.eye(2)[::-1]})
    e0 = np.array([[1.0], [0.0]])
    split = sv.SpectralSplit(m=1, V0=e0, Z0=e0, A0=np.array([[-1.0]]), alpha=1e-9,
                             beta=1.0, eigenvalues=np.array([0.0, -1.0]))
    model = sv.ReducedModel(M=1, N=1, m=1, A={(0,): split.A0, (1,): np.zeros((1, 1))})
    with pytest.raises(SylvesterInconsistent, match="singular at t = -1"):
        sv.symbol_order_check(fam, split, model, 1)


def test_symbol_order_check_takes_csr_families():
    from slowvary import models

    cell = models.CellProblem.from_expression("layered_cos", n=8, amplitude=0.5)
    fam = models.homogenisation_cell(cell)
    split = models.cell_spectral_split(fam, N=2)
    model, _ = sv.construct_reduction(fam, 2, split=split)
    got = sv.symbol_order_check(fam, split, model, 2)
    assert got.passed and got.slope >= 2.5


def test_slow_subspace_threshold_is_relative_and_still_sensitive(walker_exact):
    """``reduce`` judges the invariance residual against ``tol`` times the
    scale of ``check_invariance``; one coefficient moved by 1e-8 of the
    largest still fails that bound."""
    for fam, N in ((walker_exact, 4), (_gap_case(7130, "zero", 2, 3)[0], 3)):
        model, basis = sv.construct_reduction(fam, N)
        famf, modelf, basisf = fam.to_float(), model.to_float(), basis.to_float()
        residual, scale = sv.check_invariance(famf, modelf, basisf, with_scale=True)
        assert residual <= 1e-10 * scale
        n = max(modelf.A, key=lambda k: np.abs(modelf.A[k]).max() if any(k) else 0)
        moved = _moved(modelf, n, 1e-8)
        residual, scale = sv.check_invariance(famf, moved, basisf, with_scale=True)
        assert residual > 1e-10 * scale


# -- the block system as the reference for check_invariance ----------------


def _bump(x):
    """``x`` moved by 1e-3 of itself (by 1e-3 when it is 0), exactly for a Fraction."""
    return x + (abs(x) or 1) * (F(1, 1000) if isinstance(x, F) else 1e-3)


def _moved_largest(mat):
    mat = mat.copy()
    i = np.unravel_index(np.abs(mat.astype(float)).argmax(), mat.shape)
    mat[i] = _bump(mat[i])
    return mat


def _block_and_index_residuals(fam, model, basis):
    """Block residual ``L S - S A`` and the same layout filled from the
    invariance residuals: block ``(k, n)`` is the residual of index
    ``n - k`` (zero where ``k <= n`` fails).  Fraction arrays for exact
    inputs, float arrays otherwise."""
    from slowvary import _rational as rat
    from slowvary.multiindex import index_sub, lower_sets
    from slowvary.slowreduce import _invariance_residuals

    block, block_A = sv.build_block_operator(fam, model.N), sv.build_block_A(model)
    convert = rat.as_ratmatrix if fam.is_exact else rat.as_float
    L, A, S = map(convert, (block.matrix, block_A.matrix, sv.slow_subspace_matrix(basis)))
    resid = rat.as_fractions(L @ S - S @ A)
    assert sv.verify_slow_subspace(block, block_A, basis) == float(abs(resid).max())
    pos, d, m = {k: i for i, k in enumerate(block.table)}, basis.dimU, basis.m
    per_index = {n: rat.as_fractions(diff)
                 for n, diff, _ in _invariance_residuals(fam, model, basis)}
    laid_out = rat.zeros(resid.shape, basis.is_exact)
    for n, below in lower_sets(block.table).items():
        j = pos[n]
        for k in below:
            i = pos[k]
            laid_out[i * d:(i + 1) * d, j * m:(j + 1) * m] = per_index[index_sub(n, k)]
    return resid, laid_out


_IDENTITY_CASES = [
    *[pytest.param(("gap", seed, centre, m, M, N), id=f"float-{centre}-m{m}-M{M}-N{N}")
      for seed, centre, m, M, N in [
          (7140, "zero", 1, 1, 4), (7141, "zero", 2, 2, 3), (7142, "zero", 1, 3, 2),
          (7143, "jordan", 2, 1, 3), (7144, "jordan", 2, 2, 2), (7145, "jordan", 2, 3, 2),
          (7146, "rotation", 2, 1, 3), (7147, "rotation", 2, 2, 2),
          (7148, "rotation", 2, 3, 2)]],
    *[pytest.param(("rational", seed, m, M, N), id=f"exact-zero-m{m}-M{M}-N{N}")
      for seed, m, M, N in [(7150, 1, 1, 4), (7151, 2, 2, 3), (7152, 1, 3, 2)]],
    pytest.param(("walker", False), id="float-walker-N4"),
    pytest.param(("walker", True), id="exact-walker-N4"),
]


@pytest.mark.parametrize("case", _IDENTITY_CASES)
def test_block_residual_is_the_invariance_residual_entrywise(case, walker, walker_exact):
    """Block ``(k, n)`` of ``(grouped L) S - S (grouped A)`` equals the
    invariance residual of index ``n - k``, so ``verify_slow_subspace`` and
    ``check_invariance`` evaluate one identity: exactly for exact inputs,
    to 1e-12 of the scale of ``check_invariance`` in float.  It holds for
    the constructed model and when one ``A_k`` or one vector ``V^k`` is
    moved, where the residual is far from 0."""
    from conftest import random_rational_family

    if case[0] == "walker":
        fam, N = (walker_exact if case[1] else walker), 4
        model, basis = sv.construct_reduction(fam, N)
    elif case[0] == "gap":
        _, seed, centre, m, M, N = case
        fam, _, model, basis = _gap_case(seed, centre, m, N, M=M,
                                         alpha=1e-6 if centre == "jordan" else None)
    else:
        _, seed, m, M, N = case
        rng = np.random.default_rng(seed)
        fam = random_rational_family(rng, dimU=int(rng.integers(m + 2, 6)), M=M, m=m)
        model, basis = sv.construct_reduction(fam, N)
    assert fam.is_exact == model.is_exact == basis.is_exact
    k = next(k for k in model.A if sum(k) == 1)
    moved_model = sv.ReducedModel(M=model.M, N=N, m=model.m,
                                  A={**model.A, k: _moved_largest(model.A[k])})
    moved_basis = sv.GeneratingBasis(M=basis.M, N=N, m=basis.m, dimU=basis.dimU,
                                     vectors={**basis.vectors, k: _moved_largest(basis.vectors[k])})
    for name, mod, bas in (("constructed", model, basis), ("A moved", moved_model, basis),
                           ("V moved", model, moved_basis)):
        resid, laid_out = _block_and_index_residuals(fam, mod, bas)
        residual, scale = sv.check_invariance(fam, mod, bas, with_scale=True)
        if fam.is_exact:
            assert (resid == laid_out).all(), name
        else:
            assert np.abs(resid - laid_out).max() <= 1e-12 * scale, name
        if name != "constructed":
            assert residual > (0 if fam.is_exact else 1e-8 * scale), name
            assert abs(resid).max() > 0, name
