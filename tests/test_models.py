import json
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sparse

import slowvary as sv
from slowvary.errors import GridTooCoarse, NonPositiveDiffusivity
from slowvary.models import (
    CellProblem,
    cell_gap_ratio,
    cell_spectral_split,
    homogenisation_cell,
    modal_transform,
    modal_transform_check,
    random_walker_modal,
    random_walker_physical,
)

F = Fraction


# -- the three-velocity walker ------------------------------------------------


def test_walker_modal_entries(walker):
    np.testing.assert_allclose(
        walker.ops[(0, 0)], np.diag([0.0, -1.0, -3.0]), atol=0
    )
    assert walker.ops[(1, 0)][0, 2] == pytest.approx(-4 / 3)
    assert walker.ops[(0, 1)][1, 0] == pytest.approx(-1.0)


def test_walker_physical_is_advection_exchange(walker_physical):
    L0 = walker_physical.ops[(0, 0)]
    # exchange generator: zero column sums, uniform kernel
    np.testing.assert_allclose(L0.sum(axis=0), 0.0, atol=1e-15)
    np.testing.assert_allclose(
        walker_physical.ops[(1, 0)], np.diag([-1.0, 1.0, -1.0]), atol=0
    )
    np.testing.assert_allclose(
        walker_physical.ops[(0, 1)], np.diag([-1.0, 0.0, 1.0]), atol=0
    )


def test_modal_transform_diagonalises(walker_physical, walker):
    T = modal_transform()
    Ti = np.linalg.inv(T)
    for k in walker.support:
        np.testing.assert_allclose(
            T @ walker_physical.ops[k] @ Ti, walker.ops[k], atol=1e-14
        )


def test_modal_transform_check_zero_exact():
    assert modal_transform_check() == 0


def test_modal_transform_check_detects_perturbation(walker_physical):
    ops = {k: v.copy() for k, v in walker_physical.ops.items()}
    ops[(1, 0)][0, 0] += 1e-3
    bad = sv.OperatorFamily(ops)
    assert modal_transform_check(physical=bad) > 1e-4


def test_physical_and_modal_reductions_agree(walker, walker_physical):
    mm, _ = sv.construct_reduction(walker, N=3)
    mp, _ = sv.construct_reduction(walker_physical, N=3)
    for n in mm.A:
        assert np.abs(mm.A[n] - mp.A[n]).max() < 1e-12, n


def test_walker_exact_flavours():
    fam = random_walker_modal(exact=True)
    assert fam.is_exact
    assert fam.ops[(1, 0)][0, 2] == F(-4, 3)
    fp = random_walker_physical(exact=True)
    assert fp.ops[(0, 0)][1, 1] == F(-2)


# -- diffusivity cells --------------------------------------------------------


def test_cell_validation():
    with pytest.raises(GridTooCoarse):
        CellProblem(h=1.0, n=2, K=np.full((2, 2), 1.0))
    with pytest.raises(GridTooCoarse):
        CellProblem(h=1.0, n=7, K=np.full((7, 7), 1.0))
    for n in (0, 1, 2, -4):  # n = 0 is refused before the spacing h / n is formed
        with pytest.raises(GridTooCoarse, match=f"n = {n} must be even"):
            CellProblem.from_expression("layered_cos", n=n)
    with pytest.raises(NonPositiveDiffusivity):
        CellProblem(h=1.0, n=8, K=np.full((8, 8), -0.5))
    with pytest.raises(NonPositiveDiffusivity):
        CellProblem.from_expression("layered_cos", n=8, amplitude=1.0)
    with pytest.raises(ValueError):
        CellProblem.from_expression("no_such_profile")


@pytest.mark.parametrize("n, h", [(8, 1e-300), (8, 1e200), (32, 1e-300)])
def test_cell_refuses_a_spacing_whose_square_leaves_the_float_range(n, h):
    """The flux stencil divides by (h / n)^2: 0 or inf would make it non-finite."""
    with pytest.raises(ValueError, match=re.escape(f"h = {h:g} must be positive, with a spacing "
                                                   f"h / n = {h / n:g} whose square")):
        CellProblem.from_expression("constant", n=n, h=h)
    with pytest.raises(ValueError, match="whose square"):
        CellProblem(h=h, n=n, K=np.ones((n, n)))
    CellProblem.from_expression("constant", n=n, h=1e-150 if h < 1 else 1e150)  # in range


def test_cell_face_values_constant():
    cell = CellProblem.from_expression("constant", n=8, base=0.7)
    np.testing.assert_allclose(cell.face_K(0), 0.7, atol=0)
    np.testing.assert_allclose(cell.face_K(1), 0.7, atol=0)


def test_cell_face_values_layered_midpoints():
    n = 16
    cell = CellProblem.from_expression("layered_cos", n=n)
    d = cell.h / n
    midpoints = 1.0 + 0.5 * np.cos(2 * np.pi * (np.arange(n) + 0.5) * d)
    np.testing.assert_allclose(cell.face_K(0)[:, 0], midpoints, atol=1e-14)
    # layering varies along the first axis only
    assert np.ptp(cell.face_K(0), axis=1).max() < 1e-14


def test_homogenise_constant_recovers_K():
    cell = CellProblem.from_expression("constant", n=16, base=0.7)
    fam = homogenisation_cell(cell)
    split = cell_spectral_split(fam)
    model, _ = sv.construct_reduction(fam, N=2, split=split)
    assert float(model.coefficient((2, 0))[0, 0]) == pytest.approx(0.7, abs=1e-10)
    assert float(model.coefficient((0, 2))[0, 0]) == pytest.approx(0.7, abs=1e-10)
    assert abs(float(model.coefficient((1, 0))[0, 0])) < 1e-10
    assert abs(float(model.coefficient((0, 1))[0, 0])) < 1e-10


def test_homogenise_layered_harmonic_arithmetic():
    cell = CellProblem.from_expression("layered_cos", n=32)
    fam = homogenisation_cell(cell)
    split = cell_spectral_split(fam)
    model, _ = sv.construct_reduction(fam, N=2, split=split)
    a20 = float(model.coefficient((2, 0))[0, 0])
    a02 = float(model.coefficient((0, 2))[0, 0])
    # across the layers: harmonic mean sqrt(1 - a^2); along them: arithmetic
    assert a20 == pytest.approx(np.sqrt(0.75), rel=2e-3)
    assert a02 == pytest.approx(1.0, rel=1e-10)
    assert abs(float(model.coefficient((1, 0))[0, 0])) < 1e-10
    assert abs(float(model.coefficient((1, 1))[0, 0])) < 1e-10


def test_layered_convergence_second_order():
    errs = []
    for n in (16, 32, 64):
        fam = homogenisation_cell(CellProblem.from_expression("layered_cos", n=n))
        model, _ = sv.construct_reduction(fam, N=2, split=cell_spectral_split(fam))
        errs.append(abs(float(model.coefficient((2, 0))[0, 0]) - np.sqrt(0.75)))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert rate[0] == pytest.approx(2.0, abs=0.3)
    assert rate[1] == pytest.approx(2.0, abs=0.3)


def test_checkerboard_smooth_is_symmetric():
    cell = CellProblem.from_expression("checkerboard_smooth", n=16, amplitude=0.4)
    fam = homogenisation_cell(cell)
    split = cell_spectral_split(fam)
    model, _ = sv.construct_reduction(fam, N=2, split=split)
    a20 = float(model.coefficient((2, 0))[0, 0])
    a02 = float(model.coefficient((0, 2))[0, 0])
    assert a20 == pytest.approx(a02, rel=1e-8)
    K = cell.K
    assert 1 / np.mean(1 / K) - 1e-9 <= a20 <= K.mean() + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_random_smooth_fields_obey_mean_bounds(seed):
    """Effective diffusivities sit between the harmonic and arithmetic means."""
    rng = np.random.default_rng(100 + seed)
    n, h = 32, 1.0
    y = np.arange(n) * (h / n)
    Y1, Y2 = np.meshgrid(y, y, indexing="ij")
    K = np.full((n, n), 1.2)
    for _ in range(3):
        p, q = rng.integers(1, 4, size=2)
        amp = 0.15 * rng.random()
        ph1, ph2 = rng.random(2) * 2 * np.pi
        K += amp * np.cos(2 * np.pi * p * Y1 / h + ph1) * np.cos(
            2 * np.pi * q * Y2 / h + ph2
        )
    cell = CellProblem(h=h, n=n, K=K)
    fam = homogenisation_cell(cell)
    split = cell_spectral_split(fam)
    model, _ = sv.construct_reduction(fam, N=2, split=split)
    a20 = float(model.coefficient((2, 0))[0, 0])
    a02 = float(model.coefficient((0, 2))[0, 0])
    harm, arith = 1 / np.mean(1 / K), K.mean()
    assert harm - 1e-6 <= a20 <= arith + 1e-6
    assert harm - 1e-6 <= a02 <= arith + 1e-6
    assert abs(float(model.coefficient((1, 0))[0, 0])) < 1e-9
    assert abs(float(model.coefficient((0, 1))[0, 0])) < 1e-9


def test_cell_split_weights_are_uniform():
    cell = CellProblem.from_expression("layered_cos", n=16)
    fam = homogenisation_cell(cell)
    split = cell_spectral_split(fam)
    assert split.m == 1
    np.testing.assert_allclose(split.V0[:, 0], 1.0, atol=1e-11)
    np.testing.assert_allclose(split.Z0[:, 0], 1.0 / 16**2, atol=1e-14)


# beta of the generic ARPACK centre search that the known-centre split
# replaced: the four cells of the benchmark's seed 1, then n = 32 and n = 128
# cells
_SEARCHED_SPLITS = [
    ("layered_cos", 48, 0.5571, 33.12065778141641),
    ("checkerboard_smooth", 48, 0.386072, 38.580348705634925),
    ("layered_cos", 64, 0.568325, 32.87431784492672),
    ("checkerboard_smooth", 64, 0.364264, 38.70466225727924),
    ("layered_cos", 32, 0.5, 34.32152349626131),
    ("checkerboard_smooth", 32, 0.5, 37.85366896590332),
    ("layered_cos", 128, 0.5, 34.42725509233861),
    ("checkerboard_smooth", 128, 0.5, 37.9691638519791),
]


def _gershgorin_radius(L0):
    """``|min_i (a_ii - sum_{j != i} |a_ij|)|``, row by row from the CSR arrays."""
    low = np.inf
    for i in range(L0.shape[0]):
        cols = L0.indices[L0.indptr[i]:L0.indptr[i + 1]]
        vals = L0.data[L0.indptr[i]:L0.indptr[i + 1]]
        low = min(low, vals[cols == i].sum() - np.abs(vals[cols != i]).sum())
    return abs(low)


def _assert_known_centre_split(fam, beta):
    n2 = fam.dimU
    split = cell_spectral_split(fam)
    assert not split.spectrum_complete  # the sparse split ran
    assert split.beta == pytest.approx(beta, rel=1e-10)
    # the default alpha's radius is the Gershgorin bound on the lowest eigenvalue
    assert split.alpha == pytest.approx(1e-9 * _gershgorin_radius(fam.L0), rel=1e-15)
    assert np.array_equal(split.V0, np.ones((n2, 1)))
    assert np.array_equal(split.Z0, np.full((n2, 1), 1 / n2))
    assert split.bordered_solve is not None  # the factor the construction reuses


@pytest.mark.parametrize("expr, n, amplitude, beta", _SEARCHED_SPLITS,
                         ids=[f"{e}-n{n}" for e, n, *_ in _SEARCHED_SPLITS])
def test_sparse_cell_split_keeps_the_searched_gap(expr, n, amplitude, beta):
    fam = homogenisation_cell(CellProblem.from_expression(expr, n=n, amplitude=amplitude))
    _assert_known_centre_split(fam, beta)


# beta of the dense real Schur split that small cells (dimU <= 600) took
# before every CSR operator was split on its known centre; amplitude 0.5
_DENSE_SPLITS = [
    ("constant", 4, 31.999999999999982),
    ("constant", 6, 35.99999999999993),
    ("constant", 8, 37.49033200812188),
    ("constant", 16, 38.97367935421904),
    ("constant", 24, 39.25344811499397),
    ("layered_cos", 4, 25.372583002030485),
    ("layered_cos", 6, 31.25051697278876),
    ("layered_cos", 8, 32.65464632430453),
    ("layered_cos", 16, 33.984761019083),
    ("layered_cos", 24, 34.233984320196996),
    ("checkerboard_smooth", 4, 29.108279369688844),
    ("checkerboard_smooth", 6, 34.44331534785903),
    ("checkerboard_smooth", 8, 36.031247776184294),
    ("checkerboard_smooth", 16, 37.48584676416798),
    ("checkerboard_smooth", 24, 37.75805059422603),
]


@pytest.mark.parametrize("expr, n, beta", _DENSE_SPLITS,
                         ids=[f"{e}-n{n}" for e, n, _ in _DENSE_SPLITS])
def test_small_cell_split_keeps_the_dense_gap(expr, n, beta):
    _assert_known_centre_split(homogenisation_cell(CellProblem.from_expression(expr, n=n)),
                               beta)


def test_large_cell_reduce_factorises_once(monkeypatch, tmp_path):
    """The split's bordered factor is the construction's: one sparse LU per
    run, and one ARPACK call, shift-invert at the centre ``A0``, on small
    and large cells alike."""
    import scipy.sparse.linalg as spla

    from slowvary.cli import main

    factorised, searched = [], []
    splu, eigsh = spla.splu, spla.eigsh

    def splu_spy(*args, **kwargs):
        factorised.append(args[0].shape)
        return splu(*args, **kwargs)

    def eigsh_spy(*args, **kwargs):
        searched.append((kwargs.get("which"), kwargs.get("sigma")))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu_spy)
    monkeypatch.setattr(spla, "eigsh", eigsh_spy)
    for n in (8, 32):
        factorised.clear()
        searched.clear()
        out = tmp_path / f"run{n}"
        assert main(["reduce", "--model", "homogenise-layered", "--grid", str(n),
                     "--out", str(out)]) == 0
        assert factorised == [(n * n + 1, n * n + 1)]
        # the CLI's cell: layered_cos at its default amplitude 0.5
        L0 = homogenisation_cell(CellProblem.from_expression("layered_cos", n=n)).L0
        ones = np.ones((n * n, 1))
        A0 = ((ones / (n * n)).T @ (L0 @ ones))[0, 0]
        assert searched == [("LM", A0)]


def test_cell_gap_ratio_constant():
    cell = CellProblem.from_expression("constant", n=32)
    fam = homogenisation_cell(cell)
    split = cell_spectral_split(fam)
    ratio = cell_gap_ratio(cell, split)
    # the discrete Laplacian gap trails 4 pi^2 K / h^2 by sinc(1/n)^2
    assert ratio == pytest.approx(np.sinc(1 / 32) ** 2, rel=1e-6)
    assert ratio >= 0.9


def test_cell_gap_ratio_layered_exceeds_worst_case():
    cell = CellProblem.from_expression("layered_cos", n=32)
    fam = homogenisation_cell(cell)
    split = cell_spectral_split(fam)
    assert cell_gap_ratio(cell, split) >= 0.9


def test_cell_json_roundtrip(tmp_path):
    cell = CellProblem.from_expression("layered_cos", n=8, amplitude=0.3)
    p = tmp_path / "cell.json"
    cell.save(p)
    doc = json.loads(p.read_text())
    assert doc["K_expr"] == "layered_cos"
    back = CellProblem.load(p)
    np.testing.assert_allclose(back.K, cell.K, atol=0)
    assert back.k_func is not None

    numeric = CellProblem(h=2.0, n=8, K=cell.K.copy())
    p2 = tmp_path / "numeric.json"
    numeric.save(p2)
    back2 = CellProblem.load(p2)
    assert back2.h == 2.0
    np.testing.assert_allclose(back2.K, cell.K, atol=0)
    assert back2.k_func is None


# -- sparse storage of cell families -------------------------------------------


def _dense_cell_operators(cell):
    """Reference assembly: the node-by-node loop over the periodic stencil."""
    n, d = cell.n, cell.h / cell.n
    Kc, Kx, Ky = cell.K, cell.face_K(0), cell.face_K(1)

    def flat(i, j):
        return (i % n) * n + (j % n)

    L0, L10, L01 = (np.zeros((n * n, n * n)) for _ in range(3))
    for i in range(n):
        for j in range(n):
            p = flat(i, j)
            kxp, kxm, kyp, kym = Kx[i, j], Kx[i - 1, j], Ky[i, j], Ky[i, j - 1]
            L0[p, flat(i + 1, j)] += kxp / d**2
            L0[p, flat(i - 1, j)] += kxm / d**2
            L0[p, flat(i, j + 1)] += kyp / d**2
            L0[p, flat(i, j - 1)] += kym / d**2
            L0[p, p] -= (kxp + kxm + kyp + kym) / d**2
            L10[p, p] += (kxp - kxm) / d
            L01[p, p] += (kyp - kym) / d
            L10[p, flat(i + 1, j)] += Kc[i, j] / d
            L10[p, flat(i - 1, j)] -= Kc[i, j] / d
            L01[p, flat(i, j + 1)] += Kc[i, j] / d
            L01[p, flat(i, j - 1)] -= Kc[i, j] / d
    K2 = np.diag(Kc.reshape(-1))
    return {(0, 0): L0, (1, 0): L10, (0, 1): L01, (2, 0): K2, (0, 2): K2}


def _samples_cell(n):
    rng = np.random.default_rng(n)
    return CellProblem(h=2.0, n=n, K=1.0 + 0.5 * rng.random((n, n)))


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("expr", ["constant", "layered_cos", "checkerboard_smooth", "samples"])
def test_cell_csr_assembly_matches_dense_loop(n, expr):
    if expr == "samples":
        cell = _samples_cell(n)
    else:
        cell = CellProblem.from_expression(expr, n=n, base=0.8, amplitude=0.4)
    fam = homogenisation_cell(cell)
    ref = _dense_cell_operators(cell)
    assert fam.storage == "csr"
    assert set(fam.ops) == set(ref)
    for k, dense in ref.items():
        assert sparse.issparse(fam.ops[k])
        assert fam.ops[k].toarray().tobytes() == dense.tobytes()  # bitwise, signs of 0 too


def test_cell_family_storage_is_linear_in_cells():
    fam = homogenisation_cell(CellProblem.from_expression("layered_cos", n=64))
    assert fam.dimU == 4096
    assert all(sparse.issparse(op) for op in fam.ops.values())
    # dense storage would take five 4096 x 4096 float64 matrices, 671 MB
    assert fam.nbytes == sum(op.nbytes for op in fam.ops.values()) < 2_000_000
    L0 = fam.L0
    assert L0.nbytes == L0.data.nbytes + L0.indices.nbytes + L0.indptr.nbytes


def test_sparse_cell_family_matches_dense_copy():
    cell = CellProblem.from_expression("checkerboard_smooth", n=8, amplitude=0.3)
    fam = homogenisation_cell(cell)
    dense = sv.OperatorFamily(
        {k: op.toarray() for k, op in fam.ops.items()}, label=fam.label
    )
    assert dense.storage == "dense"
    assert fam.to_json() == dense.to_json()
    back = sv.OperatorFamily.from_json(fam.to_json())
    for k, op in fam.ops.items():
        assert back.ops[k].tobytes() == op.toarray().tobytes()
    # the densifying consumers see the same matrices
    kappa = (0.3, -0.7)
    assert np.array_equal(sv.symbol_matrix(fam, kappa), sv.symbol_matrix(dense, kappa))
    assert np.array_equal(
        sv.build_block_operator(fam, 2).matrix, sv.build_block_operator(dense, 2).matrix
    )

