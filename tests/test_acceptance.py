"""End-to-end acceptance checks.

Each test prints one machine-greppable verdict line; numeric tolerances
and runtime budgets are pinned in the assertions.
"""

import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import slowvary as sv
from slowvary.models import (
    CellProblem,
    cell_gap_ratio,
    cell_spectral_split,
    homogenisation_cell,
    random_walker_modal,
)

from conftest import random_gap_family

F = Fraction


@pytest.fixture
def criterion(request):
    """Context manager printing one verdict line per criterion.

    Capture is suspended for the write so the line reaches the terminal
    even under pytest's default fd-level capture.
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    @contextmanager
    def _criterion(num, desc):
        ok = False
        try:
            yield
            ok = True
        finally:
            line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {desc}\n"
            if capman is not None:
                with capman.global_and_fixture_disabled():
                    sys.stdout.write(line)
                    sys.stdout.flush()
            else:
                sys.stdout.write(line)

    return _criterion


def test_criterion_1_order_two_coefficients(criterion):
    with criterion(1, "order-2 walker closure coefficients"):
        t0 = time.perf_counter()
        fam = random_walker_modal(exact=True)
        model, _ = sv.construct_reduction(fam, N=2)
        assert model.A[(1, 0)][0, 0] == F(-1, 3)
        assert model.A[(2, 0)][0, 0] == F(8, 27)
        assert model.A[(0, 2)][0, 0] == F(2, 3)
        for n in [(0, 0), (0, 1), (1, 1)]:
            assert model.A[n][0, 0] == 0
        famf = random_walker_modal()
        mf, _ = sv.construct_reduction(famf, N=2)
        for n, val in [((1, 0), -1 / 3), ((2, 0), 8 / 27), ((0, 2), 2 / 3),
                       ((0, 0), 0.0), ((0, 1), 0.0), ((1, 1), 0.0)]:
            assert abs(float(mf.A[n][0, 0]) - val) <= 1e-12
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_order_three_coefficients(criterion):
    with criterion(2, "order-3 walker closure coefficients"):
        t0 = time.perf_counter()
        fam = random_walker_modal(exact=True)
        model, _ = sv.construct_reduction(fam, N=3)
        assert model.A[(3, 0)][0, 0] == F(16, 243)
        assert model.A[(1, 2)][0, 0] == F(-20, 27)
        assert model.A[(2, 1)][0, 0] == 0
        assert model.A[(0, 3)][0, 0] == 0
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_basis_vectors(criterion):
    with criterion(3, "slow-subspace basis vectors and block directions"):
        fam = random_walker_modal(exact=True)
        _, basis = sv.construct_reduction(fam, N=2)
        golden = {
            (1, 0): [0, 0, F(-2, 9)],
            (0, 1): [0, -1, 0],
            (2, 0): [0, 0, F(-4, 81)],
            (1, 1): [0, F(8, 9), 0],
            (0, 2): [0, 0, F(1, 9)],
        }
        for n, vec in golden.items():
            assert basis.vectors[n][:, 0].tolist() == vec, n
        # flattened 18-component slow directions of the block system
        directions = {
            (0, 0): [1] + [0] * 17,
            (1, 0): [0, 0, F(-2, 9), 1] + [0] * 14,
            (0, 1): [0, -1, 0, 0, 0, 0, 1] + [0] * 11,
            (2, 0): [0, 0, F(-4, 81), 0, 0, F(-2, 9), 0, 0, 0, 1] + [0] * 8,
            (1, 1): [0, F(8, 9), 0, 0, -1, 0, 0, 0, F(-2, 9), 0, 0, 0, 1]
            + [0] * 5,
            (0, 2): [0, 0, F(1, 9), 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1,
                     0, 0],
        }
        S = sv.slow_subspace_matrix(basis)
        for j, n in enumerate(basis.poly):
            assert S[:, j].tolist() == directions[n], n


def test_criterion_4_structural_identities(criterion):
    with criterion(4, "invariance residuals and block-system spectrum"):
        fam = random_walker_modal(exact=True)
        model, basis = sv.construct_reduction(fam, N=2)
        assert sv.check_invariance(fam, model, basis) == 0

        famf = random_walker_modal()
        block = sv.build_block_operator(famf, N=2)
        ev = np.sort(np.linalg.eigvals(block.matrix).real)
        for lam, count in [(-3.0, 6), (-1.0, 6), (0.0, 6)]:
            assert np.sum(np.abs(ev - lam) < 1e-8) == count

        blockA = sv.build_block_A(model)
        golden_A = np.zeros((6, 6))
        golden_A[0] = [0, -1 / 3, 0, 8 / 27, 0, 2 / 3]
        golden_A[1, 3] = -1 / 3
        golden_A[2, 4] = -1 / 3
        assert np.abs(
            np.array(blockA.matrix, dtype=float) - golden_A
        ).max() == 0
        assert sv.verify_slow_subspace(block, blockA, basis) <= 1e-12


def test_criterion_5_homogenisation(criterion):
    with criterion(5, "cell-problem effective diffusivities and gap"):
        t0 = time.perf_counter()
        const = CellProblem.from_expression("constant", n=32, base=0.7)
        fam_c = homogenisation_cell(const)
        split_c = cell_spectral_split(fam_c)
        model_c, _ = sv.construct_reduction(fam_c, N=2, split=split_c)
        for n in [(2, 0), (0, 2)]:
            assert float(model_c.coefficient(n)[0, 0]) == pytest.approx(
                0.7, abs=1e-10
            )
        assert cell_gap_ratio(const, split_c) >= 0.9

        layered = CellProblem.from_expression("layered_cos", n=64)
        fam_l = homogenisation_cell(layered)
        split_l = cell_spectral_split(fam_l)
        model_l, _ = sv.construct_reduction(fam_l, N=2, split=split_l)
        a20 = float(model_l.coefficient((2, 0))[0, 0])
        a02 = float(model_l.coefficient((0, 2))[0, 0])
        assert a20 == pytest.approx(np.sqrt(0.75), rel=1e-2)
        assert a02 == pytest.approx(1.0, rel=1e-2)
        for n in [(1, 0), (0, 1)]:
            assert abs(float(model_l.coefficient(n)[0, 0])) <= 1e-10
            assert abs(float(model_c.coefficient(n)[0, 0])) <= 1e-10
        layered32 = CellProblem.from_expression("layered_cos", n=32)
        fam_32 = homogenisation_cell(layered32)
        split_32 = cell_spectral_split(fam_32)
        assert cell_gap_ratio(layered32, split_32) >= 0.9
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_emergence_behaviour(criterion):
    with criterion(6, "transient decay, emergence plateau, closure order"):
        t0 = time.perf_counter()
        fam = random_walker_modal()
        split = sv.spectral_split(fam, N=2)

        for comp, rate in [(1, 1.0), (2, 3.0)]:
            values = np.zeros((8, 1, 3))
            values[..., comp] = 1.0
            f0 = sv.MicroField((16.0, 16.0), values)
            span = 8.0 / rate
            traj = sv.simulate_micro(fam, f0, T=span, samples=40)
            fit = sv.decay_rate_fit(traj, split)
            assert fit.gamma == pytest.approx(rate, rel=0.1)

        model2, _ = sv.construct_reduction(fam, N=2, split=split)
        profile = sv.plane_wave((64.0, 64.0), (32, 1), 1)
        values = np.einsum("...m,dm->...d", profile, split.V0)
        f0 = sv.MicroField((64.0, 64.0), values)
        t_skip = 6 * np.log(10.0) / split.beta
        res = sv.emergence_error(fam, model2, split, f0, T=t_skip + 12.0,
                                 t_skip=t_skip, samples=240)
        assert res.plateau() <= 1e-3

        for N in (2, 3):
            modelN, _ = sv.construct_reduction(fam, N=N, split=split)
            study = sv.closure_order_study(
                fam, modelN, split, [32.0, 64.0, 128.0], grid_points=32
            )
            assert not study.degenerate
            assert N + 0.5 <= study.order <= N + 1.5
        assert time.perf_counter() - t0 < 300.0


def test_criterion_7_oracle_equivalence(criterion):
    with criterion(7, "mode-exponential oracle and symbol-order oracle"):
        fam = random_walker_modal()
        rng = np.random.default_rng(2024)
        for _ in range(10):
            kappa = rng.uniform(-1.5, 1.5, size=2)
            u0 = rng.standard_normal(3)
            T = 2.5
            lengths = (
                2 * np.pi / abs(kappa[0]),
                2 * np.pi / abs(kappa[1]),
            )
            axes = [np.arange(g) * (L / g) for g, L in zip((8, 8), lengths)]
            X, Y = np.meshgrid(*axes, indexing="ij")
            phase = (
                np.sign(kappa[0]) * 2 * np.pi * X / lengths[0]
                + np.sign(kappa[1]) * 2 * np.pi * Y / lengths[1]
            )
            values = np.real(np.exp(1j * phase)[..., None] * u0)
            f0 = sv.MicroField(lengths, values)
            traj = sv.simulate_micro(fam, f0, T, samples=5)
            exact = sv.mode_evolution_oracle(fam, kappa, T, u0=u0)
            expected = np.real(np.exp(1j * phase)[..., None] * exact)
            scale = max(np.abs(expected).max(), 1e-12)
            assert np.abs(traj.values[-1] - expected).max() / scale <= 1e-8

        for seed in range(20):
            rng = np.random.default_rng(7000 + seed)
            dimU = int(rng.integers(2, 6))
            N = int(rng.integers(1, 4))
            gfam = random_gap_family(rng, dimU=dimU, m=1, max_order=2)
            split = sv.spectral_split(gfam, N)
            model, _ = sv.construct_reduction(gfam, N=N, split=split)
            order = sv.symbol_order_check(gfam, split, model, N)
            assert order.passed and order.slope is not None, (seed, order.message)


def test_criterion_8_declared_non_goals(criterion):
    with criterion(8, "remainder quantification covered empirically"):
        # no symbolic remainder or normal-form transform is exposed;
        # their diagnostic role falls to the empirical closure checks
        for absent in ("exact_remainder", "normal_form", "remainder"):
            assert not hasattr(sv, absent)
        assert callable(sv.closure_residual)
        assert callable(sv.closure_order_study)
        assert callable(sv.mode_evolution_oracle)
