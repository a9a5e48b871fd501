import re
import tracemalloc

import numpy as np
import pytest

import slowvary as sv
from slowvary import simulate
from slowvary.errors import InsufficientDecay, StabilityViolation

from conftest import random_gap_family


@pytest.fixture(scope="module")
def walker_setup(walker):
    split = sv.spectral_split(walker, N=2)
    model, _ = sv.construct_reduction(walker, N=2, split=split)
    return walker, model, split


def slow_seed(lengths, grid, split, mode=None):
    profile = sv.plane_wave(lengths, grid, split.m, mode=mode)
    values = np.einsum("...m,dm->...d", profile, split.V0)
    return sv.MicroField(lengths, values)


def test_plane_wave_profile():
    vals = sv.plane_wave((8.0, 8.0), (16, 1), 3, component=1)
    assert vals.shape == (16, 1, 3)
    x = np.arange(16) * 0.5
    np.testing.assert_allclose(vals[:, 0, 1], np.sin(2 * np.pi * x / 8), atol=1e-14)
    assert np.abs(vals[..., 0]).max() == 0


def test_field_validation():
    with pytest.raises(ValueError):
        sv.MicroField((8.0,), np.zeros((12, 3)))  # 12 is not a power of two
    with pytest.raises(ValueError):
        sv.MicroField((8.0, 8.0), np.zeros((16, 3)))  # box/grid rank mismatch
    with pytest.raises(ValueError):
        sv.MicroField((-1.0,), np.zeros((16, 3)))


def test_micro_matches_mode_oracle(walker):
    """Spectral integration of one Fourier mode against the exact propagator."""
    rng = np.random.default_rng(12)
    for _ in range(4):
        kappa = rng.uniform(-1.0, 1.0, size=2)
        u0 = rng.standard_normal(3)
        T = 3.0
        # single mode: lengths chosen so the first nonzero mode is kappa
        lengths = (2 * np.pi / abs(kappa[0]), 2 * np.pi / abs(kappa[1]))
        grid = (8, 8)
        axes = [np.arange(g) * (L / g) for g, L in zip(grid, lengths)]
        X, Y = np.meshgrid(*axes, indexing="ij")
        phase = np.sign(kappa[0]) * 2 * np.pi * X / lengths[0] + np.sign(
            kappa[1]
        ) * 2 * np.pi * Y / lengths[1]
        values = np.real(np.exp(1j * phase)[..., None] * u0)
        f0 = sv.MicroField(lengths, values)
        traj = sv.simulate_micro(walker, f0, T, samples=10)
        exact = sv.mode_evolution_oracle(walker, kappa, T, u0=u0)
        expected = np.real(np.exp(1j * phase)[..., None] * exact)
        scale = max(np.abs(expected).max(), 1e-12)
        assert np.abs(traj.values[-1] - expected).max() / scale < 1e-8


def _rk4_reference(family, field0, T, samples, dt):
    """Classical RK4 on every Fourier mode with steps of at most ``dt``."""
    axes = tuple(range(len(field0.grid)))
    freqs = [2 * np.pi * np.fft.fftfreq(g, d=L / g)
             for g, L in zip(field0.grid, field0.lengths)]
    kvecs = np.stack(np.meshgrid(*freqs, indexing="ij"), axis=-1).reshape(-1, len(axes))
    S = np.array([sv.symbol_matrix(family, kappa) for kappa in kvecs])
    u = np.fft.fftn(field0.values, axes=axes).reshape(-1, field0.dimU)
    span = T / samples
    nsub = int(np.ceil(span / dt))
    h = span / nsub

    def deriv(x):
        return np.einsum("mij,mj->mi", S, x)

    frames = [field0.values]
    for _ in range(samples):
        for _ in range(nsub):
            k1 = deriv(u)
            k2 = deriv(u + 0.5 * h * k1)
            k3 = deriv(u + 0.5 * h * k2)
            k4 = deriv(u + h * k3)
            u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        frames.append(np.real(np.fft.ifftn(u.reshape(field0.values.shape), axes=axes)))
    return np.array(frames)


def test_micro_matches_fine_rk4(walker):
    """Exact propagation against an independent fine-step RK4 integration."""
    rng = np.random.default_rng(7)
    f0 = sv.MicroField((20.0, 12.0), rng.standard_normal((8, 8, 3)))
    traj = sv.simulate_micro(walker, f0, T=4.0, samples=8)
    ref = _rk4_reference(walker, f0, T=4.0, samples=8, dt=2e-3)
    assert np.abs(traj.values - ref).max() / np.abs(ref).max() < 1e-8


def test_micro_jordan_centre_closed_form():
    """A Jordan centre advances as ``e^{lam t} (I + t N)``, mode by mode.

    ``S(kappa) = lam(kappa) I + (1 + 0.3 i kappa_x) N + diag(0, 0, -1)``
    with ``N = e_0 e_1^T`` and ``lam = 0.4 i kappa_x - 0.2 i kappa_y -
    0.1 |kappa|^2``; N commutes with the decaying third component.
    """
    N = np.zeros((3, 3))
    N[0, 1] = 1.0
    eye = np.eye(3)
    fam = sv.OperatorFamily({
        (0, 0): N + np.diag([0.0, 0.0, -1.0]),
        (1, 0): 0.4 * eye + 0.3 * N,
        (0, 1): -0.2 * eye,
        (2, 0): 0.1 * eye,
        (0, 2): 0.1 * eye,
    })
    rng = np.random.default_rng(8)
    lengths, grid = (9.0, 14.0), (8, 8)
    f0 = sv.MicroField(lengths, rng.standard_normal(grid + (3,)))
    traj = sv.simulate_micro(fam, f0, T=6.0, samples=6)
    freqs = [2 * np.pi * np.fft.fftfreq(g, d=L / g) for g, L in zip(grid, lengths)]
    kx, ky = np.meshgrid(*freqs, indexing="ij")
    lam = 0.4j * kx - 0.2j * ky - 0.1 * (kx**2 + ky**2)
    u0 = np.fft.fftn(f0.values, axes=(0, 1))
    for t, frame in zip(traj.times, traj.values):
        u = np.exp(lam * t)[..., None] * u0
        u[..., 2] *= np.exp(-t)
        u[..., 0] += t * (1 + 0.3j * kx) * u[..., 1]
        expected = np.real(np.fft.ifftn(u, axes=(0, 1)))
        assert np.abs(frame - expected).max() <= 1e-12 * np.abs(expected).max()


def test_total_mass_conserved(walker_physical):
    rng = np.random.default_rng(3)
    grid, lengths = (16, 1), (10.0, 10.0)
    x = np.arange(16) * (10.0 / 16)
    values = np.zeros((16, 1, 3))
    for c in range(3):
        values[:, 0, c] = 1.0 + 0.3 * np.sin(2 * np.pi * x / 10.0 + c)
    f0 = sv.MicroField(lengths, values)
    traj = sv.simulate_micro(walker_physical, f0, T=8.0, samples=20)
    totals = traj.values.sum(axis=(1, 2, 3))
    np.testing.assert_allclose(totals, totals[0], rtol=1e-12)


def test_emergence_error_walker_plateau(walker_setup):
    fam, model, split = walker_setup
    L = 64.0
    f0 = slow_seed((L, L), (32, 1), split)
    t_skip = 6 * np.log(10.0) / split.beta
    res = sv.emergence_error(fam, model, split, f0, T=t_skip + 12.0,
                             t_skip=t_skip, samples=240)
    plateau = res.plateau()
    assert plateau <= 1e-3

    # dispersion-mismatch oracle: the plateau is the settled phase drift
    kappa = 2 * np.pi / L
    S = sv.symbol_matrix(fam, (kappa, 0.0))
    lam_exact = np.linalg.eigvals(S)
    lam_exact = lam_exact[np.argmax(lam_exact.real)]
    lam_model = sv.symbol_matrix(model, (kappa, 0.0))[0, 0]
    taus = res.times[len(res.times) // 2 :] - res.t_skip
    pred = np.median(np.abs(np.exp((lam_exact - lam_model) * taus) - 1.0))
    assert plateau == pytest.approx(pred, rel=0.3)


def test_emergence_error_spatially_uniform_data(walker_setup):
    fam, model, split = walker_setup
    values = np.zeros((8, 1, 3))
    values[..., 0] = 0.7  # constant slow content only
    f0 = sv.MicroField((16.0, 16.0), values)
    res = sv.emergence_error(fam, model, split, f0, T=20.0, samples=100)
    assert res.error.max() < 1e-10


def test_decay_rate_one(walker):
    split = sv.spectral_split(walker, N=2)
    values = np.zeros((8, 1, 3))
    values[..., 1] = 1.0
    f0 = sv.MicroField((16.0, 16.0), values)
    traj = sv.simulate_micro(walker, f0, T=8.0, samples=40)
    fit = sv.decay_rate_fit(traj, split)
    assert fit.gamma == pytest.approx(1.0, rel=1e-3)
    assert fit.efoldings > 3


def test_decay_rate_three(walker):
    split = sv.spectral_split(walker, N=2)
    values = np.zeros((8, 1, 3))
    values[..., 2] = 1.0
    f0 = sv.MicroField((16.0, 16.0), values)
    traj = sv.simulate_micro(walker, f0, T=4.0, samples=40)
    fit = sv.decay_rate_fit(traj, split)
    assert fit.gamma == pytest.approx(3.0, rel=1e-3)


def test_decay_fit_requires_fast_content(walker_setup):
    fam, model, split = walker_setup
    f0 = slow_seed((16.0, 16.0), (8, 1), split)
    traj = sv.simulate_micro(fam, f0, T=5.0, samples=20)
    with pytest.raises(InsufficientDecay):
        sv.decay_rate_fit(traj, split)


def test_decay_fit_requires_three_efoldings(walker):
    split = sv.spectral_split(walker, N=2)
    values = np.zeros((8, 1, 3))
    values[..., 1] = 1.0
    f0 = sv.MicroField((16.0, 16.0), values)
    traj = sv.simulate_micro(walker, f0, T=1.0, samples=20)  # only one e-fold
    with pytest.raises(InsufficientDecay):
        sv.decay_rate_fit(traj, split)


def _record_expm(monkeypatch):
    """Record every stack that ``_integrate`` hands to ``scipy.linalg.expm``."""
    stacks, expm = [], simulate.sla.expm

    def recording(A):
        stacks.append(A.shape)
        return expm(A)

    monkeypatch.setattr(simulate.sla, "expm", recording)
    return stacks


def test_only_excited_rows_are_propagated(walker_setup, monkeypatch):
    fam, _, split = walker_setup
    f0 = slow_seed((16.0, 16.0), (32, 32), split)
    stacks = _record_expm(monkeypatch)
    traj = sv.simulate_micro(fam, f0, T=2.0, samples=4)
    # constant along y: only the ky = 0 column of the grid (32 of its 1,024
    # modes) can hold a non-zero coefficient
    assert len(stacks) == 1 and stacks[0][0] <= 32
    # the seeded mode itself, against its single-mode propagator
    kappa = (2 * np.pi / 16.0, 0.0)
    u0 = np.fft.fftn(f0.values, axes=(0, 1))[1, 0]
    want = sv.mode_evolution_oracle(fam, kappa, 2.0, u0=u0)
    got = np.fft.fftn(traj.values[-1], axes=(0, 1))[1, 0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(u0).max())


def test_zero_field_stays_zero(walker, monkeypatch):
    f0 = sv.MicroField((16.0, 16.0), np.zeros((8, 8, 3)))
    stacks = _record_expm(monkeypatch)
    traj = sv.simulate_micro(walker, f0, T=2.0, samples=4)
    assert stacks == [(0, 3, 3)]
    assert not traj.values.any()


def test_stability_violation_raised():
    fam = sv.OperatorFamily({(0,): np.array([[0.5]])})
    values = sv.plane_wave((10.0,), (8,), 1)
    f0 = sv.MicroField((10.0,), values)
    # every mode grows as e^{t/2}; only kappa = +-2 pi / 10 is seeded
    with pytest.raises(StabilityViolation,
                       match=r"by t = 28, largest at wavevector kappa = \(0\.628319\)"):
        sv.simulate_micro(fam, f0, T=40.0, samples=50)


def test_non_finite_state_fails_the_growth_check(walker_setup):
    fam, _, split = walker_setup
    f0 = slow_seed((16.0, 16.0), (8, 8), split)
    # the propagator over a span of 5e297 overflows to NaN, which compares
    # False against any limit
    with pytest.raises(StabilityViolation, match=r"by t = 5e\+297"):
        sv.simulate_micro(fam, f0, T=1e300, samples=200)


def test_non_finite_state_names_a_non_finite_mode(walker_setup):
    fam, _, split = walker_setup
    f0 = slow_seed((16.0, 16.0), (8, 8), split)
    with pytest.raises(StabilityViolation, match="became non-finite by t = 5e") as err:
        sv.simulate_micro(fam, f0, T=1e300, samples=200)
    assert "grew beyond" not in str(err.value)
    named = re.search(r"kappa = \(([^)]*)\)", str(err.value)).group(1)
    # the named grid mode, advanced from its initial coefficient by the span
    freqs = 2 * np.pi * np.fft.fftfreq(8, d=2.0)
    idx = tuple(int(np.abs(freqs - float(k)).argmin()) for k in named.split(","))
    kappa = freqs[list(idx)]
    np.testing.assert_allclose(kappa, [float(k) for k in named.split(",")], rtol=1e-5)
    u0 = np.fft.fftn(f0.values, axes=(0, 1))[idx]
    assert not np.isfinite(sv.mode_evolution_oracle(fam, kappa, 5e297, u0=u0)).all()


def test_closure_residual_work_space_scales_with_the_live_modes(walker_setup):
    fam, model, split = walker_setup
    f0 = slow_seed((64.0, 64.0), (64, 64), split)
    for samples in (100, 400):
        traj = sv.simulate_micro(fam, f0, T=10.0, samples=samples)
        tracemalloc.start()  # counts from zero: the trajectory is not included
        try:
            sv.closure_residual(traj, model, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few copies of the live coefficients, far below the real samples
        assert peak < 4 * traj.coef.nbytes, peak
        assert 10 * peak < 8 * len(traj.times) * 64 * 64 * fam.dimU


def _all_modes(X, grid):
    """Coefficients over the whole grid as ``(samples, components, modes)``."""
    X = np.moveaxis(X, -1, 1)
    return X.reshape(X.shape[:2] + (-1,)), np.arange(int(np.prod(X.shape[2:])))


_PARSEVAL_GRIDS = [(16,), (1,), (2,), (8, 8), (8, 1), (1, 8), (2, 8), (8, 2),
                   (4, 2, 4), (4, 4, 2), (2, 1, 8)]


@pytest.mark.parametrize("grid", _PARSEVAL_GRIDS, ids=str)
def test_parseval_norm_matches_grid_sums(grid):
    """Parseval sums against grid sums of ``x^2``, to 1e-13.

    Once on ``fftn`` of random real fields, and once on random complex
    spectra, which are not Hermitian: the real part of their ``ifftn`` is
    the transform of their Hermitian part.
    """
    rng = np.random.default_rng(list(grid))
    axes = tuple(range(1, len(grid) + 1))
    x = rng.standard_normal((3,) + grid + (2,))
    X, modes = _all_modes(np.fft.fftn(x, axes=axes), grid)
    want = np.sqrt(np.mean(x**2, axis=axes + (len(grid) + 1,)))
    np.testing.assert_allclose(simulate._rms(X, modes, grid), want, rtol=1e-13)
    Z = rng.standard_normal((3,) + grid + (2,)) + 1j * rng.standard_normal((3,) + grid + (2,))
    z = np.fft.ifftn(Z, axes=axes).real
    Z, modes = _all_modes(Z, grid)
    want = np.sqrt(np.mean(z**2, axis=axes + (len(grid) + 1,)))
    np.testing.assert_allclose(simulate._rms(Z, modes, grid), want, rtol=1e-13)


def test_live_modes_hold_the_mirrors_irfftn_pairs(walker):
    """A spectrum seeded at mode (1, 1) of the 8x4 grid, with its mirror
    (7, 3) at zero: the run keeps the mirror live, so the Parseval norm sees
    the Hermitian part, whose transform is the real part of ``ifftn``."""
    grid = (8, 4)
    u = np.zeros((32, 3), dtype=complex)
    u[np.ravel_multi_index((1, 1), grid)] = [1.0, 0.5j, -0.2]
    traj = simulate._integrate(walker.ops, u, 2.0, 4, (16.0, 8.0), grid, "micro")
    assert np.ravel_multi_index((7, 3), grid) in traj.modes
    want = np.sqrt(np.mean(traj.values**2, axis=(1, 2, 3)))
    np.testing.assert_allclose(simulate._rms(traj.coef, traj.modes, grid), want, rtol=1e-13)


@pytest.mark.parametrize(
    "rows, cols, missing",
    [([1, 7], [0, 1], r"mode \(1, 0\) has no mirror \(7, 0\)"),
     ([2, 6], [1, 2], r"mode \(2, 1\) has no mirror \(6, 3\)"),
     ([7, 1], [0, 0], "sorted"), ([1, 9], [0, 0], "out of bounds")],
    ids=["mirror", "oblique", "unsorted", "out-of-range"],
)
def test_trajectory_refuses_modes_without_their_mirrors(rows, cols, missing):
    """The modes of a trajectory are sorted flat indices into its grid and
    hold the mirror ``-k`` of each mode ``k``; on the 8x4 grid, (1, 0)
    needs (7, 0), and (7, 1) is not it."""
    grid = (8, 4)
    modes = np.array(rows) * grid[1] + np.array(cols)
    with pytest.raises(ValueError, match=missing):
        sv.Trajectory(np.zeros(1), np.ones((1, 1, 2), dtype=complex), modes, grid, (8.0, 4.0))
    closed = np.ravel_multi_index(([1, 7], [0, 0]), grid)
    sv.Trajectory(np.zeros(1), np.ones((1, 1, 2), dtype=complex), closed, grid, (8.0, 4.0))


def test_negative_samples_are_refused(walker):
    f0 = sv.MicroField((16.0, 16.0), sv.plane_wave((16.0, 16.0), (8, 1), 3))
    with pytest.raises(ValueError, match="samples must be >= 0"):
        sv.simulate_micro(walker, f0, 1.0, samples=-1)


@pytest.mark.parametrize("grid", [(128, 1), (128, 128), (128, 1, 1)], ids=str)
def test_cli_seeds_keep_the_live_modes_of_the_half_spectrum(grid):
    """The field ``simulate`` and ``converge`` seed for M >= 2, a
    ``plane_wave`` of the default mode, is constant along the last axis.
    There ``fftn`` and ``rfftn`` have the same non-zero modes, so a run on
    the full grid steps no more modes than one on the ``rfftn`` half grid
    would.  A field that varies along the last axis, as every wave of an
    M = 1 family does, keeps about twice as many: a sampled sine along an
    axis of g points excites, at rounding level, all g modes of that axis,
    of which the ``rfftn`` half grid holds g / 2 + 1."""
    fam = random_gap_family(np.random.default_rng(len(grid)), dimU=3, M=len(grid), m=1,
                            max_order=2, centre="zero")
    lengths = tuple(8.0 * g for g in grid)
    values = sv.plane_wave(lengths, grid, 1) * np.array([0.3, -1.2, 0.8])
    traj = sv.simulate_micro(fam, sv.MicroField(lengths, values), 1.0, samples=2)
    half = np.fft.rfftn(values, axes=tuple(range(len(grid)))).any(axis=-1)
    assert traj.modes.size == np.count_nonzero(half)


def test_macro_from_a_trajectory_starts_from_its_real_sample(walker_setup):
    """A slow-amplitude trajectory as the start gives the run from the real
    field of its first sample.  The random field's 0 column goes
    non-Hermitian at the Nyquist mode under the walker's odd-order symbol."""
    fam, model, split = walker_setup
    Z0 = split.Z0.astype(float)
    rng = np.random.default_rng(4)
    micro = sv.simulate_micro(fam, sv.MicroField((16.0, 8.0), rng.standard_normal((8, 4, 3))),
                              T=1.0, samples=4)
    start = sv.Trajectory(micro.times[2:3], Z0.T @ micro.coef[2:3], micro.modes, micro.grid,
                          micro.lengths, "macro")
    got = sv.simulate_macro(model, start, T=2.0, samples=4).values
    real = sv.MacroField(micro.lengths, micro.values[2] @ Z0)
    want = sv.simulate_macro(model, real, T=2.0, samples=4).values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_diagnostics_never_form_the_real_trajectory(walker_setup, tmp_path, monkeypatch):
    """The CLI's 128x128 run: a trajectory of under 2 MB, and no diagnostic
    or the frame file reads ``Trajectory.values``."""
    fam, model, split = walker_setup
    f0 = slow_seed((128.0, 128.0), (128, 128), split)
    traj = sv.simulate_micro(fam, f0, T=20.0, samples=200)
    arrays = (traj.times, traj.coef, traj.modes, traj.head)
    assert sum(a.nbytes for a in arrays) < 2_000_000

    def refuse(self):
        raise AssertionError("formed the real-space trajectory")

    monkeypatch.setattr(sv.Trajectory, "values", property(refuse))
    res = sv.emergence_error(fam, model, split, f0, T=20.0, samples=200)
    sv.closure_residual(res.micro, model, split)
    sv.write_frames(tmp_path / "frames.bin", res.micro)
    assert (tmp_path / "frames.bin").stat().st_size > 201 * 128 * 128 * 3 * 8


def test_closure_residual_small_for_slow_data(walker_setup):
    fam, model, split = walker_setup
    f0 = slow_seed((32.0, 32.0), (32, 1), split)
    traj = sv.simulate_micro(fam, f0, T=26.0, samples=200)
    closure = sv.closure_residual(traj, model, split)
    assert closure.ratio <= 5e-2
    assert closure.times.shape == closure.residual_rms.shape
    # early samples carry the fast transient, the settled tail does not
    series = closure.residual_rms / closure.rate_rms
    assert series[-1] < series[0]


def test_macro_filter_truncates_highest_third(walker_setup):
    fam, model2, split = walker_setup
    model3, _ = sv.construct_reduction(fam, N=3, split=split)
    profile = sv.plane_wave((64.0, 64.0), (32, 1), 1, mode=(12, 0))
    f0 = sv.MacroField((64.0, 64.0), profile)
    # mode 12 of 32 sits in the top third: odd-order runs drop it
    filtered = sv.simulate_macro(model3, f0, T=1.0, samples=4)
    assert np.abs(filtered.values).max() < 1e-12
    kept = sv.simulate_macro(model3, f0, T=1.0, samples=4, spectral_filter=False)
    assert np.abs(kept.values[0]).max() > 0.9
    default_even = sv.simulate_macro(model2, f0, T=1.0, samples=4)
    assert np.abs(default_even.values[0]).max() > 0.9


def test_symbol_matrix_sum(walker):
    kappa = (0.4, -0.3)
    S = sv.symbol_matrix(walker, kappa)
    direct = (
        walker.ops[(0, 0)]
        + 1j * kappa[0] * walker.ops[(1, 0)]
        + 1j * kappa[1] * walker.ops[(0, 1)]
    )
    np.testing.assert_allclose(S, direct, atol=1e-14)


@pytest.mark.parametrize("kappa", [(0.4,), (0.4, -0.3, 0.2)], ids=["short", "long"])
def test_symbol_wavevector_length_checked(walker_setup, kappa):
    walker, model, _ = walker_setup
    for call in (lambda: sv.symbol_matrix(walker, kappa),
                 lambda: sv.symbol_matrix(model, kappa),
                 lambda: sv.mode_evolution_oracle(walker, kappa, 1.0)):
        with pytest.raises(ValueError, match="needs 2 components"):
            call()


def test_model_symbol_matches_simulation_table(walker_setup):
    from conftest import wavevectors
    from slowvary.simulate import _symbol_table

    _, model, _ = walker_setup
    kvecs = wavevectors((16.0, 8.0), (4, 2))
    table = _symbol_table(model.A, kvecs, model.m)
    for idx in np.ndindex(4, 2):
        kappa = tuple(kv[idx] for kv in kvecs)
        assert sv.symbol_matrix(model, kappa).tobytes() == table[idx].tobytes()


def test_mode_oracle_propagator_shape(walker):
    P = sv.mode_evolution_oracle(walker, (0.1, 0.0), 2.0)
    assert P.shape == (3, 3)
    u = sv.mode_evolution_oracle(walker, (0.1, 0.0), 2.0, u0=np.ones(3))
    np.testing.assert_allclose(u, P @ np.ones(3), atol=1e-14)


def test_frames_roundtrip(tmp_path, walker):
    values = sv.plane_wave((16.0, 16.0), (8, 2), 3)
    f0 = sv.MicroField((16.0, 16.0), values)
    traj = sv.simulate_micro(walker, f0, T=2.0, samples=5)
    path = tmp_path / "frames.bin"
    sv.write_frames(path, traj)
    with open(path, "rb") as fh:
        assert fh.read(8) == b"SVFRAME1"
    back = sv.read_frames(path)
    assert back.kind == "micro"
    assert back.lengths == traj.lengths
    np.testing.assert_allclose(back.times, traj.times, atol=0)
    np.testing.assert_allclose(back.values, traj.values, atol=0)


@pytest.mark.parametrize("cut", ["header", "frame", "trailing"])
def test_read_frames_refuses_a_damaged_file(tmp_path, walker, cut):
    field0 = sv.MicroField((8.0, 8.0), sv.plane_wave((8.0, 8.0), (8, 1), 3))
    traj = sv.simulate_micro(walker, field0, T=1.0, samples=10)
    path = tmp_path / "frames.bin"
    sv.write_frames(path, traj)
    data = path.read_bytes()
    header, frame = 8 + 12 + 12 * 2 + 16, 8 + 8 * 3 * 8
    assert len(data) == header + 11 * frame
    if cut == "header":
        for n in (4, 16, header - 1):
            path.write_bytes(data[:n])
            with pytest.raises(ValueError, match="cut short" if n > 8 else "not a frame"):
                sv.read_frames(path)
        return
    path.write_bytes(data[:-frame // 2] if cut == "frame" else data + b"\0")
    found = "10 and 100 bytes more" if cut == "frame" else "11 and 1 bytes more"
    with pytest.raises(ValueError, match=f"header says 11 frames, found {found}"):
        sv.read_frames(path)


def test_plane_wave_validates_its_arguments():
    sv.plane_wave((8.0, 8.0), (8, 4), 2, component=1, mode=(1, 2))
    for kwargs in ({"mode": (1,)}, {"mode": (1, 0, 1)}, {"component": -1},
                   {"component": 2}, {"lengths": (8.0,)}, {"lengths": (8.0, 8.0, 8.0)}):
        args = {"lengths": (8.0, 8.0), "grid": (8, 4), "ncomp": 2} | kwargs
        with pytest.raises(ValueError):
            sv.plane_wave(**args)


def test_closure_order_study_slopes(walker_setup):
    fam, model, split = walker_setup
    study = sv.closure_order_study(
        fam, model, split, [32.0, 64.0, 128.0], grid_points=32
    )
    assert not study.degenerate
    assert study.order == pytest.approx(3.0, abs=0.25)
    assert np.all(np.diff(study.plateaus) < 0)


def test_closure_order_study_needs_two_wavelengths(walker_setup):
    fam, model, split = walker_setup
    for wavelengths in ([64.0], [64.0, 64.0]):
        with pytest.raises(ValueError, match="two distinct"):
            sv.closure_order_study(fam, model, split, wavelengths)


def test_closure_order_study_degenerate(walker_setup):
    fam, _, split = walker_setup
    # closure coefficients match the dispersion exactly to high order, so
    # the plateau collapses to rounding noise and no slope is defined
    model5, _ = sv.construct_reduction(fam, N=5, split=split)
    study = sv.closure_order_study(
        fam, model5, split, [256.0, 512.0], grid_points=8, window=4.0,
        samples=40,
    )
    assert study.degenerate
    assert study.order is None
