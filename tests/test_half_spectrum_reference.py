"""Live-mode propagation against the full-spectrum integrator.

``simulate_micro`` and ``simulate_macro`` once propagated every Fourier
mode of the full ``fftn`` grid and kept the real part of each ``ifftn``.
That code is kept below as the reference.  It takes its propagators from
``scipy.linalg.expm``, as the library does, over every mode, and steps
component-major, ``dim^2`` multiply-adds over the modes.  The library
steps only the live modes, those the initial field excites and their
mirrors, and transforms only the axes they span; a mode that starts at
zero stays zero in the reference too, so every micro trajectory, and an
unfiltered macro one, must equal the reference bitwise.  The cases are
chosen so that every kind of mode occurs: M = 1, 2, 3; grids with a
length-1 and a length-2 axis; zero, Jordan and rotation centres whose
odd-order ``L_k`` make a Nyquist mode and its mirror evolve differently;
and ``simulate_macro`` with and without its filter.  The filtered macro
cases are held to 1e-12 of the largest value of the reference
trajectory, a bound fixed before measuring: the library multiplies the
spectrum by the mask, while the reference filters through a real-space
``ifftn``/``fftn`` round trip, which rounds differently.

``write_frames`` transforms only the axes the live modes span and
broadcasts along the others, scaling by a power of two; its bytes must
equal those of ``ifftn`` on the whole grid, for M = 1, 2, 3, waves
along every axis, oblique waves, constant, dense random and filtered
macro fields.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import pytest
import scipy.linalg as sla

import slowvary as sv
from slowvary.errors import StabilityViolation
from slowvary.simulate import (
    _GROWTH_LIMIT,
    _filter_mask,
    _symbol_table,
)

from conftest import random_gap_family, wavevectors

# the reference's trajectory: real-space samples, held whole
Frames = namedtuple("Frames", "times values")


def _integrate_full(S, values0, T, samples, grid, lengths):
    """Advance every Fourier mode exactly: ``u(t + span) = expm(S span) u(t)``."""
    if T < 0:
        raise ValueError("integration span must be >= 0")
    dim = values0.shape[-1]
    axes = tuple(range(len(grid)))
    u = np.fft.fftn(values0, axes=axes).reshape(-1, dim).T.copy()
    span = T / samples if samples else 0.0
    P = np.ascontiguousarray(sla.expm(S.reshape(-1, dim, dim) * span).transpose(1, 2, 0))
    out_t = span * np.arange(samples + 1)
    out_v = np.empty((samples + 1,) + grid + (dim,))
    out_v[0] = values0
    # amplitude: largest real or imaginary part, cheaper than |u| per sample
    amp0 = max(float(np.abs(u.view(float)).max()), 1e-300)
    for s in range(1, samples + 1):
        v = P[:, 0] * u[0]
        for j in range(1, dim):
            v += P[:, j] * u[j]
        u = v
        # written so that a NaN or infinite amplitude fails the check too
        if not np.abs(u.view(float)).max() <= _GROWTH_LIMIT * amp0:
            top = np.abs(u).max(axis=0).argmax()
            kappa = ", ".join(f"{kv.flat[top]:.6g}" for kv in wavevectors(lengths, grid))
            raise StabilityViolation(
                f"solution grew beyond {_GROWTH_LIMIT:.0e} times its initial "
                f"amplitude by t = {out_t[s]:.6g}, largest at wavevector "
                f"kappa = ({kappa}); check the model"
            )
        out_v[s] = np.real(np.fft.ifftn(u.T.reshape(S.shape[:-1]), axes=axes))
    return Frames(out_t, out_v)


def _micro_full(family, field0, T, samples):
    fam = family.to_float()
    kvecs = wavevectors(field0.lengths, field0.grid)
    S = _symbol_table(fam.ops, kvecs, fam.dimU)
    return _integrate_full(S, field0.values, float(T), samples, field0.grid, field0.lengths)


def _filter_full(values0, grid):
    """``simulate_macro``'s odd-order filter as a full ``fftn``/``ifftn`` round trip."""
    mask = _filter_mask(grid)
    vhat = np.fft.fftn(values0, axes=tuple(range(len(grid))))
    vhat *= mask[..., None]
    return np.real(np.fft.ifftn(vhat, axes=tuple(range(len(grid)))))


def _macro_full(model, field0, T, samples, spectral_filter=None):
    if spectral_filter is None:
        spectral_filter = bool(model.N % 2)
    kvecs = wavevectors(field0.lengths, field0.grid)
    S = _symbol_table(model.A, kvecs, model.m)
    values0 = field0.values
    if spectral_filter:
        S = S * _filter_mask(field0.grid)[..., None, None]
        values0 = _filter_full(values0, field0.grid)
    return _integrate_full(S, values0, float(T), samples, field0.grid, field0.lengths)


RTOL = 1e-12

_FAMILIES = {
    "zero-m1": (4, 1, "zero"),
    "jordan-m2": (5, 2, "jordan"),
    "rotation-m2": (5, 2, "rotation"),
}

_GRIDS = {
    1: [(16,), (2,), (1,)],
    2: [(8, 8), (4, 16), (8, 1), (1, 8), (2, 8), (8, 2)],
    3: [(4, 2, 4), (4, 4, 2), (2, 1, 8)],
}


def _family(name, M):
    """Seeded family with odd-order ``L_k`` up to order 3."""
    dimU, m, centre = _FAMILIES[name]
    rng = np.random.default_rng([M, dimU, m, len(centre)])
    return random_gap_family(rng, dimU=dimU, M=M, m=m, max_order=3, centre=centre)


def _same(got, want):
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()


def _close(got, want):
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.shape == want.values.shape
    scale = np.abs(want.values).max()
    assert np.abs(got.values - want.values).max() <= RTOL * scale


def _lengths(grid):
    # long enough boxes keep the third-order symbols of the random families
    # from growing past the growth check over the run
    return tuple(5.0 * g for g in grid)


@pytest.mark.parametrize("name", sorted(_FAMILIES))
@pytest.mark.parametrize(
    "grid", [g for M in sorted(_GRIDS) for g in _GRIDS[M]], ids=str
)
def test_micro_matches_full_spectrum(name, grid):
    fam = _family(name, len(grid))
    rng = np.random.default_rng(list(grid))
    field0 = sv.MicroField(_lengths(grid), rng.standard_normal(grid + (fam.dimU,)))
    want = _micro_full(fam, field0, 3.0, 6)
    got = sv.simulate_micro(fam, field0, 3.0, samples=6)
    _same(got, want)


@pytest.mark.parametrize("grid", [(8, 8), (2, 8), (8, 1)], ids=str)
def test_walker_micro_matches_full_spectrum(walker, grid):
    rng = np.random.default_rng(3)
    field0 = sv.MicroField((16.0, 12.0), rng.standard_normal(grid + (3,)))
    _same(sv.simulate_micro(walker, field0, 4.0, samples=8),
          _micro_full(walker, field0, 4.0, 8))


@pytest.mark.parametrize("spectral_filter", [None, True, False])
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("name", sorted(_FAMILIES))
@pytest.mark.parametrize("grid", [(8, 8), (2, 8), (8, 1)], ids=str)
def test_macro_matches_full_spectrum(name, N, spectral_filter, grid):
    fam = _family(name, 2)
    split = sv.spectral_split(fam, N)
    model, _ = sv.construct_reduction(fam, N, split=split)
    model = model.to_float()
    rng = np.random.default_rng([N, len(name)])
    field0 = sv.MacroField(_lengths(grid), rng.standard_normal(grid + (model.m,)))
    want = _macro_full(model, field0, 3.0, 6, spectral_filter)
    got = sv.simulate_macro(model, field0, 3.0, samples=6, spectral_filter=spectral_filter)
    if spectral_filter or (spectral_filter is None and N % 2):
        _close(got, want)
    else:
        _same(got, want)


@pytest.mark.parametrize(
    "grid", [g for M in sorted(_GRIDS) for g in _GRIDS[M]] + [(64, 32)], ids=str
)
def test_macro_filter_matches_full_spectrum_filter(grid):
    """The filtered initial field, the first frame, against the round trip."""
    fam = _family("rotation-m2", len(grid))
    model, _ = sv.construct_reduction(fam, 3, split=sv.spectral_split(fam, 3))
    rng = np.random.default_rng(list(grid))
    values0 = rng.standard_normal(grid + (model.m,))
    field0 = sv.MacroField(_lengths(grid), values0)
    got = sv.simulate_macro(model.to_float(), field0, 0.0, samples=1).values[0]
    want = _filter_full(values0, grid)
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


@pytest.mark.parametrize(
    "grid, mode",
    [((16, 16), (1, 0)), ((8, 8), (4, 0)), ((2, 8), (1, 0)), ((32, 1), (1, 0))],
    ids=str,
)
def test_plane_wave_constant_along_last_axis_is_bitwise(walker, grid, mode):
    lengths = _lengths(grid)
    profile = sv.plane_wave(lengths, grid, 1, mode=mode)
    rng = np.random.default_rng(5)
    field0 = sv.MicroField(lengths, profile * rng.standard_normal(walker.dimU))
    want = _micro_full(walker, field0, 2.0, 8)
    got = sv.simulate_micro(walker, field0, 2.0, samples=8)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


def _frame_file_body(times, values):
    return b"".join(np.float64(t).astype("<f8").tobytes()
                    + np.ascontiguousarray(v, "<f8").tobytes() for t, v in zip(times, values))


@pytest.mark.parametrize("frames_per_block", [1, 3, None])
@pytest.mark.parametrize(
    "grid, mode", [((16, 16), (1, 0)), ((8, 8), (4, 0)), ((32, 1), (1, 0))], ids=str
)
def test_streamed_frames_equal_full_spectrum_frames(walker, grid, mode, frames_per_block,
                                                    tmp_path, monkeypatch):
    """``frames.bin`` as ``write_frames`` streams it, block by block, holds
    bitwise the frames of the full-spectrum reference (``None`` keeps the
    module's own block budget)."""
    from slowvary import simulate

    if frames_per_block is not None:
        # the wave is constant along the last axis, which is transformed at length 1
        sub = (grid[0], 1)
        monkeypatch.setattr(simulate, "_BLOCK_BYTES",
                            frames_per_block * 8 * walker.dimU * int(np.prod(sub)))
        assert simulate._block_length(sub, walker.dimU) == frames_per_block
    lengths = _lengths(grid)
    profile = sv.plane_wave(lengths, grid, 1, mode=mode)
    rng = np.random.default_rng(5)
    field0 = sv.MicroField(lengths, profile * rng.standard_normal(walker.dimU))
    want = _micro_full(walker, field0, 2.0, 8)
    path = tmp_path / "frames.bin"
    sv.write_frames(path, sv.simulate_micro(walker, field0, 2.0, samples=8))
    body = _frame_file_body(want.times, want.values)
    data = path.read_bytes()
    assert len(data) == 8 + 12 + 12 * len(grid) + 16 + len(body)
    assert data.endswith(body)


def _frames_full(traj):
    """Real-space samples as ``ifftn`` forms them on the whole grid."""
    axes = tuple(range(2, len(traj.grid) + 2))
    full = np.zeros(traj.coef.shape[:2] + (int(np.prod(traj.grid)),), dtype=complex)
    full[..., traj.modes] = traj.coef
    values = np.fft.ifftn(full.reshape(full.shape[:2] + traj.grid), axes=axes).real
    values = np.moveaxis(values, 1, -1)
    if traj.head is not None:
        values[: len(traj.head)] = traj.head
    return values


def _seeded(grid, dim, mode):
    """A plane wave of ``mode`` in a random direction of the state space,
    or a ``"constant"`` or dense ``"random"`` field."""
    rng = np.random.default_rng(list(grid))
    lengths = _lengths(grid)
    if mode == "random":
        return lengths, rng.standard_normal(grid + (dim,))
    if mode == "constant":
        return lengths, np.ones(grid + (1,)) * rng.standard_normal(dim)
    return lengths, sv.plane_wave(lengths, grid, 1, mode=mode) * rng.standard_normal(dim)


_PRUNED = [
    ((16,), (1,)), ((16,), "constant"), ((16,), "random"), ((1,), "random"),
    ((16, 16), (1, 0)), ((16, 16), (0, 1)), ((16, 8), (1, 1)), ((8, 8), (2, 3)),
    ((8, 8), "constant"), ((8, 8), "random"), ((32, 1), (1, 0)), ((1, 32), (0, 1)),
    ((8, 4, 16), (1, 0, 0)), ((8, 4, 16), (0, 1, 0)), ((8, 4, 16), (0, 0, 1)),
    ((8, 4, 16), (1, 1, 0)), ((8, 4, 16), (0, 1, 1)), ((8, 4, 16), "constant"),
    ((4, 2, 4), "random"), ((4, 1, 8), (1, 0, 2)),
]


@pytest.mark.parametrize("grid, mode", _PRUNED, ids=str)
def test_pruned_frames_equal_full_grid_transform(grid, mode, tmp_path):
    """``write_frames`` transforms only the axes the live modes span, and
    broadcasts along the others; its bytes are those of ``ifftn`` on the
    whole grid."""
    fam = _family("rotation-m2", len(grid))
    field0 = sv.MicroField(*_seeded(grid, fam.dimU, mode))
    traj = sv.simulate_micro(fam, field0, 3.0, samples=6)
    path = tmp_path / "frames.bin"
    sv.write_frames(path, traj)
    assert path.read_bytes().endswith(_frame_file_body(traj.times, _frames_full(traj)))


@pytest.mark.parametrize("mode", [(1, 0), (0, 2), (1, 1)], ids=str)
def test_filtered_macro_frames_equal_full_grid_transform(walker, mode, tmp_path):
    """An odd-N macro run filters its field, so every frame is transformed."""
    split = sv.spectral_split(walker, 3)
    model, _ = sv.construct_reduction(walker, 3, split=split)
    lengths, values = _seeded((32, 32), model.m, mode)
    traj = sv.simulate_macro(model.to_float(), sv.MacroField(lengths, values), 5.0,
                             samples=30)
    assert traj.head is None
    path = tmp_path / "frames.bin"
    sv.write_frames(path, traj)
    assert path.read_bytes().endswith(_frame_file_body(traj.times, _frames_full(traj)))


@pytest.mark.parametrize("mode, sub", [((1, 0), (128, 1)), ((0, 1), (1, 128))], ids=str)
def test_axis_aligned_wave_is_transformed_on_one_line(walker, mode, sub, tmp_path,
                                                      monkeypatch):
    grids, ifftn = [], np.fft.ifftn

    def spy(a, s=None, axes=None, **kwargs):
        grids.append(tuple(a.shape[i] for i in axes))
        return ifftn(a, s=s, axes=axes, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", spy)
    profile = sv.plane_wave((128.0, 128.0), (128, 128), 1, mode=mode)
    field0 = sv.MicroField((128.0, 128.0), profile * np.array([0.3, -1.2, 0.8]))
    sv.write_frames(tmp_path / "frames.bin",
                    sv.simulate_micro(walker, field0, 20.0, samples=200))
    assert grids and set(grids) == {sub}


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_growth_message_names_the_mode_the_full_spectrum_names(c):
    """Only the modes (2, +-1) of a 4x4 grid are seeded; one grows.

    ``S = -c kappa_x kappa_y``: mode (2, 1) grows for c > 0 and its mirror
    (2, 3) for c < 0.  Both are live, and the message must name the one
    that grows, at its own wavevector.
    """
    fam = sv.OperatorFamily({(0, 0): np.zeros((1, 1)), (1, 1): np.array([[c]])})
    x = np.array([1.0, -1.0, 1.0, -1.0])
    y = np.array([1.0, 0.0, -1.0, 0.0])
    field0 = sv.MicroField((4.0, 8.0), np.outer(x, y)[..., None])
    with pytest.raises(StabilityViolation) as want:
        _micro_full(fam, field0, 20.0, 20)
    with pytest.raises(StabilityViolation) as got:
        sv.simulate_micro(fam, field0, 20.0, samples=20)
    assert str(got.value) == str(want.value)
    kappa_y = "0.785398" if c > 0 else "-0.785398"
    assert f"kappa = (-3.14159, {kappa_y})" in str(got.value)
