"""The spectral closure, emergence and decay diagnostics against real-space ones.

``closure_residual``, ``emergence_error`` and ``decay_rate_fit`` once
projected the real-space micro trajectory sample by sample and took their
RMS norms over the grid; ``closure_residual`` took its spatial
derivatives with full complex ``fftn``/``ifftn``.  That code is kept
below as the reference, unchanged but for its imports and the one-line
``project`` it called.  The diagnostics now work on the trajectory's live
``fftn`` coefficients: they project each mode with ``Z0.T``, start the
macro run from the projected spectrum, apply the symbol mode by mode and
take their norms by Parseval.  Bounds, fixed before
measuring: the emergence error series (a relative error itself) to 1e-12
absolute; the closure residual and rate series to 1e-12 of the largest
rate, and its ratio to that over the smallest tail rate; the macro
trajectory to 1e-12 of its largest value; the fast-part norms of a decay
fit to 1e-12 relative and the fitted rate to 1e-9 relative.  Times stay
bitwise.  The byte budget of a block is patched so that the real-space
samples the comparison reads are formed over several blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

import slowvary as sv
from slowvary import simulate
from slowvary.simulate import (
    ClosureResult,
    EmergenceResult,
    MacroField,
    _symbol_table,
    simulate_macro,
    simulate_micro,
)

from conftest import random_gap_family, wavevectors


def project(split, values):
    """Slow amplitudes ``Z0.T u`` of full-state values, as the library's
    ``project`` gave them."""
    return values @ split.Z0.astype(float)


def _emergence_reference(family, model, split, field0, T, t_skip, samples):
    micro = simulate_micro(family, field0, T, samples=samples)
    isk = int(np.argmin(np.abs(micro.times - t_skip)))
    if isk >= samples:
        raise ValueError("t_skip leaves no observation window")
    t_skip = float(micro.times[isk])
    U_mic = project(split, micro.values)
    macro0 = MacroField(field0.lengths, U_mic[isk])
    macro = simulate_macro(
        model,
        macro0,
        float(micro.times[-1] - t_skip),
        samples=samples - isk,
    )
    space_axes = tuple(range(1, U_mic.ndim))
    diff = np.sqrt(np.mean((U_mic[isk:] - macro.values) ** 2, axis=space_axes))
    ref = np.sqrt(np.mean(macro.values**2, axis=space_axes))
    floor = 1e-12 * max(float(ref[0]), 1e-300)
    err = diff / np.maximum(ref, floor)
    return EmergenceResult(micro.times[isk:], err, t_skip, micro, macro)


def _closure_reference(micro, model, split):
    U = project(split, micro.values)
    nt = U.shape[0]
    if nt < 3:
        raise ValueError("need at least three samples for a centred difference")
    dt = float(micro.times[1] - micro.times[0])
    kvecs = wavevectors(micro.lengths, micro.grid)
    S = _symbol_table(model.A, kvecs, model.m)
    space = tuple(range(1, U.ndim - 1))
    Uhat = np.fft.fftn(U, axes=space)
    rhs_hat = np.einsum("...ij,t...j->t...i", S, Uhat)
    rhs = np.real(np.fft.ifftn(rhs_hat, axes=space))
    dU = (U[2:] - U[:-2]) / (2 * dt)
    resid = dU - rhs[1:-1]
    axes = tuple(range(1, resid.ndim))
    res_rms = np.sqrt(np.mean(resid**2, axis=axes))
    rate_rms = np.sqrt(np.mean(dU**2, axis=axes))
    tail = slice(res_rms.size // 2, None)
    ratio = float(
        np.median(res_rms[tail] / np.maximum(rate_rms[tail], 1e-300))
    )
    return ClosureResult(micro.times[1:-1], res_rms, rate_rms, ratio)


def _check_closure(got, micro, model, split):
    """Against the full-spectrum real-space reference, to 1e-12 of the largest rate."""
    full = _closure_reference(micro, model, split)
    _same(got.times, full.times)
    scale = full.rate_rms.max()
    assert np.abs(got.rate_rms - full.rate_rms).max() <= RTOL * scale
    assert np.abs(got.residual_rms - full.residual_rms).max() <= RTOL * scale
    tail = full.rate_rms[full.rate_rms.size // 2 :]
    assert abs(got.ratio - full.ratio) <= RTOL * scale / tail.min()


def _check_emergence(got, want):
    assert got.times.size == want.times.size and got.t_skip == want.t_skip
    _same(got.times, want.times)
    assert np.abs(got.error - want.error).max() <= RTOL
    assert abs(got.plateau() - want.plateau()) <= RTOL
    scale = np.abs(want.macro.values).max()
    assert np.abs(got.macro.values - want.macro.values).max() <= RTOL * scale


RTOL = 1e-12


def _same(a, b):
    """Bitwise equality, signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


BLOCK = 5  # samples per block once the byte budget is patched


def _problem(case):
    """Float family, order-N model, split and a grid of each case."""
    if case == "walker":
        fam, N, grid = sv.random_walker_modal(), 2, (8, 4)
    elif case == "walker-odd-N":
        fam, N, grid = sv.random_walker_modal(), 3, (8, 4)
    else:
        seed, centre, m, M = case
        rng = np.random.default_rng(seed)
        fam = random_gap_family(rng, dimU=m + 3, M=M, m=m, centre=centre)
        N, grid = 2, {1: (16,), 2: (8, 4), 3: (4, 4, 2)}[M]
    split = sv.spectral_split(fam, N)
    model, _ = sv.construct_reduction(fam, N, split=split)
    return fam.to_float(), model.to_float(), split, grid


_CASES = ["walker", "walker-odd-N", (7100, "rotation", 2, 2), (7101, "zero", 1, 1),
          (7102, "zero", 1, 3)]


def _ids(case):
    return case if isinstance(case, str) else f"{case[1]}-m{case[2]}-M{case[3]}"


@pytest.mark.parametrize("samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 2])
@pytest.mark.parametrize("case", _CASES, ids=_ids)
def test_blocked_diagnostics_match_reference(case, samples, monkeypatch):
    fam, model, split, grid = _problem(case)
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", BLOCK * 8 * model.m * int(np.prod(grid)))
    assert simulate._block_length(grid, model.m) == BLOCK
    rng = np.random.default_rng(samples)
    lengths = (64.0,) * len(grid)
    field0 = sv.MicroField(lengths, rng.standard_normal(grid + (fam.dimU,)))
    # t_skip one span in: ``samples`` observed samples and ``samples - 1``
    # interior ones for the closure; a span off the powers of two keeps
    # rounding in the centred difference visible
    T = 0.3 * samples
    want = _emergence_reference(fam, model, split, field0, T, 0.3, samples)
    got = sv.emergence_error(fam, model, split, field0, T, t_skip=0.3, samples=samples)
    assert got.times.size == samples
    _check_emergence(got, want)
    got_c = sv.closure_residual(got.micro, model, split)
    assert got_c.times.size == samples - 1
    _check_closure(got_c, want.micro, model, split)


def test_default_block_length_matches_reference():
    """At the module's own budget a 64x64 walker run spans several blocks.

    The wave is oblique, so that every axis is transformed at full length.
    """
    fam, model, split, _ = _problem("walker")
    grid = (64, 64)
    assert 2 * simulate._block_length(grid, model.m) < 41  # observed samples
    profile = sv.plane_wave((64.0, 64.0), grid, split.m, mode=(1, 1))
    field0 = sv.MicroField((64.0, 64.0), np.einsum("...m,dm->...d", profile, split.V0))
    want = _emergence_reference(fam, model, split, field0, 24.0, 12.0, 80)
    got = sv.emergence_error(fam, model, split, field0, 24.0, t_skip=12.0, samples=80)
    _check_emergence(got, want)
    _check_closure(sv.closure_residual(got.micro, model, split), want.micro, model, split)


def _decay_norms_reference(micro, split):
    V0 = split.V0.astype(float)
    fast = micro.values - project(split, micro.values) @ V0.T
    return np.sqrt(np.mean(fast**2, axis=tuple(range(1, fast.ndim))))


@pytest.mark.parametrize("grid", [(16,), (8, 4), (16, 1), (4, 4, 2)], ids=str)
def test_decay_fit_matches_real_space_norms(grid):
    """Random fast-only data on the walker or a random M = 1, 3 family.  The
    long box keeps the slow modes' own fast parts small, so the fast part
    decays by more than three e-foldings at rate 1 or more."""
    if len(grid) == 2:
        fam = sv.random_walker_modal().to_float()
    else:
        rng = np.random.default_rng(len(grid))
        fam = random_gap_family(rng, dimU=4, M=len(grid), m=1, centre="zero").to_float()
    split = sv.spectral_split(fam, 2)
    V0, Z0 = split.V0.astype(float), split.Z0.astype(float)
    rng = np.random.default_rng(list(grid))
    values = rng.standard_normal(grid + (fam.dimU,))
    lengths = tuple(32.0 * g for g in grid)
    field0 = sv.MicroField(lengths, values - values @ Z0 @ V0.T)
    micro = simulate_micro(fam, field0, 8.0, samples=40)
    fit = sv.decay_rate_fit(micro, split)
    norms = _decay_norms_reference(micro, split)
    valid = norms > 1e-13 * norms[0]
    _same(fit.times, micro.times[valid])
    assert np.abs(fit.norms / norms[valid] - 1).max() <= RTOL
    t, y = micro.times[valid], np.log(norms[valid])
    assert fit.gamma == pytest.approx(-np.polyfit(t, y, 1)[0], rel=1e-9)


@pytest.mark.parametrize("block", [2, 5, 17, None])
@pytest.mark.parametrize("case", ["walker", (7102, "zero", 1, 3)], ids=_ids)
def test_blocked_frames_match_one_sample_blocks(case, block, monkeypatch):
    """Frames transformed a block at a time equal frames transformed one by one.

    ``None`` keeps the module's own budget, which holds every sample here.
    """
    fam, model, split, grid = _problem(case)
    rng = np.random.default_rng(len(grid))
    field0 = sv.MicroField((64.0,) * len(grid), rng.standard_normal(grid + (fam.dimU,)))
    frame = 8 * fam.dimU * int(np.prod(grid))
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", frame)
    want = sv.simulate_micro(fam, field0, 5.1, samples=17)
    if block is None:
        monkeypatch.undo()
        assert simulate._block_length(grid, fam.dimU) > 17
    else:
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", block * frame)
    got = sv.simulate_micro(fam, field0, 5.1, samples=17)
    _same(got.values, want.values)
