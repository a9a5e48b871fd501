"""The blocked closure and emergence diagnostics against all-at-once ones.

``closure_residual`` and ``emergence_error`` once projected every sample of
the micro trajectory and transformed them in one go.  That code is kept
below, unchanged but for its imports, as the reference: the blocked code
must give bitwise-equal times, error series, plateau and rate series,
whatever the number of samples is relative to the block length.  The closure reference transforms with full complex
``fftn``/``ifftn``, where ``closure_residual`` now uses the half spectrum
of ``rfftn``/``irfftn``; their residual series must agree to 1e-12 of the
largest rate, a bound fixed before measuring.  A second closure
reference, all at once on the half spectrum, must match the blocked code
bitwise, so that the blocking itself is still held to the bit.
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
    _half_spectrum,
    _symbol_table,
    _wavevectors,
    project,
    simulate_macro,
    simulate_micro,
)

from conftest import random_gap_family


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
    kvecs = _wavevectors(micro.lengths, micro.grid)
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


def _closure_half_reference(micro, model, split):
    """All samples at once, on the half spectrum as ``closure_residual`` is."""
    U = project(split, micro.values)
    dt = float(micro.times[1] - micro.times[0])
    grid = micro.grid
    shape, _, kvecs, twin = _half_spectrum(micro.lengths, grid)
    n = int(np.prod(shape))
    S = _symbol_table(model.A, kvecs, model.m)
    S[twin] = (S[twin] + S[n:]) / 2
    S = S[:n].reshape(shape + (model.m, model.m))
    space = tuple(range(1, U.ndim - 1))
    rhs_hat = np.einsum("...ij,t...j->t...i", S, np.fft.rfftn(U, axes=space))
    rhs = np.fft.irfftn(rhs_hat, s=grid, axes=space)
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
    """Bitwise against the half-spectrum reference, to 1e-12 against the full one."""
    want = _closure_half_reference(micro, model, split)
    _same(got.times, want.times)
    _same(got.residual_rms, want.residual_rms)
    _same(got.rate_rms, want.rate_rms)
    _same(got.ratio, want.ratio)
    full = _closure_reference(micro, model, split)
    _same(got.times, full.times)
    _same(got.rate_rms, full.rate_rms)
    scale = full.rate_rms.max()
    assert np.abs(got.residual_rms - full.residual_rms).max() <= RTOL * scale
    tail = full.rate_rms[full.rate_rms.size // 2 :]
    assert abs(got.ratio - full.ratio) <= RTOL * scale / tail.min()


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
    assert got.times.size == samples and got.t_skip == want.t_skip
    _same(got.times, want.times)
    _same(got.error, want.error)
    _same(got.plateau(), want.plateau())
    _same(got.macro.values, want.macro.values)
    got_c = sv.closure_residual(got.micro, model, split)
    assert got_c.times.size == samples - 1
    _check_closure(got_c, want.micro, model, split)


def test_default_block_length_matches_reference():
    """At the module's own budget a 64x64 walker run spans several blocks."""
    fam, model, split, _ = _problem("walker")
    grid = (64, 64)
    assert 2 * simulate._block_length(grid, model.m) < 41  # observed samples
    profile = sv.plane_wave((64.0, 64.0), grid, split.m)
    field0 = sv.MicroField((64.0, 64.0), np.einsum("...m,dm->...d", profile, split.V0))
    want = _emergence_reference(fam, model, split, field0, 24.0, 12.0, 80)
    got = sv.emergence_error(fam, model, split, field0, 24.0, t_skip=12.0, samples=80)
    _same(got.error, want.error)
    _same(got.plateau(), want.plateau())
    _check_closure(sv.closure_residual(got.micro, model, split), want.micro, model, split)


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
