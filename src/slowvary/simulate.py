"""Spectral simulation of micro and macro systems on periodic boxes.

Fields live on uniform periodic grids; spatial derivatives are evaluated
exactly in Fourier space, so for these linear systems every Fourier mode
evolves independently under the family symbol ``S(kappa) = sum_k L_k (i
kappa)^k``.  Time integration is exact up to rounding: one matrix
exponential ``expm(S(kappa) span)`` per mode and run advances it from one
sample to the next, so there is no time step to choose.  Fields and
operators are real, so only the half spectrum of ``rfftn`` is propagated,
and of it only the modes the initial field excites, with one
``scipy.linalg.expm`` call on their stack (see :func:`_integrate`); the
closure residual uses the same half spectrum.

The diagnostics here quantify how well a reduced model tracks the full
system: the emergence error between the projected micro solution and an
independently integrated macro solution, the closure residual of the macro
equation evaluated on projected micro data, and decay-rate fits for the
fast transients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import _rational as rat
from .crosssection import OperatorFamily, SpectralSplit
from .errors import InsufficientDecay, StabilityViolation
from .slowreduce import ReducedModel

__all__ = [
    "MicroField",
    "MacroField",
    "Trajectory",
    "plane_wave",
    "simulate_micro",
    "simulate_macro",
    "project",
    "emergence_error",
    "EmergenceResult",
    "closure_residual",
    "ClosureResult",
    "decay_rate_fit",
    "DecayFit",
    "symbol_matrix",
    "mode_evolution_oracle",
    "closure_order_study",
    "OrderStudy",
    "write_frames",
    "read_frames",
]

_GROWTH_LIMIT = 1e6
# bytes of real values per block of samples: the projected slow amplitudes
# of the diagnostics, whose temporaries take about ten times this, and the
# frames that _integrate transforms in one call (scipy.linalg.expm works
# slice by slice, so the propagators need no blocking)
_BLOCK_BYTES = 1 << 19


def _check_box(lengths, grid):
    lengths = tuple(float(L) for L in lengths)
    grid = tuple(int(g) for g in grid)
    if len(lengths) != len(grid):
        raise ValueError("lengths and grid must have one entry per direction")
    for L in lengths:
        if L <= 0:
            raise ValueError("box lengths must be positive")
    for g in grid:
        if g < 1 or (g & (g - 1)):
            raise ValueError(f"grid sizes must be powers of two, got {g}")
    return lengths, grid


@dataclass
class MicroField:
    """Full-state field sampled on a periodic box; shape (*grid, dimU)."""

    lengths: tuple
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.lengths, self.grid = _check_box(self.lengths, self.values.shape[:-1])

    @property
    def dimU(self) -> int:
        return self.values.shape[-1]


@dataclass
class MacroField:
    """Slow-amplitude field sampled on a periodic box; shape (*grid, m)."""

    lengths: tuple
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.lengths, self.grid = _check_box(self.lengths, self.values.shape[:-1])

    @property
    def m(self) -> int:
        return self.values.shape[-1]


def plane_wave(lengths, grid, ncomp, component=0, mode=None, amplitude=1.0):
    """Sinusoidal profile in one component; returns a values array."""
    lengths = tuple(float(L) for L in lengths)
    grid = tuple(int(g) for g in grid)
    if mode is None:
        mode = (1,) + (0,) * (len(grid) - 1)
    axes = [
        np.arange(g) * (L / g) for g, L in zip(grid, lengths)
    ]
    coords = np.meshgrid(*axes, indexing="ij")
    phase = sum(
        2 * np.pi * mj * x / L for mj, x, L in zip(mode, coords, lengths)
    )
    values = np.zeros(grid + (ncomp,))
    values[..., component] = amplitude * np.sin(phase)
    return values


@dataclass
class Trajectory:
    """Uniformly sampled states of one run; values shape (nt, *grid, ncomp)."""

    times: np.ndarray
    values: np.ndarray
    lengths: tuple
    kind: str = "micro"

    @property
    def grid(self) -> tuple:
        return self.values.shape[1:-1]

    @property
    def ncomp(self) -> int:
        return self.values.shape[-1]


# -- spectral machinery -------------------------------------------------------


def _frequencies(lengths, grid):
    """Angular wavenumbers of each axis, in ``fftfreq`` order."""
    return [2 * np.pi * np.fft.fftfreq(g, d=L / g) for g, L in zip(grid, lengths)]


def _wavevectors(lengths, grid):
    return np.meshgrid(*_frequencies(lengths, grid), indexing="ij")


def _symbol_table(ops: dict, kvecs, dim: int) -> np.ndarray:
    shape = kvecs[0].shape
    S = np.zeros(shape + (dim, dim), dtype=complex)
    for k, mat in ops.items():
        matf = rat.as_float(mat)
        factor = np.ones(shape, dtype=complex)
        for kv, e in zip(kvecs, k):
            if e:
                factor = factor * (1j * kv) ** e
        S += factor[..., None, None] * matf
    return S


def symbol_matrix(source, kappa) -> np.ndarray:
    """Fourier symbol at a single wavevector, as a dense complex matrix.

    ``kappa`` needs one component per spatial dimension of ``source``.
    """
    if isinstance(source, OperatorFamily):
        ops, dim = source.ops, source.dimU
    elif isinstance(source, ReducedModel):
        ops, dim = source.A, source.m
    else:
        raise TypeError("source must be an OperatorFamily or a ReducedModel")
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    if kappa.shape != (source.M,):
        raise ValueError(f"wavevector needs {source.M} components, got {kappa.size}")
    kvecs = [np.array([kj]) for kj in kappa]
    return _symbol_table(ops, kvecs, dim)[0]


def mode_evolution_oracle(source, kappa, t: float, u0=None):
    """Exact single-mode propagator ``expm(S(kappa) t)``, or its action.

    The integrator uses the same ``scipy.linalg.expm`` once per sample span
    and steps; this takes the whole span ``t`` in one call.
    """
    P = sla.expm(symbol_matrix(source, kappa) * float(t))
    if u0 is None:
        return P
    return P @ np.asarray(u0, dtype=complex)


def _filter_mask(grid) -> np.ndarray:
    """True on modes to keep: drops the highest third per direction."""
    masks = []
    for g in grid:
        f = np.abs(np.fft.fftfreq(g, d=1.0 / g))
        masks.append(f <= g // 3 if g > 2 else np.ones(g, dtype=bool))
    out = np.ones(grid, dtype=bool)
    for ax, mk in enumerate(masks):
        shape = [1] * len(grid)
        shape[ax] = grid[ax]
        out &= mk.reshape(shape)
    return out


def _half_spectrum(lengths, grid):
    """Rows that propagate a real field: the half spectrum plus mirror rows.

    The last axis is halved as ``rfftn`` halves it, and ``shape`` is that
    half grid.  ``rows[:, r]`` is the full-grid index of row r: the modes of
    the half grid in C order, then a second row for each mode in ``twin``,
    one with a Nyquist index on another axis and an interior index on the
    last.  ``fftfreq`` puts a Nyquist index at ``-pi g / L``, so that mode is
    its own mirror on that axis.  The real part of the full spectrum
    averages its evolution with the conjugate of its mirror's, which is the
    evolution from the same coefficient under ``S`` at ``+pi g / L`` on those
    axes: ``kvecs`` holds the wavevector each row evolves under.
    """
    shape = grid[:-1] + (grid[-1] // 2 + 1,)
    rows = np.indices(shape).reshape(len(grid), -1)
    nyq = np.array([(r == g // 2) & (g > 1) for r, g in zip(rows, grid)])
    nyq[-1] = False
    twin = np.flatnonzero(nyq.any(axis=0) & (rows[-1] > 0) & (2 * rows[-1] < grid[-1]))
    rows = np.concatenate([rows, rows[:, twin]], axis=1)
    flip = np.concatenate([np.zeros_like(nyq), nyq[:, twin]], axis=1)
    kvecs = [
        np.where(f, -kv[r], kv[r])
        for kv, r, f in zip(_frequencies(lengths, grid), rows, flip)
    ]
    return shape, rows, kvecs, twin


def _integrate(ops, values0, T, samples, lengths, kind, keep=None):
    """Advance every excited Fourier mode exactly: ``u(t + span) = expm(S span) u(t)``.

    The field and every operator are real, so a mode's mirror evolves as
    its conjugate, and only the rows of :func:`_half_spectrum` are
    propagated.  A row whose initial coefficient is zero in every component
    stays zero, so only the others, the live rows, are stepped: one
    ``scipy.linalg.expm`` of their stack, then one step per sample.  A live
    mirror row's mode is live too: both start from the same coefficient.
    The live rows are held component-major, ``u`` as ``(dim, rows)`` and
    the propagators as ``(dim, dim, rows)``, so a step is ``dim^2``
    multiply-adds over contiguous rows.  Each sample is the ``irfftn`` of
    the half spectrum, zero off the live rows, with the mean of the two
    evolutions stored at the modes that have a mirror row, which is the
    real part of the full-spectrum ``ifftn``.  The last axis's own 0 and
    Nyquist columns need no mirror row, because ``irfftn`` takes their
    Hermitian part from stored modes.  Samples are transformed a block of
    ``_BLOCK_BYTES`` of output at a time, in one ``irfftn`` call.  Modes
    outside the full-grid boolean mask ``keep``, when given, do not evolve.
    The growth check names a mode whose propagator overflows, so numpy's
    overflow warnings are silenced.
    """
    if T < 0:
        raise ValueError("integration span must be >= 0")
    grid, dim = values0.shape[:-1], values0.shape[-1]
    axes = tuple(range(len(grid)))
    shape, rows, kvecs, twin = _half_spectrum(lengths, grid)
    n = int(np.prod(shape))
    u = np.fft.rfftn(values0, axes=axes).reshape(n, dim)
    u = np.concatenate([u, u[twin]])
    live = np.flatnonzero(u.any(axis=1))
    u = u[live].T.copy()
    kvecs = [kv[live] for kv in kvecs]
    S = _symbol_table(ops, kvecs, dim)
    if keep is not None:
        S = S * keep[tuple(rows[:, live])][:, None, None]
    # live rows of the half grid, then the modes of the live mirror rows
    # and their positions among the live rows
    nb = int(np.searchsorted(live, n))
    pair = twin[live[nb:] - n]
    ppos = np.searchsorted(live, pair)
    span = T / samples if samples else 0.0
    out_t = span * np.arange(samples + 1)
    out_v = np.empty((samples + 1,) + grid + (dim,))
    out_v[0] = values0
    # amplitude: largest real or imaginary part, cheaper than |u| per sample;
    # the rows hold each such value of the full spectrum up to sign
    amp0 = max(float(np.abs(u.view(float)).max(initial=0.0)), 1e-300)
    step = _block_length(grid, dim)
    half = np.zeros((min(step, samples), dim, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.ascontiguousarray(sla.expm(S * span).transpose(1, 2, 0))
        for lo in range(1, samples + 1, step):
            hi = min(lo + step, samples + 1)
            for s, h in zip(range(lo, hi), half):
                v = P[:, 0] * u[0]
                for j in range(1, dim):
                    v += P[:, j] * u[j]
                u = v
                # written so that a NaN or infinite amplitude fails the check too
                if not np.abs(u.view(float)).max(initial=0.0) <= _GROWTH_LIMIT * amp0:
                    raise _growth_violation(u, kvecs, live >= n, out_t[s])
                h[:, live[:nb]] = u[:, :nb]
                h[:, pair] = (u[:, ppos] + u[:, nb:]) / 2
            block = half[: hi - lo].reshape((hi - lo, dim) + shape)
            block = np.fft.irfftn(block, s=grid, axes=tuple(a + 2 for a in axes))
            out_v[lo:hi] = np.moveaxis(block, 1, -1)
    return Trajectory(out_t, out_v, lengths, kind)


def _growth_violation(u, kvecs, mirror, t) -> StabilityViolation:
    """The error for rows ``u`` (``(dim, rows)``) that failed the growth check at time t.

    ``kvecs`` holds each row's wavevector.  Names a non-finite row if there
    is one, else the largest.  A mirror row (``mirror[r]``) is the conjugate
    of the mode at minus its wavevector.
    """
    bad = ~np.isfinite(u).all(axis=0)
    if bad.any():
        r, what = bad.argmax(), f"became non-finite by t = {t:.6g}, including"
    else:
        r = np.abs(u).max(axis=0).argmax()
        what = (f"grew beyond {_GROWTH_LIMIT:.0e} times its initial amplitude "
                f"by t = {t:.6g}, largest")
    # 0.0 - k, not -k, keeps a zero component from printing as -0
    kappa = ", ".join(f"{0.0 - kv[r] if mirror[r] else kv[r]:.6g}" for kv in kvecs)
    return StabilityViolation(
        f"solution {what} at wavevector kappa = ({kappa}); check the model"
    )


def simulate_micro(
    family: OperatorFamily,
    field0: MicroField,
    T: float,
    samples: int = 50,
) -> Trajectory:
    """Integrate the full system from ``field0`` to time T.

    Returns ``samples + 1`` uniformly spaced snapshots including t = 0.
    Each Fourier mode advances by its exact propagator
    ``expm(S(kappa) T / samples)`` (``scipy.linalg.expm``) per sample.  Only
    the half spectrum of ``rfftn`` is propagated, plus a second row for each
    mode with a Nyquist index on a leading axis and an interior index on the
    last, whose two evolutions the real part averages; the result is the
    real part of the full-spectrum run.  Rows that start at zero stay zero
    and are not propagated.  Raises :class:`StabilityViolation` once the
    solution grows beyond 1e6 times its initial amplitude or becomes
    non-finite.
    """
    fam = family.to_float()
    if field0.dimU != fam.dimU:
        raise ValueError(f"field has {field0.dimU} components, family {fam.dimU}")
    if len(field0.lengths) != fam.M:
        raise ValueError(f"field box is {len(field0.lengths)}-dimensional, family {fam.M}")
    return _integrate(fam.ops, field0.values, float(T), samples, field0.lengths, "micro")


def simulate_macro(
    model: ReducedModel,
    field0: MacroField,
    T: float,
    samples: int = 50,
    spectral_filter: bool | None = None,
) -> Trajectory:
    """Integrate the reduced model from ``field0`` to time T.

    Odd truncation orders leave the top of the resolved spectrum weakly
    amplified; by default (``spectral_filter=None``) the highest third of
    wavenumbers per direction is therefore truncated when ``model.N`` is
    odd, and kept when it is even.  Pass True or False to force.
    Propagation is exact as in :func:`simulate_micro`.
    """
    if field0.m != model.m:
        raise ValueError(f"field has {field0.m} components, model {model.m}")
    if len(field0.lengths) != model.M:
        raise ValueError(f"field box is {len(field0.lengths)}-dimensional, model {model.M}")
    if spectral_filter is None:
        spectral_filter = bool(model.N % 2)
    values0, mask, grid = field0.values, None, field0.grid
    if spectral_filter:
        # the mask is even in kappa, so its half grid filters a real field
        mask = _filter_mask(grid)
        axes = tuple(range(len(grid)))
        vhat = np.fft.rfftn(values0, axes=axes)
        vhat *= mask[..., : grid[-1] // 2 + 1, None]
        values0 = np.fft.irfftn(vhat, s=grid, axes=axes)
    return _integrate(
        model.A, values0, float(T), samples, field0.lengths, "macro", keep=mask
    )


def _block_length(grid, m: int) -> int:
    """Samples per block: ``_BLOCK_BYTES`` of real values with ``m`` components."""
    return max(1, _BLOCK_BYTES // (8 * m * int(np.prod(grid))))


def project(split: SpectralSplit, values: np.ndarray) -> np.ndarray:
    """Slow amplitudes ``Z0.T u`` of full-state values (last axis dimU)."""
    Z0 = rat.as_float(split.Z0)
    return values @ Z0


# -- diagnostics --------------------------------------------------------------


@dataclass
class EmergenceResult:
    """Relative mismatch between projected micro and integrated macro."""

    times: np.ndarray       # observation times (from the sync point on)
    error: np.ndarray       # relative error at those times
    t_skip: float
    micro: Trajectory
    macro: Trajectory

    def plateau(self) -> float:
        """Settled error level: median over the later half of the window."""
        tail = self.error[len(self.error) // 2 :]
        return float(np.median(tail)) if tail.size else 0.0


def emergence_error(
    family: OperatorFamily,
    model: ReducedModel,
    split: SpectralSplit,
    field0: MicroField,
    T: float,
    t_skip: float | None = None,
    samples: int = 200,
) -> EmergenceResult:
    """Run micro and macro side by side and compare slow amplitudes.

    The macro run starts at ``t_skip`` (after the fast transient has died;
    default six decades of decay, capped at half the span) from the
    projected micro state at that instant.  The error at each later sample
    is ``||Z0.T u_micro - U_macro|| / ||U_macro||`` in the grid RMS norm.
    """
    if t_skip is None:
        beta = split.beta if np.isfinite(split.beta) else 1.0
        t_skip = min(0.5 * T, 6 * np.log(10.0) / max(beta, 1e-12))
    micro = simulate_micro(family, field0, T, samples=samples)
    isk = int(np.argmin(np.abs(micro.times - t_skip)))
    if isk >= samples:
        raise ValueError("t_skip leaves no observation window")
    t_skip = float(micro.times[isk])
    macro0 = MacroField(field0.lengths, project(split, micro.values[isk]))
    macro = simulate_macro(
        model,
        macro0,
        float(micro.times[-1] - t_skip),
        samples=samples - isk,
    )
    space_axes = tuple(range(1, micro.values.ndim))
    step = _block_length(micro.grid, model.m)
    diff, ref = [], []
    for lo in range(0, samples + 1 - isk, step):
        U = project(split, micro.values[isk + lo : isk + lo + step])
        V = macro.values[lo : lo + step]
        diff.append(np.sqrt(np.mean((U - V) ** 2, axis=space_axes)))
        ref.append(np.sqrt(np.mean(V**2, axis=space_axes)))
    diff, ref = np.concatenate(diff), np.concatenate(ref)
    floor = 1e-12 * max(float(ref[0]), 1e-300)
    err = diff / np.maximum(ref, floor)
    return EmergenceResult(micro.times[isk:], err, t_skip, micro, macro)


@dataclass
class ClosureResult:
    """How well the projected micro data satisfies the macro equation."""

    times: np.ndarray        # interior sample times
    residual_rms: np.ndarray
    rate_rms: np.ndarray     # RMS of dU/dt, the comparison scale
    ratio: float             # median residual/rate over the later half


def closure_residual(
    micro: Trajectory, model: ReducedModel, split: SpectralSplit
) -> ClosureResult:
    """Residual ``dU/dt - sum_n A_n d^n U`` on projected micro samples.

    The time derivative is a centred difference on the uniform sample
    grid; spatial derivatives are spectral, on the half spectrum of
    ``rfftn``.  At a mode with a mirror row in :func:`_half_spectrum`, the
    symbol table holds the mean of ``S`` at the two wavevectors (``-pi g /
    L`` and ``+pi g / L`` on the Nyquist axes), which gives the real part
    of the full-spectrum ``ifftn``.  Returned ratio is the median
    of residual over rate across the second half of the samples, where
    transients no longer dominate.  Samples are projected and checked a
    block at a time, so the work space does not grow with their number.
    """
    nt = len(micro.times)
    if nt < 3:
        raise ValueError("need at least three samples for a centred difference")
    dt = float(micro.times[1] - micro.times[0])
    grid = micro.grid
    shape, _, kvecs, twin = _half_spectrum(micro.lengths, grid)
    n = int(np.prod(shape))
    S = _symbol_table(model.A, kvecs, model.m)
    S[twin] = (S[twin] + S[n:]) / 2
    S = S[:n].reshape(shape + (model.m, model.m))
    space = tuple(range(1, micro.values.ndim - 1))
    axes = tuple(range(1, micro.values.ndim))
    step = _block_length(grid, model.m)
    res_rms, rate_rms = [], []
    for lo in range(1, nt - 1, step):
        # the block's interior samples plus one neighbour on either side
        U = project(split, micro.values[lo - 1 : lo + step + 1])
        rhs_hat = np.einsum("...ij,t...j->t...i", S, np.fft.rfftn(U[1:-1], axes=space))
        dU = (U[2:] - U[:-2]) / (2 * dt)
        resid = dU - np.fft.irfftn(rhs_hat, s=grid, axes=space)
        res_rms.append(np.sqrt(np.mean(resid**2, axis=axes)))
        rate_rms.append(np.sqrt(np.mean(dU**2, axis=axes)))
    res_rms, rate_rms = np.concatenate(res_rms), np.concatenate(rate_rms)
    tail = slice(res_rms.size // 2, None)
    ratio = float(
        np.median(res_rms[tail] / np.maximum(rate_rms[tail], 1e-300))
    )
    return ClosureResult(micro.times[1:-1], res_rms, rate_rms, ratio)


@dataclass
class DecayFit:
    gamma: float
    times: np.ndarray
    norms: np.ndarray
    efoldings: float


def decay_rate_fit(micro: Trajectory, split: SpectralSplit) -> DecayFit:
    """Exponential rate of the fast (stable-projected) content.

    Projects out the slow subspace via ``u - V0 Z0.T u``, then fits a line
    to the log of the RMS norms over the samples above the relative noise
    floor.  Raises :class:`InsufficientDecay` unless the usable window
    spans at least three e-foldings.
    """
    V0 = rat.as_float(split.V0)
    fast = micro.values - project(split, micro.values) @ V0.T
    axes = tuple(range(1, fast.ndim))
    norms = np.sqrt(np.mean(fast**2, axis=axes))
    if norms[0] <= 0:
        raise InsufficientDecay("no fast content in the initial state")
    valid = norms > 1e-13 * norms[0]
    if valid.sum() < 3:
        raise InsufficientDecay("fewer than three samples above the noise floor")
    t = micro.times[valid]
    y = np.log(norms[valid])
    efold = float(y[0] - y[-1])
    if efold < 3.0:
        raise InsufficientDecay(
            f"only {efold:.2f} e-foldings of decay in the usable window; "
            "need at least 3 to fit a rate"
        )
    slope = np.polyfit(t, y, 1)[0]
    return DecayFit(float(-slope), t, norms[valid], efold)


# -- wavelength ladder --------------------------------------------------------


@dataclass
class OrderStudy:
    """Emergence plateau against wavelength, and the fitted closure order."""

    wavelengths: np.ndarray
    plateaus: np.ndarray
    pairwise: np.ndarray     # log2 plateau ratios between successive L
    order: float | None      # least-squares slope, None when degenerate
    degenerate: bool


def closure_order_study(
    family: OperatorFamily,
    model: ReducedModel,
    split: SpectralSplit,
    wavelengths,
    grid_points: int = 32,
    window: float = 12.0,
    samples: int = 240,
    component: int = 0,
    floor: float = 1e-12,
) -> OrderStudy:
    """Measure how the emergence plateau scales under wavelength doubling.

    Each run seeds the slowest box mode of a square domain of side L in
    the chosen slow component, waits out the transient, and records the
    plateau error over a fixed observation window.  A closure truncated at
    order N has symbol error ``O(kappa^{N+1})``, so halving the wavenumber
    should shrink the plateau by about ``2^{N+1}``.  Needs two distinct wavelengths.
    """
    if len({float(L) for L in wavelengths}) < 2:
        raise ValueError("closure order study needs at least two distinct wavelengths")
    fam = family.to_float()
    V0 = rat.as_float(split.V0)
    beta = split.beta if np.isfinite(split.beta) else 1.0
    t_skip = 6 * np.log(10.0) / max(beta, 1e-12)
    plateaus = []
    for L in wavelengths:
        lengths = (float(L),) * fam.M
        grid = (int(grid_points),) + (1,) * (fam.M - 1)
        profile = plane_wave(lengths, grid, split.m, component=component)
        values0 = np.einsum("...m,dm->...d", profile, V0)
        field0 = MicroField(lengths, values0)
        res = emergence_error(
            fam, model, split, field0, T=t_skip + window,
            t_skip=t_skip, samples=samples,
        )
        plateaus.append(res.plateau())
    plateaus = np.asarray(plateaus)
    wl = np.asarray([float(L) for L in wavelengths])
    degenerate = bool((plateaus < floor).any())
    if degenerate:
        return OrderStudy(wl, plateaus, np.array([]), None, True)
    logs = np.log2(plateaus)
    pairwise = -(np.diff(logs) / np.diff(np.log2(wl)))
    order = float(-np.polyfit(np.log2(wl), logs, 1)[0])
    return OrderStudy(wl, plateaus, pairwise, order, False)


# -- binary frame export ------------------------------------------------------

_MAGIC = b"SVFRAME1"


def write_frames(path, traj: Trajectory) -> None:
    """Binary trajectory dump: little-endian f64 frames with a fixed header."""
    grid = traj.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", 1, len(grid), traj.ncomp))
        fh.write(struct.pack(f"<{len(grid)}I", *grid))
        fh.write(struct.pack(f"<{len(grid)}d", *traj.lengths))
        fh.write(struct.pack("<Q", len(traj.times)))
        kind = traj.kind.encode()[:8].ljust(8, b"\0")
        fh.write(kind)
        for t, frame in zip(traj.times, traj.values):
            fh.write(struct.pack("<d", float(t)))
            fh.write(np.ascontiguousarray(frame, dtype="<f8").tobytes())


def read_frames(path) -> Trajectory:
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError(f"{path} is not a frame file")
        _, M, ncomp = struct.unpack("<III", fh.read(12))
        grid = struct.unpack(f"<{M}I", fh.read(4 * M))
        lengths = struct.unpack(f"<{M}d", fh.read(8 * M))
        (nframes,) = struct.unpack("<Q", fh.read(8))
        kind = fh.read(8).rstrip(b"\0").decode()
        times = np.zeros(nframes)
        values = np.zeros((nframes,) + grid + (ncomp,))
        count = int(np.prod(grid)) * ncomp
        for i in range(nframes):
            (times[i],) = struct.unpack("<d", fh.read(8))
            buf = fh.read(8 * count)
            values[i] = np.frombuffer(buf, dtype="<f8").reshape(grid + (ncomp,))
    return Trajectory(times, values, tuple(lengths), kind or "micro")
