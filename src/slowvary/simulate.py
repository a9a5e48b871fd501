"""Spectral simulation of micro and macro systems on periodic boxes.

Fields live on uniform periodic grids; spatial derivatives are evaluated
exactly in Fourier space, so for these linear systems every Fourier mode
evolves independently under the family symbol ``S(kappa) = sum_k L_k (i
kappa)^k``.  Time integration is exact up to rounding: one matrix
exponential ``expm(S(kappa) span)`` per mode and run advances it from one
sample to the next, so there is no time step to choose.  A field's
``fftn`` spectrum is propagated on the full grid, each mode at its own
``fftfreq`` wavevector, and a sample is the real part of its ``ifftn``.
Only the modes the initial field excites are stepped, with one
``scipy.linalg.expm`` call on their stack (see :func:`_integrate`).  A
run's :class:`Trajectory` holds those modes' coefficients; only
:func:`write_frames` and ``Trajectory.values`` form real-space samples,
transforming only the axes the live modes span and broadcasting along
the others.

The diagnostics quantify how well a reduced model tracks the full system,
on those coefficients, with RMS norms taken by Parseval: the emergence
error between the projected micro solution and an independently
integrated macro solution, the closure residual of the macro equation
evaluated on projected micro data, and decay-rate fits for the fast
transients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain

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
# bytes of real output per ifftn call of Trajectory.blocks, on the grid it
# transforms; the complex transform's transient is twice that
_BLOCK_BYTES = 1 << 19


def _check_box(lengths, grid):
    lengths = tuple(float(L) for L in lengths)
    grid = tuple(int(g) for g in grid)
    if len(lengths) != len(grid):
        raise ValueError("lengths and grid must have one entry per direction")
    if any(L <= 0 for L in lengths):
        raise ValueError("box lengths must be positive")
    for g in grid:
        if g < 1 or (g & (g - 1)):
            raise ValueError(f"grid sizes must be powers of two, got {g}")
    return lengths, grid


@dataclass
class _Field:
    lengths: tuple
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.lengths, self.grid = _check_box(self.lengths, self.values.shape[:-1])


class MicroField(_Field):
    """Full-state field sampled on a periodic box; shape (*grid, dimU)."""

    @property
    def dimU(self) -> int:
        return self.values.shape[-1]


class MacroField(_Field):
    """Slow-amplitude field sampled on a periodic box; shape (*grid, m)."""

    @property
    def m(self) -> int:
        return self.values.shape[-1]


def plane_wave(lengths, grid, ncomp, component=0, mode=None):
    """Unit sinusoidal profile in one component; returns a values array."""
    lengths, grid = _check_box(lengths, grid)
    if mode is None:
        mode = (1,) + (0,) * (len(grid) - 1)
    if len(mode) != len(grid):
        raise ValueError(f"mode needs {len(grid)} entries, got {len(mode)}")
    if not 0 <= component < ncomp:
        raise ValueError(f"component must be in [0, {ncomp}), got {component}")
    axes = [np.arange(g) * (L / g) for g, L in zip(grid, lengths)]
    coords = np.meshgrid(*axes, indexing="ij")
    phase = sum(2 * np.pi * mj * x / L for mj, x, L in zip(mode, coords, lengths))
    values = np.zeros(grid + (ncomp,))
    values[..., component] = np.sin(phase)
    return values


@dataclass
class Trajectory:
    """Uniformly sampled states of one run, held on the live spectrum.

    ``coef[s, c, r]`` is the ``fftn`` coefficient of component c at sample
    s on mode ``modes[r]``, a flat index into the grid; other modes are
    zero.  ``modes`` is sorted and holds the mirror ``-k`` of each mode
    ``k``.  A sample is the real part of the ``ifftn`` of its coefficients.
    ``head`` holds exact real-space frames of the first samples, if any, in
    place of their transforms.  ``values`` stacks the samples
    :meth:`blocks` forms, anew on each read.
    """

    times: np.ndarray
    coef: np.ndarray
    modes: np.ndarray
    grid: tuple
    lengths: tuple
    kind: str = "micro"
    head: np.ndarray | None = None

    def __post_init__(self):
        mirror = _mirror(self.modes, self.grid)  # refuses an index out of range
        if (np.diff(self.modes) <= 0).any():
            raise ValueError("modes must be sorted, with no repeats")
        lost = ~np.isin(mirror, self.modes)
        if lost.any():
            k, r = (tuple(int(i) for i in np.unravel_index(j[lost][0], self.grid))
                    for j in (self.modes, mirror))
            raise ValueError(f"mode {k} has no mirror {r} among the modes")

    @property
    def ncomp(self) -> int:
        return self.coef.shape[1]

    @property
    def values(self) -> np.ndarray:
        return np.concatenate(list(self.blocks()))

    def blocks(self):
        """Real-space samples in order: the head, then the real part of one
        ``ifftn`` call per block of ``_BLOCK_BYTES`` of real output.

        The field is constant along an axis on which every live mode has
        index 0.  Such an axis is transformed at length 1 and the block
        broadcast along it (a read-only ``np.broadcast_to`` view), scaled
        by ``1 / g``, which is exact for a power of two ``g``: the 1-D
        transforms of the other axes are those of the whole grid.
        """
        nt, grid, dim = len(self.times), self.grid, self.ncomp
        done = 0 if self.head is None else len(self.head)
        if done:
            yield self.head
        idx = np.unravel_index(self.modes, grid)
        sub = tuple(g if i.any() else 1 for i, g in zip(idx, grid))
        axes = tuple(range(2, len(grid) + 2))
        modes, scale = np.ravel_multi_index(idx, sub), np.prod(sub) / np.prod(grid)
        step = _block_length(sub, dim)
        spec = np.zeros((min(step, nt - done), dim, int(np.prod(sub))), dtype=complex)
        for lo in range(done, nt, step):
            h = spec[: min(step, nt - lo)]
            h[..., modes] = self.coef[lo : lo + len(h)]
            block = np.fft.ifftn(h.reshape(h.shape[:2] + sub), axes=axes).real
            block *= scale
            yield np.broadcast_to(np.moveaxis(block, 1, -1), (len(h),) + grid + (dim,))


# -- spectral machinery -------------------------------------------------------


def _wavevectors(modes, lengths, grid):
    """Wavevector components of the flat grid indices ``modes``, one array
    per axis: each axis's angular wavenumbers, in ``fftfreq`` order."""
    idx = np.unravel_index(modes, grid)
    return [2 * np.pi * np.fft.fftfreq(g, d=L / g)[i] for g, L, i in zip(grid, lengths, idx)]


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
    return P if u0 is None else P @ np.asarray(u0, dtype=complex)


def _filter_mask(grid) -> np.ndarray:
    """True on modes to keep: drops the highest third per direction."""
    out = np.ones(grid, dtype=bool)
    for g, mk in zip(grid, np.ix_(*(np.arange(g) for g in grid))):
        out &= np.abs(np.fft.fftfreq(g, d=1.0 / g))[mk] <= (g // 3 if g > 2 else g)
    return out


def _mirror(modes, grid):
    """The flat grid index of ``-k`` for each flat grid index ``k`` of ``modes``."""
    idx = np.unravel_index(modes, grid)
    return np.ravel_multi_index(tuple(-i % g for i, g in zip(idx, grid)), grid)


def _integrate(ops, u, T, samples, lengths, grid, kind, head=None):
    """Advance every excited Fourier mode exactly: ``u(t + span) = expm(S span) u(t)``.

    ``u`` is the initial ``fftn`` spectrum, ``(grid modes, dim)``.  A mode
    whose initial coefficient is zero in every component stays zero, so
    only the others, the live modes, are stepped, together with the mirror
    of each: one ``scipy.linalg.expm`` of their stack, then one step per
    sample.  The live modes are held component-major, ``u`` as
    ``(dim, modes)`` and the propagators as ``(dim, dim, modes)``, so a
    step is ``dim^2`` multiply-adds over contiguous modes.  The growth
    check names a mode whose propagator overflows, so numpy's overflow
    warnings are silenced.
    """
    if T < 0:
        raise ValueError("integration span must be >= 0")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    dim = u.shape[-1]
    live = u.any(axis=1)
    live = np.flatnonzero(live | live[_mirror(np.arange(live.size), grid)])
    u = u[live].T.copy()
    kvecs = _wavevectors(live, lengths, grid)
    S = _symbol_table(ops, kvecs, dim)
    span = T / samples if samples else 0.0
    times = span * np.arange(samples + 1)
    coef = np.empty((samples + 1, dim, live.size), dtype=complex)
    coef[0] = u
    # amplitude: largest real or imaginary part, cheaper than |u| per sample
    amp0 = max(float(np.abs(u.view(float)).max(initial=0.0)), 1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.ascontiguousarray(sla.expm(S * span).transpose(1, 2, 0))
        for s in range(1, samples + 1):
            v = P[:, 0] * u[0]
            for j in range(1, dim):
                v += P[:, j] * u[j]
            u = coef[s] = v
            # written so that a NaN or infinite amplitude fails the check too
            if not np.abs(u.view(float)).max(initial=0.0) <= _GROWTH_LIMIT * amp0:
                raise _growth_violation(u, kvecs, times[s])
    return Trajectory(times, coef, live, grid, lengths, kind, head)


def _growth_violation(u, kvecs, t) -> StabilityViolation:
    """The error for modes ``u`` (``(dim, modes)``) that failed the growth
    check at time t; ``kvecs`` holds each mode's wavevector.  Names a
    non-finite mode if there is one, else the largest."""
    bad = ~np.isfinite(u).all(axis=0)
    if bad.any():
        r, what = bad.argmax(), f"became non-finite by t = {t:.6g}, including"
    else:
        r = np.abs(u).max(axis=0).argmax()
        what = (f"grew beyond {_GROWTH_LIMIT:.0e} times its initial amplitude "
                f"by t = {t:.6g}, largest")
    kappa = ", ".join(f"{kv[r]:.6g}" for kv in kvecs)
    return StabilityViolation(f"solution {what} at wavevector kappa = ({kappa}); check the model")


def simulate_micro(
    family: OperatorFamily,
    field0: MicroField,
    T: float,
    samples: int = 50,
) -> Trajectory:
    """Integrate the full system from ``field0`` to time T.

    Returns ``samples + 1`` uniformly spaced snapshots including t = 0.
    Each Fourier mode advances by its exact propagator
    ``expm(S(kappa) T / samples)`` (``scipy.linalg.expm``) per sample, and a
    sample is the real part of the ``ifftn`` of the spectrum.  Modes that
    start at zero, with their mirrors, stay zero, and are neither
    propagated nor held.  Raises :class:`StabilityViolation`
    once the solution grows beyond 1e6 times its initial amplitude or
    becomes non-finite.
    """
    fam = family.to_float()
    if field0.dimU != fam.dimU:
        raise ValueError(f"field has {field0.dimU} components, family {fam.dimU}")
    if len(field0.lengths) != fam.M:
        raise ValueError(f"field box is {len(field0.lengths)}-dimensional, family {fam.M}")
    u = np.fft.fftn(field0.values, axes=tuple(range(fam.M))).reshape(-1, fam.dimU)
    return _integrate(fam.ops, u, float(T), samples, field0.lengths, field0.grid,
                      "micro", head=field0.values[None])


def simulate_macro(
    model: ReducedModel,
    field0: MacroField | Trajectory,
    T: float,
    samples: int = 50,
    spectral_filter: bool | None = None,
) -> Trajectory:
    """Integrate the reduced model from ``field0`` to time T.

    A trajectory as ``field0`` starts the run from its first sample's
    spectrum.  Odd truncation orders leave the top of the resolved
    spectrum weakly amplified; by default (``spectral_filter=None``) the
    highest third of wavenumbers per direction is therefore truncated when
    ``model.N`` is odd, and kept when it is even.  Pass True or False to
    force.  Propagation is exact as in :func:`simulate_micro`.
    """
    grid = field0.grid
    if isinstance(field0, Trajectory):
        m, head = field0.ncomp, None
        u = np.zeros((int(np.prod(grid)), m), dtype=complex)
        u[field0.modes] = _hermitian(field0.coef[0], field0.modes, grid).T
    else:
        m, head = field0.m, field0.values[None]
        u = np.fft.fftn(field0.values, axes=tuple(range(len(grid)))).reshape(-1, m)
    if m != model.m:
        raise ValueError(f"field has {m} components, model {model.m}")
    if len(field0.lengths) != model.M:
        raise ValueError(f"field box is {len(field0.lengths)}-dimensional, model {model.M}")
    if spectral_filter is None:
        spectral_filter = bool(model.N % 2)
    if spectral_filter:
        u *= _filter_mask(grid).reshape(-1, 1)
        head = None  # the filtered field is the transform of its spectrum
    return _integrate(model.A, u, float(T), samples, field0.lengths, grid, "macro",
                      head=head)


def _block_length(grid, m: int) -> int:
    """Samples per block: ``_BLOCK_BYTES`` of real values with ``m``
    components on ``grid``, the grid that ``Trajectory.blocks`` transforms."""
    return max(1, _BLOCK_BYTES // (8 * m * int(np.prod(grid))))


# -- diagnostics --------------------------------------------------------------


def _hermitian(X, modes, grid):
    """The Hermitian part ``(X_k + conj X_-k) / 2`` of ``X`` on the grid
    ``modes`` (last axis): the spectrum of the real part of its ``ifftn``."""
    return (X + X[..., np.searchsorted(modes, _mirror(modes, grid))].conj()) / 2


def _rms(X, modes, grid) -> np.ndarray:
    """RMS over grid and components of each sample's real field, by Parseval:
    ``X`` is ``(samples, components, modes)``, and ``sum x^2`` over N grid
    points is ``sum |H|^2 / N`` over the spectrum H of its Hermitian part."""
    H = _hermitian(X, modes, grid)
    sq = H.real**2 + H.imag**2
    return np.sqrt(sq.sum(axis=(1, 2)) / (X.shape[1] * float(np.prod(grid)) ** 2))


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
    projected micro spectrum at that instant.  The error at each later
    sample is ``||Z0.T u_micro - U_macro|| / ||U_macro||`` in the grid RMS
    norm, taken by Parseval on the live modes.
    """
    if t_skip is None:
        beta = split.beta if np.isfinite(split.beta) else 1.0
        t_skip = min(0.5 * T, 6 * np.log(10.0) / max(beta, 1e-12))
    micro = simulate_micro(family, field0, T, samples=samples)
    isk = int(np.argmin(np.abs(micro.times - t_skip)))
    if isk >= samples:
        raise ValueError("t_skip leaves no observation window")
    t_skip = float(micro.times[isk])
    U = _hermitian(rat.as_float(split.Z0).T @ micro.coef[isk:], micro.modes, micro.grid)
    start = Trajectory(micro.times[isk : isk + 1], U[:1], micro.modes, micro.grid,
                       micro.lengths, "macro")
    macro = simulate_macro(model, start, float(micro.times[-1] - t_skip),
                           samples=samples - isk)
    V = np.zeros_like(U)  # the macro modes are among the micro ones
    V[..., np.searchsorted(micro.modes, macro.modes)] = macro.coef
    diff = _rms(U - V, micro.modes, micro.grid)
    ref = _rms(macro.coef, macro.modes, macro.grid)
    err = diff / np.maximum(ref, 1e-12 * max(float(ref[0]), 1e-300))
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
    grid; spatial derivatives apply the symbol to each live mode at its
    own wavevector, with no FFT.  Returned
    ratio is the median of residual over rate across the second half of
    the samples, where transients no longer dominate.
    """
    nt = len(micro.times)
    if nt < 3:
        raise ValueError("need at least three samples for a centred difference")
    dt = float(micro.times[1] - micro.times[0])
    S = _symbol_table(model.A, _wavevectors(micro.modes, micro.lengths, micro.grid), model.m)
    U = _hermitian(rat.as_float(split.Z0).T @ micro.coef, micro.modes, micro.grid)
    dU = (U[2:] - U[:-2]) / (2 * dt)
    resid = dU - np.einsum("rij,tjr->tir", S, U[1:-1])
    res_rms = _rms(resid, micro.modes, micro.grid)
    rate_rms = _rms(dU, micro.modes, micro.grid)
    tail = slice(res_rms.size // 2, None)
    ratio = float(np.median(res_rms[tail] / np.maximum(rate_rms[tail], 1e-300)))
    return ClosureResult(micro.times[1:-1], res_rms, rate_rms, ratio)


@dataclass
class DecayFit:
    gamma: float
    times: np.ndarray
    norms: np.ndarray
    efoldings: float


def decay_rate_fit(micro: Trajectory, split: SpectralSplit) -> DecayFit:
    """Exponential rate of the fast (stable-projected) content.

    Projects out the slow subspace via ``u - V0 Z0.T u`` on the live
    modes, then fits a line to the log of the RMS norms (by Parseval) over
    the samples above the relative noise floor.  Raises
    :class:`InsufficientDecay` unless the usable window spans at least
    three e-foldings.
    """
    V0, Z0 = rat.as_float(split.V0), rat.as_float(split.Z0)
    fast = micro.coef - V0 @ (Z0.T @ micro.coef)
    norms = _rms(fast, micro.modes, micro.grid)
    if norms[0] <= 0:
        raise InsufficientDecay("no fast content in the initial state")
    valid = norms > 1e-13 * norms[0]
    if valid.sum() < 3:
        raise InsufficientDecay("fewer than three samples above the noise floor")
    t, y = micro.times[valid], np.log(norms[valid])
    efold = float(y[0] - y[-1])
    if efold < 3.0:
        raise InsufficientDecay(f"only {efold:.2f} e-foldings of decay in the usable "
                                "window; need at least 3 to fit a rate")
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
        field0 = MicroField(lengths, np.einsum("...m,dm->...d", profile, V0))
        res = emergence_error(fam, model, split, field0, T=t_skip + window,
                              t_skip=t_skip, samples=samples)
        plateaus.append(res.plateau())
    plateaus = np.asarray(plateaus)
    wl = np.asarray([float(L) for L in wavelengths])
    # a plateau at the rounding floor gives no slope
    degenerate = bool((plateaus < 1e-12).any())
    if degenerate:
        return OrderStudy(wl, plateaus, np.array([]), None, True)
    logs = np.log2(plateaus)
    pairwise = -(np.diff(logs) / np.diff(np.log2(wl)))
    order = float(-np.polyfit(np.log2(wl), logs, 1)[0])
    return OrderStudy(wl, plateaus, pairwise, order, False)


# -- binary frame export ------------------------------------------------------

_MAGIC = b"SVFRAME1"


def write_frames(path, traj: Trajectory) -> None:
    """Binary trajectory dump: little-endian f64 frames with a fixed header,
    each block written as :meth:`Trajectory.blocks` forms it."""
    grid = traj.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", 1, len(grid), traj.ncomp))
        fh.write(struct.pack(f"<{len(grid)}I", *grid))
        fh.write(struct.pack(f"<{len(grid)}d", *traj.lengths))
        fh.write(struct.pack("<Q", len(traj.times)))
        kind = traj.kind.encode()[:8].ljust(8, b"\0")
        fh.write(kind)
        for t, frame in zip(traj.times, chain.from_iterable(traj.blocks())):
            # np.tile fills a frame broadcast along some axes twice as fast as a copy
            if not all(frame.strides):
                frame = np.tile(frame[tuple(slice(None) if s else slice(1) for s in frame.strides)],
                                [1 if s else n for n, s in zip(frame.shape, frame.strides)])
            fh.write(struct.pack("<d", float(t)))
            fh.write(np.ascontiguousarray(frame, dtype="<f8"))


def read_frames(path) -> Trajectory:
    """The trajectory of a frame file: every frame as its head, and their
    ``fftn`` coefficients on the whole grid."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise ValueError(f"{path} is not a frame file")
    M = int.from_bytes(data[12:16], "little")
    start = 12 * M + 36  # the header's length
    if len(data) < start:
        raise ValueError(f"{path}: header cut short at {len(data)} bytes")
    ncomp, *grid = struct.unpack_from(f"<{M + 1}I", data, 16)
    *lengths, nframes = struct.unpack_from(f"<{M}dQ", data, 20 + 4 * M)
    record = np.dtype([("t", "<f8"), ("v", "<f8", (*grid, ncomp))])
    found, extra = divmod(len(data) - start, record.itemsize)
    if (found, extra) != (nframes, 0):
        raise ValueError(f"{path}: header says {nframes} frames, found {found}"
                         + f" and {extra} bytes more" * bool(extra))
    frames = np.frombuffer(data, record, offset=start)
    times, values = frames["t"].astype(float), frames["v"].astype(float)
    coef = np.moveaxis(np.fft.fftn(values, axes=tuple(range(1, M + 1))), -1, 1)
    kind = data[start - 8 : start].rstrip(b"\0").decode() or "micro"
    return Trajectory(times, coef.reshape(nframes, ncomp, -1), np.arange(coef[0, 0].size),
                      tuple(grid), tuple(lengths), kind, head=values)
