"""Untimed correctness oracles for the benchmark's workloads.

Each oracle reads what the CLI wrote (``report.json``, ``model.json``,
``basis.json``, ``frames.bin``) with plain ``json`` / ``struct`` and
compares it against an answer derived from the generated inputs, not
from the code path being timed.  Every check returns a list of problem
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

# directions along which the symbol branches are compared: x, y, diagonal
DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (math.sqrt(0.5), math.sqrt(0.5)))
LADDER = tuple(0.05 * 2.0 ** -j for j in range(8))
# absolute floor below which eigenvalue differences are rounding
EIG_FLOOR = 1e-12


def _index(key: str) -> tuple[int, ...]:
    return tuple(int(e) for e in key.split(","))


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def coefficients(model_doc: dict, exact: bool = False) -> dict:
    """``model.json`` coefficients as {index: matrix} (Fractions if exact)."""
    conv = Fraction if exact else (lambda x: float(Fraction(str(x))))
    out = {}
    for key, rows in model_doc["A"].items():
        out[_index(key)] = np.array([[conv(x) for x in row] for row in rows],
                                    dtype=object if exact else float)
    return out


def report_problems(out: Path, rc: int) -> list[str]:
    """Exit status and the report's own verdict."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    path = out / "report.json"
    if not path.exists():
        return problems + ["no report.json"]
    rep = read_json(path)
    if rep.get("pass") is not True:
        problems.append(f"report pass={rep.get('pass')!r} error={rep.get('error')!r}")
    return problems


# -- reduce-random: slow branch of the micro symbol -------------------------


def _symbol(ops: dict, kappa) -> np.ndarray:
    S = 0
    for k, mat in ops.items():
        factor = complex(1.0)
        for kj, e in zip(kappa, k):
            factor *= (1j * kj) ** e
        S = S + factor * mat
    return S


def _match(a: np.ndarray, b: np.ndarray) -> float:
    """Worst distance pairing the eigenvalues in b to those in a, nearest first."""
    rest = list(b)
    worst = 0.0
    for x in a:
        j = int(np.argmin([abs(x - y) for y in rest]))
        worst = max(worst, abs(x - rest.pop(j)))
    return worst


class SymbolBranch:
    """Slow eigenvalues of ``S(kappa) = sum_k L_k (i kappa)^k``.

    Computed once per family on a geometric ladder of ``|kappa|`` along
    each direction; a reduced model then passes when its symbol's
    eigenvalues follow them to ``C |kappa|^(N+1)``, where ``C`` is read
    off the two largest rungs.  A wrong coefficient of order p < N + 1
    shows up as an error that shrinks only like ``|kappa|^p``.
    """

    def __init__(self, ops: dict, m: int, N: int):
        self.m, self.N = m, N
        self.slow = {}
        for d in DIRECTIONS:
            for t in LADDER:
                ev = np.linalg.eigvals(_symbol(ops, (t * d[0], t * d[1])))
                self.slow[d, t] = ev[np.argsort(-ev.real)[:m]]

    def problems(self, A: dict) -> list[str]:
        p = self.N + 1
        out = []
        for d in DIRECTIONS:
            errs = [_match(np.linalg.eigvals(_symbol(A, (t * d[0], t * d[1]))),
                           self.slow[d, t]) for t in LADDER]
            C = max(e / t ** p for e, t in zip(errs[:2], LADDER[:2]))
            for e, t in zip(errs, LADDER):
                if e > 4 * C * t ** p + EIG_FLOOR:
                    out.append(f"slow branch along {d} at |kappa|={t:.3g}: "
                               f"error {e:.3g} > 4 C kappa^{p} (C={C:.3g})")
                    break
        return out


def coefficient_problems(A: dict, ref: dict, rel: float = 1e-8) -> list[str]:
    """Every coefficient of ``ref`` is matched by ``A`` to ``rel`` times scale."""
    scale = max(1.0, max(float(np.abs(v).max()) for v in ref.values()))
    out = []
    for n, R in ref.items():
        if n not in A:
            out.append(f"coefficient {n} missing")
            continue
        err = float(np.abs(np.asarray(A[n], float) - R).max())
        if err > rel * scale:
            out.append(f"coefficient {n} differs from the generating route by {err:.3g}")
    return out


# -- cell-homogenise: harmonic and arithmetic means ---------------------------


def cell_problems(A: dict, expr: str, n: int, amplitude: float) -> list[str]:
    """Homogenisation oracle for ``K = 1 + a cos(2 pi y1) [cos(2 pi y2)]``.

    Layered: ``A_(2,0)`` is the harmonic mean ``sqrt(1 - a^2)`` up to the
    second-order grid error (at most ``10 a^2 / n^2``), ``A_(0,2)`` the
    arithmetic mean 1.  Checkerboard: ``A_(2,0) = A_(0,2)`` between the
    harmonic and arithmetic means of the grid samples.  The first-order
    coefficients vanish by telescoping in both cases.
    """
    a20, a02 = float(A[2, 0][0, 0]), float(A[0, 2][0, 0])
    out = []
    for k in ((0, 0), (1, 0), (0, 1), (1, 1)):
        if abs(float(A[k][0, 0])) > 1e-10:
            out.append(f"A_{k} = {float(A[k][0, 0]):.3g} should vanish")
    if expr == "layered_cos":
        exact = math.sqrt(1.0 - amplitude ** 2)
        if abs(a20 - exact) > 10 * amplitude ** 2 / n ** 2:
            out.append(f"A_(2,0) = {a20!r} vs harmonic mean {exact!r} at n={n}")
        if abs(a02 - 1.0) > 1e-9:
            out.append(f"A_(0,2) = {a02!r} vs arithmetic mean 1")
    else:
        y = np.arange(n) / n
        K = 1.0 + amplitude * np.outer(np.cos(2 * np.pi * y), np.cos(2 * np.pi * y))
        lo, hi = 1.0 / float(np.mean(1.0 / K)), float(np.mean(K))
        if abs(a20 - a02) > 1e-8 * abs(a02):
            out.append(f"checkerboard A_(2,0) = {a20!r} != A_(0,2) = {a02!r}")
        if not lo - 1e-9 <= a20 <= hi + 1e-9:
            out.append(f"A_(2,0) = {a20!r} outside the bounds [{lo!r}, {hi!r}]")
    return out


# -- simulate-walker: per-mode propagator and fitted order --------------------


def read_frame_file(path: Path, picks) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Times and the frames at indices ``picks`` of a ``SVFRAME1`` file."""
    with open(path, "rb") as fh:
        if fh.read(8) != b"SVFRAME1":
            raise ValueError(f"{path} is not a frame file")
        _, M, ncomp = struct.unpack("<III", fh.read(12))
        grid = struct.unpack(f"<{M}I", fh.read(4 * M))
        fh.read(8 * M)  # box lengths
        (nframes,) = struct.unpack("<Q", fh.read(8))
        fh.read(8)  # kind
        start = fh.tell()
        count = int(np.prod(grid)) * ncomp
        times, frames = [], []
        for i in picks:
            fh.seek(start + i * (8 + 8 * count))
            times.append(struct.unpack("<d", fh.read(8))[0])
            frames.append(np.frombuffer(fh.read(8 * count), dtype="<f8")
                          .reshape(tuple(grid) + (ncomp,)))
    return np.array(times), np.array(frames), grid


def mode_problems(frames_path: Path, propagate, box: float, rel: float = 1e-8) -> list[str]:
    """Fourier modes (1,0), (-1,0) and (0,1) of the micro trajectory follow
    ``propagate(kappa, t, u0)``, the exact single-mode propagator."""
    picks = (0, 1, 50, 100, 200)
    times, frames, grid = read_frame_file(frames_path, picks)
    hat = np.fft.fftn(frames, axes=(1, 2))
    scale = float(np.abs(hat[0]).max())
    out = []
    for i, j in ((1, 0), (grid[0] - 1, 0), (0, 1)):
        kappa = (2 * np.pi * np.fft.fftfreq(grid[0], box / grid[0])[i],
                 2 * np.pi * np.fft.fftfreq(grid[1], box / grid[1])[j])
        for t, h in zip(times[1:], hat[1:]):
            want = propagate(kappa, t, hat[0][i, j])
            err = float(np.abs(h[i, j] - want).max())
            if err > rel * scale:
                out.append(f"mode ({i},{j}) at t={t:.3g}: error {err:.3g} "
                           f"> {rel:g} * {scale:.3g}")
                break
    return out


def order_problems(report: dict, N: int) -> list[str]:
    order = report.get("order")
    if report.get("degenerate") or order is None:
        return [f"degenerate order study: plateaus {report.get('plateaus')}"]
    if not N + 0.5 <= order <= N + 1.5:
        return [f"fitted order {order} outside [{N + 0.5}, {N + 1.5}]"]
    return []


# -- reduce-exact: golden walker closure and the exact invariance identity ----

GOLDEN_WALKER = {(0, 0): Fraction(0), (1, 0): Fraction(-1, 3),
                 (0, 1): Fraction(0), (2, 0): Fraction(8, 27),
                 (1, 1): Fraction(0), (0, 2): Fraction(2, 3)}


def golden_problems(A: dict) -> list[str]:
    return [f"A_{n} = {A.get(n)} != {want}" for n, want in GOLDEN_WALKER.items()
            if n not in A or A[n].shape != (1, 1) or A[n][0, 0] != want]


def _falling(e: tuple, l: tuple) -> int:
    out = 1
    for ei, li in zip(e, l):
        for j in range(ei, ei - li, -1):
            out *= j
    return out


def invariance_problems(ops: dict, A: dict, basis_doc: dict) -> list[str]:
    """``sum_l L_l d^l Vt^n = sum_{k <= n} Vt^(n-k) A_k`` in exact arithmetic.

    ``Vt^n`` is the generating polynomial stored in ``basis.json``; the
    identity must hold coefficient by coefficient with residual exactly 0.
    """
    poly = {_index(n): {_index(k): np.array([[Fraction(x) for x in row] for row in c],
                                            dtype=object)
                        for k, c in p.items()}
            for n, p in basis_doc["poly"].items()}
    for n, pn in poly.items():
        resid: dict = {}
        for l, L in ops.items():
            for e, c in pn.items():
                if all(ei >= li for ei, li in zip(e, l)):
                    f = tuple(ei - li for ei, li in zip(e, l))
                    term = L.dot(c) * _falling(e, l)
                    resid[f] = resid[f] + term if f in resid else term
        for k, Ak in A.items():
            diff = tuple(ni - ki for ni, ki in zip(n, k))
            if min(diff) < 0:
                continue
            for f, c in poly[diff].items():
                term = c.dot(Ak)
                resid[f] = resid[f] - term if f in resid else -term
        for f, r in resid.items():
            if any(x != 0 for x in r.reshape(-1)):
                return [f"exact invariance residual nonzero at n={n}, xi^{f}"]
    return []


class Verified:
    """Remembers the verdict for output bytes already checked.

    Identical output files get an identical verdict, so an expensive
    oracle runs once per distinct output instead of once per op.
    """

    def __init__(self):
        self._seen: dict = {}

    def check(self, paths, oracle) -> list[str]:
        h = hashlib.sha256()
        for p in paths:
            h.update(Path(p).read_bytes())
        key = h.hexdigest()
        if key not in self._seen:
            self._seen[key] = oracle()
        return self._seen[key]
