"""The host's speed at a moment, from a fixed reference kernel.

The machine the benchmark was written on (2 vCPUs of a shared Xeon
host) changes speed by up to 1.6x in phases that last from a second to
several minutes, so the fastest time of the same fixed-input op moved by
up to 30% between runs a minute apart.  ``reference()`` times a fixed
kernel; the benchmark times it right before every timed op and every
set-up, and ``scaled`` turns the op's wall time into seconds at the
kernel's nominal speed ``REF_S``.  The kernel mixes the three kinds of
work slowvary does (exact ``Fraction`` arithmetic, dense LAPACK, memory
traffic over large arrays), because the host's slow phases slow them by
different factors.  It shares no code with slowvary.

Known limit: the kernel runs in the same process as the op, so a
program change that slows unrelated code in that process (for example
threads left busy after an op) is partly divided out.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

# the kernel's time in a fast phase of the host the benchmark was written on
REF_S = 0.030

_MAT = np.random.default_rng(0).standard_normal((120, 120))
_BIG = np.ones(2_000_000)


def _kernel() -> None:
    for _ in range(6):
        x = Fraction(1, 3)
        for i in range(1, 300):
            x = x * Fraction(i, i + 1) + Fraction(1, i)
    for _ in range(3):
        np.linalg.eigvals(_MAT)
    for _ in range(4):
        _BIG.copy()


def reference() -> float:
    """Seconds one kernel call takes now (garbage collector off meanwhile)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, ref: float) -> float:
    """``seconds`` measured when the kernel took ``ref``, at the nominal speed."""
    return seconds * REF_S / ref
