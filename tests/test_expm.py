"""The vectorised matrix exponential against ``scipy.linalg.expm``, slice by slice.

``simulate._expm`` runs the scaling and squaring algorithm of Al-Mohy &
Higham 2009 on a whole ``(rows, d, d)`` stack at once.  Each slice must
agree with ``scipy.linalg.expm`` of that slice to 1e-12 of the slice's
largest entry, a bound fixed before measuring.  Below the normal range a
float carries fewer significant bits, so the scale is floored at the
smallest normal number.  Both codes pick the Pade degree and the scaling
from the same bounds, but scipy estimates the 1-norm of ``|A|^(2m+1)``
that sets the extra squarings, where ``_expm`` computes it exactly.  So
the two can square a different number of times.  On real Gaussian 3x3
stacks of norm 10 and above that puts scipy's own error above 1e-12
(against a 50-digit reference, with ``_expm`` near 1e-15), and the
seeded random stacks here are complex, as the symbol tables are.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from slowvary import simulate
from slowvary.simulate import _expm, _half_spectrum, _symbol_table

RTOL = 1e-12
TINY = np.finfo(float).tiny


def _close(A):
    got = _expm(A)
    with np.errstate(over="ignore", invalid="ignore"):
        want = sla.expm(A)
    assert got.shape == want.shape and got.dtype == want.dtype
    # a slice whose exponential overflows is non-finite in both
    finite = np.isfinite(want).all(axis=(1, 2))
    assert (np.isfinite(got).all(axis=(1, 2)) == finite).all()
    scale = np.maximum(np.abs(want[finite]).max(axis=(1, 2)), TINY)
    err = np.abs(got[finite] - want[finite]).max(axis=(1, 2))
    assert (err <= RTOL * scale).all(), (err / scale).max()
    return got


def _walker_table(walker, grid=(32, 32), lengths=(48.0, 40.0)):
    _, _, kvecs, _ = _half_spectrum(lengths, grid)
    return _symbol_table(walker.ops, kvecs, walker.dimU)


@pytest.mark.parametrize("span", [1e-3, 0.1, 1.0, 10.0, 1e3, 1e6, 1e12, 1e20])
def test_walker_symbol_table(walker, span):
    S = _walker_table(walker)
    P = _close(S * span)
    # the conserved mode at kappa = 0 is a diagonal row: exactly exp
    assert P[0].tobytes() == np.diag(np.exp(np.diag(S[0]) * span)).tobytes()


@pytest.mark.parametrize("span", [1e-3, 0.1, 1.0, 10.0])
def test_physical_walker_symbol_table(walker_physical, span):
    _close(_walker_table(walker_physical) * span)


@pytest.mark.parametrize("norm", [1e-8, 1e-4, 1e-2, 0.1, 1.0, 3.0, 10.0, 100.0, 1e3])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_seeded_complex_stacks(norm, d):
    rng = np.random.default_rng([d, int(np.log10(norm) + 10)])
    A = rng.standard_normal((200, d, d)) + 1j * rng.standard_normal((200, d, d))
    A *= norm / np.abs(A).sum(axis=1).max(axis=1)[:, None, None]
    _close(A)


def _structured_rows():
    """Jordan, nilpotent, triangular and rotation-centre rows at several scales."""
    rows = []
    for lam in (0.0, -1.0, 2.0, -50.0, 0.3 + 4j, -1e3):
        J = lam * np.eye(3, dtype=complex) + np.diag([1.0, 1.0], 1)
        rows += [J, J.T, lam * np.eye(3) + np.diag([7.0], 2)[:3, :3]]
    rows.append(np.diag([1.0, 1.0], 1))                       # nilpotent
    rows.append(np.array([[0.0, 1e3, -2.0], [0.0, 0.0, 5.0], [0.0, 0.0, 0.0]]))
    rows.append(np.triu(np.arange(1.0, 10.0).reshape(3, 3)) * -1.0)
    rows.append(np.tril(np.arange(1.0, 10.0).reshape(3, 3)) * 0.5)
    rows.append(np.array([[-1.0, 30.0, 0.0], [0.0, -2.0, 40.0], [0.0, 0.0, -3.0]]))
    for w in (0.5, 1.3, 40.0):
        rot = np.zeros((3, 3))
        rot[:2, :2] = [[0.0, w], [-w, 0.0]]
        rot[2, 2] = -2.0
        rot[0, 2] = rot[2, 1] = 0.7
        rows.append(rot)
    return np.array(rows, dtype=complex)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 0.25, 30.0])
def test_structured_rows(scale):
    A = _structured_rows() * scale
    _close(A)
    _close(A.real.copy())


def test_one_by_one_stack_is_np_exp():
    a = np.array([0.0, -1.5, 3.0, -700.0, 1e-9, 800.0]).reshape(-1, 1, 1)
    for A in (a, a * (1 + 0.5j)):
        with np.errstate(over="ignore"):
            assert _expm(A).tobytes() == np.exp(A).tobytes()


def test_empty_stack():
    for dtype in (float, complex):
        P = _expm(np.zeros((0, 3, 3), dtype=dtype))
        assert P.shape == (0, 3, 3) and P.dtype == dtype


def test_diagonal_rows_are_exp_of_the_diagonal():
    rng = np.random.default_rng(4)
    ii = np.arange(3)
    D = np.zeros((50, 3, 3), dtype=complex)
    D[:, ii, ii] = rng.standard_normal((50, 3)) * 40 + 1j * rng.standard_normal((50, 3))
    want = np.zeros_like(D)
    want[:, ii, ii] = np.exp(D[:, ii, ii])
    assert _expm(D).tobytes() == want.tobytes()
    # mixed into a general stack, at shuffled positions
    G = rng.standard_normal((50, 3, 3)) + 0j
    perm = rng.permutation(100)
    P = _expm(np.concatenate([G, D])[perm])
    assert P[np.argsort(perm)][50:].tobytes() == want.tobytes()


def test_overflowing_rows_are_the_rows_scipy_makes_non_finite(walker):
    """At span 5e297 the powers of every row but the diagonal one overflow."""
    S = _walker_table(walker, grid=(8, 8), lengths=(16.0, 16.0)) * 5e297
    P = _close(S)
    finite = np.isfinite(P).all(axis=(1, 2))
    assert finite[0] and not finite[1:].any()


def test_chunked_rows_match_one_chunk(walker, monkeypatch):
    """Each row's arithmetic is its own, whatever chunk it goes through."""
    S = _walker_table(walker) * 0.7
    whole = _expm(S)
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 7 * S[0].nbytes)
    assert _expm(S).tobytes() == whole.tobytes()
