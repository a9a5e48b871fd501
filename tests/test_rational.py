"""RatMatrix (integer numerators over one denominator) against Fraction arrays."""

import math
from fractions import Fraction

import numpy as np
import pytest

from slowvary._rational import RatMatrix, as_fractions, as_ratmatrix


def _random_fractions(rng, shape, dens):
    """Fraction array with mixed signs and about a quarter zeros.

    ``dens`` is the pool the denominators are drawn from: one shared value,
    pairwise coprime primes, or a mix with common factors.
    """
    num = rng.integers(-30, 31, shape)
    num[rng.random(shape) < 0.25] = 0
    den = rng.choice(dens, shape)
    out = np.empty(shape, dtype=object)
    out.flat = [Fraction(int(p), int(q)) for p, q in zip(num.flat, den.flat)]
    return out


_DENOMINATORS = {"shared": [12], "coprime": [1, 2, 3, 5, 7, 11, 13],
                 "mixed": [1, 2, 4, 6, 9, 10, 15, 36]}


def _assert_normal(R):
    assert isinstance(R, RatMatrix)
    assert isinstance(R.den, int) and R.den > 0
    assert all(isinstance(x, int) for x in R.num.flat)
    assert math.gcd(R.den, *R.num.flat) == 1
    if not any(R.num.flat):
        assert R.den == 1


def _assert_equal(R, F):
    _assert_normal(R)
    assert R.shape == F.shape
    assert R.to_fractions().tolist() == F.tolist()


def _cases():
    for seed in range(24):
        rng = np.random.default_rng(7000 + seed)
        p, q, r = (int(x) for x in rng.integers(1, 9, 3))
        kinds = list(_DENOMINATORS)
        a, b = kinds[seed % 3], kinds[(seed // 3) % 3]
        yield pytest.param(seed, p, q, r, a, b, id=f"{seed}-{p}x{q}x{r}-{a}-{b}")


@pytest.mark.parametrize("seed, p, q, r, kind_a, kind_b", _cases())
def test_property_ratmatrix_matches_fraction_arrays(seed, p, q, r, kind_a, kind_b):
    rng = np.random.default_rng(7000 + seed)
    rng.integers(1, 9, 3)  # the shape draw of _cases
    A = _random_fractions(rng, (p, q), _DENOMINATORS[kind_a])
    B = _random_fractions(rng, (q, r), _DENOMINATORS[kind_b])
    C = _random_fractions(rng, (p, q), _DENOMINATORS[kind_b])
    RA, RB, RC = (RatMatrix.from_fractions(x) for x in (A, B, C))
    for R, F in ((RA, A), (RB, B), (RC, C)):
        _assert_equal(R, F)
        assert R.any() == any(x != 0 for x in F.flat)
    _assert_equal(RA @ RB, A @ B)
    _assert_equal(RA + RC, A + C)
    _assert_equal(RA - RC, A - C)
    _assert_equal(RC - RA, C - A)
    _assert_equal(RA - RA, A - A)
    _assert_equal(-RA, -A)
    _assert_equal(RA.T, A.T)
    for c in (3, -2, 0, Fraction(5, 6), Fraction(-7, 4)):
        _assert_equal(RA * c, A * c)
        _assert_equal(c * RA, A * c)
    _assert_equal(abs(RA), abs(A))
    assert RA.max() == A.max()
    # mixed with Fraction arrays on either side
    _assert_equal(A @ RB, A @ B)
    _assert_equal(RA @ B, A @ B)
    _assert_equal(A + RC, A + C)
    _assert_equal(A - RC, A - C)
    # slices: a block, a column, a single entry
    i0, i1 = sorted(int(x) for x in rng.integers(0, p + 1, 2))
    j0, j1 = sorted(int(x) for x in rng.integers(0, q + 1, 2))
    _assert_equal(RA[i0:i1, j0:j1], A[i0:i1, j0:j1])
    j = int(rng.integers(0, q))
    _assert_equal(RA[:, j:j + 1], A[:, j:j + 1])
    _assert_equal(RA[:, j], A[:, j])
    assert RA[p - 1, j] == A[p - 1, j] and isinstance(RA[p - 1, j], Fraction)
    _assert_equal(RatMatrix.hstack([RA, RC, RA[:, j:j + 1]]),
                  np.hstack([A, C, A[:, j:j + 1]]))
    # the converters pass other matrices through
    assert as_fractions(as_ratmatrix(A)).tolist() == A.tolist()
    floats = np.asarray(A, dtype=float)
    assert as_ratmatrix(floats) is floats and as_fractions(floats) is floats


def test_ratmatrix_normal_form_of_constructor():
    R = RatMatrix(np.array([[4, -6], [0, 10]], dtype=object), -8)
    assert (R.num.tolist(), R.den) == ([[-2, 3], [0, -5]], 4)
    Z = RatMatrix(np.zeros((3, 2), dtype=object), 7)
    assert (Z.num.tolist(), Z.den, Z.any()) == ([[0, 0]] * 3, 1, False)
    big = RatMatrix.from_fractions(np.array([[Fraction(3, 10**40 + 1), 0]], dtype=object))
    _assert_equal(big * (10**40 + 1), np.array([[Fraction(3), Fraction(0)]], dtype=object))


def test_ratmatrix_refuses_floats():
    R = RatMatrix.from_fractions(np.array([[Fraction(1, 2)]], dtype=object))
    for bad in (lambda: R + np.ones((1, 1)), lambda: np.ones((1, 1)) @ R,
                lambda: R * 0.5):
        with pytest.raises(TypeError):
            bad()
