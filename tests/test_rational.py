"""RatMatrix (integer numerators over one denominator) and the exact solvers
against plain Fraction arrays."""

import math
from fractions import Fraction

import numpy as np
import pytest

from slowvary._rational import (
    RatMatrix,
    _decode_entry,
    _matrix,
    as_fractions,
    as_ratmatrix,
    decode_matrix,
    inverse_exact,
    load_json,
    nullspace_exact,
    solve_exact,
)


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
    # slices: a block, a column, a single entry
    i0, i1 = sorted(int(x) for x in rng.integers(0, p + 1, 2))
    j0, j1 = sorted(int(x) for x in rng.integers(0, q + 1, 2))
    _assert_equal(RA[i0:i1, j0:j1], A[i0:i1, j0:j1])
    j = int(rng.integers(0, q))
    _assert_equal(RA[:, j:j + 1], A[:, j:j + 1])
    _assert_equal(RA[:, j], A[:, j])
    assert RA[p - 1, j] == A[p - 1, j] and isinstance(RA[p - 1, j], Fraction)
    _assert_equal(RatMatrix.block([[RA, RC, RA[:, j:j + 1]]]),
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


# -- the exact solvers against a plain-Fraction Gauss-Jordan ---------------------


def _fraction_rref(rows, ncols):
    """Reduced row echelon form of a list of Fraction rows, in place."""
    pivots, r = [], 0
    for c in range(ncols):
        best = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _oracle_solve(A, B):
    nr, nc = A.shape
    rows = [list(A[i]) + list(B[i]) for i in range(nr)]
    pivots = _fraction_rref(rows, nc)
    if len(pivots) < nc:
        raise ValueError("underdetermined")
    if any(x != 0 for row in rows[nc:] for x in row[nc:]):
        raise ValueError("inconsistent")
    return np.array([row[nc:] for row in rows[:nc]], dtype=object).reshape(nc, B.shape[1])


def _oracle_nullspace(A):
    nr, nc = A.shape
    rows = [list(A[i]) for i in range(nr)]
    pivots = _fraction_rref(rows, nc)
    free = [c for c in range(nc) if c not in pivots]
    out = np.full((nc, len(free)), Fraction(0), dtype=object)
    for k, fc in enumerate(free):
        out[fc, k] = Fraction(1)
        for r, pc in enumerate(pivots):
            out[pc, k] = -rows[r][fc]
    return out


def _outcome(fn, *args):
    """``("ok", entries)`` or ``("error", kind)`` of an exact solve."""
    try:
        return "ok", as_fractions(fn(*args)).tolist()
    except ValueError as exc:
        return "error", "inconsistent" if "inconsistent" in str(exc) else "underdetermined"


# (rows, columns, rank): square regular and singular, tall (inconsistent for a
# random right-hand side), wide, zero and nearly full rank
_SOLVER_SHAPES = [(4, 4, 4), (4, 4, 2), (6, 3, 3), (3, 5, 3), (5, 5, 0), (1, 1, 1),
                  (6, 6, 5)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nr, nc, rank", _SOLVER_SHAPES,
                         ids=[f"{r}x{c}-rank{k}" for r, c, k in _SOLVER_SHAPES])
def test_property_exact_solvers_match_fraction_gauss_jordan(nr, nc, rank, seed):
    rng = np.random.default_rng(7100 + 10 * seed + nr + nc + rank)
    dens = _DENOMINATORS["mixed"]
    factors = [_random_fractions(rng, shape, dens) for shape in ((nr, rank), (rank, nc))]
    for f in factors:
        f[f == 0] = Fraction(1)  # zero-free factors keep the rank at ``rank``
    A = factors[0] @ factors[1] if rank else np.zeros((nr, nc), dtype=int)
    A = np.array([Fraction(x) for x in A.flat], dtype=object).reshape(nr, nc)
    X0 = _random_fractions(rng, (nc, 2), dens)
    B_random = _random_fractions(rng, (nr, 3), dens)
    RA = RatMatrix.from_fractions(A)
    full_rank = rank == nc

    N = nullspace_exact(RA)
    _assert_equal(N, _oracle_nullspace(A))
    assert N.shape == (nc, nc - rank) and not (RA @ N).any()

    # consistent: B = A X0 is solved by X0 exactly when A has full column rank
    B = A @ X0
    got = _outcome(solve_exact, RA, RatMatrix.from_fractions(B))
    assert got == _outcome(_oracle_solve, A, B)
    assert got == (("ok", X0.tolist()) if full_rank else ("error", "underdetermined"))
    got = _outcome(solve_exact, RA, RatMatrix.from_fractions(B_random))
    assert got == _outcome(_oracle_solve, A, B_random)
    if nr > nc and full_rank:
        assert got == ("error", "inconsistent")
    if nr == nc:
        eye = np.array([[Fraction(int(i == j)) for j in range(nc)] for i in range(nc)])
        got = _outcome(inverse_exact, RA)
        assert got == _outcome(_oracle_solve, A, eye)
        assert got[0] == ("ok" if full_rank else "error")
    else:
        with pytest.raises(ValueError, match="non-square"):
            inverse_exact(RA)


def test_ratmatrix_refuses_fraction_arrays():
    A = np.array([[Fraction(1, 2)]], dtype=object)
    R = RatMatrix.from_fractions(A)
    for bad in (lambda: R @ A, lambda: A @ R, lambda: R + A, lambda: A + R,
                lambda: R - A, lambda: A - R):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("seed", range(6))
def test_property_ratmatrix_stacks_match_fraction_arrays(seed):
    """Stacks of shape (K, d, m): ``@`` on either side against Fraction arrays."""
    rng = np.random.default_rng(7100 + seed)
    K, d, m = (int(x) for x in rng.integers(1, 5, 3))
    kinds = list(_DENOMINATORS)
    S = _random_fractions(rng, (K, d, m), _DENOMINATORS[kinds[seed % 3]])
    L = _random_fractions(rng, (d, d), _DENOMINATORS[kinds[(seed + 1) % 3]])
    A = _random_fractions(rng, (m, m), _DENOMINATORS["mixed"])
    RS, RL, RA = (RatMatrix.from_fractions(x) for x in (S, L, A))
    _assert_equal(RL @ RS, np.matmul(L, S))
    _assert_equal(RS @ RA, np.matmul(S, A))


def _decode_one_by_one(rows):
    return _matrix([[_decode_entry(x, False) for x in row] for row in rows], float)


@pytest.mark.parametrize("seed", range(4))
def test_float_decode_matches_entry_by_entry(seed):
    """The vectorised float decode gives the bits of decoding each entry
    alone: ints (also beyond 2^53), floats, signed zeros."""
    from slowvary._rational import decode_matrix

    rng = np.random.default_rng(seed)
    pool = [0, -0.0, 1, -7, 2**53 + 1, 3**40, 10**300, 1e-310, -2.5e17, 0.1]
    rows = [[pool[i] if i < len(pool) else float(rng.standard_normal()) * 10.0 ** int(i)
             for i in rng.integers(0, 2 * len(pool), 5)] for _ in range(4)]
    got, want = decode_matrix(rows), _decode_one_by_one(rows)
    assert got.dtype == want.dtype and got.shape == want.shape == (4, 5)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows, message", [
    ([[1.0, True]], "matrix entry True is not a finite float64"),
    ([[1.0, "2"], [float("nan"), 0]], "matrix entry nan is not a finite float64"),
    ([[1, 10**400]], f"matrix entry {10**400} is not a finite float64"),
    ([[float("inf")]], "matrix entry inf is not a finite float64"),
    ([[None]], "matrix entry None is not a finite float64"),
    ([[[1]]], "matrix entry [1] is not a finite float64"),
    ([[1, 2], [3]], "matrix has ragged rows"),
])
def test_float_decode_names_the_first_bad_entry(rows, message):
    with pytest.raises(ValueError) as err:
        decode_matrix(rows)
    assert str(err.value) == message


def test_load_json_names_a_repeated_key(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": {"b": 1, "c": 2, "b": 3}, "b": 4}')
    with pytest.raises(ValueError, match="key 'b' is repeated in one JSON object"):
        load_json(path)
    path.write_text('{"a": {"b": 1}, "b": [{"b": 2}]}')  # one key in different objects
    assert load_json(path) == {"a": {"b": 1}, "b": [{"b": 2}]}
