from fractions import Fraction

import numpy as np
import pytest

from slowvary import OperatorFamily, enumerate_indices
from slowvary._rational import frac_matrix
from slowvary.models import random_walker_modal, random_walker_physical


@pytest.fixture(scope="session")
def walker():
    return random_walker_modal()


@pytest.fixture(scope="session")
def walker_exact():
    return random_walker_modal(exact=True)


@pytest.fixture(scope="session")
def walker_physical():
    return random_walker_physical()


def wavevectors(lengths, grid):
    """Full-grid wavevector components in ``fftfreq`` order, as ``simulate``
    computes each axis's wavenumbers."""
    freqs = [2 * np.pi * np.fft.fftfreq(g, d=L / g) for g, L in zip(grid, lengths)]
    return np.meshgrid(*freqs, indexing="ij")


def random_gap_family(
    rng,
    dimU: int = 4,
    M: int = 2,
    m: int = 1,
    max_order: int = 2,
    centre: str = "zero",
) -> OperatorFamily:
    """Random operator family with an exact m-dimensional centre and gap >= 1.

    The base operator is built orthogonally similar to a block-diagonal
    matrix whose centre block has zero real part and whose stable part has
    real parts in [-4, -1], so the split assumptions hold by construction.
    ``centre`` picks the centre block: "zero" (semisimple), "jordan"
    (nilpotent chain), or "rotation" (imaginary pair, needs m = 2).
    """
    if centre == "zero":
        C = np.zeros((m, m))
    elif centre == "jordan":
        C = np.diag(np.ones(m - 1), 1)
    elif centre == "rotation":
        assert m == 2
        w = 0.5 + rng.random()
        C = np.array([[0.0, w], [-w, 0.0]])
    else:
        raise ValueError(centre)
    B = np.zeros((dimU, dimU))
    B[:m, :m] = C
    i = m
    while i < dimU:
        a = -1.0 - 3.0 * rng.random()
        if i + 1 < dimU and rng.random() < 0.5:
            b = 0.5 + rng.random()
            B[i : i + 2, i : i + 2] = [[a, b], [-b, a]]
            i += 2
        else:
            B[i, i] = a
            i += 1
    Q = np.linalg.qr(rng.standard_normal((dimU, dimU)))[0]
    ops = {(0,) * M: Q @ B @ Q.T}
    for k in enumerate_indices(M, max_order):
        if sum(k) == 0:
            continue
        ops[k] = rng.standard_normal((dimU, dimU)) / (1.0 + sum(k))
    return OperatorFamily(ops)


def random_rational_family(
    rng, dimU: int = 4, M: int = 1, m: int = 1, max_order: int = 2
) -> OperatorFamily:
    """Random Fraction-valued family with an exact m-dimensional zero centre.

    ``L_0 = P D P^-1`` where P is a unit lower times a unit upper
    triangular integer matrix (determinant 1, so P^-1 is an integer matrix
    too) and D is diagonal with m zeros and stable entries in -1..-4.
    Higher operators have entries in quarters between -1 and 1.  The exact
    split applies: the centre is semisimple with a rational eigenvalue.
    """
    lower = np.tril(rng.integers(-1, 2, (dimU, dimU)), -1) + np.eye(dimU, dtype=int)
    upper = np.triu(rng.integers(-1, 2, (dimU, dimU)), 1) + np.eye(dimU, dtype=int)
    P = lower @ upper
    P_inv = np.rint(np.linalg.inv(P)).astype(int)
    assert (P @ P_inv == np.eye(dimU, dtype=int)).all()
    D = np.diag([0] * m + [-int(x) for x in rng.integers(1, 5, dimU - m)])
    ops = {(0,) * M: frac_matrix((P @ D @ P_inv).tolist())}
    for k in enumerate_indices(M, max_order):
        if sum(k) == 0:
            continue
        quarters = rng.integers(-4, 5, (dimU, dimU))
        ops[k] = frac_matrix([[Fraction(int(x), 4) for x in row] for row in quarters])
    return OperatorFamily(ops)


# (seed, centre, m, M) of the seeded JSON round-trip cases besides the walker
_ROUNDTRIP_CASES = [(5000, "zero", 1, 1), (5001, "zero", 3, 2), (5002, "jordan", 2, 2),
                    (5003, "rotation", 2, 1)]


@pytest.fixture(params=["walker", *_ROUNDTRIP_CASES],
                ids=lambda c: c if c == "walker" else f"{c[1]}-m{c[2]}-M{c[3]}")
def family_pair(request, walker, walker_exact):
    """A float family, an exact family and the float family's centre band.

    Besides the walker: a ``random_gap_family`` of the given centre kind and
    a ``random_rational_family`` with the same m and M, both from one seed.
    """
    if request.param == "walker":
        return walker, walker_exact, None
    seed, centre, m, M = request.param
    rng = np.random.default_rng(seed)
    fam = random_gap_family(rng, dimU=int(rng.integers(m + 2, 9)), M=M, m=m, centre=centre)
    exact = random_rational_family(rng, dimU=int(rng.integers(m + 2, 6)), M=M, m=m)
    return fam, exact, 1e-6 if centre == "jordan" else None
