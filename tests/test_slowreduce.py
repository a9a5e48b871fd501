import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sparse

import slowvary as sv
from slowvary._rational import encode_arrays, frac_matrix, save_json
from slowvary.errors import SylvesterInconsistent
from slowvary.multiindex import index_factorial, index_sub
from slowvary.slowreduce import solve_constrained_sylvester

from conftest import random_gap_family, random_rational_family
from test_stack_reference import assert_matches_solved_route
from test_stack_reference import check_invariance as derivative_form_residual

F = Fraction

# Dispersion coefficients of the walker's slow branch, frozen from a
# symbolic perturbation expansion of the eigenvalue near zero (independent
# of the recursion implemented here).
WALKER_DISPERSION = {
    (1, 0): F(-1, 3),
    (2, 0): F(8, 27),
    (0, 2): F(2, 3),
    (3, 0): F(16, 243),
    (1, 2): F(-20, 27),
    (4, 0): F(-32, 2187),
    (2, 2): F(16, 81),
    (0, 4): F(-10, 27),
    (5, 0): F(-320, 19683),
    (3, 2): F(160, 2187),
    (1, 4): F(100, 81),
}


def test_walker_order_two_float(walker):
    model, _ = sv.construct_reduction(walker, N=2)
    assert model.m == 1 and model.N == 2
    for n, val in [((1, 0), -1 / 3), ((2, 0), 8 / 27), ((0, 2), 2 / 3)]:
        assert abs(float(model.A[n][0, 0]) - val) < 1e-12
    for n in [(0, 0), (0, 1), (1, 1)]:
        assert abs(float(model.A[n][0, 0])) < 1e-12


def test_walker_order_two_exact(walker_exact):
    model, _ = sv.construct_reduction(walker_exact, N=2)
    assert model.is_exact
    assert model.A[(1, 0)][0, 0] == F(-1, 3)
    assert model.A[(2, 0)][0, 0] == F(8, 27)
    assert model.A[(0, 2)][0, 0] == F(2, 3)
    for n in [(0, 0), (0, 1), (1, 1)]:
        assert model.A[n][0, 0] == 0


def test_walker_order_three_exact(walker_exact):
    model, _ = sv.construct_reduction(walker_exact, N=3)
    assert model.A[(3, 0)][0, 0] == F(16, 243)
    assert model.A[(1, 2)][0, 0] == F(-20, 27)
    assert model.A[(2, 1)][0, 0] == 0
    assert model.A[(0, 3)][0, 0] == 0


def test_walker_matches_dispersion_to_order_five(walker_exact):
    model, _ = sv.construct_reduction(walker_exact, N=5)
    for n, An in model.A.items():
        assert An[0, 0] == WALKER_DISPERSION.get(n, 0), n


def test_walker_basis_vectors_exact(walker_exact):
    _, basis = sv.construct_reduction(walker_exact, N=2)
    golden = {
        (1, 0): [0, 0, F(-2, 9)],
        (0, 1): [0, -1, 0],
        (2, 0): [0, 0, F(-4, 81)],
        (1, 1): [0, F(8, 9), 0],
        (0, 2): [0, 0, F(1, 9)],
    }
    assert basis.vectors[(0, 0)][:, 0].tolist() == [1, 0, 0]
    for n, vec in golden.items():
        assert basis.vectors[n][:, 0].tolist() == vec, n


def test_generating_polynomial_structure(walker_exact):
    _, basis = sv.construct_reduction(walker_exact, N=2)
    # coefficient at exponent k is V^{n-k} / k!
    p = basis.poly[(2, 0)]
    assert p[(0, 0)][2, 0] == F(-4, 81)
    assert p[(1, 0)][2, 0] == F(-2, 9)
    assert p[(2, 0)][0, 0] == F(1, 2)  # V0 / 2!
    # the exponent-0 coefficient is the plain vector itself
    assert p[(0, 0)] is basis.vectors[(2, 0)]


def test_invariance_residual(walker, walker_exact):
    model, basis = sv.construct_reduction(walker, N=3)
    assert sv.check_invariance(walker, model, basis) < 1e-12
    me, be = sv.construct_reduction(walker_exact, N=3)
    assert sv.check_invariance(walker_exact, me, be) == 0


def test_construction_routes_agree_exactly(walker_exact):
    """The recursion on the vectors is the every-exponent solve's exponent-0
    sweep, and the polynomials formed from its vectors are the solved ones."""
    assert_matches_solved_route(walker_exact, 3, sv.spectral_split(walker_exact, 3))


@pytest.mark.parametrize("seed", range(20))
def test_construction_routes_agree_random(seed):
    rng = np.random.default_rng(1000 + seed)
    dimU = int(rng.integers(2, 6))
    N = int(rng.integers(1, 4))
    fam = random_gap_family(rng, dimU=dimU, m=1, max_order=2)
    model, basis = assert_matches_solved_route(fam, N, sv.spectral_split(fam, N))
    scale = max(np.abs(op).max() for op in fam.ops.values())
    assert sv.check_invariance(fam, model, basis) < 1e-9 * max(1, scale)


@pytest.mark.parametrize("centre", ["jordan", "rotation"])
def test_matrix_valued_centre_blocks(centre):
    # m = 2: the closure coefficients are genuinely matrix valued
    rng = np.random.default_rng(42 if centre == "jordan" else 43)
    fam = random_gap_family(rng, dimU=5, m=2, centre=centre)
    alpha = 1e-6 if centre == "jordan" else None
    split = sv.spectral_split(fam, N=2, alpha=alpha)
    m1, b1 = assert_matches_solved_route(fam, 2, split)
    for n in m1.A:
        assert m1.A[n].shape == (2, 2)
    assert sv.check_invariance(fam, m1, b1) < 1e-9


def test_base_operator_only_family():
    L0 = np.diag([0.0, -2.0, -5.0])
    fam = sv.OperatorFamily({(0, 0): L0})
    model, basis = sv.construct_reduction(fam, N=2)
    for n, An in model.A.items():
        expected = 0.0
        assert np.abs(An).max() == pytest.approx(expected, abs=1e-14), n
    for n, v in basis.vectors.items():
        if sum(n) > 0:
            assert np.abs(v).max() < 1e-14
    assert sv.check_invariance(fam, model, basis) < 1e-14


def test_sylvester_solver_well_posed():
    rng = np.random.default_rng(5)
    fam = random_gap_family(rng, dimU=5, m=1)
    split = sv.spectral_split(fam, N=2)
    raw = rng.standard_normal((5, 1))
    # solvability needs the right side clear of the left kernel (span Z0)
    rhs = raw - split.V0 @ (split.Z0.T @ raw)
    V = solve_constrained_sylvester(fam.L0, split.A0, split.Z0, rhs)
    res = fam.L0 @ V - V @ split.A0 - rhs
    assert np.abs(res).max() < 1e-10
    assert np.abs(split.Z0.T @ V).max() < 1e-10


def test_sylvester_solver_nonzero_constraint():
    rng = np.random.default_rng(6)
    fam = random_gap_family(rng, dimU=4, m=1)
    split = sv.spectral_split(fam, N=2)
    raw = rng.standard_normal((4, 1))
    rhs = raw - split.V0 @ (split.Z0.T @ raw)
    target = np.array([[0.25]])
    V = solve_constrained_sylvester(
        fam.L0, split.A0, split.Z0, rhs, constraint=target
    )
    assert np.abs(split.Z0.T @ V - target).max() < 1e-10
    res = fam.L0 @ V - V @ split.A0 - rhs
    assert np.abs(res).max() < 1e-10


def test_model_json_roundtrip(tmp_path, family_pair):
    fam, fam_exact, alpha = family_pair
    model, _ = sv.construct_reduction(fam, N=3, alpha=alpha)
    p = tmp_path / "model.json"
    model.save(p)
    back = sv.ReducedModel.load(p)
    assert (back.N, back.m, back.M) == (3, model.m, fam.M)
    assert back.A.keys() == model.A.keys()
    for n in model.A:  # bitwise
        assert back.A[n].dtype == np.float64
        assert back.A[n].tobytes() == model.A[n].tobytes()

    me, _ = sv.construct_reduction(fam_exact, N=2)
    pe = tmp_path / "exact.json"
    me.save(pe)
    be = sv.ReducedModel.load(pe, exact=True)
    if fam_exact.label == "walker-modal":
        assert be.A[(2, 0)][0, 0] == F(8, 27)
    assert be.is_exact and be.A.keys() == me.A.keys()
    for n in me.A:
        assert be.A[n].tolist() == me.A[n].tolist()
    # exact file read as float equals the float conversion
    bf = sv.ReducedModel.load(pe)
    for n in me.A:
        assert bf.A[n].tobytes() == me.to_float().A[n].tobytes()


def _assert_saved_as_json_dump(path, doc):
    """The file at ``path`` holds ``json.dumps`` of list document ``doc``."""
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_save_json_bytes_match_json_dump(tmp_path, family_pair):
    fam, fam_exact, alpha = family_pair
    for f, a in ((fam, alpha), (fam_exact, None)):
        model, basis = sv.construct_reduction(f, N=2, alpha=a)
        for obj in (f, model, basis):
            obj.save(tmp_path / "doc.json")
            _assert_saved_as_json_dump(tmp_path / "doc.json", obj.to_json())


def test_save_json_bytes_match_json_dump_cell_and_odd_entries(tmp_path):
    cell = sv.homogenisation_cell(sv.CellProblem.from_expression("layered_cos", n=16))
    _, basis = sv.construct_reduction(cell, N=2, split=sv.cell_spectral_split(cell, N=2))
    basis.save(tmp_path / "cell.json")
    _assert_saved_as_json_dump(tmp_path / "cell.json", basis.to_json())
    # separators, brackets and escapes inside string entries; mixed and
    # nested shapes that are not matrices, beside array leaves
    odd = {
        "strings": np.array([["1/2, 3", "], [", "a\nb"], ['"', "\\", "\u00e9"]], dtype=object),
        "fractions": frac_matrix([[F(1, 3), -2], [F(-7, 4), 0]]),
        "floats": np.array([[1, 2.5, float("nan"), -float("inf"), -0.0, 5e-324]]),
        "transposed": np.arange(6.0).reshape(2, 3).T,
        "mixed": [[1, 2.5, None, True, float("nan"), -float("inf")]],
        "empty": [[], []],
        "nested": [[[1, 2]], [[3]]],
        "tuple-rows": [(1, 2), (3, 4)],
        "dicts": [{"b": [[1]], "a": 2}],
        "keys": {"z": {}, "y": [], "x": 3, "w": "s"},
        "int-keys": {2: [[1]], 1: [[2]]},
    }
    save_json(tmp_path / "odd.json", odd)
    _assert_saved_as_json_dump(tmp_path / "odd.json", encode_arrays(odd))


@pytest.mark.parametrize("doc", [
    {"N": 2, "m": 1, "A": [[[1]]]},
    {"N": 2, "m": 1, "A": "0,0"},
    {"N": 2.5, "m": 1, "A": {"0,0": [[0]]}},
], ids=["A-list", "A-string", "N-not-integer"])
def test_model_from_json_rejects_garbage(doc):
    with pytest.raises(ValueError):
        sv.ReducedModel.from_json(doc)


@pytest.mark.parametrize("table, message", [
    ({"0,0": [[0]], "2,0": [[1]], "02,0": [[5]]},
     "coefficient keys '2,0' and '02,0' name the same index"),
    ({"0,0": [[0]], "5,0": [[1]]}, "coefficient '5,0' has order 5 > N = 2"),
    ({"0,0": [[0]], "2": [[1]]}, "coefficient key '2' does not have 2 components"),
], ids=["repeated-index", "order-above-N", "key-components"])
def test_model_from_json_names_the_offending_keys(table, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sv.ReducedModel.from_json({"N": 2, "m": 1, "A": table})


def test_symbol_and_equation_text(walker):
    model, _ = sv.construct_reduction(walker, N=2)
    kappa = (0.3, 0.4)
    sym = sv.symbol_matrix(model, kappa)
    expected = (
        -1 / 3 * (1j * 0.3)
        + 8 / 27 * (1j * 0.3) ** 2
        + 2 / 3 * (1j * 0.4) ** 2
    )
    assert abs(sym[0, 0] - expected) < 1e-12
    text = model.equation_text()
    assert text.startswith("∂t U = ")
    assert "∂x U" in text and "∂yy U" in text


def test_coefficient_lookup_missing_index(walker):
    model, _ = sv.construct_reduction(walker, N=2)
    assert np.abs(model.coefficient((5, 5))).max() == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_sylvester_non_finite_rhs_raises(walker, bad):
    split = sv.spectral_split(walker, N=2)
    rhs = np.zeros((walker.dimU, split.m))
    rhs[1, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(SylvesterInconsistent):
        solve_constrained_sylvester(walker.L0, split.A0, split.Z0, rhs)


_ARITHMETIC = pytest.mark.parametrize(
    "convert", [np.array, frac_matrix], ids=["float", "exact"]
)


@_ARITHMETIC
def test_sylvester_inconsistent_detected(convert):
    # a forced wrong constraint target on a rank-deficient direction
    L0 = convert([[0.0, 0.0], [0.0, -1.0]])
    A0 = convert([[0.0]])
    Z0 = convert([[1.0], [0.0]])
    rhs = convert([[1.0], [0.0]])  # rhs has content along the kernel
    with pytest.raises(SylvesterInconsistent):
        solve_constrained_sylvester(L0, A0, Z0, rhs, tol=1e-12)


@_ARITHMETIC
def test_sylvester_singular_border_is_named(convert):
    # A0 = [-1] is a stable eigenvalue of L0: no valid split, and the
    # bordered matrix for t = -1 is singular
    L0 = convert([[0.0, 0.0], [0.0, -1.0]])
    A0 = convert([[-1.0]])
    Z0 = convert([[1.0], [0.0]])
    rhs = convert([[0.0], [1.0]])
    with pytest.raises(SylvesterInconsistent, match="singular at t = -1"):
        solve_constrained_sylvester(L0, A0, Z0, rhs)


@pytest.mark.parametrize("seed, centre, m, alpha", [
    (2101, "zero", 2, None), (2102, "rotation", 2, None), (2103, "jordan", 2, 1e-6),
])
def test_stacked_sweep_solves_real_and_imaginary_parts(seed, centre, m, alpha):
    """The symbol-order check corrects K complex residuals with one float
    sweep of their real and imaginary parts, stacked as ``(dimU, 2K, m)``.
    Every system is solved, each as its own ``solve`` would; the rotation
    centre sweeps on the complex Schur form.  Like the check's residuals,
    the right-hand sides satisfy ``Z0.T R = 0``, the condition for a
    solution with ``Z0.T Y = 0``."""
    from slowvary.slowreduce import _BorderedSylvester

    rng = np.random.default_rng(seed)
    d, K = 8, 5
    fam = random_gap_family(rng, dimU=d, M=2, m=m, centre=centre)
    split = sv.spectral_split(fam, 2, alpha)
    L0, A0, Z0 = fam.L0, split.A0, split.Z0
    solver = _BorderedSylvester(L0, A0, Z0)
    if centre == "rotation":
        assert np.iscomplexobj(solver._T)  # swept on the complex Schur form
    R = rng.standard_normal((d, K, m)) + 1j * rng.standard_normal((d, K, m))
    R -= np.einsum("di,ei,ekj->dkj", split.V0, Z0, R)  # (I - V0 Z0.T) R
    Y = solver.sweep(np.concatenate([R.real, R.imag], axis=1), np.zeros((m, 2 * K, m)))
    Y = Y[:, :K] + 1j * Y[:, K:]
    scale = max(np.abs(R).max(), np.abs(Y).max() * (np.abs(L0).max() + np.abs(A0).max()))
    assert np.abs(np.einsum("de,ekm->dkm", L0, Y) - Y @ A0 - R).max() <= 1e-12 * scale
    assert np.abs(np.einsum("dm,dkn->mkn", Z0, Y)).max() <= 1e-12 * scale
    zero = np.zeros((m, m))
    for k in range(K):
        one = solver.solve(R[:, k].real, zero) + 1j * solver.solve(R[:, k].imag, zero)
        assert np.abs(Y[:, k] - one).max() <= 1e-12 * np.abs(one).max()


@pytest.mark.parametrize("m", [2, 3])
def test_dense_and_csr_base_operators_give_the_same_bits(m):
    """A dense ``L0`` is bordered densely and a CSR one by ``sparse.bmat``;
    both give the same CSC matrix, so ``A_n`` and ``V^n`` agree bit for
    bit.  Only ``L0`` is stored as CSR, because a CSR product with the
    other ``L_k`` sums in another order than a dense one."""
    fam = random_gap_family(np.random.default_rng(2110 + m), dimU=10, M=2, m=m)
    zero = fam.zero_index
    csr = sv.OperatorFamily({k: sparse.csr_matrix(L) if k == zero else L
                             for k, L in fam.ops.items()})
    split = sv.spectral_split(fam, 3)
    (model, basis), (csr_model, csr_basis) = (
        sv.construct_reduction(f, 3, split=split) for f in (fam, csr))
    assert sorted(model.A) == sorted(csr_model.A)
    for n, An in model.A.items():
        assert An.tobytes() == csr_model.A[n].tobytes()
    for n, Vn in basis.vectors.items():
        assert Vn.tobytes() == csr_basis.vectors[n].tobytes()


# -- seeded property tests over random families --------------------------------
# Every centre kind the float split supports, m = 1..3 and M = 1, 2.  A Jordan
# chain of length 3 splits its eigenvalues by about eps**(1/3) ~ 5e-6, so it
# needs a wider centre band than a chain of length 2.

_CENTRES = [("zero", 1), ("zero", 2), ("zero", 3), ("jordan", 2), ("jordan", 3),
            ("rotation", 2)]
_PROPERTY_CASES = [
    pytest.param(2000 + 2 * i + M, centre, m, M, id=f"{centre}-m{m}-M{M}")
    for i, (centre, m) in enumerate(_CENTRES)
    for M in (1, 2)
]
_JORDAN_ALPHA = {2: 1e-6, 3: 1e-4}


def _property_family(seed, centre, m, M):
    rng = np.random.default_rng(seed)
    dimU = int(rng.integers(m + 2, 13))
    fam = random_gap_family(rng, dimU=dimU, M=M, m=m, centre=centre)
    alpha = _JORDAN_ALPHA[m] if centre == "jordan" else None
    return rng, fam, alpha


def _invariants(model, kappas):
    """Similarity invariants: trace of each A_n, char. polynomial of the symbol."""
    traces = [np.trace(model.to_float().A[n]) for n in sorted(model.A)]
    return np.concatenate([traces, *[np.poly(sv.symbol_matrix(model, k)) for k in kappas]])


def _assert_close(a, b, rel=1e-9):
    scale = max(1.0, float(np.abs(a).max()))
    assert np.abs(a - b).max() <= rel * scale, (np.abs(a - b).max(), scale)


@pytest.mark.parametrize("seed, centre, m, M", _PROPERTY_CASES)
def test_property_routes_agree(seed, centre, m, M):
    _, fam, alpha = _property_family(seed, centre, m, M)
    split = sv.spectral_split(fam, N=3, alpha=alpha)
    assert split.m == m
    m1, b1 = assert_matches_solved_route(fam, 3, split)
    ops_scale = max(1.0, max(float(np.abs(op).max()) for op in fam.ops.values()))
    assert sv.check_invariance(fam, m1, b1) <= 1e-9 * ops_scale


@pytest.mark.parametrize("seed, centre, m, M", _PROPERTY_CASES)
def test_property_micro_basis_invariance(seed, centre, m, M):
    rng, fam, alpha = _property_family(seed, centre, m, M)
    d = fam.dimU
    # well conditioned: singular values in [0.5, 2]
    Q1 = np.linalg.qr(rng.standard_normal((d, d)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((d, d)))[0]
    s = rng.uniform(0.5, 2.0, d)
    S, S_inv = Q1 @ np.diag(s) @ Q2, Q2.T @ np.diag(1 / s) @ Q1.T
    moved = sv.OperatorFamily({k: S @ L @ S_inv for k, L in fam.ops.items()})
    kappas = [0.4 * v / np.linalg.norm(v) for v in rng.standard_normal((3, M))]
    model, _ = sv.construct_reduction(fam, N=3, alpha=alpha)
    model_moved, _ = sv.construct_reduction(moved, N=3, alpha=alpha)
    _assert_close(_invariants(model, kappas), _invariants(model_moved, kappas))


@pytest.mark.parametrize("seed, M", [(3000, 1), (3001, 2), (3002, 2)])
def test_property_rotation_sylvester_real(seed, M):
    rng = np.random.default_rng(seed)
    fam = random_gap_family(rng, dimU=int(rng.integers(4, 13)), M=M, m=2,
                            centre="rotation")
    split = sv.spectral_split(fam, N=2)
    assert np.abs(split.centre_eigenvalues().imag).min() > 0.4
    # solvable: Z0.T rhs must equal the commutator A0 G - G A0
    target = rng.standard_normal((2, 2))
    raw = rng.standard_normal((fam.dimU, 2))
    rhs = raw - split.V0 @ (split.Z0.T @ raw - split.A0 @ target + target @ split.A0)
    V = solve_constrained_sylvester(fam.L0, split.A0, split.Z0, rhs, target)
    assert V.dtype == np.float64
    scale = max(1.0, float(np.abs(rhs).max()),
                float(np.abs(V).max()) * (np.abs(fam.L0).max() + np.abs(split.A0).max()))
    assert np.abs(fam.L0 @ V - V @ split.A0 - rhs).max() <= 1e-10 * scale
    assert np.abs(split.Z0.T @ V - target).max() <= 1e-10 * scale


@pytest.mark.parametrize("seed, m, M", [(4000, 1, 1), (4001, 1, 2), (4002, 2, 1),
                                        (4003, 2, 2)])
def test_property_exact_and_float_agree(seed, m, M):
    rng = np.random.default_rng(seed)
    fam = random_rational_family(rng, dimU=int(rng.integers(m + 2, 6)), M=M, m=m)
    exact, _ = sv.construct_reduction(fam, N=3)
    fl, _ = sv.construct_reduction(fam.to_float(), N=3)
    assert exact.is_exact and not fl.is_exact
    kappas = [0.4 * v / np.linalg.norm(v) for v in rng.standard_normal((3, M))]
    _assert_close(_invariants(exact, kappas), _invariants(fl, kappas))


def _fraction_invariance_residual(family, model, basis):
    """Largest entry of ``sum_l L_l d^l Vt^n - sum_k Vt^(n-k) A_k`` over all n.

    A test-local evaluation in plain Fraction object arrays: the derivative
    of ``xi^e`` by ``d^l`` is ``prod_i perm(e_i, l_i) xi^(e-l)``, and every
    monomial of both sides is compared.
    """
    zero_mat = np.full((family.dimU, model.m), F(0), dtype=object)
    worst = F(0)
    for n, poly in basis.poly.items():
        side = {}
        for l, L in family.ops.items():
            for e, c in poly.items():
                if all(a >= b for a, b in zip(e, l)):
                    weight = int(np.prod([math.perm(a, b) for a, b in zip(e, l)]))
                    key = tuple(a - b for a, b in zip(e, l))
                    side[key] = side.get(key, zero_mat) + L.dot(c) * weight
        for k in basis.poly:
            if all(a <= b for a, b in zip(k, n)):
                rest = tuple(b - a for a, b in zip(k, n))
                Ak = model.A.get(k, np.full((model.m, model.m), F(0), dtype=object))
                for e, c in basis.poly[rest].items():
                    side[e] = side.get(e, zero_mat) - c.dot(Ak)
        for diff in side.values():
            worst = max(worst, max(abs(x) for x in diff.flat))
    return worst


_ORACLE_CASES = [pytest.param("walker", method, id=f"walker-{method}")
                 for method in ("vectors", "generating")]
_ORACLE_CASES += [pytest.param(seed, "vectors", id=f"rational-{seed}") for seed in (4100, 4101)]


@pytest.mark.parametrize("case, method", _ORACLE_CASES)
def test_exact_invariance_against_fraction_oracle(walker_exact, case, method):
    if case == "walker":
        fam, N = walker_exact, 6
    else:
        rng = np.random.default_rng(case)
        fam = random_rational_family(rng, dimU=int(rng.integers(3, 6)), M=2, m=1 + case % 2)
        N = 3
    model, basis = sv.construct_reduction(fam, N=N, method=method)
    assert model.is_exact and basis.is_exact
    assert _fraction_invariance_residual(fam, model, basis) == 0
    assert sv.check_invariance(fam, model, basis) == 0
    # one entry of one A_n moved by 1e-9 must show in both evaluations
    n = sorted(model.A)[len(model.A) // 2]
    A = dict(model.A)
    A[n] = A[n].copy()
    A[n][0, 0] += F(1, 10**9)
    moved = sv.ReducedModel(M=model.M, N=model.N, m=model.m, A=A)
    assert _fraction_invariance_residual(fam, moved, basis) > 0
    assert sv.check_invariance(fam, moved, basis) > 0


@pytest.mark.parametrize("seed, M, N, m, support", [
    (4200, 1, 4, 1, [(0,), (2,)]),
    (4201, 2, 3, 2, [(0, 0), (2, 0), (0, 2)]),
], ids=["M1-0-2", "M2-00-20-02"])
def test_exact_family_with_support_gaps(seed, M, N, m, support):
    """Operators missing from the support leave ``A_n`` without a term and
    right-hand sides without an exponent: the recursion's exact zeros."""
    rng = np.random.default_rng(seed)
    full = random_rational_family(rng, dimU=int(rng.integers(m + 2, 6)), M=M, m=m)
    fam = sv.OperatorFamily({k: full.ops[k] for k in support})
    split = sv.spectral_split(fam, N)
    mv, bv = assert_matches_solved_route(fam, N, split)
    assert mv.is_exact
    assert sv.check_invariance(fam, mv, bv) == 0
    if M == 1:
        assert mv.A[(1,)].tolist() == np.zeros((m, m)).tolist()
        assert mv.A[(2,)].tolist() == (split.Z0.T @ fam.ops[(2,)] @ split.V0).tolist()


def _moved_largest(mats, n, delta):
    """A copy of the dict ``mats`` with the largest entry of ``mats[n]`` moved by ``delta``."""
    mats = dict(mats)
    c = mats[n] = mats[n].copy()
    i = np.unravel_index(np.argmax(np.abs(c.astype(float))), c.shape)
    c[i] += delta(c[i])
    return mats


def _moved_basis(basis, n, delta):
    return sv.GeneratingBasis(M=basis.M, N=basis.N, m=basis.m, dimU=basis.dimU,
                              vectors=_moved_largest(basis.vectors, n, delta))


@pytest.mark.parametrize("method", ["vectors", "generating"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_invariance_reports_every_moved_coefficient(walker_exact, method, exact):
    """Moving any one vector ``V^n`` or any one coefficient ``A_n`` shows in
    the residual: above 0 in exact mode, above the CLI's threshold in
    float.  An index or a term dropped from the check would leave some of
    these moves unseen."""
    if exact:
        fam, threshold = walker_exact, 0
        delta = lambda x: F(1, 10**9)  # noqa: E731
    else:
        rng = np.random.default_rng(2100)
        fam = random_gap_family(rng, dimU=7, M=2, m=2, centre="rotation")
        threshold = 1e-10 * max(1.0, max(float(np.abs(op).max()) for op in fam.ops.values()))
        delta = lambda x: 1e-8 * abs(x) or 1e-8  # noqa: E731
    model, basis = sv.construct_reduction(fam, N=3, method=method)
    assert sv.check_invariance(fam, model, basis) <= threshold
    for n in basis.vectors:
        moved = _moved_basis(basis, n, delta)
        assert sv.check_invariance(fam, model, moved) > threshold, ("V", n)
    for n in model.A:
        moved = sv.ReducedModel(M=model.M, N=model.N, m=model.m,
                                A=_moved_largest(model.A, n, delta))
        assert sv.check_invariance(fam, moved, basis) > threshold, ("A", n)


def test_invariance_residual_is_nan_for_a_nan_entry(walker):
    model, basis = sv.construct_reduction(walker, N=2)
    moved = _moved_basis(basis, (1, 0), lambda x: np.nan)
    assert math.isnan(sv.check_invariance(walker, model, moved))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_vectors_route_shares_coefficients(walker, walker_exact, exact):
    """``poly[n][k]`` is the array ``vectors[n-k]`` where ``k! == 1``; every
    other coefficient equals the separately formed ``vectors[n-k] * (1/k!)``
    (bitwise in float, as Fractions in exact mode), and each distinct
    ``V^j / q`` is one array."""
    fam = walker_exact if exact else walker
    _, basis = sv.construct_reduction(fam, N=4)
    formed = {}
    for n, p in basis.poly.items():
        assert p[(0, 0)] is basis.vectors[n]
        for k, c in p.items():
            j, q = index_sub(n, k), index_factorial(k)
            V = basis.vectors[j]
            if q == 1:
                assert c is V
            elif exact:
                assert c.tolist() == (V * F(1, q)).tolist()
            else:
                assert c.tobytes() == (V * (1.0 / q)).tobytes()
            assert formed.setdefault((j, q), c) is c
    assert any(q > 1 for _, q in formed)


@pytest.mark.parametrize("case", ["walker", "rotation"])
def test_shared_coefficients_keep_the_invariance_residual(walker, case):
    """Evaluating every exponent of the polynomial identity in derivative
    form, on polynomials that share the vectors' arrays, gives bitwise the
    residual that check_invariance takes from the vectors once per index:
    exponent ``e`` is ``1/e!`` times the identity of ``n - e``."""
    fam = walker if case == "walker" else random_gap_family(
        np.random.default_rng(2100), dimU=7, M=2, m=2, centre="rotation")
    model, basis = sv.construct_reduction(fam, N=4)
    residual, scale = sv.check_invariance(fam, model, basis, with_scale=True)
    want = derivative_form_residual(fam, model, basis)
    assert np.float64(residual).tobytes() == np.float64(want).tobytes()
    assert 0 < residual < 1e-12 * scale


def test_invariance_scale_is_zero_for_exact_inputs(walker_exact):
    model, basis = sv.construct_reduction(walker_exact, N=3)
    assert sv.check_invariance(walker_exact, model, basis, with_scale=True) == (0.0, 0.0)
