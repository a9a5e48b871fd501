import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sparse

import slowvary as sv
from slowvary._rational import frac_matrix
from slowvary.crosssection import _binormalise
from slowvary.errors import (
    DefectiveNormalisation,
    GapViolation,
    MissingBaseOperator,
    NoCentreMode,
    UnstableMode,
    UnsupportedSplit,
)

from conftest import random_gap_family


def diag_family(diag, **ops):
    table = {(0, 0): np.diag(np.asarray(diag, dtype=float))}
    table.update(ops)
    return sv.OperatorFamily(table)


def test_family_requires_base_operator():
    with pytest.raises(MissingBaseOperator):
        sv.OperatorFamily({(1, 0): np.eye(2)})


def test_family_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        sv.OperatorFamily({(0, 0): np.eye(2), (1, 0): np.eye(3)})
    with pytest.raises(ValueError):
        sv.OperatorFamily({(0, 0): np.eye(2), (1,): np.eye(2)})


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_family_refuses_a_non_finite_entry(storage, bad):
    L1 = np.zeros((3, 3))
    L1[1, 2] = bad
    ops = {(0, 0): np.diag([0.0, -1.0, -2.0]), (1, 0): np.eye(3), (0, 1): L1}
    if storage == "csr":
        ops = {k: sparse.csr_matrix(v) for k, v in ops.items()}
    with pytest.raises(ValueError, match=r"operator at \(0, 1\) has a non-finite entry"):
        sv.OperatorFamily(ops)


def test_support_is_graded(walker):
    assert walker.support == [(0, 0), (1, 0), (0, 1)]
    assert walker.M == 2 and walker.dimU == 3


def test_walker_split_is_clean(walker):
    split = sv.spectral_split(walker, N=2)
    assert split.m == 1
    assert np.allclose(np.sort(split.eigenvalues.real), [-3, -1, 0])
    assert split.beta == pytest.approx(1.0)
    assert split.alpha == pytest.approx(3e-9)  # 1e-9 * spectral radius
    np.testing.assert_allclose(split.V0[:, 0], [1, 0, 0], atol=1e-14)
    np.testing.assert_allclose(split.Z0.T @ split.V0, np.eye(1), atol=1e-14)
    np.testing.assert_allclose(split.A0, [[0.0]], atol=1e-14)


def test_exact_split_walker(walker_exact):
    split = sv.spectral_split(walker_exact, N=3)
    assert split.is_exact
    assert split.V0[0, 0] == Fraction(1)
    assert split.Z0[0, 0] == Fraction(1)
    assert split.A0[0, 0] == Fraction(0)
    assert (split.Z0.T @ split.V0)[0, 0] == Fraction(1)


def test_no_centre_mode():
    fam = diag_family([-1.0, -2.0])
    with pytest.raises(NoCentreMode):
        sv.spectral_split(fam, N=2)


def test_unstable_mode():
    fam = diag_family([0.0, 0.5, -2.0])
    with pytest.raises(UnstableMode):
        sv.spectral_split(fam, N=2)


def test_gap_violation():
    # stable eigenvalue closer than N * alpha: reduction order too greedy
    fam = diag_family([0.0, -1.5e-9, -1.0])
    with pytest.raises(GapViolation):
        sv.spectral_split(fam, N=2, alpha=1e-9)
    split = sv.spectral_split(fam, N=2, alpha=1e-8)  # widen centre instead
    assert split.m == 2


def test_alpha_scales_with_spectral_radius(walker):
    doubled = sv.OperatorFamily(
        {k: 2.0 * v for k, v in walker.ops.items()}
    )
    s1 = sv.spectral_split(walker, N=2)
    s2 = sv.spectral_split(doubled, N=2)
    assert s2.alpha == pytest.approx(2 * s1.alpha)


def test_binormalisation_guard():
    V = np.array([[1.0], [0.0]])
    W = np.array([[0.0], [1.0]])
    with pytest.raises(DefectiveNormalisation):
        _binormalise(W, V)


@pytest.mark.parametrize("seed", range(6))
def test_random_families_split_cleanly(seed):
    rng = np.random.default_rng(seed)
    fam = random_gap_family(rng, dimU=5, m=1)
    split = sv.spectral_split(fam, N=3)
    assert split.m == 1
    L0 = fam.L0
    # V0 spans an invariant subspace and the pairing is unit
    res = L0 @ split.V0 - split.V0 @ split.A0
    assert np.abs(res).max() < 1e-10
    res_left = split.Z0.T @ L0 - split.A0 @ split.Z0.T
    assert np.abs(res_left).max() < 1e-10
    assert np.abs(split.Z0.T @ split.V0 - np.eye(1)).max() < 1e-12


def test_jordan_centre_block():
    rng = np.random.default_rng(7)
    fam = random_gap_family(rng, dimU=5, m=2, centre="jordan")
    split = sv.spectral_split(fam, N=2, alpha=1e-6)
    assert split.m == 2
    # A0 is similar to the nilpotent chain: zero eigenvalues, nonzero matrix
    assert np.abs(np.linalg.eigvals(split.A0)).max() < 1e-6
    assert np.abs(split.A0).max() > 0.1
    res = fam.L0 @ split.V0 - split.V0 @ split.A0
    assert np.abs(res).max() < 1e-10


def test_exact_jordan_centre_is_unsupported():
    L0 = frac_matrix([[0, 1, 0], [0, 0, 0], [0, 0, -1]])
    with pytest.raises(UnsupportedSplit, match="semisimple"):
        sv.spectral_split(sv.OperatorFamily({(0,): L0}), N=2)


def test_rotation_centre_block():
    rng = np.random.default_rng(11)
    fam = random_gap_family(rng, dimU=6, m=2, centre="rotation")
    split = sv.spectral_split(fam, N=2)
    assert split.m == 2
    ev = np.sort(np.linalg.eigvals(split.A0).imag)
    assert ev[0] < -0.4 and ev[1] > 0.4
    assert np.abs(np.linalg.eigvals(split.A0).real).max() < 1e-10


def test_sparse_symmetric_split_cycle_graph():
    # cycle-graph Laplacian: uniform kernel, known spectral gap
    n = 700
    L0 = (
        -2.0 * np.eye(n)
        + np.eye(n, k=1)
        + np.eye(n, k=-1)
    )
    L0[0, -1] = L0[-1, 0] = 1.0
    fam = sv.OperatorFamily({(0,): L0, (1,): np.eye(n)})
    split = sv.spectral_split(fam, N=1)
    assert split.m == 1
    assert not split.spectrum_complete
    gap = 2.0 - 2.0 * np.cos(2 * np.pi / n)
    assert split.beta == pytest.approx(gap, rel=1e-8)
    assert np.abs(L0 @ split.V0).max() < 1e-8
    assert float((split.Z0.T @ split.V0)[0, 0]) == pytest.approx(1.0, abs=1e-10)


def _cycle_laplacian(n):
    lap = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    lap[0, -1] = lap[-1, 0] = 1.0
    return sparse.csr_matrix(lap)


@pytest.fixture
def arpack_calls(monkeypatch):
    """The ``which``, ``k``, ``sigma`` and ``v0`` of every ``eigsh`` call the
    sparse split makes."""
    from slowvary import crosssection

    calls = []
    eigsh = crosssection.spla.eigsh

    def spy(*args, **kwargs):
        calls.append({key: kwargs.get(key) for key in ("which", "k", "sigma", "v0")})
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(crosssection.spla, "eigsh", spy)
    return calls


def _which(calls):
    return [call["which"] for call in calls]


def _top_calls(calls, bound):
    """The shift-invert calls for the top eigenvalue: k = 1, shifted just
    above the Gershgorin bound."""
    return [call for call in calls
            if call["k"] == 1 and call["sigma"] is not None
            and bound < call["sigma"] < bound + 1e-4 and call["which"] == "LM"]


def test_sparse_split_gershgorin_settles_stability(arpack_calls):
    # diagonally dominant, non-positive diagonal: the bound is 0 <= alpha
    fam = sv.OperatorFamily({(0,): _cycle_laplacian(700)})
    assert sv.spectral_split(fam, N=1).m == 1
    assert "LA" not in _which(arpack_calls)


def test_sparse_split_falls_back_to_arpack_without_dominance(arpack_calls):
    # lap - lap^2 has rows -1, 5, -8, 5, -1 (Gershgorin bound 4) but
    # eigenvalues mu - mu^2 <= 0 over the Laplacian's mu <= 0
    n = 700
    lap = _cycle_laplacian(n)
    fam = sv.OperatorFamily({(0,): (lap - lap @ lap).tocsr()})
    split = sv.spectral_split(fam, N=2)
    assert len(_top_calls(arpack_calls, 4.0)) == 1
    assert "LA" not in _which(arpack_calls)
    assert split.m == 1
    mu = 2.0 - 2.0 * np.cos(2 * np.pi / n)
    assert split.beta == pytest.approx(mu + mu**2, rel=1e-8)


def test_sparse_split_finds_a_positive_top_by_shift_invert(arpack_calls):
    # lap + lap^2 conserves the mean, with rows 1, -3, 4, -3, 1 (Gershgorin
    # bound 12) and eigenvalues mu + mu^2 up to 12 at the Laplacian's mu = -4
    lap = _cycle_laplacian(602)
    fam = sv.OperatorFamily({(0,): (lap + lap @ lap).tocsr()})
    with pytest.raises(UnstableMode, match="largest eigenvalue Re = 12 "):
        sv.spectral_split(fam, N=1)
    assert len(_top_calls(arpack_calls, 12.0)) == 1
    assert "LA" not in _which(arpack_calls)


def test_sparse_split_refuses_an_operator_that_does_not_conserve_its_mean(arpack_calls):
    # a rank-one raise of the cycle Laplacian: row 0 sums to 3, not 0
    L0 = _cycle_laplacian(602).tolil()
    L0[0, 0] = 1.0
    with pytest.raises(UnsupportedSplit, match=r"does not conserve its mean \(max\|L0 1\| = 3\)"):
        sv.spectral_split(sv.OperatorFamily({(0,): L0.tocsr()}), N=1)
    assert arpack_calls == []  # refused before any eigenvalue search


@pytest.mark.parametrize("blocks, message", [
    # bordered by the constant field, the matrix keeps a null vector (the
    # difference of the two cycles' constants); SuperLU does not find it
    # exactly singular, and the shift-invert call finds the null value
    ([300, 302], r"second eigenvalue \S+ lies inside the centre band"),
    # two isolated nodes (zero rows) leave the bordered matrix structurally
    # singular, and SuperLU reports it exactly singular
    ([600, 1, 1], r"bordered by the constant field is singular \(Factor is exactly singular\)"),
], ids=["two-cycles", "exactly-singular"])
def test_sparse_split_refuses_a_second_centre_mode(blocks, message):
    L0 = sparse.block_diag([_cycle_laplacian(n) if n > 1 else sparse.csr_matrix((1, 1))
                            for n in blocks], format="csr")
    with pytest.raises(UnsupportedSplit, match=message) as info:
        sv.spectral_split(sv.OperatorFamily({(0,): L0}), N=2)
    if "second eigenvalue" in str(info.value):  # the value named is the null vector's
        assert abs(float(str(info.value).split()[3])) < 1e-12


@pytest.mark.parametrize("L0, message", [
    (np.diag([0.0, -1.0, -2.0]), r"does not conserve its mean \(max\|L0 1\| = 2\)"),
    (np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]), "is not symmetric"),
], ids=["not-mean-conserving", "rotation-centre"])
def test_small_csr_operator_outside_the_known_centre_rule_is_refused(L0, message):
    """Storage picks the split: a CSR L0 is split on the constant field at
    every size, so a small one outside that rule is refused, naming the rule,
    while the same matrix held dense gets the Schur split."""
    with pytest.raises(UnsupportedSplit, match=message) as info:
        sv.spectral_split(sv.OperatorFamily({(0,): sparse.csr_matrix(L0)}), N=2)
    assert ("a CSR base operator, or a dense one above size 600, is split on the constant "
            "field as its one centre mode; pass dense arrays for the Schur split, which "
            "takes operators up to size 600" in str(info.value))
    split = sv.spectral_split(sv.OperatorFamily({(0,): L0}), N=2)
    assert split.spectrum_complete and split.bordered_solve is None
    assert split.m == (1 if "mean" in message else 2)


def test_sparse_split_of_a_one_by_one_operator_is_all_centre():
    split = sv.spectral_split(sv.OperatorFamily({(0,): sparse.csr_matrix((1, 1))}), N=2)
    assert split.m == 1 and split.beta == np.inf
    assert np.array_equal(split.V0, [[1.0]]) and np.array_equal(split.Z0, [[1.0]])


def test_sparse_split_shares_its_bordered_factor():
    """The centre is the constant field with uniform weights, and the split's
    cached solve is the construction's bordered matrix at ``t = A0``."""
    lap = _cycle_laplacian(602)
    fam = sv.OperatorFamily({(0,): lap, (1,): sparse.identity(602, format="csr")})
    split = sv.spectral_split(fam, N=2)
    assert split.m == 1 and not split.spectrum_complete
    assert np.array_equal(split.V0, np.ones((602, 1)))
    assert np.array_equal(split.Z0, np.full((602, 1), 1 / 602))
    assert split.A0 == split.Z0.T @ (lap @ split.V0)
    rhs = np.random.default_rng(1).standard_normal(603)
    border = sparse.bmat([[lap - split.A0[0, 0] * sparse.identity(602), split.Z0],
                          [split.Z0.T, None]], format="csr")
    x = split.bordered_solve(rhs)
    assert np.abs(border @ x - rhs).max() < 1e-10
    # a cached factor, not a setting: repr and equality ignore it
    assert "bordered_solve" not in repr(split)
    assert dataclasses.replace(split, bordered_solve=None) == split


@pytest.mark.parametrize("expr", ["layered_cos", "checkerboard_smooth"])
def test_sparse_cell_split_is_deterministic_and_matches_dense_oracle(expr):
    from slowvary.models import CellProblem, homogenisation_cell

    fam = homogenisation_cell(CellProblem.from_expression(expr, n=32))
    assert fam.dimU == 1024 and fam.storage == "csr"
    split = sv.spectral_split(fam, N=2)
    assert not split.spectrum_complete  # the sparse path ran
    assert split.m == 1
    dense = np.linalg.eigvalsh(fam.L0.toarray())
    assert split.beta == pytest.approx(-dense[-2], rel=1e-10)
    again = sv.spectral_split(fam, N=2)
    assert np.array_equal(again.V0, split.V0) and np.array_equal(again.A0, split.A0)
    assert again.beta == split.beta and again.alpha == split.alpha


def test_sparse_split_arpack_failure_is_unsupported(monkeypatch):
    from slowvary import crosssection

    def no_convergence(*args, **kwargs):
        raise crosssection.spla.ArpackNoConvergence("no convergence", np.zeros(0),
                                                    np.zeros((602, 0)))

    monkeypatch.setattr(crosssection.spla, "eigsh", no_convergence)
    with pytest.raises(UnsupportedSplit,
                       match=r"ARPACK shift-invert eigsh at the centre failed .* 602"):
        sv.spectral_split(sv.OperatorFamily({(0,): _cycle_laplacian(602)}), N=1)


def test_large_nonsymmetric_split_is_unsupported():
    # above the dense eigenanalysis limit only symmetric operators split
    L0 = -np.eye(601)
    L0[0, 0] = 0.0
    L0[1, 2] = 0.5
    with pytest.raises(UnsupportedSplit, match="not symmetric") as info:
        sv.spectral_split(sv.OperatorFamily({(0, 0): L0}), N=2)
    assert isinstance(info.value, ValueError)


def test_validate_family_report(walker):
    rep = sv.validate_family(walker, N=2)
    assert rep.binorm_residual < 1e-13
    assert rep.invariance_residual < 1e-13


def test_json_roundtrip(tmp_path, family_pair):
    fam, fam_exact, _ = family_pair
    p = tmp_path / "fam.json"
    fam.save(p)
    back = sv.OperatorFamily.load(p)
    assert back.support == fam.support and back.label == fam.label
    for k in fam.support:  # bitwise
        assert back.ops[k].dtype == np.float64
        assert back.ops[k].tobytes() == fam.ops[k].tobytes()

    pe = tmp_path / "fam_exact.json"
    fam_exact.save(pe)
    raw = json.loads(pe.read_text())
    if fam_exact.label == "walker-modal":
        assert raw["operators"]["1,0"][0][0] == "-1/3"
    back_exact = sv.OperatorFamily.load(pe, exact=True)
    assert back_exact.is_exact and back_exact.support == fam_exact.support
    for k in fam_exact.support:
        assert back_exact.ops[k].tolist() == fam_exact.ops[k].tolist()
    # exact file read as float equals the float conversion
    as_float = sv.OperatorFamily.load(pe)
    for k in fam_exact.support:
        assert as_float.ops[k].tobytes() == fam_exact.to_float().ops[k].tobytes()


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        sv.OperatorFamily.from_json({"M": 2})
    with pytest.raises(ValueError):
        sv.OperatorFamily.from_json(
            {"M": 2, "dimU": 2, "operators": {"0,0": [[1, 0]]}}
        )


def test_centre_eigenvalues_listed(walker):
    split = sv.spectral_split(walker, N=2)
    ce = split.centre_eigenvalues()
    assert ce.shape == (1,)
    assert abs(ce[0]) < 1e-12


def _coupled_gap_L0(rng, dimU, m, centre):
    """A base operator with an ``m``-mode centre block (``"zero"``,
    ``"rotation"`` or ``"jordan"``) coupled to a stable block with real parts
    in [-4, -1]: block upper triangular before an orthogonal similarity, so
    the left and right centre bases span different spaces."""
    B = np.zeros((dimU, dimU))
    if centre == "rotation":
        B[:2, :2] = [[0.0, 0.8], [-0.8, 0.0]]
    elif centre == "jordan":
        B[:m, :m] = np.diag(np.ones(m - 1), 1)
    B[m:, m:] = np.diag(-1.0 - 3.0 * rng.random(dimU - m)) + np.triu(
        rng.standard_normal((dimU - m, dimU - m)), 1) / dimU
    B[:m, m:] = rng.standard_normal((m, dimU - m)) / np.sqrt(dimU)
    Q = np.linalg.qr(rng.standard_normal((dimU, dimU)))[0]
    return Q @ B @ Q.T


def _schur_left_basis(L0, split):
    """The left centre basis by a second route: a sorted real Schur form of
    ``L0.T``, binormalised against the split's ``V0``."""
    import scipy.linalg as sla

    re = split.eigenvalues.real
    centre = np.abs(re) <= split.alpha
    thr = 0.5 * (np.abs(re[centre]).max() + split.beta)
    W = sla.schur(L0.T, output="real", sort=lambda r, i: abs(r) <= thr)[1][:, :split.m]
    return _binormalise(W, split.V0)


@pytest.mark.parametrize("dimU, m, centre, alpha", [
    (3, 1, "zero", None), (64, 3, "zero", None), (200, 1, "zero", None),
    (96, 2, "rotation", None), (5, 2, "rotation", None),
    (136, 2, "jordan", 1e-6), (12, 2, "jordan", 1e-6),
], ids=lambda v: str(v))
def test_dense_split_bases_are_invariant_and_match_a_second_schur(dimU, m, centre, alpha):
    L0 = _coupled_gap_L0(np.random.default_rng(dimU), dimU, m, centre)
    split = sv.spectral_split(sv.OperatorFamily({(0,): L0}), N=3, alpha=alpha)
    assert split.m == m and np.isfinite(split.beta)
    V0, Z0, A0 = split.V0, split.Z0, split.A0
    bound = 1e-12 * (1.0 + np.abs(L0).max())
    assert np.abs(L0 @ V0 - V0 @ A0).max() <= bound
    assert np.abs(Z0.T @ L0 - A0 @ Z0.T).max() <= bound
    assert np.abs(Z0.T @ V0 - np.eye(m)).max() <= 1e-13
    old = _schur_left_basis(L0, split)
    assert np.abs(Z0 - old).max() <= 1e-10 * np.abs(old).max()


def test_dense_split_all_centre_takes_the_identity():
    # a rotation and a zero mode: every eigenvalue has Re = 0 to rounding
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    L0 = Q @ np.array([[0.0, 0.7, 0.0], [-0.7, 0.0, 0.0], [0.0, 0.0, 0.0]]) @ Q.T
    split = sv.spectral_split(sv.OperatorFamily({(0,): L0}), N=2)
    assert split.m == 3 and split.beta == np.inf
    assert np.array_equal(split.V0, np.eye(3)) and np.array_equal(split.Z0, np.eye(3))
    assert np.abs(L0 @ split.V0 - split.V0 @ split.A0).max() <= 1e-12 * (1.0 + np.abs(L0).max())


def test_dense_split_takes_one_real_schur_form(monkeypatch):
    """One ``dgees`` factorisation (after its workspace query) gives the
    eigenvalues and both centre bases; ``eigvals`` and ``schur`` are unused."""
    from slowvary import crosssection

    def forbidden(*args, **kwargs):
        raise AssertionError("the dense split computes one real Schur form")

    monkeypatch.setattr(crosssection.sla, "eigvals", forbidden)
    monkeypatch.setattr(crosssection.sla, "schur", forbidden)
    workspaces = []
    dgees = crosssection.lapack.dgees

    def spy(*args, **kwargs):
        workspaces.append(kwargs.get("lwork"))
        return dgees(*args, **kwargs)

    monkeypatch.setattr(crosssection.lapack, "dgees", spy)
    L0 = _coupled_gap_L0(np.random.default_rng(1), 40, 2, "rotation")
    assert sv.spectral_split(sv.OperatorFamily({(0,): L0}), N=2).m == 2
    assert workspaces[0] == -1  # the query, which factorises nothing
    assert len(workspaces) == 2 and workspaces[1] > 0
