import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slowvary as sv


def _child_env(env_extra=None):
    """Environment of a child process that imports the slowvary these tests
    import, whether or not PYTHONPATH names it."""
    env = dict(os.environ)
    src = str(Path(sv.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return env


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "slowvary.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=_child_env(env_extra),
        cwd=cwd,
        timeout=300,
    )


def test_reduce_walker_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    res = run_cli("reduce", "--model", "walker-modal", "--order", "2",
                  "--out", out)
    assert res.returncode == 0, res.stderr
    assert "-0.333333" in res.stdout or "-1/3" in res.stdout
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["coefficients"]["2,0"] == [[pytest.approx(8 / 27)]]
    assert report["checks"]["symbol_order_slope"] != "skipped"
    # beta = 1 and alpha = 1e-9 |L0| = 3e-9: beta - N alpha is 1 to 1e-8
    assert report["gap_margin"] == pytest.approx(1.0, rel=1e-6)
    model = sv.ReducedModel.load(out / "model.json")
    assert abs(model.A[(1, 0)][0, 0] + 1 / 3) < 1e-12
    assert (out / "basis.json").exists()
    assert (out / "run_meta.json").exists()


def test_reduce_exact_order_three(tmp_path):
    out = tmp_path / "run"
    res = run_cli("reduce", "--model", "walker-modal", "--order", "3",
                  "--exact", "--out", out)
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["coefficients"]["3,0"] == [["16/243"]]
    assert report["coefficients"]["1,2"] == [["-20/27"]]


@pytest.mark.parametrize("method", ["vectors", "generating"])
def test_exact_reduce_calls_the_rational_solvers(tmp_path, monkeypatch, capsys, method):
    """The exact split and the bordered Sylvester inverse go through
    ``_rational.solve_exact`` and ``_rational.nullspace_exact``, looked up on
    the module, where the benchmark's ``rational.calls`` counter sees them."""
    from slowvary import _rational
    from slowvary.cli import main

    calls = {"solve_exact": 0, "nullspace_exact": 0}
    for name in calls:
        def counted(*args, name=name, raw=getattr(_rational, name)):
            calls[name] += 1
            return raw(*args)

        monkeypatch.setattr(_rational, name, counted)
    argv = ["reduce", "--model", "walker-modal", "-N", "4", "--exact",
            "--method", method, "--out", str(tmp_path)]
    assert main(argv) == 0
    assert "8/27" in capsys.readouterr().out
    assert calls["solve_exact"] > 0 and calls["nullspace_exact"] > 0, calls


def test_reduce_missing_base_operator_exits_two(tmp_path):
    model_file = tmp_path / "model_file.json"
    model_file.write_text(json.dumps(
        {"M": 2, "dimU": 2, "operators": {"1,0": [[1, 0], [0, 1]]}}
    ))
    out = tmp_path / "run"
    res = run_cli("reduce", "--model", model_file, "--out", out)
    assert res.returncode == 2
    assert "MissingBaseOperator" in res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    assert report["error"]["check"] == "MissingBaseOperator"


def test_reduce_unstable_model_exits_two(tmp_path):
    model_file = tmp_path / "unstable.json"
    model_file.write_text(json.dumps({
        "M": 2,
        "dimU": 2,
        "operators": {"0,0": [[0.0, 0.0], [0.0, 0.5]]},
    }))
    res = run_cli("validate", "--model", model_file)
    assert res.returncode == 2
    assert "UnstableMode" in res.stderr


def test_reduce_impossible_tolerance_exits_three(tmp_path):
    out = tmp_path / "run"
    res = run_cli("reduce", "--model", "walker-modal", "--tol", "1e-30",
                  "--out", out)
    assert res.returncode == 3
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False


def test_reduce_fails_a_nan_validation_residual(tmp_path, monkeypatch, capsys):
    """``validation.checks_passed`` bounds both split residuals, a NaN
    residual fails it, and the FAIL line names it."""
    from slowvary import crosssection
    from slowvary.cli import main

    monkeypatch.setattr(crosssection, "validate_family",
                        lambda *args, **kw: crosssection.ValidationReport(0.0, float("nan")))
    out = tmp_path / "run"
    assert main(["reduce", "--model", "walker-modal", "-N", "2", "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["validation"]["checks_passed"] is False and report["pass"] is False
    assert "slowvary: FAIL ['centre_invariance_residual']" in capsys.readouterr().err


def test_report_bytes_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("reduce", "--model", "walker-modal", "--out", a,
                 env_extra={"SLOWVARY_THREADS": "1"})
    r2 = run_cli("reduce", "--model", "walker-modal", "--out", b,
                 env_extra={"SLOWVARY_THREADS": "1"})
    assert r1.returncode == 0 and r2.returncode == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    # a config failure writes the same report bytes on every rerun too
    fa, fb = tmp_path / "fa", tmp_path / "fb"
    r1 = run_cli("reduce", "--model", "walker-modal", "--order", "0",
                 "--out", fa, env_extra={"SLOWVARY_THREADS": "1"})
    r2 = run_cli("reduce", "--model", "walker-modal", "--order", "0",
                 "--out", fb, env_extra={"SLOWVARY_THREADS": "1"})
    assert r1.returncode == 2 and r2.returncode == 2
    assert (fa / "report.json").read_bytes() == (fb / "report.json").read_bytes()


def test_sparse_cell_reduce_bytes_are_deterministic(tmp_path):
    # n = 32 gives dimU 1024, above the dense eigenanalysis limit, so the
    # split runs ARPACK; its fixed start vector makes every file repeat
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = run_cli("reduce", "--model", "homogenise-layered", "--grid", "32",
                      "--out", out)
        assert res.returncode == 0, res.stderr
    for name in ("report.json", "model.json", "basis.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert json.loads((a / "report.json").read_text())["dimU"] == 1024


def test_reduce_zero_operator_above_dense_limit_exits_two(tmp_path, capsys):
    from slowvary.cli import main

    n = 602
    model = tmp_path / "zero.json"
    model.write_text(json.dumps({"M": 1, "dimU": n, "operators": {
        "0": np.zeros((n, n), dtype=int).tolist(),
        "1": np.eye(n, dtype=int).tolist()}}))
    out = tmp_path / "run"
    # the zero operator bordered by the constant field is singular, an input
    # the sparse split cannot handle: exit 2, not an exception out of main
    assert main(["reduce", "--model", str(model), "--out", str(out)]) == 2
    assert ("FAIL [UnsupportedSplit] base operator bordered by the constant field is singular"
            in capsys.readouterr().err)
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["check"] == "UnsupportedSplit"


def _cycle_laplacian(n):
    lap = -2 * np.eye(n, dtype=int) + np.eye(n, k=1, dtype=int) + np.eye(n, k=-1, dtype=int)
    lap[0, -1] = lap[-1, 0] = 1
    return lap


@pytest.mark.parametrize("L0, message", [
    (_cycle_laplacian(602) + np.diag([3] + [0] * 601), "does not conserve its mean"),
    (np.block([[_cycle_laplacian(300), np.zeros((300, 302), dtype=int)],
               [np.zeros((302, 300), dtype=int), _cycle_laplacian(302)]]),
     "second eigenvalue"),
], ids=["not-mean-conserving", "second-centre-mode"])
def test_large_family_outside_the_sparse_split_exits_two(tmp_path, L0, message):
    model = tmp_path / "large.json"
    model.write_text(json.dumps({"M": 1, "dimU": 602, "operators": {
        "0": L0.tolist(), "1": np.eye(602, dtype=int).tolist()}}))
    out = tmp_path / "run"
    res = run_cli("reduce", "--model", model, "--out", out)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "FAIL [UnsupportedSplit]" in res.stderr and message in res.stderr
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["check"] == "UnsupportedSplit" and message in error["message"]


def test_simulate_output_bytes_are_deterministic(tmp_path):
    # a 64x32 grid spans several blocks of samples in the diagnostics
    args = ("simulate", "--model", "walker-modal", "-N", "2", "--grid", "64,32",
            "--wavelengths", "64", "--T", "20")
    a, b = tmp_path / "a", tmp_path / "b"
    r1 = run_cli(*args, "--out", a, env_extra={"SLOWVARY_THREADS": "1"})
    r2 = run_cli(*args, "--out", b, env_extra={"SLOWVARY_THREADS": "1"})
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    for name in ("report.json", "emergence.csv", "frames.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_simulate_non_finite_state_exits_three(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "report.json").write_text("stale")
    res = run_cli("simulate", "--model", "walker-modal", "-N", "2", "--grid", "8,8",
                  "--T", "1e300", "--out", out)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert "FAIL [StabilityViolation]" in res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    assert report["error"]["check"] == "StabilityViolation"


def test_ill_posed_macro_fails_with_one_line_and_no_numpy_warning(tmp_path):
    # the N = 6 walker model grows along x; its seeded mode's propagator
    # overflows, and the growth check names it
    res = run_cli("simulate", "--model", "walker-modal", "-N", "6", "--grid", "64",
                  "--wavelengths", "8", "--T", "200", "--out", tmp_path / "run")
    assert res.returncode == 3, res.stderr
    assert "Warning" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("slowvary: FAIL [StabilityViolation] solution became "
                               "non-finite")
    assert "kappa = (8.63938, 0)" in lines[0]


def test_unexcited_ill_posed_modes_do_not_fail_the_run(tmp_path):
    # The N = 4 walker model grows in a wedge between 16.6 and 33.7 degrees
    # from the x axis.  The plane wave along x excites none of those modes,
    # and a mode that starts at zero is not propagated, so nothing overflows
    # and the run exits 0, although the model is far off at this wavelength.
    # Telling the user that the model is ill-posed there is a separate check.
    out = tmp_path / "run"
    res = run_cli("simulate", "--model", "walker-modal", "-N", "4", "--grid", "128,128",
                  "--wavelengths", "4", "--out", out)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["plateau"] > 1
    assert np.isfinite(sv.read_frames(out / "frames.bin").values).all()


def test_huge_span_of_a_mean_free_field_decays_to_zero(tmp_path):
    # span 5e19: every mode of the mean-free seed has decayed; the kappa = 0
    # row, whose propagator loses its conserved mode at such spans, starts at
    # zero and is not propagated
    out = tmp_path / "run"
    res = run_cli("simulate", "--model", "walker-physical", "-N", "2", "--grid", "8,8",
                  "--T", "1e22", "--out", out)
    assert res.returncode == 0, res.stderr
    traj = sv.read_frames(out / "frames.bin")
    assert np.abs(traj.values[0]).max() > 0.5
    assert not traj.values[1:].any()


def test_validate_builtin_models():
    for name in ("walker-modal", "walker-physical"):
        res = run_cli("validate", "--model", name)
        assert res.returncode == 0, res.stderr
        assert "model ok" in res.stdout


def test_validate_judges_the_split_residuals_against_tol(tmp_path, capsys):
    from slowvary.cli import main

    out = tmp_path / "run"
    assert main(["validate", "--model", "homogenise-constant", "--grid", "8",
                 "--tol", "1e-30", "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False and report["centre_invariance_residual"] > 1e-30
    err = capsys.readouterr().err
    assert "slowvary: FAIL [" in err and "centre_invariance_residual" in err
    assert main(["validate", "--model", "homogenise-constant", "--grid", "8"]) == 0


def test_simulate_walker(tmp_path):
    out = tmp_path / "sim"
    res = run_cli("simulate", "--model", "walker-modal", "--order", "2",
                  "--grid", "32", "--wavelengths", "64", "--T", "26",
                  "--out", out)
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["plateau"] <= 1e-3
    assert report["closure_ratio"] <= 5e-2
    traj = sv.read_frames(out / "frames.bin")
    assert traj.values.shape[1:] == (32, 1, 3)
    lines = (out / "emergence.csv").read_text().strip().split("\n")
    assert lines[0] == "t,relative_error"
    assert len(lines) > 100


def test_converge_walker(tmp_path):
    out = tmp_path / "conv"
    res = run_cli("converge", "--model", "walker-modal", "--order", "2",
                  "--wavelengths", "32,64,128", "--out", out)
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert 2.5 <= report["order"] <= 3.5
    lines = (out / "orders.csv").read_text().strip().split("\n")
    assert lines[0] == "wavelength,plateau"
    assert len(lines) == 4
    plateaus = [float(line.split(",")[1]) for line in lines[1:]]
    assert plateaus[0] > plateaus[1] > plateaus[2]


def test_converge_degenerate_exits_zero(tmp_path):
    # constant-in-space data: a single uniform mode has no closure error
    out = tmp_path / "conv"
    res = run_cli("converge", "--model", "walker-modal", "--order", "5",
                  "--wavelengths", "256,512", "--grid", "8", "--out", out)
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["degenerate"] is True
    assert report["order"] is None
    assert "degenerate" in res.stdout


def test_demo_walker_prints_model_pde():
    res = run_cli("demo", "walker")
    assert res.returncode == 0, res.stderr
    assert "∂t U = -1/3 ∂x U + 8/27 ∂xx U + 2/3 ∂yy U" in res.stdout


def test_demo_homogenise_constant():
    res = run_cli("demo", "homogenise-constant", "--grid", "16")
    assert res.returncode == 0, res.stderr
    assert "A_(2,0) = 1.000000" in res.stdout
    assert "A_(0,2) = 1.000000" in res.stdout


def test_demo_homogenise_layered(tmp_path):
    out = tmp_path / "demo"
    res = run_cli("demo", "homogenise-layered", "--a", "0.5", "--grid", "32",
                  "--out", out)
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["A20"] == pytest.approx(np.sqrt(0.75), rel=2e-3)
    assert report["A02"] == pytest.approx(1.0, rel=1e-6)


def test_demos_use_order_tol_and_method(capsys):
    from slowvary.cli import main

    assert main(["demo", "walker", "-N", "3", "--method", "generating"]) == 0
    assert "16/243 ∂xxx U" in capsys.readouterr().out
    # the cell's Sylvester residuals cannot meet this tolerance
    assert main(["demo", "homogenise-constant", "--grid", "8", "--tol", "1e-30"]) == 3
    assert "FAIL [SylvesterInconsistent]" in capsys.readouterr().err


def test_demo_bad_amplitude_exits_two():
    res = run_cli("demo", "homogenise-layered", "--a", "1.0", "--grid", "8")
    assert res.returncode == 2
    assert "NonPositiveDiffusivity" in res.stderr


def test_exact_flag_restricted_to_small_models(tmp_path):
    res = run_cli("reduce", "--model", "homogenise-constant", "--grid", "16",
                  "--exact", "--out", tmp_path / "x")
    assert res.returncode == 2
    assert "dimU" in res.stderr


def test_unknown_model_exits_two(tmp_path):
    res = run_cli("reduce", "--model", "no-such-model",
                  "--out", tmp_path / "x")
    assert res.returncode == 2


def test_order_must_be_positive():
    res = run_cli("reduce", "--model", "walker-modal", "--order", "0")
    assert res.returncode == 2


def test_package_main_entry():
    res = subprocess.run(
        [sys.executable, "-m", "slowvary", "--help"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert res.returncode == 0
    assert "reduce" in res.stdout and "converge" in res.stdout


def test_cell_problem_file_as_model(tmp_path):
    from slowvary.models import CellProblem

    cell = CellProblem.from_expression("layered_cos", n=16)
    model_file = tmp_path / "cell.json"
    cell.save(model_file)
    out = tmp_path / "run"
    res = run_cli("reduce", "--model", model_file, "--out", out)
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["coefficients"]["0,2"] == [[pytest.approx(1.0)]]


def test_run_meta_records_family_storage(tmp_path):
    from slowvary.cli import main

    model_file = tmp_path / "walker.json"
    sv.random_walker_modal().save(model_file)
    # three 3 x 3 walker operators of 8-byte entries (object pointers when
    # exact); CSR over 64 nodes: L0, L10, L01, K, K keep 5 + 3 + 3 + 1 + 1
    # entries a row (float64 value, int32 column) and 65 int32 row pointers each
    cases = [(["--model", "walker-modal", "--exact"], "exact", 27 * 8),
             (["--model", str(model_file)], "dense", 27 * 8),
             (["--model", "homogenise-layered", "--grid", "8"], "csr",
              (5 + 3 + 3 + 1 + 1) * 64 * 12 + 5 * 65 * 4)]
    for i, (args, storage, nbytes) in enumerate(cases):
        out = tmp_path / f"run{i}"
        assert main(["validate", *args, "--out", str(out)]) == 0
        family = json.loads((out / "run_meta.json").read_text())["family"]
        assert family == {"storage": storage, "bytes": nbytes}


def test_run_meta_records_each_output_file(tmp_path):
    """Each file a run writes, but run_meta.json itself, has its bytes and
    write time in run_meta.json, and report.json holds neither."""
    from slowvary.cli import main

    runs = {"reduce": ["reduce", "--model", "walker-modal"],
            "simulate": ["simulate", "--model", "walker-modal", "--grid", "8", "--T", "2"],
            "converge": ["converge", "--model", "walker-modal", "--grid", "16"]}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        outputs = json.loads((out / "run_meta.json").read_text())["outputs"]
        written = {p.name: p.stat().st_size for p in out.iterdir()}
        assert written.pop("run_meta.json") > 0
        assert {k: v["bytes"] for k, v in outputs.items()} == written
        assert all(v["seconds"] >= 0 for v in outputs.values())
        assert "outputs" not in (out / "report.json").read_text()
    assert set(outputs) == {"orders.csv", "report.json"}


def test_run_meta_records_the_parsed_argv(tmp_path, monkeypatch):
    """An in-process ``main(argv)`` records its own argv, not the host process's."""
    from slowvary.cli import main

    monkeypatch.setattr(sys, "argv", ["worker", "--workload", "x"])
    argv = ["validate", "--model", "walker-modal", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads((tmp_path / "run_meta.json").read_text())["argv"] == argv


def test_seed_option_is_refused(capsys):
    from slowvary.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--model", "walker-modal", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("args, split", [
    (["--model", "walker-modal"], "crosssection.spectral_split"),
    (["--model", "homogenise-layered", "--grid", "8"], "models.cell_spectral_split"),
], ids=["walker", "cell"])
def test_reduce_calls_the_library_through_its_modules(monkeypatch, capsys, args, split):
    """The CLI looks each pipeline stage up on its module at call time, where
    a wrapper put on the module (as the benchmark's tracer does) is seen."""
    from slowvary import crosssection, models, slowreduce
    from slowvary.cli import main

    called = []

    def record(module, name):
        fn = getattr(module, name)
        key = f"{module.__name__.rpartition('.')[2]}.{name}"

        def wrapper(*a, **kw):
            called.append(key)
            return fn(*a, **kw)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(crosssection, "validate_family"), (crosssection, "spectral_split"),
                         (models, "cell_spectral_split"),
                         (slowreduce, "construct_reduction"),
                         (slowreduce, "check_invariance")]:
        record(module, name)
    assert main(["reduce", *args]) == 0
    assert set(called) == {"crosssection.validate_family", split,
                           "slowreduce.construct_reduction", "slowreduce.check_invariance"}


_BAD_MODEL_FILES = {
    "not-json": "{not json",
    "wrong-shape": {"M": 2, "dimU": 2, "operators": {"0,0": [[0, 0, 0]]}},
    "malformed-key": {"M": 2, "dimU": 2,
                      "operators": {"0,0": [[0, 0], [0, -1]], "x": [[0, 0], [0, 0]]}},
    "key-components": {"M": 2, "dimU": 2, "operators": {"0,0,0": [[0, 0], [0, -1]]}},
    "cell-without-n": {"K_expr": "constant"},
    # centre eigenvalues +-i: rational, but not real
    "oscillatory-centre": {"M": 1, "dimU": 3, "operators": {
        "0": [[0, 1, 0], [-1, 0, 0], [0, 0, -1]]}},
    "not-an-object": 3,
    "number-operator": {"M": 1, "dimU": 1, "operators": {"0": 5}},
    # matrix entries that give no finite float64
    "one-over-zero": {"M": 1, "dimU": 2, "operators": {"0": [["1/0", 0], [0, -1]]}},
    "huge-int": {"M": 1, "dimU": 2, "operators": {"0": [[10**400, 0], [0, -1]]}},
    "huge-float": '{"M": 1, "dimU": 2, "operators": {"0": [[1e400, 0], [0, -1]]}}',
    "bool-entry": {"M": 1, "dimU": 2, "operators": {"0": [[True, 0], [0, -1]]}},
    "empty-operator": {"M": 1, "dimU": 0, "operators": {"0": []}},
    # "0 " parses to the same multi-index as "0"
    "duplicate-key": {"M": 1, "dimU": 2,
                      "operators": {"0": [[0, 0], [0, -1]], "0 ": [[1, 0], [0, 1]]}},
    # a repeated key would keep only its last value
    "repeated-key": '{"M": 1, "dimU": 2, "operators": {"0": [[0, 0], [0, -1]], '
                    '"1": [[0, 1], [1, 0]], "1": [[0, 5], [5, 0]]}}',
    "repeated-cell-key": '{"n": 8, "K_expr": "constant", "n": 16}',
    # cell documents
    "amplitude-list": {"n": 8, "K_expr": "constant", "amplitude": [1]},
    "amplitude-nan": '{"n": 8, "K_expr": "layered_cos", "amplitude": NaN}',
    "K-nan": '{"n": 4, "K": [[NaN, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]]}',
    "K-infinity": '{"n": 4, "K": [[1, 1, 1, 1], [1, Infinity, 1, 1], [1, 1, 1, 1], '
                  '[1, 1, 1, 1]]}',
    "h-infinity": '{"n": 8, "K_expr": "constant", "h": Infinity}',
    "n-not-integer": {"n": 8.7, "K_expr": "constant"},
    "h-string": {"n": 8, "K_expr": "constant", "h": "2"},
    "amplitude-bool": {"n": 8, "K_expr": "layered_cos", "amplitude": True},
    "n-zero": {"n": 0, "K_expr": "layered_cos"},
}
# run only with --exact: without it, these files already exit 2 (or are valid)
_EXACT_ONLY = ("oscillatory-centre", "huge-float", "bool-entry")


@pytest.mark.parametrize("argv, check", [
    *[pytest.param(["reduce", "--model", name], "config", id=name)
      for name in _BAD_MODEL_FILES if name not in _EXACT_ONLY + ("amplitude-nan", "n-zero")],
    pytest.param(["reduce", "--model", "oscillatory-centre", "--exact"],
                 "UnsupportedSplit", id="oscillatory-centre"),
    *[pytest.param(["reduce", "--model", name, "--exact"], "config", id=f"{name}-exact")
      for name in ("one-over-zero", "huge-int", "huge-float", "bool-entry")],
    pytest.param(["reduce", "--model", "amplitude-nan"], "NonPositiveDiffusivity",
                 id="amplitude-nan"),
    # checked before the samples' spacing h / n is formed
    pytest.param(["reduce", "--model", "n-zero"], "GridTooCoarse", id="n-zero"),
    pytest.param(["reduce", "--model", "homogenise-layered", "--grid", "8", "-N", "1",
                  "--alpha", "40"], "UnsupportedSplit", id="cell-split-unsupported"),
    pytest.param(["reduce", "--model", "walker-modal", "--alpha", "-1"],
                 "config", id="negative-alpha"),
    *[pytest.param(["reduce", "--model", "walker-modal", "--alpha", alpha], "config",
                   id=f"alpha-{alpha}")
      for alpha in ("nan", "inf")],
    pytest.param(["simulate", "--model", "walker-modal", "--grid", "0"],
                 "config", id="zero-grid"),
    pytest.param(["reduce", "--model", "walker-modal", "--order", "0"],
                 "config", id="zero-order"),
    pytest.param(["converge", "--model", "walker-modal", "--wavelengths", "64"],
                 "config", id="one-wavelength"),
    *[pytest.param([command, "--model", "walker-modal", "--grid", "6"], "config",
                   id=f"{command}-grid-not-power-of-two")
      for command in ("simulate", "converge")],
    # one or two points along the first axis leave the seeded wave zero to rounding
    *[pytest.param([command, "--model", "walker-modal", "--grid", grid], "config",
                   id=f"{command}-grid-{grid}")
      for command, grid in (("simulate", "1,1"), ("simulate", "2"), ("simulate", "2,8"),
                            ("converge", "1"), ("converge", "2"))],
    pytest.param(["simulate", "--model", "walker-modal", "--grid", "8,8,8"], "config",
                 id="grid-longer-than-M"),
    pytest.param(["converge", "--model", "walker-modal", "--grid", "32,64",
                  "--wavelengths", "32,64"], "config", id="converge-two-grid-entries"),
    pytest.param(["reduce", "--model", "homogenise-layered", "--grid", "16,32"], "config",
                 id="cell-two-grid-entries"),
    *[pytest.param(["simulate", "--model", "walker-modal", "--T", T], "config",
                   id=f"T-{T}")
      for T in ("-1", "0", "nan", "inf")],
    *[pytest.param(["simulate", "--model", "walker-modal", "--wavelengths", L], "config",
                   id=f"wavelength-{L}")
      for L in ("0", "-5")],
    pytest.param(["converge", "--model", "walker-modal", "--wavelengths", "16,nan"],
                 "config", id="wavelength-nan"),
    *[pytest.param(["reduce", "--model", "walker-modal", "--tol", tol], "config",
                   id=f"tol-{tol}")
      for tol in ("-1", "nan")],
    pytest.param(["demo", "homogenise-constant", "--grid", "8", "-N", "1"], "config",
                 id="cell-demo-order-one"),
    pytest.param(["reduce", "--model", "homogenise-foo"], "config", id="misspelt-cell"),
    pytest.param(["reduce", "--model", "a-directory"], "config", id="model-is-directory"),
    pytest.param(["reduce", "--model", "walker-modal", "--out", "a-file"], "config",
                 id="out-is-file"),
])
def test_invalid_input_exits_two_with_report(tmp_path, capsys, argv, check):
    from slowvary.cli import main

    argv = list(argv)
    doc = _BAD_MODEL_FILES.get(argv[2])
    if doc is not None:
        path = tmp_path / f"{argv[2]}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv[2] = str(path)
    if argv[2] == "a-directory":
        argv[2] = str(tmp_path)
    if "--out" in argv:
        # --out names an existing file: no report can be written there
        target = tmp_path / argv[-1]
        target.write_text("keep")
        assert main([*argv[:-1], str(target)]) == 2
        assert target.read_text() == "keep"
    else:
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False
        assert report["error"]["check"] == check
        assert not report["error"]["message"].startswith("slowvary")
    err = capsys.readouterr().err
    assert f"FAIL [{check}]" in err
    assert err.count("slowvary:") == 1, err  # the FAIL line names the program once


@pytest.mark.parametrize("dt", ["0", "nan", "-1", "0.01"],
                         ids=["dt-zero", "dt-nan", "dt-negative", "dt-positive"])
def test_dt_is_not_an_option(tmp_path, capsys, dt):
    """Every Fourier mode advances exactly, so there is no time step:
    argparse rejects ``--dt`` with exit 2, before any report is written."""
    from slowvary.cli import main

    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "walker-modal", "--dt", dt, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dt" in capsys.readouterr().err
    assert not out.exists()


def _family_file(path, family):
    family.save(path)
    return str(path)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_reduce_jordan_centre_passes_every_check(tmp_path, seed):
    """A Jordan centre under the block-check limit (384 block rows) passes;
    eigenvalues of such a centre are accurate only to sqrt(eps), so the
    checks compare characteristic polynomials and invariant subspaces."""
    from conftest import random_gap_family
    from slowvary.cli import main

    family = random_gap_family(np.random.default_rng(seed), dimU=64, M=2, m=2,
                               centre="jordan")
    out = tmp_path / "run"
    argv = ["reduce", "--model", _family_file(tmp_path / "jordan.json", family),
            "-N", "2", "--alpha", "1e-6", "--out", str(out)]
    assert main(argv) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert checks["symbol_order_pass"] is True
    assert 2.5 <= checks["symbol_order_slope"] <= 3.5
    meta = json.loads((out / "run_meta.json").read_text())["symbol_order"]
    assert meta["rungs"] == 12 and 0 < meta["max_iterations"] < 100 and meta["seconds"] > 0


def test_reduce_never_runs_the_block_spectrum_eig(tmp_path, monkeypatch):
    """``reduce`` builds no block Taylor system: ``check_invariance`` is its
    one evaluation of the invariance identity."""
    from slowvary import taylorsystem
    from slowvary.cli import main

    def refuse(name):
        def call(*args):
            raise AssertionError(f"reduce must not call {name}")
        return call

    for name in ("build_block_operator", "build_block_A", "block_spectrum_check",
                 "verify_slow_subspace"):
        monkeypatch.setattr(taylorsystem, name, refuse(name))
    out = tmp_path / "run"
    assert main(["reduce", "--model", "walker-modal", "-N", "3", "--out", str(out)]) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert sorted(checks) == ["invariance_pass", "invariance_residual",
                              "symbol_order_pass", "symbol_order_slope"]


def test_reduce_above_the_block_limit_skips_and_says_why(tmp_path):
    from conftest import random_gap_family
    from slowvary.cli import main

    # 10 indices at N = 3 times dimU 201: 2010 block rows
    family = random_gap_family(np.random.default_rng(5), dimU=201, M=2, m=1, max_order=1)
    out = tmp_path / "run"
    argv = ["reduce", "--model", _family_file(tmp_path / "big.json", family), "-N", "3",
            "--out", str(out)]
    assert main(argv) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert sorted(checks) == ["invariance_pass", "invariance_residual", "symbol_order_slope"]
    assert checks["symbol_order_slope"] == "skipped"
    meta = json.loads((out / "run_meta.json").read_text())["symbol_order"]
    assert meta == {"skipped": "2010 block rows exceed the 2000-row limit of the "
                               "symbol-order check"}


def _scaled_benchmark_rational_family(path):
    """The benchmark's seed-2 rational family (dimU 6, m = 1) with every
    L_k, k != 0, multiplied by 32."""
    import importlib.util
    from fractions import Fraction
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(inputs)  # registered first: its dataclasses look it up
    fam = inputs.rational_family(np.random.default_rng(2), path, 6, 1)
    doc = json.loads(fam.path.read_text())
    for key, rows in doc["operators"].items():
        if key != "0,0":
            doc["operators"][key] = [[str(32 * Fraction(x)) for x in row] for row in rows]
    path.write_text(json.dumps(doc))
    return str(path)


def test_large_rational_closure_passes_the_relative_threshold(tmp_path):
    """The exact order-6 reduction, with coefficients near 2e8, passes.  In
    float its invariance residual is rounding, far below ``tol`` times the
    scale of ``check_invariance``, and a 1e-8 error in the largest A_n
    still exceeds that bound."""
    from slowvary.cli import main

    model_file = _scaled_benchmark_rational_family(tmp_path / "r.json")
    out = tmp_path / "run"
    assert main(["reduce", "--model", model_file, "-N", "6", "--exact",
                 "--out", str(out)]) == 0
    model = sv.ReducedModel.load(out / "model.json", exact=True).to_float()
    assert max(np.abs(A).max() for A in model.A.values()) > 1e8
    family = sv.OperatorFamily.load(model_file, exact=True)
    _, basis = sv.construct_reduction(family, 6)
    famf, basisf = family.to_float(), basis.to_float()
    residual, scale = sv.check_invariance(famf, model, basisf, with_scale=True)
    assert residual <= 1e-10 * scale
    n = max(model.A, key=lambda k: np.abs(model.A[k]).max())
    A = dict(model.A)
    A[n] = A[n] * (1 + 1e-8)
    moved = sv.ReducedModel(M=model.M, N=model.N, m=model.m, A=A)
    residual, scale = sv.check_invariance(famf, moved, basisf, with_scale=True)
    assert residual > 1e-10 * scale


def test_float_reduce_of_a_large_rational_closure_passes_invariance(tmp_path):
    """The same family reduced in float: its invariance residual (about 4e-6)
    is rounding of coefficients near 2e8.  It failed the absolute
    ``--tol * max|L_k|`` threshold; against the size of the two sides of
    the identity it passes, and a 1e-8 error in the largest A_n fails."""
    from slowvary.cli import main

    model_file = _scaled_benchmark_rational_family(tmp_path / "r.json")
    out = tmp_path / "run"
    assert main(["reduce", "--model", model_file, "-N", "6", "--out", str(out)]) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert checks["invariance_pass"] is True and checks["invariance_residual"] > 1e-7
    family = sv.OperatorFamily.load(model_file)
    model, basis = sv.construct_reduction(family, 6)
    n = max(model.A, key=lambda k: np.abs(model.A[k]).max())
    A = dict(model.A)
    A[n] = A[n] * (1 + 1e-8)
    moved = sv.ReducedModel(M=model.M, N=model.N, m=model.m, A=A)
    residual, scale = sv.check_invariance(family, moved, basis, with_scale=True)
    assert residual > 1e-10 * scale
