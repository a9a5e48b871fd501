"""Self-tests of the benchmark: inputs, oracles, tracing and BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import spans
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _files(d: Path) -> dict:
    return {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("part", inputs.PARTS)
def test_same_seed_same_inputs(tmp_path, part):
    inputs.generate(part, 5, tmp_path / "a")
    inputs.generate(part, 5, tmp_path / "b")
    inputs.generate(part, 6, tmp_path / "c")
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a and a == b
    assert a != c


def _perturb(path: Path, key: str) -> None:
    """Add 1e-6 to entry [0][0] of coefficient ``key`` in a model.json."""
    doc = json.loads(path.read_text())
    x = doc["A"][key][0][0]
    doc["A"][key][0][0] = (float(x) if not isinstance(x, str) else
                           float(eval(x, {})) if "/" in x else float(x)) + 1e-6
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("workload,index,key", [
    ("reduce-families", 0, "1,0"),   # symbol-branch oracle
    ("reduce-families", 2, "1,0"),   # Jordan centre: generating-route oracle
    ("reduce-families", 4, "2,0"),   # exact: golden walker coefficient
    ("reduce-families", 16, "1,0"),  # exact rational family: exact invariance
    ("grid-problems", 1, "1,0"),     # cell: first-order coefficient must vanish
])
def test_perturbed_coefficient_is_a_failed_op(tmp_path, monkeypatch, workload, index, key):
    op = workloads.build(workload, 3, tmp_path)[0][index]
    res = worker.run([op], seconds=0, traced=False)
    assert res["attempted"] == 1 and res["failures"] == []

    real_main = worker.cli.main

    def perturbed_main(argv):
        rc = real_main(argv)
        _perturb(op.out / "model.json", key)
        return rc

    monkeypatch.setattr(worker.cli, "main", perturbed_main)
    res = worker.run([op], seconds=0, traced=False)
    assert res["attempted"] == 1
    assert len(res["failures"]) == 1, res["failures"]


@pytest.mark.parametrize("workload,index", [
    ("reduce-families", 3), ("reduce-families", 4), ("reduce-families", 17),
    pytest.param("grid-problems", 1, marks=pytest.mark.xfail(strict=True, reason=(
        "known defect: the sparse symmetric split (dimU > 600) starts ARPACK from a "
        "random vector, so report.json residuals differ between any two runs"))),
    ("grid-problems", 5),
])
def test_traced_and_untraced_reports_identical(tmp_path, workload, index):
    op = workloads.build(workload, 4, tmp_path)[0][index]
    tracer = spans.Tracer()
    assert worker.run_op(op)[-1] == []
    untraced = (op.out / "report.json").read_bytes()
    tracer.install()
    try:
        assert worker.run_op(op, tracer)[-1] == []
    finally:
        tracer.uninstall()
    assert (op.out / "report.json").read_bytes() == untraced
    names = {rec[0] for rec in tracer.spans}
    assert {"op", "cli.main", "crosssection.split", "slowreduce.construct"} <= names
    # the wrappers are gone again
    assert worker.cli.main.__module__ == "slowvary.cli"
    assert not hasattr(worker.cli.main, "__wrapped__")


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    # parent 0..10 with children 1..3 and 2..6 (overlapping) and 8..9
    tracer.spans = [["p", 0.0, 10.0, None, 0], ["c", 1.0, 3.0, 0, 0],
                    ["c", 2.0, 6.0, 0, 0], ["c", 8.0, 9.0, 0, 0],
                    ["g", 2.5, 3.0, 1, 0]]
    t = tracer.self_times()
    assert t["p"] == pytest.approx(10 - 5 - 1)
    assert t["c"] == pytest.approx((2 - 0.5) + 4 + 1)
    assert t["g"] == pytest.approx(0.5)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    assert tuple(workloads.WHY) == run.WORKLOADS == tuple(workloads.PARTS)
    assert sorted(p for parts in workloads.PARTS.values() for p in parts) == sorted(inputs.PARTS)


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-families", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.xfail(strict=True, reason=(
    "known defect: block_spectrum_check pairs eigenvalues of the grouped generator, "
    "which for a Jordan centre are accurate only to about sqrt(eps); the CLI's "
    "threshold (100 * tol * scale) fails it on some seeds, so the reduce-random part runs its "
    "Jordan family above the 2000-row block-check limit"))
def test_jordan_centre_passes_block_checks(tmp_path):
    import numpy as np

    gap = inputs.gap_family(np.random.default_rng(1), tmp_path / "j.json", 64, 2, 2, "jordan")
    rc = worker.cli.main(["reduce", "--model", str(gap.path), "-N", "2", "--alpha", "1e-6",
                          "--out", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the float block checks compare absolute residuals with "
    "tol * max|L_k|; a rational closure whose coefficients grow large fails "
    "slow_subspace_pass at a relative residual near 1e-14"))
def test_large_rational_closure_passes_block_checks(tmp_path):
    from fractions import Fraction

    import numpy as np

    # the benchmark's rational family with every L_k, k != 0, scaled by 32:
    # its order-6 closure has coefficients near 2e8
    fam = inputs.rational_family(np.random.default_rng(2), tmp_path / "r.json", 6, 1)
    doc = json.loads(fam.path.read_text())
    for key, rows in doc["operators"].items():
        if key != "0,0":
            doc["operators"][key] = [[str(32 * Fraction(x)) for x in row] for row in rows]
    fam.path.write_text(json.dumps(doc))
    rc = worker.cli.main(["reduce", "--model", str(fam.path), "-N", "6", "--exact",
                          "--out", str(tmp_path / "out")])
    assert rc == 0
