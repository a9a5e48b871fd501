"""The benchmark (``perfbench/``) reaches the package by name: its tracer
(``perfbench/spans.py``) wraps package functions, and its workloads call
``construct_reduction(..., method="generating")`` and run
``reduce --method generating``.  A rename or a removed option in the
package must fail here rather than in a benchmark run."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import slowvary as sv
from slowvary.cli import main
from slowvary.models import random_walker_modal

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for module, attr, _, _ in spans.TARGETS:
        # resolved as Tracer.install does: the leaf must be the owner's own attribute
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            missing.append(f"{module}.{attr}")
    assert not missing, missing


def test_construct_reduction_accepts_both_methods():
    fam = random_walker_modal(exact=True)
    (mv, bv), (mg, bg) = (sv.construct_reduction(fam, 3, method=method)
                          for method in ("vectors", "generating"))
    assert mv.to_json() == mg.to_json() and bv.to_json() == bg.to_json()
    with pytest.raises(ValueError, match="unknown construction method"):
        sv.construct_reduction(fam, 3, method="poly")


@pytest.mark.parametrize("model, flags", [("walker-physical", []),
                                          ("walker-modal", ["--exact"])],
                         ids=["float", "exact"])
def test_reduce_method_generating_writes_the_vectors_bytes(tmp_path, capsys, model, flags):
    """``model.json``, ``basis.json`` (its ``poly`` block included) and
    stdout are byte-identical for both ``--method`` values; ``report.json``
    differs only in ``method``."""
    runs = {}
    for method in ("vectors", "generating"):
        out = tmp_path / method
        out.mkdir()
        argv = ["reduce", "--model", model, "-N", "4", *flags, "--method", method,
                "--out", str(out)]
        assert main(argv) == 0
        runs[method] = out, capsys.readouterr().out
    (vec, vec_stdout), (gen, gen_stdout) = runs["vectors"], runs["generating"]
    assert gen_stdout == vec_stdout
    for name in ("model.json", "basis.json"):
        assert (gen / name).read_bytes() == (vec / name).read_bytes(), name
    assert json.loads((gen / "basis.json").read_text())["poly"]
    reports = [json.loads((d / "report.json").read_text()) for d in (vec, gen)]
    assert [r.pop("method") for r in reports] == ["vectors", "generating"]
    assert reports[0] == reports[1]
