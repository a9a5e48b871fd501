"""The benchmark tracer (``perfbench/spans.py``) wraps package functions by
name; a rename in the package must fail here rather than in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

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
