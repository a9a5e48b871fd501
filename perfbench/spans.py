"""In-memory span tracer that wraps slowvary's public functions from outside.

Each wrapped call records a span ``[name, start, end, parent, op]``:
``parent`` is the index of the enclosing span and ``op`` the id of the
benchmark op it ran under.  A layer's self time is a span's duration
minus the part of it covered by its child spans.  Wrappers replace the
attribute where the caller looks the function up (a module that did
``from .crosssection import spectral_split`` holds its own binding) and
are removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _entries(fam):
    return {"crosssection.load_entries": len(fam.ops) * fam.dimU ** 2}


def _family_bytes(fam):
    return {"models.family_bytes": sum(op.nbytes for op in fam.ops.values())}


def _indices(result):
    return {"slowreduce.indices": len(result[0].A)}


def _block_rows(block):
    return {"taylorsystem.block_rows": block.matrix.shape[0]}


def _mode_samples(traj):
    return {"simulate.mode_samples": traj.values.shape[0] * math.prod(traj.grid)}


def _one_call(_):
    return {"rational.calls": 1}


# (module, attribute or Class.attribute, layer span name, counter)
TARGETS = (
    ("slowvary.cli", "main", "cli.main", None),
    ("slowvary.slowreduce", "ReducedModel.save", "cli.save", None),
    ("slowvary.slowreduce", "GeneratingBasis.save", "cli.save", None),
    ("slowvary.simulate", "write_frames", "cli.save", None),
    ("slowvary.crosssection", "OperatorFamily.from_json", "crosssection.load", _entries),
    ("slowvary.crosssection", "spectral_split", "crosssection.split", None),
    ("slowvary.models", "spectral_split", "crosssection.split", None),
    ("slowvary.slowreduce", "spectral_split", "crosssection.split", None),
    ("slowvary.crosssection", "validate_family", "crosssection.validate", None),
    ("slowvary.models", "random_walker_modal", "models.family", _family_bytes),
    ("slowvary.models", "random_walker_physical", "models.family", _family_bytes),
    ("slowvary.models", "homogenisation_cell", "models.family", _family_bytes),
    ("slowvary.models", "cell_spectral_split", "models.cell_split", None),
    ("slowvary.slowreduce", "construct_reduction", "slowreduce.construct", _indices),
    ("slowvary.slowreduce", "check_invariance", "slowreduce.invariance", None),
    ("slowvary.taylorsystem", "build_block_operator", "taylorsystem.build", _block_rows),
    ("slowvary.taylorsystem", "build_block_A", "taylorsystem.build", None),
    ("slowvary.taylorsystem", "block_spectrum_check", "taylorsystem.spectrum", None),
    ("slowvary.taylorsystem", "verify_slow_subspace", "taylorsystem.subspace", None),
    ("slowvary.simulate", "simulate_micro", "simulate.micro", _mode_samples),
    ("slowvary.simulate", "simulate_macro", "simulate.macro", _mode_samples),
    ("slowvary.simulate", "closure_residual", "simulate.closure", None),
    ("slowvary.simulate", "closure_order_study", "simulate.order_study", None),
    ("slowvary._rational", "solve_exact", "rational.solve", _one_call),
    ("slowvary._rational", "nullspace_exact", "rational.nullspace", _one_call),
)

LAYERS = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.op = None
        self._stack: list = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
               self.op]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, n in count(result).items():
                    self.counts[key] += n
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, count in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, count))
            else:
                new = self._wrap(raw, name, count)
            self._saved.append((owner, leaf, raw))
            setattr(owner, leaf, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, raw = self._saved.pop()
            setattr(owner, leaf, raw)

    def self_times(self) -> dict:
        """Summed self time per span name, in seconds."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[rec[3]].append((rec[1], rec[2]))
        out: dict = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for s, e in sorted(children.get(sid, ())):
                s = max(s, reach)
                if e > s:
                    covered += e - s
                    reach = e
            out[name] += (end - start) - covered
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
