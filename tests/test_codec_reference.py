"""The model-document codec against its row-by-row reference.

``save_json`` type-checks a matrix in C-level passes, encodes it with one
call of the C encoder and indents it with two ``str.replace`` calls, and it
encodes a matrix object that a document holds at several places once.  The
functions below are the row-by-row codec it replaced (an ``isinstance``
per entry, an f-string and a ``replace`` per row), kept as the reference:
every document must come out with the same bytes, and both must equal
``json.dumps(doc, indent=2, sort_keys=True)``.
"""

import json
import math

import numpy as np
import pytest

import slowvary as sv
from slowvary._rational import save_json
from slowvary.models import random_walker_modal

_SCALARS = (str, int, float, bool, type(None))


def _is_matrix(obj) -> bool:
    return (isinstance(obj, list) and bool(obj)
            and all(isinstance(row, list) and row for row in obj)
            and all(isinstance(x, _SCALARS) for row in obj for x in row))


def _indented(obj, ind: str) -> str:
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj) and obj:
        inner = ind + "  "
        items = (f"{inner}{json.dumps(k)}: {_indented(obj[k], inner)}" for k in sorted(obj))
        return "{\n" + ",\n".join(items) + "\n" + ind + "}"
    if _is_matrix(obj):
        i1, i2 = ind + "  ", ind + "    "
        rows = json.dumps(obj, separators=(",\n", ": "))[2:-2].split("],\n[")
        rows = (f"{i1}[\n{i2}" + row.replace(",\n", ",\n" + i2) + f"\n{i1}]" for row in rows)
        return "[\n" + ",\n".join(rows) + "\n" + ind + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + ind)


def _assert_reference_bytes(path, doc):
    save_json(path, doc)
    got = path.read_bytes()
    assert got == (_indented(doc, "") + "\n").encode()
    assert got == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("n", [16, 64])
def test_cell_basis(tmp_path, n):
    cell = sv.homogenisation_cell(sv.CellProblem.from_expression("layered_cos", n=n))
    _, basis = sv.construct_reduction(cell, N=2, split=sv.cell_spectral_split(cell, N=2))
    _assert_reference_bytes(tmp_path / "basis.json", basis.to_json())


@pytest.mark.parametrize("method", ["vectors", "generating"])
def test_exact_walker_basis(tmp_path, method):
    model, basis = sv.construct_reduction(random_walker_modal(exact=True), 4, method=method)
    for doc in (model.to_json(), basis.to_json()):
        _assert_reference_bytes(tmp_path / "doc.json", doc)


_ODD_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 1.5e300,
               float("nan"), float("inf"), -float("inf"), 0.1, -7]


def _random_matrix(rng, exact_strings=False):
    h, w = rng.integers(1, 5, size=2)
    if exact_strings:
        return [[f"{rng.integers(-9, 9)}/{rng.integers(1, 9)}" for _ in range(w)]
                for _ in range(h)]
    return [[_ODD_FLOATS[i] for i in rng.integers(0, len(_ODD_FLOATS), size=w)]
            for _ in range(h)]


@pytest.mark.parametrize("seed", range(6))
def test_random_documents(tmp_path, seed):
    rng = np.random.default_rng(seed)
    zeros = [[0.0, 0.0], [0.0, 0.0]]
    shared = _random_matrix(rng)
    doc = {
        # equal values, different bits: a cache keyed by value would merge them
        "zero": zeros,
        "negzero": [[-0.0, 0.0], [0.0, -0.0]],
        "zero-again": [row[:] for row in zeros],
        "random": {f"m{i}": _random_matrix(rng, exact_strings=i % 2 == 1) for i in range(5)},
        "ragged": [[1.0], [2.0, 3.0, -0.0], ["x", None, True, 4]],
        "tuple-rows": [(1.0, 2.0), (3.0, 4.0)],
        "mixed-rows": [[1.0, 2.0], (3.0, 4.0)],
        "escapes": [['"', "\\", "\n", "\t", "\x00", "é", " ", "], [", "\\n"]],
        "bool-and-int": [[True, False], [1, -2**70]],
        "numpy-floats": [[np.float64(0.5), np.float64(-0.0)]],
        "empty-row": [[1.0], []],
        "scalars": [1.0, float("nan"), "s"],
        # one list object at two depths: encoded once, indented at each
        "shared": shared,
        "deep": {"a": {"b": shared}, "c": [shared]},
    }
    _assert_reference_bytes(tmp_path / "doc.json", doc)


def test_one_matrix_object_at_two_depths(tmp_path):
    m = [[1.0, -0.0], [float("nan"), 1e-05]]
    doc = {"top": m, "nested": {"deeper": {"deepest": m}}, "again": m}
    _assert_reference_bytes(tmp_path / "doc.json", doc)
    assert math.isnan(json.loads((tmp_path / "doc.json").read_text())["again"][1][0])
