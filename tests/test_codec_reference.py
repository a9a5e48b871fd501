"""The model-document writer against its row-by-row reference.

The model classes build their documents with array leaves, and
``save_json`` writes each distinct array from one call of the C encoder
on its flat entries, indents it once for each depth it sits at and
streams the pieces to the file.  The functions below are the row-by-row
codec of list documents it replaced (an ``isinstance`` per entry, an
f-string and a ``replace`` per row), kept as the reference: ``save_json``
on an array document must give the bytes the reference gives on
``encode_arrays`` of it, and both must equal
``json.dumps(encode_arrays(doc), indent=2, sort_keys=True)``.  For the
model classes that is ``save(path)`` against ``to_json()``.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sparse

import slowvary as sv
from slowvary._rational import encode_arrays, save_json
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


def _assert_reference_bytes(got: bytes, doc: dict):
    """``got`` is what the reference and ``json.dumps`` write for list document ``doc``."""
    assert got == (_indented(doc, "") + "\n").encode()
    assert got == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _assert_saved(path, obj):
    obj.save(path)
    _assert_reference_bytes(path.read_bytes(), obj.to_json())


def _assert_written(path, doc):
    save_json(path, doc)
    _assert_reference_bytes(path.read_bytes(), encode_arrays(doc))


def _cell_basis(expr, n):
    cell = sv.homogenisation_cell(sv.CellProblem.from_expression(expr, n=n))
    return sv.construct_reduction(cell, N=2, split=sv.cell_spectral_split(cell, N=2))[1]


@pytest.mark.parametrize("n", [16, 64])
def test_cell_basis(tmp_path, n):
    _assert_saved(tmp_path / "basis.json", _cell_basis("layered_cos", n))


@pytest.mark.parametrize("method", ["vectors", "generating"])
def test_exact_walker_basis(tmp_path, method):
    model, basis = sv.construct_reduction(random_walker_modal(exact=True), 4, method=method)
    for obj in (model, basis):
        _assert_saved(tmp_path / "doc.json", obj)


def _cell_with_samples():
    K = 1.0 + 0.5 * np.random.default_rng(7).random((8, 8))
    return sv.CellProblem(h=2.0, n=8, K=K)


_DOCUMENT_OBJECTS = {
    "csr-cell-family": lambda: sv.homogenisation_cell(
        sv.CellProblem.from_expression("checkerboard_smooth", n=8)),
    "cell-K-samples": _cell_with_samples,
    "cell-K-expr": lambda: sv.CellProblem.from_expression("layered_cos", n=8, amplitude=0.3),
    "cell-family-of-samples": lambda: sv.homogenisation_cell(_cell_with_samples()),
}


@pytest.mark.parametrize("name", _DOCUMENT_OBJECTS)
def test_model_objects(tmp_path, name):
    obj = _DOCUMENT_OBJECTS[name]()
    _assert_saved(tmp_path / "doc.json", obj)
    if isinstance(obj, sv.OperatorFamily):
        assert obj.storage == "csr"
        _, basis = sv.construct_reduction(obj, N=2, split=sv.cell_spectral_split(obj, N=2))
        _assert_saved(tmp_path / "basis.json", basis)


_ODD_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 1.5e300,
               float("nan"), float("inf"), -float("inf"), 0.1, -7]


def _random_array(rng, exact=False):
    h, w = rng.integers(1, 5, size=2)
    if exact:
        return np.array([[Fraction(int(rng.integers(-9, 9)), int(rng.integers(1, 9)))
                          for _ in range(w)] for _ in range(h)], dtype=object)
    return np.array(_ODD_FLOATS)[rng.integers(0, len(_ODD_FLOATS), size=(h, w))]


@pytest.mark.parametrize("seed", range(6))
def test_random_documents(tmp_path, seed):
    rng = np.random.default_rng(seed)
    zeros = np.zeros((2, 2))
    shared = _random_array(rng)
    wide = np.array(_ODD_FLOATS).reshape(3, 4)
    doc = {
        # equal values, different bits or objects: a cache keyed by value
        # would merge them
        "zero": zeros,
        "negzero": np.array([[-0.0, 0.0], [0.0, -0.0]]),
        "zero-again": zeros.copy(),
        "random": {f"m{i}": _random_array(rng, exact=i % 2 == 1) for i in range(5)},
        # row order of views: transposed, Fortran order, strided
        "layouts": {"wide": wide, "transposed": wide.T, "fortran": np.asfortranarray(wide),
                    "strided": wide[::2, ::-3], "column": wide[:, 1:2], "row": wide[1:2]},
        "sparse": {"csr": sparse.csr_matrix(wide), "empty-csr": sparse.csr_matrix((2, 3))},
        "other-dtypes": {"int": np.arange(6).reshape(2, 3), "bool": np.eye(2, dtype=bool),
                         "float32": np.full((1, 2), 0.1, dtype=np.float32)},
        # no matrix leaves: written by json.dumps at their depth
        "no-rows": np.zeros((0, 3)),
        "no-columns": np.zeros((2, 0)),
        "vector": np.array([1.0, -0.0]),
        "ragged": [[1.0], [2.0, 3.0, -0.0], ["x", None, True, 4]],
        "list-rows": [[1.0, 2.0], [3.0, float("nan")]],
        "escapes": [['"', "\\", "\n", "\t", "\x00", "é", " ", "], [", "\\n"]],
        "string-array": np.array([["a\nb", "], ["], ['"', "\x00"]], dtype=object),
        "int-keys": {2: [[1]], 1: [[2]]},
        "empty": {"dict": {}, "list": []},
        "scalars": [1.0, float("nan"), "s"],
        # one array object at several depths: encoded once, indented at each
        "shared": shared,
        "deep": {"a": {"b": shared}, "c": {"d": {"e": shared}}},
    }
    _assert_written(tmp_path / "doc.json", doc)


def test_one_matrix_object_at_two_depths(tmp_path):
    m = np.array([[1.0, -0.0], [float("nan"), 1e-05]])
    doc = {"top": m, "nested": {"deeper": {"deepest": m}}, "again": m}
    _assert_written(tmp_path / "doc.json", doc)
    back = json.loads((tmp_path / "doc.json").read_text())
    assert math.isnan(back["again"][1][0]) and math.copysign(1, back["top"][0][1]) == -1


def test_a_saved_cell_basis_streams_to_its_file(tmp_path):
    """The writer forms no whole-document string: saving the 4.3 MB basis of
    the n = 64 checkerboard cell allocates less than the file holds."""
    basis = _cell_basis("checkerboard_smooth", 64)
    path = tmp_path / "basis.json"
    tracemalloc.start()
    try:
        basis.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
