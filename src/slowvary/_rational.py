"""Exact linear algebra over the rationals.

Exact mode has one arithmetic type, :class:`RatMatrix`: Python-int
numerators over one positive common denominator, normalised with a
single gcd per result.  Numpy object arrays of ``fractions.Fraction``
are only its storage and interchange form: families, splits, reduced
models and bases hold them, :func:`frac_matrix` builds them from nested
tables, and the JSON codec below reads and writes them.  Each function
that computes exactly (the construction recursion on the basis vectors,
the constrained Sylvester solve, the invariance check, the block
slow-subspace check, the exact split and the modal transform check)
converts with :func:`as_ratmatrix` on entry and back with
:func:`as_fractions` on exit; both pass float and sparse matrices
through unchanged.  Solving, inverting and nullspaces are a
fraction-free Gauss-Jordan elimination on integer numerators.
Sizes in exact mode stay tiny (a few dozen rows), so clarity beats
asymptotics.

It also owns the JSON model-document format every model file is saved
and read in.  A matrix is a list of rows of ``"p/q"`` strings (exact) or
numbers (float).  On reading, a JSON number (not a bool) is taken as is
and a string is parsed as a Fraction; in both modes every entry must give
a finite float64, and an object that repeats a key is refused.  The
model classes build their documents with array leaves (2-D float64 or
Fraction arrays, or SciPy sparse matrices), and :func:`save_json` writes
those as :func:`encode_matrix` rows, with sorted keys, without forming
the rows as lists.
"""

from __future__ import annotations

import contextlib
import json
import math
from fractions import Fraction
from itertools import chain

import numpy as np
import scipy.sparse as sparse

from .multiindex import parse_index


def _matrix(data: list, dtype) -> np.ndarray:
    width = len(data[0]) if data else 0
    if any(len(row) != width for row in data):
        raise ValueError("matrix has ragged rows")
    return np.array(data, dtype=dtype).reshape(len(data), width)


def frac_matrix(rows) -> np.ndarray:
    """Object array of Fractions from a nested sequence of ints, Fractions
    or rational strings like ``"8/27"``, each taken by ``Fraction``."""
    return _matrix([[Fraction(x) for x in row] for row in rows], object)


def is_exact(a) -> bool:
    return isinstance(a, RatMatrix) or (isinstance(a, np.ndarray) and a.dtype == object)


def as_float(a) -> np.ndarray:
    """Dense float64 array of a float, Fraction or SciPy sparse matrix."""
    return a.toarray() if sparse.issparse(a) else np.asarray(a, dtype=float)


class RatMatrix:
    """Exact rational array: an object array ``num`` of Python ints over one
    Python int ``den``, in lowest terms (``den > 0`` and
    ``gcd(den, *num.flat) == 1``, so a zero array has ``den == 1``).

    The one exact arithmetic type: ``@``, ``+`` and ``-`` with another
    RatMatrix, negation, multiplication by an int or a Fraction, ``abs``,
    ``max``, :meth:`any`, ``.T``, indexing (an entry comes out as a
    Fraction) and :meth:`block`.  Any other operand of ``@``, ``+`` or
    ``-`` (a Fraction or float array) raises TypeError.
    """

    __slots__ = ("num", "den")
    __array_ufunc__ = None  # numpy defers mixed expressions, which then raise

    def __init__(self, num, den: int = 1):
        num = np.asarray(num, dtype=object)
        g = math.gcd(den, *num.flat)
        g = -g if den < 0 else g
        self.num = num // g if g != 1 else num
        self.den = den // g

    @classmethod
    def _lowest(cls, num, den: int) -> "RatMatrix":
        """Wrap a pair already in lowest terms."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def from_fractions(cls, a) -> "RatMatrix":
        a = np.asarray(a, dtype=object)
        den = math.lcm(*(x.denominator for x in a.flat))
        num = [x.numerator * (den // x.denominator) for x in a.flat]
        return cls(np.array(num, dtype=object).reshape(a.shape), den)

    def to_fractions(self) -> np.ndarray:
        out = np.empty(self.num.shape, dtype=object)
        out.flat = [Fraction(x, self.den) for x in self.num.flat]
        return out

    @classmethod
    def zeros(cls, shape) -> "RatMatrix":
        return cls._lowest(np.zeros(shape, dtype=object), 1)

    @classmethod
    def eye(cls, n: int) -> "RatMatrix":
        return cls._lowest(np.eye(n, dtype=int).astype(object), 1)

    @classmethod
    def block(cls, rows) -> "RatMatrix":
        """Block matrix from a nested list of RatMatrix, as ``np.block``."""
        den = math.lcm(*(a.den for row in rows for a in row))
        return cls._lowest(np.block([[a.num * (den // a.den) for a in row] for row in rows]), den)

    shape = property(lambda self: self.num.shape)
    size = property(lambda self: self.num.size)
    T = property(lambda self: RatMatrix._lowest(self.num.T, self.den))

    def __getitem__(self, idx):
        part = self.num[idx]
        if isinstance(part, np.ndarray):
            return RatMatrix(part, self.den)
        return Fraction(part, self.den)

    def any(self) -> bool:
        """True unless every entry is zero."""
        return bool((self.num != 0).any())

    def max(self) -> Fraction:
        return Fraction(max(self.num.flat), self.den)

    def __abs__(self):
        return RatMatrix._lowest(abs(self.num), self.den)

    def __neg__(self):
        return RatMatrix._lowest(-self.num, self.den)

    def __mul__(self, c):
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return RatMatrix(self.num * c.numerator, self.den * c.denominator)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return RatMatrix(self.num @ other.num, self.den * other.den)

    def _plus(self, other, subtract: bool):
        """``self + other`` (or ``-``) over the lcm of the two denominators."""
        if not isinstance(other, RatMatrix):
            return NotImplemented
        a, b, den = self.num, other.num, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            a = a if den == self.den else a * (den // self.den)
            b = b if den == other.den else b * (den // other.den)
        return RatMatrix(a - b if subtract else a + b, den)

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)


def as_ratmatrix(a):
    """RatMatrix of a Fraction object array; other matrices pass through."""
    return RatMatrix.from_fractions(a) if isinstance(a, np.ndarray) and a.dtype == object else a


def as_fractions(a):
    """Fraction object array of a RatMatrix; other matrices pass through."""
    return a.to_fractions() if isinstance(a, RatMatrix) else a


def zeros(shape, exact: bool) -> np.ndarray:
    return np.full(shape, Fraction(0), dtype=object) if exact else np.zeros(shape)


def _rref(M: np.ndarray, ncols: int) -> list[int]:
    """Fraction-free reduced row echelon form of an object array of Python
    ints, in place; returns the pivot column list.

    A pivot clears its column from every other row by integer
    cross-multiplication, and each changed row is divided by the gcd of
    its entries, so row ``r`` ends as ``M[r, pivots[r]]`` times row ``r``
    of the (unique) rational reduced echelon form.  Only the first
    ``ncols`` columns are eligible as pivots; trailing columns ride along
    as right-hand sides.
    """
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        rows = [i for i in range(r, M.shape[0]) if M[i, c]]
        if not rows:
            continue
        # the smallest pivot keeps the cross products small
        best = min(rows, key=lambda i: abs(M[i, c]))
        M[[r, best]] = M[[best, r]]
        M[r] //= math.gcd(*M[r])
        p = M[r, c]
        for i in range(M.shape[0]):
            if i != r and M[i, c]:
                g = math.gcd(p, M[i, c])
                row = M[i] * (p // g) - M[r] * (M[i, c] // g)
                M[i] = row // (math.gcd(*row) or 1)
        pivots.append(c)
        if len(pivots) == M.shape[0]:
            break
    return pivots


def solve_exact(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """Solve ``A X = B`` exactly; A may be rectangular.

    Requires the system to be consistent with a unique solution (full
    column rank); raises ValueError otherwise.
    """
    nr, nc = A.shape
    if B.shape[0] != nr:
        raise ValueError("right-hand side has wrong length")
    # A X = B  <=>  (B.den A.num) X = A.den B.num, all integers
    M = np.concatenate([A.num * B.den, B.num * A.den], axis=1)
    if len(_rref(M, nc)) < nc:
        raise ValueError("exact solve: system is underdetermined (rank deficient)")
    if any(M[nc:, nc:].flat):
        raise ValueError("exact solve: system is inconsistent")
    piv = [M[c, c] for c in range(nc)]
    den = math.lcm(*piv)
    return RatMatrix(M[:nc, nc:] * np.array([den // p for p in piv], dtype=object)[:, None], den)


def nullspace_exact(A: RatMatrix) -> RatMatrix:
    """Basis for the exact nullspace of A, as columns; shape (n, dim)."""
    M = A.num.copy()
    nc = A.shape[1]
    pivots = _rref(M, nc)
    free = [c for c in range(nc) if c not in pivots]
    den = math.lcm(*(M[r, c] for r, c in enumerate(pivots)))
    basis = np.zeros((nc, len(free)), dtype=object)
    for k, fc in enumerate(free):
        basis[fc, k] = den
        for r, pc in enumerate(pivots):
            basis[pc, k] = -M[r, fc] * (den // M[r, pc])
    return RatMatrix(basis, den)


def inverse_exact(A: RatMatrix) -> RatMatrix:
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("inverse of a non-square matrix")
    return solve_exact(A, RatMatrix.eye(n))


# -- model documents ----------------------------------------------------------


def encode_matrix(mat) -> list:
    """Document rows: ``"p/q"`` strings for exact matrices, floats otherwise."""
    if is_exact(mat):
        return [[str(x) for x in row] for row in mat.tolist()]
    return as_float(mat).tolist()


def _decode_entry(x, exact: bool):
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        try:
            q = Fraction(x) if isinstance(x, str) else x
            if math.isfinite(float(q)):
                return Fraction(q) if exact else float(q)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ValueError(f"matrix entry {x!r} is not a finite float64")


def _decode_floats(rows) -> np.ndarray | None:
    """Float64 matrix of rows of JSON numbers in one pass of C loops (a type
    scan, one conversion, one finiteness test); None when an entry is not
    an int or a float, or not finite as a float64, or the rows are ragged."""
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        return None
    try:
        out = np.array(rows, dtype=float)
    except (ValueError, OverflowError):  # ragged rows, an int beyond float64
        return None
    return out if np.isfinite(out).all() else None


def decode_matrix(rows, exact: bool = False, shape=None) -> np.ndarray:
    """Matrix from document rows: Fractions if ``exact``, else float64.

    Raises ValueError for an entry outside the module docstring's rule,
    for rows that are not lists of one length, and for a wrong ``shape``.
    """
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix is not a non-empty list of rows")
    out = None if exact else _decode_floats(rows)
    if out is None:  # exact, or some entry is bad: decode one by one to name it
        data = [[_decode_entry(x, exact) for x in row] for row in rows]
        out = _matrix(data, object if exact else float)
    if shape is not None and out.shape != tuple(shape):
        raise ValueError(f"matrix has shape {out.shape}, expected {tuple(shape)}")
    return out


def decode_index_table(table: dict, exact: bool, shape, what: str, M: int | None = None) -> dict:
    """Matrices keyed by the parsed multi-index of each key of ``table``.  Each
    key has ``M`` components (the first key's if None); two keys that name one
    index (``"2,0"``, ``"02,0"``) raise ValueError naming ``what`` and both."""
    out, keys = {}, {}
    for key, rows in table.items():
        idx = parse_index(key)
        M = len(idx) if M is None else M
        if len(idx) != M:
            raise ValueError(f"{what} key {key!r} does not have {M} components")
        if idx in keys:
            raise ValueError(f"{what} keys {keys[idx]!r} and {key!r} name the same index")
        keys[idx] = key
        try:
            out[idx] = decode_matrix(rows, exact, shape)
        except ValueError as exc:
            raise ValueError(f"{what} {key!r}: {exc}") from None
    return out


def json_int(doc: dict, key: str) -> int:
    """Integer field ``key`` of a document; a bool or a float is refused."""
    if isinstance(doc[key], bool) or not isinstance(doc[key], int):
        raise ValueError(f"{key!r} must be an integer, got {doc[key]!r}")
    return doc[key]


def json_number(doc: dict, key: str, default: float) -> float:
    """Number field ``key`` of a document, ``default`` when absent; a bool
    or a string is refused."""
    x = doc.get(key, default)
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        with contextlib.suppress(OverflowError):
            return float(x)
    raise ValueError(f"{key!r} must be a number, got {x!r}")


def _is_array(obj) -> bool:
    return isinstance(obj, np.ndarray) or sparse.issparse(obj)


def encode_arrays(doc):
    """``doc`` with each array among its dict values, at any depth, replaced
    by its :func:`encode_matrix` rows."""
    if isinstance(doc, dict):
        return {k: encode_arrays(v) for k, v in doc.items()}
    return encode_matrix(doc) if _is_array(doc) else doc


def _row_text(mat) -> str:
    r"""The entries of ``mat`` as the C encoder writes them, from one call on
    the flat entries: ``"\n"`` between the entries of a row and ``"\0"``
    between rows (JSON text holds neither raw)."""
    flat = list(map(str, mat.flat)) if is_exact(mat) else as_float(mat).ravel().tolist()
    items = json.dumps(flat, separators=("\n", ":"))[1:-1].split("\n")
    return "\0".join(map("\n".join, zip(*[iter(items)] * mat.shape[1])))


def save_json(path, doc) -> None:
    """Write ``json.dumps(encode_arrays(doc), indent=2, sort_keys=True)``
    and a newline to ``path``, piece by piece.

    A non-empty dict with string keys is written key by key.  A non-empty
    2-D array or sparse matrix is a matrix leaf: each distinct one (by
    identity) is encoded once by :func:`_row_text`, and indented once for
    each depth it sits at, by two ``str.replace`` calls.  Any other value
    is written by ``json.dumps`` at its depth.  No whole-document string
    is formed.
    """
    rows: dict = {}  # id of a matrix leaf -> its row text
    texts: dict = {}  # (id, indent) -> its indented text

    def write(obj, ind: str) -> None:
        if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
            inner, sep = ind + "  ", "{"
            for key in sorted(obj):
                fh.write(f"{sep}\n{inner}{json.dumps(key)}: ")
                write(obj[key], inner)
                sep = ","
            fh.write(f"\n{ind}}}")
        elif _is_array(obj) and obj.ndim == 2 and 0 not in obj.shape:
            if (id(obj), ind) not in texts:
                if id(obj) not in rows:
                    rows[id(obj)] = _row_text(obj)
                i1, i2 = ind + "  ", ind + "    "
                text = rows[id(obj)].replace("\n", ",\n" + i2)
                text = text.replace("\0", f"\n{i1}],\n{i1}[\n{i2}")
                texts[id(obj), ind] = f"[\n{i1}[\n{i2}{text}\n{i1}]\n{ind}]"
            fh.write(texts[id(obj), ind])
        else:
            text = json.dumps(encode_arrays(obj), indent=2, sort_keys=True)
            fh.write(text.replace("\n", "\n" + ind))

    with open(path, "w") as fh:
        write(doc, "")
        fh.write("\n")


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` of :func:`load_json`: refuse a repeated key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for k in doc if keys.count(k) > 1)
        raise ValueError(f"key {repeated!r} is repeated in one JSON object")
    return doc


def load_json(path):
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)
