"""Exact linear algebra over the rationals.

The optional exact mode stores model matrices as numpy object arrays of
``fractions.Fraction``: families, splits, reduced models and bases hold
them, and the JSON codec below reads and writes them.  Arithmetic on
Fraction arrays normalises every entry with a gcd after every operation,
so the exact hot paths convert to :class:`RatMatrix` instead: Python-int
numerators over one positive common denominator, normalised with a
single gcd per result.  The construction recursion, the constrained
Sylvester solve and the invariance check convert with
:func:`as_ratmatrix` on entry and back with :func:`as_fractions` on
exit; both pass float and sparse matrices through unchanged.  Everything
that needs division with pivoting (solving, nullspaces) is implemented
here on Fractions by straightforward Gauss-Jordan elimination.  Sizes in
exact mode stay tiny (a few dozen rows), so clarity beats asymptotics.

It also owns the JSON model-document format every model file is saved
and read in.  A matrix is a list of rows of ``"p/q"`` strings (exact) or
numbers (float).  On reading, a JSON number (not a bool) is taken as is
and a string is parsed as a Fraction; in both modes every entry must give
a finite float64.  Documents are saved with sorted keys.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sparse


def frac(x) -> Fraction:
    """Coerce ints, rational strings like ``"8/27"``, floats, and Fractions."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (float, np.floating)):
        return Fraction(float(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _matrix(data: list, dtype) -> np.ndarray:
    width = len(data[0]) if data else 0
    if any(len(row) != width for row in data):
        raise ValueError("matrix has ragged rows")
    return np.array(data, dtype=dtype).reshape(len(data), width)


def frac_matrix(rows) -> np.ndarray:
    """Object array of Fractions from a nested sequence."""
    return _matrix([[frac(x) for x in row] for row in rows], object)


def is_exact(a) -> bool:
    return isinstance(a, RatMatrix) or (isinstance(a, np.ndarray) and a.dtype == object)


def as_float(a) -> np.ndarray:
    """Dense float64 array of a float, Fraction or SciPy sparse matrix."""
    return a.toarray() if sparse.issparse(a) else np.asarray(a, dtype=float)


def _exact_operand(method):
    """Convert the other operand to RatMatrix; defer on anything else."""

    @functools.wraps(method)
    def wrapper(self, other):
        other = as_ratmatrix(other)
        return method(self, other) if isinstance(other, RatMatrix) else NotImplemented

    return wrapper


class RatMatrix:
    """Exact rational matrix: an object array ``num`` of Python ints over one
    Python int ``den``, in lowest terms (``den > 0`` and
    ``gcd(den, *num) == 1``, so a zero matrix has ``den == 1``).

    Supports ``@``, ``+``, ``-``, negation, multiplication by an int or a
    Fraction, ``abs``, ``max``, ``.T``, slicing (an entry comes out as a
    Fraction), :meth:`hstack` and :meth:`any`.  An object array of
    Fractions on the other side of ``@``, ``+`` or ``-`` is converted
    first; a float array is refused with TypeError.
    """

    __slots__ = ("num", "den")
    __array_ufunc__ = None  # numpy defers mixed expressions to the reflected operators

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
    def hstack(cls, mats) -> "RatMatrix":
        den = math.lcm(*(a.den for a in mats))
        return cls._lowest(np.column_stack([a.num * (den // a.den) for a in mats]), den)

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
        return any(self.num.flat)

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

    @_exact_operand
    def __matmul__(self, other):
        return RatMatrix(self.num @ other.num, self.den * other.den)

    @_exact_operand
    def __rmatmul__(self, other):
        return other @ self

    def _plus(self, other, subtract: bool):
        """``self + other`` (or ``-``) over the lcm of the two denominators."""
        a, b, den = self.num, other.num, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            a = a if den == self.den else a * (den // self.den)
            b = b if den == other.den else b * (den // other.den)
        return RatMatrix(a - b if subtract else a + b, den)

    __add__ = __radd__ = _exact_operand(lambda self, other: self._plus(other, False))
    __sub__ = _exact_operand(lambda self, other: self._plus(other, True))
    __rsub__ = _exact_operand(lambda self, other: other._plus(self, True))


def as_ratmatrix(a):
    """RatMatrix of a Fraction object array; other matrices pass through."""
    return RatMatrix.from_fractions(a) if isinstance(a, np.ndarray) and a.dtype == object else a


def as_fractions(a):
    """Fraction object array of a RatMatrix; other matrices pass through."""
    return a.to_fractions() if isinstance(a, RatMatrix) else a


def zeros(shape, exact: bool) -> np.ndarray:
    return np.full(shape, Fraction(0), dtype=object) if exact else np.zeros(shape)


def exact_eye(n: int) -> np.ndarray:
    out = zeros((n, n), True)
    np.fill_diagonal(out, Fraction(1))
    return out


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list.

    Only the first ``ncols`` columns are eligible as pivots; trailing
    columns ride along as right-hand sides.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # largest entry by magnitude keeps intermediate fractions smaller
        best, best_mag = -1, Fraction(0)
        for i in range(r, len(rows)):
            mag = abs(rows[i][c])
            if mag > best_mag:
                best, best_mag = i, mag
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_exact(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``A x = B`` exactly; A may be rectangular.

    Requires the system to be consistent with a unique solution (full
    column rank); raises ValueError otherwise.  B may be a vector or a
    matrix of stacked right-hand sides.
    """
    A = np.asarray(A, dtype=object)
    b_was_vector = B.ndim == 1
    Bm = B.reshape(-1, 1) if b_was_vector else B
    nr, nc = A.shape
    if Bm.shape[0] != nr:
        raise ValueError("right-hand side has wrong length")
    rows = [[frac(A[i, j]) for j in range(nc)] + [frac(Bm[i, k]) for k in range(Bm.shape[1])]
            for i in range(nr)]
    pivots = _rref(rows, nc)
    if len(pivots) < nc:
        raise ValueError("exact solve: system is underdetermined (rank deficient)")
    for i in range(len(pivots), nr):
        if any(x != 0 for x in rows[i][nc:]):
            raise ValueError("exact solve: system is inconsistent")
    out = zeros((nc, Bm.shape[1]), True)
    for r, c in enumerate(pivots):
        for k in range(Bm.shape[1]):
            out[c, k] = rows[r][nc + k]
    return out[:, 0] if b_was_vector else out


def nullspace_exact(A: np.ndarray) -> np.ndarray:
    """Basis for the exact nullspace of A, as columns; shape (n, dim)."""
    A = np.asarray(A, dtype=object)
    nr, nc = A.shape
    rows = [[frac(A[i, j]) for j in range(nc)] for i in range(nr)]
    pivots = _rref(rows, nc)
    free = [c for c in range(nc) if c not in pivots]
    basis = zeros((nc, len(free)), True)
    for k, fc in enumerate(free):
        basis[fc, k] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[pc, k] = -rows[r][fc]
    return basis


def inverse_exact(A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("inverse of a non-square matrix")
    return solve_exact(A, exact_eye(n))


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


def decode_matrix(rows, exact: bool = False, shape=None) -> np.ndarray:
    """Matrix from document rows: Fractions if ``exact``, else float64.

    Raises ValueError for an entry outside the module docstring's rule,
    for rows that are not lists of one length, and for a wrong ``shape``.
    """
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix is not a non-empty list of rows")
    data = [[_decode_entry(x, exact) for x in row] for row in rows]
    out = _matrix(data, object if exact else float)
    if shape is not None and out.shape != tuple(shape):
        raise ValueError(f"matrix has shape {out.shape}, expected {tuple(shape)}")
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


_SCALARS = (str, int, float, bool, type(None))


def _is_matrix(obj) -> bool:
    return (isinstance(obj, list) and bool(obj)
            and all(isinstance(row, list) and row for row in obj)
            and all(isinstance(x, _SCALARS) for row in obj for x in row))


def _indented(obj, ind: str) -> str:
    r"""``json.dumps(obj, indent=2, sort_keys=True)`` nested at indent ``ind``.

    A matrix (a list of non-empty lists of scalars) takes one call of the C
    encoder with the item separator ``",\n"``.  JSON strings hold no raw
    newline, so each ``",\n"`` is a separator, and the ones between rows
    are exactly those inside ``"],\n["``; both get indented by hand.
    """
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


def save_json(path, doc: dict) -> None:
    """Write ``doc`` as ``json.dump(doc, indent=2, sort_keys=True)`` would,
    plus a newline, with matrices encoded by the C encoder."""
    with open(path, "w") as fh:
        fh.write(_indented(doc, "") + "\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
