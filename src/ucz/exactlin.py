"""Exact rational linear algebra: immutable matrices and canonical subspaces.

Scalars are `fractions.Fraction` (aliased `Rat`), so every computation here is
exact; nothing in this module ever rounds.  A `Subspace` is stored as the
reduced row-echelon basis of its row space, which makes equality of subspaces
literal equality of the stored data.  All values are immutable after
construction and safe to share between threads.

Values are coerced once, at the edge: `vec`, `Mat` and `Mat.scale` accept
ints, strings and other numbers and convert them with `Fraction(x)`, but pass
an entry that is already a plain `Fraction` through unchanged, so a product or
sum of matrices is never coerced a second time.  Every stored entry is a plain
`Fraction`; an instance of a subclass is converted.

Row reduction (`rref`, `rank`, `kernel`, `Subspace`) eliminates over the
integers: each row is scaled by the lcm of its denominators, rows are
combined as pv*row - f*prow and divided by their content (gcd) to keep the
entries small, and only the finished pivot rows are divided by their pivots
back into `Fraction`s.  `rank` stops after the forward elimination.  The
result is the same canonical RREF as a Fraction Gauss-Jordan elimination.
`det` and `inverse` still eliminate over `Fraction`.

No operation whose result is already known is carried out.  Entries are
tested by truthiness (a `Fraction` is false exactly when it is zero), a
product with a zero factor is skipped, a zero term of a sum is skipped, and
an accumulator that is still zero takes the first product itself instead
of 0 + product.  Scaling by zero gives the zero matrix.  This applies to
`Mat` sums, differences, scaling, products, `apply`, `det` and `inverse`,
and to `Subspace.reduce`, `coefficients` and `intersect`; the results are
the same exact values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DecompositionError, DimensionError

Rat = Fraction

Vector = tuple[Rat, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Rat:
    """x itself when it is already a Fraction, else Fraction(x)."""
    return x if type(x) is Fraction else Fraction(x)


def vec(values: Iterable) -> Vector:
    """Coerce an iterable of numbers into an exact rational vector."""
    return tuple(map(_as_fraction, values))


def is_zero_vec(a: Vector) -> bool:
    return not any(a)


class Mat:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(tuple(map(_as_fraction, row)) for row in data)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise DimensionError("ragged matrix data")
        self._data = rows

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Mat":
        """Build a matrix, allowing an empty row list if `cols` is given."""
        if not rows:
            m = Mat.__new__(Mat)
            m.rows = 0
            m.cols = 0 if cols is None else cols
            m._data = ()
            return m
        return Mat(rows)

    @staticmethod
    def zeros(r: int, c: int) -> "Mat":
        return Mat.from_rows([[_ZERO] * c for _ in range(r)], cols=c)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    def row(self, i: int) -> Vector:
        return self._data[i]

    def row_list(self) -> list[Vector]:
        return list(self._data)

    def __getitem__(self, key) -> Rat:
        i, j = key
        return self._data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"Mat({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shapes differ in add")
        return Mat.from_rows(
            [
                [a + b if a and b else a or b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._data, other._data)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shapes differ in sub")
        return Mat.from_rows(
            [
                [(a - b if a else -b) if b else a for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._data, other._data)
            ],
            cols=self.cols,
        )

    def __neg__(self) -> "Mat":
        rows = [[-a if a else a for a in row] for row in self._data]
        return Mat.from_rows(rows, cols=self.cols)

    def scale(self, c) -> "Mat":
        c = _as_fraction(c)
        if not c:
            return Mat.zeros(self.rows, self.cols)
        rows = [[c * a if a else a for a in row] for row in self._data]
        return Mat.from_rows(rows, cols=self.cols)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ in mul")
        bsupport = [[(j, b) for j, b in enumerate(brow) if b] for brow in other._data]
        out = []
        for arow in self._data:
            orow = [_ZERO] * other.cols
            for a, bnz in zip(arow, bsupport):
                if a:
                    for j, b in bnz:
                        s = orow[j]
                        orow[j] = s + a * b if s else a * b
            out.append(orow)
        return Mat.from_rows(out, cols=other.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector; only the nonzero entries of v are visited."""
        if self.cols != len(v):
            raise DimensionError("matrix/vector size mismatch")
        support = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self._data:
            s = _ZERO
            for j, x in support:
                a = row[j]
                if a:
                    s = s + a * x if s else a * x
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Mat":
        return Mat.from_rows(
            [tuple(row[j] for row in self._data) for j in range(self.cols)], cols=self.rows
        )

    def is_zero(self) -> bool:
        return not any(x for row in self._data for x in row)

    def det(self) -> Rat:
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        n = self.rows
        work = [list(row) for row in self._data]
        det = _ONE
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if work[r][col]:
                    pivot = r
                    break
            if pivot is None:
                return _ZERO
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            prow = work[col]
            pv = prow[col]
            det *= pv
            for r in range(col + 1, n):
                row = work[r]
                f = row[col]
                if f:
                    f = -f / pv
                    for j in range(col, n):
                        b = prow[j]
                        if b:
                            a = row[j]
                            row[j] = a + f * b if a else f * b
        return det

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) + [_ONE if i == j else _ZERO for j in range(n)] for i, row in enumerate(self._data)]
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if work[r][col]:
                    pivot = r
                    break
            if pivot is None:
                raise DecompositionError("singular matrix has no inverse")
            work[col], work[pivot] = work[pivot], work[col]
            pv = work[col][col]
            if pv != 1:
                work[col] = [x / pv if x else x for x in work[col]]
            prow = work[col]
            support = [(j, b) for j, b in enumerate(prow) if b]
            for r in range(n):
                row = work[r]
                f = row[col]
                if r != col and f:
                    f = -f
                    for j, b in support:
                        a = row[j]
                        row[j] = a + f * b if a else f * b
        return Mat([row[n:] for row in work])


def vstack(*mats: Mat) -> Mat:
    cols = mats[0].cols
    rows: list[Vector] = []
    for m in mats:
        if m.cols != cols:
            raise DimensionError("vstack column mismatch")
        rows.extend(m.row_list())
    return Mat.from_rows(rows, cols=cols)


def hstack(*mats: Mat) -> Mat:
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise DimensionError("hstack row mismatch")
    return Mat.from_rows(
        [sum((m.row(i) for m in mats), ()) for i in range(rows)],
        cols=sum(m.cols for m in mats),
    )


def _integer_rows(rows: Iterable[Sequence[Rat]]) -> list[list[int]]:
    """Each row times the lcm of its denominators, divided by its content."""
    out = []
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def _combine(row: list[int], prow: list[int], c: int) -> list[int]:
    """Primitive integer row pv*row - f*prow, where f = row[c] and pv = prow[c]."""
    pv, f = prow[c], row[c]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    new = [a * x - b * y for x, y in zip(row, prow)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _echelon(rows: list[list[int]], cols: int) -> list[int]:
    """In-place integer row echelon form; returns the pivot columns.

    Rows below a pivot are cleared with pv*row - f*prow and kept primitive,
    so no division but the exact division by a row's content ever occurs.
    """
    pivots: list[int] = []
    n = len(rows)
    r = 0
    for c in range(cols):
        if r == n:
            break
        pivot = None
        for rr in range(r, n):
            if rows[rr][c]:
                pivot = rr
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        for rr in range(pivot + 1, n):
            if rows[rr][c]:
                rows[rr] = _combine(rows[rr], prow, c)
        pivots.append(c)
        r += 1
    return pivots


def _pivot_columns(rows: Iterable[Sequence[Rat]], cols: int) -> list[int]:
    """Pivot columns of the row space, without building the reduced form."""
    return _echelon(_integer_rows(rows), cols)


def _rref_rows(rows: Iterable[Sequence[Rat]], cols: int) -> tuple[list[list[Rat]], list[int]]:
    """Reduced row echelon form of `rows` as new Fraction rows, and its pivot columns.

    Eliminates over the integers and divides each pivot row by its pivot
    only at the end; zero rows sink to the bottom.
    """
    work = _integer_rows(rows)
    pivots = _echelon(work, cols)
    for i in range(len(pivots) - 1, 0, -1):
        p, prow = pivots[i], work[i]
        for rr in range(i):
            if work[rr][p]:
                work[rr] = _combine(work[rr], prow, p)
    out = []
    for prow, p in zip(work, pivots):
        pv = prow[p]
        out.append([_ZERO if not x else _ONE if x == pv else Fraction(x, pv) for x in prow])
    out.extend([_ZERO] * cols for _ in range(len(work) - len(pivots)))
    return out, pivots


def rref(m: Mat) -> Mat:
    """Reduced row-echelon form, same shape; zero rows sink to the bottom."""
    rows, _ = _rref_rows(m.row_list(), m.cols)
    return Mat.from_rows(rows, cols=m.cols)


def rank(m: Mat) -> int:
    return len(_pivot_columns(m.row_list(), m.cols))


class Subspace:
    """A linear subspace of Q^n held in canonical (RREF basis) form.

    Two Subspace values are equal exactly when they are the same subspace;
    the canonical basis makes that a data comparison.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: Mat, _canonical: bool = False):
        if basis.cols != ambient_dim:
            raise DimensionError("basis width differs from ambient dimension")
        if _canonical:
            pivots = [next(j for j, x in enumerate(row) if x) for row in basis.row_list()]
        else:
            rows, pivots = _rref_rows(basis.row_list(), ambient_dim)
            basis = Mat.from_rows(rows[: len(pivots)], cols=ambient_dim)
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = pivots

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vs = [vec(v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise DimensionError("vector length differs from ambient dimension")
        return Subspace(ambient_dim, Mat.from_rows(vs, cols=ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Mat.from_rows([], cols=ambient_dim), _canonical=True)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Mat.identity(ambient_dim), _canonical=True)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def reduce(self, v: Sequence) -> Vector:
        """Residue of v after eliminating against the echelon basis."""
        w = list(vec(v))
        if len(w) != self.ambient_dim:
            raise DimensionError("vector length differs from ambient dimension")
        for row, p in zip(self.basis.row_list(), self._pivots):
            if w[p]:
                _eliminate(w, row, p)
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vec(self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis.row_list())

    def coefficients(self, v: Sequence) -> Vector:
        """Coordinates of v in the echelon basis; raises if v is outside."""
        w = list(vec(v))
        if len(w) != self.ambient_dim:
            raise DimensionError("vector length differs from ambient dimension")
        coeffs = []
        for row, p in zip(self.basis.row_list(), self._pivots):
            coeffs.append(w[p])
            if w[p]:
                _eliminate(w, row, p)
        if not is_zero_vec(w):
            raise DecompositionError("vector lies outside the subspace")
        return tuple(coeffs)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace ambient dimensions differ")
        return Subspace(self.ambient_dim, vstack(self.basis, other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace ambient dimensions differ")
        da, db = self.dim, other.dim
        if da == 0 or db == 0:
            return Subspace.zero(self.ambient_dim)
        # solve A^T u = B^T v; columns of the stacked system are the two bases
        stacked = hstack(self.basis.transpose(), -other.basis.transpose())
        ker = kernel(stacked)
        pts = []
        for coeffs in ker.basis.row_list():
            u = coeffs[:da]
            point = [_ZERO] * self.ambient_dim
            for cu, row in zip(u, self.basis.row_list()):
                if cu:
                    for j, x in enumerate(row):
                        if x:
                            s = point[j]
                            point[j] = s + cu * x if s else cu * x
            pts.append(tuple(point))
        result = Subspace.from_vectors(self.ambient_dim, pts)
        if __debug__:
            assert result.dim + rank(vstack(self.basis, other.basis)) == da + db
        return result


def _eliminate(w: list[Rat], row: Vector, p: int) -> None:
    """w -= w[p] * row in place, for an echelon row whose first nonzero entry is at p."""
    f = -w[p]
    for j in range(p, len(w)):
        x = row[j]
        if x:
            a = w[j]
            w[j] = a + f * x if a else f * x


def kernel(m: Mat) -> Subspace:
    """Null space {v : m v = 0} of an r x c matrix, as a subspace of Q^c."""
    rows, pivots = _rref_rows(m.row_list(), m.cols)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [_ZERO] * m.cols
        v[j] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -rows[r][j]
        basis.append(tuple(v))
    return Subspace.from_vectors(m.cols, basis)


class Projector:
    """Projection onto `onto` along `along`, precomputed for repeated use.

    Requires onto + along to be a direct-sum decomposition of the ambient
    space; the projector matrix is cached so each application costs one
    matrix-vector product.
    """

    __slots__ = ("onto", "along", "_mat")

    def __init__(self, onto: Subspace, along: Subspace):
        if onto.ambient_dim != along.ambient_dim:
            raise DimensionError("subspace ambient dimensions differ")
        n = onto.ambient_dim
        if onto.dim + along.dim != n:
            raise DecompositionError("onto + along does not fill the ambient space")
        t = hstack(onto.basis.transpose(), along.basis.transpose())
        try:
            tinv = t.inverse()
        except DecompositionError:
            raise DecompositionError("onto and along overlap; not a direct sum") from None
        # first block of t^-1 extracts the onto-coordinates
        coords = Mat.from_rows(tinv.row_list()[: onto.dim], cols=n)
        self._mat = onto.basis.transpose() * coords
        self.onto = onto
        self.along = along

    def apply(self, v: Sequence) -> Vector:
        return self._mat.apply(vec(v))


def project_along(v: Sequence, onto: Subspace, along: Subspace) -> Vector:
    """Component of v in `onto` for the decomposition ambient = onto + along."""
    return Projector(onto, along).apply(v)


def solve(a: Mat, b: Vector) -> Vector:
    """Solve the square system a x = b exactly; raises if a is singular."""
    if a.rows != a.cols or a.rows != len(b):
        raise DimensionError("solve expects a square system")
    return a.inverse().apply(b)
