"""Exact rational linear algebra: immutable matrices and canonical subspaces.

Scalars are `fractions.Fraction` (aliased `Rat`), so every computation here is
exact; nothing in this module ever rounds.  A `Subspace` is stored as the
reduced row-echelon basis of its row space, written as one integer matrix N
over one denominator d > 0, the lcm of the RREF's denominators.  (N, d) is
canonical, so equality of subspaces is literal equality of integers, and
membership, sums and intersections run in integers; `basis`, the RREF as a
`Mat` of Fractions, is a view built on first use.  All values are immutable
after construction and safe to share between threads.

Values are coerced once, at the edge: `vec`, `Mat` and `Mat.scale` accept
ints, strings and other numbers and convert them with `Fraction(x)`, but pass
an entry that is already a plain `Fraction` through unchanged, so a product or
sum of matrices is never coerced a second time.  Every stored entry is a plain
`Fraction`; an instance of a subclass is converted.

Every elimination runs over the integers, and this module is the only one
that does it; the group layer and the invariants import its integer
helpers.  Row reduction (`rref`, `rank`, `kernel`, `Subspace`, `inverse`)
scales the rows by the lcm of their denominators, combines rows as
pv*row - f*prow and divides them by their content (gcd) to keep the entries
small.  `rank` stops after the forward elimination.  The reduced rows are
brought over one denominator, the lcm of their pivots (`_int_rref`); only
`rref`, `inverse` and `Subspace.basis` turn them back into `Fraction`s.  The
result is the same canonical RREF as a Fraction Gauss-Jordan elimination.
`inverse` is the right block of the RREF of [A | I]; `det` writes the
matrix as N / d over one denominator and takes the Bareiss (fraction-free)
determinant of N over d^n.

No operation whose result is already known is carried out.  Entries are
tested by truthiness (a `Fraction` is false exactly when it is zero), a
product with a zero factor is skipped, a zero term of a sum is skipped, and
an accumulator that is still zero takes the first product itself instead
of 0 + product.  Scaling by zero gives the zero matrix.  This applies to
`Mat` sums, differences, scaling, products and `apply`; the results are the
same exact values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
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
    return tuple([_as_fraction(x) for x in values])


class Mat:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple([tuple([_as_fraction(x) for x in row]) for row in data])
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
        """Bareiss determinant of N over d^n, where this matrix is N / d."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        num, den = _integer_matrix(self._data)
        return Fraction(_int_det(num), den ** self.rows)

    def inverse(self) -> "Mat":
        """Right block of the reduced row echelon form of [A | I]."""
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        ident = _identity_rows(n)
        rows, _ = _integer_matrix([row + ident[i] for i, row in enumerate(self._data)])
        num, den, pivots = _int_rref(rows, 2 * n)
        if pivots != list(range(n)):
            raise DecompositionError("singular matrix has no inverse")
        return Mat.from_rows(_fraction_rows([row[n:] for row in num], den), cols=n)


IntRows = tuple[tuple[int, ...], ...]


def _integer_matrix(rows: Sequence[Sequence[Rat]]) -> tuple[IntRows, int]:
    """(N, d) with rows = N / d, d the lcm of the denominators (so already canonical)."""
    den = lcm(*[x.denominator for row in rows for x in row])
    return tuple([tuple([x.numerator * (den // x.denominator) for x in row]) for row in rows]), den


@lru_cache(maxsize=None)
def _identity_rows(m: int) -> IntRows:
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def _int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntRows:
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * a[k][j]) // prev
        prev = p
    return sign * a[n - 1][n - 1] if n else 1


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The integer row divided by its content (gcd), or the row itself if that is 1."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _combine(row: Sequence[int], prow: Sequence[int], c: int) -> list[int]:
    """Primitive integer row pv*row - f*prow, where f = row[c] and pv = prow[c]."""
    pv, f = prow[c], row[c]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    return _primitive([a * x - b * y for x, y in zip(row, prow)])


def _echelon(rows: list[Sequence[int]], cols: int) -> list[int]:
    """In-place integer row echelon form of a list of rows; returns the pivot columns.

    Every row is first divided by its content.  Rows below a pivot are
    cleared with pv*row - f*prow and kept primitive, so no division but the
    exact division by a row's content ever occurs.
    """
    rows[:] = map(_primitive, rows)
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


def _int_rref(rows: Sequence[Sequence[int]], cols: int) -> tuple[IntRows, int, list[int]]:
    """Reduced row echelon form of integer rows as (N, d, pivots), zero rows dropped.

    The RREF is N / d with d > 0 the lcm of its denominators, so (N, d) is
    canonical.  Each reduced row is primitive with its pivot pv at p, so the
    denominators of row / pv have lcm |pv|, and d is the lcm of the pivots.
    """
    work = list(rows)
    pivots = _echelon(work, cols)
    for i in range(len(pivots) - 1, 0, -1):
        p, prow = pivots[i], work[i]
        for rr in range(i):
            if work[rr][p]:
                work[rr] = _combine(work[rr], prow, p)
    den = lcm(*[row[p] for row, p in zip(work, pivots)])
    num = tuple([tuple([den // row[p] * x for x in row]) for row, p in zip(work, pivots)])
    return num, den, pivots


def _fraction_rows(num: IntRows, den: int) -> list[list[Rat]]:
    """The rows of N / d as Fractions."""
    return [[Fraction(x, den) if x else _ZERO for x in row] for row in num]


def _kernel_rows(rows: Sequence[Sequence[int]], cols: int) -> list[list[int]]:
    """Integer basis of {v : rows v = 0}: per free column j, d at j and -N[r][j] at pivot p_r."""
    num, den, pivots = _int_rref(rows, cols)
    pivot_set = set(pivots)
    out = []
    for j in range(cols):
        if j not in pivot_set:
            v = [0] * cols
            v[j] = den
            for row, p in zip(num, pivots):
                v[p] = -row[j]
            out.append(v)
    return out


def rref(m: Mat) -> Mat:
    """Reduced row-echelon form, same shape; zero rows sink to the bottom."""
    num, den, _ = _int_rref(_integer_matrix(m._data)[0], m.cols)
    zeros = [[_ZERO] * m.cols for _ in range(m.rows - len(num))]
    return Mat.from_rows(_fraction_rows(num, den) + zeros, cols=m.cols)


def rank(m: Mat) -> int:
    return len(_echelon(list(_integer_matrix(m._data)[0]), m.cols))


class Subspace:
    """A linear subspace of Q^n held in canonical form: its RREF basis as N / d.

    `_num` is the integer matrix N and `_den` the lcm d > 0 of the RREF's
    denominators, so two Subspace values are equal exactly when they are the
    same subspace, and equality is a comparison of integers.  `basis` is the
    RREF as a `Mat` of Fractions, built on first use.
    """

    __slots__ = ("ambient_dim", "_num", "_den", "_pivots", "_basis")

    def __init__(
        self, ambient_dim: int, basis: Mat | Sequence[Sequence[int]], _canonical: bool = False
    ):
        """The span of `basis`: a `Mat`, or a sequence of integer rows.

        With `_canonical` the `Mat` must already be the RREF basis.
        """
        if isinstance(basis, Mat):
            if basis.cols != ambient_dim:
                raise DimensionError("basis width differs from ambient dimension")
            num, den = _integer_matrix(basis.row_list())
            if _canonical:
                pivots = [next(j for j, x in enumerate(row) if x) for row in num]
            else:
                num, den, pivots = _int_rref(num, ambient_dim)
                basis = None
        else:
            if any(len(row) != ambient_dim for row in basis):
                raise DimensionError("basis width differs from ambient dimension")
            num, den, pivots = _int_rref(basis, ambient_dim)
            basis = None
        self.ambient_dim = ambient_dim
        self._num = num
        self._den = den
        self._pivots = pivots
        self._basis = basis

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return Subspace(ambient_dim, _integer_matrix([vec(v) for v in vectors])[0])

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, _identity_rows(ambient_dim))

    @property
    def basis(self) -> Mat:
        """The canonical RREF basis as a `Mat` of Fractions."""
        if self._basis is None:
            self._basis = Mat.from_rows(_fraction_rows(self._num, self._den), self.ambient_dim)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._den, self._num))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def _integer_vector(self, v: Sequence) -> tuple[tuple[int, ...], int]:
        """(w, e) with v = w / e, e the lcm of the denominators of v."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length differs from ambient dimension")
        (w,), e = _integer_matrix((vec(v),))
        return w, e

    def _residue(self, w: Sequence[int]) -> list[int]:
        """d w - sum_i w[p_i] N_i for an integer vector w: zero exactly when w is inside.

        The RREF row N_i / d is 1 at its pivot p_i and 0 at every other pivot.
        """
        den = self._den
        r = [den * x for x in w]
        for row, p in zip(self._num, self._pivots):
            c = w[p]
            if c:
                r = [a - c * x for a, x in zip(r, row)]
        return r

    def reduce(self, v: Sequence) -> Vector:
        """Residue v - sum_i v[p_i] b_i of v against the RREF basis b."""
        w, e = self._integer_vector(v)
        return tuple([Fraction(x, e * self._den) if x else _ZERO for x in self._residue(w)])

    def contains(self, v: Sequence) -> bool:
        return not any(self._residue(self._integer_vector(v)[0]))

    def contains_space(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace ambient dimensions differ")
        return not any(any(self._residue(row)) for row in other._num)

    def coefficients(self, v: Sequence) -> Vector:
        """Coordinates of v in the RREF basis: its pivot entries; raises if v is outside."""
        if not self.contains(v):
            raise DecompositionError("vector lies outside the subspace")
        w = vec(v)
        return tuple([w[p] for p in self._pivots])

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace ambient dimensions differ")
        return Subspace(self.ambient_dim, self._num + other._num)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace ambient dimensions differ")
        if not self.dim or not other.dim:
            return Subspace.zero(self.ambient_dim)
        # solve u A = v B: the columns of the stacked system are the rows of A and -B
        stacked = [
            a + tuple([-x for x in b]) for a, b in zip(zip(*self._num), zip(*other._num))
        ]
        ker = _kernel_rows(stacked, self.dim + other.dim)
        pts = []
        for coeffs in ker:
            point = [0] * self.ambient_dim
            for c, row in zip(coeffs, self._num):
                if c:
                    point = [a + c * x for a, x in zip(point, row)]
            pts.append(point)
        result = Subspace(self.ambient_dim, pts)
        # Grassmann by rank-nullity: (u, v) -> u A is injective on the kernel
        if result.dim != len(ker):
            raise DecompositionError("intersection lost dimension against the kernel")
        return result


def kernel(m: Mat) -> Subspace:
    """Null space {v : m v = 0} of an r x c matrix, as a subspace of Q^c."""
    return Subspace(m.cols, _kernel_rows(_integer_matrix(m._data)[0], m.cols))


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
        t = Mat.from_rows(list(zip(*onto.basis.row_list(), *along.basis.row_list())), cols=n)
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
