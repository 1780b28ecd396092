"""Exact rational linear algebra: immutable matrices and canonical subspaces.

Every computation here is exact; nothing in this module ever rounds.  A
`Mat` has one format, decided here and nowhere else: an integer matrix
`num` (a tuple of row tuples) over one denominator `den` > 0, with
gcd(den, entries) = 1.  That pair is canonical, so equal matrices have
equal (num, den), and equality and hashing compare integers.  A
`Subspace` is the reduced row echelon basis of its row space, kept as one
such `Mat`, so equality of subspaces is literal equality of integers too.
All values are immutable after construction and safe to share between
threads.

Values are coerced once, at the edge.  `Mat(data)`, `vec` and `Mat.scale`
accept ints, strings and other numbers and convert them with
`Fraction(x)`; plain `Fraction`s are read as they are, and so are ints,
except by `vec`, which returns `Fraction`s.  `Mat(num, den)` takes
integer rows over a denominator and reduces the pair.  Every other
`Mat`, from sums, products, inverses or eliminations, is built by that
second form from integers, so the constructor is the one place that puts
a matrix in canonical form.  Readers outside get
`Fraction`s back from `__getitem__`, `row_list`, `apply`, `det` and
`Subspace.reduce`; an entry that is already a plain `Fraction` is never
coerced a second time.  `liealg.Element` keeps the same format for
vectors, integer coordinates over one denominator (`_integer_vector`),
and `Subspace.contains`, `Subspace.coefficients` and `Mat.apply` read
integer vectors as they are.

Every elimination runs over the integers, and this module is the only
one that does it.  Row reduction (`rref`, `rank`, `kernel`, `Subspace`,
`inverse`) combines rows as pv*row - f*prow and divides them by their
content (gcd) to keep the entries small.  `rank` stops after the forward
elimination.  The reduced rows are brought over one denominator, the lcm
of their pivots (`_int_rref`): the same canonical RREF as a Fraction
Gauss-Jordan elimination.  `inverse` of N / d is the right block of the
RREF of [N | d I]; `det` is the Bareiss (fraction-free) determinant of N
over d^n.  `Mat.inverse` serves the projectors, the slice solvers and
`solve`; a determinant-one group element is inverted without elimination,
as its integer adjugate (`_int_adjugate`, from the Faddeev-LeVerrier run
the invariants share) over d^(m-1).  Products and `apply` visit only the
nonzero entries, so a product with a zero factor is never formed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DecompositionError, DimensionError

Rat = Fraction

Vector = tuple[Rat, ...]

IntRows = tuple[tuple[int, ...], ...]

_ZERO = Fraction(0)


def _as_fraction(x) -> Rat:
    """x itself when it is already a Fraction, else Fraction(x)."""
    return x if type(x) is Fraction else Fraction(x)


def vec(values: Iterable) -> Vector:
    """Coerce an iterable of numbers into an exact rational vector."""
    return tuple([_as_fraction(x) for x in values])


def _integer_vector(v: Iterable) -> tuple[list[int], int]:
    """(w, e) with v = w / e, e the lcm of the denominators of v; ints are read as they are.

    For reduced entries gcd(e, w) = 1, so (w, e) is canonical.
    """
    v = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in v]
    e = lcm(*[x.denominator for x in v])
    return [x.numerator * (e // x.denominator) for x in v], e


class Mat:
    """Immutable dense rational matrix num / den: integer rows over one denominator.

    `num` is a tuple of row tuples of ints and `den` > 0 with
    gcd(den, entries) = 1, so each matrix has exactly one (num, den).
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, data: Sequence[Sequence], den: int | None = None, cols: int | None = None):
        """The matrix with rows `data`, or, given `den`, the integer rows `data` over `den`.

        Numbers are coerced with `Fraction` and brought over the lcm of
        their denominators; integer rows are divided by their common
        factor with `den`.  `cols` gives the width of a matrix without rows.
        """
        if den is None:
            data = [
                [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in row]
                for row in data
            ]
            den = lcm(*[x.denominator for row in data for x in row])
            num = tuple(
                [tuple([x.numerator * (den // x.denominator) for x in row]) for row in data]
            )
        else:
            if not den:
                raise ZeroDivisionError("matrix denominator is zero")
            g = den
            for row in data:
                if g == 1:
                    break
                g = gcd(g, *row)
            # the common factor, signed so that the denominator comes out positive
            g = abs(g) if den > 0 else -abs(g)
            if g == 1:
                num = tuple([tuple(row) for row in data])
            else:
                num = tuple([tuple([x // g for x in row]) for row in data])
                den //= g
        if cols is None:
            cols = len(num[0]) if num else 0
        for row in num:
            if len(row) != cols:
                raise DimensionError("ragged matrix data")
        self.rows = len(num)
        self.cols = cols
        self.num = num
        self.den = den

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(_identity_rows(n), 1, n)

    def row_list(self) -> list[Vector]:
        """The rows as tuples of Fractions."""
        d = self.den
        return [tuple([Fraction(x, d) if x else _ZERO for x in row]) for row in self.num]

    def __getitem__(self, key) -> Rat:
        i, j = key
        x = self.num[i][j]
        return Fraction(x, self.den) if x else _ZERO

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.num))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.row_list())
        return f"Mat({self.rows}x{self.cols}: {body})"

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other over the lcm of the two denominators."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shapes differ")
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        return Mat(
            [[f * a + g * b for a, b in zip(r1, r2)] for r1, r2 in zip(self.num, other.num)],
            den,
            self.cols,
        )

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __neg__(self) -> "Mat":
        return Mat([[-x for x in row] for row in self.num], self.den, self.cols)

    def scale(self, c) -> "Mat":
        c = c if type(c) is int else _as_fraction(c)
        p = c.numerator
        return Mat([[p * x for x in row] for row in self.num], self.den * c.denominator, self.cols)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ in mul")
        bsupport = [[(j, b) for j, b in enumerate(brow) if b] for brow in other.num]
        width = other.cols
        out = []
        for arow in self.num:
            orow = [0] * width
            for a, bnz in zip(arow, bsupport):
                if a:
                    for j, b in bnz:
                        orow[j] += a * b
            out.append(orow)
        return Mat(out, self.den * other.den, width)

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector; only the nonzero entries of v are visited."""
        if self.cols != len(v):
            raise DimensionError("matrix/vector size mismatch")
        w, e = _integer_vector(v)
        support = [(j, x) for j, x in enumerate(w) if x]
        den = self.den * e
        out = []
        for row in self.num:
            s = 0
            for j, x in support:
                a = row[j]
                if a:
                    s += a * x
            out.append(Fraction(s, den) if s else _ZERO)
        return tuple(out)

    def transpose(self) -> "Mat":
        cols = list(zip(*self.num)) if self.num else [()] * self.cols
        return Mat(cols, self.den, self.rows)

    def det(self) -> Rat:
        """Bareiss determinant of num over den^n."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        return Fraction(_int_det(self.num), self.den**self.rows)

    def inverse(self) -> "Mat":
        """Right block of the reduced row echelon form of [num | den I]."""
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        n, d = self.rows, self.den
        rows = [row + tuple([d * x for x in e]) for row, e in zip(self.num, _identity_rows(n))]
        num, den, pivots = _int_rref(rows, 2 * n)
        if pivots != list(range(n)):
            raise DecompositionError("singular matrix has no inverse")
        return Mat([row[n:] for row in num], den, n)


@lru_cache(maxsize=None)
def _identity_rows(m: int) -> IntRows:
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def _int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntRows:
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def _trace_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> int:
    """tr(A B) of two square integer matrices."""
    return sum(map(mul, chain.from_iterable(a), chain.from_iterable(zip(*b))))


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


def _faddeev_leverrier(
    y: Sequence[Sequence[int]],
) -> tuple[list[int], list[Sequence[Sequence[int]]]]:
    """Characteristic polynomial and adjugate coefficients of the m x m integer matrix Y.

    Returns (c, B) with det(tI - Y) = t^m + sum_k c_k t^(m-k), c listing
    c_1..c_m, and adj(tI - Y) = sum_k B[k] t^(m-1-k): B[0] = I,
    c_k = -tr(Y B[k-1]) / k and B[k] = Y B[k-1] + c_k I for k < m.  Both are
    integral for integral Y, so the division by k is exact.
    """
    m = len(y)
    b = _identity_rows(m)
    adjugate = [b]
    coeffs: list[int] = []
    for k in range(1, m):
        # Y B[0] = Y needs no product
        b = [list(row) for row in (_int_matmul(y, b) if k > 1 else y)]
        c = -sum([b[i][i] for i in range(m)]) // k
        coeffs.append(c)
        for i in range(m):
            b[i][i] += c
        adjugate.append(b)
    # the last step needs only tr(Y B[m-1])
    coeffs.append(-_trace_mul(y, b) // m)
    return coeffs, adjugate


def _int_adjugate(y: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    """adj(Y) of a square integer matrix: B[m-1] = adj(-Y) = (-1)^(m-1) adj(Y) at t = 0."""
    last = _faddeev_leverrier(y)[1][-1]
    return last if len(y) % 2 else [[-x for x in row] for row in last]


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
    num, den, _ = _int_rref(m.num, m.cols)
    zero = (0,) * m.cols
    return Mat(num + (zero,) * (m.rows - len(num)), den, m.cols)


def rank(m: Mat) -> int:
    return len(_echelon(list(m.num), m.cols))


class Subspace:
    """A linear subspace of Q^n held in canonical form: its RREF basis as one `Mat`.

    A `Mat` is canonical, so two Subspace values are equal exactly when
    they are the same subspace, and equality is a comparison of integers.
    The RREF row i is `basis.num[i]` over `basis.den`, with `basis.den` at
    its pivot column `_pivots[i]` and 0 at every other pivot.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(
        self, ambient_dim: int, basis: Mat | Sequence[Sequence[int]], _canonical: bool = False
    ):
        """The span of `basis`: a `Mat`, or a sequence of integer rows.

        With `_canonical` the `Mat` must already be the RREF basis, and it is kept as given.
        """
        if isinstance(basis, Mat):
            if basis.cols != ambient_dim:
                raise DimensionError("basis width differs from ambient dimension")
            rows = basis.num
        elif any(len(row) != ambient_dim for row in basis):
            raise DimensionError("basis width differs from ambient dimension")
        else:
            rows = basis
        if _canonical:
            pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
        else:
            num, den, pivots = _int_rref(rows, ambient_dim)
            basis = Mat(num, den, ambient_dim)
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = pivots

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return Subspace(ambient_dim, Mat(vectors, cols=ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def _as_integers(self, v: Sequence) -> tuple[list[int], int]:
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length differs from ambient dimension")
        return _integer_vector(v)

    def _residue(self, w: Sequence[int]) -> list[int]:
        """den w - sum_i w[p_i] num_i for an integer vector w: zero exactly when w is inside."""
        den = self.basis.den
        r = [den * x for x in w]
        for row, p in zip(self.basis.num, self._pivots):
            c = w[p]
            if c:
                r = [a - c * x for a, x in zip(r, row)]
        return r

    def reduce(self, v: Sequence) -> Vector:
        """Residue v - sum_i v[p_i] b_i of v against the RREF basis b."""
        w, e = self._as_integers(v)
        den = e * self.basis.den
        return tuple([Fraction(x, den) if x else _ZERO for x in self._residue(w)])

    def contains(self, v: Sequence) -> bool:
        return not any(self._residue(self._as_integers(v)[0]))

    def contains_space(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace ambient dimensions differ")
        return not any(any(self._residue(row)) for row in other.basis.num)

    def coefficients(self, v: Sequence, den: int = 1) -> Vector:
        """Coordinates of v / den in the RREF basis: its pivot entries; raises if v is outside.

        Integer entries of v are read as they are, so v / den may be an
        integer vector over a denominator; one Fraction is made per coordinate.
        """
        w, e = self._as_integers(v)
        if any(self._residue(w)):
            raise DecompositionError("vector lies outside the subspace")
        e *= den
        return tuple([Fraction(w[p], e) for p in self._pivots])

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace ambient dimensions differ")
        return Subspace(self.ambient_dim, self.basis.num + other.basis.num)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace ambient dimensions differ")
        if not self.dim or not other.dim:
            return Subspace.zero(self.ambient_dim)
        mine, theirs = self.basis.num, other.basis.num
        # solve u A = v B: the columns of the stacked system are the rows of A and -B
        stacked = [a + tuple([-x for x in b]) for a, b in zip(zip(*mine), zip(*theirs))]
        ker = _kernel_rows(stacked, self.dim + other.dim)
        pts = []
        for coeffs in ker:
            point = [0] * self.ambient_dim
            for c, row in zip(coeffs, mine):
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
    return Subspace(m.cols, _kernel_rows(m.num, m.cols))


class Projector:
    """Projection onto `onto` along `along`, precomputed for repeated use.

    Requires onto + along to be a direct-sum decomposition of the ambient
    space; the projector is kept as one `Mat`, `matrix`, so each
    application costs one matrix-vector product.
    """

    __slots__ = ("onto", "along", "matrix")

    def __init__(self, onto: Subspace, along: Subspace):
        if onto.ambient_dim != along.ambient_dim:
            raise DimensionError("subspace ambient dimensions differ")
        n = onto.ambient_dim
        if onto.dim + along.dim != n:
            raise DecompositionError("onto + along does not fill the ambient space")
        # the integer rows span the same lines as the basis, and the projector
        # onto_rows^T (first block of T^-1) does not depend on their scale
        onto_rows = onto.basis.num
        t = Mat(onto_rows + along.basis.num, 1, n).transpose()
        try:
            tinv = t.inverse()
        except DecompositionError:
            raise DecompositionError("onto and along overlap; not a direct sum") from None
        coords = Mat(tinv.num[: onto.dim], tinv.den, n)
        self.matrix = Mat(onto_rows, 1, n).transpose() * coords
        self.onto = onto
        self.along = along

    def apply(self, v: Sequence) -> Vector:
        return self.matrix.apply(v)


def solve(a: Mat, b: Vector) -> Vector:
    """Solve the square system a x = b exactly; raises if a is singular."""
    if a.rows != a.cols or a.rows != len(b):
        raise DimensionError("solve expects a square system")
    return a.inverse().apply(b)
