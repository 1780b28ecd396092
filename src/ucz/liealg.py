"""Split semisimple Lie algebras of rank at most 3 in a Chevalley basis.

Supported descriptors: A1, A2, A3, B2, G2.  The basis is ordered as
[e_alpha for alpha in Phi+] + [h_1..h_l] + [f_alpha for alpha in Phi+],
with positive roots sorted by height then lexicographically by coordinates
in the simple-root basis.

Conventions, fixed once and used everywhere:
  * cartan_matrix[i][j] = <alpha_j, alpha_i^vee>, so a root alpha = sum_j
    m_j alpha_j pairs with the i-th simple coroot as sum_j m_j A[i][j].
  * Structure constants follow the extraspecial-pair normalization: for the
    extraspecial pair (alpha, beta) of each non-simple positive root the
    constant is +(p+1), where p is the length of the descending alpha-string
    through beta.  Every other constant is forced by antisymmetry, the cycle
    relation for alpha+beta+gamma = 0, and the Jacobi identity; the full
    Jacobi sweep is re-checked post hoc in the test suite.
  * [e_alpha, e_-alpha] = h_alpha, the coroot of alpha expanded in simple
    coroots (always integral).

An `Element` is the vector counterpart of `exactlin.Mat`: integer
coordinates `num` over one denominator `den` > 0 with gcd(den, num) = 1,
so equal elements have equal (num, den).  `Element(L, coords)` coerces
numbers once, at the edge; every other element, from sums, scalings,
brackets or `from_matrix`, is built by `Element(L, num, den)` from
integers.  The structure table is integral, so `bracket` sums integer
products over x.den * y.den.  `coords` reads the coordinates back as
`Fraction`s for callers outside.

Type A algebras carry the defining (l+1) x (l+1) matrix realization, which
is what group elements act through; B2 and G2 are Lie-algebra only.  The
realization is one table of integer matrices, so `realize(x)` is the
integer `Mat` of x.num summed straight from it, over x.den, and
`from_matrix` reads a `Mat`'s integer rows back through the table and
checks the round trip.  A `GroupElement` is one `Mat` of determinant one:
products and `conjugate(g, y) = from_matrix(g realize(y) g^-1)` are `Mat`
arithmetic, and the determinant is checked where a matrix enters the
group.  det N = d^m for g = N / d, so the inverse is adj(N) / d^(m-1),
the integer adjugate of `exactlin._int_adjugate`, with no elimination.
`root_product` multiplies root factors exp(c e_alpha) straight into one
integer matrix from each root's cached realization powers.  `adjoint(g)`
is Ad_g as one `Mat`, read back through the realization table in
integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import DomainError, UnsupportedAlgebraError
from .exactlin import (
    IntRows,
    Mat,
    Subspace,
    Vector,
    _as_fraction,
    _echelon,
    _identity_rows,
    _int_adjugate,
    _int_matmul,
    _integer_vector,
    kernel,
    rank,
)

_ZERO = Fraction(0)

_CARTAN: dict[str, list[list[int]]] = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -3], [-1, 2]],
}

Root = tuple[int, ...]

# the nonzero (row, col, value) entries of each power Y, Y^2, ... of a nilpotent Y
Powers = tuple[tuple[tuple[int, int, int], ...], ...]


def _radd(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def _rsub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


def _rneg(a: Root) -> Root:
    return tuple(-x for x in a)


class RootSystem:
    """Root system data: roots, inner products, Chevalley constants."""

    def __init__(self, descriptor: str):
        if descriptor not in _CARTAN:
            raise UnsupportedAlgebraError(
                f"unsupported algebra {descriptor!r}; choose from {sorted(_CARTAN)}"
            )
        self.descriptor = descriptor
        self.type_label = descriptor[0]
        self.rank = int(descriptor[1:])
        self._A = _CARTAN[descriptor]
        self._d = self._symmetrizer()
        self.simple_roots: list[Root] = [
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        ]
        self.positive_roots: list[Root] = self._generate_positive()
        self._pos_set = set(self.positive_roots)
        self._root_set = self._pos_set | {_rneg(a) for a in self.positive_roots}
        self._extraspecial: dict[Root, tuple[Root, Root]] = {}
        self._n_pos: dict[tuple[Root, Root], int] = {}
        self._n_memo: dict[tuple[Root, Root], int] = {}
        self._fill_constants()

    # -- basic data -------------------------------------------------------

    def _symmetrizer(self) -> list[int]:
        """Integers d_i with d_i A[i][j] symmetric (half squared lengths)."""
        l = self.rank
        d = [1] + [0] * (l - 1)
        # propagate d_j = d_i A[i][j] / A[j][i] along the (connected) Dynkin
        # diagram, first scaling every d so that the division is exact
        changed = True
        while changed:
            changed = False
            for i in range(l):
                for j in range(l):
                    if i != j and self._A[i][j] != 0 and d[i] != 0 and d[j] == 0:
                        num, den = d[i] * self._A[i][j], self._A[j][i]
                        k = abs(den) // gcd(num, den)
                        d = [k * x for x in d]
                        d[j] = k * num // den
                        changed = True
        g = gcd(*d)
        return [x // g for x in d]

    @property
    def cartan_matrix(self) -> Mat:
        return Mat(self._A)

    def height(self, alpha: Root) -> int:
        return sum(alpha)

    def order_key(self, alpha: Root) -> tuple:
        return (sum(alpha), alpha)

    def is_root(self, alpha: Root) -> bool:
        return alpha in self._root_set

    def pairing(self, alpha: Root, i: int) -> int:
        """<alpha, alpha_i^vee> for the i-th simple coroot."""
        return sum(m * self._A[i][j] for j, m in enumerate(alpha))

    def inner(self, alpha: Root, beta: Root) -> int:
        """(alpha, beta) for the symmetric form with (alpha_i, alpha_i) = 2 d_i."""
        s = 0
        for i, mi in enumerate(alpha):
            if mi == 0:
                continue
            for j, kj in enumerate(beta):
                if kj:
                    s += mi * kj * self._d[i] * self._A[i][j]
        return s

    def coroot_coeffs(self, alpha: Root) -> tuple[int, ...]:
        """alpha^vee as an integer combination of simple coroots."""
        # alpha^vee = 2 alpha / (alpha, alpha) and alpha_i^vee = alpha_i / d_i
        norm = self.inner(alpha, alpha)
        out = []
        for i, m in enumerate(alpha):
            c, r = divmod(2 * m * self._d[i], norm)
            if r:
                raise ArithmeticError("coroot expansion must be integral")
            out.append(c)
        return tuple(out)

    # -- root generation ---------------------------------------------------

    def _generate_positive(self) -> list[Root]:
        pos = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            new: list[Root] = []
            for alpha in frontier:
                for i, simple in enumerate(self.simple_roots):
                    p = 0
                    down = _rsub(alpha, simple)
                    while down in pos:
                        p += 1
                        down = _rsub(down, simple)
                    q = p - self.pairing(alpha, i)
                    if q >= 1:
                        up = _radd(alpha, simple)
                        if up not in pos:
                            pos.add(up)
                            new.append(up)
            frontier = new
        return sorted(pos, key=self.order_key)

    def p_value(self, alpha: Root, beta: Root) -> int:
        """Length of the descending alpha-string through beta."""
        p = 0
        down = _rsub(beta, alpha)
        while down in self._root_set:
            p += 1
            down = _rsub(down, alpha)
        return p

    # -- structure constants ------------------------------------------------

    def extraspecial_pair(self, gamma: Root) -> tuple[Root, Root]:
        """The minimal decomposition gamma = alpha + beta fixing the signs."""
        return self._extraspecial[gamma]

    def _fill_constants(self) -> None:
        for gamma in self.positive_roots:
            if self.height(gamma) < 2:
                continue
            cands = [a for a in self.positive_roots if _rsub(gamma, a) in self._pos_set]
            a0 = cands[0]
            b0 = _rsub(gamma, a0)
            self._extraspecial[gamma] = (a0, b0)
            self._n_pos[(a0, b0)] = self.p_value(a0, b0) + 1
            for a in cands[1:]:
                b = _rsub(gamma, a)
                if self.order_key(a) >= self.order_key(b):
                    continue
                self._n_pos[(a, b)] = self._forced_constant(a, b, gamma, a0, b0)

    def _forced_constant(self, a: Root, b: Root, gamma: Root, a1: Root, b1: Root) -> int:
        # Jacobi identity on (e_{a1}, e_{b1}, e_{-a}) isolates N_{a,b};
        # every constant on the right involves pairs of strictly smaller
        # height-sum, so the table is filled in one ascending pass.
        t = 0
        if _rsub(b1, a) in self._root_set:
            t += self.n_constant(b1, _rneg(a)) * self.n_constant(_rsub(b1, a), a1)
        if _rsub(a1, a) in self._root_set:
            t += self.n_constant(_rneg(a), a1) * self.n_constant(_rsub(a1, a), b1)
        val, r = divmod(self.inner(gamma, gamma) * t, self.inner(b, b) * self._n_pos[(a1, b1)])
        if r or not val:
            raise ArithmeticError(f"structure constant for {a}+{b} not a nonzero integer")
        if abs(val) != self.p_value(a, b) + 1:
            raise ArithmeticError(f"structure constant magnitude broken at {a}+{b}")
        return val

    def n_constant(self, a: Root, b: Root) -> int:
        """N_{a,b} with [e_a, e_b] = N_{a,b} e_{a+b}; zero when a+b is not a root."""
        s = _radd(a, b)
        if s not in self._root_set:
            return 0
        key = (a, b)
        got = self._n_memo.get(key)
        if got is not None:
            return got
        if a in self._pos_set:
            if b in self._pos_set:
                if self.order_key(a) < self.order_key(b):
                    val = self._n_pos[(a, b)]
                else:
                    val = -self._n_pos[(b, a)]
            elif s in self._pos_set:
                # cycle relation for the triple (a, b, -s)
                val, r = divmod(-self.inner(s, s) * self.n_constant(_rneg(b), s), self.inner(a, a))
                if r:
                    raise ArithmeticError(f"non-integral structure constant at {a}, {b}")
            else:
                val = -self.n_constant(_rneg(a), _rneg(b))
        elif b in self._pos_set:
            val = -self.n_constant(b, a)
        else:
            val = -self.n_constant(_rneg(a), _rneg(b))
        self._n_memo[key] = val
        return val


class Element:
    """Lie algebra element num / den: integer coordinates over one denominator.

    `num` holds one int per basis vector and `den` > 0 with gcd(den, num) = 1,
    so each element has exactly one (num, den).
    """

    __slots__ = ("algebra", "num", "den")

    def __init__(self, algebra: "LieAlgebra", coords: Iterable, den: int | None = None):
        """The element with coordinates `coords`, or, given `den`, the integer `coords` over `den`.

        Numbers are brought over the lcm of their denominators; integer
        coordinates are divided by their common factor with `den`.
        """
        if den is None:
            num, den = _integer_vector(coords)
            num = tuple(num)
        else:
            if not den:
                raise ZeroDivisionError("element denominator is zero")
            num = tuple(coords)
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = tuple([x // g for x in num])
                den //= g
        if len(num) != algebra.dim:
            raise DomainError("coordinate vector has wrong length")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("Element is immutable")

    @property
    def coords(self) -> Vector:
        """The coordinates as Fractions."""
        d = self.den
        return tuple([Fraction(x, d) if x else _ZERO for x in self.num])

    def _plus(self, other: "Element", sign: int) -> "Element":
        """self + sign * other over the lcm of the two denominators."""
        self.algebra._check_same(other.algebra)
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        return Element(self.algebra, [f * a + g * b for a, b in zip(self.num, other.num)], den)

    def __add__(self, other: "Element") -> "Element":
        return self._plus(other, 1)

    def __sub__(self, other: "Element") -> "Element":
        return self._plus(other, -1)

    def __neg__(self) -> "Element":
        return Element(self.algebra, [-a for a in self.num], self.den)

    def scale(self, c) -> "Element":
        c = c if type(c) is int else _as_fraction(c)
        p = c.numerator
        return Element(self.algebra, [p * a for a in self.num], self.den * c.denominator)

    def __mul__(self, c) -> "Element":
        return self.scale(c)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and other.algebra is self.algebra
            and other.den == self.den
            and other.num == self.num
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.den, self.num))

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coords):
            if c != 0:
                name = self.algebra.basis_name(k)
                terms.append(name if c == 1 else f"{c}*{name}")
        body = " + ".join(terms) if terms else "0"
        return f"<{self.algebra.descriptor}: {body}>"


def pair_row(x: Element, y: Element) -> tuple[int, ...]:
    """The pair (x, y) in g x g as one integer row: (x, y) times x.den * y.den."""
    return tuple([y.den * a for a in x.num] + [x.den * b for b in y.num])


class GroupElement:
    """A determinant-one rational matrix acting on a type A algebra by conjugation.

    The element is one `Mat`, `mat`, whose canonical form makes equal
    elements have equal `mat`; products and conjugation are `Mat`
    arithmetic, and the inverse of N / d is the integer adjugate of N over
    d^(m-1) (det N = d^m).  The determinant is checked where a matrix enters:
    `GroupElement(mat)`, which `group_exp`, `root_product`, `torus_element`
    and `weyl_representatives` go through.  For a triangular N / d, as
    every one of these but the Weyl representatives is, det = 1 is read
    as prod_i N[i][i] = d^n; any other matrix takes the Bareiss `det`.
    det is multiplicative, so products and inverses, and the identity,
    have determinant one exactly and are built without the check.
    """

    __slots__ = ("mat", "_inv")

    def __init__(self, mat: Mat):
        if mat.rows != mat.cols:
            raise DomainError("group element must be square")
        num = mat.num
        if _triangular(num):
            unimodular = prod([row[i] for i, row in enumerate(num)]) == mat.den**mat.rows
        else:
            unimodular = mat.det() == 1
        if not unimodular:
            raise DomainError("group element must have determinant one")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_inv", None)

    def __setattr__(self, *args):
        raise AttributeError("GroupElement is immutable")

    @staticmethod
    def identity(size: int) -> "GroupElement":
        return _group(Mat.identity(size))

    def is_identity(self) -> bool:
        return self.mat == Mat.identity(self.mat.rows)

    def inverse(self) -> "GroupElement":
        """adj(N) / d^(m-1) for self = N / d, as det N = d^m; cached both ways."""
        inv = self._inv
        if inv is None:
            mat = self.mat
            inv = _group(Mat(_int_adjugate(mat.num), mat.den ** (mat.rows - 1), mat.rows))
            object.__setattr__(inv, "_inv", self)
            object.__setattr__(self, "_inv", inv)
        return inv

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return _group(self.mat * other.mat)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupElement) and self.mat == other.mat

    def __hash__(self) -> int:
        return hash(self.mat)

    def __repr__(self) -> str:
        return f"GroupElement({self.mat!r})"


def _triangular(num: IntRows) -> bool:
    """Is the square matrix num upper or lower triangular?"""
    upper = lower = True
    for i, row in enumerate(num):
        upper = upper and not any(row[:i])
        lower = lower and not any(row[i + 1 :])
        if not (upper or lower):
            return False
    return True


def _group(mat: Mat) -> GroupElement:
    """The element mat, whose determinant is known to be one and is not checked."""
    g = object.__new__(GroupElement)
    object.__setattr__(g, "mat", mat)
    object.__setattr__(g, "_inv", None)
    return g


class LieAlgebra:
    """A fixed Chevalley basis presentation of one catalogue algebra."""

    def __init__(self, descriptor: str):
        rs = RootSystem(descriptor)
        self.descriptor = descriptor
        self.root_system = rs
        self.rank = rs.rank
        self.n_pos = len(rs.positive_roots)
        self.dim = 2 * self.n_pos + self.rank
        # basis labels: ("e", k) / ("h", i) / ("f", k); k indexes positive_roots
        self.labels: list[tuple[str, int]] = (
            [("e", k) for k in range(self.n_pos)]
            + [("h", i) for i in range(self.rank)]
            + [("f", k) for k in range(self.n_pos)]
        )
        self._root_of_index: dict[int, Root] = {}
        for idx, (kind, k) in enumerate(self.labels):
            if kind == "e":
                self._root_of_index[idx] = rs.positive_roots[k]
            elif kind == "f":
                self._root_of_index[idx] = _rneg(rs.positive_roots[k])
        self._index_of_root = {r: i for i, r in self._root_of_index.items()}
        self._table = self._build_table()
        # per basis vector, the nonzero integer (row, col, value) entries of its
        # realization; per coordinate, the (row, col, value) entries that read
        # it, times _readout_den, off a realized matrix
        self._realization: list[tuple[tuple[int, int, int], ...]] | None = None
        self._readout: list[tuple[tuple[int, int, int], ...]] | None = None
        self._readout_den = 1
        # per root vector index, the powers of its realization, on first use
        self._powers: dict[int, Powers] = {}
        if rs.type_label == "A":
            self._build_realization()
        self.cartan = self._coord_span(self.idx_h(i) for i in range(self.rank))
        self.nilpos = self._coord_span(self.idx_e(k) for k in range(self.n_pos))
        self.nilneg = self._coord_span(self.idx_f(k) for k in range(self.n_pos))
        self.borel = self.cartan.sum(self.nilpos)
        self.borel_minus = self.cartan.sum(self.nilneg)

    # -- indices and naming -------------------------------------------------

    def _check_same(self, other: "LieAlgebra") -> None:
        if other is not self:
            raise DomainError("elements belong to different algebras")

    def idx_e(self, k: int) -> int:
        return k

    def idx_h(self, i: int) -> int:
        return self.n_pos + i

    def idx_f(self, k: int) -> int:
        return self.n_pos + self.rank + k

    def basis_name(self, idx: int) -> str:
        kind, k = self.labels[idx]
        if kind == "h":
            return f"h{k + 1}"
        root = self.root_system.positive_roots[k]
        return f"{kind}{''.join(str(m) for m in root)}"

    def element(self, coords: Iterable) -> Element:
        return Element(self, coords)

    def zero(self) -> Element:
        return Element(self, (0,) * self.dim)

    def basis_element(self, idx: int) -> Element:
        return Element(self, tuple(1 if j == idx else 0 for j in range(self.dim)))

    def e(self, k: int) -> Element:
        return self.basis_element(self.idx_e(k))

    def h(self, i: int) -> Element:
        return self.basis_element(self.idx_h(i))

    def f(self, k: int) -> Element:
        return self.basis_element(self.idx_f(k))

    # -- structure table ------------------------------------------------------

    def _build_table(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """[b_i, b_j] for i < j as its nonzero integer terms (k, c): c b_k."""
        table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                terms = self._basis_bracket(i, j)
                if terms:
                    table[(i, j)] = tuple(terms)
        return table

    def _basis_bracket(self, i: int, j: int) -> list[tuple[int, int]]:
        rs = self.root_system
        ki, ii = self.labels[i]
        kj, jj = self.labels[j]
        if ki == "h" and kj == "h":
            return []
        if ki == "h" or kj == "h":
            if ki == "h":
                cart, ridx = ii, j
                sign = 1
            else:
                cart, ridx = jj, i
                sign = -1
            root = self._root_of_index[ridx]
            c = rs.pairing(root, cart) * sign
            return [(ridx, c)] if c else []
        alpha = self._root_of_index[i]
        beta = self._root_of_index[j]
        s = _radd(alpha, beta)
        if all(x == 0 for x in s):
            coeffs = rs.coroot_coeffs(alpha)
            return [(self.idx_h(t), c) for t, c in enumerate(coeffs) if c]
        if rs.is_root(s):
            n = rs.n_constant(alpha, beta)
            return [(self._index_of_root[s], n)] if n else []
        return []

    # -- core operations --------------------------------------------------------

    def bracket(self, x: Element, y: Element) -> Element:
        """[x, y]: the integer table summed over the nonzero coordinate pairs, over x.den * y.den."""
        self._check_same(x.algebra)
        self._check_same(y.algebra)
        acc = [0] * self.dim
        nzx = [(i, c) for i, c in enumerate(x.num) if c]
        nzy = [(j, c) for j, c in enumerate(y.num) if c]
        table = self._table
        for i, cx in nzx:
            for j, cy in nzy:
                if i == j:
                    continue
                terms = table.get((i, j) if i < j else (j, i))
                if not terms:
                    continue
                s = cx * cy if i < j else -cx * cy
                for k, c in terms:
                    acc[k] += s * c
        return Element(self, acc, x.den * y.den)

    def ad(self, x: Element) -> Mat:
        """Matrix of ad(x) = [x, .] in the fixed basis (columns are images), over x.den."""
        self._check_same(x.algebra)
        rows = [[0] * self.dim for _ in range(self.dim)]
        for (i, j), terms in self._table.items():
            # x_i [b_i, b_j] goes to column j, and x_j [b_j, b_i] to column i
            ci, cj = x.num[i], x.num[j]
            for k, c in terms:
                rows[k][j] += ci * c
                rows[k][i] -= cj * c
        return Mat(rows, x.den, self.dim)

    def centralizer(self, x: Element) -> Subspace:
        return kernel(self.ad(x))

    def is_regular(self, x: Element) -> bool:
        """dim g^x = rank, read as dim - rank(ad x) by rank-nullity."""
        return self.dim - rank(self.ad(x)) == self.rank

    def exp_ad_apply(self, x: Element, y: Element) -> Element:
        """exp(ad x) applied to y by the bracket series (x must be ad-nilpotent)."""
        out = y
        term = y
        for k in range(1, self.dim + 2):
            term = self.bracket(x, term)
            term = Element(self, term.num, term.den * k)
            if term.is_zero():
                return out
            out = out + term
        raise DomainError("exp_ad_apply requires an ad-nilpotent element")

    # -- distinguished subspaces ---------------------------------------------

    def _coord_span(self, idxs: Iterable[int]) -> Subspace:
        eye = _identity_rows(self.dim)
        return Subspace(self.dim, [eye[i] for i in idxs])

    # -- type A realization ------------------------------------------------------

    @property
    def has_realization(self) -> bool:
        return self._realization is not None

    def _require_realization(self) -> None:
        if self._realization is None:
            raise UnsupportedAlgebraError(
                f"{self.descriptor} carries no matrix realization; group operations are type A only"
            )

    def _require_acting(self, g: GroupElement) -> None:
        self._require_realization()
        if g.mat.rows != self.rank + 1:
            raise DomainError("group element has the wrong size for this algebra")

    def _build_realization(self) -> None:
        rs = self.root_system
        m = self.rank + 1
        real: list[IntRows | None] = [None] * self.dim

        def matrix(*entries: tuple[int, int, int]) -> IntRows:
            out = [[0] * m for _ in range(m)]
            for r, c, v in entries:
                out[r][c] = v
            return tuple(map(tuple, out))

        def bracket_over(ia: int, ib: int, n: int) -> IntRows:
            ab, ba = _int_matmul(real[ia], real[ib]), _int_matmul(real[ib], real[ia])
            out = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
            if any(x % n for row in out for x in row):
                raise ArithmeticError("the realization table must be integral")
            return tuple(tuple(x // n for x in row) for row in out)

        for i in range(self.rank):
            real[self.idx_h(i)] = matrix((i, i, 1), (i + 1, i + 1, -1))
        for k, alpha in enumerate(rs.positive_roots):
            if rs.height(alpha) == 1:
                i = alpha.index(1)
                real[self.idx_e(k)] = matrix((i, i + 1, 1))
                real[self.idx_f(k)] = matrix((i + 1, i, 1))
        # non-simple root vectors through their extraspecial brackets keeps
        # realization signs consistent with the abstract constants
        for alpha in rs.positive_roots:
            if rs.height(alpha) < 2:
                continue
            a, b = rs.extraspecial_pair(alpha)
            n = rs.n_constant(a, b)
            index = self._index_of_root
            real[index[alpha]] = bracket_over(index[a], index[b], n)
            real[index[_rneg(alpha)]] = bracket_over(index[_rneg(a)], index[_rneg(b)], -n)
        self._realization = [
            tuple((r, c, v) for r, row in enumerate(mk) for c, v in enumerate(row) if v)
            for mk in real
        ]
        # coordinates are read off the entries at the pivot positions of the
        # stacked flattened basis matrices
        stack_rows = [tuple(x for row in mk for x in row) for mk in real]
        pivots = _echelon(list(stack_rows), m * m)
        square = Mat([[row[p] for row in stack_rows] for p in pivots], 1, self.dim).inverse()
        self._readout_den = square.den
        self._readout = [
            tuple(divmod(p, m) + (v,) for p, v in zip(pivots, row) if v) for row in square.num
        ]

    def _combine(self, ints: Sequence[int]) -> list[list[int]]:
        """The integer matrix sum_j ints[j] R_j over the realization table."""
        m = self.rank + 1
        acc = [[0] * m for _ in range(m)]
        for k, entries in zip(ints, self._realization):
            if k:
                for r, c, v in entries:
                    acc[r][c] += k * v
        return acc

    def realize(self, x: Element) -> Mat:
        """Defining-representation matrix of x (type A only), summed from the integer table."""
        self._require_realization()
        return Mat(self._combine(x.num), x.den)

    def from_matrix(self, mat: Mat) -> Element:
        """Inverse of realize; raises DomainError off the realized algebra."""
        self._require_realization()
        m = self.rank + 1
        if mat.rows != m or mat.cols != m:
            raise DomainError("matrix has the wrong shape for this algebra")
        return Element(self, self._read_int(mat.num), self._readout_den * mat.den)

    def _read_int(self, rows: Sequence[Sequence[int]]) -> list[int]:
        """Coordinates times _readout_den of the element realized by rows, read back to check."""
        self._require_realization()
        sden = self._readout_den
        nums = [sum(v * rows[r][c] for r, c, v in terms) for terms in self._readout]
        for back, row in zip(self._combine(nums), rows):
            if back != [sden * x for x in row]:
                raise DomainError("matrix lies outside the realized algebra")
        return nums

    def adjoint(self, g: GroupElement) -> Mat:
        """Ad_g in the fixed basis: column k is Ad_g of basis vector k (type A).

        With g = N / d and g^-1 = M / f, Ad_g(b_k) = g R_k g^-1 is the sum over
        the entries (r, c, v) of the realization R_k of v (N e_r)(e_c^T M), over
        d f: outer products of a column of N and a row of M, from one inverse.
        Its coordinates are read in integers over d f _readout_den.
        """
        if g.is_identity():
            return Mat.identity(self.dim)
        self._require_acting(g)
        mat, inv = g.mat, g.inverse().mat
        num, inv_num = mat.num, inv.num
        m = len(num)
        images = []
        for entries in self._realization:
            acc = [[0] * m for _ in range(m)]
            for r, c, v in entries:
                right = inv_num[c]
                for row, out in zip(num, acc):
                    left = row[r] * v
                    if left:
                        for j, x in enumerate(right):
                            out[j] += left * x
            images.append(self._read_int(acc))
        return Mat(list(zip(*images)), self._readout_den * mat.den * inv.den)

    # -- group operations ----------------------------------------------------------

    def group_identity(self) -> GroupElement:
        self._require_realization()
        return GroupElement.identity(self.rank + 1)

    def group_exp(self, x: Element) -> GroupElement:
        """exp of a nilpotent element in the defining representation.

        With realize(x) = Y / D, exp(x) is exp(c Y) for c = 1 / D (`_times_exp`).
        x is nilpotent exactly when Y^m = 0.
        """
        real = self.realize(x)
        num, den = _times_exp(_identity_rows(real.rows), 1, _sparse_powers(real.num), 1, real.den)
        return GroupElement(Mat(num, den))

    def root_product(self, factors: Iterable[tuple[int, object]]) -> GroupElement:
        """The product of exp(c b_idx) over the (basis index, c) pairs, in order (type A).

        Each factor multiplies the integer product so far by exp(c R) for the
        realization R of root vector idx (`_times_exp`), from the nonzero
        entries of R's powers, cached once per root: one entry in type A.
        """
        self._require_realization()
        num, den = _identity_rows(self.rank + 1), 1
        for idx, c in factors:
            powers = self._powers.get(idx)
            if powers is None:
                if idx not in self._root_of_index:
                    raise DomainError(f"basis index {idx} is not a root vector")
                unit = [int(j == idx) for j in range(self.dim)]
                powers = self._powers[idx] = _sparse_powers(self._combine(unit))
            c = c if type(c) is int else _as_fraction(c)
            if c:
                num, den = _times_exp(num, den, powers, c.numerator, c.denominator)
        return GroupElement(Mat(num, den))

    def torus_element(self, entries: Sequence) -> GroupElement:
        self._require_realization()
        m = self.rank + 1
        if len(entries) != m:
            raise DomainError("torus element needs rank+1 diagonal entries")
        diagonal = [[v if i == j else 0 for j in range(m)] for i, v in enumerate(entries)]
        return GroupElement(Mat(diagonal))

    def weyl_representatives(self) -> list[GroupElement]:
        """Determinant-one permutation representatives of the Weyl group (type A)."""
        self._require_realization()
        from itertools import permutations

        m = self.rank + 1
        out = []
        for perm in permutations(range(m)):
            sign = _perm_sign(perm)
            rows = [[0] * m for _ in range(m)]
            for src, dst in enumerate(perm):
                rows[dst][src] = -1 if sign < 0 and src == 0 else 1
            out.append(GroupElement(Mat(rows, 1)))
        return out


def _sparse_powers(y: Sequence[Sequence[int]]) -> Powers:
    """The nonzero (row, col, value) entries of Y, ..., Y^K, Y^(K+1) = 0, for nilpotent Y."""
    out, power = [], y
    while any(any(row) for row in power):
        if len(out) == len(y) - 1:
            raise DomainError("group_exp requires a nilpotent element")
        out.append(tuple((i, j, v) for i, row in enumerate(power) for j, v in enumerate(row) if v))
        power = _int_matmul(power, y)
    return tuple(out)


def _times_exp(
    num: Sequence[Sequence[int]], den: int, powers: Powers, p: int, q: int
) -> tuple[list[list[int]], int]:
    """(N exp(c Y) / D) as integer rows over a denominator, for c = p / q.

    With Y^(K+1) = 0 that is sum_k (K!/k!) p^k q^(K-k) N Y^k over D K! q^K,
    and N Y^k adds v times column r of N to column s for each nonzero entry
    (r, s, v) of Y^k, so only those entries are visited.
    """
    top = len(powers)
    base = factorial(top) * q**top
    out = [[base * x for x in row] for row in num]
    for k, entries in enumerate(powers, 1):
        w = factorial(top) // factorial(k) * p**k * q ** (top - k)
        for r, s, v in entries:
            wv = w * v
            for row, orow in zip(num, out):
                if row[r]:
                    orow[s] += wv * row[r]
    return out, den * base


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def build_algebra(type_label: str, rank: int) -> LieAlgebra:
    """Construct (once) the catalogue algebra of the given type and rank."""
    return LieAlgebra(f"{type_label}{rank}")


def algebra_from_descriptor(descriptor: str) -> LieAlgebra:
    """Parse a descriptor like "A2" or "G2" and build the algebra."""
    text = descriptor.strip().upper()
    if len(text) < 2 or not text[1:].isdigit():
        raise UnsupportedAlgebraError(
            f"unsupported algebra {descriptor!r}; choose from {sorted(_CARTAN)}"
        )
    return build_algebra(text[0], int(text[1:]))


def conjugate(g: GroupElement, y: Element) -> Element:
    """Adjoint action Ad_g(y) = g realize(y) g^-1 (type A)."""
    L = y.algebra
    L._require_acting(g)
    return L.from_matrix(g.mat * L.realize(y) * g.inverse().mat)


ALGEBRA_DESCRIPTORS = tuple(sorted(_CARTAN))
