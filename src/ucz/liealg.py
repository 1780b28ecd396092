"""Split semisimple Lie algebras A1, A2, A3, B2 and G2 in a Chevalley basis.

The basis is ordered as
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

Group elements act through one m x m realization in a weight basis for
every algebra: `_GENERATORS` gives m and the simple e_i and f_i, h_i =
[e_i, f_i], and the other root vectors come from their extraspecial
brackets, so each h_i is diagonal and each e_alpha strictly upper
triangular.  The realization is one table of integer matrices, built on
first use, so `realize(x)` is the integer `Mat` of x.num summed straight
from it, over x.den, and `from_matrix` reads a `Mat`'s integer rows back
through the table.  The flattened table spans a `Subspace` of the m x m
matrices, and a matrix is read only if it passes that span's free-column
membership test: for sl_m the one free column is the last diagonal
entry, so the test is the trace.
A `GroupElement` is one `Mat` of determinant one: products, inverses and
`conjugate(g, y) = from_matrix(g realize(y) g^-1)` are `Mat` arithmetic,
and the determinant is checked only where a matrix enters from outside.
`root_product` multiplies root factors exp(c e_alpha) straight into one
integer matrix from each root's cached realization powers; the torus
elements are products of coroot cocharacters, and the Weyl
representatives are words in Steinberg's n_i.  `conjugate` is the one
action of the group on the algebra: Ad_g is never built as a matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from math import factorial, gcd, lcm
from typing import TYPE_CHECKING, Iterable, Sequence
from weakref import ref

from .errors import ConstructionError, DomainError, UnsupportedAlgebraError
from .exactlin import (
    IntRows,
    Mat,
    Subspace,
    Vector,
    _as_fraction,
    _identity_rows,
    _int_matmul,
    _integer_vector,
    kernel,
    rank,
)

if TYPE_CHECKING:  # `import ucz` does not load the generator module
    from .rng import SplitMix64

_ZERO = Fraction(0)

_CARTAN: dict[str, list[list[int]]] = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -3], [-1, 2]],
}

Entries = tuple[tuple[int, int, int], ...]

# the size m of each realization and the nonzero 0-based (row, col, value)
# entries of the simple e_i and f_i in a weight basis; sl_(l+1) for A_l
_GENERATORS: dict[str, tuple[int, list[Entries], list[Entries]]] = {
    f"A{l}": (l + 1, [((i, i + 1, 1),) for i in range(l)], [((i + 1, i, 1),) for i in range(l)])
    for l in (1, 2, 3)
}
# sp_4, alpha_1 long: e1 = E23, e2 = E12 - E34
_GENERATORS["B2"] = (4, [((1, 2, 1),), ((0, 1, 1), (2, 3, -1))],
                     [((2, 1, 1),), ((1, 0, 1), (3, 2, -1))])
# alpha_1 short: e1 = E12 + 2 E34 + E45 + E67, e2 = E23 + E56
_GENERATORS["G2"] = (7, [((0, 1, 1), (2, 3, 2), (3, 4, 1), (5, 6, 1)), ((1, 2, 1), (4, 5, 1))],
                     [((1, 0, 1), (3, 2, 1), (4, 3, 2), (6, 5, 1)), ((2, 1, 1), (5, 4, 1))])

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
        self._A = _CARTAN[descriptor]
        self.rank = len(self._A)
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

    def weyl_order(self, generators: Iterable[int]) -> int:
        """|W_J| for J a set of 0-based simple reflections s_i.

        s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, and an element is its
        tuple of images of the simple roots: w s_i sends alpha_j to
        w(alpha_j) - A[i][j] w(alpha_i).
        """

        def times_s(i: int):
            return lambda w: tuple(
                tuple(b - self._A[i][j] * a for a, b in zip(w[i], wj)) for j, wj in enumerate(w)
            )

        return len(_closure(tuple(self.simple_roots), [times_s(i) for i in generators]))

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
    """A determinant-one rational matrix acting on an algebra's realization by conjugation.

    The element is one `Mat`, `mat`, whose canonical form makes equal
    elements have equal `mat`; products, conjugation and the inverse are
    `Mat` arithmetic.  `GroupElement(mat)` is the one edge that checks
    det = 1.  Everything the library builds is unimodular by construction
    and skips the check (`_group`):
      * `group_exp` and each `root_product` factor is exp of a nilpotent,
        which `_sparse_powers` refuses otherwise, and exp(Y) has det
        e^(tr Y) = 1;
      * a torus element has det prod_i t_i^(tr h_i) = 1, as each
        h_i = [e_i, f_i] is traceless;
      * the Steinberg n_i and the Weyl representatives are products of
        such factors;
      * det is multiplicative, so products, inverses and the identity have
        determinant one.
    """

    __slots__ = ("mat", "_inv", "__weakref__")

    def __init__(self, mat: Mat):
        if mat.rows != mat.cols:
            raise DomainError("group element must be square")
        if mat.det() != 1:
            raise DomainError("group element must have determinant one")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_inv", None)

    def __setattr__(self, *args):
        raise AttributeError("GroupElement is immutable")

    def is_identity(self) -> bool:
        return self.mat == Mat.identity(self.mat.rows)

    def inverse(self) -> "GroupElement":
        """The inverse matrix, cached both ways: g holds it, and it links back to g weakly."""
        inv = self._inv
        if type(inv) is ref:
            inv = inv()
        if inv is None:
            inv = _group(self.mat.inverse())
            object.__setattr__(inv, "_inv", ref(self))
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
        # the size of the matrix realization, which is built on first use
        self.matrix_size = _GENERATORS[descriptor][0]
        # per root vector index, the powers of its realization, on first use
        self._powers: dict[int, Powers] = {}
        # the basis is [e | h | f], so each of these is a block of coordinates
        e_end, h_end, n = self.n_pos, self.n_pos + self.rank, self.dim
        self.cartan = Subspace.coordinate_span(n, range(e_end, h_end))
        self.nilpos = Subspace.coordinate_span(n, range(e_end))
        self.nilneg = Subspace.coordinate_span(n, range(h_end, n))
        self.borel = Subspace.coordinate_span(n, range(h_end))

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
        """[x, y]: the integer bracket of x.num and y.num (`_bracket_num`), over x.den * y.den."""
        self._check_same(x.algebra)
        self._check_same(y.algebra)
        return Element(self, self._bracket_num(_nonzero(x.num), y.num), x.den * y.den)

    def _bracket_num(self, xs: list[tuple[int, int]], y: Sequence[int]) -> list[int]:
        """[X, Y] in integers: the table summed over the nonzero pairs xs of X and those of Y."""
        acc = [0] * self.dim
        nzy = _nonzero(y)
        table = self._table
        for i, cx in xs:
            for j, cy in nzy:
                if i == j:
                    continue
                terms = table.get((i, j) if i < j else (j, i))
                if not terms:
                    continue
                s = cx * cy if i < j else -cx * cy
                for k, c in terms:
                    acc[k] += s * c
        return acc

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
        """exp(ad x) applied to y by the bracket series (x must be ad-nilpotent).

        With x = U / d and y = Y / e, the integer terms (ad U)^k Y are
        bracketed until (ad U)^(K+1) Y = 0, and the series is their sum
        sum_k (K!/k!) d^(K-k) (ad U)^k Y over K! d^K e, one `Element`.
        """
        self._check_same(x.algebra)
        self._check_same(y.algebra)
        xs = _nonzero(x.num)
        terms = [y.num]
        while True:
            term = self._bracket_num(xs, terms[-1])
            if not any(term):
                break
            if len(terms) > self.dim:
                raise DomainError("exp_ad_apply requires an ad-nilpotent element")
            terms.append(term)
        top, d = len(terms) - 1, x.den
        acc = [0] * self.dim
        for k, term in enumerate(terms):
            w = factorial(top) // factorial(k) * d ** (top - k)
            acc = [a + w * b for a, b in zip(acc, term)]
        return Element(self, acc, factorial(top) * d**top * y.den)

    # -- matrix realization ---------------------------------------------------------

    def _require_acting(self, g: GroupElement) -> None:
        if g.mat.rows != self.matrix_size:
            raise DomainError("group element has the wrong size for this algebra")

    @cached_property
    def _realization(self) -> list[Entries]:
        """Per basis vector, the nonzero integer (row, col, value) entries of its realization."""
        rs = self.root_system
        m, simple_e, simple_f = _GENERATORS[self.descriptor]
        index = self._index_of_root
        real: list[IntRows | None] = [None] * self.dim

        def matrix(entries: Entries) -> IntRows:
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

        for i, alpha in enumerate(rs.simple_roots):
            ie, jf = index[alpha], index[_rneg(alpha)]
            real[ie], real[jf] = matrix(simple_e[i]), matrix(simple_f[i])
            real[self.idx_h(i)] = bracket_over(ie, jf, 1)
        # non-simple root vectors through their extraspecial brackets keeps
        # realization signs consistent with the abstract constants
        for alpha in rs.positive_roots:
            if rs.height(alpha) < 2:
                continue
            a, b = rs.extraspecial_pair(alpha)
            n = rs.n_constant(a, b)
            real[index[alpha]] = bracket_over(index[a], index[b], n)
            real[index[_rneg(alpha)]] = bracket_over(index[_rneg(a)], index[_rneg(b)], -n)
        return [
            tuple((r, c, v) for r, row in enumerate(mk) for c, v in enumerate(row) if v)
            for mk in real
        ]

    @cached_property
    def _readback(self) -> tuple[Subspace, list[Entries], int]:
        """(span, readout, D) for reading coordinates off a realized matrix.

        span is the realized algebra in the flattened m x m matrices, and
        readout lists per coordinate the (row, col, value) entries at the
        span's pivots that read it, times D.
        """
        m = self.matrix_size
        flat = [list(chain.from_iterable(self._combine(unit))) for unit in _identity_rows(self.dim)]
        span = Subspace(m * m, flat)
        pivots = span._pivots
        square = Mat([[row[p] for row in flat] for p in pivots], 1, self.dim).inverse()
        readout = [
            tuple(divmod(p, m) + (v,) for p, v in zip(pivots, row) if v) for row in square.num
        ]
        return span, readout, square.den

    def _combine(self, ints: Sequence[int]) -> list[list[int]]:
        """The integer matrix sum_j ints[j] R_j over the realization table."""
        m = self.matrix_size
        acc = [[0] * m for _ in range(m)]
        for k, entries in zip(ints, self._realization):
            if k:
                for r, c, v in entries:
                    acc[r][c] += k * v
        return acc

    def realize(self, x: Element) -> Mat:
        """The realization matrix of x, summed from the integer table."""
        return Mat(self._combine(x.num), x.den)

    def from_matrix(self, mat: Mat) -> Element:
        """Inverse of realize; raises DomainError off the realized algebra."""
        m = self.matrix_size
        if mat.rows != m or mat.cols != m:
            raise DomainError("matrix has the wrong shape for this algebra")
        return Element(self, self._read_int(mat.num), self._readback[2] * mat.den)

    def _read_int(self, rows: Sequence[Sequence[int]]) -> list[int]:
        """Coordinates, times the readout denominator, of the element realized by rows.

        The flattened rows must lie in the realized span, which the free-column
        test of `Subspace` decides; for sl_m that is the one free column, the trace.
        """
        span, readout, _ = self._readback
        if not span._inside(list(chain.from_iterable(rows))):
            raise DomainError("matrix lies outside the realized algebra")
        return [sum(v * rows[r][c] for r, c, v in terms) for terms in readout]

    # -- group operations ----------------------------------------------------------

    def group_identity(self) -> GroupElement:
        return _group(Mat.identity(self.matrix_size))

    def group_exp(self, x: Element) -> GroupElement:
        """exp of a nilpotent element in the realization (`exp_product` of one factor)."""
        return self.exp_product([x])

    def exp_product(self, xs: Iterable[Element]) -> GroupElement:
        """exp(x_1) ... exp(x_k) for nilpotent x_i, multiplied into one integer product.

        With realize(x) = Y / D, exp(x) is exp(c Y) for c = 1 / D (`_times_exp`).
        x is nilpotent exactly when Y^m = 0.
        """
        num, den = _identity_rows(self.matrix_size), 1
        for x in xs:
            self._check_same(x.algebra)
            num, den = _times_exp(num, den, _sparse_powers(self._combine(x.num)), 1, x.den)
        return _group(Mat(num, den))

    def root_product(self, factors: Iterable[tuple[int, object]]) -> GroupElement:
        """The product of exp(c b_idx) over the (basis index, c) pairs, in order.

        Each factor multiplies the integer product so far by exp(c R) for the
        realization R of root vector idx (`_times_exp`), from the nonzero
        entries of R's powers, cached once per root: one entry in type A.
        """
        num, den = _identity_rows(self.matrix_size), 1
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
        return _group(Mat(num, den))

    def torus_element(self, ts: Sequence) -> GroupElement:
        """prod_i alpha_i^vee(t_i): diagonal entry k is prod_i t_i^(h_i[k][k]), h_i realized.

        With t_i = p_i / q_i, entry k is the product of p_i^v / q_i^v over
        v = h_i[k][k] > 0 and of q_i^-v / p_i^-v over v < 0, in integers.
        """
        if len(ts) != self.rank:
            raise DomainError("torus element needs one parameter per simple coroot")
        m = self.matrix_size
        nums, dens = [1] * m, [1] * m
        for i, t in enumerate(ts):
            t = t if type(t) is int else _as_fraction(t)
            if not t:
                raise DomainError("torus parameters must be nonzero")
            p, q = t.numerator, t.denominator
            for k, _, v in self._realization[self.idx_h(i)]:
                a, b = (p, q) if v > 0 else (q, p)
                nums[k] *= a ** abs(v)
                dens[k] *= b ** abs(v)
        den = lcm(*dens)
        rows = [[0] * m for _ in range(m)]
        for k, (a, b) in enumerate(zip(nums, dens)):
            rows[k][k] = a * (den // b)
        return _group(Mat(rows, den))

    def weyl_representatives(self) -> tuple[GroupElement, ...]:
        """The first word in Steinberg's n_i = exp(e_i) exp(-f_i) exp(e_i) over each Weyl element.

        n_i acts on the weights as s_i, so a word is monomial and its support
        tells its Weyl element: breadth first, |W| words, the identity first.
        Built once per algebra, so each word keeps its inverse once computed.
        Each word normalizes the Cartan, Ad_w^-1 h_i in the Cartan for every
        simple coroot h_i, which is checked once here (|W| * rank `conjugate`
        calls, building each word's inverse) and raises `ConstructionError`
        for a word outside N(T); callers may rely on it.
        """
        return self._weyl_words

    @cached_property
    def _weyl_words(self) -> tuple[GroupElement, ...]:
        index = self._index_of_root
        steinberg = [
            self.root_product([(index[a], 1), (index[_rneg(a)], -1), (index[a], 1)])
            for a in self.root_system.simple_roots
        ]
        words = _closure(
            self.group_identity(),
            [lambda w, n=n: w * n for n in steinberg],
            key=lambda g: tuple(tuple(map(bool, row)) for row in g.mat.num),
        )
        for w in words:
            back = w.inverse()
            for i in range(self.rank):
                if not self.cartan.contains(conjugate(back, self.h(i)).num):
                    raise ConstructionError("a Weyl word does not normalize the Cartan")
        return words


def _closure(one, moves, key=lambda x: x) -> tuple:
    """one and all it reaches by the moves, breadth first, keeping the first element per key."""
    found, frontier = {key(one): one}, [one]
    while frontier:
        new = []
        for x in frontier:
            for move in moves:
                y = move(x)
                if key(y) not in found:
                    found[key(y)] = y
                    new.append(y)
        frontier = new
    return tuple(found.values())


def _nonzero(v: Sequence[int]) -> list[tuple[int, int]]:
    """The (index, value) pairs of the nonzero entries of v."""
    return [(i, c) for i, c in enumerate(v) if c]


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


@cache
def _catalogue_algebra(descriptor: str) -> LieAlgebra:
    return LieAlgebra(descriptor)


def build_algebra(type_label: str, rank: int) -> LieAlgebra:
    """Construct (once) the catalogue algebra of the given type and rank."""
    return _catalogue_algebra(f"{type_label}{rank}")


def algebra_from_descriptor(descriptor: str) -> LieAlgebra:
    """The catalogue algebra named by a descriptor like "A2" or " g2 ", built once.

    After surrounding space is stripped and letters are upper-cased, the
    descriptor must be one of `ALGEBRA_DESCRIPTORS` exactly: "A01", "A²"
    and "A٣" are refused with `UnsupportedAlgebraError`.
    """
    return _catalogue_algebra(descriptor.strip().upper())


def conjugate(g: GroupElement, y: Element) -> Element:
    """The action Ad_g(y) = g realize(y) g^-1 of a group element on the algebra.

    With g = N / d, g^-1 = M / e and realize(y) = Y / y.den, that is the
    integer product N Y M over d e y.den, read back once in integers
    (`_read_int`, which refuses it off the realized span).
    """
    L = y.algebra
    L._require_acting(g)
    mat, inv = g.mat, g.inverse().mat
    rows = _int_matmul(_int_matmul(mat.num, L._combine(y.num)), inv.num)
    return Element(L, L._read_int(rows), L._readback[2] * mat.den * inv.den * y.den)


def regular_cartan(L: LieAlgebra, gen: SplitMix64) -> Element:
    """A regular element of the Cartan subalgebra (distinct root values).

    Each try draws one gen.fraction() coefficient per h_i, in order, until
    the element is regular.
    """
    while True:
        coeffs = [gen.fraction() for _ in range(L.rank)]
        s = Element(L, [0] * L.n_pos + coeffs + [0] * L.n_pos)
        if L.is_regular(s):
            return s


ALGEBRA_DESCRIPTORS = tuple(sorted(_CARTAN))
