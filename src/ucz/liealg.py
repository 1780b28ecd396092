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

Type A algebras carry the defining (l+1) x (l+1) matrix realization, which
is what group elements act through; B2 and G2 are Lie-algebra only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainError, UnsupportedAlgebraError
from .exactlin import (
    IntRows,
    Mat,
    Rat,
    Subspace,
    _as_fraction,
    _identity_rows,
    _int_det,
    _int_matmul,
    _integer_matrix,
    _pivot_columns,
    kernel,
    vec,
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
        self._n_pos: dict[tuple[Root, Root], Fraction] = {}
        self._n_memo: dict[tuple[Root, Root], Fraction] = {}
        self._fill_constants()

    # -- basic data -------------------------------------------------------

    def _symmetrizer(self) -> list[int]:
        """Integers d_i with d_i A[i][j] symmetric (half squared lengths)."""
        l = self.rank
        d = [Fraction(0)] * l
        d[0] = Fraction(1)
        # propagate along the (connected) Dynkin diagram
        changed = True
        while changed:
            changed = False
            for i in range(l):
                for j in range(l):
                    if i != j and self._A[i][j] != 0 and d[i] != 0 and d[j] == 0:
                        d[j] = d[i] * self._A[i][j] / self._A[j][i]
                        changed = True
        mult = 1
        for x in d:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        dd = [int(x * mult) for x in d]
        g = 0
        for x in dd:
            g = gcd(g, x)
        return [x // g for x in dd]

    @property
    def cartan_matrix(self) -> Mat:
        return Mat(self._A)

    def height(self, alpha: Root) -> int:
        return sum(alpha)

    def order_key(self, alpha: Root) -> tuple:
        return (sum(alpha), alpha)

    def is_root(self, alpha: Root) -> bool:
        return alpha in self._root_set

    def is_positive(self, alpha: Root) -> bool:
        return alpha in self._pos_set

    def pairing(self, alpha: Root, i: int) -> int:
        """<alpha, alpha_i^vee> for the i-th simple coroot."""
        return sum(m * self._A[i][j] for j, m in enumerate(alpha))

    def inner(self, alpha: Root, beta: Root) -> Fraction:
        """(alpha, beta) for the symmetric form with (alpha_i, alpha_i) = 2 d_i."""
        s = Fraction(0)
        for i, mi in enumerate(alpha):
            if mi == 0:
                continue
            for j, kj in enumerate(beta):
                if kj:
                    s += mi * kj * self._d[i] * self._A[i][j]
        return s

    def coroot_coeffs(self, alpha: Root) -> tuple[int, ...]:
        """alpha^vee as an integer combination of simple coroots."""
        d_alpha = self.inner(alpha, alpha) / 2
        out = []
        for i, m in enumerate(alpha):
            c = Fraction(m * self._d[i]) / d_alpha
            if c.denominator != 1:
                raise ArithmeticError("coroot expansion must be integral")
            out.append(int(c))
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
            self._n_pos[(a0, b0)] = Fraction(self.p_value(a0, b0) + 1)
            for a in cands[1:]:
                b = _rsub(gamma, a)
                if self.order_key(a) >= self.order_key(b):
                    continue
                self._n_pos[(a, b)] = self._forced_constant(a, b, gamma, a0, b0)

    def _forced_constant(self, a: Root, b: Root, gamma: Root, a1: Root, b1: Root) -> Fraction:
        # Jacobi identity on (e_{a1}, e_{b1}, e_{-a}) isolates N_{a,b};
        # every constant on the right involves pairs of strictly smaller
        # height-sum, so the table is filled in one ascending pass.
        t = Fraction(0)
        if _rsub(b1, a) in self._root_set:
            t += self.n_constant(b1, _rneg(a)) * self.n_constant(_rsub(b1, a), a1)
        if _rsub(a1, a) in self._root_set:
            t += self.n_constant(_rneg(a), a1) * self.n_constant(_rsub(a1, a), b1)
        val = self.inner(gamma, gamma) / self.inner(b, b) * t / self._n_pos[(a1, b1)]
        if val.denominator != 1 or val == 0:
            raise ArithmeticError(f"structure constant for {a}+{b} not a nonzero integer")
        if abs(val) != self.p_value(a, b) + 1:
            raise ArithmeticError(f"structure constant magnitude broken at {a}+{b}")
        return val

    def n_constant(self, a: Root, b: Root) -> Fraction:
        """N_{a,b} with [e_a, e_b] = N_{a,b} e_{a+b}; zero when a+b is not a root."""
        s = _radd(a, b)
        if s not in self._root_set:
            return Fraction(0)
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
                val = -(self.inner(s, s) / self.inner(a, a)) * self.n_constant(_rneg(b), s)
            else:
                val = -self.n_constant(_rneg(a), _rneg(b))
        elif b in self._pos_set:
            val = -self.n_constant(b, a)
        else:
            val = -self.n_constant(_rneg(a), _rneg(b))
        if val.denominator != 1:
            raise ArithmeticError(f"non-integral structure constant at {a}, {b}")
        self._n_memo[key] = val
        return val


class Element:
    """Lie algebra element as an exact coordinate vector in the fixed basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: "LieAlgebra", coords: Iterable):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", vec(coords))
        if len(self.coords) != algebra.dim:
            raise DomainError("coordinate vector has wrong length")

    def __setattr__(self, *args):
        raise AttributeError("Element is immutable")

    def __add__(self, other: "Element") -> "Element":
        self.algebra._check_same(other.algebra)
        return Element(
            self.algebra,
            tuple(a + b if a and b else a or b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other: "Element") -> "Element":
        self.algebra._check_same(other.algebra)
        return Element(
            self.algebra,
            tuple((a - b if a else -b) if b else a for a, b in zip(self.coords, other.coords)),
        )

    def __neg__(self) -> "Element":
        return Element(self.algebra, tuple(-a if a else a for a in self.coords))

    def scale(self, c) -> "Element":
        c = _as_fraction(c)
        if not c:
            return Element(self.algebra, (_ZERO,) * len(self.coords))
        return Element(self.algebra, tuple(c * a if a else a for a in self.coords))

    def __mul__(self, c) -> "Element":
        return self.scale(c)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and other.algebra is self.algebra
            and other.coords == self.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.coords))

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coords):
            if c != 0:
                name = self.algebra.basis_name(k)
                terms.append(name if c == 1 else f"{c}*{name}")
        body = " + ".join(terms) if terms else "0"
        return f"<{self.algebra.descriptor}: {body}>"


class GroupElement:
    """Determinant-one rational matrix N / d acting on a type A algebra by conjugation.

    Stored canonically as an integer matrix `num` = N (a tuple of row tuples)
    over one denominator `den` = d > 0 with gcd(content(N), d) = 1, so equal
    elements have equal (N, d), and products, inverses and conjugation run in
    integer arithmetic.  The determinant is checked where a matrix enters:
    `GroupElement(mat)`, `group_exp`, `torus_element` and
    `weyl_representatives` compare the Bareiss determinant of N with d^m.
    det is multiplicative, so products and inverses, and the identity, have
    determinant one exactly and are built without the check.  `mat` is the
    same element as a `Mat`, built on first use.
    """

    __slots__ = ("num", "den", "_mat", "_inv")

    def __init__(self, mat: Mat):
        if mat.rows != mat.cols:
            raise DomainError("group element must be square")
        num, den = _integer_matrix(mat.row_list())
        _check_det(num, den)
        _fill(self, num, den, mat)

    def __setattr__(self, *args):
        raise AttributeError("GroupElement is immutable")

    @staticmethod
    def identity(size: int) -> "GroupElement":
        return _group(_identity_rows(size), 1)

    def is_identity(self) -> bool:
        return self.den == 1 and self.num == _identity_rows(len(self.num))

    @property
    def mat(self) -> Mat:
        mat = self._mat
        if mat is None:
            d = self.den
            mat = Mat([[Fraction(x, d) for x in row] for row in self.num])
            object.__setattr__(self, "_mat", mat)
        return mat

    def inverse(self) -> "GroupElement":
        """adj(N) / d^(m-1), since det(N) = d^m; cached both ways."""
        inv = self._inv
        if inv is None:
            inv = _group(_int_adjugate(self.num), self.den ** (len(self.num) - 1))
            object.__setattr__(inv, "_inv", self)
            object.__setattr__(self, "_inv", inv)
        return inv

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return _group(_int_matmul(self.num, other.num), self.den * other.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupElement) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"GroupElement({self.mat!r})"


def _fill(g: GroupElement, num: IntRows, den: int, mat: Mat | None) -> None:
    object.__setattr__(g, "num", num)
    object.__setattr__(g, "den", den)
    object.__setattr__(g, "_mat", mat)
    object.__setattr__(g, "_inv", None)


def _group(num: Sequence[Sequence[int]], den: int) -> GroupElement:
    """The element num / den, put in canonical form; its determinant is not checked."""
    c = gcd(den, *(x for row in num for x in row))
    g = object.__new__(GroupElement)
    _fill(g, tuple(tuple(x // c for x in row) for row in num), den // c, None)
    return g


def _checked_group(num: Sequence[Sequence[int]], den: int) -> GroupElement:
    _check_det(num, den)
    return _group(num, den)


def _check_det(num: Sequence[Sequence[int]], den: int) -> None:
    if _int_det(num) != den ** len(num):
        raise DomainError("group element must have determinant one")


def _int_adjugate(rows: Sequence[Sequence[int]]) -> IntRows:
    """adj(A)[i][j] = (-1)^(i+j) times the minor of A without row j and column i."""
    n = len(rows)

    def minor(i: int, j: int) -> int:
        return _int_det([row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i])

    return tuple(tuple((-1) ** (i + j) * minor(j, i) for j in range(n)) for i in range(n))


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
        self._killing: Mat | None = None
        # per basis vector, the nonzero integer (row, col, value) entries of its
        # realization; per coordinate, the (row, col, value) entries that read
        # it, times _readout_den, off a realized matrix
        self._realization: list[tuple[tuple[int, int, int], ...]] | None = None
        self._readout: list[tuple[tuple[int, int, int], ...]] | None = None
        self._readout_den = 1
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

    def root_of_index(self, idx: int) -> Root | None:
        return self._root_of_index.get(idx)

    def pos_root_index(self, alpha: Root) -> int:
        return self.root_system.positive_roots.index(alpha)

    # -- structure table ------------------------------------------------------

    def _build_table(self) -> dict[tuple[int, int], tuple[tuple[int, Rat], ...]]:
        table: dict[tuple[int, int], tuple[tuple[int, Rat], ...]] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                terms = self._basis_bracket(i, j)
                if terms:
                    table[(i, j)] = tuple(terms)
        return table

    def _basis_bracket(self, i: int, j: int) -> list[tuple[int, Rat]]:
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
            return [(ridx, Fraction(c))] if c else []
        alpha = self._root_of_index[i]
        beta = self._root_of_index[j]
        s = _radd(alpha, beta)
        if all(x == 0 for x in s):
            coeffs = rs.coroot_coeffs(alpha)
            return [(self.idx_h(t), Fraction(c)) for t, c in enumerate(coeffs) if c]
        if rs.is_root(s):
            n = rs.n_constant(alpha, beta)
            return [(self._index_of_root[s], n)] if n else []
        return []

    # -- core operations --------------------------------------------------------

    def bracket(self, x: Element, y: Element) -> Element:
        self._check_same(x.algebra)
        self._check_same(y.algebra)
        acc = [_ZERO] * self.dim
        nzx = [(i, c) for i, c in enumerate(x.coords) if c]
        nzy = [(j, c) for j, c in enumerate(y.coords) if c]
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
                    a = acc[k]
                    acc[k] = a + s * c if a else s * c
        return Element(self, acc)

    def ad(self, x: Element) -> Mat:
        """Matrix of ad(x) = [x, .] in the fixed basis (columns are images)."""
        cols = [self.bracket(x, self.basis_element(j)).coords for j in range(self.dim)]
        return Mat.from_rows(
            [tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim)],
            cols=self.dim,
        )

    def centralizer(self, x: Element) -> Subspace:
        return kernel(self.ad(x))

    def is_regular(self, x: Element) -> bool:
        return self.centralizer(x).dim == self.rank

    def exp_ad(self, x: Element) -> Mat:
        """exp(ad x) as an exact matrix; requires ad-nilpotent x."""
        a = self.ad(x)
        total = Mat.identity(self.dim)
        term = Mat.identity(self.dim)
        for k in range(1, self.dim + 2):
            term = a * term
            if term.is_zero():
                return total
            total = total + term.scale(Fraction(1, factorial(k)))
        raise DomainError("exp_ad requires an ad-nilpotent element")

    def exp_ad_apply(self, x: Element, y: Element) -> Element:
        """exp(ad x) applied to y by the bracket series (x must be ad-nilpotent)."""
        out = y
        term = y
        for k in range(1, self.dim + 2):
            term = self.bracket(x, term).scale(Fraction(1, k))
            if term.is_zero():
                return out
            out = out + term
        raise DomainError("exp_ad_apply requires an ad-nilpotent element")

    def killing_form(self) -> Mat:
        """Killing form matrix kappa_ij = tr(ad b_i ad b_j)."""
        if self._killing is not None:
            return self._killing
        sparse = []
        for i in range(self.dim):
            entries: dict[tuple[int, int], Rat] = {}
            for j in range(self.dim):
                a, b = (i, j) if i < j else (j, i)
                if a == b:
                    continue
                terms = self._table.get((a, b))
                if not terms:
                    continue
                s = 1 if i < j else -1
                for k, c in terms:
                    entries[(k, j)] = entries.get((k, j), Fraction(0)) + s * c
            sparse.append(entries)
        rows = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                s = Fraction(0)
                for (k, col), v in sparse[i].items():
                    w = sparse[j].get((col, k))
                    if w is not None:
                        s += v * w
                row.append(s)
            rows.append(row)
        self._killing = Mat(rows)
        return self._killing

    # -- distinguished subspaces ---------------------------------------------

    def _coord_span(self, idxs: Iterable[int]) -> Subspace:
        return Subspace.from_vectors(
            self.dim,
            [tuple(1 if j == i else 0 for j in range(self.dim)) for i in idxs],
        )

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
        if len(g.num) != self.rank + 1:
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
            n = int(rs.n_constant(a, b))
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
        pivots = _pivot_columns(stack_rows, m * m)
        square = Mat.from_rows([[row[p] for row in stack_rows] for p in pivots], cols=self.dim)
        inv, self._readout_den = _integer_matrix(square.inverse().row_list())
        self._readout = [
            tuple(divmod(p, m) + (v,) for p, v in zip(pivots, row) if v) for row in inv
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

    def _realize_int(self, x: Element) -> tuple[list[list[int]], int]:
        """(Y, D) with realize(x) = Y / D, Y integral, D the lcm of x's denominators."""
        self._require_realization()
        den = lcm(*(c.denominator for c in x.coords if c))
        return self._combine([c.numerator * (den // c.denominator) for c in x.coords]), den

    def realize(self, x: Element) -> Mat:
        """Defining-representation matrix of x (type A only)."""
        rows, den = self._realize_int(x)
        return Mat([[Fraction(v, den) if v else _ZERO for v in row] for row in rows])

    def from_matrix(self, mat: Mat) -> Element:
        """Inverse of realize; raises DomainError off the realized algebra."""
        self._require_realization()
        m = self.rank + 1
        if mat.rows != m or mat.cols != m:
            raise DomainError("matrix has the wrong shape for this algebra")
        return self.from_integer_matrix(*_integer_matrix(mat.row_list()))

    def from_integer_matrix(self, rows: Sequence[Sequence[int]], den: int) -> Element:
        """The element realized by rows / den; raises DomainError off the realized algebra.

        The coordinates are integer combinations of entries of rows over
        den * _readout_den; realizing them back must give rows exactly.
        """
        self._require_realization()
        sden = self._readout_den
        nums = [sum(v * rows[r][c] for r, c, v in terms) for terms in self._readout]
        for back, row in zip(self._combine(nums), rows):
            if back != [sden * x for x in row]:
                raise DomainError("matrix lies outside the realized algebra")
        total = sden * den
        return Element(self, [Fraction(k, total) if k else _ZERO for k in nums])

    # -- group operations ----------------------------------------------------------

    def group_identity(self) -> GroupElement:
        self._require_realization()
        return GroupElement.identity(self.rank + 1)

    def group_exp(self, x: Element) -> GroupElement:
        """exp of a nilpotent element in the defining representation.

        With realize(x) = Y / D and Y^(K+1) = 0, exp(x) = sum_k Y^k / (k! D^k)
        = sum_k (K!/k!) D^(K-k) Y^k / (K! D^K): integer powers of Y over one
        denominator.  x is nilpotent exactly when Y^m = 0.
        """
        y, d = self._realize_int(x)
        m = len(y)
        powers = [_identity_rows(m)]
        power = y
        while any(any(row) for row in power):
            if len(powers) == m:
                raise DomainError("group_exp requires a nilpotent element")
            powers.append(power)
            power = _int_matmul(power, y)
        top = len(powers) - 1
        weights = [factorial(top) // factorial(k) * d ** (top - k) for k in range(top + 1)]
        num = [
            [sum(w * p[i][j] for w, p in zip(weights, powers)) for j in range(m)]
            for i in range(m)
        ]
        return _checked_group(num, factorial(top) * d ** top)

    def torus_element(self, entries: Sequence) -> GroupElement:
        self._require_realization()
        vals = [_as_fraction(v) for v in entries]
        if len(vals) != self.rank + 1:
            raise DomainError("torus element needs rank+1 diagonal entries")
        m = self.rank + 1
        return _checked_group(
            *_integer_matrix([[vals[i] if i == j else _ZERO for j in range(m)] for i in range(m)])
        )

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
            out.append(_checked_group(rows, 1))
        return out


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


def bracket(x: Element, y: Element) -> Element:
    return x.algebra.bracket(x, y)


def ad(x: Element) -> Mat:
    return x.algebra.ad(x)


def centralizer(x: Element) -> Subspace:
    return x.algebra.centralizer(x)


def is_regular(x: Element) -> bool:
    return x.algebra.is_regular(x)


def exp_ad(x: Element) -> Mat:
    return x.algebra.exp_ad(x)


def conjugate(g: GroupElement, y: Element) -> Element:
    """Adjoint action Ad_g(y) = g realize(y) g^-1, in integers over one denominator (type A)."""
    L = y.algebra
    L._require_acting(g)
    rows, den = L._realize_int(y)
    inv = g.inverse()
    return L.from_integer_matrix(
        _int_matmul(_int_matmul(g.num, rows), inv.num), den * g.den * inv.den
    )


ALGEBRA_DESCRIPTORS = tuple(sorted(_CARTAN))
