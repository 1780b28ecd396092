"""Boundary combinatorics of the group compactification at desk scale.

A subset I of the simple-root indices {1..l} picks a standard parabolic
pair (p_I, p_I^-) with shared Levi l_I.  The boundary orbit indexed by I
carries at its basepoint the fiber algebra: pairs in p_I x p_I^- whose
Levi components agree.  A point of the orbit is that subalgebra
translated by a pair (g1, g2) of group elements, and a `BoundaryPoint`
is the triple (I, g1, g2).  A pair (a, b) lies in the point exactly when
its pull-back (Ad_g1^-1 a, Ad_g2^-1 b) lies in the cached basepoint
fiber, so membership is two `conjugate` calls and one free-column test.
The translated subspace itself, the realized fiber, is built only when
it is read: by `==` and `hash`, since two points are equal exactly when
their realized fibers coincide, or by a caller.  All subspaces are kept
in canonical echelon form, so equality is literal.

The torus-fixed points of orbit I are indexed by W / W_I (De Concini-
Procesi, 1983), and no translated fiber is built to find them.  The
diagonal stabilizer of the basepoint inside N(T) is N_{L_I}(T), whose
image in W is W_I, so the translates by (w, w) and (w', w') agree
exactly when w W_I = w' W_I.  h_I, the sum of h_alpha = [e_alpha,
f_alpha] over the roots alpha of u_I, has alpha_j(h_I) = 0 for j in I
and alpha_j(h_I) > 0 off I, so Stab_W(h_I) = W_I and Ad_w h_I names the
coset of w (`weyl_cosets`).  Every Weyl word normalizes the Cartan, as
`weyl_representatives` checks once per algebra, and the Cartan lies in
every l_I, so each coset's point holds the diagonal torus pair with no
test per point: one call is 1 `conjugate` call, for eta.

Simple-root indices are 1-based in every public signature, matching the
orbit tables the command line prints.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .errors import ConstructionError, DomainError
from .exactlin import Mat, Subspace, _identity_rows, kernel, rank
from .liealg import Element, GroupElement, LieAlgebra, conjugate, pair_row

__all__ = [
    "ParabolicData",
    "build_parabolic",
    "fiber_algebra",
    "derived_levi",
    "weyl_cosets",
    "stabilizer_algebra",
    "orbit_dim",
    "closure_contains",
    "OrbitRow",
    "OrbitPoset",
    "build_orbit_poset",
    "BoundaryPoint",
    "make_boundary_point",
    "translate_contains",
    "torus_fixed_fiber_points",
    "all_subsets",
]


def _check_subset(rank: int, I) -> frozenset[int]:
    out = frozenset(I)
    for i in out:
        if not isinstance(i, int) or not (1 <= i <= rank):
            raise DomainError(f"simple-root subset must lie in 1..{rank}, got {sorted(out)}")
    return out


def all_subsets(rank: int) -> list[frozenset[int]]:
    """Every subset of {1..rank}, smallest first, lexicographic within a size."""
    out = []
    for size in range(rank + 1):
        for combo in combinations(range(1, rank + 1), size):
            out.append(frozenset(combo))
    return out


class ParabolicData:
    """The standard parabolic pair attached to a set of simple roots, in closed form.

    p_I is spanned by the Cartan, every positive root space, and the
    negative root spaces whose roots are supported on I.  l_I = p_I cap
    p_I_minus is the Levi, u_I and u_I_minus the nilradicals, z_l_I the
    center of the Levi, and derived_p_I = [p_I, p_I] the complement of
    z_l_I inside p_I used by the leaf projection.

    Every subspace is read off the root system; the consistency checks
    compare coordinate sets, read closure of p_I and p_I_minus, with their
    nilradicals as ideals, off one pass over the structure table, and take
    one rank of at most rank x rank.  The Chevalley basis vectors are root
    vectors and Cartan coordinates, so l_I, u_I, u_I_minus, p_I and
    p_I_minus are spans of basis vectors (`Subspace.coordinate_span`).
    The center of l_I lies in every Cartan subalgebra of l_I, so in the
    Cartan h of g, and h is central exactly when [h, e_alpha] =
    alpha(h) e_alpha vanishes on the Levi roots: z_l_I = {h : alpha_i(h) = 0
    for i in I}, the kernel of the |I| x rank matrix alpha_i(h_j) =
    <alpha_i, alpha_j^vee>, placed at the h coordinates.
    In [p_I, p_I], each root vector e_alpha of p_I is [h, e_alpha] / alpha(h)
    for an h with alpha(h) != 0, and the brackets inside the Cartan are
    [e_alpha, f_alpha] = h_alpha for the Levi roots alpha, which the simple
    coroots h_i = [e_i, f_i], i in I, span; every other bracket of basis
    vectors of p_I is a multiple of a root vector of p_I.  So derived_p_I
    is spanned by every positive root vector, the negative Levi root vectors
    and h_i for i in I.

    It hashes by identity, and `build_parabolic` builds one per pair, so
    the data derived from it (`fiber_algebra`, `derived_levi`,
    `stabilizer_algebra`, `weyl_cosets`) is cached per object.
    """

    __slots__ = (
        "algebra",
        "I",
        "p_I",
        "p_I_minus",
        "l_I",
        "u_I",
        "u_I_minus",
        "z_l_I",
        "derived_p_I",
    )

    def __init__(self, algebra: LieAlgebra, I: frozenset[int]):
        self.algebra = algebra
        self.I = _check_subset(algebra.rank, I)
        n = algebra.dim
        zero_based = {i - 1 for i in self.I}

        levi_idx, u_idx, u_minus_idx = _coordinates(algebra, self.I)
        self.l_I = Subspace.coordinate_span(n, levi_idx)
        self.u_I = Subspace.coordinate_span(n, u_idx)
        self.u_I_minus = Subspace.coordinate_span(n, u_minus_idx)
        self.p_I = Subspace.coordinate_span(n, levi_idx + u_idx)
        self.p_I_minus = Subspace.coordinate_span(n, levi_idx + u_minus_idx)
        if self.p_I.dim != self.l_I.dim + self.u_I.dim:
            raise ConstructionError("parabolic is not the direct sum of Levi and nilradical")
        # coordinate spans meet in the span of their shared coordinates
        plus, minus = set(self.p_I._pivots), set(self.p_I_minus._pivots)
        if plus & minus != set(self.l_I._pivots):
            raise ConstructionError("opposite parabolics do not meet in the Levi")
        # a bracket of basis vectors is a combination of the basis vectors in its
        # table entry, so one pass over the table decides closure for both
        # parabolics, and with it for l_I = p_I cap p_I_minus
        pairs = ((plus, set(u_idx)), (minus, set(u_minus_idx)))
        for (i, j), terms in algebra._table.items():
            for coords, nil in pairs:
                if i in coords and j in coords:
                    inside = nil if i in nil or j in nil else coords
                    for k, _ in terms:
                        if k not in inside:
                            raise ConstructionError(
                                "parabolic is not a subalgebra with its nilradical as an ideal"
                            )

        self.z_l_I = self._levi_center()
        if self.z_l_I.dim != algebra.rank - len(self.I):
            raise ConstructionError("Levi center has the wrong dimension")

        derived_idx = [algebra.idx_e(k) for k in range(algebra.n_pos)]
        derived_idx += [algebra.idx_h(i) for i in sorted(zero_based)]
        derived_idx += [j for j in levi_idx if j > algebra.idx_h(algebra.rank - 1)]
        self.derived_p_I = Subspace.coordinate_span(n, derived_idx)
        # p_I = derived_p_I (+) z_l_I exactly when the coordinates of derived_p_I and
        # the support of z_l_I lie in those of p_I, and z_l_I maps isomorphically
        # onto the coordinates of p_I that derived_p_I misses
        coords, derived = set(self.p_I._pivots), set(self.derived_p_I._pivots)
        rest = sorted(coords - derived)
        z = self.z_l_I.basis.num
        if (
            not derived <= coords
            or any(row[j] for row in z for j in range(n) if j not in coords)
            or len(z) != len(rest)
            or rank(Mat([[row[j] for j in rest] for row in z], 1, len(rest))) != len(rest)
        ):
            raise ConstructionError("derived algebra and Levi center do not split the parabolic")

    def _levi_center(self) -> Subspace:
        """{h in the Cartan : alpha_i(h) = 0 for i in I}, the center of l_I.

        Row i of the system is alpha_i(h_j) = <alpha_i, alpha_j^vee> over the
        simple coroots h_j.  The h coordinates are consecutive, so the RREF
        kernel in Q^rank, padded with zeros, is the RREF of z_l_I in g.
        """
        L = self.algebra
        rs = L.root_system
        system = [
            [rs.pairing(rs.simple_roots[i - 1], j) for j in range(L.rank)] for i in sorted(self.I)
        ]
        centre = kernel(Mat(system, 1, L.rank)).basis
        before, after = (0,) * L.idx_h(0), (0,) * (L.dim - L.idx_h(L.rank - 1) - 1)
        rows = [before + row + after for row in centre.num]
        return Subspace(L.dim, Mat(rows, centre.den, L.dim), _canonical=True)

    def __repr__(self) -> str:
        return f"ParabolicData({self.algebra.descriptor}, I={sorted(self.I)})"


def _coordinates(algebra: LieAlgebra, I: frozenset[int]) -> tuple[list[int], list[int], list[int]]:
    """The basis indices of l_I, u_I and u_I_minus; the Levi roots are those supported on I."""
    zero_based = {i - 1 for i in I}
    levi_idx = [algebra.idx_h(i) for i in range(algebra.rank)]
    u_idx, u_minus_idx, levi_f = [], [], []
    for k, alpha in enumerate(algebra.root_system.positive_roots):
        if all(m == 0 for j, m in enumerate(alpha) if j not in zero_based):
            levi_idx.append(algebra.idx_e(k))
            levi_f.append(algebra.idx_f(k))
        else:
            u_idx.append(algebra.idx_e(k))
            u_minus_idx.append(algebra.idx_f(k))
    return levi_idx + levi_f, u_idx, u_minus_idx


@cache
def _build_parabolic_cached(algebra: LieAlgebra, I: frozenset[int]) -> ParabolicData:
    return ParabolicData(algebra, I)


def build_parabolic(algebra: LieAlgebra, I) -> ParabolicData:
    """Parabolic data for the subset I of {1..rank}, built once per pair."""
    return _build_parabolic_cached(algebra, _check_subset(algebra.rank, I))


@cache
def fiber_algebra(p: ParabolicData) -> Subspace:
    """Pairs (u + x, v + x) with u in u_I, v in u_I_minus, x in l_I.

    A subalgebra of g x g of dimension dim g: the fiber of the boundary
    family at the basepoint of orbit I.  Its own RREF over the denominator
    1 is (e_j, 0), j in u_I, and (e_j, e_j), j in l_I, sorted by j, then
    (0, e_j), j in u_I_minus.
    """
    n = p.algebra.dim
    eye, zero = _identity_rows(n), (0,) * n
    levi = set(p.l_I._pivots)
    rows = [eye[j] + (eye[j] if j in levi else zero) for j in p.p_I._pivots]
    rows += [zero + eye[j] for j in p.u_I_minus._pivots]
    fiber = Subspace(2 * n, Mat(rows, 1, 2 * n), _canonical=True)
    if fiber.dim != n:
        raise ConstructionError("fiber algebra has the wrong dimension")
    return fiber


@cache
def derived_levi(p: ParabolicData) -> Subspace:
    """derived_p_I cap l_I: the semisimple part of the Levi.

    Two coordinate spans meet in their shared coordinates: e_alpha and
    f_alpha for the Levi roots alpha, and h_i for i in I.
    """
    shared = set(p.derived_p_I._pivots) & set(p.l_I._pivots)
    levi = Subspace.coordinate_span(p.algebra.dim, shared)
    if levi.dim != p.l_I.dim - p.z_l_I.dim:
        raise ConstructionError("semisimple part of the Levi has the wrong dimension")
    return levi


def levi_part(p: ParabolicData, xi: Element) -> Element:
    """The Levi component of an element of p_I: its u_I coordinates set to zero."""
    p.algebra._check_same(xi.algebra)
    if not p.p_I.contains(xi.num):
        raise DomainError("Levi part needs a point of the parabolic")
    num = list(xi.num)
    for j in p.u_I._pivots:
        num[j] = 0
    return Element(xi.algebra, num, xi.den)


@cache
def stabilizer_algebra(p: ParabolicData) -> Subspace:
    """Pairs (u + x, v + y) with x - y central in the Levi.

    Contains the fiber algebra with codimension rank - |I| = dim z(l_I):
    the central shifts (z, 0).  z(l_I) lies in the Cartan, inside l_I, so
    over the denominator d of its RREF rows z_i the RREF is (0, z_i) and
    every fiber row times d, where the row (e_k, e_k) at the pivot k of
    z_i is reduced to (d e_k, d e_k - z_i).
    """
    n = p.algebra.dim
    fiber, centre = fiber_algebra(p), p.z_l_I
    d = centre.basis.den
    shifts = dict(zip(centre._pivots, centre.basis.num))
    rows = {n + k: (0,) * n + z for k, z in shifts.items()}
    for k, row in zip(fiber._pivots, fiber.basis.num):
        rows[k] = [d * x for x in row]
        if k in shifts:
            rows[k][n:] = [x - y for x, y in zip(rows[k][n:], shifts[k])]
    stab = Subspace(2 * n, Mat([rows[k] for k in sorted(rows)], d, 2 * n), _canonical=True)
    if stab.dim != n + p.algebra.rank - len(p.I):
        raise ConstructionError("stabilizer algebra has the wrong dimension")
    return stab


def orbit_dim(p: ParabolicData) -> int:
    """2 codim(p_I) + dim of the semisimple part of the Levi."""
    n = p.algebra.dim
    return 2 * (n - p.p_I.dim) + (p.l_I.dim - p.z_l_I.dim)


def closure_contains(I, J) -> bool:
    """Does the closure of the orbit at I contain the orbit at J?"""
    return frozenset(J) <= frozenset(I)


class OrbitRow:
    __slots__ = ("I", "dim", "stabilizer_dim", "is_divisor")

    def __init__(self, I: frozenset[int], dim: int, stabilizer_dim: int, is_divisor: bool):
        self.I = I
        self.dim = dim
        self.stabilizer_dim = stabilizer_dim
        self.is_divisor = is_divisor

    def __repr__(self) -> str:
        return f"OrbitRow(I={sorted(self.I)}, dim={self.dim})"


class OrbitPoset:
    """All 2^rank orbits with dimensions and the closure order."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        l = algebra.rank
        self.rows = []
        for I in all_subsets(l):
            p = build_parabolic(algebra, I)
            self.rows.append(
                OrbitRow(I, orbit_dim(p), stabilizer_algebra(p).dim, len(I) == l - 1)
            )
        full = frozenset(range(1, l + 1))
        if self.row(full).dim != algebra.dim:
            raise ConstructionError("open orbit does not have the dimension of the group")
        if sum(1 for r in self.rows if r.is_divisor) != l:
            raise ConstructionError("boundary divisor count is not the rank")

    def row(self, I) -> OrbitRow:
        key = frozenset(I)
        for r in self.rows:
            if r.I == key:
                return r
        raise DomainError(f"no orbit indexed by {sorted(key)}")

    def divisor_components(self) -> list[OrbitRow]:
        return [r for r in self.rows if r.is_divisor]


@cache
def build_orbit_poset(algebra: LieAlgebra) -> OrbitPoset:
    return OrbitPoset(algebra)


class BoundaryPoint:
    """A point of the orbit at I: the basepoint fiber algebra translated by (g1, g2).

    Points are equal when their realized fibers are, and a caller that
    holds the realized fiber already may pass it in.
    """

    __slots__ = ("algebra", "I", "g1", "g2", "_fiber")

    def __init__(
        self,
        algebra: LieAlgebra,
        I: frozenset[int],
        g1: GroupElement,
        g2: GroupElement,
        realized_fiber: Subspace | None = None,
    ):
        self.algebra = algebra
        self.I = I
        self.g1 = g1
        self.g2 = g2
        self._fiber = realized_fiber

    @property
    def realized_fiber(self) -> Subspace:
        """The basepoint fiber translated by (Ad_g1, Ad_g2), built on first read.

        Each half of a fiber row is b_j or zero, so the translated rows are
        (Ad_g1 b_j, 0) for j in u_I, (Ad_g1 b_j, Ad_g2 b_j) for j in l_I and
        (0, Ad_g2 b_j) for j in u_I_minus.
        """
        if self._fiber is None:
            L, g1, g2 = self.algebra, self.g1, self.g2
            p = build_parabolic(L, self.I)
            zero, levi = (0,) * L.dim, set(p.l_I._pivots)
            rows = []
            for j in p.p_I._pivots:
                b = L.basis_element(j)
                x = conjugate(g1, b)
                rows.append(pair_row(x, conjugate(g2, b)) if j in levi else x.num + zero)
            rows += [zero + conjugate(g2, L.basis_element(j)).num for j in p.u_I_minus._pivots]
            realized = Subspace(2 * L.dim, rows)
            if realized.dim != L.dim:
                raise ConstructionError("translated fiber lost dimension")
            self._fiber = realized
        return self._fiber

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundaryPoint):
            return NotImplemented
        return self.realized_fiber == other.realized_fiber

    def __hash__(self) -> int:
        return hash(self.realized_fiber)

    def __repr__(self) -> str:
        return f"BoundaryPoint({self.algebra.descriptor}, I={sorted(self.I)})"


def make_boundary_point(p: ParabolicData, g1: GroupElement, g2: GroupElement) -> BoundaryPoint:
    """The basepoint fiber of orbit I translated by (g1, g2); nothing is built."""
    return BoundaryPoint(p.algebra, p.I, g1, g2)


@cache
def weyl_cosets(p: ParabolicData) -> tuple[GroupElement, ...]:
    """One Weyl representative per coset in W / W_I: |W / W_I| group elements.

    The first w, in the order of `weyl_representatives`, for each distinct
    Ad_w h_I, h_I the sum of [e_alpha, f_alpha] over the roots of u_I,
    whose stabilizer in W is W_I.  Built once per I.
    """
    L = p.algebra
    h_I = L.zero()
    for e, f in zip(p.u_I._pivots, p.u_I_minus._pivots):
        h_I = h_I + L.bracket(L.basis_element(e), L.basis_element(f))
    first: dict[Element, GroupElement] = {}
    for w in L.weyl_representatives():
        first.setdefault(conjugate(w, h_I), w)
    return tuple(first.values())


def translate_contains(point: BoundaryPoint, pair: tuple[Element, Element]) -> bool:
    """Is (a, b) inside the point?  Exactly when (Ad_g1^-1 a, Ad_g2^-1 b) is in `fiber_algebra`."""
    xi1, xi2 = pair
    L = point.algebra
    L._check_same(xi1.algebra)
    L._check_same(xi2.algebra)
    back = pair_row(conjugate(point.g1.inverse(), xi1), conjugate(point.g2.inverse(), xi2))
    return fiber_algebra(build_parabolic(L, point.I)).contains(back)


def torus_fixed_fiber_points(xi: Element, diagonalizer: GroupElement) -> list[BoundaryPoint]:
    """Boundary points fixed by the maximal torus through xi.

    xi must be regular and carried into the Cartan subalgebra by the
    inverse of `diagonalizer` d.  A point of orbit I translated by
    (d w1, d w2) contains (xi, xi) exactly when the basepoint fiber
    contains (Ad(w1^-1) eta, Ad(w2^-1) eta), eta = Ad(d^-1) xi.  Both
    entries lie in the Cartan, so their u_I and u_I_minus parts vanish
    and their Levi parts must agree; eta is regular, so w1 = w2.  Only
    the diagonal translates (d w, d w) remain, over every boundary orbit
    index (proper subsets of {1..rank}).  Ad_(d w) = Ad_d Ad_w, and
    Ad_d (+) Ad_d is a linear bijection of g x g, so two translates by
    (d w, d w) agree exactly when the translates by (w, w) do, that is
    when w and w' differ by the diagonal stabilizer N_{L_I}(T) of the
    basepoint: the points are the cosets W / W_I of `weyl_cosets`
    (Stab_W(h_I) = W_I), with witness (d w, d w), or the cached word w
    itself when d = 1.  Each contains (xi, xi) with no test per point:
    `weyl_representatives` checked once that every word normalizes the
    Cartan, so Ad(w^-1) eta lies in the Cartan, which every l_I and so
    every basepoint fiber's diagonal holds.  A call checks eta, makes one
    `conjugate` call and one product d w per Weyl word, and no point
    holds its realized fiber.
    """
    L = xi.algebra
    eta = conjugate(diagonalizer.inverse(), xi)
    if not L.cartan.contains(eta.num):
        raise DomainError("diagonalizer does not carry the element into the Cartan")
    if not L.is_regular(eta):
        raise DomainError("torus-fixed point search needs a regular semisimple element")
    words = L.weyl_representatives()
    moved = diagonalizer != words[0]  # the identity is the first word
    # witnesses keyed by id (a GroupElement hashes its whole matrix); orbit I = {}
    # keeps every w, so all are read
    witness = {id(w): diagonalizer * w if moved else w for w in words}
    found: list[BoundaryPoint] = []
    for I in all_subsets(L.rank):
        if len(I) == L.rank:
            continue
        p = build_parabolic(L, I)
        for w in weyl_cosets(p):
            g = witness[id(w)]
            found.append(BoundaryPoint(L, p.I, g, g))
    return found
