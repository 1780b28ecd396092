"""Log-symplectic chart model, Poisson bivector, and leaf classification.

The chart attached to a pole set I of simple-root indices carries 2n
coordinates in the fixed order

    x+_1..x+_m, x-_1..x-_m, z_1..z_l, a+_1..a+_m, a-_1..a-_m, s_1..s_l

with m the number of positive roots, so 2m + l = n.  The two-form pairs
each x with its momentum a, and z_i with s_i at weight 1 off the pole
set and 1/z_i on it.  Its inverse bivector is polynomial in z, hence
defined across the divisor z_i = 0, where the rank drops by two per
vanishing coordinate and the s_i become Casimirs.

The leaf data lives on the fiber algebras of the boundary orbits: the
label of a point is the central Levi component of its first entry, and
two points sit on the same leaf exactly when the labels agree.

The level-set operations at the bottom support the reduction story: the
unipotent normalization of both members of a centralizer pair produces
an exact centralizer element over the slice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .errors import ConstructionError, DomainError, PoleError
from .exactlin import Mat, Projector, Rat, rank, vec
from .kostant import slice_for, slice_normalize, witness_group_element
from .liealg import Element, GroupElement, LieAlgebra, conjugate, pair_row
from .rng import SplitMix64, stream
from .wonderful import ParabolicData, fiber_algebra

__all__ = [
    "Chart",
    "ChartPoint",
    "Bivector",
    "build_chart",
    "omega_matrix",
    "bivector_matrix",
    "stratum_rank",
    "casimir_check",
    "leaf_label",
    "leaf_sigma_values",
    "same_leaf",
    "level_set_contains",
    "nxn_freeness",
    "level_set_normalize",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Chart:
    """Coordinate model of the neighborhood attached to a pole set I."""

    __slots__ = ("algebra", "I", "m", "labels")

    def __init__(self, algebra: LieAlgebra, I: frozenset[int]):
        self.algebra = algebra
        self.I = frozenset(I)
        for i in self.I:
            if not (1 <= i <= algebra.rank):
                raise DomainError(f"pole set must lie in 1..{algebra.rank}")
        self.m = algebra.n_pos
        l = algebra.rank
        if 2 * self.m + l != algebra.dim:
            raise ConstructionError("coordinate count does not match the algebra dimension")
        names = [f"x+{j}" for j in range(1, self.m + 1)]
        names += [f"x-{j}" for j in range(1, self.m + 1)]
        names += [f"z{i}" for i in range(1, l + 1)]
        names += [f"a+{j}" for j in range(1, self.m + 1)]
        names += [f"a-{j}" for j in range(1, self.m + 1)]
        names += [f"s{i}" for i in range(1, l + 1)]
        self.labels = tuple(names)

    @property
    def size(self) -> int:
        return 2 * self.algebra.dim

    def z_index(self, i: int) -> int:
        if not (1 <= i <= self.algebra.rank):
            raise DomainError("z index out of range")
        return 2 * self.m + (i - 1)

    def sigma_index(self, i: int) -> int:
        if not (1 <= i <= self.algebra.rank):
            raise DomainError("sigma index out of range")
        return 4 * self.m + self.algebra.rank + (i - 1)

    def point(self, values) -> "ChartPoint":
        return ChartPoint(self, values)

    def basepoint(self) -> "ChartPoint":
        """All coordinates zero except z_i = 1 off the pole set."""
        vals = [_ZERO] * self.size
        for i in range(1, self.algebra.rank + 1):
            if i not in self.I:
                vals[self.z_index(i)] = _ONE
        return ChartPoint(self, vals)

    def __repr__(self) -> str:
        return f"Chart({self.algebra.descriptor}, I={sorted(self.I)})"


@lru_cache(maxsize=None)
def _build_chart_cached(algebra: LieAlgebra, I: frozenset[int]) -> Chart:
    return Chart(algebra, I)


def build_chart(algebra: LieAlgebra, I) -> Chart:
    return _build_chart_cached(algebra, frozenset(I))


class ChartPoint:
    __slots__ = ("chart", "values")

    def __init__(self, chart: Chart, values):
        self.chart = chart
        self.values = vec(values)
        if len(self.values) != chart.size:
            raise DomainError(
                f"chart point needs {chart.size} coordinates, got {len(self.values)}"
            )

    def z(self, i: int) -> Rat:
        return self.values[self.chart.z_index(i)]

    def __repr__(self) -> str:
        return f"ChartPoint({self.chart!r})"


def _pairing_matrix(chart: Chart, weights: list[Rat], sign: int) -> Mat:
    """The antisymmetric matrix with sign at (x, a) and sign * weights[i-1] at (z_i, s_i).

    Written as integer rows over the lcm of the weights' denominators.
    """
    m, l = chart.m, chart.algebra.rank
    size = chart.size
    den = lcm(*[w.denominator for w in weights])
    rows = [[0] * size for _ in range(size)]
    for j in range(2 * m):
        x, a = j, 2 * m + l + j
        rows[x][a] = sign * den
        rows[a][x] = -sign * den
    for i, w in enumerate(weights, 1):
        zi, si = chart.z_index(i), chart.sigma_index(i)
        c = sign * w.numerator * (den // w.denominator)
        rows[zi][si] = c
        rows[si][zi] = -c
    return Mat(rows, den, size)


def omega_matrix(point: ChartPoint) -> Mat:
    """The log two-form at the point, as an exact antisymmetric matrix.

    z_i pairs with s_i at weight 1/z_i on the pole set and 1 off it.
    Raises a pole error on the divisor, where only the bivector exists.
    """
    chart = point.chart
    weights = []
    for i in range(1, chart.algebra.rank + 1):
        if i in chart.I:
            if point.z(i) == 0:
                raise PoleError(f"two-form has a pole at z{i} = 0")
            weights.append(_ONE / point.z(i))
        else:
            weights.append(_ONE)
    return _pairing_matrix(chart, weights, 1)


class Bivector:
    """The inverse structure of the two-form, polynomial across the divisor."""

    __slots__ = ("point", "matrix")

    def __init__(self, point: ChartPoint, matrix: Mat):
        m = matrix.num
        if matrix.cols != matrix.rows or list(zip(*m)) != [tuple([-x for x in row]) for row in m]:
            raise ConstructionError("bivector matrix must be antisymmetric")
        self.point = point
        self.matrix = matrix

    def rank(self) -> int:
        return rank(self.matrix)

    def __repr__(self) -> str:
        return f"Bivector({self.point.chart!r}, rank={self.rank()})"


def bivector_matrix(point: ChartPoint) -> Bivector:
    """Entries are 0, +-1, or +-z_i; inverse to the two-form off the divisor."""
    chart = point.chart
    weights = [point.z(i) if i in chart.I else _ONE for i in range(1, chart.algebra.rank + 1)]
    return Bivector(point, _pairing_matrix(chart, weights, -1))


def _check_stratum(chart: Chart, S) -> frozenset[int]:
    out = frozenset(S)
    if not out <= chart.I:
        raise DomainError(
            f"vanishing set {sorted(out)} must lie inside the pole set {sorted(chart.I)}"
        )
    return out


def stratum_rank(chart: Chart, S) -> int:
    """Bivector rank on the stratum where exactly the z_i, i in S vanish."""
    S = _check_stratum(chart, S)
    vals = [_ZERO] * chart.size
    for i in range(1, chart.algebra.rank + 1):
        vals[chart.z_index(i)] = _ZERO if i in S else _ONE
    return bivector_matrix(chart.point(vals)).rank()


def _stratum_sample(chart: Chart, S: frozenset[int], gen: SplitMix64) -> ChartPoint:
    vals = [gen.fraction() for _ in range(chart.size)]
    for i in range(1, chart.algebra.rank + 1):
        if i in S:
            vals[chart.z_index(i)] = _ZERO
        elif i in chart.I:
            vals[chart.z_index(i)] = gen.nonzero_fraction()
    return chart.point(vals)


def casimir_check(chart: Chart, S, seed: int = 0, samples: int = 5) -> bool:
    """Do the s_i, i in S, Poisson-commute with every coordinate on the stratum?

    Checked by exact contraction: the s_i rows of the bivector must vanish
    at seeded sample points with z_i = 0 exactly on S.
    """
    S = _check_stratum(chart, S)
    gen = stream(seed, f"casimir:{chart.algebra.descriptor}:{sorted(chart.I)}:{sorted(S)}")
    for _ in range(samples):
        pi = bivector_matrix(_stratum_sample(chart, S, gen)).matrix.num
        if any(any(pi[chart.sigma_index(i)]) for i in S):
            return False
    return True


def _leaf_projector(p: ParabolicData) -> Projector:
    if p._leaf_projector is None:
        p._leaf_projector = Projector(p.z_l_I, p.derived_p_I.sum(p.u_I_minus))
    return p._leaf_projector


def _central_part(p: ParabolicData, xi1: Element, refusal: str) -> tuple[list[int], int]:
    """The z(l_I) component of xi1, projected along [p_I, p_I] + u_I^-.

    Returned as integers over one denominator: the leaf projector's integer
    rows times xi1.num, over the projector's denominator times xi1.den.
    """
    p.algebra._check_same(xi1.algebra)
    if not p.p_I.contains(xi1.num):
        raise DomainError(refusal)
    proj = _leaf_projector(p).matrix
    x = xi1.num
    return [sum(map(mul, row, x)) for row in proj.num], proj.den * xi1.den


def leaf_label(p: ParabolicData, xi1: Element) -> tuple[Rat, ...]:
    """Central Levi component of xi1, in the echelon basis of z(l_I).

    The projection is along [p_I, p_I], so the label kills the derived
    algebra and has one coordinate per simple root outside I.
    """
    return p.z_l_I.coefficients(
        *_central_part(p, xi1, "leaf label needs a point of the parabolic")
    )


def leaf_sigma_values(p: ParabolicData, xi1: Element) -> tuple[Rat, ...]:
    """The label read through the simple-root functionals off I.

    The central component is a Cartan element t; its coordinates in the
    chart picture are the values alpha_i(t) for the simple roots i not
    in I, listed in increasing i.  Together with leaf_label this ties
    the leaf predicate to the chart's Casimir coordinates.
    """
    central, den = _central_part(p, xi1, "sigma values need a point of the parabolic")
    L = p.algebra
    rs = L.root_system
    h_coeffs = [central[L.idx_h(k)] for k in range(L.rank)]
    out = []
    for i in range(1, L.rank + 1):
        if i in p.I:
            continue
        alpha = rs.simple_roots[i - 1]
        out.append(Fraction(sum(c * rs.pairing(alpha, k) for k, c in enumerate(h_coeffs)), den))
    return tuple(out)


def same_leaf(
    p: ParabolicData,
    pair1: tuple[Element, Element],
    pair2: tuple[Element, Element],
) -> bool:
    """Do two points of the fiber algebra of I lie on the same leaf?

    Label comparison happens on the first components only; the fiber
    constraint makes the second components carry the same central part.
    """
    fiber = fiber_algebra(p)
    n = p.algebra.dim
    for xi1, xi2 in (pair1, pair2):
        p.algebra._check_same(xi1.algebra)
        p.algebra._check_same(xi2.algebra)
        if not fiber.contains(pair_row(xi1, xi2)):
            raise DomainError("same_leaf needs points of the fiber algebra")
    return leaf_label(p, pair1[0]) == leaf_label(p, pair2[0])


def level_set_contains(xi1: Element, xi2: Element) -> bool:
    """Are both entries in f + b, for the principal nilnegative f?"""
    L = xi1.algebra
    L._check_same(xi2.algebra)
    f = slice_for(L).triple.f
    return L.borel.contains((xi1 - f).num) and L.borel.contains((xi2 - f).num)


def nxn_freeness(xi1: Element, xi2: Element) -> bool:
    """Does n meet both centralizers trivially?

    The Lie-algebra shadow of the free unipotent action on the level set.
    """
    L = xi1.algebra
    L._check_same(xi2.algebra)
    # ad xi is injective on n exactly when n meets g^xi trivially
    nil = L.nilpos.basis.transpose()
    return all(rank(L.ad(xi) * nil) == nil.cols for xi in (xi1, xi2))


def level_set_normalize(g: GroupElement, xi: Element) -> tuple[GroupElement, Element]:
    """Push a centralizer-datum (g, xi) over f + b down to the slice.

    Both xi and Ad_g xi must lie in f + b.  Normalizing each gives
    unipotent witnesses nu2 (for xi) and nu1 (for Ad_g xi) into the
    common slice point xi_S, and g_S = nu1 g nu2^-1 then fixes xi_S.
    The assignment is constant on orbits of the unipotent pair action,
    so it inverts the reduction isomorphism exactly.
    """
    L = xi.algebra
    kslice = slice_for(L)
    f = kslice.triple.f
    if not L.borel.contains((xi - f).num):
        raise DomainError("level-set normalization needs xi in f + b")
    gxi = conjugate(g, xi)
    if not L.borel.contains((gxi - f).num):
        raise DomainError("level-set normalization needs Ad_g xi in f + b")
    w2, xi_s = slice_normalize(kslice, xi)
    w1, xi_s_check = slice_normalize(kslice, gxi)
    if xi_s != xi_s_check:
        raise ConstructionError("the two normalizations disagree on the slice point")
    nu1 = witness_group_element(L, w1)
    nu2 = witness_group_element(L, w2)
    g_s = nu1 * (g * nu2.inverse())
    if conjugate(g_s, xi_s) != xi_s:
        raise ConstructionError("reduced group element fails to fix the slice point")
    return g_s, xi_s
