"""Seeded verification suites behind the command-line harness.

Each suite function takes an algebra, a master seed, and a sample count,
and returns a report of named checks with pass counts.  All sampling is
drawn from per-check SplitMix64 streams derived from the master seed, so
a report is a pure function of (algebra, seed, samples).

Every suite runs every check on every catalogue algebra: the group
elements act through each algebra's matrix realization, the invariants
are its char-poly coefficients of the algebra's degrees, the expected
count of torus-fixed boundary points is read off the Weyl group, and one
construction gives every type a nontrivial reduction centralizer witness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from typing import NamedTuple

from .exactlin import Mat, Subspace, _int_matmul, _trace_mul, kernel
from .kostant import (
    build_principal_triple,
    in_fiber_product,
    invariants_eval,
    jacobian_rank_at,
    root_degrees,
    slice_for,
    slice_from_invariants,
    slice_normalize,
)
from .liealg import Element, GroupElement, LieAlgebra, conjugate, pair_row, regular_cartan
from .logsympl import (
    _stratum_sample,
    bivector_matrix,
    build_chart,
    casimir_check,
    leaf_label,
    leaf_sigma_values,
    level_set_contains,
    level_set_normalize,
    nxn_freeness,
    omega_matrix,
    same_leaf,
    stratum_rank,
)
from .errors import PoleError
from .rng import SplitMix64, stream
from .wonderful import (
    ParabolicData,
    all_subsets,
    build_orbit_poset,
    build_parabolic,
    closure_contains,
    derived_levi,
    fiber_algebra,
    levi_part,
    make_boundary_point,
    orbit_dim,
    stabilizer_algebra,
    torus_fixed_fiber_points,
    translate_contains,
)

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITE_NAMES",
    "run_suite",
    "run_suites",
    "borel_sample",
    "group_sample",
    "positive_unipotent",
    "negative_unipotent",
    "fiber_sample",
]


@cache
def _torus_fixed_count(L: LieAlgebra) -> int:
    """Count of torus-fixed boundary points: |W / W_I| over proper I (De Concini-Procesi, 1983)."""
    order = L.root_system.weyl_order
    return sum(order(range(L.rank)) // order([i - 1 for i in I]) for I in all_subsets(L.rank)[:-1])


# plain classes rather than dataclasses: `dataclasses` imports `inspect`, about 1 MB resident
class CheckResult(NamedTuple):
    name: str
    passed: int
    total: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.passed == self.total


class SuiteReport:
    __slots__ = ("name", "algebra", "checks")

    def __init__(self, name: str, algebra: str):
        self.name = name
        self.algebra = algebra
        self.checks: list[CheckResult] = []

    @property
    def passed(self) -> int:
        return sum(c.passed for c in self.checks)

    @property
    def total(self) -> int:
        return sum(c.total for c in self.checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, passed: int, total: int, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, total, detail))


# -- seeded samplers ---------------------------------------------------------


def _random_combination(
    L: LieAlgebra, space: Subspace, gen: SplitMix64
) -> tuple[tuple[Fraction, ...], Element]:
    """(c, sum_i c_i b_i) over the RREF rows b_i of space, one gen.fraction() c_i each, in order.

    With c_i = p_i / q_i and b_i = N_i / D the sum is the integer row
    sum_i p_i (q / q_i) N_i over q D, q the lcm of the q_i: one `_int_matmul`.
    """
    coeffs = tuple([gen.fraction() for _ in range(space.dim)])
    q = lcm(*[c.denominator for c in coeffs])
    ks = [c.numerator * (q // c.denominator) for c in coeffs]
    total = _int_matmul([ks], space.basis.num, L.dim)[0]
    return coeffs, Element(L, total, q * space.basis.den)


def _add_random_multiples(x: Element, space: Subspace, gen: SplitMix64) -> Element:
    """x + sum of c * row over the basis rows of space, one gen.fraction() c drawn per row, in order."""
    return x + _random_combination(x.algebra, space, gen)[1]


def borel_sample(L: LieAlgebra, gen: SplitMix64) -> Element:
    """A point of f + b with small random rational coordinates."""
    return _add_random_multiples(build_principal_triple(L).f, L.borel, gen)


def _unipotent(L: LieAlgebra, gen: SplitMix64, root_index) -> GroupElement:
    """The product of exp(c_k b_k) over the roots k in order, one gen.fraction(3) c_k each."""
    return L.root_product([(root_index(k), gen.fraction(num_bound=3)) for k in range(L.n_pos)])


def positive_unipotent(L: LieAlgebra, gen: SplitMix64) -> GroupElement:
    return _unipotent(L, gen, L.idx_e)


def negative_unipotent(L: LieAlgebra, gen: SplitMix64) -> GroupElement:
    return _unipotent(L, gen, L.idx_f)


def group_sample(L: LieAlgebra, gen: SplitMix64) -> GroupElement:
    """Unipotent * torus * opposite unipotent, the torus at t_i = d_1 ... d_i for seeded d_i."""
    ts, t = [], Fraction(1)
    for _ in range(L.rank):
        t *= gen.nonzero_fraction(num_bound=3)
        ts.append(t)
    return positive_unipotent(L, gen) * (L.torus_element(ts) * negative_unipotent(L, gen))


def fiber_sample(
    p: ParabolicData, gen: SplitMix64
) -> tuple[Element, Element, tuple]:
    """A sample (xi1, xi2) of the fiber algebra with its central coordinates.

    The Levi part is drawn as central + derived pieces separately, so the
    central coordinates are known by construction and can serve as an
    independent oracle for the leaf label.
    """
    L = p.algebra
    central_coeffs, central = _random_combination(L, p.z_l_I, gen)
    x = _add_random_multiples(central, derived_levi(p), gen)
    u = _random_combination(L, p.u_I, gen)[1]
    v = _random_combination(L, p.u_I_minus, gen)[1]
    return u + x, v + x, central_coeffs


# -- kostant -----------------------------------------------------------------


def run_kostant_suite(L: LieAlgebra, seed: int, samples: int) -> SuiteReport:
    report = SuiteReport("kostant", L.descriptor)
    t = build_principal_triple(L)
    ks = slice_for(L)

    good = 0
    if L.bracket(t.e, t.f) == t.h:
        good += 1
    if L.bracket(t.h, t.e) == t.e.scale(2):
        good += 1
    if L.bracket(t.h, t.f) == t.f.scale(-2):
        good += 1
    report.add("sl2 relations", good, 3, "[e,f]=h, [h,e]=2e, [h,f]=-2f")

    report.add(
        "centralizer dimension",
        1 if ks.ge_basis.dim == L.rank else 0,
        1,
        f"dim g^e = {ks.ge_basis.dim}, expected {L.rank}",
    )
    expected = root_degrees(L)
    report.add(
        "slice degrees",
        1 if ks.degrees == expected else 0,
        1,
        f"got {ks.degrees}, expected {expected}",
    )

    gen = stream(seed, f"kostant:normalize:{L.descriptor}")
    levels = len(ks._levels)
    good = 0
    for _ in range(samples):
        xi = borel_sample(L, gen)
        w, x = slice_normalize(ks, xi)
        w2, x2 = slice_normalize(ks, x)
        ws, xs = slice_normalize(ks, xi, stepwise=True)
        if ks.contains(x) and len(w) <= levels and x2 == x and not w2 and xs == x:
            good += 1
    report.add(
        "normalization sweep",
        good,
        samples,
        f"{samples} seeded points of f+b: lands on slice, bounded witness, "
        "idempotent, stepwise-independent",
    )

    gen = stream(seed, f"kostant:invariants:{L.descriptor}")
    good = 0
    for _ in range(samples):
        xi = borel_sample(L, gen)
        _, x = slice_normalize(ks, xi)
        if invariants_eval(xi) == invariants_eval(x):
            good += 1
    report.add("invariant preservation", good, samples, "normalization fixes invariants_eval")

    gen = stream(seed, f"kostant:section:{L.descriptor}")
    good = 0
    for _ in range(samples):
        values = tuple(gen.fraction() for _ in range(L.rank))
        x = slice_from_invariants(ks, values)
        forward = invariants_eval(x) == values and ks.contains(x)
        y = _add_random_multiples(ks.triple.f, ks.ge_basis, gen)
        back = slice_from_invariants(ks, invariants_eval(y)) == y
        if forward and back:
            good += 1
    report.add("slice roundtrip", good, samples, "invariants o section = id, both directions")

    gen = stream(seed, f"kostant:jacobian:{L.descriptor}")
    pairs = max(1, samples // 2)
    good = 0
    for _ in range(pairs):
        x = borel_sample(L, gen)
        g = group_sample(L, gen)
        if jacobian_rank_at(x, conjugate(g, x)) == L.rank:
            good += 1
    origin_ok = jacobian_rank_at(L.zero(), L.zero()) == 0
    report.add(
        "jacobian rank",
        good + (1 if origin_ok else 0),
        pairs + 1,
        f"rank {L.rank} at {pairs} regular pairs (x, Ad_g x); rank 0 at the origin pair",
    )
    return report


# -- moment ------------------------------------------------------------------


def run_moment_suite(L: LieAlgebra, seed: int, samples: int) -> SuiteReport:
    report = SuiteReport("moment", L.descriptor)
    subsets = all_subsets(L.rank)
    gen = stream(seed, f"moment:forward:{L.descriptor}")
    good = 0
    for k in range(samples):
        p = build_parabolic(L, subsets[k % len(subsets)])
        xi1, xi2, _ = fiber_sample(p, gen)
        g1, g2 = group_sample(L, gen), group_sample(L, gen)
        if in_fiber_product(conjugate(g1, xi1), conjugate(g2, xi2)):
            good += 1
    report.add(
        "forward inclusion",
        good,
        samples,
        "translated fiber-algebra pairs share exact invariants",
    )

    gen = stream(seed, f"moment:triangular:{L.descriptor}")
    good = 0
    for k in range(samples):
        p = build_parabolic(L, subsets[k % len(subsets)])
        xi1, _, _ = fiber_sample(p, gen)
        x = levi_part(p, xi1)
        if invariants_eval(xi1) == invariants_eval(x):
            good += 1
    report.add(
        "triangular shadow",
        good,
        samples,
        "invariants ignore the nilradical part of a parabolic element",
    )

    gen = stream(seed, f"moment:converse:{L.descriptor}")
    p0 = build_parabolic(L, ())
    good = 0
    for _ in range(samples):
        s = regular_cartan(L, gen)
        npart = _random_combination(L, L.nilpos, gen)[1]
        mpart = _random_combination(L, L.nilneg, gen)[1]
        g1, g2 = group_sample(L, gen), group_sample(L, gen)
        point = make_boundary_point(p0, g1, g2)
        if translate_contains(point, (conjugate(g1, s + npart), conjugate(g2, s + mpart))):
            good += 1
    report.add(
        "split-pair converse",
        good,
        samples,
        "pairs triangular over a shared regular diagonal land in the closed-orbit translate",
    )

    gen = stream(seed, f"moment:interior:{L.descriptor}")
    pfull = build_parabolic(L, range(1, L.rank + 1))
    good = 0
    for _ in range(samples):
        g = group_sample(L, gen)
        xi = L.element(tuple(gen.fraction() for _ in range(L.dim)))
        point = make_boundary_point(pfull, g, L.group_identity())
        if translate_contains(point, (conjugate(g, xi), xi)):
            good += 1
    report.add(
        "interior graph",
        good,
        samples,
        "the open-orbit fiber translated by (g, id) is the graph of Ad_g",
    )
    return report


# -- wonderful ---------------------------------------------------------------


def _torus_fixed_check(L: LieAlgebra, gen: SplitMix64) -> tuple[int, int, bool]:
    """(count, expected, ok) for the torus-fixed points through xi = Ad_d s, s and d seeded.

    ok when the count is the Weyl group's and every point contains (xi, xi);
    the enumeration tests no point, so this is the per-point check.  At
    d != 1 the witnesses d w and w d differ, so it tells their order apart.
    """
    expected = _torus_fixed_count(L)
    s = regular_cartan(L, gen)
    d = group_sample(L, gen)
    xi = conjugate(d, s)
    points = torus_fixed_fiber_points(xi, d)
    ok = len(points) == expected and all(translate_contains(q, (xi, xi)) for q in points)
    return len(points), expected, ok


def run_wonderful_suite(L: LieAlgebra, seed: int, samples: int) -> SuiteReport:
    report = SuiteReport("wonderful", L.descriptor)
    n = L.dim
    subsets = all_subsets(L.rank)

    dim_ok = 0
    bracket_ok = 0
    stab_ok = 0
    orbit_ok = 0
    for I in subsets:
        p = build_parabolic(L, I)
        fiber = fiber_algebra(p)
        if fiber.dim == n:
            dim_ok += 1
        # the integer rows are the basis rows scaled, which keeps bracket closure
        rows = [(L.element(r[:n]), L.element(r[n:])) for r in fiber.basis.num]
        closed = all(
            fiber.contains(pair_row(L.bracket(a1, b1), L.bracket(a2, b2)))
            for i, (a1, a2) in enumerate(rows)
            for b1, b2 in rows[i + 1 :]
        )
        if closed:
            bracket_ok += 1
        stab = stabilizer_algebra(p)
        if stab.contains_space(fiber) and stab.dim - fiber.dim == L.rank - len(I):
            stab_ok += 1
        if 2 * n - stab.dim == orbit_dim(p):
            orbit_ok += 1
    total = len(subsets)
    report.add("fiber dimensions", dim_ok, total, f"dim = {n} for all {total} subsets")
    report.add("fiber bracket closure", bracket_ok, total, "componentwise bracket stays inside")
    report.add(
        "stabilizer codimension",
        stab_ok,
        total,
        "fiber sits in the stabilizer with codimension rank - |I|",
    )
    report.add("orbit dimension law", orbit_ok, total, "2n - dim stab = orbit_dim")

    poset = build_orbit_poset(L)
    full = frozenset(range(1, L.rank + 1))
    checks = [
        poset.row(full).dim == n,
        len(poset.divisor_components()) == L.rank,
        all(
            poset.row(J).dim <= poset.row(I).dim
            for I in subsets
            for J in subsets
            if closure_contains(I, J)
        ),
    ]
    report.add(
        "orbit poset",
        sum(1 for c in checks if c),
        len(checks),
        "open orbit dim n; rank-many divisors; closure order respects dimension",
    )

    gen = stream(seed, f"wonderful:torus:{L.descriptor}")
    count, expected, ok = _torus_fixed_check(L, gen)
    report.add(
        "torus-fixed boundary points",
        1 if ok else 0,
        1,
        f"count {count}, expected {expected}; all contain the diagonal pair",
    )
    return report


# -- logsympl ----------------------------------------------------------------


def run_logsympl_suite(L: LieAlgebra, seed: int, samples: int) -> SuiteReport:
    report = SuiteReport("logsympl", L.descriptor)
    n = L.dim
    subsets = all_subsets(L.rank)
    size = 2 * n
    ident = Mat.identity(size)

    good = 0
    total = 0
    for I in subsets:
        chart = build_chart(L, I)
        gen = stream(seed, f"logsympl:inverse:{L.descriptor}:{sorted(I)}")
        for _ in range(samples):
            pt = _stratum_sample(chart, frozenset(), gen)
            total += 1
            if bivector_matrix(pt).matrix * omega_matrix(pt) == ident:
                good += 1
    report.add(
        "inverse identity",
        good,
        total,
        f"bivector * two-form = identity at {samples} off-divisor points per chart",
    )

    pole_ok = 0
    pole_total = 0
    for I in subsets:
        if not I:
            continue
        chart = build_chart(L, I)
        pole_total += 1
        try:
            omega_matrix(chart.basepoint())
        except PoleError:
            pole_ok += 1
    report.add("pole behavior", pole_ok, pole_total, "the two-form refuses divisor points")

    law_ok = 0
    law_total = 0
    for I in subsets:
        chart = build_chart(L, I)
        for S in all_subsets(L.rank):
            if not frozenset(S) <= frozenset(I):
                continue
            law_total += 1
            if stratum_rank(chart, S) != size - 2 * len(S):
                continue
            gen = stream(seed, f"logsympl:rank:{L.descriptor}:{sorted(I)}:{sorted(S)}")
            if all(
                bivector_matrix(_stratum_sample(chart, frozenset(S), gen)).rank()
                == size - 2 * len(S)
                for _ in range(max(1, samples // 10))
            ):
                law_ok += 1
    report.add(
        "stratum rank law",
        law_ok,
        law_total,
        "bivector rank 2n - 2|S| on every stratum S of every pole set",
    )

    cas_ok = 0
    cas_total = 0
    for I in subsets:
        chart = build_chart(L, I)
        for S in all_subsets(L.rank):
            if not frozenset(S) <= frozenset(I):
                continue
            cas_total += 1
            if casimir_check(chart, S, seed=seed, samples=3):
                cas_ok += 1
    report.add(
        "casimir property",
        cas_ok,
        cas_total,
        "sigma rows of the bivector vanish on their stratum",
    )

    label_ok = 0
    label_total = 0
    for I in subsets:
        p = build_parabolic(L, I)
        gen = stream(seed, f"logsympl:leaf:{L.descriptor}:{sorted(I)}")
        for _ in range(samples):
            xi1, xi2, central = fiber_sample(p, gen)
            eta1, eta2, central2 = fiber_sample(p, gen)
            label_total += 1
            if leaf_label(p, xi1) != central:
                continue
            if same_leaf(p, (xi1, xi2), (eta1, eta2)) != (central == central2):
                continue
            if (leaf_sigma_values(p, xi1) == leaf_sigma_values(p, eta1)) != (
                central == central2
            ):
                continue
            label_ok += 1
    report.add(
        "leaf classification",
        label_ok,
        label_total,
        "labels match the sampled central parts; same_leaf = label equality = "
        "sigma-coordinate equality",
    )
    return report


# -- reduction ---------------------------------------------------------------


def _centralizer_witness(L: LieAlgebra, gen: SplitMix64) -> tuple[Element, GroupElement]:
    """A slice point xi_s and a unipotent gamma != 1 with Ad_gamma xi_s = xi_s, on every type.

    xi_s is the slice point (Kostant, 1963) with the invariants of a seeded s
    in ker alpha_1 (s = 0 on A1), so it is regular but not semisimple.  Its
    centralizer has rational eigenvalues, so its nilpotents are the radical
    of the trace form tr(R_i R_j) on its integer rows; gamma exps the first.
    """
    s = _random_combination(L, build_parabolic(L, (1,)).z_l_I, gen)[1]
    xi_s = slice_from_invariants(slice_for(L), invariants_eval(s))
    rows = L.centralizer(xi_s).basis.num
    mats = [L._combine(row) for row in rows]
    gram = Mat([[_trace_mul(a, b) for b in mats] for a in mats], 1, len(rows))
    c = kernel(gram).basis.num[0]
    z = Element(L, _int_matmul([c], rows)[0], 1)
    return xi_s, L.group_exp(z.scale(gen.nonzero_fraction()))


def _dressed_witness(
    L: LieAlgebra, gen: SplitMix64
) -> tuple[Element, GroupElement, GroupElement, Element]:
    """(xi_s, gamma, g_in, xi_in): a centralizer witness dressed by seeded unipotents n1, n2.

    g_in = n1 gamma n2^-1 and xi_in = Ad_n2 xi_s, drawn in the order
    witness, n1, n2.
    """
    xi_s, gamma = _centralizer_witness(L, gen)
    n1 = positive_unipotent(L, gen)
    n2 = positive_unipotent(L, gen)
    return xi_s, gamma, n1 * (gamma * n2.inverse()), conjugate(n2, xi_s)


def run_reduction_suite(L: LieAlgebra, seed: int, samples: int) -> SuiteReport:
    report = SuiteReport("reduction", L.descriptor)
    gen = stream(seed, f"reduction:freeness:{L.descriptor}")
    good = 0
    for _ in range(samples):
        xi1 = borel_sample(L, gen)
        xi2 = borel_sample(L, gen)
        if level_set_contains(xi1, xi2) and nxn_freeness(xi1, xi2):
            good += 1
    report.add(
        "unipotent freeness",
        good,
        samples,
        "n meets no centralizer over the level set",
    )

    gen = stream(seed, f"reduction:roundtrip:{L.descriptor}")
    good = 0
    for _ in range(samples):
        xi_s, gamma, g_in, xi_in = _dressed_witness(L, gen)
        g_s, x_s = level_set_normalize(g_in, xi_in)
        if g_s == gamma and x_s == xi_s:
            good += 1
    report.add(
        "slice recovery",
        good,
        samples,
        "level_set_normalize undoes the unipotent dressing exactly",
    )

    gen = stream(seed, f"reduction:invariance:{L.descriptor}")
    good = 0
    for _ in range(samples):
        _, _, g_in, xi_in = _dressed_witness(L, gen)
        g_s, x_s = level_set_normalize(g_in, xi_in)
        n1p = positive_unipotent(L, gen)
        n2p = positive_unipotent(L, gen)
        g_s2, x_s2 = level_set_normalize(
            n1p * (g_in * n2p.inverse()), conjugate(n2p, xi_in)
        )
        if x_s2 == x_s and g_s2 == g_s:
            good += 1
    report.add(
        "pre-action invariance",
        good,
        samples,
        "dressing the input by a unipotent pair leaves the output unchanged",
    )

    gen = stream(seed, f"reduction:boundary:{L.descriptor}")
    count, expected, ok = _torus_fixed_check(L, gen)
    report.add(
        "boundary fiber membership",
        1 if ok else 0,
        1,
        f"{count} torus-fixed points, expected {expected}, all in the fiber",
    )
    return report


SUITE_NAMES = ("kostant", "moment", "wonderful", "logsympl", "reduction")

_RUNNERS = {
    "kostant": run_kostant_suite,
    "moment": run_moment_suite,
    "wonderful": run_wonderful_suite,
    "logsympl": run_logsympl_suite,
    "reduction": run_reduction_suite,
}


def run_suite(name: str, L: LieAlgebra, seed: int, samples: int) -> SuiteReport:
    return _RUNNERS[name](L, seed, samples)


def run_suites(L: LieAlgebra, names, seed: int, samples: int) -> list[SuiteReport]:
    return [run_suite(name, L, seed, samples) for name in names]
