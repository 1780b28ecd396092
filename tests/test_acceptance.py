"""Acceptance gate: the eleven release criteria, one test per criterion.

Every check is exact (Fraction arithmetic, zero tolerance).  Each test
is one criterion, so a verbose run reports one pass/fail line per
criterion; the whole file is sized to finish in well under a minute.

Frozen oracles used here:
  - slice degree tables (2,), (2,3), (2,3,4), (2,4), (2,6);
  - the A1 normalization closed form f+ah+be -> f+(a*a+b)e;
  - the A1 chart rank table {(): 6, (1,): 4};
  - 2 torus-fixed boundary points for A1, 12 for A2 at diag(1,2,-3) and
    16 for B2 at diag(1,2,-2,-1), the latter two re-derived below by an
    inline brute-force enumeration.
"""

from fractions import Fraction
from itertools import combinations, product

from ucz import ALGEBRA_DESCRIPTORS, algebra_from_descriptor
from ucz.exactlin import Mat, Subspace
from ucz.kostant import (
    build_principal_triple,
    invariants_eval,
    slice_for,
    slice_from_invariants,
    slice_normalize,
)
from ucz.liealg import conjugate
from ucz.logsympl import (
    bivector_matrix,
    build_chart,
    casimir_check,
    leaf_sigma_values,
    level_set_contains,
    level_set_normalize,
    nxn_freeness,
    omega_matrix,
    same_leaf,
    stratum_rank,
)
from ucz.rng import stream
from ucz.suites import (
    borel_sample,
    fiber_sample,
    group_sample,
    positive_unipotent,
)
from ucz.wonderful import (
    all_subsets,
    build_parabolic,
    fiber_algebra,
    make_boundary_point,
    orbit_dim,
    stabilizer_algebra,
    torus_fixed_fiber_points,
    translate_contains,
)

DEGREES = {
    "A1": (2,),
    "A2": (2, 3),
    "A3": (2, 3, 4),
    "B2": (2, 4),
    "G2": (2, 6),
}


def algebras():
    return [algebra_from_descriptor(d) for d in ALGEBRA_DESCRIPTORS]


def regular_cartan(L, gen):
    while True:
        s = L.zero()
        for i in range(L.rank):
            c = gen.fraction()
            if c != 0:
                s = s + L.h(i).scale(c)
        if L.is_regular(s):
            return s


def levi_part(p, xi):
    """Zero out the nilradical coordinates of a parabolic element."""
    coords = list(xi.coords)
    for row in p.u_I.basis.row_list():
        coords[row.index(1)] = Fraction(0)
    return p.algebra.element(coords)


def test_criterion_01_principal_sl2_relations():
    for L in algebras():
        t = build_principal_triple(L)
        assert L.bracket(t.e, t.f) == t.h
        assert L.bracket(t.h, t.e) == t.e.scale(2)
        assert L.bracket(t.h, t.f) == t.f.scale(-2)


def test_criterion_02_centralizer_dimension_and_degrees():
    for L in algebras():
        ks = slice_for(L)
        assert ks.ge_basis.dim == L.rank
        assert ks.degrees == DEGREES[L.descriptor]


def test_criterion_03_normalization_sweep():
    for L in algebras():
        ks = slice_for(L)
        max_degree = max(ks.degrees)
        gen = stream(42, f"acc3:{L.descriptor}")
        for _ in range(100):
            xi = borel_sample(L, gen)
            witness, out = slice_normalize(ks, xi)
            assert ks.contains(out)
            assert len(witness) <= max_degree
            again, out2 = slice_normalize(ks, out)
            assert again == [] and out2 == out
            _, out3 = slice_normalize(ks, xi, stepwise=True)
            assert out3 == out
            assert invariants_eval(out) == invariants_eval(xi)
    a1 = algebra_from_descriptor("A1")
    ks = slice_for(a1)
    f, h, e = ks.triple.f, a1.h(0), a1.e(0)
    gen = stream(42, "acc3:closedform")
    for _ in range(100):
        a, b = gen.fraction(), gen.fraction()
        _, out = slice_normalize(ks, f + h.scale(a) + e.scale(b))
        assert out == f + e.scale(a * a + b)


def test_criterion_04_section_of_the_adjoint_quotient():
    for L in algebras():
        ks = slice_for(L)
        gen = stream(42, f"acc4:{L.descriptor}")
        for _ in range(100):
            vals = tuple(gen.fraction() for _ in range(L.rank))
            point = slice_from_invariants(ks, vals)
            assert ks.contains(point)
            assert invariants_eval(point) == vals
        for _ in range(100):
            xi = borel_sample(L, gen)
            _, on_slice = slice_normalize(ks, xi)
            assert slice_from_invariants(ks, invariants_eval(on_slice)) == on_slice


def test_criterion_05_fiber_algebras_at_basepoints():
    for L in algebras():
        n = L.dim
        for I in all_subsets(L.rank):
            p = build_parabolic(L, I)
            fiber = fiber_algebra(p)
            assert fiber.dim == n
            elems = [
                (L.element(row[:n]), L.element(row[n:]))
                for row in fiber.basis.row_list()
            ]
            for (x1, x2), (y1, y2) in combinations(elems, 2):
                w = tuple(L.bracket(x1, y1).coords) + tuple(L.bracket(x2, y2).coords)
                assert fiber.contains(w)
            stab = stabilizer_algebra(p)
            assert stab.contains_space(fiber)
            assert stab.dim - fiber.dim == L.rank - len(I)
            assert 2 * n - stab.dim == orbit_dim(p)


def test_criterion_06_compactified_moment_image():
    for L in algebras():
        subsets = all_subsets(L.rank)
        gen = stream(42, f"acc6:{L.descriptor}")
        for k in range(100):
            p = build_parabolic(L, subsets[k % len(subsets)])
            xi1, xi2, _ = fiber_sample(p, gen)
            g1, g2 = group_sample(L, gen), group_sample(L, gen)
            assert invariants_eval(conjugate(g1, xi1)) == invariants_eval(
                conjugate(g2, xi2)
            )
        p0 = build_parabolic(L, ())
        for _ in range(25):
            s = regular_cartan(L, gen)
            npart, mpart = L.zero(), L.zero()
            for k in range(L.n_pos):
                npart = npart + L.e(k).scale(gen.fraction())
                mpart = mpart + L.f(k).scale(gen.fraction())
            g1, g2 = group_sample(L, gen), group_sample(L, gen)
            point = make_boundary_point(p0, g1, g2)
            pair = (conjugate(g1, s + npart), conjugate(g2, s + mpart))
            assert translate_contains(point, pair)
        for k in range(100):
            p = build_parabolic(L, subsets[k % len(subsets)])
            xi1, _, _ = fiber_sample(p, gen)
            assert invariants_eval(xi1) == invariants_eval(levi_part(p, xi1))


def test_criterion_07_moment_map_jacobian_rank():
    from ucz.kostant import jacobian_rank_at

    L = algebra_from_descriptor("A2")
    gen = stream(42, "acc7")
    found = 0
    while found < 50:
        x = L.element([gen.fraction() for _ in range(L.dim)])
        if not L.is_regular(x):
            continue
        found += 1
        g = group_sample(L, gen)
        assert jacobian_rank_at(x, conjugate(g, x)) == L.rank
    assert jacobian_rank_at(L.zero(), L.zero()) == 0


def test_criterion_08_log_symplectic_charts():
    for L in algebras():
        n = L.dim
        for I in all_subsets(L.rank):
            chart = build_chart(L, I)
            gen = stream(42, f"acc8:{L.descriptor}:{sorted(I)}")
            ident = Mat.identity(chart.size)
            for _ in range(200):
                vals = [gen.fraction(num_bound=3) for _ in range(chart.size)]
                for i in range(1, L.rank + 1):
                    vals[chart.z_index(i)] = gen.nonzero_fraction(num_bound=3)
                point = chart.point(vals)
                assert bivector_matrix(point).matrix * omega_matrix(point) == ident
            for S in all_subsets(L.rank):
                if S <= frozenset(I):
                    assert stratum_rank(chart, S) == 2 * n - 2 * len(S)
                    assert casimir_check(chart, S)
    a1 = algebra_from_descriptor("A1")
    chart = build_chart(a1, {1})
    assert stratum_rank(chart, frozenset()) == 6
    assert stratum_rank(chart, {1}) == 4


def test_criterion_09_leaf_classification():
    for L in algebras():
        for I in all_subsets(L.rank):
            p = build_parabolic(L, I)
            gen = stream(42, f"acc9:{L.descriptor}:{sorted(I)}")
            for _ in range(100):
                x1, x2, c1 = fiber_sample(p, gen)
                y1, y2, c2 = fiber_sample(p, gen)
                same = same_leaf(p, (x1, x2), (y1, y2))
                assert same == (c1 == c2)
                assert same == (
                    leaf_sigma_values(p, x1) == leaf_sigma_values(p, y1)
                )


def test_criterion_10_hamiltonian_reduction():
    for L in algebras():
        gen = stream(42, f"acc10:free:{L.descriptor}")
        for _ in range(100):
            xi1, xi2 = borel_sample(L, gen), borel_sample(L, gen)
            assert level_set_contains(xi1, xi2)
            assert nxn_freeness(xi1, xi2)
    for d in ("A1", "A2"):
        L = algebra_from_descriptor(d)
        ks = slice_for(L)
        gen = stream(42, f"acc10:round:{d}")
        for _ in range(100):
            if d == "A1":
                xi_s = ks.triple.f
                gamma = L.group_exp(ks.triple.f.scale(gen.nonzero_fraction()))
            else:
                r = gen.nonzero_fraction(num_bound=3)
                xi_s = slice_from_invariants(ks, (3 * r * r, -2 * r * r * r))
                m = L.realize(xi_s)
                ident = Mat.identity(3)
                nil = (m - ident.scale(r)) * (m + ident.scale(2 * r))
                gamma = L.group_exp(
                    L.from_matrix(nil).scale(gen.nonzero_fraction(num_bound=2))
                )
            assert conjugate(gamma, xi_s) == xi_s
            n1, n2 = positive_unipotent(L, gen), positive_unipotent(L, gen)
            g_in = n1 * (gamma * n2.inverse())
            xi_in = conjugate(n2, xi_s)
            g_out, xi_out = level_set_normalize(g_in, xi_in)
            assert g_out == gamma
            assert xi_out == xi_s
            n1p, n2p = positive_unipotent(L, gen), positive_unipotent(L, gen)
            g_out2, xi_out2 = level_set_normalize(
                n1p * (g_in * n2p.inverse()), conjugate(n2p, xi_in)
            )
            assert g_out2 == g_out
            assert xi_out2 == xi_out


def test_criterion_11_torus_fixed_boundary_points():
    a1 = algebra_from_descriptor("A1")
    h = a1.h(0)
    points = torus_fixed_fiber_points(h, a1.group_identity())
    assert len(points) == 2
    for q in points:
        assert translate_contains(q, (h, h))

    cases = {
        "A2": ([(1, 0, 0), (0, 2, 0), (0, 0, -3)], 12, (6, 3, 3)),
        "B2": ([(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, -2, 0), (0, 0, 0, -1)], 16, (8, 4, 4)),
    }
    for d, (diagonal, count, split) in cases.items():
        L = algebra_from_descriptor(d)
        xi = L.from_matrix(Mat(diagonal, cols=len(diagonal)))
        assert L.is_regular(xi)
        # inline brute-force oracle: realize every (I, w1, w2) fiber directly
        # and count the distinct ones containing (xi, xi)
        n = L.dim
        reps = L.weyl_representatives()
        distinct: list[Subspace] = []
        per_orbit = {}
        for I in all_subsets(L.rank):
            if len(I) == L.rank:
                continue
            base = fiber_algebra(build_parabolic(L, I))
            for w1, w2 in product(reps, reps):
                vectors = []
                for row in base.basis.row_list():
                    left = conjugate(w1, L.element(row[:n]))
                    right = conjugate(w2, L.element(row[n:]))
                    vectors.append(tuple(left.coords) + tuple(right.coords))
                realized = Subspace.from_vectors(2 * n, vectors)
                if not realized.contains(tuple(xi.coords) * 2):
                    continue
                if realized not in distinct:
                    distinct.append(realized)
                    per_orbit[I] = per_orbit.get(I, 0) + 1
        assert len(distinct) == count
        assert per_orbit == dict(zip([frozenset(), frozenset({1}), frozenset({2})], split))

        found = torus_fixed_fiber_points(xi, L.group_identity())
        assert len(found) == len(distinct)
        assert sorted(tuple(q.realized_fiber.basis.row_list()) for q in found) == sorted(
            tuple(s.basis.row_list()) for s in distinct
        )
        for q in found:
            assert translate_contains(q, (xi, xi))

