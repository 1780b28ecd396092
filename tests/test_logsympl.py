"""Log charts, the two-form and its polynomial bivector, leaves, reduction.

Anchors checked by hand: the A1 rank table {(): 6, (1,): 4}, the pole
entry 1/z, the stratum rank law 2n - 2|S|, the A1 leaf examples around
h, and the conic centralizer element fixed by level-set normalization.
"""

from fractions import Fraction

import pytest

from ucz import ALGEBRA_DESCRIPTORS, algebra_from_descriptor, logsympl
from ucz.errors import ConstructionError, DomainError, PoleError
from ucz.exactlin import Mat
from ucz.kostant import invariants_eval, slice_for, slice_from_invariants, slice_normalize
from ucz.liealg import GroupElement, conjugate
from ucz.logsympl import (
    Bivector,
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
from ucz.rng import stream
from ucz.suites import (
    _centralizer_witness,
    _dressed_witness,
    borel_sample,
    fiber_sample,
    positive_unipotent,
)
from ucz.wonderful import all_subsets, build_parabolic, derived_levi

from .oracles import (
    all_fractions,
    exp_product,
    gauss_jordan,
    identity,
    inverse,
    null_space,
    product,
    projection,
    span_coordinates,
)

# cartan[i][j] = <alpha_j, alpha_i^vee>, so alpha_i(h_k) = cartan[k][i]
CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -3], [-1, 2]],
}


def test_chart_coordinate_bookkeeping(any_algebra):
    L = any_algebra
    for I in all_subsets(L.rank):
        chart = build_chart(L, I)
        assert 2 * chart.m + L.rank == L.dim
        assert chart.size == 2 * L.dim
        for i in (0, L.rank + 1):
            with pytest.raises(DomainError, match="z index out of range"):
                chart.z_index(i)
            with pytest.raises(DomainError, match="sigma index out of range"):
                chart.sigma_index(i)
    assert build_chart(L, frozenset()) is build_chart(L, frozenset())


def test_chart_rejects_bad_pole_sets(a1):
    # the same refusals as build_parabolic: indices outside 1..rank and non-integers
    for bad in ({2}, {1.5}, {0}, {"1"}):
        with pytest.raises(DomainError):
            build_chart(a1, bad)
        with pytest.raises(DomainError):
            build_parabolic(a1, bad)
    chart = build_chart(a1, {1})
    with pytest.raises(DomainError):
        chart.point((0, 0, 0))


def test_omega_block_structure(a1):
    chart = build_chart(a1, {1})
    point = chart.basepoint()
    vals = list(point.values)
    vals[chart.z_index(1)] = Fraction(1)
    omega = omega_matrix(chart.point(vals))
    assert omega.transpose() == -omega
    assert omega.det() != 0
    from ucz.exactlin import rank as mat_rank

    assert mat_rank(omega) == 6
    assert omega[(chart.z_index(1), chart.sigma_index(1))] == 1


def test_omega_pole_coefficient(a1):
    chart = build_chart(a1, {1})
    vals = [Fraction(0)] * chart.size
    vals[chart.z_index(1)] = Fraction(1, 2)
    omega = omega_matrix(chart.point(vals))
    assert omega[(chart.z_index(1), chart.sigma_index(1))] == 2


def test_omega_has_a_pole_on_the_divisor(a1):
    chart = build_chart(a1, {1})
    with pytest.raises(PoleError):
        omega_matrix(chart.basepoint())


def test_omega_off_pole_set_ignores_z(a1):
    chart = build_chart(a1, frozenset())
    omega = omega_matrix(chart.basepoint())
    assert omega[(chart.z_index(1), chart.sigma_index(1))] == 1


def test_bivector_is_antisymmetric_and_inverse(any_algebra):
    L = any_algebra
    gen = stream(53, f"inv:{L.descriptor}")
    for I in all_subsets(L.rank):
        chart = build_chart(L, I)
        for _ in range(3):
            vals = [gen.fraction() for _ in range(chart.size)]
            for i in range(1, L.rank + 1):
                vals[chart.z_index(i)] = gen.nonzero_fraction()
            point = chart.point(vals)
            pi = bivector_matrix(point)
            assert pi.matrix.transpose() == -pi.matrix
            assert pi.matrix * omega_matrix(point) == Mat.identity(chart.size)


def test_bivector_rejects_a_matrix_that_is_not_antisymmetric(a1):
    point = build_chart(a1, {1}).basepoint()
    good = bivector_matrix(point).matrix
    size = good.rows
    rows = [list(r) for r in good.row_list()]
    Bivector(point, good)
    for i, j in ((0, 0), (0, size - 1), (size - 1, 0)):
        bad = [list(r) for r in rows]
        bad[i][j] += 1
        with pytest.raises(ConstructionError):
            Bivector(point, Mat(bad, cols=size))
    with pytest.raises(ConstructionError):
        Bivector(point, Mat([r[:-1] for r in rows], cols=size - 1))


def test_bivector_accepts_exactly_the_antisymmetric_matrices(a1):
    point = build_chart(a1, set()).basepoint()
    gen = stream(83, "antisymmetry")

    def accepted(rows, size):
        """Bivector's verdict, which must be the dense definition m^T = -m."""
        m = Mat(rows, cols=size)
        try:
            Bivector(point, m)
        except ConstructionError:
            verdict = False
        else:
            verdict = True
        assert verdict == (m.transpose() == -m)
        return verdict

    def antisymmetric(size, dense):
        rows = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                if dense or gen.randint(0, 3) == 0:
                    rows[i][j] = gen.nonzero_fraction()
                    rows[j][i] = -rows[i][j]
        return rows

    assert accepted([], 0) and accepted([[0]], 1)
    assert not accepted([[1]], 1) and not accepted([[Fraction(-1, 2)]], 1)
    dens = set()
    for size in (2, 3, 6, 9):
        for dense in (False, True):
            good = antisymmetric(size, dense)
            dens.add(Mat(good).den)
            assert accepted(good, size)
            for _ in range(12):
                i, j = gen.randint(0, size - 1), gen.randint(0, size - 1)
                x = gen.nonzero_fraction()
                # one entry moved: on the diagonal, above it or below it
                bad = [list(r) for r in good]
                bad[i][j] += x
                assert not accepted(bad, size)
                if i == j:
                    continue
                # a zero opposite a nonzero, in both orientations
                for a, b in ((i, j), (j, i)):
                    bad = [list(r) for r in good]
                    bad[a][b], bad[b][a] = x, Fraction(0)
                    assert not accepted(bad, size)
                # a mirrored pair moved together stays antisymmetric
                ok = [list(r) for r in good]
                ok[i][j] += x
                ok[j][i] -= x
                assert accepted(ok, size)
    assert len(dens) > 1


def test_bivector_accepts_a_rebuilt_matrix_of_equal_values(a2):
    point = build_chart(a2, {1}).basepoint()
    good = bivector_matrix(point).matrix
    fresh = [[Fraction(0) if x == 0 else x for x in row] for row in good.row_list()]
    assert Bivector(point, Mat(fresh, cols=good.cols)).matrix == good


def test_bivector_rejects_a_nonzero_entry_opposite_a_zero_entry(a2):
    point = build_chart(a2, {1}).basepoint()
    rows = [list(r) for r in bivector_matrix(point).matrix.row_list()]
    size = len(rows)
    i, j = next(
        (i, j)
        for i in range(size)
        for j in range(size)
        if rows[i][j] == 0 and rows[j][i] == 0 and i != j
    )
    for value in (Fraction(1), Fraction(-2, 3)):
        bad = [list(r) for r in rows]
        bad[i][j] = value
        assert bad[j][i] == 0
        with pytest.raises(ConstructionError):
            Bivector(point, Mat(bad, cols=size))
        bad[i][j], bad[j][i] = Fraction(0), value
        with pytest.raises(ConstructionError):
            Bivector(point, Mat(bad, cols=size))


def test_bivector_entries_are_polynomial(a2):
    chart = build_chart(a2, {1, 2})
    pi = bivector_matrix(chart.basepoint()).matrix
    assert all(x.denominator == 1 for row in pi.row_list() for x in row)


def test_bivector_rank_drops_on_the_divisor(a1, a2):
    c1 = build_chart(a1, {1})
    assert bivector_matrix(c1.basepoint()).rank() == 4
    c2 = build_chart(a2, {1, 2})
    assert bivector_matrix(c2.basepoint()).rank() == 12


def test_stratum_rank_law(any_algebra):
    L = any_algebra
    n = L.dim
    for I in all_subsets(L.rank):
        chart = build_chart(L, I)
        for S in all_subsets(L.rank):
            if not S <= frozenset(I):
                continue
            assert stratum_rank(chart, S) == 2 * n - 2 * len(S)


def test_stratum_rank_a1_table(a1):
    chart = build_chart(a1, {1})
    assert stratum_rank(chart, frozenset()) == 6
    assert stratum_rank(chart, {1}) == 4


def test_stratum_must_lie_in_the_pole_set(a2):
    chart = build_chart(a2, {1})
    with pytest.raises(DomainError):
        stratum_rank(chart, {2})


def test_casimir_check_refuses_a_vacuous_sample_count(a2):
    # with no sample nothing is checked, so there is no pass to report
    chart = build_chart(a2, {1})
    for samples in (0, -3):
        with pytest.raises(DomainError):
            casimir_check(chart, {1}, samples=samples)
    assert casimir_check(chart, {1}, samples=1)


def test_sigma_casimirs_vanish_on_strata(any_algebra):
    L = any_algebra
    for I in all_subsets(L.rank):
        chart = build_chart(L, I)
        for S in all_subsets(L.rank):
            if S <= frozenset(I):
                assert casimir_check(chart, S)


def test_leaf_label_shape_and_membership(any_algebra):
    L = any_algebra
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        label = leaf_label(p, L.zero())
        assert label == (Fraction(0),) * (L.rank - len(I))


def test_leaf_label_kills_the_derived_part(a1):
    p = build_parabolic(a1, frozenset())
    h, e = a1.h(0), a1.e(0)
    assert leaf_label(p, e) == (Fraction(0),)
    assert leaf_label(p, h + e.scale(3)) == leaf_label(p, h)
    assert leaf_label(p, h) != leaf_label(p, h.scale(2))


def test_leaf_label_needs_a_parabolic_point(a1):
    p = build_parabolic(a1, frozenset())
    with pytest.raises(DomainError):
        leaf_label(p, a1.f(0))


def test_leaf_label_on_the_open_orbit_is_empty(a2):
    p = build_parabolic(a2, {1, 2})
    assert leaf_label(p, a2.h(0)) == ()
    assert leaf_sigma_values(p, a2.h(0)) == ()


def test_same_leaf_a1_examples(a1):
    p = build_parabolic(a1, frozenset())
    h, e, f = a1.h(0), a1.e(0), a1.f(0)
    assert same_leaf(p, (h + e, h), (h + e.scale(3), h - f))
    assert not same_leaf(p, (h, h), (h.scale(2), h.scale(2)))
    assert same_leaf(p, (e, f), (e.scale(5), a1.zero()))
    with pytest.raises(DomainError):
        same_leaf(p, (h, -h), (h, h))


def test_same_leaf_matches_the_central_coordinates(any_algebra):
    L = any_algebra
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        gen = stream(59, f"leaf:{L.descriptor}:{sorted(I)}")
        for _ in range(10):
            x1, x2, c1 = fiber_sample(p, gen)
            y1, y2, c2 = fiber_sample(p, gen)
            assert same_leaf(p, (x1, x2), (y1, y2)) == (c1 == c2)


def test_sigma_values_separate_leaves(any_algebra):
    L = any_algebra
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        gen = stream(61, f"sigma:{L.descriptor}:{sorted(I)}")
        for _ in range(10):
            x1, x2, _ = fiber_sample(p, gen)
            y1, y2, _ = fiber_sample(p, gen)
            same = same_leaf(p, (x1, x2), (y1, y2))
            assert same == (leaf_sigma_values(p, x1) == leaf_sigma_values(p, y1))


def leaf_oracle(L, I, xi):
    """(label, sigma values) of xi from the Chevalley coordinates alone, over Fractions.

    z(l_I) is the Cartan part killed by alpha_i, i in I, and
    [p_I, p_I] + u_I^- is spanned by every root vector and h_i, i in I.
    The label is the projection's pivot entries in the reduced basis of
    z(l_I); sigma_i, i not in I, is alpha_i of its Cartan part.
    """
    cartan, n, l = CARTAN[L.descriptor], L.dim, L.rank
    walls = [[cartan[k][i - 1] for k in range(l)] for i in sorted(I)]
    onto = []
    for t in null_space(walls, l):
        row = [Fraction(0)] * n
        row[L.n_pos : L.n_pos + l] = t
        onto.append(row)
    along = [[Fraction(int(j == k)) for j in range(n)] for k in range(n)]
    along = [row for k, row in enumerate(along) if not L.n_pos <= k < L.n_pos + l]
    along += [[Fraction(int(j == L.n_pos + i - 1)) for j in range(n)] for i in sorted(I)]
    central = projection(onto, along, list(xi.coords))
    _, pivots = gauss_jordan(onto, n)
    t = central[L.n_pos : L.n_pos + l]
    sigma = [sum(t[k] * cartan[k][i - 1] for k in range(l)) for i in range(1, l + 1) if i not in I]
    return tuple(central[j] for j in pivots), tuple(sigma)


def test_leaf_readout_matches_a_fraction_projection(any_algebra):
    # the integer readout against an independent Gauss-Jordan projection,
    # on fiber samples of every pole set, and against the sampled central part
    L = any_algebra
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        gen = stream(73, f"leaf-oracle:{L.descriptor}:{sorted(I)}")
        for _ in range(4):
            xi1, _, central = fiber_sample(p, gen)
            label, sigma = leaf_oracle(L, I, xi1)
            got_label, got_sigma = leaf_label(p, xi1), leaf_sigma_values(p, xi1)
            assert got_label == label == central
            assert got_sigma == sigma
            assert all_fractions(got_label, got_sigma)


def fraction_combination(gen, space, width):
    """One gen.fraction() c_i per basis row b_i, and sum_i c_i b_i, all over Fractions."""
    coeffs = [gen.fraction() for _ in range(space.dim)]
    rows = space.basis.row_list()
    total = [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(width)]
    return coeffs, total


def test_fiber_sample_is_the_fraction_built_sum(any_algebra):
    # the same stream replayed through Fraction sums gives the same points and draws
    L = any_algebra
    n = L.dim
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        label = f"fiber-sum:{L.descriptor}:{sorted(I)}"
        gen, replay = stream(71, label), stream(71, label)
        for _ in range(3):
            xi1, xi2, central = fiber_sample(p, gen)
            coeffs, z = fraction_combination(replay, p.z_l_I, n)
            _, levi = fraction_combination(replay, derived_levi(p), n)
            _, u = fraction_combination(replay, p.u_I, n)
            _, v = fraction_combination(replay, p.u_I_minus, n)
            assert central == tuple(coeffs) and all_fractions(central)
            assert xi1.coords == tuple([a + b + c for a, b, c in zip(u, z, levi)])
            assert xi2.coords == tuple([a + b + c for a, b, c in zip(v, z, levi)])
        assert gen.state == replay.state


def test_borel_sample_is_the_fraction_built_sum(any_algebra):
    L = any_algebra
    f = slice_for(L).triple.f
    gen, replay = stream(79, "borel-sum"), stream(79, "borel-sum")
    for _ in range(5):
        _, b = fraction_combination(replay, L.borel, L.dim)
        assert borel_sample(L, gen).coords == tuple([x + y for x, y in zip(f.coords, b)])
    assert gen.state == replay.state


def test_level_set_membership(a1):
    f, h = slice_for(a1).triple.f, a1.h(0)
    assert level_set_contains(f, f)
    assert not level_set_contains(h, f)
    assert not level_set_contains(f, h)


def test_nxn_freeness_on_the_level_set(any_algebra):
    L = any_algebra

    f = slice_for(L).triple.f
    assert nxn_freeness(f, f)
    gen = stream(67, f"free:{L.descriptor}")
    for _ in range(10):
        assert nxn_freeness(borel_sample(L, gen), borel_sample(L, gen))


def test_nxn_freeness_agrees_with_the_intersection(any_algebra):
    # rank(ad xi on n) = dim n against n cap g^xi = 0, on level-set points and
    # on points of n, zero and a subregular Cartan element, which are not free
    L = any_algebra
    t = slice_for(L).triple
    gen = stream(83, f"free-intersect:{L.descriptor}")

    def by_intersection(xi1, xi2):
        return all(L.nilpos.intersect(L.centralizer(xi)).dim == 0 for xi in (xi1, xi2))

    free = [borel_sample(L, gen) for _ in range(4)] + [t.f]
    bad = [L.zero(), t.e, L.e(0), L.e(L.n_pos - 1), t.e + L.e(L.n_pos - 1)]
    if L.rank > 1:
        # z(l_I) for I = {1}: alpha_1 vanishes, so e_alpha_1 centralizes it
        bad.append(L.element(build_parabolic(L, {1}).z_l_I.basis.row_list()[0]))
    for x in free + bad:
        for y in free[:2] + bad[:2]:
            assert nxn_freeness(x, y) == by_intersection(x, y)
    assert nxn_freeness(free[0], free[1])
    for x in bad:
        assert not nxn_freeness(x, free[0]) and not nxn_freeness(free[0], x)


def test_normalize_identity_on_slice_points(a1):
    ks = slice_for(a1)
    g, xi = level_set_normalize(a1.group_identity(), ks.triple.f)
    assert g == a1.group_identity()
    assert xi == ks.triple.f


def test_normalize_fixes_conic_centralizer(a1):
    ks = slice_for(a1)
    xi_s = ks.triple.f + a1.e(0)
    m = a1.realize(xi_s)
    a, b = Fraction(5, 4), Fraction(3, 4)
    gamma = GroupElement(Mat.identity(2).scale(a) + m.scale(b))
    assert conjugate(gamma, xi_s) == xi_s
    g_s, out = level_set_normalize(gamma, xi_s)
    assert g_s == gamma
    assert out == xi_s


def a2_centralizer_pair(a2):
    """A slice point with eigenvalues (1, 1, -2) and a unipotent fixing it."""
    ks = slice_for(a2)
    xi_s = slice_from_invariants(ks, (Fraction(3), Fraction(-2)))
    m = a2.realize(xi_s)
    one = Mat.identity(3)
    nil = (m - one) * (m + one.scale(2))
    zero = Mat([[0] * 3] * 3)
    assert nil != zero
    assert nil * nil == zero
    gamma = GroupElement(one + nil)
    assert conjugate(gamma, xi_s) == xi_s
    return xi_s, gamma


def test_centralizer_witness_is_a_unipotent_fixing_a_slice_point(any_algebra):
    # G X = X G, G != I and (G - I)^m = 0 over Fraction products, and
    # xi_s - f in the span of the slice basis by Gauss-Jordan
    L = any_algebra
    m = L.matrix_size
    ks = slice_for(L)
    slice_rows = ks.ge_basis.basis.row_list()
    gen = stream(79, f"witness:{L.descriptor}")
    for _ in range(5):
        xi_s, gamma = _centralizer_witness(L, gen)
        g, x = gamma.mat.row_list(), L.realize(xi_s).row_list()
        assert product(g, x, m) == product(x, g, m)
        n = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(g, identity(m))]
        assert any(v for row in n for v in row)
        power = n
        for _ in range(m - 1):
            power = product(power, n, m)
        assert not any(v for row in power for v in row)
        assert span_coordinates(slice_rows, (xi_s - ks.triple.f).coords) is not None


def test_normalize_roundtrip_recovers_the_datum(a1, a2):
    ks = slice_for(a1)
    xi_a1 = ks.triple.f + a1.e(0)
    m = a1.realize(xi_a1)
    gamma_a1 = GroupElement(Mat.identity(2).scale(Fraction(5, 4)) + m.scale(Fraction(3, 4)))
    data = [(a1, (xi_a1, gamma_a1)), (a2, a2_centralizer_pair(a2))]
    for descriptor in ALGEBRA_DESCRIPTORS:
        L = algebra_from_descriptor(descriptor)
        data.append((L, _centralizer_witness(L, stream(71, f"witness:{descriptor}"))))
    for L, (xi_s, gamma) in data:
        gen = stream(71, f"round:{L.descriptor}")
        for _ in range(10):
            n1 = positive_unipotent(L, gen)
            n2 = positive_unipotent(L, gen)
            g_in = n1 * (gamma * n2.inverse())
            xi_in = conjugate(n2, xi_s)
            g_out, xi_out = level_set_normalize(g_in, xi_in)
            assert g_out == gamma
            assert xi_out == xi_s


def test_normalize_preserves_invariants(a2):
    gen = stream(73, "normsinv")
    xi_s, gamma = a2_centralizer_pair(a2)
    n2 = positive_unipotent(a2, gen)
    xi_in = conjugate(n2, xi_s)
    _, xi_out = level_set_normalize(gamma, xi_s)
    assert invariants_eval(xi_out) == invariants_eval(xi_s)
    assert invariants_eval(xi_in) == invariants_eval(xi_s)


def test_normalize_refuses_a_group_element_that_moves_the_slice_point(monkeypatch, any_algebra):
    # identity witnesses leave g_S = n1 gamma n2^-1, which moves xi_S
    L = any_algebra
    xi_s, gamma, g_in, xi_in = _dressed_witness(L, stream(89, f"unfixed:{L.descriptor}"))
    assert level_set_normalize(g_in, xi_in) == (gamma, xi_s)
    assert conjugate(g_in, xi_s) != xi_s
    monkeypatch.setattr(logsympl, "witness_group_element", lambda L, w: L.group_identity())
    with pytest.raises(ConstructionError, match="fails to fix the slice point"):
        level_set_normalize(g_in, xi_in)


def test_normalize_rejects_points_off_the_level_set(a1):
    f = slice_for(a1).triple.f
    with pytest.raises(DomainError):
        level_set_normalize(a1.group_identity(), a1.h(0))
    t = a1.torus_element((2,))

    with pytest.raises(DomainError):
        level_set_normalize(t, f)


def test_reduced_element_is_nu1_g_nu2_inverse_in_fractions(any_algebra):
    # oracle: nu1 g nu2^-1 from the exps of both witnesses, multiplied in
    # Fractions, and the Gauss-Jordan inverse of nu2.  Kills a forward-order
    # nu2^-1, exp(-u_1) ... exp(-u_m), once two corrections of xi's witness
    # do not commute (on A3, B2 and G2)
    L = any_algebra
    m = L.matrix_size
    ks = slice_for(L)
    gen = stream(233, f"nu2-inverse:{L.descriptor}")

    def oracle(witness):
        return exp_product(m, [L.realize(u).row_list() for u in witness])

    for _ in range(3):
        _, _, g_in, xi_in = _dressed_witness(L, gen)
        w1, _ = slice_normalize(ks, conjugate(g_in, xi_in))
        w2, _ = slice_normalize(ks, xi_in)
        want = product(product(oracle(w1), g_in.mat.row_list(), m), inverse(oracle(w2)), m)
        g_s, _ = level_set_normalize(g_in, xi_in)
        assert g_s.mat.row_list() == [tuple(row) for row in want]
