"""Parabolic data, boundary fiber algebras, orbit poset, torus-fixed points.

Hand-checked anchors: the A1 and A2 parabolic dimension tables, the
closed-orbit codimension equal to the rank, the diagonal fiber on the
open-orbit index set, and the two torus-fixed boundary points of A1.
The closed-form parabolic subspaces, fiber and stabilizer algebras and
semisimple Levi parts are compared with their generic definitions
(spans, sums, a centralizer, a bracket span and an intersection) reduced
by the Gauss-Jordan oracle.
"""

import random
from functools import cache
from itertools import combinations, product
from math import factorial, prod
from operator import mul

import pytest

from ucz import suites, wonderful
from ucz.errors import ConstructionError, DimensionError, DomainError
from ucz.exactlin import Mat, Subspace
from ucz.kostant import build_principal_triple
from ucz.liealg import GroupElement, LieAlgebra, conjugate
from ucz.rng import stream
from ucz.suites import group_sample
from ucz.wonderful import (
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
    weyl_cosets,
)

from .oracles import (
    adjoint_columns,
    apply_columns,
    gauss_jordan,
    identity,
    null_space,
    weyl_group_order,
)


def full_set(L):
    return frozenset(range(1, L.rank + 1))


def test_all_subsets_order():
    subs = all_subsets(2)
    assert subs == [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    assert len(all_subsets(3)) == 8


def test_subset_validation(a2):
    with pytest.raises(DomainError):
        build_parabolic(a2, {0})
    with pytest.raises(DomainError):
        build_parabolic(a2, {3})


def test_parabolic_dimension_relations(any_algebra):
    L = any_algebra
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        assert p.p_I.dim == p.l_I.dim + p.u_I.dim
        assert p.p_I_minus.dim == p.l_I.dim + p.u_I_minus.dim
        assert p.u_I.dim == p.u_I_minus.dim
        assert p.l_I.dim == L.dim - 2 * p.u_I.dim
        assert p.z_l_I.dim == L.rank - len(I)
        assert p.p_I.intersect(p.p_I_minus) == p.l_I
        assert p.derived_p_I.sum(p.z_l_I) == p.p_I
        assert p.derived_p_I.intersect(p.z_l_I).dim == 0
        assert derived_levi(p) == p.derived_p_I.intersect(p.l_I)
        assert derived_levi(p) is derived_levi(p)


def _oracle_span(rows, n: int) -> list[tuple]:
    """The nonzero rows of the Gauss-Jordan reduced form of rows in Q^n."""
    work, pivots = gauss_jordan(rows, n)
    return [tuple(row) for row in work[: len(pivots)]]


def _units(n: int, idxs) -> list[list[int]]:
    return [[int(j == i) for j in range(n)] for i in idxs]


def test_parabolic_subspaces_match_the_generic_definitions(any_algebra):
    L = any_algebra
    n = L.dim
    roots = L.root_system.positive_roots
    shuffle = random.Random(f"generic:{L.descriptor}").shuffle
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        outside = [j for j in range(L.rank) if j + 1 not in I]
        levi_roots = [k for k, a in enumerate(roots) if all(a[j] == 0 for j in outside)]
        u_roots = [k for k in range(L.n_pos) if k not in levi_roots]
        levi_idx = [L.idx_h(i) for i in range(L.rank)]
        levi_idx += [L.idx_e(k) for k in levi_roots] + [L.idx_f(k) for k in levi_roots]
        spans = {}
        for name, idxs in (
            ("l_I", levi_idx),
            ("u_I", [L.idx_e(k) for k in u_roots]),
            ("u_I_minus", [L.idx_f(k) for k in u_roots]),
        ):
            rows = _units(n, idxs)
            shuffle(rows)
            spans[name] = _oracle_span(rows, n)
        spans["p_I"] = _oracle_span(spans["l_I"] + spans["u_I"], n)
        spans["p_I_minus"] = _oracle_span(spans["l_I"] + spans["u_I_minus"], n)

        # the centralizer of l_I inside l_I: x = sum c_k b_k with [b_j, x] = 0 for every j
        levi = [L.element(row) for row in spans["l_I"]]
        images = [[L.bracket(b, x).coords for x in levi] for b in levi]
        system = [[image[i] for image in row] for row in images for i in range(n)]
        centre = [
            [sum(c * x for c, x in zip(coeffs, column)) for column in zip(*spans["l_I"])]
            for coeffs in null_space(system, len(levi))
        ]
        spans["z_l_I"] = _oracle_span(centre, n)

        # the span of the brackets of the basis of p_I
        basis = [L.element(row) for row in spans["p_I"]]
        spans["derived_p_I"] = _oracle_span(
            [L.bracket(a, b).coords for a, b in combinations(basis, 2)], n
        )
        for name, rows in spans.items():
            space = getattr(p, name)
            assert space.basis.row_list() == rows, (L.descriptor, sorted(I), name)
            assert space._pivots == gauss_jordan(rows, n)[1]


def _oracle_meet(a, b, n: int) -> list[tuple]:
    """The intersection of the row spans of a and b in Q^n: the points u A with u A = v B."""
    system = [[row[i] for row in a] + [-row[i] for row in b] for i in range(n)]
    points = [
        [sum(c * x for c, x in zip(coeffs, column)) for column in zip(*a)]
        for coeffs in null_space(system, len(a) + len(b))
    ]
    return _oracle_span(points, n)


def test_boundary_subspaces_match_the_generic_definitions(any_algebra):
    L = any_algebra
    n = L.dim
    zero = (0,) * n
    shuffle = random.Random(f"boundary:{L.descriptor}").shuffle
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        # u_I (+) u_I_minus (+) diag(l_I), then that plus (z(l_I), 0)
        rows = [row + zero for row in p.u_I.basis.row_list()]
        rows += [zero + row for row in p.u_I_minus.basis.row_list()]
        rows += [row + row for row in p.l_I.basis.row_list()]
        shuffle(rows)
        fiber = _oracle_span(rows, 2 * n)
        rows += [row + zero for row in p.z_l_I.basis.row_list()]
        shuffle(rows)
        stab = _oracle_span(rows, 2 * n)
        levi = _oracle_meet(p.derived_p_I.basis.row_list(), p.l_I.basis.row_list(), n)
        for space, rows in (
            (fiber_algebra(p), fiber),
            (stabilizer_algebra(p), stab),
            (derived_levi(p), levi),
        ):
            assert space.basis.row_list() == rows, (L.descriptor, sorted(I))
            assert space._pivots == gauss_jordan(rows, space.ambient_dim)[1]


def test_coordinate_spans_are_the_spans_of_their_units(any_algebra):
    L = any_algebra
    n = L.dim
    rand = random.Random(f"units:{L.descriptor}")
    for size in range(n + 1):
        idxs = rand.sample(range(n), size)
        units = _units(n, idxs)
        for order in (idxs, sorted(idxs), idxs[::-1] + idxs[:1]):
            space = Subspace.coordinate_span(n, order)
            assert space == Subspace(n, Mat(units, cols=n))
            assert space._pivots == sorted(idxs)
    blocks = {
        "cartan": [L.idx_h(i) for i in range(L.rank)],
        "nilpos": [L.idx_e(k) for k in range(L.n_pos)],
        "nilneg": [L.idx_f(k) for k in range(L.n_pos)],
    }
    blocks["borel"] = blocks["cartan"] + blocks["nilpos"]
    for name, idxs in blocks.items():
        assert getattr(L, name) == Subspace(n, Mat(_units(n, idxs), cols=n)), name
    with pytest.raises(DimensionError):
        Subspace.coordinate_span(n, [n])
    with pytest.raises(DimensionError):
        Subspace.coordinate_span(n, [-1])


def test_empty_set_gives_the_borel(any_algebra):
    L = any_algebra
    p = build_parabolic(L, frozenset())
    assert p.p_I == L.borel
    assert p.l_I == L.cartan
    assert p.u_I == L.nilpos
    assert p.z_l_I == L.cartan


def test_full_set_gives_the_whole_algebra(any_algebra):
    L = any_algebra
    p = build_parabolic(L, full_set(L))
    whole = Subspace(L.dim, Mat(identity(L.dim), cols=L.dim))
    assert p.p_I == whole
    assert p.u_I.dim == 0
    assert p.z_l_I.dim == 0
    assert p.derived_p_I == whole


def test_a2_one_vertex_parabolic_dimensions(a2):
    p = build_parabolic(a2, {1})
    assert p.p_I.dim == 6
    assert p.l_I.dim == 4
    assert p.u_I.dim == 2
    assert p.z_l_I.dim == 1


def test_parabolic_and_levi_are_subalgebras(a2):
    for I in all_subsets(a2.rank):
        p = build_parabolic(a2, I)
        for space in (p.p_I, p.l_I, p.u_I):
            elems = [a2.element(row) for row in space.basis.row_list()]
            for x, y in combinations(elems, 2):
                assert space.contains(a2.bracket(x, y).coords)


def test_a_nilradical_root_vector_in_the_levi_list_is_refused(any_algebra, monkeypatch):
    # e_beta of u_I moved into the Levi list, its f_beta kept in u_I^-: every
    # dimension and intersection check still holds, but [e_beta, f_beta] = h_beta
    # leaves u_I^-, which must be an ideal of p_I^-
    L = any_algebra
    coordinates = wonderful._coordinates
    moved = 0
    for I in all_subsets(L.rank):
        wonderful.ParabolicData(L, I)  # the true lists pass
        for e in coordinates(L, I)[1]:

            def mutated(algebra, subset, e=e):
                levi, u, u_minus = coordinates(algebra, subset)
                return levi + [e], [j for j in u if j != e], u_minus

            with monkeypatch.context() as m:
                m.setattr(wonderful, "_coordinates", mutated)
                with pytest.raises(ConstructionError, match="nilradical as an ideal"):
                    wonderful.ParabolicData(L, I)
            moved += 1
    # every positive root lies in u_I for each I it is not supported on
    assert moved == sum(build_parabolic(L, I).u_I.dim for I in all_subsets(L.rank)) > 0


def test_a_wrong_levi_center_is_refused(a2, monkeypatch):
    # the centre is the kernel of the pairings alpha_i(h_j), i in I: with every
    # pairing 0 it is the whole Cartan, of the wrong dimension; with
    # alpha_i(h_j) = 0 exactly at j = i it is h_i, inside [p_I, p_I], which
    # has the right dimension but does not split the parabolic
    wonderful.ParabolicData(a2, {1})  # the true pairings pass
    rs = a2.root_system
    for pairing, message in (
        (lambda alpha, j: 0, "Levi center has the wrong dimension"),
        (lambda alpha, j: 0 if alpha[j] else 1, "do not split the parabolic"),
    ):
        with monkeypatch.context() as m:
            m.setattr(rs, "pairing", pairing)
            with pytest.raises(ConstructionError, match=message):
                wonderful.ParabolicData(a2, {1})


def _wonderful_check(L, name):
    (check,) = [c for c in suites.run_wonderful_suite(L, 1, 1).checks if c.name == name]
    return check.passed, check.total


def test_the_wonderful_suite_counts_the_constructed_dimensions(a2, g2, monkeypatch):
    # fiber_algebra, stabilizer_algebra and the orbit poset check no dimension
    # of their own, so the suite's checks must fail when one is wrong: a fiber
    # short of a row, a stabilizer short of a central shift, and an open orbit
    # of the wrong dimension
    real_fiber = suites.fiber_algebra

    def short_fiber(p):
        fiber = real_fiber(p)
        return Subspace(fiber.ambient_dim, fiber.basis.num[1:])

    def short_stabilizer(p):
        n = p.algebra.dim
        shifts = [(0,) * n + z for z in p.z_l_I.basis.num[1:]]
        return Subspace(2 * n, list(real_fiber(p).basis.num) + shifts)

    for L in (a2, g2):
        open_orbit = build_orbit_poset(L).row(full_set(L))
        mutations = (
            ("fiber dimensions", suites, "fiber_algebra", short_fiber),
            ("stabilizer codimension", suites, "stabilizer_algebra", short_stabilizer),
            ("orbit poset", open_orbit, "dim", L.dim - 1),
        )
        for name, owner, attr, value in mutations:
            passed, total = _wonderful_check(L, name)
            assert passed == total > 0
            with monkeypatch.context() as m:
                m.setattr(owner, attr, value)
                passed, total = _wonderful_check(L, name)
            assert passed < total, (L.descriptor, name)


def test_a_translate_that_loses_dimension_is_refused(a2, monkeypatch):
    # the realized fiber reads its rows off conjugate; a conjugate by g2 that
    # returns zero empties every second half, leaving dim p_I < n rows
    p = build_parabolic(a2, ())
    g = group_sample(a2, stream(97, "lost-dimension"))
    real = wonderful.conjugate
    monkeypatch.setattr(wonderful, "conjugate", lambda h, y: a2.zero() if h is g else real(h, y))
    with pytest.raises(ConstructionError, match="lost dimension"):
        make_boundary_point(p, a2.group_identity(), g).realized_fiber


def test_levi_center_commutes(any_algebra):
    L = any_algebra
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        levi = [L.element(row) for row in p.l_I.basis.row_list()]
        for row in p.z_l_I.basis.row_list():
            z = L.element(row)
            assert all(L.bracket(z, b) == L.zero() for b in levi)


def test_levi_part_zeroes_u_I_and_refuses_points_off_the_parabolic(a2):
    named = {a2.basis_name(j): a2.basis_element(j) for j in range(a2.dim)}
    # f01 lies outside the Borel p_I, I = {}, so f01 + e11 has no Levi part
    with pytest.raises(DomainError):
        levi_part(build_parabolic(a2, ()), named["f01"] + named["e11"])
    # on I = {1} the Levi is h1, h2, e10, f10 and u_I is spanned by e01 and e11
    p = build_parabolic(a2, {1})
    x = named["h1"] + named["h2"].scale(3) + named["e10"].scale(2) - named["f10"]
    assert levi_part(p, x + named["e01"] + named["e11"].scale(-5)) == x
    assert levi_part(p, x) == x
    with pytest.raises(DomainError):
        levi_part(p, x + named["f11"])


def test_fiber_algebra_dimension_and_closure(any_algebra):
    L = any_algebra
    n = L.dim
    for I in all_subsets(L.rank):
        fiber = fiber_algebra(build_parabolic(L, I))
        assert fiber.dim == n
        elems = [
            (L.element(row[:n]), L.element(row[n:])) for row in fiber.basis.row_list()
        ]
        for (x1, x2), (y1, y2) in combinations(elems, 2):
            w = tuple(L.bracket(x1, y1).coords) + tuple(L.bracket(x2, y2).coords)
            assert fiber.contains(w)


def test_fiber_on_the_full_set_is_the_diagonal(any_algebra):
    L = any_algebra
    n = L.dim
    fiber = fiber_algebra(build_parabolic(L, full_set(L)))
    diag = Subspace(2 * n, Mat([row + row for row in identity(n)], cols=2 * n))
    assert fiber == diag


def test_stabilizer_dimension_law(any_algebra):
    L = any_algebra
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        stab = stabilizer_algebra(p)
        assert stab.dim == L.dim + L.rank - len(I)
        assert stab.contains_space(fiber_algebra(p))


def test_a1_fiber_and_stabilizer_dimensions(a1):
    p = build_parabolic(a1, frozenset())
    assert fiber_algebra(p).dim == 3
    assert stabilizer_algebra(p).dim == 4
    assert orbit_dim(p) == 2


def test_orbit_dimension_law(any_algebra):
    L = any_algebra
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        assert orbit_dim(p) == 2 * L.dim - stabilizer_algebra(p).dim


def test_closed_orbit_codimension_is_the_rank(any_algebra):
    L = any_algebra
    p = build_parabolic(L, frozenset())
    assert L.dim - orbit_dim(p) == L.rank


def test_orbit_poset_shape(any_algebra):
    L = any_algebra
    poset = build_orbit_poset(L)
    assert len(poset.rows) == 2 ** L.rank
    assert poset.row(full_set(L)).dim == L.dim
    divisors = poset.divisor_components()
    assert len(divisors) == L.rank
    assert all(len(r.I) == L.rank - 1 for r in divisors)
    with pytest.raises(DomainError):
        poset.row({L.rank + 1})


def test_orbit_dimensions_respect_closure(any_algebra):
    L = any_algebra
    poset = build_orbit_poset(L)
    for r1 in poset.rows:
        for r2 in poset.rows:
            if closure_contains(r1.I, r2.I):
                assert r2.dim <= r1.dim
                if r1.I != r2.I:
                    assert r2.dim < r1.dim


def test_closure_contains_is_subset_order():
    assert closure_contains({1, 2}, {1})
    assert closure_contains({1}, set())
    assert not closure_contains({1}, {2})
    assert closure_contains({1}, {1})


def test_translate_contains_a1_examples(a1):
    p = build_parabolic(a1, frozenset())
    point = make_boundary_point(p, a1.group_identity(), a1.group_identity())
    h = a1.h(0)
    assert translate_contains(point, (h, h))
    assert not translate_contains(point, (h, -h))
    assert translate_contains(point, (a1.e(0), a1.zero()))
    assert translate_contains(point, (a1.zero(), a1.f(0)))


def test_diagonal_translates_are_all_equal(a2):
    p = build_parabolic(a2, full_set(a2))
    base = make_boundary_point(p, a2.group_identity(), a2.group_identity())
    gen = stream(43, "diagtrans")
    for _ in range(5):
        u = a2.zero()
        for k in range(a2.n_pos):
            u = u + a2.e(k).scale(gen.fraction())
        g = a2.group_exp(u)
        assert make_boundary_point(p, g, g) == base
    w = a2.weyl_representatives()[3]
    assert make_boundary_point(p, w, w) == base


def test_translated_point_contains_translated_pairs(a2):
    p = build_parabolic(a2, {1})
    gen = stream(47, "transpair")
    fiber = fiber_algebra(p)
    n = a2.dim
    g1 = a2.group_exp(a2.e(0).scale(gen.fraction()))
    g2 = a2.group_exp(a2.f(1).scale(gen.fraction()))
    point = make_boundary_point(p, g1, g2)
    for row in fiber.basis.row_list():
        pair = (conjugate(g1, a2.element(row[:n])), conjugate(g2, a2.element(row[n:])))
        assert translate_contains(point, pair)


def test_translate_by_the_identity_is_conjugation_free(any_algebra):
    # (g, id) is the moment suite's interior translate: conjugation by the
    # identity, or by g g^-1, fixes every basis vector, and the point is the
    # graph of Ad_g, which the pull-back by (g^-1, id) decides
    L = any_algebra
    one = L.group_identity()
    p = build_parabolic(L, full_set(L))
    gen = stream(53, f"idtrans:{L.descriptor}")
    n = L.dim
    basis = [L.basis_element(j) for j in range(n)]
    assert all(conjugate(one, b) == b for b in basis)
    for _ in range(2):
        g = group_sample(L, gen)
        assert all(conjugate(g * g.inverse(), b) == b for b in basis)
        point = make_boundary_point(p, g, one)
        x = L.element([gen.fraction() for _ in range(n)])
        assert translate_contains(point, (conjugate(g, x), x))
        assert translate_contains(point, (x, x)) == (conjugate(g, x) == x)
        moved = [
            conjugate(g, L.element(row[:n])).coords + row[n:]
            for row in fiber_algebra(p).basis.row_list()
        ]
        assert point.realized_fiber == Subspace(2 * n, Mat(moved, cols=2 * n))


@cache
def _first_w_per_fiber(p):
    """The oracle cosets: the first Weyl representative per distinct realized fiber of (w, w)."""
    first = {}
    for w in p.algebra.weyl_representatives():
        first.setdefault(make_boundary_point(p, w, w).realized_fiber, w)
    return [(w, fiber) for fiber, w in first.items()]


def test_torus_call_returns_the_first_w_per_fiber(any_algebra):
    # the points are (d w, d w) for the first w per distinct realized fiber of
    # (w, w), orbit by orbit; at d = 1 they are (w, w), hold no fiber until it
    # is read, and then realize the oracle's fiber
    L = any_algebra
    one = L.group_identity()
    # ad h is 2 height(alpha) on e_alpha, so the principal h is regular in the Cartan
    s = build_principal_triple(L).h
    assert L.is_regular(s)
    expected = [
        (I, w, fiber)
        for I in all_subsets(L.rank)
        if len(I) < L.rank
        for w, fiber in _first_w_per_fiber(build_parabolic(L, I))
    ]
    points = torus_fixed_fiber_points(s, one)
    assert [(q.I, q.g1, q.g2) for q in points] == [(I, w, w) for I, w, _ in expected]
    assert all(q._fiber is None for q in points)
    assert [q.realized_fiber for q in points] == [fiber for _, _, fiber in expected]
    d = group_sample(L, stream(79, f"torus-order:{L.descriptor}"))
    assert d != one
    points = torus_fixed_fiber_points(conjugate(d, s), d)
    assert [(q.I, q.g1, q.g2) for q in points] == [(I, d * w, d * w) for I, w, _ in expected]
    # the identity is the first Weyl representative, and it leaves the fiber as it is
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        assert weyl_cosets(p)[0] == one
        assert make_boundary_point(p, one, one).realized_fiber == fiber_algebra(p)


def _oracle_translate(L, p, ad1, ad2):
    """The basepoint fiber rows of p moved by the oracle columns (ad1, ad2), in Fractions."""
    n = L.dim
    return [
        apply_columns(ad1, row[:n]) + apply_columns(ad2, row[n:])
        for row in fiber_algebra(p).basis.row_list()
    ]


@cache
def _oracle_pair(L):
    """Two seeded group samples of L and their Ad matrices from the Fraction oracle."""
    gen = stream(61, f"oracle-pair:{L.descriptor}")
    realized = [L.realize(L.basis_element(j)).row_list() for j in range(L.dim)]
    g1, g2 = group_sample(L, gen), group_sample(L, gen)
    return g1, g2, adjoint_columns(g1.mat.row_list(), realized), adjoint_columns(
        g2.mat.row_list(), realized
    )


def test_integer_translate_matches_the_fraction_adjoint_pair(any_algebra):
    # the realized fiber of the point (g1, g2) is the Gauss-Jordan form of the
    # basepoint fiber rows moved by the oracle's Ad_g1 and Ad_g2
    L = any_algebra
    n = L.dim
    g1, g2, ad1, ad2 = _oracle_pair(L)
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        echelon, pivots = gauss_jordan(_oracle_translate(L, p, ad1, ad2), 2 * n)
        assert len(pivots) == n
        realized = make_boundary_point(p, g1, g2).realized_fiber
        assert [list(row) for row in realized.basis.row_list()] == echelon
    # |W / W_I| distinct fibers per orbit, the orders from the oracle's reflection group
    cartan = L.root_system.cartan_matrix.num
    for I in all_subsets(L.rank):
        size = weyl_group_order(cartan) // weyl_group_order(cartan, [i - 1 for i in I])
        assert len(weyl_cosets(build_parabolic(L, I))) == size


def test_membership_by_pull_back_matches_the_oracle_translate(any_algebra):
    # on every orbit, translate_contains (the pull-back) and the realized
    # fiber's membership test agree with the span of the basepoint rows moved
    # by the oracle's (Ad_g1, Ad_g2), decided by its null space: on pairs
    # inside, on pairs moved by the swapped (Ad_g2, Ad_g1), and on inside
    # pairs bumped in one coordinate
    L = any_algebra
    gen = stream(67, f"pullback:{L.descriptor}")
    n = L.dim
    g1, g2, ad1, ad2 = _oracle_pair(L)
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        point = make_boundary_point(p, g1, g2)
        moved = _oracle_translate(L, p, ad1, ad2)
        swapped = _oracle_translate(L, p, ad2, ad1)

        def combination(rows):
            out = [0] * (2 * n)
            for row in rows:
                c = gen.fraction()
                out = [a + c * x for a, x in zip(out, row)]
            return out

        inside = combination(moved)
        vectors = [inside, combination(swapped), moved[0]]
        for k in range(4):
            bumped = list(inside)
            bumped[gen.randint(0, 2 * n - 1)] += 1
            vectors.append(bumped)
        # v is in the span exactly when every vector the moved rows annihilate annihilates v
        annihilator = null_space(moved, 2 * n)
        wants = [not any(sum(map(mul, a, v)) for a in annihilator) for v in vectors]
        assert wants[0] and wants[2] and not all(wants), sorted(I)
        for v, want in zip(vectors, wants):
            assert translate_contains(point, (L.element(v[:n]), L.element(v[n:]))) == want
        # membership built no realized fiber; reading it builds one that agrees
        assert point._fiber is None
        for v, want in zip(vectors, wants):
            assert point.realized_fiber.contains(v) == want


def test_torus_fixed_points_of_a1(a1):
    h = a1.h(0)
    points = torus_fixed_fiber_points(h, a1.group_identity())
    assert len(points) == 2
    for pt in points:
        assert pt.I == frozenset()
        assert translate_contains(pt, (h, h))
    assert points[0] != points[1]


def test_torus_fixed_points_are_equivariant(a1):
    h = a1.h(0)
    base = torus_fixed_fiber_points(h, a1.group_identity())
    d = a1.group_exp(a1.e(0))
    moved = torus_fixed_fiber_points(conjugate(d, h), d)
    assert len(moved) == len(base)
    assert set(moved) != set(base)


def test_torus_fixed_points_need_a_regular_element(a1, a2):
    with pytest.raises(DomainError):
        torus_fixed_fiber_points(a1.zero(), a1.group_identity())
    with pytest.raises(DomainError):
        torus_fixed_fiber_points(a2.e(0), a2.group_identity())


def _levi_blocks(rank: int, I) -> list[int]:
    """Block sizes of the type A Levi: simple root i joins positions i and i + 1."""
    sizes = [1]
    for i in range(1, rank + 1):
        if i in I:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def test_torus_fixed_points_match_the_pair_brute_force_on_a2(a2):
    gen = stream(53, "torus-brute")
    u_plus, u_minus = a2.zero(), a2.zero()
    for k in range(a2.n_pos):
        u_plus = u_plus + a2.e(k).scale(gen.fraction())
        u_minus = u_minus + a2.f(k).scale(gen.fraction())
    t1, t2 = gen.nonzero_fraction(), gen.nonzero_fraction()
    torus = a2.torus_element([t1, t1 * t2])

    d = a2.group_exp(u_plus) * (torus * a2.group_exp(u_minus))
    assert d != a2.group_identity()
    s = a2.from_matrix(Mat([(1, 0, 0), (0, 2, 0), (0, 0, -3)], cols=3))
    xi = conjugate(d, s)

    n = a2.dim
    brute = []
    for I in all_subsets(a2.rank):
        if len(I) == a2.rank:
            continue
        base = fiber_algebra(build_parabolic(a2, I))
        for w1, w2 in product(a2.weyl_representatives(), repeat=2):
            g1, g2 = d * w1, d * w2
            moved = [
                tuple(conjugate(g1, a2.element(row[:n])).coords)
                + tuple(conjugate(g2, a2.element(row[n:])).coords)
                for row in base.basis.row_list()
            ]
            realized = Subspace(2 * n, Mat(moved, cols=2 * n))
            if realized.contains(tuple(xi.coords) * 2) and all(
                realized != r for _, r, _, _ in brute
            ):
                brute.append((I, realized, g1, g2))

    found = torus_fixed_fiber_points(xi, d)
    assert [(q.I, q.realized_fiber, q.g1, q.g2) for q in found] == brute


def test_torus_fixed_orbit_counts_on_a3(a3):
    xi = a3.from_matrix(
        Mat([(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, -6)], cols=4)
    )
    points = torus_fixed_fiber_points(xi, a3.group_identity())
    counts = {}
    for q in points:
        counts[q.I] = counts.get(q.I, 0) + 1
    expected = {
        I: factorial(a3.rank + 1) // prod(factorial(b) for b in _levi_blocks(a3.rank, I))
        for I in all_subsets(a3.rank)
        if len(I) < a3.rank
    }
    assert expected[frozenset({1, 3})] == 6
    assert counts == expected
    assert len(set(points)) == len(points)


def test_weyl_cosets_are_the_first_w_per_fiber_and_cached(any_algebra):
    # one representative per coset of W_I, read off Ad_w h_I, is the first w
    # per distinct realized fiber of (w, w), in Weyl order
    L = any_algebra
    cartan = L.root_system.cartan_matrix.num
    for I in all_subsets(L.rank):
        p = build_parabolic(L, I)
        cosets = weyl_cosets(p)
        assert weyl_cosets(p) is cosets
        size = weyl_group_order(cartan) // weyl_group_order(cartan, [i - 1 for i in I])
        assert len(cosets) == size
        assert list(cosets) == [w for w, _ in _first_w_per_fiber(p)]


def test_torus_fixed_points_match_direct_translation_on_a2(a2):
    gen = stream(59, "torus-direct")
    d = group_sample(a2, gen)
    assert d != a2.group_identity()
    s = a2.from_matrix(Mat([(2, 0, 0), (0, -5, 0), (0, 0, 3)], cols=3))
    found = torus_fixed_fiber_points(conjugate(d, s), d)
    assert len(found) == 12
    for q in found:
        assert q.g1 == q.g2
        direct = make_boundary_point(build_parabolic(a2, q.I), q.g1, q.g2)
        assert q.realized_fiber == direct.realized_fiber


def test_a_moved_torus_builds_no_fiber_and_no_index(a2, a3, monkeypatch):
    # each point is checked through its Weyl coset representative, so the
    # returned points hold no realized fiber, and once the cached subspaces
    # exist a call builds no subspace and no free-column index: at d != 1,
    # at d = 1, and with the cosets found again (cache cleared)
    built, indexed = [], []
    real_init, real_free = Subspace.__init__, Subspace._free_columns

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def free(self):
        if self._free is None:
            indexed.append(self)
        return real_free(self)

    for L in (a2, a3):
        gen = stream(73, f"torus-lazy:{L.descriptor}")
        s = build_principal_triple(L).h
        d = group_sample(L, gen)
        torus_fixed_fiber_points(conjugate(d, s), d)
        d = group_sample(L, gen)
        assert d != L.group_identity()
        for g, cold in ((d, False), (L.group_identity(), False), (d, True)):
            xi = conjugate(g, s)
            if cold:
                weyl_cosets.cache_clear()
            with monkeypatch.context() as m:
                m.setattr(Subspace, "__init__", init)
                m.setattr(Subspace, "_free_columns", free)
                found = torus_fixed_fiber_points(xi, g)
            assert built == [] and indexed == []
            assert len(found) == suites._torus_fixed_count(L)
            assert all(q._fiber is None and q.g1 == q.g2 for q in found)
            assert all(translate_contains(q, (xi, xi)) for q in found)


def test_enumeration_walks_diagonal_translates_only():
    # the pair product over Weyl representatives is gone with the brute force
    assert not hasattr(wonderful, "product")


def test_a_translate_missing_the_torus_pair_is_an_error(monkeypatch):
    # a Weyl word outside N(T) moves the torus pair off the basepoint fibers;
    # the word builder refuses it once per algebra, so the enumeration raises
    # at d = 1 and at a seeded d != 1.  Here the Steinberg word of a fresh A2
    # is exp(e) exp(+f) exp(e), which does not normalize the Cartan
    L = LieAlgebra("A2")
    s = build_principal_triple(L).h
    d = group_sample(L, stream(83, "torus-miss"))
    assert d != L.group_identity()
    real = L.root_product
    monkeypatch.setattr(L, "root_product", lambda factors: real([(i, abs(c)) for i, c in factors]))
    with pytest.raises(ConstructionError):
        L.weyl_representatives()
    for xi, g in ((s, L.group_identity()), (conjugate(d, s), d)):
        with pytest.raises(ConstructionError):
            torus_fixed_fiber_points(xi, g)


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that appends to the returned list on every call."""
    calls, real = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_warm_torus_call_makes_one_conjugate(any_algebra, monkeypatch):
    # eta = Ad(d^-1) xi is the one conjugate: no Weyl word is pulled back per
    # call (the per-word pull-back, 1 + |W| calls, fails this), nothing is
    # eliminated once d^-1 exists, and the witnesses are one product d w per word
    L = any_algebra
    s = build_principal_triple(L).h
    d = group_sample(L, stream(89, f"torus-cost:{L.descriptor}"))
    xi = conjugate(d, s)  # builds d^-1
    torus_fixed_fiber_points(xi, d)
    with monkeypatch.context() as m:
        conjugates = _counting(m, wonderful, "conjugate")
        inverses = _counting(m, Mat, "inverse")
        multiplied = _counting(m, GroupElement, "__mul__")
        found = torus_fixed_fiber_points(xi, d)
    assert len(conjugates) == 1
    assert inverses == []
    assert len(multiplied) == len(L.weyl_representatives())
    assert len(found) == suites._torus_fixed_count(L)


def _swapped_witnesses(xi, d):
    """The torus-fixed points with witnesses w d in place of d w."""
    out = []
    for q in wonderful.torus_fixed_fiber_points(xi, d):
        g = d.inverse() * q.g1 * d
        out.append(wonderful.BoundaryPoint(q.algebra, q.I, g, g))
    return out


def _torus_check(run, name, L, monkeypatch, swap):
    with monkeypatch.context() as m:
        if swap:
            m.setattr(suites, "torus_fixed_fiber_points", _swapped_witnesses)
        (check,) = [c for c in run(L, 1, 1).checks if c.name == name]
    return check.passed, check.total


def test_the_wonderful_suite_checks_every_torus_point(a2, g2, monkeypatch):
    # the enumeration tests no point, so the suite's translate_contains is the
    # per-point check: witnesses w d in place of d w miss the torus pair
    for L in (a2, g2):
        for swap, want in ((False, (1, 1)), (True, (0, 1))):
            got = _torus_check(
                suites.run_wonderful_suite, "torus-fixed boundary points", L, monkeypatch, swap
            )
            assert got == want


def test_the_reduction_suite_checks_every_torus_point(a2, g2, monkeypatch):
    # the reduction suite enumerates at a seeded d != 1, where w d and d w
    # differ, so swapped witnesses fail its membership check too
    for L in (a2, g2):
        for swap, want in ((False, (1, 1)), (True, (0, 1))):
            got = _torus_check(
                suites.run_reduction_suite, "boundary fiber membership", L, monkeypatch, swap
            )
            assert got == want


def test_torus_fixed_counts_from_the_weyl_group(any_algebra):
    # sum over the proper I of |W / W_I|, from the simple reflections on root
    # coordinates, against the frozen counts and the enumeration at the principal h
    L = any_algebra
    count = suites._torus_fixed_count(L)
    assert count == {"A1": 2, "A2": 12, "A3": 74, "B2": 16, "G2": 24}[L.descriptor]
    h = build_principal_triple(L).h
    assert len(torus_fixed_fiber_points(h, L.group_identity())) == count
