"""Chevalley-basis algebras: structure constants, Killing form, group action.

The catalogue is A1, A2, A3, B2, G2.  Dimensions, positive-root counts,
and the small bracket examples are hand-checked; the sweeps (Jacobi,
antisymmetry, invariance) are identities that must hold with no tolerance.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from ucz import algebra_from_descriptor, build_algebra, exactlin
from ucz.errors import DomainError, UnsupportedAlgebraError
from ucz.exactlin import Mat
from ucz.liealg import Element, GroupElement, LieAlgebra, conjugate
from ucz.rng import stream
from ucz.suites import group_sample, negative_unipotent, positive_unipotent

from .oracles import (
    all_fractions,
    exp_nilpotent,
    identity,
    inverse,
    leibniz_det,
    product,
    trace_product,
)

DIMS = {"A1": 3, "A2": 8, "A3": 15, "B2": 10, "G2": 14}
POS_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "G2": 6}


def random_element(L, gen):
    return L.element([gen.fraction() for _ in range(L.dim)])


def random_nilpos(L, gen):
    coords = [Fraction(0)] * L.dim
    for k in range(L.n_pos):
        coords[L.idx_e(k)] = gen.fraction()
    return L.element(coords)


def test_build_algebra_signature():
    L = build_algebra("A", 1)
    assert L.descriptor == "A1"
    assert L.dim == 3
    assert build_algebra("G", 2).dim == 14


def test_build_algebra_caches():
    assert build_algebra("A", 2) is build_algebra("A", 2)
    assert algebra_from_descriptor("A2") is build_algebra("A", 2)


@pytest.mark.parametrize("bad", ["D4", "A9", "Z2", "A", "", "B0"])
def test_unsupported_descriptors(bad):
    with pytest.raises(UnsupportedAlgebraError):
        algebra_from_descriptor(bad)


def test_dimension_bookkeeping(any_algebra):
    L = any_algebra
    assert L.dim == DIMS[L.descriptor]
    assert L.n_pos == POS_COUNTS[L.descriptor]
    assert L.dim == L.rank + 2 * L.n_pos
    assert L.cartan.dim == L.rank
    assert L.nilpos.dim == L.n_pos
    assert L.nilneg.dim == L.n_pos
    assert L.borel.dim == L.rank + L.n_pos


def test_a1_bracket_relations(a1):
    e, h, f = a1.e(0), a1.h(0), a1.f(0)
    assert a1.bracket(e, f) == h
    assert a1.bracket(h, e) == e.scale(2)
    assert a1.bracket(h, f) == f.scale(-2)


def test_antisymmetry_on_basis(any_algebra):
    L = any_algebra
    basis = [L.basis_element(k) for k in range(L.dim)]
    for i in range(L.dim):
        assert L.bracket(basis[i], basis[i]).is_zero()
        for j in range(i + 1, L.dim):
            assert L.bracket(basis[i], basis[j]) == -L.bracket(basis[j], basis[i])


def test_jacobi_identity_full_sweep(any_algebra):
    L = any_algebra
    basis = [L.basis_element(k) for k in range(L.dim)]
    for x, y, z in combinations(basis, 3):
        total = (
            L.bracket(L.bracket(x, y), z)
            + L.bracket(L.bracket(y, z), x)
            + L.bracket(L.bracket(z, x), y)
        )
        assert total.is_zero()


def test_chevalley_constants_are_integers(any_algebra):
    L = any_algebra
    for i in range(L.dim):
        for j in range(L.dim):
            w = L.bracket(L.basis_element(i), L.basis_element(j))
            assert all(c.denominator == 1 for c in w.coords)


def test_structure_constants_are_ints_of_magnitude_p_plus_one(any_algebra):
    # a Chevalley basis has N_{a,b} = +-(p + 1) whenever a + b is a root, p the
    # largest integer with b - p a a root, counted here from the root set
    rs = any_algebra.root_system
    roots = sorted(set(rs.positive_roots) | {tuple(-m for m in a) for a in rs.positive_roots})
    pairs = 0
    for a in roots:
        for b in roots:
            if tuple(x + y for x, y in zip(a, b)) not in roots:
                continue
            p = 0
            while tuple(y - (p + 1) * x for x, y in zip(a, b)) in roots:
                p += 1
            n = rs.n_constant(a, b)
            assert type(n) is int and abs(n) == p + 1
            pairs += 1
    # A1 has no such pair
    assert pairs or any_algebra.rank == 1


def test_cartan_bracket_is_root_value(any_algebra):
    L = any_algebra
    rs = L.root_system
    for i in range(L.rank):
        h = L.h(i)
        for k, alpha in enumerate(rs.positive_roots):
            assert L.bracket(h, L.e(k)) == L.e(k).scale(rs.pairing(alpha, i))
            assert L.bracket(h, L.f(k)) == L.f(k).scale(-rs.pairing(alpha, i))


def test_a2_simple_brackets_match_matrices(a2):
    e1, e2 = a2.e(0), a2.e(1)
    w = a2.bracket(e1, e2)
    assert not w.is_zero()
    assert a2.realize(w) == (
        a2.realize(e1) * a2.realize(e2) - a2.realize(e2) * a2.realize(e1)
    )


def test_realization_is_a_homomorphism(type_a_algebra):
    L = type_a_algebra
    for i in range(L.dim):
        mi = L.realize(L.basis_element(i))
        for j in range(L.dim):
            mj = L.realize(L.basis_element(j))
            assert L.realize(L.bracket(L.basis_element(i), L.basis_element(j))) == (
                mi * mj - mj * mi
            )


def test_realization_of_simple_generators(a2):
    k1 = a2.root_system.positive_roots.index(a2.root_system.simple_roots[0])
    e1 = a2.realize(a2.e(k1))
    assert e1 == Mat([(0, 1, 0), (0, 0, 0), (0, 0, 0)], cols=3)
    f1 = a2.realize(a2.f(k1))
    assert f1 == Mat([(0, 0, 0), (1, 0, 0), (0, 0, 0)], cols=3)
    h1 = a2.realize(a2.h(0))
    assert h1 == Mat([(1, 0, 0), (0, -1, 0), (0, 0, 0)], cols=3)


def test_from_matrix_roundtrip(type_a_algebra):
    L = type_a_algebra
    gen = stream(3, f"frommat:{L.descriptor}")
    for _ in range(10):
        x = random_element(L, gen)
        assert L.from_matrix(L.realize(x)) == x


def test_from_matrix_rejects_nonzero_trace(a1):
    with pytest.raises(DomainError):
        a1.from_matrix(Mat.identity(2))


def test_realize_unavailable_off_type_a(b2, g2):
    for L in (b2, g2):
        assert not L.has_realization
        with pytest.raises(UnsupportedAlgebraError):
            L.realize(L.e(0))
        with pytest.raises(UnsupportedAlgebraError):
            L.group_identity()


def killing_form(L) -> Mat:
    """kappa_ij = tr(ad b_i ad b_j), from the integer rows of each ad b_i (den 1)."""
    ads = [L.ad(L.basis_element(i)).num for i in range(L.dim)]
    return Mat([[trace_product(a, b) for b in ads] for a in ads], cols=L.dim)


def test_killing_form_symmetric_nondegenerate(any_algebra):
    L = any_algebra
    kappa = killing_form(L)
    assert kappa.transpose() == kappa
    assert kappa.det() != 0


def test_killing_form_invariance(any_algebra):
    L = any_algebra
    kappa = killing_form(L)
    gen = stream(5, f"killing:{L.descriptor}")

    def pair(x, y):
        return sum(
            (
                cx * kappa[(i, j)] * cy
                for i, cx in enumerate(x.coords)
                if cx != 0
                for j, cy in enumerate(y.coords)
                if cy != 0
            ),
            Fraction(0),
        )

    for _ in range(20):
        x, y, z = (random_element(L, gen) for _ in range(3))
        assert pair(L.bracket(x, y), z) == pair(x, L.bracket(y, z))


def test_centralizer_of_zero_is_everything(any_algebra):
    L = any_algebra
    assert L.centralizer(L.zero()).dim == L.dim


def test_centralizer_of_a1_nilpotent(a1):
    c = a1.centralizer(a1.e(0))
    assert c.dim == 1
    assert c.contains(a1.e(0).coords)


def test_centralizer_of_regular_semisimple_is_cartan(a2):
    x = a2.from_matrix(
        Mat([(1, 0, 0), (0, 2, 0), (0, 0, -3)], cols=3)
    )
    c = a2.centralizer(x)
    assert c.dim == 2
    assert c == a2.cartan
    assert a2.is_regular(x)


def test_centralizer_of_subregular_element(a2):
    x = a2.from_matrix(
        Mat([(1, 0, 0), (0, 1, 0), (0, 0, -2)], cols=3)
    )
    assert a2.centralizer(x).dim == 4
    assert not a2.is_regular(x)


def test_zero_is_not_regular(a2):
    assert not a2.is_regular(a2.zero())


def test_is_regular_agrees_with_the_centralizer_dimension(any_algebra):
    # dim - rank(ad x) against dim kernel(ad x), with nilpotent, zero and
    # subregular (a Cartan element on the wall alpha_1 = 0) cases
    L = any_algebra
    gen = stream(89, f"regular-kernel:{L.descriptor}")
    e = sum((L.e(k) for k in range(L.rank)), L.zero())
    cases = [random_element(L, gen) for _ in range(4)] + [random_nilpos(L, gen)]
    cases += [L.zero(), e, L.e(0), L.h(0), L.f(L.n_pos - 1)]
    for _ in range(3):
        cases.append(sum((L.h(k).scale(gen.fraction()) for k in range(L.rank)), L.zero()))
    if L.rank > 1:
        # subregular: alpha_1(t) = 0 exactly for t = A[1][0] h_1 - A[0][0] h_2
        a = L.root_system.cartan_matrix
        wall = L.h(0).scale(a[1, 0]) - L.h(1).scale(a[0, 0])
        assert L.centralizer(wall).dim == L.rank + 2
        cases.append(wall)
    for x in cases:
        assert L.is_regular(x) == (L.centralizer(x).dim == L.rank)
    assert L.is_regular(e) and not L.is_regular(L.zero())


def test_a1_exp_ad_closed_form(a1):
    e, h, f = a1.e(0), a1.h(0), a1.f(0)
    gen = stream(7, "expad")
    for _ in range(10):
        t = gen.fraction()
        moved = a1.exp_ad_apply(e.scale(t), f)
        assert moved == f + h.scale(t) - e.scale(t * t)


def test_conjugation_matches_exp_ad(type_a_algebra):
    L = type_a_algebra
    gen = stream(9, f"conj:{L.descriptor}")
    for _ in range(10):
        u = random_nilpos(L, gen)
        x = random_element(L, gen)
        assert conjugate(L.group_exp(u), x) == L.exp_ad_apply(u, x)


def test_a1_unipotent_conjugation_example(a1):
    t = Fraction(3, 2)
    g = GroupElement(Mat([(1, t), (0, 1)], cols=2))
    f = a1.f(0)
    assert conjugate(g, f) == a1.exp_ad_apply(a1.e(0).scale(t), f)


def test_regularity_is_conjugation_invariant():
    for descriptor in ("A2", "A3"):
        L = algebra_from_descriptor(descriptor)
        gen = stream(11, f"regconj:{descriptor}")
        for _ in range(100):
            x = random_element(L, gen)
            u = random_nilpos(L, gen)
            g = L.group_exp(u)
            assert L.is_regular(x) == L.is_regular(conjugate(g, x))


def test_group_element_must_be_unimodular():
    with pytest.raises(DomainError):
        GroupElement(Mat([(2, 0), (0, 2)], cols=2))


def test_torus_element_and_weyl_representatives(a1, a2):
    t = a1.torus_element((2, Fraction(1, 2)))
    assert t.mat == Mat([(2, 0), (0, Fraction(1, 2))], cols=2)
    with pytest.raises(DomainError):
        a1.torus_element((2, Fraction(1, 2), 1))
    assert len(a1.weyl_representatives()) == 2
    reps = a2.weyl_representatives()
    assert len(reps) == 6
    assert all(r.mat.det() == 1 for r in reps)
    assert len(set(reps)) == 6


# -- zero-aware kernels ------------------------------------------------------------


def sparse_elements(L, seed):
    """Seeded mostly-zero elements: zero, single basis vectors, and sparse mixes."""
    gen = stream(seed, f"sparse:{L.descriptor}")

    def entry(density):
        return gen.nonzero_fraction() if gen.randint(0, 99) < 100 * density else 0

    out = [L.zero(), L.basis_element(0), L.basis_element(L.dim - 1).scale(-2)]
    for density in (0.1, 0.25, 0.5, 1.0):
        out += [L.element([entry(density) for _ in range(L.dim)]) for _ in range(3)]
    return out


def test_sparse_element_arithmetic_matches_the_oracle(any_algebra):
    L = any_algebra
    xs = sparse_elements(L, 3)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        for got, want in (
            (x + y, [a + b for a, b in zip(x.coords, y.coords)]),
            (x - y, [a - b for a, b in zip(x.coords, y.coords)]),
            (x - x, [Fraction(0)] * L.dim),
            (-x, [-a for a in x.coords]),
        ):
            assert list(got.coords) == want and all_fractions(got.coords)
        for c in (0, Fraction(0), 1, Fraction(-5, 3)):
            got = x.scale(c)
            assert list(got.coords) == [Fraction(c) * a for a in x.coords]
            assert all_fractions(got.coords) and got.algebra is L


def test_sparse_bracket_matches_the_bilinear_expansion(any_algebra):
    # [x, y] = sum_ij x_i y_j [b_i, b_j], with the basis brackets for i < j as a
    # dense table and the others from antisymmetry
    L = any_algebra
    n = L.dim
    b = [L.basis_element(i) for i in range(n)]
    table = [[(Fraction(0),) * n] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        table[i][j] = L.bracket(b[i], b[j]).coords
        table[j][i] = tuple(-t for t in table[i][j])
    xs = sparse_elements(L, 5)
    for x in xs:
        for y in xs[::2]:
            want = [Fraction(0)] * n
            for i in range(n):
                for j in range(n):
                    c = x.coords[i] * y.coords[j]
                    want = [w + c * t for w, t in zip(want, table[i][j])] if c else want
            got = L.bracket(x, y)
            assert list(got.coords) == want and all_fractions(got.coords)


def test_sparse_realize_matches_the_dense_sum(type_a_algebra):
    # realize(x) = sum_j x_j R_j, and realize([x, y]) is the matrix commutator
    L = type_a_algebra
    m = L.rank + 1
    basis = [L.realize(L.basis_element(j)) for j in range(L.dim)]

    def dense(x):
        return [
            [sum((c * r[(i, j)] for c, r in zip(x.coords, basis)), Fraction(0)) for j in range(m)]
            for i in range(m)
        ]

    xs = sparse_elements(L, 7)
    for x in xs:
        got = L.realize(x)
        assert got == Mat(dense(x), cols=m)
        assert all_fractions(*got.row_list())
        for y in xs[1::3]:
            xy, yx = product(dense(x), dense(y), m), product(dense(y), dense(x), m)
            want = [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(xy, yx)]
            assert L.realize(L.bracket(x, y)) == Mat(want, cols=m)


def group_inputs(L, gen):
    """Torus elements with fractional entries and exp of multi-root nilpotents."""
    m = L.rank + 1
    out = []
    for _ in range(2):
        entries = [gen.nonzero_fraction(num_bound=5) for _ in range(m - 1)]
        prod = Fraction(1)
        for t in entries:
            prod *= t
        out.append(L.torus_element(entries + [1 / prod]))
    lower = [Fraction(0)] * L.dim
    for k in range(L.n_pos):
        lower[L.idx_f(k)] = gen.nonzero_fraction()
    return out + [L.group_exp(random_nilpos(L, gen)), L.group_exp(L.element(lower))]


def test_products_and_inverses_stay_unimodular(type_a_algebra):
    # det is checked where a matrix enters; products and inverses skip the
    # check.  The integer (N, d) layer is compared with dense Fraction code.
    L = type_a_algebra
    m = L.rank + 1
    gen = stream(17, f"unimodular:{L.descriptor}")
    samples = [group_sample(L, gen) for _ in range(4)] + L.weyl_representatives()[:3]
    samples += group_inputs(L, gen)
    assert any(g.mat.den > 1 for g in samples)
    ys = [random_element(L, gen) for _ in range(3)] + [L.zero()]
    for g, h, k in zip(samples, samples[1:], samples[2:] + samples[:1]):
        g_rows = g.mat.row_list()
        assert (g * h).mat == Mat(product(g_rows, h.mat.row_list(), m), cols=m)
        assert (g * g.inverse()).mat == Mat.identity(m)
        for built in (g * h, g.inverse(), (g * h).inverse()):
            assert leibniz_det(built.mat.row_list()) == 1
        g_inv = inverse(g_rows)
        assert g.inverse().mat == Mat(g_inv, cols=m)
        for y in ys:
            want = product(product(g_rows, L.realize(y).row_list(), m), g_inv, m)
            assert L.realize(conjugate(g, y)) == Mat(want, cols=m)
        ad_g = L.adjoint(g)
        assert L.adjoint(g * h) == ad_g * L.adjoint(h)
        for j in range(L.dim):
            column = tuple(ad_g[(i, j)] for i in range(L.dim))
            assert column == conjugate(g, L.basis_element(j)).coords
        # equal elements reached by different routes compare and hash equal
        routes = [
            ((g * h) * k, g * (h * k)),
            (GroupElement(Mat(g_rows, cols=m)), g),
            (g * g.inverse(), L.group_identity()),
        ]
        for a, b in routes:
            assert a == b and hash(a) == hash(b)
    assert len(set(samples)) == len({g.mat for g in samples})
    with pytest.raises(DomainError):
        GroupElement(Mat([(1, 1, 0), (0, 2, 0), (0, 0, 1)], cols=3))
    with pytest.raises(DomainError):
        L.torus_element([2] * m)


def test_group_inverse_is_the_adjugate_without_elimination(monkeypatch, type_a_algebra):
    # g = N / d has det N = d^m, so g^-1 = adj(N) / d^(m-1): checked against
    # Gauss-Jordan on group samples, root products of both signs, torus
    # elements and every Weyl representative, with Mat.inverse unavailable
    def no_elimination(self):
        raise AssertionError("a group element was inverted by elimination")

    L = type_a_algebra
    m = L.rank + 1
    gen = stream(97, f"adjugate-inverse:{L.descriptor}")
    upper = [(L.idx_e(k), gen.nonzero_fraction()) for k in range(L.n_pos)]
    lower = [(L.idx_f(k), gen.nonzero_fraction()) for k in range(L.n_pos)]
    samples = [group_sample(L, gen) for _ in range(3)]
    samples += [L.root_product(upper), L.root_product(lower), L.root_product(upper + lower)]
    samples += group_inputs(L, gen)[:2] + L.weyl_representatives()
    assert any(g.mat.den > 1 for g in samples)
    monkeypatch.setattr(Mat, "inverse", no_elimination)
    for g in samples:
        g_inv = g.inverse()
        assert g_inv.mat == Mat(inverse(g.mat.row_list()), cols=m)
        assert g_inv.inverse() is g
        assert (g * g_inv).mat == Mat.identity(m)


def test_group_layer_error_paths_survive(a2):
    with pytest.raises(DomainError):
        a2.group_exp(a2.h(0))
    with pytest.raises(DomainError):
        a2.group_exp(a2.e(0) + a2.f(0))
    diag = Mat([(Fraction(2, 3), 0, 0), (0, Fraction(3, 2), 0), (0, 0, 2)], cols=3)
    with pytest.raises(DomainError):
        GroupElement(diag)
    with pytest.raises(DomainError):
        a2.from_matrix(
            Mat([(Fraction(1, 2), 1, 0), (0, Fraction(1, 3), 0), (0, 0, 0)], cols=3)
        )
    swap = GroupElement(Mat([(0, 1), (-1, 0)], cols=2))
    with pytest.raises(DomainError):
        conjugate(swap, a2.e(0))
    with pytest.raises(DomainError):
        a2.adjoint(swap)
    with pytest.raises(UnsupportedAlgebraError):
        algebra_from_descriptor("B2").adjoint(swap)


def test_integer_det_and_adjugate_match_the_oracle():
    # Bareiss det against Leibniz, the adjugate det * inverse against det * Gauss-Jordan
    # inverse, on seeded integer matrices with zero pivots and singular cases
    gen = stream(31, "intdet")
    for n in range(1, 5):
        for trial in range(12):
            rows = [[gen.fraction(num_bound=3).numerator for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:
                rows[0][0] = 0
            if trial % 4 == 1 and n > 1:
                rows[-1] = list(rows[0])
            det = leibniz_det(rows)
            assert exactlin._int_det(rows) == det
            adj = exactlin._int_adjugate(rows)
            assert product(rows, adj, n) == product(adj, rows, n) == [
                [det * x for x in row] for row in identity(n)
            ]
            if det:
                inv = inverse(rows)
                want = tuple(tuple(det * x for x in row) for row in inv)
                assert Mat(rows, cols=n).inverse().scale(det) == Mat(want, cols=n)
                assert Mat(adj, cols=n) == Mat(want, cols=n)


# -- canonical (num, den) form -------------------------------------------------------


def canonical_inputs(L, seed):
    """Seeded (coordinates, values) with denominators up to 7, the zero element first.

    Each coordinate is given as an int, a Fraction, or an unreduced string
    such as "5/10"; `values` holds the same numbers as Fractions.
    """
    rnd = random.Random(seed)
    out = [([0] * L.dim, [Fraction(0)] * L.dim)]
    for _ in range(6):
        coords, values = [], []
        for _ in range(L.dim):
            kind = rnd.randint(0, 3)
            if kind == 0:
                x = rnd.randint(-4, 4)
                coords.append(x)
            else:
                p, q = rnd.randint(-9, 9), rnd.randint(1, 7)
                x = Fraction(p, q)
                coords.append(x if kind == 1 else f"{2 * p}/{2 * q}")
            values.append(Fraction(x))
        out.append((coords, values))
    return out


def assert_canonical_element(x, want):
    """den > 0, gcd(den, num) = 1, and the coordinates are the oracle's Fractions."""
    assert type(x.den) is int and x.den > 0
    assert all(type(a) is int for a in x.num)
    assert gcd(x.den, *x.num) == 1
    assert x.coords == tuple(want) and all_fractions(x.coords)


def oracle_coordinates(L, rows):
    """Chevalley coordinates of a traceless matrix of Fractions, read entry by entry.

    A root vector is realized by one entry v at (r, c), so its coordinate is
    rows[r][c] / v; h_i = E_ii - E_(i+1)(i+1), so the h_i coordinate is the
    sum of the first i + 1 diagonal entries.
    """
    out = []
    for k, (kind, i) in enumerate(L.labels):
        if kind == "h":
            out.append(sum((rows[j][j] for j in range(i + 1)), Fraction(0)))
            continue
        basis = L.realize(L.basis_element(k)).row_list()
        r, c = next((r, c) for r, row in enumerate(basis) for c, v in enumerate(row) if v)
        out.append(rows[r][c] / basis[r][c])
    return out


def test_every_element_operation_returns_the_canonical_integer_form(any_algebra):
    L = any_algebra
    n = L.dim
    b = [L.basis_element(i) for i in range(n)]
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[i][j] = L.bracket(b[i], b[j]).coords
    inputs = canonical_inputs(L, 181 + n)
    gen = stream(191, f"canonical:{L.descriptor}")
    groups = [group_sample(L, gen) for _ in range(2)] if L.has_realization else []
    realized = [L.realize(e).row_list() for e in b] if L.has_realization else []
    for (xc, xv), (yc, yv) in zip(inputs, inputs[1:] + inputs[:1]):
        x, y = L.element(xc), L.element(yc)
        assert_canonical_element(x, xv)
        assert_canonical_element(x + y, [p + q for p, q in zip(xv, yv)])
        assert_canonical_element(x - y, [p - q for p, q in zip(xv, yv)])
        assert_canonical_element(x - x, [Fraction(0)] * n)
        assert_canonical_element(-x, [-p for p in xv])
        for c in (0, Fraction(-3, 5), "7/3"):
            assert_canonical_element(x.scale(c), [Fraction(c) * p for p in xv])
        want = [Fraction(0)] * n
        for i in range(n):
            for j in range(n):
                if xv[i] and yv[j]:
                    want = [w + xv[i] * yv[j] * t for w, t in zip(want, table[i][j])]
        assert_canonical_element(L.bracket(x, y), want)
        if not L.has_realization:
            continue
        assert_canonical_element(L.from_matrix(L.realize(x)), xv)
        m = L.rank + 1
        dense_x = [
            [sum((p * r[i][j] for p, r in zip(xv, realized)), Fraction(0)) for j in range(m)]
            for i in range(m)
        ]
        for g in groups:
            g_rows = g.mat.row_list()
            moved = product(product(g_rows, dense_x, m), inverse(g_rows), m)
            assert_canonical_element(conjugate(g, x), oracle_coordinates(L, moved))


def test_equal_elements_built_different_ways_compare_and_hash_equal(any_algebra):
    L = any_algebra
    for coords, values in canonical_inputs(L, 197):
        x = L.element(coords)
        k = 1 + len(values) % 5
        routes = [
            L.element(values),
            L.element([str(v) for v in values]),
            Element(L, x.num, x.den),
            # integer coordinates with a common factor left in, or over a negative denominator
            Element(L, [k * a for a in x.num], k * x.den),
            Element(L, [-a for a in x.num], -x.den),
            x.scale(3).scale(Fraction(1, 3)),
            -(-x),
            (x + x) - x,
            x + L.zero(),
        ]
        if L.has_realization:
            routes.append(L.from_matrix(L.realize(x)))
        for twin in routes:
            assert twin == x and hash(twin) == hash(x)
            assert (twin.num, twin.den) == (x.num, x.den)
    assert L.element(["5/10"] + [0] * (L.dim - 1)) == L.basis_element(0).scale(Fraction(1, 2))
    assert Element(L, [0] * L.dim, 7) == L.zero() and L.zero().den == 1


def exp_product(L, factors):
    """The oracle product of exp(c realize(b_idx)) over (idx, c), in dense Fractions."""
    m = L.rank + 1
    out = identity(m)
    for idx, c in factors:
        rows = L.realize(L.basis_element(idx)).row_list()
        out = product(out, exp_nilpotent([[c * x for x in row] for row in rows]), m)
    return [tuple(row) for row in out]


def test_root_product_matches_the_exponential_series(type_a_algebra):
    L = type_a_algebra
    gen = stream(43, f"rootproduct:{L.descriptor}")
    roots = [L.idx_e(k) for k in range(L.n_pos)] + [L.idx_f(k) for k in range(L.n_pos)]
    for idx in roots:
        drawn = [gen.nonzero_fraction(num_bound=5, dens=(2, 3, 5)) for _ in range(2)]
        for c in drawn + [Fraction(-7, 3), 1, -2]:
            got = L.root_product([(idx, c)]).mat.row_list()
            assert all_fractions(*got)
            assert got == exp_product(L, [(idx, c)])
    # sequences drawn the way _unipotent draws them, then mixed ones with
    # repeated roots, which are not triangular
    for seed in range(4):
        for index, sampler in ((L.idx_e, positive_unipotent), (L.idx_f, negative_unipotent)):
            draw = stream(seed, f"unipotent:{L.descriptor}")
            factors = [(index(k), draw.fraction(num_bound=3)) for k in range(L.n_pos)]
            g = L.root_product(factors)
            assert g.mat.row_list() == exp_product(L, factors)
            assert g == sampler(L, stream(seed, f"unipotent:{L.descriptor}"))
            before = L.group_identity()
            for idx, c in factors:
                before = before * L.group_exp(L.basis_element(idx).scale(c))
            assert g == before
    for _ in range(4):
        factors = [(gen.choice(roots), gen.fraction(num_bound=4)) for _ in range(2 * L.n_pos)]
        got = L.root_product(factors).mat.row_list()
        assert got == exp_product(L, factors)
        assert leibniz_det(got) == 1


def test_root_product_sums_higher_powers():
    # a root vector realized with R^2 != 0, as G2's short roots will be: a
    # fresh A2 whose e1 realizes as the principal nilpotent E12 + E23
    L = LieAlgebra("A2")
    idx = L.idx_e(0)
    L._realization = list(L._realization)
    L._realization[idx] = ((0, 1, 1), (1, 2, 1))
    jordan = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    gen = stream(47, "rootpowers")
    for c in [gen.nonzero_fraction(dens=(2, 3, 5)) for _ in range(4)] + [Fraction(-5, 2)]:
        want = exp_nilpotent([[c * x for x in row] for row in jordan])
        assert L.root_product([(idx, c)]).mat.row_list() == [tuple(row) for row in want]
        f = L.realize(L.f(1)).row_list()
        want = product(want, exp_nilpotent([[-c * x for x in row] for row in f]), 3)
        got = L.root_product([(idx, c), (L.idx_f(1), -c)]).mat.row_list()
        assert got == [tuple(row) for row in want]


def test_root_product_edges(a2, b2):
    assert a2.root_product([]) == a2.group_identity()
    assert a2.root_product([(a2.idx_e(1), 0), (a2.idx_f(0), Fraction(0))]).is_identity()
    for bad in (a2.idx_h(0), a2.idx_h(1), a2.dim, -1):
        for c in (1, 0):
            with pytest.raises(DomainError):
                a2.root_product([(a2.idx_e(0), 1), (bad, c)])
    with pytest.raises(UnsupportedAlgebraError):
        b2.root_product([])
    with pytest.raises(UnsupportedAlgebraError):
        b2.root_product([(b2.idx_e(0), 1)])


def test_group_element_accepts_exactly_the_det_one_matrices():
    # a triangular matrix is checked by its diagonal product, any other by
    # Bareiss; both must agree with the Leibniz determinant
    shapes = {
        "upper": lambda i, j: i <= j,
        "lower": lambda i, j: i >= j,
        "diagonal": lambda i, j: i == j,
        "full": lambda i, j: True,
    }
    gen = stream(41, "detone")
    seen = set()
    for n in (3, 4):
        for name, keep in shapes.items():
            for trial in range(16):
                rows = [
                    [gen.fraction(num_bound=4) if keep(i, j) else Fraction(0) for j in range(n)]
                    for i in range(n)
                ]
                if name == "full":
                    rows[0][n - 1] = gen.nonzero_fraction()
                    rows[n - 1][0] = gen.nonzero_fraction()
                det = leibniz_det(rows)
                if det and trial % 4 != 3:
                    # scale the first row to det 1, or to det -1
                    target = -1 if trial % 4 == 2 else 1
                    rows[0] = [x * target / det for x in rows[0]]
                want = leibniz_det(rows) == 1
                try:
                    g = GroupElement(Mat(rows, cols=n))
                except DomainError:
                    got = False
                else:
                    got = True
                    assert g.mat.row_list() == [tuple(row) for row in rows]
                assert got == want
                seen.add((name, got))
    assert seen == {(name, ok) for name in shapes for ok in (True, False)}
    half = Fraction(1, 2)
    assert GroupElement(Mat([(2, 0, 0), (0, half, 0), (0, 0, 1)], cols=3))
    for rows in ([(2, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 5, 0), (0, -1, 0), (0, 0, 1)]):
        with pytest.raises(DomainError):
            GroupElement(Mat(rows, cols=3))


def test_triangular_group_elements_skip_bareiss(monkeypatch, a2):
    # root products of one sign, exp of n and n-, and torus elements are
    # triangular, so their det check reads the diagonal and never calls det
    def no_det(self):
        raise AssertionError("Bareiss det called on a triangular matrix")

    gen = stream(53, "triangular")
    upper = [(a2.idx_e(k), gen.nonzero_fraction()) for k in range(a2.n_pos)]
    lower = [(a2.idx_f(k), gen.nonzero_fraction()) for k in range(a2.n_pos)]
    monkeypatch.setattr(Mat, "det", no_det)
    built = [
        a2.root_product(upper),
        a2.root_product(lower),
        a2.group_exp(random_nilpos(a2, gen)),
        a2.torus_element([2, Fraction(-1, 3), Fraction(-3, 2)]),
    ]
    assert all(leibniz_det(g.mat.row_list()) == 1 for g in built)
    with pytest.raises(AssertionError):
        a2.root_product(upper + lower)
