"""Chevalley-basis algebras: structure constants, Killing form, group action.

The catalogue is A1, A2, A3, B2, G2.  Dimensions, positive-root counts,
and the small bracket examples are hand-checked; the sweeps (Jacobi,
antisymmetry, invariance) are identities that must hold with no tolerance.
"""

import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from ucz import ALGEBRA_DESCRIPTORS, algebra_from_descriptor, build_algebra
from ucz.errors import ConstructionError, DomainError, UnsupportedAlgebraError
from ucz.exactlin import Mat
from ucz.liealg import Element, GroupElement, LieAlgebra, conjugate
from ucz.rng import stream
from ucz.suites import group_sample, negative_unipotent, positive_unipotent

from .oracles import (
    all_fractions,
    coroot,
    elimination_det,
    exp_nilpotent,
    gauss_jordan,
    identity,
    inverse,
    leibniz_det,
    product,
    positive_roots as oracle_positive_roots,
    span_coordinates,
    trace_product,
    weyl_group_order,
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
    assert algebra_from_descriptor(" a2 ") is build_algebra("A", 2)


@pytest.mark.parametrize("bad", ["D4", "A9", "Z2", "A", "", "B0", "A²", "A٣", "A01"])
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
        assert L.bracket(basis[i], basis[i]) == L.zero()
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
        assert total == L.zero()


def test_chevalley_constants_are_integers(any_algebra):
    L = any_algebra
    for i in range(L.dim):
        for j in range(L.dim):
            w = L.bracket(L.basis_element(i), L.basis_element(j))
            assert all(c.denominator == 1 for c in w.coords)


def _root_vector(L, alpha):
    """e_alpha for a positive root alpha, f_-alpha for a negative one."""
    pos = L.root_system.positive_roots
    if alpha in pos:
        return L.e(pos.index(alpha))
    return L.f(pos.index(tuple(-m for m in alpha)))


def _structure_constant(L, a, b):
    """N_{a,b} with [e_a, e_b] = N_{a,b} e_{a+b}, read off the bracket."""
    w = _root_vector(L, tuple(x + y for x, y in zip(a, b)))
    got = L.bracket(_root_vector(L, a), _root_vector(L, b))
    (k,) = [k for k, c in enumerate(w.coords) if c]
    n = got.coords[k]
    assert got == w.scale(n)
    return n


def _string_length(a, b, roots):
    """p, the largest integer with b - p a in the root set."""
    p = 0
    while tuple(y - (p + 1) * x for x, y in zip(a, b)) in roots:
        p += 1
    return p


def test_chevalley_basis_matches_root_data(any_algebra):
    # against root data computed here from the Cartan matrix alone:
    # [e_a, f_a] is the coroot of a in simple coroots, and the extraspecial
    # pair (a, b) of each non-simple positive root, a the first positive root
    # in (height, coordinates) order with b positive, has N_{a,b} = p + 1
    # and N_{-a,-b} = -(p + 1); and Chevalley's law holds on every pair of
    # roots whose sum is a root: N_{a,b} is an integer, |N_{a,b}| = p + 1 and
    # N_{-a,-b} = -N_{a,b}
    L = any_algebra
    cartan = [[int(x) for x in row] for row in L.root_system.cartan_matrix.row_list()]
    pos = oracle_positive_roots(cartan)
    assert pos == L.root_system.positive_roots
    roots = set(pos) | {tuple(-m for m in a) for a in pos}
    for alpha in pos:
        c = coroot(cartan, alpha)
        assert all(x.denominator == 1 for x in c)
        h = L.element([0] * L.n_pos + c + [0] * L.n_pos)
        assert L.bracket(_root_vector(L, alpha), _root_vector(L, tuple(-m for m in alpha))) == h
    for gamma in pos:
        if sum(gamma) < 2:
            continue
        a = next(a for a in pos if tuple(g - x for g, x in zip(gamma, a)) in pos)
        b = tuple(g - x for g, x in zip(gamma, a))
        p = _string_length(a, b, roots)
        assert _structure_constant(L, a, b) == p + 1
        neg = tuple(-x for x in a), tuple(-y for y in b)
        assert _structure_constant(L, *neg) == -(p + 1)
    pairs = 0
    for a in roots:
        for b in roots:
            if tuple(x + y for x, y in zip(a, b)) in roots:
                n = _structure_constant(L, a, b)
                assert n.denominator == 1 and abs(n) == _string_length(a, b, roots) + 1
                neg = tuple(-x for x in a), tuple(-y for y in b)
                assert _structure_constant(L, *neg) == -n
                pairs += 1
    # A1 has no such pair
    assert pairs or L.rank == 1


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
    assert w != a2.zero()
    assert a2.realize(w) == (
        a2.realize(e1) * a2.realize(e2) - a2.realize(e2) * a2.realize(e1)
    )


def test_realization_is_a_homomorphism(any_algebra):
    # every basis bracket of the structure table is the commutator of the
    # realized basis vectors, multiplied by the oracle; the realization is
    # faithful, each h_i diagonal and each positive root vector strictly
    # upper triangular
    L = any_algebra
    m = L.matrix_size
    rows = [L.realize(L.basis_element(i)).row_list() for i in range(L.dim)]
    for i in range(L.dim):
        for j in range(L.dim):
            ij, ji = product(rows[i], rows[j], m), product(rows[j], rows[i], m)
            commutator = [tuple(x - y for x, y in zip(r, s)) for r, s in zip(ij, ji)]
            got = L.realize(L.bracket(L.basis_element(i), L.basis_element(j)))
            assert got.row_list() == commutator
    assert len(gauss_jordan([[x for row in r for x in row] for r in rows], m * m)[1]) == L.dim
    for i in range(L.rank):
        h = rows[L.idx_h(i)]
        assert all(not h[r][c] for r in range(m) for c in range(m) if r != c)
    for k in range(L.n_pos):
        e = rows[L.idx_e(k)]
        assert all(not e[r][c] for r in range(m) for c in range(r + 1))


def test_a_non_integral_structure_table_is_refused():
    # the table is read off the commutators over the readout denominator D;
    # read over 2 D every odd structure constant leaves a denominator 2
    L = LieAlgebra("A2")
    span, readout, den = L._readback
    L._readback = (span, readout, 2 * den)
    with pytest.raises(ConstructionError, match="the structure table must be integral"):
        L._table


def test_realization_of_simple_generators(a2):
    k1 = a2.root_system.positive_roots.index(a2.root_system.simple_roots[0])
    e1 = a2.realize(a2.e(k1))
    assert e1 == Mat([(0, 1, 0), (0, 0, 0), (0, 0, 0)], cols=3)
    f1 = a2.realize(a2.f(k1))
    assert f1 == Mat([(0, 0, 0), (1, 0, 0), (0, 0, 0)], cols=3)
    h1 = a2.realize(a2.h(0))
    assert h1 == Mat([(1, 0, 0), (0, -1, 0), (0, 0, 0)], cols=3)


def test_from_matrix_roundtrip(any_algebra):
    L = any_algebra
    gen = stream(3, f"frommat:{L.descriptor}")
    for _ in range(10):
        x = random_element(L, gen)
        assert L.from_matrix(L.realize(x)) == x


def test_from_matrix_rejects_nonzero_trace(a1):
    with pytest.raises(DomainError):
        a1.from_matrix(Mat.identity(2))


def test_read_back_refuses_every_matrix_off_the_realized_span(any_algebra):
    # a realized element moved by t in one entry is read back exactly when the
    # oracle finds the moved matrix in the span of the realized basis.  The
    # realization is traceless, so every diagonal move is refused; for sl_m,
    # the traceless matrices, only those are.
    L = any_algebra
    m = L.matrix_size
    basis = [L.realize(L.basis_element(k)).row_list() for k in range(L.dim)]
    flat = [[x for row in b for x in row] for b in basis]

    def inside(rows):
        return span_coordinates(flat, [x for row in rows for x in row]) is not None

    gen = stream(59, f"readback:{L.descriptor}")
    refused = 0
    for _ in range(4):
        x = random_element(L, gen)
        rows = [list(row) for row in L.realize(x).row_list()]
        for r in range(m):
            for c in range(m):
                moved = [list(row) for row in rows]
                moved[r][c] += gen.nonzero_fraction()
                mat = Mat(moved, cols=m)
                if inside(moved):
                    assert L.realize(L.from_matrix(mat)) == mat
                else:
                    with pytest.raises(DomainError, match="outside the realized algebra"):
                        L.from_matrix(mat)
                    refused += 1
    assert refused >= 4 * m and (refused == 4 * m) == (L.dim == m * m - 1)
    # conjugate reads g Y g^-1 back; with a wrong cached inverse h, g Y h
    # must be refused when it leaves the realized span
    for _ in range(3):
        g, h = group_sample(L, gen), group_sample(L, gen)
        object.__setattr__(g, "_inv", h)
        g_rows, h_rows = g.mat.row_list(), h.mat.row_list()

        def moved(y_rows):
            return product(product(g_rows, y_rows, m), h_rows, m)

        y = random_element(L, gen)
        assert not inside(moved(L.realize(y).row_list()))
        with pytest.raises(DomainError, match="outside the realized algebra"):
            conjugate(g, y)


def test_weyl_representatives_cover_the_weyl_group(any_algebra):
    # one monomial element per Weyl group element, |W| from the oracle's
    # reflection group, the identity first; each Ad_w carries the Cartan onto
    # itself and every root space onto a root space
    L = any_algebra
    cartan = L.root_system.cartan_matrix.num
    reps = L.weyl_representatives()
    assert len(reps) == weyl_group_order(cartan)
    assert reps[0] == L.group_identity()
    supports = set()
    for w in reps:
        rows = w.mat.row_list()
        assert all(sum(1 for x in row if x) == 1 for row in rows)
        assert all(sum(1 for x in col if x) == 1 for col in zip(*rows))
        assert elimination_det(rows) == 1
        supports.add(tuple(tuple(bool(x) for x in row) for row in rows))
        for i in range(L.rank):
            assert L.cartan.contains(conjugate(w, L.h(i)).num)
        for k in range(L.n_pos):
            for x in (L.e(k), L.f(k)):
                moved = conjugate(w, x).num
                assert sum(1 for c in moved if c) == 1
                assert not L.cartan.contains([int(c != 0) for c in moved])
    assert len(supports) == len(reps)


def test_torus_elements_are_the_coroot_cocharacters(any_algebra):
    # diagonal entry k of prod_i alpha_i^vee(t_i) is prod_i t_i^(h_i[k][k]) for
    # the realized h_i, and Ad_t, read back through the realization, scales
    # e_alpha by alpha(t) = prod_i t_i^<alpha, alpha_i^vee> and fixes the Cartan
    L = any_algebra
    rs = L.root_system
    m = L.matrix_size
    hs = [L.realize(L.h(i)).row_list() for i in range(L.rank)]
    gen = stream(71, f"torus:{L.descriptor}")
    for _ in range(3):
        ts = [gen.nonzero_fraction(num_bound=4) for _ in range(L.rank)]
        t = L.torus_element(ts)
        diagonal = [prod(ti ** int(h[k][k]) for ti, h in zip(ts, hs)) for k in range(m)]
        assert t.mat.row_list() == [
            tuple(diagonal[r] if r == c else 0 for c in range(m)) for r in range(m)
        ]
        for k, alpha in enumerate(rs.positive_roots):
            value = prod(ti ** rs.pairing(alpha, i) for i, ti in enumerate(ts))
            assert conjugate(t, L.e(k)) == L.e(k).scale(value)
            assert conjugate(t, L.f(k)) == L.f(k).scale(1 / value)
        assert all(conjugate(t, L.h(i)) == L.h(i) for i in range(L.rank))
    with pytest.raises(DomainError):
        L.torus_element([2] * (L.rank + 1))
    with pytest.raises(DomainError):
        L.torus_element([0] + [1] * (L.rank - 1))


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


def test_conjugation_matches_exp_ad(any_algebra):
    L = any_algebra
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


def test_weyl_order_matches_the_reflection_group(any_algebra):
    rs = any_algebra.root_system
    l = any_algebra.rank
    for size in range(l + 1):
        for J in combinations(range(l), size):
            assert rs.weyl_order(J) == weyl_group_order(rs.cartan_matrix.num, J)


def test_torus_element_and_weyl_representatives(a1, a2):
    t = a1.torus_element((2,))
    assert t.mat == Mat([(2, 0), (0, Fraction(1, 2))], cols=2)
    assert a2.torus_element((2, Fraction(-2, 3))).mat == Mat(
        [(2, 0, 0), (0, Fraction(-1, 3), 0), (0, 0, Fraction(-3, 2))], cols=3
    )
    with pytest.raises(DomainError):
        a1.torus_element((2, Fraction(1, 2)))
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


def test_sparse_realize_matches_the_dense_sum(any_algebra):
    # realize(x) = sum_j x_j R_j, and realize([x, y]) is the matrix commutator
    L = any_algebra
    m = L.matrix_size
    basis = [L.realize(L.basis_element(j)) for j in range(L.dim)]

    def dense(x):
        return [
            [sum((c * r[(i, j)] for c, r in zip(x.coords, basis)), Fraction(0)) for j in range(m)]
            for i in range(m)
        ]

    xs = sparse_elements(L, 7)
    dense_xs = [dense(x) for x in xs]
    for x, dx in zip(xs, dense_xs):
        got = L.realize(x)
        assert got == Mat(dx, cols=m)
        assert all_fractions(*got.row_list())
        for y, dy in zip(xs[1::3], dense_xs[1::3]):
            xy, yx = product(dx, dy, m), product(dy, dx, m)
            want = [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(xy, yx)]
            assert L.realize(L.bracket(x, y)) == Mat(want, cols=m)


def group_inputs(L, gen):
    """Torus elements with fractional entries and exp of multi-root nilpotents."""
    out = [
        L.torus_element([gen.nonzero_fraction(num_bound=5) for _ in range(L.rank)])
        for _ in range(2)
    ]
    lower = [Fraction(0)] * L.dim
    for k in range(L.n_pos):
        lower[L.idx_f(k)] = gen.nonzero_fraction()
    return out + [L.group_exp(random_nilpos(L, gen)), L.group_exp(L.element(lower))]


def test_products_and_inverses_stay_unimodular(any_algebra):
    # det is checked where a matrix enters; products and inverses skip the
    # check.  The integer (N, d) layer is compared with dense Fraction code.
    L = any_algebra
    m = L.matrix_size
    gen = stream(17, f"unimodular:{L.descriptor}")
    samples = [group_sample(L, gen) for _ in range(4)] + [*L.weyl_representatives()[:3]]
    samples += group_inputs(L, gen)
    assert any(g.mat.den > 1 for g in samples)
    ys = [random_element(L, gen) for _ in range(3)] + [L.zero()]
    for g, h, k in zip(samples, samples[1:], samples[2:] + samples[:1]):
        g_rows = g.mat.row_list()
        assert (g * h).mat == Mat(product(g_rows, h.mat.row_list(), m), cols=m)
        assert (g * g.inverse()).mat == Mat.identity(m)
        for built in (g * h, g.inverse(), (g * h).inverse()):
            assert elimination_det(built.mat.row_list()) == 1
        g_inv = inverse(g_rows)
        assert g.inverse().mat == Mat(g_inv, cols=m)
        for y in ys:
            want = product(product(g_rows, L.realize(y).row_list(), m), g_inv, m)
            assert L.realize(conjugate(g, y)) == Mat(want, cols=m)
            # Ad_(g h) = Ad_g Ad_h
            assert conjugate(g * h, y) == conjugate(g, conjugate(h, y))
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
        L.torus_element([0] * L.rank)


def test_group_inverse_matches_gauss_jordan(any_algebra):
    # g^-1 against the Gauss-Jordan oracle on group samples, root products
    # of both signs, torus elements and every Weyl representative
    L = any_algebra
    m = L.matrix_size
    gen = stream(97, f"adjugate-inverse:{L.descriptor}")
    upper = [(L.idx_e(k), gen.nonzero_fraction()) for k in range(L.n_pos)]
    lower = [(L.idx_f(k), gen.nonzero_fraction()) for k in range(L.n_pos)]
    samples = [group_sample(L, gen) for _ in range(3)]
    samples += [L.root_product(upper), L.root_product(lower), L.root_product(upper + lower)]
    samples += [*group_inputs(L, gen)[:2], *L.weyl_representatives()]
    assert any(g.mat.den > 1 for g in samples)
    for g in samples:
        g_inv = g.inverse()
        assert g_inv.mat == Mat(inverse(g.mat.row_list()), cols=m)
        assert g_inv.inverse() is g
        assert (g * g_inv).mat == Mat.identity(m)


def test_an_inverse_links_back_weakly(a2, monkeypatch):
    # g holds its inverse and the inverse links back to g weakly: while g
    # lives g^-1^-1 is g with no second elimination, and the pair is freed by
    # reference counting alone, with the cyclic collector off
    eliminations = []
    real_inverse = Mat.inverse
    monkeypatch.setattr(Mat, "inverse", lambda m: eliminations.append(m) or real_inverse(m))
    g = group_sample(a2, stream(19, "weak-inverse"))
    g_inv = g.inverse()
    assert g_inv.inverse() is g and g.inverse() is g_inv
    assert len(eliminations) == 1
    probe = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert probe() is None
    finally:
        gc.enable()
    # with g gone, its inverse's inverse is eliminated again, and equal
    again = g_inv.inverse()
    assert len(eliminations) == 2 and again * g_inv == a2.group_identity()
    assert again.inverse() is g_inv


def test_group_layer_error_paths_survive(a1, a2):
    with pytest.raises(ZeroDivisionError, match="element denominator"):
        Element(a2, a2.e(0).num, 0)
    with pytest.raises(DomainError, match="wrong length"):
        Element(a2, a1.e(0).num, 1)
    with pytest.raises(DomainError, match="different algebras"):
        a2.bracket(a1.e(0), a2.e(0))
    with pytest.raises(DomainError, match="different algebras"):
        a2.bracket(a2.e(0), a1.e(0))
    with pytest.raises(DomainError, match="ad-nilpotent"):
        a2.exp_ad_apply(a2.h(0), a2.e(0))
    with pytest.raises(DomainError, match="must be square"):
        GroupElement(Mat([(1, 0, 0), (0, 1, 0)], cols=3))
    with pytest.raises(DomainError, match="wrong shape"):
        a2.from_matrix(Mat.identity(2))
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
    with pytest.raises(DomainError, match="wrong size"):
        conjugate(swap, algebra_from_descriptor("B2").e(0))


def test_integer_det_and_adjugate_match_the_oracle():
    # Mat.det against Leibniz, det * Mat.inverse against det * the Gauss-Jordan
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
            assert Mat(rows, cols=n).det() == det
            if det:
                inv = inverse(rows)
                want = tuple(tuple(det * x for x in row) for row in inv)
                assert Mat(rows, cols=n).inverse().scale(det) == Mat(want, cols=n)


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


def oracle_coordinates(realized, rows):
    """Chevalley coordinates of a matrix of Fractions in the span of the realized basis."""
    flat = [[x for row in b for x in row] for b in realized]
    coords = span_coordinates(flat, [x for row in rows for x in row])
    assert coords is not None
    return coords


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
    groups = [group_sample(L, gen) for _ in range(2)]
    realized = [L.realize(e).row_list() for e in b]
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
        assert_canonical_element(L.from_matrix(L.realize(x)), xv)
        m = L.matrix_size
        dense_x = [
            [sum((p * r[i][j] for p, r in zip(xv, realized)), Fraction(0)) for j in range(m)]
            for i in range(m)
        ]
        for g in groups:
            g_rows = g.mat.row_list()
            moved = product(product(g_rows, dense_x, m), inverse(g_rows), m)
            assert_canonical_element(conjugate(g, x), oracle_coordinates(realized, moved))


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
            L.from_matrix(L.realize(x)),
        ]
        for twin in routes:
            assert twin == x and hash(twin) == hash(x)
            assert (twin.num, twin.den) == (x.num, x.den)
    assert L.element(["5/10"] + [0] * (L.dim - 1)) == L.basis_element(0).scale(Fraction(1, 2))
    assert Element(L, [0] * L.dim, 7) == L.zero() and L.zero().den == 1


def exp_product(L, factors):
    """The oracle product of exp(c realize(b_idx)) over (idx, c), in dense Fractions."""
    m = L.matrix_size
    out = identity(m)
    for idx, c in factors:
        rows = L.realize(L.basis_element(idx)).row_list()
        out = product(out, exp_nilpotent([[c * x for x in row] for row in rows]), m)
    return [tuple(row) for row in out]


def test_root_product_matches_the_exponential_series(any_algebra):
    L = any_algebra
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
        assert elimination_det(got) == 1


def test_root_product_sums_higher_powers():
    # a root vector realized with R^2 != 0, as G2's short roots are: a
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
    assert a2.root_product([(a2.idx_e(1), 0), (a2.idx_f(0), Fraction(0))]) == a2.group_identity()
    for bad in (a2.idx_h(0), a2.idx_h(1), a2.dim, -1):
        for c in (1, 0):
            with pytest.raises(DomainError):
                a2.root_product([(a2.idx_e(0), 1), (bad, c)])
    assert b2.root_product([]) == b2.group_identity()
    assert b2.root_product([(b2.idx_e(0), 1), (b2.idx_e(0), -1)]) == b2.group_identity()
    with pytest.raises(DomainError):
        b2.root_product([(b2.idx_h(0), 1)])


def test_group_element_accepts_exactly_the_det_one_matrices():
    # triangular and full matrices alike are checked by Mat.det, which must
    # agree with the Leibniz determinant
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


def test_library_built_group_elements_skip_the_det_check(monkeypatch):
    # root products of one sign and of mixed signs, exp of n and n-, torus
    # elements and every Weyl representative are unimodular by construction,
    # so building them never calls det, and the oracle's elimination det is 1
    def no_det(self):
        raise AssertionError("det called on a library-built group element")

    gen = stream(53, "triangular")
    monkeypatch.setattr(Mat, "det", no_det)
    for name in ALGEBRA_DESCRIPTORS:
        L = algebra_from_descriptor(name)
        upper = [(L.idx_e(k), gen.nonzero_fraction()) for k in range(L.n_pos)]
        lower = [(L.idx_f(k), gen.nonzero_fraction()) for k in range(L.n_pos)]
        built = [
            L.root_product(upper),
            L.root_product(lower),
            L.root_product(upper + lower + upper[:1]),
            *group_inputs(L, gen),
            *L.weyl_representatives(),
        ]
        assert all(elimination_det(g.mat.row_list()) == 1 for g in built), name


# -- the adjoint action on integer rows ---------------------------------------------


def fraction_element(L, gen, indices):
    """Non-integral coordinates over 2, 3 or 5 at the indices, zero elsewhere."""
    coords = [Fraction(0)] * L.dim
    for j in indices:
        while coords[j].denominator == 1:
            coords[j] = gen.nonzero_fraction(num_bound=5, dens=(2, 3, 5))
    return L.element(coords)


def dense_realization(L, x):
    """sum_j x_j R_j in dense Fractions over the realized basis R_j."""
    m = L.matrix_size
    out = [[Fraction(0)] * m for _ in range(m)]
    for j, c in enumerate(x.coords):
        if c:
            rows = L.realize(L.basis_element(j)).row_list()
            out = [[a + c * b for a, b in zip(r1, r2)] for r1, r2 in zip(out, rows)]
    return out


def test_exp_ad_apply_is_conjugation_by_the_exponential_series(any_algebra):
    # oracle: exp(U) Y exp(-U) from `exp_nilpotent` in dense Fractions, read
    # back by Gauss-Jordan; u has denominators 2, 3, 5, so d_u > 1 and
    # (ad U)^k Y != 0 for some k >= 1.  Kills a dropped d_u^(K-k) weight (every
    # term over d_u^K) and a dropped K!/k! (every term over K!)
    L = any_algebra
    m = L.matrix_size
    gen = stream(211, f"expad-oracle:{L.descriptor}")
    realized = [L.realize(L.basis_element(j)).row_list() for j in range(L.dim)]
    nilpotents = [range(L.n_pos), [L.idx_f(k) for k in range(L.n_pos)], [L.idx_e(L.n_pos - 1)]]
    for indices in nilpotents:
        for _ in range(2):
            u = fraction_element(L, gen, indices)
            y = fraction_element(L, gen, range(L.dim))
            assert u.den > 1 and y.den > 1
            big_u = dense_realization(L, u)
            minus_u = [[-x for x in row] for row in big_u]
            moved = product(
                product(exp_nilpotent(big_u), dense_realization(L, y), m), exp_nilpotent(minus_u), m
            )
            assert_canonical_element(L.exp_ad_apply(u, y), oracle_coordinates(realized, moved))


def test_conjugate_and_torus_element_match_plain_fraction_products(any_algebra):
    # oracles: the diagonal prod_i t_i^(h_i[k][k]) by Fraction powers, which
    # are negative on part of every h_i, and g Y g^-1 by Fraction products and
    # the Gauss-Jordan inverse.  Kills a torus entry built as t^|v| for
    # v < 0, a sign lost on a negative t's denominator, and a conjugate read
    # back without the denominator of g or of g^-1
    L = any_algebra
    m = L.matrix_size
    gen = stream(223, f"conj-oracle:{L.descriptor}")
    realized = [L.realize(L.basis_element(j)).row_list() for j in range(L.dim)]
    h_diagonals = [[row[k] for k, row in enumerate(realized[L.idx_h(i)])] for i in range(L.rank)]
    assert all(min(diag) < 0 < max(diag) for diag in h_diagonals)
    for _ in range(3):
        ts = [gen.nonzero_fraction(num_bound=5, dens=(2, 3, 5)) for _ in range(L.rank)]
        ts[0] = -abs(ts[0])
        want = identity(m)
        for t, diag in zip(ts, h_diagonals):
            for k, v in enumerate(diag):
                want[k][k] *= t ** int(v)
        torus = L.torus_element(ts)
        assert torus.mat.row_list() == [tuple(row) for row in want]
        sample = group_sample(L, gen)
        for g in (torus, sample, torus * sample):
            rows = g.mat.row_list()
            y = fraction_element(L, gen, range(L.dim))
            moved = product(product(rows, dense_realization(L, y), m), inverse(rows), m)
            assert_canonical_element(conjugate(g, y), oracle_coordinates(realized, moved))
