"""Chevalley-basis algebras: structure constants, Killing form, group action.

The catalogue is A1, A2, A3, B2, G2.  Dimensions, positive-root counts,
and the small bracket examples are hand-checked; the sweeps (Jacobi,
antisymmetry, invariance) are identities that must hold with no tolerance.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest

from ucz import algebra_from_descriptor, build_algebra, exactlin, liealg, wonderful
from ucz.errors import DomainError, UnsupportedAlgebraError
from ucz.exactlin import Mat
from ucz.liealg import GroupElement, conjugate
from ucz.rng import stream
from ucz.suites import group_sample

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
    k1 = a2.pos_root_index(a2.root_system.simple_roots[0])
    e1 = a2.realize(a2.e(k1))
    assert e1 == Mat.from_rows([(0, 1, 0), (0, 0, 0), (0, 0, 0)], cols=3)
    f1 = a2.realize(a2.f(k1))
    assert f1 == Mat.from_rows([(0, 0, 0), (1, 0, 0), (0, 0, 0)], cols=3)
    h1 = a2.realize(a2.h(0))
    assert h1 == Mat.from_rows([(1, 0, 0), (0, -1, 0), (0, 0, 0)], cols=3)


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


def test_killing_form_symmetric_nondegenerate(any_algebra):
    L = any_algebra
    kappa = L.killing_form()
    assert kappa.transpose() == kappa
    assert kappa.det() != 0


def test_killing_form_invariance(any_algebra):
    L = any_algebra
    kappa = L.killing_form()
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
        Mat.from_rows([(1, 0, 0), (0, 2, 0), (0, 0, -3)], cols=3)
    )
    c = a2.centralizer(x)
    assert c.dim == 2
    assert c == a2.cartan
    assert a2.is_regular(x)


def test_centralizer_of_subregular_element(a2):
    x = a2.from_matrix(
        Mat.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, -2)], cols=3)
    )
    assert a2.centralizer(x).dim == 4
    assert not a2.is_regular(x)


def test_zero_is_not_regular(a2):
    assert not a2.is_regular(a2.zero())


def test_exp_ad_of_zero_is_identity(any_algebra):
    L = any_algebra
    assert L.exp_ad(L.zero()) == Mat.identity(L.dim)


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
    g = GroupElement(Mat.from_rows([(1, t), (0, 1)], cols=2))
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
        GroupElement(Mat.from_rows([(2, 0), (0, 2)], cols=2))


def test_torus_element_and_weyl_representatives(a1, a2):
    t = a1.torus_element((2, Fraction(1, 2)))
    assert t.mat == Mat.from_rows([(2, 0), (0, Fraction(1, 2))], cols=2)
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


def all_fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


def dense_product(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


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
        assert got == Mat.from_rows(dense(x), cols=m)
        assert all_fractions(e for row in got.row_list() for e in row)
        for y in xs[1::3]:
            xy, yx = dense_product(dense(x), dense(y)), dense_product(dense(y), dense(x))
            want = [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(xy, yx)]
            assert L.realize(L.bracket(x, y)) == Mat.from_rows(want, cols=m)


def leibniz_det(mat):
    n = mat.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= mat[(i, j)]
        total += term
    return total


def dense_inverse(rows):
    # Gauss-Jordan on [A | I] over Fraction
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


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
    assert any(g.den > 1 for g in samples)
    ys = [random_element(L, gen) for _ in range(3)] + [L.zero()]
    for g, h, k in zip(samples, samples[1:], samples[2:] + samples[:1]):
        g_rows = g.mat.row_list()
        product = dense_product(g_rows, h.mat.row_list())
        assert (g * h).mat == Mat.from_rows(product, cols=m)
        assert (g * g.inverse()).mat == Mat.identity(m)
        for built in (g * h, g.inverse(), (g * h).inverse()):
            assert leibniz_det(built.mat) == 1
        g_inv = dense_inverse(g_rows)
        assert g.inverse().mat == Mat.from_rows(g_inv, cols=m)
        for y in ys:
            want = dense_product(dense_product(g_rows, L.realize(y).row_list()), g_inv)
            assert L.realize(conjugate(g, y)) == Mat.from_rows(want, cols=m)
        ad_g = wonderful._adjoint_matrix(L, g)
        assert wonderful._adjoint_matrix(L, g * h) == ad_g * wonderful._adjoint_matrix(L, h)
        for j in range(L.dim):
            column = tuple(ad_g[(i, j)] for i in range(L.dim))
            assert column == conjugate(g, L.basis_element(j)).coords
        # equal elements reached by different routes compare and hash equal
        routes = [
            ((g * h) * k, g * (h * k)),
            (GroupElement(Mat.from_rows(g_rows, cols=m)), g),
            (g * g.inverse(), L.group_identity()),
        ]
        for a, b in routes:
            assert a == b and hash(a) == hash(b)
    assert len(set(samples)) == len({g.mat for g in samples})
    with pytest.raises(DomainError):
        GroupElement(Mat.from_rows([(1, 1, 0), (0, 2, 0), (0, 0, 1)], cols=3))
    with pytest.raises(DomainError):
        L.torus_element([2] * m)


def test_group_layer_error_paths_survive(a2):
    with pytest.raises(DomainError):
        a2.group_exp(a2.h(0))
    with pytest.raises(DomainError):
        a2.group_exp(a2.e(0) + a2.f(0))
    diag = Mat.from_rows([(Fraction(2, 3), 0, 0), (0, Fraction(3, 2), 0), (0, 0, 2)], cols=3)
    with pytest.raises(DomainError):
        GroupElement(diag)
    with pytest.raises(DomainError):
        a2.from_matrix(
            Mat.from_rows([(Fraction(1, 2), 1, 0), (0, Fraction(1, 3), 0), (0, 0, 0)], cols=3)
        )
    swap = GroupElement(Mat.from_rows([(0, 1), (-1, 0)], cols=2))
    with pytest.raises(DomainError):
        conjugate(swap, a2.e(0))
    with pytest.raises(DomainError):
        wonderful._adjoint_matrix(a2, swap)
    with pytest.raises(UnsupportedAlgebraError):
        wonderful._adjoint_matrix(algebra_from_descriptor("B2"), swap)


def test_integer_det_and_adjugate_match_the_oracle():
    # Bareiss det against Leibniz, adjugate against det * Gauss-Jordan inverse,
    # on seeded integer matrices with zero pivots and singular cases
    gen = stream(31, "intdet")
    for n in range(1, 5):
        for trial in range(12):
            rows = [[gen.fraction(num_bound=3).numerator for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:
                rows[0][0] = 0
            if trial % 4 == 1 and n > 1:
                rows[-1] = list(rows[0])
            det = leibniz_det(Mat.from_rows(rows, cols=n))
            assert exactlin._int_det(rows) == det
            if det:
                inv = dense_inverse(rows)
                want = tuple(tuple(det * x for x in row) for row in inv)
                assert liealg._int_adjugate(tuple(map(tuple, rows))) == want
