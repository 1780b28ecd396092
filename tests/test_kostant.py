"""Principal triples, the slice f + g^e, normalization, and invariants.

Frozen oracles: the principal h matrices diag(2,0,-2) and diag(3,1,-1,-3),
the coefficient vectors (4,3) for B2 and (6,10) for G2 read off the
transposed Cartan systems, the exponent tables, and the char-poly
coefficients of diag(1,2,-3), all checked by hand.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest

from ucz import algebra_from_descriptor
from ucz.errors import ConstructionError, DomainError
from ucz.exactlin import Mat, rank, solve
from ucz.kostant import (
    PrincipalTriple,
    build_principal_triple,
    build_slice,
    in_fiber_product,
    invariant_system,
    invariants_eval,
    jacobian_rank_at,
    slice_for,
    slice_from_invariants,
    slice_normalize,
    witness_group_element,
)
from ucz.liealg import conjugate
from ucz.rng import stream

DEGREES = {
    "A1": (2,),
    "A2": (2, 3),
    "A3": (2, 3, 4),
    "B2": (2, 4),
    "G2": (2, 6),
}
H_COEFFS = {"A1": (1,), "A2": (2, 2), "A3": (3, 4, 3), "B2": (4, 3), "G2": (6, 10)}


def borel_point(L, gen):
    """f plus a seeded element of the Borel."""
    f = build_principal_triple(L).f
    x = f
    for i in range(L.rank):
        x = x + L.h(i).scale(gen.fraction())
    for k in range(L.n_pos):
        x = x + L.e(k).scale(gen.fraction())
    return x


def nilpos_element(L, gen):
    u = L.zero()
    for k in range(L.n_pos):
        u = u + L.e(k).scale(gen.fraction())
    return u


def test_triple_relations_hold(any_algebra):
    L = any_algebra
    t = build_principal_triple(L)
    assert L.bracket(t.h, t.e) == t.e.scale(2)
    assert L.bracket(t.h, t.f) == t.f.scale(-2)
    assert L.bracket(t.e, t.f) == t.h
    for x in (t.e, t.h, t.f):
        assert L.is_regular(x)


def test_triple_h_coefficients(any_algebra):
    L = any_algebra
    t = build_principal_triple(L)
    expected = L.zero()
    for i, c in enumerate(H_COEFFS[L.descriptor]):
        expected = expected + L.h(i).scale(c)
    assert t.h == expected


def test_a1_triple_matrices(a1):
    t = build_principal_triple(a1)
    assert a1.realize(t.e) == Mat.from_rows([(0, 1), (0, 0)], cols=2)
    assert a1.realize(t.h) == Mat.from_rows([(1, 0), (0, -1)], cols=2)
    assert a1.realize(t.f) == Mat.from_rows([(0, 0), (1, 0)], cols=2)


def test_a2_a3_principal_h_matrices(a2, a3):
    assert a2.realize(build_principal_triple(a2).h) == Mat.from_rows(
        [(2, 0, 0), (0, 0, 0), (0, 0, -2)], cols=3
    )
    assert a3.realize(build_principal_triple(a3).h) == Mat.from_rows(
        [(3, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -3)], cols=4
    )


def test_bad_triple_is_rejected(a1):
    e, h, f = a1.e(0), a1.h(0), a1.f(0)
    with pytest.raises(ConstructionError):
        PrincipalTriple(a1, e, h.scale(2), f)
    with pytest.raises(ConstructionError):
        PrincipalTriple(a1, e, h, f.scale(3))


def test_slice_degrees_and_dimension(any_algebra):
    L = any_algebra
    ks = slice_for(L)
    assert ks.degrees == DEGREES[L.descriptor]
    assert ks.ge_basis.dim == L.rank
    assert sum(2 * d - 1 for d in ks.degrees) == L.dim


def test_slice_basis_is_homogeneous(any_algebra):
    L = any_algebra
    ks = slice_for(L)
    t = ks.triple
    degs = sorted(ks.degrees)
    for d, row in zip(degs, ks.ge_basis.basis.row_list()):
        v = L.element(row)
        assert L.bracket(t.e, v).is_zero()
        assert L.bracket(t.h, v) == v.scale(2 * d - 2)


def test_build_slice_and_slice_for_agree(any_algebra):
    L = any_algebra
    assert slice_for(L) is slice_for(L)
    fresh = build_slice(build_principal_triple(L))
    assert fresh.degrees == slice_for(L).degrees
    assert fresh.ge_basis == slice_for(L).ge_basis


def test_normalize_fixes_slice_points(any_algebra):
    L = any_algebra
    ks = slice_for(L)
    witness, out = slice_normalize(ks, ks.triple.f)
    assert witness == []
    assert out == ks.triple.f


def test_a1_normalize_closed_form(a1):
    ks = slice_for(a1)
    f, h, e = ks.triple.f, a1.h(0), a1.e(0)
    gen = stream(13, "a1closed")
    for _ in range(25):
        a, b = gen.fraction(), gen.fraction()
        witness, out = slice_normalize(ks, f + h.scale(a) + e.scale(b))
        assert out == f + e.scale(a * a + b)
        if a == 0:
            assert witness == []
        else:
            assert witness == [e.scale(-a)]


def test_normalize_requires_f_plus_borel(a1):
    ks = slice_for(a1)
    with pytest.raises(DomainError):
        slice_normalize(ks, ks.triple.f.scale(2))


def test_normalize_is_idempotent_and_stepwise_stable(any_algebra):
    L = any_algebra
    ks = slice_for(L)
    gen = stream(17, f"norm:{L.descriptor}")
    for _ in range(20):
        xi = borel_point(L, gen)
        witness, out = slice_normalize(ks, xi)
        assert ks.contains(out)
        again, out2 = slice_normalize(ks, out)
        assert again == [] and out2 == out
        _, out3 = slice_normalize(ks, xi, stepwise=True)
        assert out3 == out


def test_normal_form_is_orbit_invariant(a2):
    ks = slice_for(a2)
    gen = stream(19, "orbitinv")
    for _ in range(25):
        xi = borel_point(a2, gen)
        _, out = slice_normalize(ks, xi)
        moved = a2.exp_ad_apply(nilpos_element(a2, gen), xi)
        _, out_moved = slice_normalize(ks, moved)
        assert out_moved == out


def test_witness_composes_to_the_normal_form(type_a_algebra):
    L = type_a_algebra
    ks = slice_for(L)
    gen = stream(23, f"witness:{L.descriptor}")
    for _ in range(10):
        xi = borel_point(L, gen)
        witness, out = slice_normalize(ks, xi)
        g = witness_group_element(L, witness)
        assert conjugate(g, xi) == out


def test_witness_group_element_of_empty_is_identity(type_a_algebra):
    L = type_a_algebra
    assert witness_group_element(L, []) == L.group_identity()


def test_invariants_of_nilpotents_vanish(type_a_algebra):
    L = type_a_algebra
    zero = (Fraction(0),) * L.rank
    for k in range(L.n_pos):
        assert invariants_eval(L.e(k)) == zero
        assert invariants_eval(L.f(k)) == zero


def test_a1_invariant_reads_the_slice_coordinate(a1):
    ks = slice_for(a1)
    f, e = ks.triple.f, a1.e(0)
    gen = stream(29, "a1inv")
    for _ in range(10):
        c = gen.fraction()
        assert invariants_eval(f + e.scale(c)) == (c,)


def test_a2_invariants_of_a_split_element(a2):
    x = a2.from_matrix(Mat.from_rows([(1, 0, 0), (0, 2, 0), (0, 0, -3)], cols=3))
    # det(lambda I - x) = lambda^3 - 7 lambda + 6
    assert invariants_eval(x) == (Fraction(7), Fraction(-6))


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def lagrange_coefficients(ts, values):
    """Coefficients, lowest degree first, of the polynomial through the points (t, value)."""
    coeffs = [Fraction(0)] * len(ts)
    for i, (ti, vi) in enumerate(zip(ts, values)):
        basis, scale = [Fraction(1)], vi
        for j, tj in enumerate(ts):
            if j != i:
                # basis *= (t - tj)
                basis = [a - tj * b for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
                scale /= ti - tj
        for k, b in enumerate(basis):
            coeffs[k] += scale * b
    return coeffs


def test_invariants_match_the_leibniz_char_poly(type_a_algebra):
    # dense elements with denominators up to 7, so realize(x) = Y / D with
    # D > 1; oracle: det(tI - realize(x)) by Leibniz at m + 1 integers t,
    # interpolated to t^m + sum_k a_k t^(m-k), invariants (-a_2, ..., -a_m)
    L = type_a_algebra
    m = L.rank + 1
    gen = stream(53, f"charpoly:{L.descriptor}")
    ts = range(m + 1)
    dens = set()
    for _ in range(6):
        x = L.element([gen.fraction(dens=(1, 2, 3, 5, 7)) for _ in range(L.dim)])
        mat = L.realize(x)
        dens.add(max(mat[(i, j)].denominator for i in range(m) for j in range(m)))
        values = [
            leibniz_det([[int(i == j) * t - mat[(i, j)] for j in range(m)] for i in range(m)])
            for t in ts
        ]
        poly = lagrange_coefficients(ts, values)
        assert poly[m] == 1
        assert invariants_eval(x) == tuple(-poly[m - k] for k in range(2, m + 1))
    assert max(dens) > 1


def test_dual_invariants_match_interpolated_derivatives(type_a_algebra):
    # x = f + c e_1 has mostly zero entries, so the dual rows hold entries
    # with a zero value and a nonzero derivative, which must not be skipped
    L = type_a_algebra
    system = invariant_system(L)
    f = build_principal_triple(L).f
    gen = stream(43, f"dual:{L.descriptor}")
    # the invariants of x + t d are polynomials in t of degree at most rank + 1
    ts = range(L.rank + 2)
    vander = Mat.from_rows([[Fraction(t) ** k for k in ts] for t in ts], cols=len(ts))
    for _ in range(4):
        x = f + L.e(0).scale(gen.fraction())
        d = L.element([gen.fraction() for _ in range(L.dim)])
        pairs = system.eval_dual(x, d)
        assert tuple(value for value, _ in pairs) == system.eval(x)
        samples = [system.eval(x + d.scale(t)) for t in ts]
        for k, (_, derivative) in enumerate(pairs):
            assert derivative == solve(vander, tuple(s[k] for s in samples))[1]


def test_slice_from_invariants_examples(a1):
    ks = slice_for(a1)
    assert slice_from_invariants(ks, (0,)) == ks.triple.f
    assert slice_from_invariants(ks, (5,)) == ks.triple.f + a1.e(0).scale(5)


def test_slice_from_invariants_roundtrip(type_a_algebra):
    L = type_a_algebra
    ks = slice_for(L)
    gen = stream(31, f"sect:{L.descriptor}")
    for _ in range(10):
        vals = tuple(gen.fraction() for _ in range(L.rank))
        point = slice_from_invariants(ks, vals)
        assert ks.contains(point)
        assert invariants_eval(point) == vals
    for _ in range(10):
        xi = borel_point(L, gen)
        _, on_slice = slice_normalize(ks, xi)
        assert slice_from_invariants(ks, invariants_eval(on_slice)) == on_slice


def test_in_fiber_product_examples(a1, a2):
    assert in_fiber_product(a2.e(0), a2.zero())
    assert not in_fiber_product(a1.h(0), a1.e(0))
    gen = stream(37, "fiberpair")
    for _ in range(10):
        x = a2.element([gen.fraction() for _ in range(a2.dim)])
        g = a2.group_exp(nilpos_element(a2, gen))
        assert in_fiber_product(x, conjugate(g, x))


def test_jacobian_rank_examples(a1, a2):
    assert jacobian_rank_at(a1.e(0), a1.e(0)) == 1
    assert jacobian_rank_at(a2.zero(), a2.zero()) == 0
    x = a2.from_matrix(Mat.from_rows([(1, 0, 0), (0, 2, 0), (0, 0, -3)], cols=3))
    assert jacobian_rank_at(x, x) == 2


def test_invariants_are_conjugation_invariant(a3):
    gen = stream(41, "adinv")
    for _ in range(10):
        x = a3.element([gen.fraction() for _ in range(a3.dim)])
        g = a3.group_exp(nilpos_element(a3, gen))
        assert invariants_eval(conjugate(g, x)) == invariants_eval(x)


def test_gradient_matches_dual_derivatives_and_interpolation(type_a_algebra):
    # at x = 0 and x = f + c e_1 many realized entries are zero while their
    # derivatives are not; column j of the gradient is the derivative along b_j
    L = type_a_algebra
    system = invariant_system(L)
    f = build_principal_triple(L).f
    gen = stream(47, f"gradient:{L.descriptor}")
    ts = range(L.rank + 2)
    vander = Mat.from_rows([[Fraction(t) ** k for k in ts] for t in ts], cols=len(ts))
    points = [L.zero(), f] + [f + L.e(0).scale(gen.nonzero_fraction()) for _ in range(2)]
    for x in points:
        grad = system.gradient(x)
        assert len(grad) == L.rank and all(len(row) == L.dim for row in grad)
        assert all(type(d) is Fraction for row in grad for d in row)
        for j in range(L.dim):
            d = L.basis_element(j)
            assert tuple(row[j] for row in grad) == tuple(der for _, der in system.eval_dual(x, d))
            samples = [system.eval(x + d.scale(t)) for t in ts]
            for k, row in enumerate(grad):
                assert row[j] == solve(vander, tuple(s[k] for s in samples))[1]
        # the differentials vanish at 0 and are independent at the regular points
        assert rank(Mat.from_rows(grad, cols=L.dim)) == (0 if x == L.zero() else L.rank)
