"""Exact rational linear algebra: echelon forms, subspaces, projections.

Every expected value here is computed by hand, forced by an algebraic
identity (rank-nullity, Grassmann, projector idempotence), or computed by
the textbook Fraction code in `oracles.py` (Gauss-Jordan elimination and
inverse, Leibniz determinant, row-by-column product), which shares no code
with the integer elimination it checks.  The checks are exact with zero
tolerance.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from ucz.errors import DecompositionError, DimensionError
from ucz.exactlin import (
    Mat,
    Projector,
    Subspace,
    kernel,
    rank,
    rref,
    solve,
    vec,
)
from ucz.rng import SplitMix64, stream

from .oracles import all_fractions, gauss_jordan, identity, inverse, leibniz_det, product


def random_mat(gen: SplitMix64, rows: int, cols: int) -> Mat:
    return Mat(
        [tuple(gen.fraction() for _ in range(cols)) for _ in range(rows)], cols=cols
    )


def test_exact_field_roundtrip():
    gen = stream(7, "field")
    for _ in range(1000):
        a = gen.fraction()
        b = gen.nonzero_fraction()
        assert (a * b) / b == a


def test_rref_permutation():
    m = Mat([(0, 1), (1, 0)], cols=2)
    assert rref(m) == Mat.identity(2)


def test_rref_dependent_rows():
    m = Mat([(2, 4), (1, 2)], cols=2)
    assert rref(m) == Mat([(1, 2), (0, 0)], cols=2)


def test_rref_idempotent_on_seeded_matrices():
    gen = stream(11, "rref")
    for _ in range(10):
        m = random_mat(gen, 5, 5)
        r = rref(m)
        assert rref(r) == r


def test_rank_nullity_on_seeded_matrices():
    gen = stream(13, "ranknullity")
    for _ in range(20):
        rows = gen.randint(1, 6)
        cols = gen.randint(1, 6)
        m = random_mat(gen, rows, cols)
        assert rank(m) + kernel(m).dim == cols


def test_kernel_identity_is_zero():
    assert kernel(Mat.identity(3)).dim == 0


def test_kernel_zero_map_is_everything():
    m = Mat([(0, 0, 0), (0, 0, 0)], cols=3)
    assert kernel(m) == Subspace.from_vectors(3, identity(3))


def test_kernel_single_relation():
    ker = kernel(Mat([(1, 1, 0)], cols=3))
    assert ker.dim == 2
    assert ker.contains((1, -1, 0))
    assert ker.contains((0, 0, 1))
    assert not ker.contains((1, 1, 0))


def test_subspace_equality_is_canonical():
    a = Subspace.from_vectors(3, [(1, 1, 0), (0, 0, 2)])
    b = Subspace.from_vectors(3, [(0, 0, 1), (3, 3, 5), (1, 1, 1)])
    assert a == b
    assert a.basis == b.basis


def test_subspace_contains_space():
    big = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    small = Subspace.from_vectors(3, [(1, 1, 0)])
    assert big.contains_space(small)
    assert not small.contains_space(big)


def test_subspace_coefficients_reconstruct():
    s = Subspace.from_vectors(4, [(1, 2, 0, 0), (0, 0, 1, 3)])
    v = (2, 4, -1, -3)
    coeffs = s.coefficients(v)
    rebuilt = [Fraction(0)] * 4
    for c, row in zip(coeffs, s.basis.row_list()):
        for j, r in enumerate(row):
            rebuilt[j] += c * r
    assert tuple(rebuilt) == vec(v)
    # an integer vector over a denominator reads as v / den, one Fraction per coordinate
    got = s.coefficients((6, 12, -3, -9), 9)
    assert got == (Fraction(2, 3), Fraction(-1, 3)) and all_fractions(got)
    assert s.coefficients((Fraction(1, 2), 1, 0, 0), 3) == (Fraction(1, 6), Fraction(0))


def test_subspace_coefficients_outside_raises():
    s = Subspace.from_vectors(3, [(1, 0, 0)])
    with pytest.raises(DecompositionError):
        s.coefficients((0, 1, 0))
    with pytest.raises(DecompositionError):
        s.coefficients((0, 1, 0), 5)


def test_intersect_and_sum_of_equal_spaces():
    s = Subspace.from_vectors(3, [(1, 2, 3), (0, 1, 1)])
    assert s.intersect(s) == s
    assert s.sum(s) == s


def test_intersect_of_complementary_lines():
    a = Subspace.from_vectors(2, [(1, 0)])
    b = Subspace.from_vectors(2, [(0, 1)])
    assert a.intersect(b).dim == 0
    assert a.sum(b) == Subspace.from_vectors(2, identity(2))


def test_grassmann_identity_in_six_space():
    gen = stream(17, "grassmann")
    for _ in range(15):
        a = Subspace.from_vectors(
            6, [tuple(gen.fraction() for _ in range(6)) for _ in range(gen.randint(1, 4))]
        )
        b = Subspace.from_vectors(
            6, [tuple(gen.fraction() for _ in range(6)) for _ in range(gen.randint(1, 4))]
        )
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_ambient_mismatch_raises():
    a = Subspace.from_vectors(2, [(1, 0)])
    b = Subspace.from_vectors(3, [(1, 0, 0)])
    with pytest.raises(DimensionError):
        a.sum(b)
    with pytest.raises(DimensionError):
        a.intersect(b)
    with pytest.raises(DimensionError):
        a.contains((1, 0, 0))
    with pytest.raises(DimensionError, match="ambient dimensions differ"):
        Projector(a, b)
    for basis in (Mat([(1, 0)], cols=2), [(1, 0)]):
        with pytest.raises(DimensionError, match="basis width"):
            Subspace(3, basis)


def test_project_along_coordinate_split():
    onto = Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    along = Subspace.from_vectors(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert Projector(onto, along).apply((1, 2, 3, 4)) == vec((1, 2, 0, 0))


def test_project_along_fixes_onto_and_kills_along():
    gen = stream(19, "projector")
    onto = Subspace.from_vectors(5, [(1, 1, 0, 0, 0), (0, 0, 1, 0, 1)])
    along = Subspace.from_vectors(5, [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    proj = Projector(onto, along)
    for _ in range(10):
        c1, c2 = gen.fraction(), gen.fraction()
        v_on = tuple(c1 * a + c2 * b for a, b in zip((1, 1, 0, 0, 0), (0, 0, 1, 0, 1)))
        assert proj.apply(v_on) == vec(v_on)
        v_off = tuple(
            c1 * a + c2 * b for a, b in zip((0, 1, 0, 0, 0), (0, 0, 0, 1, 0))
        )
        assert proj.apply(v_off) == vec((0,) * 5)


def test_project_along_needs_complement():
    onto = Subspace.from_vectors(3, [(1, 0, 0)])
    along = Subspace.from_vectors(3, [(0, 1, 0)])
    with pytest.raises(DecompositionError):
        Projector(onto, along)
    onto = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    along = Subspace.from_vectors(3, [(1, 1, 0)])
    with pytest.raises(DecompositionError, match="overlap"):
        Projector(onto, along)


def test_projector_is_idempotent():
    onto = Subspace.from_vectors(4, [(1, 1, 1, 1), (1, 0, 0, 0)])
    along = Subspace.from_vectors(4, [(0, 1, 0, 0), (0, 0, 1, 0)])
    proj = Projector(onto, along)
    gen = stream(29, "idem")
    for _ in range(10):
        v = tuple(gen.fraction() for _ in range(4))
        once = proj.apply(v)
        assert proj.apply(once) == once
        assert onto.contains(once)


def test_mat_inverse_roundtrip():
    gen = stream(31, "inverse")
    found = 0
    while found < 5:
        m = random_mat(gen, 4, 4)
        if m.det() == 0:
            continue
        found += 1
        assert m.inverse() * m == Mat.identity(4)
        assert m * m.inverse() == Mat.identity(4)


def test_mat_inverse_singular_raises():
    m = Mat([(1, 2), (2, 4)], cols=2)
    with pytest.raises(DecompositionError):
        m.inverse()


def test_solve_reproduces_rhs():
    a = Mat([(2, 1), (1, 3)], cols=2)
    b = vec((5, 10))
    x = solve(a, b)
    assert a.apply(x) == b


def test_solve_inconsistent_raises():
    a = Mat([(1, 0), (1, 0)], cols=2)
    with pytest.raises(DecompositionError):
        solve(a, vec((1, 2)))
    for a, b in ((Mat([(1, 0, 0), (0, 1, 0)], cols=3), (1, 2)), (Mat.identity(2), (1, 2, 3))):
        with pytest.raises(DimensionError, match="square system"):
            solve(a, vec(b))


# -- oracle for the integer elimination ---------------------------------------


def oracle_matrices():
    """Seeded shapes: empty, zero columns, duplicate rows, tall, wide, negative pivots."""
    rnd = random.Random(97)

    def entry(density):
        if rnd.random() > density:
            return Fraction(0)
        return Fraction(rnd.randint(-12, 12), rnd.randint(1, 97))

    def dense(r, c, density=0.7):
        return [[entry(density) for _ in range(c)] for _ in range(r)]

    yield [], 4
    yield [[], [], []], 0
    yield [[Fraction(0)] * 5 for _ in range(3)], 5
    for r, c in ((1, 1), (3, 3), (6, 6), (9, 4), (4, 9), (12, 5), (5, 12)):
        for density in (0.3, 0.7, 1.0):
            rows = dense(r, c, density)
            yield rows, c
            # the same rows with a zero column, a repeated and a scaled row
            zcol = rnd.randrange(c + 1)
            yield [row[:zcol] + [Fraction(0)] + row[zcol:] for row in rows], c + 1
            yield rows + [rows[0], [Fraction(-7, 97) * x for x in rows[-1]]], c
            # negative pivots: every leading entry made negative
            yield [[-abs(x) if j == 0 else x for j, x in enumerate(row)] for row in rows], c


def test_rref_rank_kernel_match_the_oracle():
    count = 0
    for rows, cols in oracle_matrices():
        m = Mat(rows, cols=cols)
        want, pivots = gauss_jordan(rows, cols)
        got = rref(m)
        assert got == Mat(want, cols=cols)
        assert got.rows == m.rows and got.cols == cols
        assert all_fractions(*got.row_list())
        assert rank(m) == len(pivots)
        ker = kernel(m)
        assert ker.dim == cols - len(pivots)
        assert all_fractions(*ker.basis.row_list())
        for v in ker.basis.row_list():
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        # the kernel's canonical basis is the oracle's RREF of the oracle's null vectors
        canon, cpiv = gauss_jordan(oracle_null(rows, cols), cols)
        assert ker.basis == Mat(canon[: len(cpiv)], cols=cols)
        count += 1
    assert count == 87


def test_subspace_basis_entries_are_fractions():
    s = Subspace.from_vectors(3, [(2, 4, 6), ("1/3", 0, 1)])
    assert s.basis == Mat([(1, 0, 3), (0, 1, 0)], cols=3)
    assert all_fractions(*s.basis.row_list())


def test_vec_coerces_at_the_edge():
    v = vec(["1/3", 2, Fraction(1, 2)])
    assert v == (Fraction(1, 3), Fraction(2), Fraction(1, 2))
    assert all_fractions(v)

    class Half(Fraction):
        pass

    w = vec([Half(1, 2)])
    assert w == (Fraction(1, 2),) and type(w[0]) is Fraction
    assert type(Mat([(Half(1, 2),)], cols=1)[0, 0]) is Fraction
    with pytest.raises(TypeError):
        vec([object()])
    with pytest.raises(TypeError):
        Mat([(1, None)], cols=2)
    with pytest.raises(ValueError):
        vec(["one third"])
    with pytest.raises(ZeroDivisionError, match="denominator is zero"):
        Mat([(1, 2)], 0)
    for den in (None, 1):
        with pytest.raises(DimensionError, match="ragged"):
            Mat([(1, 2), (3,)], den)


def test_subspace_keeps_the_oracle_pivots():
    # reduce, contains and coefficients walk the pivots stored at construction
    rnd = random.Random(83)
    for rows, cols in oracle_matrices():
        want, pivots = gauss_jordan(rows, cols)
        space = Subspace(cols, Mat(rows, cols=cols))
        assert space._pivots == pivots
        coeffs = [Fraction(rnd.randint(-5, 5), rnd.randint(1, 7)) for _ in pivots]
        v = tuple(
            sum((c * row[j] for c, row in zip(coeffs, want)), Fraction(0)) for j in range(cols)
        )
        assert space.contains(v)
        assert space.coefficients(v) == tuple(coeffs)
        assert space.reduce(v) == (Fraction(0),) * cols
    assert Subspace.zero(3)._pivots == []
    full = Subspace.from_vectors(3, identity(3))
    assert full._pivots == [0, 1, 2]
    assert full == Subspace.from_vectors(3, [(0, 0, 5), (0, 2, 1), (1, 1, 1)])
    assert hash(full) == hash(Subspace.from_vectors(3, [(3, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert full.coefficients((1, 2, 3)) == vec((1, 2, 3))
    assert not Subspace.zero(3).contains((0, 0, 1))


# -- subspaces as one integer matrix over one denominator -------------------------


def seeded_spans(seed):
    """Seeded spanning rows with denominators up to 7: empty, zero, full rank, rank-deficient."""
    rnd = random.Random(seed)

    def entry():
        if rnd.random() < 0.4:
            return Fraction(0)
        return Fraction(rnd.randint(-6, 6), rnd.randint(1, 7))

    yield [], 4
    yield [[Fraction(0)] * 3, [Fraction(0)] * 3], 3
    for r, c in ((1, 3), (3, 3), (4, 6), (6, 4), (5, 8)):
        for _ in range(3):
            rows = [[entry() for _ in range(c)] for _ in range(r)]
            yield rows, c
            # one row the sum of two others, and a scaled copy: rank-deficient
            total = [a + b for a, b in zip(rows[0], rows[-1])]
            yield rows + [total, [Fraction(-3, 7) * x for x in rows[0]]], c


def test_subspace_is_the_oracle_rref_over_the_lcm_of_its_denominators():
    count = deficient = 0
    for rows, cols in seeded_spans(149):
        want, pivots = gauss_jordan(rows, cols)
        want = want[: len(pivots)]
        den = lcm(*(x.denominator for row in want for x in row))
        space = Subspace(cols, Mat(rows, cols=cols))
        assert space.basis.den == den
        assert space.basis.num == tuple(tuple(int(x * den) for x in row) for row in want)
        assert space._pivots == pivots and space.dim == len(pivots)
        assert space.basis == Mat(want, cols=cols) and all_fractions(*space.basis.row_list())
        canonical = Subspace(cols, Mat(want, cols=cols), _canonical=True)
        assert canonical == space and hash(canonical) == hash(space)
        assert canonical._pivots == space._pivots
        deficient += len(pivots) < len(rows)
        count += 1
    assert count == 32 and deficient > 15


def test_two_spanning_sets_of_one_space_are_equal_and_hash_equal():
    rnd = random.Random(151)
    count = 0
    for rows, cols in seeded_spans(151):
        space = Subspace.from_vectors(cols, rows)
        # row i plus multiples of the later rows is an invertible change of spanning set
        other = []
        for i, row in enumerate(rows):
            new = list(row)
            for later in rows[i + 1 :]:
                c = Fraction(rnd.randint(-3, 3), rnd.randint(1, 7))
                new = [a + c * b for a, b in zip(new, later)]
            other.append(new)
        other = other[::-1] + [[Fraction(0)] * cols]
        twin = Subspace.from_vectors(cols, other)
        assert twin == space and hash(twin) == hash(space)
        # integer rows with a common factor left in span the same space
        ints = []
        for row in other:
            k = lcm(*(x.denominator for x in row)) * rnd.randint(2, 9)
            ints.append([int(x * k) for x in row])
        assert Subspace(cols, ints) == space and hash(Subspace(cols, ints)) == hash(space)
        count += 1
    assert count == 32


def test_contains_agrees_with_a_zero_residue_and_the_oracle_rank():
    rnd = random.Random(157)
    inside = outside = 0
    for rows, cols in seeded_spans(157):
        space = Subspace.from_vectors(cols, rows)
        rank_before = len(gauss_jordan(rows, cols)[1])
        vectors = [tuple(Fraction(int(i == j)) for i in range(cols)) for j in range(cols)]
        for _ in range(3):
            cs = [Fraction(rnd.randint(-4, 4), rnd.randint(1, 7)) for _ in rows]
            member = product([cs], rows, cols)[0] if rows else [Fraction(0)] * cols
            vectors.append(tuple(member))
            j = rnd.randrange(cols)
            vectors.append(tuple(x + (j == k) for k, x in enumerate(member)))
        for v in vectors:
            got = space.contains(v)
            assert got == (not any(space.reduce(v)))
            assert got == (len(gauss_jordan(rows + [list(v)], cols)[1]) == rank_before)
            inside += got
            outside += not got
    assert inside > 100 and outside > 100


def membership_spaces(seed):
    """(space, spanning rows, cols): seeded dense spans, coordinate spans, zero and full spaces."""
    for rows, cols in seeded_spans(seed):
        yield Subspace.from_vectors(cols, rows), rows, cols
    rnd = random.Random(seed)
    for cols in (1, 4, 9):
        yield Subspace.zero(cols), [], cols
        yield Subspace.from_vectors(cols, identity(cols)), identity(cols), cols
        for size in range(cols + 1):
            idxs = rnd.sample(range(cols), size)
            units = [[Fraction(int(i == j)) for j in range(cols)] for i in idxs]
            yield Subspace.coordinate_span(cols, idxs), units, cols


def test_membership_matches_the_oracle_rank_in_every_input_form():
    rnd = random.Random(163)
    counts = {True: 0, False: 0}
    single_free = 0
    for space, rows, cols in membership_spaces(163):
        want, pivots = gauss_jordan(rows, cols)
        want = want[: len(pivots)]
        free = [j for j in range(cols) if j not in pivots]
        vectors = [(Fraction(0),) * cols]
        for _ in range(3):
            cs = [Fraction(rnd.randint(-5, 5), rnd.randint(1, 7)) for _ in want]
            member = product([cs], want, cols)[0] if want else [Fraction(0)] * cols
            vectors.append(tuple(member))
            # a non-member that differs from the member in a single free coordinate
            for j in free:
                moved = list(member)
                moved[j] += Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 6), rnd.randint(1, 7))
                vectors.append(tuple(moved))
                single_free += 1
            # one pivot coordinate moved: inside only when its RREF row is a unit vector
            if pivots:
                moved = list(member)
                moved[rnd.choice(pivots)] += 1
                vectors.append(tuple(moved))
        for v in vectors:
            inside = len(gauss_jordan(want + [list(v)], cols)[1]) == len(pivots)
            k = lcm(*(x.denominator for x in v)) * rnd.randint(1, 5)
            ints = tuple(int(x * k) for x in v)
            for form in (v, ints, tuple(str(x) for x in v), list(ints)):
                assert space.contains(form) is inside
            if inside:
                coeffs = tuple(v[p] for p in pivots)
                assert space.coefficients(v) == coeffs
                got = space.coefficients(ints, k)
                assert got == coeffs and all_fractions(got)
            else:
                with pytest.raises(DecompositionError):
                    space.coefficients(v)
                with pytest.raises(DecompositionError):
                    space.coefficients(ints, k)
            counts[inside] += 1
        # a space is contained exactly when stacking its rows keeps the oracle rank
        others = [Subspace.from_vectors(cols, vectors[:3]), Subspace.from_vectors(cols, vectors)]
        others += [Subspace.zero(cols), Subspace.from_vectors(cols, identity(cols))]
        for other in others:
            stacked = want + [list(row) for row in other.basis.row_list()]
            inside = len(gauss_jordan(stacked, cols)[1]) == len(pivots)
            assert space.contains_space(other) is inside
            counts[inside] += 1
    assert counts[True] > 200 and counts[False] > 200 and single_free > 200


def test_membership_checks_lengths():
    for space in (
        Subspace.from_vectors(3, [(1, Fraction(1, 2), 0)]),
        Subspace.coordinate_span(3, [1]),
        Subspace.zero(3),
    ):
        for v in ((1, 0), (0, 0, 0, 0), ("1", "0")):
            with pytest.raises(DimensionError):
                space.contains(v)
            with pytest.raises(DimensionError):
                space.coefficients(v)
        with pytest.raises(DimensionError):
            space.contains_space(Subspace.zero(4))


# -- matrix times vector ---------------------------------------------------------


def oracle_apply(rows, v):
    """Row-by-column dot products over Fraction, sharing no code with Mat.apply."""
    return tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in rows)


def test_apply_matches_the_oracle_dot_product():
    rnd = random.Random(89)

    def entry(density):
        if rnd.random() > density:
            return Fraction(0)
        return Fraction(rnd.randint(-12, 12), rnd.randint(1, 97))

    def nonzero(k):
        x = Fraction(rnd.randint(1, 12), rnd.randint(1, 97))
        return -x if k % 2 else x

    count = 0
    for r, c in ((0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (5, 9), (9, 5)):
        for density in (0.3, 1.0):
            rows = [[entry(density) for _ in range(c)] for _ in range(r)]
            if r:
                rows[rnd.randrange(r)] = [Fraction(0)] * c
            m = Mat(rows, cols=c)
            vectors = [(Fraction(0),) * c]
            vectors += [tuple(Fraction(int(i == j)) for i in range(c)) for j in range(c)]
            vectors += [tuple(nonzero(k) for k in range(c)) for _ in range(3)]
            for v in vectors:
                got = m.apply(v)
                assert got == oracle_apply(rows, v)
                assert len(got) == r
                assert all_fractions(got)
                count += 1
    assert count == 100


def test_apply_size_mismatch_raises():
    m = Mat([(1, 2, 3), (4, 5, 6)], cols=3)
    with pytest.raises(DimensionError):
        m.apply(vec((1, 2)))
    with pytest.raises(DimensionError):
        m.apply(vec((1, 2, 3, 4)))
    with pytest.raises(DimensionError):
        Mat([], cols=2).apply(())
    with pytest.raises(DimensionError, match="shapes differ"):
        m + Mat([(1, 2, 3)], cols=3)
    with pytest.raises(DimensionError, match="shapes differ"):
        m - Mat([(1, 2), (3, 4)], cols=2)
    with pytest.raises(DimensionError, match="inner dimensions"):
        m * m
    with pytest.raises(DimensionError, match="determinant of a non-square"):
        m.det()
    with pytest.raises(DimensionError, match="inverse of a non-square"):
        m.inverse()


# -- zero-aware kernels ------------------------------------------------------------


def sparse_operands(seed):
    """Seeded mostly-zero (rows, cols) pairs with an all-zero row, and empty shapes."""
    rnd = random.Random(seed)

    def entry(density):
        if rnd.random() > density:
            return Fraction(0)
        return Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 29))

    for r, c in ((0, 0), (0, 3), (3, 0), (1, 1), (3, 3), (4, 4), (6, 6), (3, 5), (5, 3)):
        for density in (0.0, 0.15, 0.4, 1.0):
            rows = [[entry(density) for _ in range(c)] for _ in range(r)]
            if r > 1:
                rows[rnd.randrange(r)] = [Fraction(0)] * c
            yield rows, c


def test_sparse_mat_sum_difference_and_scale_match_the_oracle():
    rnd = random.Random(101)
    count = 0
    for rows, cols in sparse_operands(103):
        # half of the entries of the other operand are moved to fresh positions
        other = [
            [x if rnd.random() < 0.5 else -rows[i - 1][j] for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
        a, b = Mat(rows, cols=cols), Mat(other, cols=cols)
        pairs = [(x, y) for rx, ry in zip(rows, other) for x, y in zip(rx, ry)]
        for got, op in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y)):
            assert [x for row in got.row_list() for x in row] == [op(x, y) for x, y in pairs]
            assert (got.rows, got.cols) == (len(rows), cols) and all_fractions(*got.row_list())
        # a zero result entry comes from cancellation as well as from zero operands
        zero = Mat([[0] * cols for _ in rows], cols=cols)
        assert a - a == zero and b - b == zero
        assert -a == Mat([[-x for x in row] for row in rows], cols=cols)
        assert (-a).cols == cols and all_fractions(*(-a).row_list())
        for c in (0, Fraction(0), "0", 1, Fraction(-3, 7)):
            got = a.scale(c)
            want = [[Fraction(c) * x for x in row] for row in rows]
            assert got == Mat(want, cols=cols)
            assert (got.rows, got.cols) == (len(rows), cols) and all_fractions(*got.row_list())
        count += 1
    assert count == 36


def test_sparse_mat_product_and_apply_match_the_oracle():
    rnd = random.Random(107)
    count = 0
    for rows, cols in sparse_operands(109):
        inner = len(rows)
        right_cols = rnd.choice((0, 1, 4))
        right = [
            [Fraction(rnd.randint(-4, 4), rnd.randint(1, 5)) if rnd.random() < 0.3 else Fraction(0)
             for _ in range(right_cols)]
            for _ in range(cols)
        ]
        # the transpose-shaped left factor meets rows of zeros on both sides
        left = [list(col) for col in zip(*rows)] if inner else [[] for _ in range(cols)]
        got = Mat(left, cols=inner) * Mat(rows, cols=cols)
        assert got == Mat(product(left, rows, cols), cols=cols)
        assert (got.rows, got.cols) == (len(left), cols) and all_fractions(*got.row_list())
        got = Mat(rows, cols=cols) * Mat(right, cols=right_cols)
        assert got == Mat(product(rows, right, right_cols), cols=right_cols)
        assert all_fractions(*got.row_list())
        assert (got.rows, got.cols) == (len(rows), right_cols)
        v = tuple(Fraction(j % 3 - 1, 2) for j in range(cols))
        got = Mat(rows, cols=cols).apply(v)
        assert got == oracle_apply(rows, v) and all_fractions(got)
        count += 1
    assert count == 36


def arrow(n):
    """Nonzero diagonal, first row and first column: eliminating column 0 fills every zero."""

    def entry(i, j):
        if i == j:
            return Fraction(i + 2)
        return Fraction(1, i + j + 1) if i == 0 or j == 0 else Fraction(0)

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def test_sparse_det_and_inverse_match_the_oracle():
    count = 0
    singular = 0
    squares = [(rows, cols) for rows, cols in sparse_operands(113) if len(rows) == cols]
    squares += [(arrow(n)[::-1], n) for n in range(2, 7)]
    for rows, cols in squares:
        shifted = [[x + int(i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
        for square in (rows, shifted):
            m = Mat(square, cols=cols)
            det = m.det()
            assert det == leibniz_det(square) and type(det) is Fraction
            if det == 0:
                with pytest.raises(DecompositionError):
                    m.inverse()
                singular += 1
            else:
                got = m.inverse()
                assert got == Mat(inverse(square), cols=cols)
                assert all_fractions(*got.row_list())
            count += 1
    assert count == 50
    assert 0 < singular < count


def test_sparse_reduce_and_coefficients_match_the_oracle():
    rnd = random.Random(127)
    count = 0
    for rows, cols in sparse_operands(131):
        want, pivots = gauss_jordan(rows, cols)
        space = Subspace(cols, Mat(rows, cols=cols))
        vectors = [(Fraction(0),) * cols]
        vectors += [tuple(Fraction(int(i == j)) for i in range(cols)) for j in range(cols)]
        vectors += [tuple(x if rnd.random() < 0.3 else Fraction(0) for x in row) for row in rows]
        for _ in range(2):
            cs = [Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)) for _ in pivots]
            vectors.append(tuple(product([cs], want, cols)[0]))
        for v in vectors:
            # against an RREF basis, the residue is v minus its pivot entries times the rows
            at_pivots = [v[p] for p in pivots]
            residue = tuple(
                v[j] - sum((c * row[j] for c, row in zip(at_pivots, want)), Fraction(0))
                for j in range(cols)
            )
            got = space.reduce(v)
            assert got == residue and all_fractions(got)
            if any(residue):
                with pytest.raises(DecompositionError):
                    space.coefficients(v)
            else:
                got = space.coefficients(v)
                assert got == tuple(at_pivots) and all_fractions(got)
            count += 1
    assert count > 200


def oracle_null(rows, cols):
    """Null vectors of the rows, read off the oracle's RREF."""
    want, pivots = gauss_jordan(rows, cols)
    null = []
    for j in (j for j in range(cols) if j not in pivots):
        v = [Fraction(0)] * cols
        v[j] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -want[r][j]
        null.append(v)
    return null


def test_sparse_intersect_matches_the_annihilator_oracle():
    # U cap V is the annihilator of ann(U) + ann(V)
    rnd = random.Random(137)

    def sparse_row(cols):
        def entry():
            return Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 4), rnd.randint(1, 6))

        return [entry() if rnd.random() < 0.5 else Fraction(0) for _ in range(cols)]

    shapes = ((1, 0, 1, 0), (3, 1, 1, 1), (5, 1, 2, 1), (5, 2, 1, 1))
    shapes += ((6, 2, 2, 2), (7, 2, 2, 2), (7, 3, 1, 3), (8, 1, 3, 3))
    count = proper = 0
    for cols, shared, extra_u, extra_v in shapes:
        for _ in range(3):
            common = [sparse_row(cols) for _ in range(shared)]
            u = common + [sparse_row(cols) for _ in range(extra_u)]
            # V holds the shared rows only through sums, so its basis differs from U's
            v = [[a + b for a, b in zip(row, common[-1])] for row in common[:-1]] + common[-1:]
            v += [sparse_row(cols) for _ in range(extra_v)]
            got = Subspace.from_vectors(cols, u).intersect(Subspace.from_vectors(cols, v))
            ann = oracle_null(u, cols) + oracle_null(v, cols)
            want, pivots = gauss_jordan(oracle_null(ann, cols), cols)
            assert got.basis == Mat(want[: len(pivots)], cols=cols)
            assert all_fractions(*got.basis.row_list())
            proper += 0 < got.dim < min(len(u), len(v))
            count += 1
    assert count == 24 and proper > 12


# -- one canonical matrix format ---------------------------------------------------


def canonical_operands(seed):
    """Seeded (rows, cols) with denominators up to 7: empty, zero, all-negative and mixed."""
    rnd = random.Random(seed)

    def entry():
        if rnd.random() < 0.3:
            return Fraction(0)
        return Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))

    for r, c in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (3, 3), (4, 4), (2, 5), (5, 2), (3, 4)):
        yield [[entry() for _ in range(c)] for _ in range(r)], c
        yield [[Fraction(0)] * c for _ in range(r)], c
        yield [[-abs(entry()) - Fraction(1, 7) for _ in range(c)] for _ in range(r)], c
        for _ in range(2):
            yield [[entry() for _ in range(c)] for _ in range(r)], c


def assert_canonical(m: Mat, want, cols):
    """den > 0, gcd(den, entries) = 1, and the entries are the oracle's values."""
    assert type(m.den) is int and m.den > 0
    assert all(type(x) is int for row in m.num for x in row)
    assert gcd(m.den, *(x for row in m.num for x in row)) == 1
    assert (m.rows, m.cols) == (len(want), cols)
    assert [[Fraction(x, m.den) for x in row] for row in m.num] == [list(row) for row in want]
    assert m.row_list() == [tuple(row) for row in want] and all_fractions(*m.row_list())


def test_every_mat_operation_returns_the_canonical_integer_form():
    rnd = random.Random(163)
    count = inverses = 0
    for rows, cols in canonical_operands(167):
        a = Mat(rows, cols=cols)
        assert_canonical(a, rows, cols)
        other = [[Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)) for _ in row] for row in rows]
        b = Mat(other, cols=cols)
        pairs = [list(zip(r1, r2)) for r1, r2 in zip(rows, other)]
        assert_canonical(a + b, [[x + y for x, y in row] for row in pairs], cols)
        assert_canonical(a - b, [[x - y for x, y in row] for row in pairs], cols)
        assert_canonical(-a, [[-x for x in row] for row in rows], cols)
        for c in (-2, 0, Fraction(0), Fraction(-3, 5), Fraction(7, 3), "5/10"):
            assert_canonical(a.scale(c), [[Fraction(c) * x for x in row] for row in rows], cols)
        transposed = [list(col) for col in zip(*rows)] if rows else [[] for _ in range(cols)]
        assert_canonical(a.transpose(), transposed, len(rows))
        assert_canonical(a * a.transpose(), product(rows, transposed, len(rows)), len(rows))
        assert_canonical(a.transpose() * a, product(transposed, rows, cols), cols)
        assert_canonical(rref(a), gauss_jordan(rows, cols)[0], cols)
        if len(rows) == cols:
            want = inverse(rows)
            if want is None:
                with pytest.raises(DecompositionError):
                    a.inverse()
            else:
                assert_canonical(a.inverse(), want, cols)
                inverses += 1
        v = tuple(Fraction(rnd.randint(-5, 5), rnd.randint(1, 7)) for _ in range(cols))
        got = a.apply(v)
        assert got == oracle_apply(rows, v) and all_fractions(got)
        count += 1
    assert count == 50 and inverses > 10


def test_equal_values_built_different_ways_compare_and_hash_equal():
    assert Mat([["2/4"]]) == Mat([[Fraction(1, 2)]]) == Mat([[3]], 6) == Mat([[-1]], -2)
    assert hash(Mat([["2/4"]])) == hash(Mat([[Fraction(1, 2)]])) == hash(Mat([[3]], 6))
    assert Mat([[0, 0]], 5) == Mat([[0, 0]]) and Mat([], 7, 3) == Mat([], cols=3)
    assert Mat([[2, 0], [0, 2]], 2) == Mat.identity(2)
    assert Mat([[1, 2]], cols=2) != Mat([[1, 2]], 3)
    rnd = random.Random(173)
    count = 0
    for rows, cols in canonical_operands(179):
        a = Mat(rows, cols=cols)
        k = rnd.randint(2, 9)
        routes = [
            a.scale(3).scale(Fraction(1, 3)),
            Mat(a.num, a.den, cols),
            # integer rows with a common factor left in, or over a negative denominator
            Mat([[k * x for x in row] for row in a.num], k * a.den, cols),
            Mat([[-x for x in row] for row in a.num], -a.den, cols),
            -(-a),
            (a + a) - a,
            a.transpose().transpose(),
            Mat([[str(x) for x in row] for row in rows], cols=cols),
        ]
        for twin in routes:
            assert twin == a and hash(twin) == hash(a)
            assert (twin.num, twin.den) == (a.num, a.den)
        count += 1
    assert count == 50
