"""Reference computations over plain `Fraction`s, sharing no code with `ucz`.

Each function is the textbook algorithm, written for clarity and not for
speed: the Leibniz and elimination determinants, Gauss-Jordan
elimination, inverse, null space, coordinates in a span and projection
along a complement, the row-by-column product, Ad_g of a realized Lie
algebra as columns of coordinates, the trace of a product,
the exponential series of a nilpotent matrix and products of such
exponentials, and the order of a Weyl group closed from its simple
reflections.
The tests compare the library's exact results with these.  Nothing here
imports `ucz`, which `test_oracles.py` checks, so a fault in the library
cannot hide in its own oracle.
"""

from fractions import Fraction
from itertools import combinations, permutations


def all_fractions(*rows) -> bool:
    """Is every entry of every row a plain `Fraction`?  A vector is one row."""
    return all(type(x) is Fraction for row in rows for x in row)


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def leibniz_det(rows) -> Fraction:
    """The sum over all permutations of the signed products of entries."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def elimination_det(rows) -> Fraction:
    """The product of the pivots of Gaussian elimination, with a sign per row swap."""
    work = [[Fraction(x) for x in row] for row in rows]
    n = len(work)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if work[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            work[c], work[p] = work[p], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return det


def gauss_jordan(rows, cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan reduced row echelon form and pivot columns; zero rows stay at the bottom."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def inverse(rows) -> list[list[Fraction]] | None:
    """The right block of the reduced form of [A | I]; None when A is singular."""
    n = len(rows)
    work, pivots = gauss_jordan([list(row) + unit for row, unit in zip(rows, identity(n))], 2 * n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in work]


def null_space(rows, cols: int) -> list[list[Fraction]]:
    """A basis of {v : rows v = 0}: one vector per free column of the reduced form."""
    work, pivots = gauss_jordan(rows, cols)
    out = []
    for j in range(cols):
        if j not in pivots:
            v = [Fraction(0)] * cols
            v[j] = Fraction(1)
            for row, p in zip(work, pivots):
                v[p] = -row[j]
            out.append(v)
    return out


def span_coordinates(basis, v) -> list[Fraction] | None:
    """The a with sum_i a_i basis_i = v for independent rows basis_i; None off their span."""
    system = [[row[i] for row in basis] + [v[i]] for i in range(len(v))]
    work, pivots = gauss_jordan(system, len(basis) + 1)
    if len(basis) in pivots:
        return None
    if pivots != list(range(len(basis))):
        raise ValueError("basis rows are dependent")
    return [work[k][-1] for k in range(len(basis))]


def projection(onto, along, v) -> list[Fraction]:
    """The part in span(onto) of v = sum a_i onto_i + sum b_j along_j.

    The rows of onto and along together must be a basis; the coordinates
    (a, b) are read off the reduced form of the columns [onto, along | v].
    """
    basis = list(onto) + list(along)
    system = [[row[i] for row in basis] + [v[i]] for i in range(len(v))]
    work, pivots = gauss_jordan(system, len(basis) + 1)
    if pivots != list(range(len(basis))) or len(basis) != len(v):
        raise ValueError("onto and along do not form a basis")
    coeffs = [work[k][-1] for k in range(len(onto))]
    return [sum((c * row[i] for c, row in zip(coeffs, onto)), Fraction(0)) for i in range(len(v))]


def product(a, b, cols: int) -> list[list[Fraction]]:
    """Row-by-column sums for an a of any shape and b with `cols` columns."""
    return [
        [sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def adjoint_columns(g, realized) -> list[list[Fraction]]:
    """Ad_g on a realized Lie algebra: column k is the coordinates of g R_k g^-1 in the R_j.

    g is a square matrix and `realized` the basis matrices R_j; g^-1 is the
    Gauss-Jordan inverse, and the coordinates are read by `span_coordinates`
    from the flattened matrices.
    """
    m = len(g)
    g_inv = inverse(g)
    if g_inv is None:
        raise ValueError("g is singular")
    flat = [[x for row in r for x in row] for r in realized]
    columns = []
    for r in realized:
        moved = product(product(g, r, m), g_inv, m)
        coords = span_coordinates(flat, [x for row in moved for x in row])
        if coords is None:
            raise ValueError("g R g^-1 leaves the span of the realized basis")
        columns.append(coords)
    return columns


def apply_columns(columns, v) -> list[Fraction]:
    """sum_k v_k columns_k: the matrix with these columns applied to v."""
    out = [Fraction(0)] * len(columns[0])
    for c, col in zip(v, columns):
        if c:
            out = [a + c * x for a, x in zip(out, col)]
    return out


def trace_product(a, b) -> Fraction:
    """tr(A B) of two square matrices."""
    return sum((a[i][k] * b[k][i] for i in range(len(a)) for k in range(len(b))), Fraction(0))


def exp_nilpotent(rows) -> list[list[Fraction]]:
    """sum_k A^k / k! of a nilpotent square A, summed until A^k = 0."""
    n = len(rows)
    total = identity(n)
    term = identity(n)
    for k in range(1, n + 1):
        term = [[x / k for x in row] for row in product(term, rows, n)]
        if all(x == 0 for row in term for x in row):
            return total
        total = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(total, term)]
    raise ValueError("matrix is not nilpotent")


def exp_product(n: int, mats) -> list[list[Fraction]]:
    """exp(A_1) ... exp(A_k) of nilpotent n x n matrices, in order; the identity for none."""
    total = identity(n)
    for rows in mats:
        total = product(total, exp_nilpotent(rows), n)
    return total


def weyl_group_order(cartan, generators=None) -> int:
    """|W_J|, generated by s_i(alpha_j) = alpha_j - cartan[i][j] alpha_i for i in J (0-based).

    An element is its integer matrix on simple-root coordinates, one column
    per simple root; the group is closed breadth first from the identity.
    """
    l = len(cartan)
    gens = [
        tuple(
            tuple(int(r == j) - (cartan[i][j] if r == i else 0) for j in range(l))
            for r in range(l)
        )
        for i in (range(l) if generators is None else generators)
    ]
    one = tuple(tuple(int(r == c) for c in range(l)) for r in range(l))
    seen, frontier = {one}, [one]
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                ws = tuple(
                    tuple(sum(w[r][k] * s[k][c] for k in range(l)) for c in range(l))
                    for r in range(l)
                )
                if ws not in seen:
                    seen.add(ws)
                    new.append(ws)
        frontier = new
    return len(seen)
