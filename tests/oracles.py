"""Reference computations over plain `Fraction`s, sharing no code with `ucz`.

Each function is the textbook algorithm, written for clarity and not for
speed: the Leibniz determinant, Gauss-Jordan elimination and inverse, the
row-by-column product, the trace of a product, and the exponential series
of a nilpotent matrix.  The tests compare the
library's exact results with these.  Nothing here imports `ucz`, which
`test_oracles.py` checks, so a fault in the library cannot hide in its
own oracle.
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


def product(a, b, cols: int) -> list[list[Fraction]]:
    """Row-by-column sums for an a of any shape and b with `cols` columns."""
    return [
        [sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


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
