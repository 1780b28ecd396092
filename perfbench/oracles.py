"""Independent exact oracles for the benchmark's correctness checks.

Nothing here imports `ucz`: the product, the elimination, the Weyl group
and the Cartan matrices are written out again so that a fault in the
program cannot hide behind the code that checks it.

Cartan convention (the one `ucz` documents): A[i][j] = <alpha_j, alpha_i^vee>,
so a root with simple-root coordinates m pairs with the i-th simple coroot
as sum_j m_j A[i][j], and alpha_i(h_k) = A[k][i] for the simple coroots h_k.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -3), (-1, 2)),
}


# -- exact matrices ------------------------------------------------------------


def matmul(a, b):
    """Exact product of two matrices given as row sequences of Fractions."""
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for row in a:
        if len(row) != inner:
            raise ValueError("inner dimensions differ")
        acc = [Fraction(0)] * cols
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def echelon(rows):
    """Reduced row echelon form by Gauss-Jordan elimination over Fraction.

    Returns the nonzero rows as a tuple of tuples, which is a canonical
    description of the row space: equal row spaces give equal tuples.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    cols = len(work[0]) if work else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f:
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row) for row in work[:r])


def rank(rows):
    return len(echelon(rows))


def in_row_space(rows, v):
    """Is v a combination of `rows`?"""
    return rank(list(rows) + [v]) == rank(rows)


# -- Weyl group ----------------------------------------------------------------


def _reflection(cartan, i):
    """s_i on simple-root coordinates: beta -> beta - <beta, alpha_i^vee> alpha_i."""
    l = len(cartan)
    rows = []
    for k in range(l):
        # column j of the matrix is s_i applied to alpha_j
        rows.append(tuple(int(k == j) - (cartan[i][j] if k == i else 0) for j in range(l)))
    return tuple(rows)


def _compose(a, b):
    l = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(l)) for j in range(l)) for i in range(l))


def weyl_group(cartan, generators=None):
    """The group generated by the simple reflections s_i, i in `generators`.

    Elements are integer matrices on simple-root coordinates; the closure
    is a breadth-first search from the identity.
    """
    l = len(cartan)
    if generators is None:
        generators = range(l)
    gens = [_reflection(cartan, i) for i in generators]
    one = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    seen = {one}
    frontier = [one]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = _compose(w, s)
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    return seen


def coset_counts(cartan):
    """|W / W_I| for every proper subset I of the simple roots (1-based)."""
    l = len(cartan)
    order = len(weyl_group(cartan))
    out = {}
    for size in range(l):
        for I in combinations(range(1, l + 1), size):
            out[frozenset(I)] = order // len(weyl_group(cartan, [i - 1 for i in I]))
    return out


def torus_fixed_count(descriptor):
    """sum over I proper of |W/W_I|: the boundary points of the Weyl-fan toric variety."""
    return sum(coset_counts(CARTAN[descriptor]).values())


# -- sigma values ----------------------------------------------------------------


def simple_root_values(descriptor, h):
    """alpha_i(t) for t = sum_k h[k] h_k, i = 1..l."""
    A = CARTAN[descriptor]
    l = len(A)
    return tuple(sum((Fraction(h[k]) * A[k][i] for k in range(l)), Fraction(0)) for i in range(l))


def sigma_oracle(descriptor, I, h):
    """The values alpha_j(t), j not in I, of the Levi-central part t of h.

    h is the Cartan component of a point of l_I.  Its derived part lies
    in the span of the coroots h_i, i in I; t = h - sum c_i h_i is fixed
    by alpha_k(t) = 0 for k in I, a square system in the Cartan block A_II.
    """
    A = CARTAN[descriptor]
    l = len(A)
    idx = sorted(i - 1 for i in I)
    values = simple_root_values(descriptor, h)
    # solve sum_i c_i A[i][k] = alpha_k(h) for k in I
    system = [[Fraction(A[i][k]) for i in idx] + [values[k]] for k in idx]
    red = echelon(system)
    if len(red) != len(idx):
        raise ArithmeticError("Cartan block is singular")
    c = [row[-1] for row in red]
    return tuple(
        values[j] - sum((ci * A[i][j] for ci, i in zip(c, idx)), Fraction(0))
        for j in range(l)
        if j not in idx
    )
