"""Principal sl2 triples, the Kostant slice, and its normalization sweep.

The principal triple (e, h, f) gives g a grading by the (even, integer)
eigenvalues of ad h.  The slice is f + g^e with g^e spanned by homogeneous
centralizer vectors; its degrees recover the exponents of the algebra.

slice_normalize pushes any point of f + b into the slice by one unipotent
correction per grading level, lowest level first.  Each correction lives in
the next grading level of n, is uniquely determined, and does not disturb
the levels already cleared, so the sweep terminates after at most one pass
over the grading.  The witness list is returned so that
exp(ad u_1) o exp(ad u_2) o ... o exp(ad u_m) maps the input to the normal
form, i.e. the LAST list entry is applied first.

The sweep runs on integer rows.  f has degree -2, so on the levels d >= 0
the point x and x - f agree, and each level is read straight from x.num.
Each level's solver keeps only the integer rows of its inverse that give
the correction, with their denominator, so a correction is one integer
`Element` over that denominator times x.den, fixed before the stepwise
loop, and `exp_ad_apply` sums its series in integers.

The inverse section `slice_from_invariants` evaluates the invariants once
per level.  On the slice f + sum_j t_j g_j the invariant I_k of degree d_k
is weighted homogeneous with t_j of weight d_j, and the degrees of the
catalogue are distinct, so I_k is c_k t_k plus a polynomial in the lower
t_j, with the constant c_k = I_k(f + g_k) - I_k(f) cached per slice on
first use (`slice_pivots`).

Invariants are coefficients of the characteristic polynomial of the
realization: for det(lambda I - M) = lambda^m + sum_k a_k lambda^(m-k),
they are -a_d for the degrees d of `root_degrees`, (2, 4) for B2 and
(2, 6) for G2.  They are computed in integers: with M = realize(x) = Y / D,
Y integral, a_k(M) = c_k(Y) / D^k, so each invariant is -c_k(Y) / D^k for
the integer coefficients c_k of det(lambda I - Y).

Their Jacobian comes from the same Faddeev-LeVerrier run on Y
(`exactlin._faddeev_leverrier`, which `Mat.det` shares; its products
Y B_(k-1) are `_int_matmul`, which skips the many zero entries of Y).
The run also yields the adjugate adj(lambda I - Y) =
sum_k B_k lambda^(m-1-k), with B_0 = I, c_k = -tr(Y B_(k-1)) / k (an exact integer division) and
B_k = Y B_(k-1) + c_k I, all integral.  Jacobi's formula
d det(lambda I - M) = -tr(adj(lambda I - M) dM) gives
d a_k = -tr(B_(k-1)(M) dM), and B_(k-1)(M) = B_(k-1)(Y) / D^(k-1).  So the
derivative of the invariant -a_k along basis vector j is
tr(B_(k-1) R_j) / D^(k-1), R_j the integer realization of that vector: one
exact run gives the whole gradient.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Sequence

from .errors import ConstructionError, DomainError
from .exactlin import (
    IntRows,
    Mat,
    Rat,
    Subspace,
    _faddeev_leverrier,
    _trace_mul,
    kernel,
    rank,
    solve,
    vec,
)
from .liealg import Element, LieAlgebra


class PrincipalTriple:
    """A principal sl2 triple: [h,e] = 2e, [h,f] = -2f, [e,f] = h, e regular.

    Nothing is checked here: the kostant suite counts the relations ("sl2
    relations") and the regularity of e ("centralizer dimension"), and with
    both, h and f are regular too (Kostant, 1959).
    """

    __slots__ = ("algebra", "e", "h", "f")

    def __init__(self, algebra: LieAlgebra, e: Element, h: Element, f: Element):
        self.algebra = algebra
        self.e = e
        self.h = h
        self.f = f

    def __repr__(self) -> str:
        return f"PrincipalTriple({self.algebra.descriptor})"


@cache
def build_principal_triple(algebra: LieAlgebra) -> PrincipalTriple:
    """Regular nilpotent e = sum of simple root vectors, completed to a triple."""
    rs = algebra.root_system
    l = algebra.rank
    e = algebra.zero()
    for i in range(l):
        k = rs.positive_roots.index(rs.simple_roots[i])
        e = e + algebra.e(k)
    # coefficients c with sum_i c_i <alpha_j, alpha_i^vee> = 2 for all j
    at = rs.cartan_matrix.transpose()
    c = solve(at, vec([2] * l))
    h = algebra.zero()
    f = algebra.zero()
    for i in range(l):
        k = rs.positive_roots.index(rs.simple_roots[i])
        h = h + algebra.h(i).scale(c[i])
        f = f + algebra.f(k).scale(c[i])
    return PrincipalTriple(algebra, e, h, f)


class KostantSlice:
    """The slice f + g^e together with the graded solver data for the sweep.

    `ge_elements` is the graded basis of g^e, one homogeneous integer
    element per exponent, lowest degree first, built once here; `ge_basis`
    is its span.
    """

    __slots__ = ("algebra", "triple", "ge_elements", "ge_basis", "degrees", "_levels", "_solvers")

    def __init__(self, algebra: LieAlgebra, triple: PrincipalTriple):
        self.algebra = algebra
        self.triple = triple
        ad_h = algebra.ad(triple.h)
        n = algebra.dim
        deg: list[int] = []
        for i, row in enumerate(ad_h.num):
            if any(x for j, x in enumerate(row) if j != i):
                raise ConstructionError("ad h is not diagonal in the Chevalley basis")
            deg.append(row[i])
        if ad_h.den != 1 or any(d % 2 for d in deg):
            raise ConstructionError("ad h eigenvalue is not an even integer")
        by_degree: dict[int, list[int]] = {}
        for idx, d in enumerate(deg):
            by_degree.setdefault(d, []).append(idx)

        ad_e = algebra.ad(triple.e).num
        # integer kernel rows: scaling a g^e row changes neither the slice nor
        # the [f, g_(d+2)] part of a level's solution
        ge_rows_by_degree: dict[int, list[list[int]]] = {}
        exponents: list[int] = []
        for d, idxs in sorted(by_degree.items()):
            # dropping ad e's denominator keeps the kernel
            sub = Mat([[row[c] for c in idxs] for row in ad_e], 1, len(idxs))
            for coeffs in kernel(sub).basis.num:
                lifted = [0] * n
                for c, idx in zip(coeffs, idxs):
                    lifted[idx] = c
                ge_rows_by_degree.setdefault(d, []).append(lifted)
                exponents.append((d + 2) // 2)
        all_rows = [row for d in sorted(ge_rows_by_degree) for row in ge_rows_by_degree[d]]
        self.ge_elements = tuple(Element(algebra, row, 1) for row in all_rows)
        self.ge_basis = Subspace(n, all_rows)
        self.degrees = tuple(sorted(exponents))

        # per-level solver: g_d = (g^e cap g_d) + [f, g_{d+2}] for d >= 0, the
        # columns over ad f's denominator e: the g^e rows times e, then ad f's.
        # Only the [f, g_{d+2}] rows of the inverse are kept, with its denominator.
        ad_f = algebra.ad(triple.f)
        e = ad_f.den
        self._levels = sorted(d for d in by_degree if d >= 0)
        self._solvers: dict[int, tuple[list[int], IntRows, int, list[int]]] = {}
        for d in self._levels:
            rows_idx = by_degree[d]
            ge_part = ge_rows_by_degree.get(d, [])
            w_idx = by_degree.get(d + 2, [])
            cols = [[e * g[r] for r in rows_idx] for g in ge_part]
            cols += [[ad_f.num[r][w] for r in rows_idx] for w in w_idx]
            if len(cols) != len(rows_idx):
                raise ConstructionError("graded decomposition is not square at level %d" % d)
            inv = Mat(list(zip(*cols)), e, len(cols)).inverse()
            self._solvers[d] = (rows_idx, inv.num[len(ge_part) :], inv.den, w_idx)

    def contains(self, x: Element) -> bool:
        """Membership in f + g^e."""
        return self.ge_basis.contains((x - self.triple.f).num)

    def __repr__(self) -> str:
        return f"KostantSlice({self.algebra.descriptor}, degrees={self.degrees})"


@cache
def slice_for(algebra: LieAlgebra) -> KostantSlice:
    """The slice of the cached principal triple, built once per algebra."""
    return KostantSlice(algebra, build_principal_triple(algebra))


def slice_normalize(
    kslice: KostantSlice, xi: Element, stepwise: bool = False
) -> tuple[list[Element], Element]:
    """Move xi in f + b to its unique slice point by unipotent corrections.

    Returns (witness, normal_form) with the composition convention described
    in the module docstring.  With stepwise=True each level's correction is
    factored into per-coordinate exponentials; the witness changes but the
    normal form provably cannot (the unipotent action on f + b is free).
    """
    L = kslice.algebra
    if not L.borel.contains((xi - kslice.triple.f).num):
        raise DomainError("slice_normalize needs a point of f + b")
    x = xi
    applied: list[Element] = []
    for d in kslice._levels:
        rows_idx, solve_w, solve_den, w_idx = kslice._solvers[d]
        # f has degree -2, so x - f and x agree on the levels d >= 0
        v = [x.num[r] for r in rows_idx]
        # the level's coordinates are v / x.den, so the coefficients are over solve_den * x.den
        den = solve_den * x.den
        terms = [(w, c) for w, row in zip(w_idx, solve_w) if (c := sum(map(mul, row, v)))]
        if not terms:
            continue
        for part in [[t] for t in terms] if stepwise else [terms]:
            num = [0] * L.dim
            for w, c in part:
                num[w] = c
            u = Element(L, num, den)
            x = L.exp_ad_apply(u, x)
            applied.append(u)
    return list(reversed(applied)), x


def root_degrees(L: LieAlgebra) -> tuple[int, ...]:
    """Degrees of the basic invariants, the exponents plus one, read off the roots.

    Exactly c exponents are >= k when c positive roots have height k
    (Kostant, 1959).  Independent of `KostantSlice.degrees`, which grades
    g^e by ad h.
    """
    rs = L.root_system
    counts = Counter(rs.height(alpha) for alpha in rs.positive_roots).values()
    exponents = [sum(1 for c in counts if c >= j) for j in range(1, L.rank + 1)]
    return tuple(sorted(m + 1 for m in exponents))


class InvariantSystem:
    """The fundamental invariants, the char-poly coefficient of each degree, exactly evaluable."""

    __slots__ = ("algebra", "degrees")

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        self.degrees = root_degrees(algebra)

    def eval(self, x: Element) -> tuple[Rat, ...]:
        real = self.algebra.realize(x)
        d = real.den
        coeffs, _ = _faddeev_leverrier(real.num)
        return tuple(Fraction(-coeffs[k - 1], d**k) for k in self.degrees)

    def gradient(self, x: Element) -> tuple[tuple[Rat, ...], ...]:
        """Exact rank x dim Jacobian of the invariants at x, one row per invariant."""
        real = self.algebra.realize(x)
        d = real.den
        _, adjugate = _faddeev_leverrier(real.num)
        basis = self.algebra._realization
        rows = []
        for k in self.degrees:
            b, scale = adjugate[k - 1], d ** (k - 1)
            # tr(B R_j), summed over the nonzero entries (row, col, value) of R_j
            rows.append(tuple(Fraction(sum(b[c][r] * v for r, c, v in rj), scale) for rj in basis))
        return tuple(rows)

    def eval_dual(self, x: Element, direction: Element) -> tuple[tuple[Rat, Rat], ...]:
        """Invariants of x + eps*direction as (value, derivative) pairs.

        With realize(direction) = Z / E, the derivative of the invariant of
        degree k is tr(B[k-1] Z) / (D^(k-1) E).
        """
        real, z = self.algebra.realize(x), self.algebra.realize(direction)
        d = real.den
        coeffs, adjugate = _faddeev_leverrier(real.num)
        return tuple(
            (
                Fraction(-coeffs[k - 1], d**k),
                Fraction(_trace_mul(adjugate[k - 1], z.num), d ** (k - 1) * z.den),
            )
            for k in self.degrees
        )


@cache
def invariant_system(algebra: LieAlgebra) -> InvariantSystem:
    return InvariantSystem(algebra)


def invariants_eval(x: Element) -> tuple[Rat, ...]:
    """Invariant values of x, lowest degree first."""
    return invariant_system(x.algebra).eval(x)


@cache
def slice_pivots(kslice: KostantSlice) -> tuple[Rat, ...]:
    """Per g^e vector g_k, c_k = I_k(f + g_k) - I_k(f), built once per slice on first use.

    c_k is the coefficient of the slice coordinate t_k in the invariant I_k
    of the same degree (see `slice_from_invariants`).
    """
    system = invariant_system(kslice.algebra)
    f = kslice.triple.f
    at_f = system.eval(f)
    pivots = tuple(system.eval(f + g)[k] - at_f[k] for k, g in enumerate(kslice.ge_elements))
    if not all(pivots):
        raise ConstructionError("invariant does not move along its slice coordinate")
    return pivots


def slice_from_invariants(kslice: KostantSlice, values) -> Element:
    """The unique slice point with the prescribed invariant values.

    Solved by back-substitution up the grading.  By weighted homogeneity
    the invariant of degree d_k is, on the slice, c_k t_k plus a polynomial
    in the lower coordinates, with the constant c_k = I_k(f + g_k) - I_k(f)
    cached per slice (`slice_pivots`), so one evaluation per level
    determines each coordinate.  The coordinates are along the slice's
    cached `ge_elements`.
    """
    L = kslice.algebra
    system = invariant_system(L)
    vals = vec(values)
    if len(vals) != L.rank:
        raise DomainError("expected one value per invariant")
    out = kslice.triple.f
    for k, (g, pivot) in enumerate(zip(kslice.ge_elements, slice_pivots(kslice))):
        out = out + g.scale((vals[k] - system.eval(out)[k]) / pivot)
    return out


def in_fiber_product(x: Element, y: Element) -> bool:
    """Do x and y have equal invariants (lie in the same invariant fiber)?"""
    x.algebra._check_same(y.algebra)
    return invariants_eval(x) == invariants_eval(y)


def jacobian_rank_at(x: Element, y: Element) -> int:
    """Exact rank of the differential of (x, y) -> invariants(x) - invariants(y)."""
    L = x.algebra
    L._check_same(y.algebra)
    system = invariant_system(L)
    # the y block enters negated, which does not change the rank
    rows = [gx + gy for gx, gy in zip(system.gradient(x), system.gradient(y))]
    return rank(Mat(rows, cols=2 * L.dim))
