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

Invariants (type A) are coefficients of the characteristic polynomial of
the defining realization: for det(lambda I - M) = lambda^m + sum_k a_k
lambda^(m-k), the reported tuple is (-a_2, ..., -a_m).  They are computed
in integers: with M = realize(x) = Y / D, Y integral, a_k(M) = c_k(Y) / D^k,
so each invariant is -c_k(Y) / D^k for the integer coefficients c_k of
det(lambda I - Y).

Their Jacobian comes from the same Faddeev-LeVerrier run on Y
(`exactlin._faddeev_leverrier`, which the group layer's inverses share).
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

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ConstructionError, DomainError
from .exactlin import (
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
from .liealg import Element, GroupElement, LieAlgebra


class PrincipalTriple:
    """A principal sl2 triple: [h,e] = 2e, [h,f] = -2f, [e,f] = h, e regular."""

    __slots__ = ("algebra", "e", "h", "f")

    def __init__(self, algebra: LieAlgebra, e: Element, h: Element, f: Element):
        two_e = e.scale(2)
        minus_two_f = f.scale(-2)
        if algebra.bracket(h, e) != two_e or algebra.bracket(h, f) != minus_two_f:
            raise ConstructionError("candidate triple breaks the grading relations")
        if algebra.bracket(e, f) != h:
            raise ConstructionError("candidate triple breaks [e,f] = h")
        if not (algebra.is_regular(e) and algebra.is_regular(h) and algebra.is_regular(f)):
            raise ConstructionError("principal triple members must all be regular")
        self.algebra = algebra
        self.e = e
        self.h = h
        self.f = f

    def __repr__(self) -> str:
        return f"PrincipalTriple({self.algebra.descriptor})"


@lru_cache(maxsize=None)
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
    """The slice f + g^e together with the graded solver data for the sweep."""

    __slots__ = (
        "algebra",
        "triple",
        "ge_basis",
        "degrees",
        "_levels",
        "_solvers",
        "_ge_rows_by_degree",
    )

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
        self._ge_rows_by_degree = ge_rows_by_degree
        all_rows = [row for d in sorted(ge_rows_by_degree) for row in ge_rows_by_degree[d]]
        self.ge_basis = Subspace(n, all_rows)
        self.degrees = tuple(sorted(exponents))
        if self.ge_basis.dim != algebra.rank:
            raise ConstructionError("centralizer of e has the wrong dimension")

        # per-level solver: g_d = (g^e cap g_d) + [f, g_{d+2}] for d >= 0, the
        # columns over ad f's denominator e: the g^e rows times e, then ad f's
        ad_f = algebra.ad(triple.f)
        e = ad_f.den
        self._levels = sorted(d for d in by_degree if d >= 0)
        self._solvers: dict[int, tuple[list[int], Mat, int, list[int]]] = {}
        for d in self._levels:
            rows_idx = by_degree[d]
            ge_part = ge_rows_by_degree.get(d, [])
            w_idx = by_degree.get(d + 2, [])
            cols = [[e * g[r] for r in rows_idx] for g in ge_part]
            cols += [[ad_f.num[r][w] for r in rows_idx] for w in w_idx]
            if len(cols) != len(rows_idx):
                raise ConstructionError("graded decomposition is not square at level %d" % d)
            square = Mat(list(zip(*cols)), e, len(cols))
            self._solvers[d] = (rows_idx, square.inverse(), len(ge_part), w_idx)

    def contains(self, x: Element) -> bool:
        """Membership in f + g^e."""
        return self.ge_basis.contains((x - self.triple.f).num)

    def __repr__(self) -> str:
        return f"KostantSlice({self.algebra.descriptor}, degrees={self.degrees})"


@lru_cache(maxsize=None)
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
    f = kslice.triple.f
    if not L.borel.contains((xi - f).num):
        raise DomainError("slice_normalize needs a point of f + b")
    x = xi
    applied: list[Element] = []
    for d in kslice._levels:
        rows_idx, inv, k_ge, w_idx = kslice._solvers[d]
        resid = x - f
        v = [resid.num[r] for r in rows_idx]
        if not any(v):
            continue
        # the level's coordinates are v / resid.den, so the coefficients are too
        w_coeffs = [c / resid.den for c in inv.apply(v)[k_ge:]]
        terms = [L.basis_element(widx).scale(c) for c, widx in zip(w_coeffs, w_idx) if c]
        if terms and not stepwise:
            terms = [sum(terms[1:], terms[0])]
        for u in terms:
            x = L.exp_ad_apply(u, x)
            applied.append(u)
    if not kslice.ge_basis.contains((x - f).num):
        raise ConstructionError("normalization sweep failed to land on the slice")
    return list(reversed(applied)), x


def witness_group_element(algebra: LieAlgebra, witness: list[Element]) -> GroupElement:
    """Group element realizing a witness list: Ad_g = exp(ad u_1) o ... o exp(ad u_m).

    An empty witness gives the identity.
    """
    g = algebra.group_identity()
    for u in witness:
        algebra._check_same(u.algebra)
        g = g * algebra.group_exp(u)
    return g


class InvariantSystem:
    """The fundamental invariants of a type A algebra, exactly evaluable."""

    __slots__ = ("algebra", "degrees")

    def __init__(self, algebra: LieAlgebra):
        algebra._require_realization()
        self.algebra = algebra
        self.degrees = tuple(range(2, algebra.rank + 2))

    def eval(self, x: Element) -> tuple[Rat, ...]:
        real = self.algebra.realize(x)
        d = real.den
        coeffs, _ = _faddeev_leverrier(real.num)
        return tuple(Fraction(-c, d**k) for k, c in enumerate(coeffs[1:], 2))

    def gradient(self, x: Element) -> tuple[tuple[Rat, ...], ...]:
        """Exact rank x dim Jacobian of the invariants at x, one row per invariant."""
        real = self.algebra.realize(x)
        d = real.den
        _, adjugate = _faddeev_leverrier(real.num)
        basis = self.algebra._realization
        return tuple(
            # tr(B R_j), summed over the nonzero entries (row, col, value) of R_j
            tuple(Fraction(sum(b[col][row] * v for row, col, v in r), d**k) for r in basis)
            for k, b in enumerate(adjugate[1:], 1)
        )

    def eval_dual(self, x: Element, direction: Element) -> tuple[tuple[Rat, Rat], ...]:
        """Invariants of x + eps*direction as (value, derivative) pairs.

        With realize(direction) = Z / E, the derivative of the invariant of
        degree k is tr(B[k-1] Z) / (D^(k-1) E).
        """
        real, z = self.algebra.realize(x), self.algebra.realize(direction)
        d = real.den
        coeffs, adjugate = _faddeev_leverrier(real.num)
        return tuple(
            (Fraction(-c, d**k), Fraction(_trace_mul(b, z.num), d ** (k - 1) * z.den))
            for k, (c, b) in enumerate(zip(coeffs[1:], adjugate[1:]), 2)
        )


@lru_cache(maxsize=None)
def invariant_system(algebra: LieAlgebra) -> InvariantSystem:
    return InvariantSystem(algebra)


def invariants_eval(x: Element) -> tuple[Rat, ...]:
    """Invariant values of x, lowest degree first (type A)."""
    return invariant_system(x.algebra).eval(x)


def slice_from_invariants(kslice: KostantSlice, values) -> Element:
    """The unique slice point with the prescribed invariant values (type A).

    Solved by back-substitution up the grading: the invariant of degree d_k
    is affine in the slice coordinate of the same degree and cannot involve
    the higher ones, so two probes per level determine each coordinate.
    """
    L = kslice.algebra
    system = invariant_system(L)
    vals = vec(values)
    if len(vals) != L.rank:
        raise DomainError("expected one value per invariant")
    by_degree = kslice._ge_rows_by_degree
    ge = [L.element(row) for d in sorted(by_degree) for row in by_degree[d]]
    f = kslice.triple.f
    t: list[Rat] = []
    for k in range(L.rank):
        base = f
        for coeff, row in zip(t, ge):
            base = base + row.scale(coeff)
        f0 = system.eval(base)[k]
        f1 = system.eval(base + ge[k])[k]
        pivot = f1 - f0
        if pivot == 0:
            raise ConstructionError("invariant does not move along its slice coordinate")
        t.append((vals[k] - f0) / pivot)
    out = f
    for coeff, row in zip(t, ge):
        out = out + row.scale(coeff)
    if system.eval(out) != tuple(vals):
        raise ConstructionError("slice point does not reproduce the invariants")
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
