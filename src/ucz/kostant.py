"""Principal sl2 triples, the Kostant slice, and its normalization sweep.

The principal triple (e, h, f) gives g a grading by the (even, integer)
eigenvalues of ad h.  The slice is f + g^e with g^e spanned by homogeneous
centralizer vectors; its degrees recover the exponents of the algebra.

slice_normalize pushes any point of f + b into the slice by one unipotent
correction per grading level, lowest level first.  Each correction lives in
the next grading level of n, is uniquely determined, and does not disturb
the levels already cleared, so the sweep terminates after at most one pass
over the grading.  The witness list is returned so that
exp_ad(u_1) o exp_ad(u_2) o ... o exp_ad(u_m) maps the input to the normal
form, i.e. the LAST list entry is applied first.

Invariants (type A) are coefficients of the characteristic polynomial of
the defining realization: for det(lambda I - M) = lambda^m + sum_k a_k
lambda^(m-k), the reported tuple is (-a_2, ..., -a_m).

Their Jacobian comes from the same Faddeev-LeVerrier run.  The run also
yields the adjugate adj(lambda I - M) = sum_k B_k lambda^(m-1-k), with
B_0 = I and B_k = M B_(k-1) + a_k I, and Jacobi's formula
d det(lambda I - M) = -tr(adj(lambda I - M) dM) gives
d a_k = -tr(B_(k-1) dM).  So the derivative of the invariant -a_k along
basis vector j is tr(B_(k-1) R_j), R_j the realization of that vector: one
exact run gives the whole gradient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ConstructionError, DomainError
from .exactlin import Mat, Rat, Subspace, Vector, kernel, rank, solve, vec
from .liealg import Element, GroupElement, LieAlgebra

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        for i in range(n):
            for j in range(n):
                if i != j and ad_h[(i, j)] != 0:
                    raise ConstructionError("ad h is not diagonal in the Chevalley basis")
            d = ad_h[(i, i)]
            if d.denominator != 1 or int(d) % 2 != 0:
                raise ConstructionError("ad h eigenvalue is not an even integer")
            deg.append(int(d))
        by_degree: dict[int, list[int]] = {}
        for idx, d in enumerate(deg):
            by_degree.setdefault(d, []).append(idx)

        ad_e = algebra.ad(triple.e)
        ge_rows_by_degree: dict[int, list[Vector]] = {}
        exponents: list[int] = []
        for d, idxs in sorted(by_degree.items()):
            sub = Mat.from_rows(
                [tuple(ad_e[(r, c)] for c in idxs) for r in range(n)], cols=len(idxs)
            )
            for coeffs in kernel(sub).basis.row_list():
                lifted = [_ZERO] * n
                for c, idx in zip(coeffs, idxs):
                    lifted[idx] = c
                ge_rows_by_degree.setdefault(d, []).append(tuple(lifted))
                exponents.append((d + 2) // 2)
        self._ge_rows_by_degree = ge_rows_by_degree
        all_rows = [row for d in sorted(ge_rows_by_degree) for row in ge_rows_by_degree[d]]
        self.ge_basis = Subspace.from_vectors(n, all_rows)
        self.degrees = tuple(sorted(exponents))
        if self.ge_basis.dim != algebra.rank:
            raise ConstructionError("centralizer of e has the wrong dimension")

        # per-level solver: g_d = (g^e cap g_d) + [f, g_{d+2}] for d >= 0
        ad_f = algebra.ad(triple.f)
        self._levels = sorted(d for d in by_degree if d >= 0)
        self._solvers: dict[int, tuple[list[int], Mat, int, list[int]]] = {}
        for d in self._levels:
            rows_idx = by_degree[d]
            ge_part = ge_rows_by_degree.get(d, [])
            w_idx = by_degree.get(d + 2, [])
            cols: list[Vector] = []
            for g in ge_part:
                cols.append(tuple(g[r] for r in rows_idx))
            for w in w_idx:
                cols.append(tuple(ad_f[(r, w)] for r in rows_idx))
            if len(cols) != len(rows_idx):
                raise ConstructionError("graded decomposition is not square at level %d" % d)
            square = Mat.from_rows(
                [tuple(col[i] for col in cols) for i in range(len(rows_idx))],
                cols=len(cols),
            )
            self._solvers[d] = (rows_idx, square.inverse(), len(ge_part), w_idx)

    def contains(self, x: Element) -> bool:
        """Membership in f + g^e."""
        return self.ge_basis.contains((x - self.triple.f).coords)

    def __repr__(self) -> str:
        return f"KostantSlice({self.algebra.descriptor}, degrees={self.degrees})"


def build_slice(triple: PrincipalTriple) -> KostantSlice:
    return KostantSlice(triple.algebra, triple)


@lru_cache(maxsize=None)
def slice_for(algebra: LieAlgebra) -> KostantSlice:
    """The slice of the cached principal triple, built once per algebra."""
    return build_slice(build_principal_triple(algebra))


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
    if not L.borel.contains((xi - f).coords):
        raise DomainError("slice_normalize needs a point of f + b")
    x = xi
    applied: list[Element] = []
    for d in kslice._levels:
        rows_idx, inv, k_ge, w_idx = kslice._solvers[d]
        resid = x - f
        v = tuple(resid.coords[r] for r in rows_idx)
        if all(c == 0 for c in v):
            continue
        coeffs = inv.apply(v)
        w_coeffs = coeffs[k_ge:]
        if all(c == 0 for c in w_coeffs):
            continue
        if stepwise:
            for c, widx in zip(w_coeffs, w_idx):
                if c != 0:
                    u = L.basis_element(widx).scale(c)
                    x = L.exp_ad_apply(u, x)
                    applied.append(u)
        else:
            u = L.zero()
            for c, widx in zip(w_coeffs, w_idx):
                if c != 0:
                    u = u + L.basis_element(widx).scale(c)
            x = L.exp_ad_apply(u, x)
            applied.append(u)
    if not kslice.ge_basis.contains((x - f).coords):
        raise ConstructionError("normalization sweep failed to land on the slice")
    return list(reversed(applied)), x


def witness_group_element(algebra: LieAlgebra, witness: list[Element]) -> GroupElement:
    """Group element realizing a witness list: Ad_g = exp_ad(u_1) o ... o exp_ad(u_m).

    An empty witness gives the identity.
    """
    g = algebra.group_identity()
    for u in witness:
        algebra._check_same(u.algebra)
        g = g * algebra.group_exp(u)
    return g


def _exact_sum(values) -> Rat:
    """Sum of the values; zero terms are skipped and the first is taken as it is."""
    s = _ZERO
    for v in values:
        if v:
            s = s + v if s else v
    return s


def _sum_products(pairs) -> Rat:
    """Sum of x * y over the pairs, with no product of a zero factor."""
    return _exact_sum(x * y for x, y in pairs if x and y)


def _faddeev_leverrier(a: list[Vector]) -> tuple[list[Rat], list[list[list[Rat]]]]:
    """Characteristic polynomial and adjugate coefficients of the m x m matrix A.

    Returns (c, B) with det(tI - A) = t^m + sum_k c_k t^(m-k), c listing
    c_1..c_m, and adj(tI - A) = sum_k B[k] t^(m-1-k): B[0] = I,
    c_k = -tr(A B[k-1]) / k and B[k] = A B[k-1] + c_k I for k < m.
    """
    m = len(a)
    support = [[(t, x) for t, x in enumerate(row) if x] for row in a]
    b = [[_ONE if i == j else _ZERO for j in range(m)] for i in range(m)]
    adjugate = [b]
    coeffs: list[Rat] = []
    for k in range(1, m):
        b = [[_sum_products((x, b[t][j]) for t, x in row) for j in range(m)] for row in support]
        tr = _exact_sum(b[i][i] for i in range(m))
        c = -tr / k if tr else tr
        coeffs.append(c)
        if c:
            for i in range(m):
                b[i][i] = b[i][i] + c if b[i][i] else c
        adjugate.append(b)
    # the last step needs only tr(A B[m-1])
    tr = _sum_products((x, b[t][i]) for i, row in enumerate(support) for t, x in row)
    coeffs.append(-tr / m if tr else tr)
    return coeffs, adjugate


class InvariantSystem:
    """The fundamental invariants of a type A algebra, exactly evaluable."""

    __slots__ = ("algebra", "degrees")

    def __init__(self, algebra: LieAlgebra):
        algebra._require_realization()
        self.algebra = algebra
        self.degrees = tuple(range(2, algebra.rank + 2))

    def _charpoly(self, x: Element) -> tuple[list[Rat], list[list[list[Rat]]]]:
        return _faddeev_leverrier(self.algebra.realize(x).row_list())

    def _jacobian(self, adjugate: list[list[list[Rat]]]) -> tuple[tuple[Rat, ...], ...]:
        # the invariant -a_k moves along basis vector j by tr(B_(k-1) R_j),
        # summed over the nonzero entries (row, col, value) of R_j
        basis = self.algebra._realization
        return tuple(
            tuple(_sum_products((b[col][row], v) for row, col, v in r) for r in basis)
            for b in adjugate[1:]
        )

    def eval(self, x: Element) -> tuple[Rat, ...]:
        coeffs, _ = self._charpoly(x)
        return tuple(-c if c else c for c in coeffs[1:])

    def gradient(self, x: Element) -> tuple[tuple[Rat, ...], ...]:
        """Exact rank x dim Jacobian of the invariants at x, one row per invariant."""
        _, adjugate = self._charpoly(x)
        return self._jacobian(adjugate)

    def eval_dual(self, x: Element, direction: Element) -> tuple[tuple[Rat, Rat], ...]:
        """Invariants of x + eps*direction as (value, derivative) pairs."""
        coeffs, adjugate = self._charpoly(x)
        return tuple(
            (-c if c else c, _sum_products(zip(row, direction.coords)))
            for c, row in zip(coeffs[1:], self._jacobian(adjugate))
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
    ge_rows = [row for d in sorted(kslice._ge_rows_by_degree) for row in kslice._ge_rows_by_degree[d]]
    f = kslice.triple.f
    t: list[Rat] = []
    for k in range(L.rank):
        base = f
        for coeff, row in zip(t, ge_rows):
            base = base + L.element(row).scale(coeff)
        f0 = system.eval(base)[k]
        f1 = system.eval(base + L.element(ge_rows[k]))[k]
        pivot = f1 - f0
        if pivot == 0:
            raise ConstructionError("invariant does not move along its slice coordinate")
        t.append((vals[k] - f0) / pivot)
    out = f
    for coeff, row in zip(t, ge_rows):
        out = out + L.element(row).scale(coeff)
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
    return rank(Mat.from_rows(rows, cols=2 * L.dim))
