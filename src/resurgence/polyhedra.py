"""Exact rational polyhedra and linear programming.

H-representations are produced by a fraction-free incremental
double-description pass over the dual cone of the homogenized generators: the
generators enter as primitive integer vectors, rays are combined by integer
cross-multiplication and extremality is a Bareiss rank test, so the pass uses
Python ints only.  Every facet normal is stored as a primitive integer vector,
so Newton-polyhedron facets (and hence Rees valuations) are canonical across
runs.  The LP solver is a dense two-phase simplex with Bland's anti-cycling
rule on one integer tableau whose last row holds the reduced costs: it stores
M = D*T for the rational tableau T and D = |det B| of the basis B, and pivots
fraction-free (Edmonds), so only the read-out builds Fractions and no floating
point enters any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Tuple

from .errors import CapabilityError, DimensionError, DomainError

MAX_HULL_DIM = 8


# ---------------------------------------------------------------------------
# small exact linear algebra
# ---------------------------------------------------------------------------


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by Bareiss fraction-free elimination: after
    each step every entry is a minor of the input, so the division by the
    previous pivot is exact and entries stay integers of bounded size."""
    mat = [list(row) for row in rows]
    cols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        pv = top[col]
        for r in range(rank + 1, len(mat)):
            row = mat[r]
            f = row[col]
            mat[r] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        rank += 1
        if rank == len(mat):
            break
    return rank


def _reduced(vec: Sequence[int]) -> Tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _primitive(vec: Sequence) -> Tuple[int, ...]:
    """Scale a rational vector by a positive factor to coprime integers."""
    fracs = [Fraction(x) for x in vec]
    denom = lcm(*(f.denominator for f in fracs))
    return _reduced([int(f * denom) for f in fracs])


def _primitive_signed(vec: Sequence) -> Tuple[int, ...]:
    """Primitive integer vector with the first nonzero entry positive."""
    p = _primitive(vec)
    first = next((v for v in p if v != 0), 0)
    return tuple(-v for v in p) if first < 0 else p


# ---------------------------------------------------------------------------
# halfspaces and polyhedra
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class HalfSpace:
    """The set {y : <normal, y> >= offset}, normalized to coprime integers."""

    normal: Tuple[int, ...]
    offset: int

    @classmethod
    def normalized(cls, normal: Sequence, offset) -> "HalfSpace":
        joint = _primitive(tuple(normal) + (offset,))
        if all(v == 0 for v in joint[:-1]):
            raise DomainError("halfspace normal must be nonzero")
        return cls(joint[:-1], joint[-1])

    def satisfied_by(self, point: Sequence, scale: int = 1) -> bool:
        # normals/offsets are ints; integer points never touch Fraction here
        return _dot(self.normal, point) >= self.offset * scale


@dataclass(frozen=True)
class RationalPolyhedron:
    """Irredundant H-representation plus (optional) generator data."""

    dim: int
    halfspaces: Tuple[HalfSpace, ...]
    vertices: Tuple[Tuple[Fraction, ...], ...] = ()
    recession_rays: Tuple[Tuple[int, ...], ...] = ()

    def contains(self, point: Sequence, scale: int = 1) -> bool:
        """Membership in scale * P (homogeneous scaling of the offsets)."""
        if len(point) != self.dim:
            raise DimensionError(f"point has dimension {len(point)}, polyhedron {self.dim}")
        return all(h.satisfied_by(point, scale) for h in self.halfspaces)

    def valuation_candidates(self) -> Tuple[HalfSpace, ...]:
        """Facets whose normals are nonnegative weight vectors (the candidates
        for monomial valuations; for a Newton polyhedron this is every facet)."""
        return tuple(h for h in self.halfspaces if all(w >= 0 for w in h.normal))


def _dual_description(generators: list[Tuple[int, ...]], dim: int):
    """Lineality basis and extreme rays of {z : <g, z> >= 0 for all g}.

    Incremental double description over the integers: the lineality space
    starts as all of Z^dim and is cut down whenever a constraint sees it;
    sign-split ray pairs are combined on the constraint hyperplane and
    non-extreme combinations are discarded by an exact rank test on their
    tight sets.  Every update is a cross-multiplication `pval*x - c*pivot`,
    a positive multiple of `x - (c/pval)*pivot`, so all vectors stay integer
    and reduce to the same primitive representatives as over the rationals.
    """
    lineality: list[Tuple[int, ...]] = [
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[Tuple[int, ...]] = []
    processed: list[Tuple[int, ...]] = []

    def is_extreme(ray) -> bool:
        if all(v == 0 for v in ray):
            return False
        tight = [g for g in processed if _dot(g, ray) == 0]
        return _rank(tight) >= dim - len(lineality) - 1

    for g in generators:
        lvals = [_dot(g, l) for l in lineality]
        pivot_idx = next((i for i, v in enumerate(lvals) if v != 0), None)
        if pivot_idx is not None:
            pivot = lineality[pivot_idx]
            pval = lvals[pivot_idx]
            if pval < 0:
                pivot = tuple(-x for x in pivot)
                pval = -pval
            lineality = [
                _reduced([pval * x - c * p for x, p in zip(l, pivot)])
                for i, (l, c) in enumerate(zip(lineality, lvals)) if i != pivot_idx
            ]
            rays = [_reduced([pval * x - _dot(g, r) * p for x, p in zip(r, pivot)]) for r in rays]
            rays.append(_reduced(pivot))
        else:
            valued = [(r, _dot(g, r)) for r in rays]
            plus = [(r, v) for r, v in valued if v > 0]
            minus = [(r, v) for r, v in valued if v < 0]
            combos = [_reduced([vp * x - vm * y for x, y in zip(m, p)])
                      for p, vp in plus for m, vm in minus]
            rays = [r for r, _ in plus] + [r for r, v in valued if v == 0] + combos
        processed.append(g)
        seen = set()
        filtered = []
        for r in rays:
            if r in seen:
                continue
            seen.add(r)
            if all(_dot(g2, r) >= 0 for g2 in processed) and is_extreme(r):
                filtered.append(r)
        rays = filtered
    return lineality, rays


def hull_with_recession(
    points: Iterable[Sequence], rays: Iterable[Sequence] = ()
) -> RationalPolyhedron:
    """Irredundant H-representation of conv(points) + cone(rays).

    Works in the homogenization cone: a facet <a, y> >= b corresponds to an
    extreme ray (a, -b) of the dual cone of {(p, 1)} u {(r, 0)}; a lineality
    direction of that dual cone is an affine-hull equation, emitted as an
    opposite pair of halfspaces.  Each generator enters as its primitive
    integer multiple, which leaves the dual cone unchanged.
    """
    raw = [tuple(p) for p in points]
    if not raw:
        raise DomainError("hull needs at least one point")
    dim = len(raw[0])
    if dim > MAX_HULL_DIM:
        raise CapabilityError(f"hull dimension {dim} exceeds the configured maximum {MAX_HULL_DIM}")
    if any(len(p) != dim for p in raw):
        raise DimensionError("hull points have mixed dimensions")
    rs = [_primitive(r) for r in rays]
    if any(len(r) != dim for r in rs):
        raise DimensionError("hull rays have mixed dimensions")
    if dim == 2 and set(rs) == {(1, 0), (0, 1)}:
        return _staircase_hull_2d(raw)

    pts = [tuple(Fraction(x) for x in p) for p in raw]
    homogenized = [_primitive(p + (1,)) for p in pts]
    lineality, extreme = _dual_description(homogenized + [r + (0,) for r in rs], dim + 1)

    halfspaces = set()
    for z in extreme:
        normal, last = z[:-1], z[-1]
        if all(v == 0 for v in normal):
            continue  # homogenization facet "1 >= 0"
        halfspaces.add(HalfSpace(normal, -last))
    for l in lineality:
        if not any(l[:-1]):
            continue
        z = _primitive_signed(l)
        halfspaces.add(HalfSpace(z[:-1], -z[-1]))
        halfspaces.add(HalfSpace(tuple(-v for v in z[:-1]), z[-1]))

    ordered = tuple(sorted(halfspaces))
    vertices = []
    for p, q in zip(pts, homogenized):
        # <h.normal, p> == h.offset, scaled by the homogenizing coordinate of q
        tight = [h.normal for h in ordered if _dot(h.normal, q) == h.offset * q[-1]]
        if tight and _rank(tight) == dim and p not in vertices:
            vertices.append(p)
    return RationalPolyhedron(dim, ordered, tuple(sorted(vertices)), tuple(sorted(set(rs))))


def _staircase_hull_2d(pts) -> RationalPolyhedron:
    """Plane case with the positive orthant as recession cone: the boundary is
    the lower-left convex chain of the dominance-minimal points, so a monotone
    chain replaces the double-description pass (staircases can be large)."""
    minimal: list = []
    best_y = None
    for p in sorted(set(pts)):  # x ascending, y ascending within equal x
        if best_y is None or p[1] < best_y:
            minimal.append(p)
            best_y = p[1]
    chain: list = []
    for p in minimal:
        while len(chain) >= 2:
            (x0, y0), (x1, y1) = chain[-2], chain[-1]
            # pop while the middle point is not a strict corner of the chain
            if (x1 - x0) * (p[1] - y1) - (y1 - y0) * (p[0] - x1) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    halfspaces = {
        HalfSpace.normalized((1, 0), chain[0][0]),
        HalfSpace.normalized((0, 1), chain[-1][1]),
    }
    for (x0, y0), (x1, y1) in zip(chain, chain[1:]):
        normal = (y0 - y1, x1 - x0)
        halfspaces.add(HalfSpace.normalized(normal, normal[0] * x0 + normal[1] * y0))
    return RationalPolyhedron(2, tuple(sorted(halfspaces)), tuple(sorted(chain)),
                              ((0, 1), (1, 0)))


# ---------------------------------------------------------------------------
# exact linear programming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearProgram:
    """min <objective, y> subject to <normal_i, y> >= offset_i and y >= 0.

    The objective entries are ints or Fractions; constraint normals and
    offsets are ints."""

    objective: Tuple[Fraction, ...]
    constraints: Tuple[HalfSpace, ...]

    def __post_init__(self):
        if not all(isinstance(x, (int, Fraction)) for x in self.objective):
            raise DomainError(f"objective {self.objective} has an entry that is not an int or a Fraction")
        for c in self.constraints:
            if len(c.normal) != len(self.objective):
                raise DimensionError("objective length differs from constraint dimension")
            if not all(isinstance(x, int) for x in (*c.normal, c.offset)):
                raise DomainError(f"constraint {c} has a non-integer normal or offset")


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    optimum: Optional[Fraction] = None
    argmin: Optional[Tuple[Fraction, ...]] = None
    dual: Optional[Tuple[Fraction, ...]] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def lp_minimize(lp: LinearProgram) -> LPResult:
    """Exact optimum with a verified dual certificate.

    Returns Infeasible / Unbounded as values.  For a finite optimum the dual
    multipliers u satisfy u >= 0, A^T u <= c and b.u = optimum; these
    conditions are re-checked exactly before returning.  A free variable is
    written as the difference of two nonnegative ones by the caller.

    One tableau [y | slacks | artificials | rhs] serves both phases; its last
    row holds the reduced costs and every pivot updates it.  Row i, negated
    when offset_i < 0, reads <normal_i, y> - s_i + a_i = offset_i.  Phase 2
    prices c - c_B T once, with the artificials barred.  They started as the
    identity, so u_i = -(reduced cost of a_i), times the sign of row i.

    The tableau is kept in ints as M = D*T, D = |det B| > 0 (Edmonds), and
    phase 2 scales its costs by the lcm of the objective's denominators.  So
    M has the signs of T and its row ratios, and Bland's pivots are those of
    the rational simplex; Fractions are built only to read out the result.
    """
    nvar = len(lp.objective)
    m = len(lp.constraints)
    n_total = nvar + m
    flips = [-1 if h.offset < 0 else 1 for h in lp.constraints]
    M = [[f * x for x in h.normal] + [-f if j == i else 0 for j in range(m)]
         + [1 if j == i else 0 for j in range(m)] + [f * h.offset]
         for i, (h, f) in enumerate(zip(lp.constraints, flips))]
    # phase-1 costs: 1 on each artificial, priced against the artificial basis
    M.append([-sum(row[j] for row in M) for j in range(n_total)] + [0] * m
             + [-sum(row[-1] for row in M)])
    basis = list(range(n_total, n_total + m))
    D, bounded = _simplex(M, basis, n_total + m, 1)
    if not bounded:
        raise AssertionError("phase-1 objective is bounded below by zero")
    if M[-1][-1] < 0:  # minus the phase-1 minimum
        return LPResult("infeasible")
    # pivot artificials out of the basis where possible (degenerate rows stay)
    for i, bv in enumerate(basis):
        if bv >= n_total:
            entering = next((j for j in range(n_total) if M[i][j] != 0), None)
            if entering is not None:
                D = _pivot(M, i, entering, D)
                basis[i] = entering
    # phase 2 with artificials barred; its costs are priced once
    objective = [Fraction(x) for x in lp.objective]
    scale = lcm(*(x.denominator for x in objective))
    c = [x.numerator * (scale // x.denominator) for x in objective] + [0] * (2 * m + 1)
    M[-1] = [D * cj - sum(c[bv] * row[j] for bv, row in zip(basis, M)) for j, cj in enumerate(c)]
    D, bounded = _simplex(M, basis, n_total, D)
    if not bounded:
        return LPResult("unbounded")
    value = {bv: Fraction(M[i][-1], D) for i, bv in enumerate(basis)}
    y = tuple(value.get(j, Fraction(0)) for j in range(nvar))
    optimum = sum(ci * yi for ci, yi in zip(objective, y))
    dual = tuple(Fraction(-f * M[-1][n_total + i], scale * D) for i, f in enumerate(flips))
    _verify_dual(lp, optimum, dual)
    return LPResult("optimal", optimum, y, dual)


def _pivot(M, r, j, D) -> int:
    """Pivot M = D*T on p = M[r][j] and return the new D = |p|.  Row r stays,
    negated if p < 0 (only the artificial pivot-out meets that); every other
    row becomes (p*row - row[j]*M[r]) / D, which is |p| times a row of the new
    T and so an integer: every division is exact."""
    top = M[r]
    p = top[j]
    if p < 0:
        p = -p
        top = M[r] = [-x for x in top]
    for i, row in enumerate(M):
        if i != r:
            f = row[j]
            if f:
                M[i] = [(p * x - f * y) // D for x, y in zip(row, top)]
            elif p != D:
                M[i] = [p * x // D for x in row]
    return p


def _simplex(M, basis, columns, D) -> Tuple[int, bool]:
    """Bland's rule from a feasible basis; returns the final D and whether the
    LP is bounded.  The first of the first `columns` columns with a negative
    reduced cost enters (basic ones have 0); the least ratio rhs/entry leaves,
    ties to the least basis index.  Ratios are compared by cross-multiplying
    positive entries, so no Fraction is built.
    """
    while True:
        entering = next((j for j in range(columns) if M[-1][j] < 0), None)
        if entering is None:
            return D, True
        leaving = None
        for i in range(len(basis)):
            a = M[i][entering]
            if a > 0 and (leaving is None
                          or (M[i][-1] * den, basis[i]) < (num * a, basis[leaving])):
                leaving, num, den = i, M[i][-1], a
        if leaving is None:
            return D, False
        D = _pivot(M, leaving, entering, D)
        basis[leaving] = entering


def _verify_dual(lp: LinearProgram, optimum: Fraction, dual: Sequence[Fraction]):
    if any(u < 0 for u in dual):
        raise AssertionError("dual certificate has a negative multiplier")
    nvar = len(lp.objective)
    for j in range(nvar):
        coeff = sum(Fraction(u) * Fraction(lp.constraints[i].normal[j]) for i, u in enumerate(dual))
        if coeff > Fraction(lp.objective[j]):
            raise AssertionError("dual certificate violates A^T u <= c")
    value = sum(Fraction(u) * Fraction(lp.constraints[i].offset) for i, u in enumerate(dual))
    if value != optimum:
        raise AssertionError("dual objective does not match the primal optimum")
