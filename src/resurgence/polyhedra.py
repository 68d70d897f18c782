"""Exact rational polyhedra and linear programming.

The one hull built here is the Newton polyhedron conv(points) + R^n_{>=0} of
integer points.  A fraction-free incremental double-description pass finds
the dual of the cone of the homogenized generators (p, 1) and (e_i, 0).  That
dual is pointed, so the pass starts at the simplicial cone of the first point
and the e_i, whose dual rays are known in closed form.  Two rays are combined,
by integer cross-multiplication, only when they are adjacent by the
combinatorial test on bitmasks of the generators each ray is tight on (Fukuda
& Prodon, Double description method revisited, 1996), so the pass makes no
rank test and uses Python ints only.  The same bitmasks give the vertices.
Every facet normal is stored as a primitive integer vector, so
Newton-polyhedron facets (and hence Rees valuations) are canonical across
runs.  The LP solver is a dense two-phase simplex with Bland's anti-cycling
rule on one integer tableau whose last row holds the reduced costs: it stores
M = D*T for the rational tableau T and D = |det B| of the basis B, and pivots
fraction-free (Edmonds), so only the read-out builds Fractions and no
floating point enters any decision.
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


def _reduced(vec: Sequence[int]) -> Tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _primitive(vec: Sequence) -> Tuple[int, ...]:
    """Scale a rational vector by a positive factor to coprime integers."""
    if all(type(x) is int for x in vec):
        return _reduced(vec)
    fracs = [Fraction(x) for x in vec]
    denom = lcm(*(f.denominator for f in fracs))
    return _reduced([int(f * denom) for f in fracs])


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


def _dual_description(points: list[Tuple[int, ...]]):
    """Extreme rays of the dual cone {z : <g, z> >= 0 for all g} of the
    homogenized Newton generators, each paired with its tight set: the
    bitmask of the generators it vanishes on.  The generators are the (p, 1)
    for the n-dimensional `points` (bit k for points[k]), then the (e_i, 0)
    (bit len(points) + i).  They span a full-dimensional cone, so the dual
    cone is pointed and has no lineality space.

    The pass starts at the simplicial cone of (p_0, 1) and the (e_i, 0),
    whose dual rays are known: (e_i, -p_0,i) is tight on each of those
    generators except (e_i, 0), and (0, ..., 0, 1) on each except (p_0, 1).
    The other points enter one at a time (Fukuda & Prodon, Double description
    method revisited, 1996).  A point sets its bit on the rays it vanishes
    on, keeps the rays it is positive on, and combines a sign-split pair
    (p, m) on its hyperplane iff p and m are adjacent: their common tight set
    zp & zm has at least dim - 2 = n - 1 members and no third ray is tight on
    all of it.  So every new ray is extreme, no rank test or filter pass
    follows, and a point no ray violates only sets bits.  Every update is a
    cross-multiplication `vp*m - vm*p`, a positive combination, so all
    vectors stay integer and reduce to the same primitive representatives as
    over the rationals.
    """
    p0 = points[0]
    n = len(p0)
    orthant_bits = ((1 << n) - 1) << len(points)
    rays: list[Tuple[Tuple[int, ...], int]] = [  # (ray, tight-set bitmask)
        (tuple(1 if i == j else 0 for j in range(n)) + (-p0[i],),
         1 | orthant_bits & ~(1 << len(points) + i))
        for i in range(n)]
    rays.append(((0,) * n + (1,), orthant_bits))
    for k in range(1, len(points)):
        g = points[k] + (1,)
        bit = 1 << k
        valued = [(r, z, _dot(g, r)) for r, z in rays]
        plus = [(r, z, v) for r, z, v in valued if v > 0]
        minus = [(r, z, v) for r, z, v in valued if v < 0]
        masks = [z for _, z, _ in valued]
        combos = [(_reduced([vp * x - vm * y for x, y in zip(m, p)]), common | bit)
                  for p, zp, vp in plus for m, zm, vm in minus
                  if (common := zp & zm).bit_count() >= n - 1
                  and not any(z & common == common and z != zp and z != zm for z in masks)]
        rays = ([(r, z) for r, z, _ in plus] + [(r, z | bit) for r, z, v in valued if v == 0]
                + combos)
    return rays


def hull_with_recession(points: Iterable[Sequence[int]]) -> RationalPolyhedron:
    """Irredundant H-representation of the Newton polyhedron
    conv(points) + R^n_{>=0} of integer points, with its vertices.

    The plane case reads the boundary off `staircase_corners`.  Every other
    dimension works in the homogenization cone C = cone{(p, 1)} + cone{(e_i, 0)},
    which is full-dimensional, so its dual cone is pointed: no affine-hull
    equations arise.  A facet <a, y> >= b corresponds to an extreme ray
    (a, -b) of the dual cone that is tight on some (p, 1); the one extreme
    ray tight on no point, (0, ..., 0, 1), is the face at infinity "1 >= 0"
    and gives no halfspace.

    Vertex rule: p is a vertex iff (p, 1) spans an extreme ray of C, iff every
    generator tight on all the facets tight on (p, 1) is a copy of it.
    Proof: those generators span the least face of C containing (p, 1), and a
    face is generated by the generators in it.  So the AND of the tight sets
    of the facets through p decides it, with no rank computation.
    """
    raw = [tuple(p) for p in points]
    if not raw:
        raise DomainError("hull needs at least one point")
    dim = len(raw[0])
    if dim > MAX_HULL_DIM:
        raise CapabilityError(f"hull dimension {dim} exceeds the configured maximum {MAX_HULL_DIM}")
    if any(len(p) != dim for p in raw):
        raise DimensionError("hull points have mixed dimensions")
    if not all(isinstance(x, int) for p in raw for x in p):
        raise DomainError("hull points must have integer coordinates")
    if dim == 2:
        return _staircase_hull_2d(raw)
    return _double_description_hull(raw)


def _double_description_hull(raw: list[Tuple[int, ...]]) -> RationalPolyhedron:
    """The n-dimensional path of `hull_with_recession`; it also takes plane
    points, where it must agree with the chain."""
    dim = len(raw[0])
    extreme = _dual_description(raw)
    # every ray is already primitive
    point_bits = (1 << len(raw)) - 1
    halfspaces = {HalfSpace(z[:-1], -z[-1]) for z, mask in extreme if mask & point_bits}

    copies: dict = {}  # point -> bitmask of its indices
    for k, p in enumerate(raw):
        copies[p] = copies.get(p, 0) | 1 << k
    vertices = set()
    for k, p in enumerate(raw):
        face = (1 << len(raw) + dim) - 1
        for _, mask in extreme:
            if mask >> k & 1:
                face &= mask
        if not face & ~copies[p]:
            vertices.add(tuple(Fraction(x) for x in p))  # Fractions only for the vertices
    orthant = sorted(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    return RationalPolyhedron(dim, tuple(sorted(halfspaces)), tuple(sorted(vertices)),
                              tuple(orthant))


def staircase_corners(points: Iterable[Sequence]) -> list:
    """Vertices of conv(points) + R^2_{>=0}, in lex order: the lower-left
    convex chain of the plane points.  The dominance-minimal points, swept in
    lex order, form a staircase (x increases, y strictly decreases), and a
    monotone chain over it keeps only the strict corners, so a point on an
    edge between two corners is dropped."""
    minimal: list = []
    best_y = None
    for p in sorted(set(points)):  # x ascending, y ascending within equal x
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
    return chain


def _staircase_hull_2d(pts) -> RationalPolyhedron:
    """Plane case with the positive orthant as recession cone: the boundary is
    the chain of `staircase_corners`, so a monotone chain replaces the
    double-description pass (staircases can be large)."""
    chain = staircase_corners(pts)
    halfspaces = {
        HalfSpace.normalized((1, 0), chain[0][0]),
        HalfSpace.normalized((0, 1), chain[-1][1]),
    }
    for (x0, y0), (x1, y1) in zip(chain, chain[1:]):
        normal = (y0 - y1, x1 - x0)
        halfspaces.add(HalfSpace.normalized(normal, normal[0] * x0 + normal[1] * y0))
    return RationalPolyhedron(2, tuple(sorted(halfspaces)), tuple(chain), ((0, 1), (1, 0)))


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
