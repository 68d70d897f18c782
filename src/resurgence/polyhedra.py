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
runs.  The LP solver takes covering LPs only (min c.y over A y >= b, y >= 0,
with A, b, c >= 0), the shape of the cover LP: a dense two-phase simplex
with Bland's anti-cycling rule on one integer tableau whose last row holds
the reduced costs, and no artificial columns.  It stores M = D*T for the
rational tableau T and D = |det B| of the basis B, and pivots fraction-free
(Edmonds), so only the read-out builds Fractions and no floating point
enters any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    lex order, form a staircase (x increases, y strictly decreases), whose
    `convex_chain` keeps only the strict corners."""
    minimal: list = []
    best_y = None
    for p in sorted(set(points)):  # x ascending, y ascending within equal x
        if best_y is None or p[1] < best_y:
            minimal.append(p)
            best_y = p[1]
    return convex_chain(minimal)


def convex_chain(staircase: Sequence) -> list:
    """The strict corners of a lex-sorted plane staircase, in lex order, by a
    monotone chain: a point on an edge between two corners is dropped."""
    chain: list = []
    for p in staircase:
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
    """Exact optimum of a covering LP, with a verified dual certificate.

    A covering LP has objective c >= 0 and rows <A_i, y> >= b_i with A_i a
    nonzero vector of ints >= 0 and b_i >= 0; any other LP raises
    `DomainError`.  The duals u >= 0 satisfy A^T u <= c and b.u = optimum,
    re-checked exactly before returning.

    Row i of the tableau [y | surplus | rhs] reads <A_i, y> - s_i + a_i = b_i;
    the last row holds the reduced costs.  Phase 1 costs 1 on each a_i, and
    phase 2 prices c - c_B T once.  The a_i are basis labels only, compared by
    Bland's ties: under phase-1 prices pi, Bland's rule reaches an a_i only
    when every y and s column prices >= 0, i.e. pi >= 0 and pi A <= 0.  A >= 0
    then forces pi_i = 0 on every (nonzero) row, so a_i prices at 1 and never
    enters, and none is basic at the end (it would price at 0).  So phase 1
    ends at 0, the LP is feasible, and c >= 0 bounds phase 2.  The column of
    a_i is minus that of s_i, so u_i is the reduced cost of s_i.  Phase 1
    never reads c, so its pivots, final rows, basis and D depend on the rows
    alone: `_phase_one` keeps them per row set, and phase 2 starts from a
    fresh copy.

    The tableau is kept in ints as M = D*T, D = |det B| > 0 (Edmonds), and
    phase 2 scales c by the lcm of its denominators to ints c'.  So M has
    the signs of T and its row ratios, and Bland's pivots are those of the
    rational simplex.  With U the reduced costs of the s_i, u = U/(scale*D)
    is checked on ints: U >= 0, sum_i U_i*A_ij <= c'_j*D for every j, and
    sum_i U_i*b_i = sum over the basis of c'_B*rhs (scale*D*optimum).
    """
    if any(x < 0 for x in lp.objective):
        raise DomainError(f"objective {lp.objective} has a negative entry; not a covering LP")
    for h in lp.constraints:
        if h.offset < 0 or not any(h.normal) or any(x < 0 for x in h.normal):
            raise DomainError(f"constraint {h} is not a covering row")
    nvar = len(lp.objective)
    rows, basis, D = _phase_one(tuple((tuple(h.normal), h.offset) for h in lp.constraints))
    M, basis = [list(row) for row in rows], list(basis)
    # phase 2, its costs priced once
    objective = [Fraction(x) for x in lp.objective]
    scale = lcm(*(x.denominator for x in objective))
    c = [x.numerator * (scale // x.denominator) for x in objective] + [0] * (len(M) + 1)
    M.append([D * cj - sum(c[bv] * row[j] for bv, row in zip(basis, M)) for j, cj in enumerate(c)])
    D = _simplex(M, basis, D)
    U = M[-1][nvar:-1]
    if (any(u < 0 for u in U)
            or any(_dot(U, col) > cj * D for col, cj in zip(zip(*(h.normal for h in lp.constraints)), c))
            or _dot(U, [h.offset for h in lp.constraints]) != sum(c[bv] * row[-1] for bv, row in zip(basis, M))):
        raise AssertionError("dual certificate fails u >= 0, A^T u <= c or b.u = optimum")
    value = {bv: Fraction(M[i][-1], D) for i, bv in enumerate(basis)}
    y = tuple(value.get(j, Fraction(0)) for j in range(nvar))
    optimum = sum(ci * yi for ci, yi in zip(objective, y))
    dual = tuple(Fraction(u, scale * D) for u in U)
    return LPResult("optimal", optimum, y, dual)


@lru_cache(maxsize=16)
def _phase_one(rows: Tuple[Tuple[Tuple[int, ...], int], ...]):
    """Phase 1's final tableau rows (without the cost row), basis and D for
    the covering rows (normal, offset), as tuples."""
    m = len(rows)
    M = [list(normal) + [-1 if j == i else 0 for j in range(m)] + [offset]
         for i, (normal, offset) in enumerate(rows)]
    # phase-1 costs: 1 on each artificial, priced against the artificial basis
    M.append([-sum(column) for column in zip(*M)])
    basis = list(range(len(M[0]) - 1, len(M[0]) - 1 + m))
    D = _simplex(M, basis, 1)
    return tuple(map(tuple, M[:-1])), tuple(basis), D


def _pivot(M, r, j, D) -> int:
    """Pivot M = D*T on p = M[r][j] > 0 and return the new D = p.  Row r
    stays; every other row becomes (p*row - row[j]*M[r]) / D, which is p
    times a row of the new T and so an integer: every division is exact."""
    top = M[r]
    p = top[j]
    for i, row in enumerate(M):
        if i != r:
            f = row[j]
            if f:
                M[i] = [(p * x - f * y) // D for x, y in zip(row, top)]
            elif p != D:
                M[i] = [p * x // D for x in row]
    return p


def _simplex(M, basis, D) -> int:
    """Bland's rule from a feasible basis; returns the final D.  The first
    column with a negative reduced cost enters (basic ones have 0); the least
    ratio rhs/entry leaves, ties to the least basis index.  Ratios are
    compared by cross-multiplying positive entries, so no Fraction is built.
    """
    while True:
        cost = M[-1]
        entering = next((j for j in range(len(cost) - 1) if cost[j] < 0), None)
        if entering is None:
            return D
        leaving = None
        for i in range(len(basis)):
            a = M[i][entering]
            if a > 0 and (leaving is None
                          or (M[i][-1] * den, basis[i]) < (num * a, basis[leaving])):
                leaving, num, den = i, M[i][-1], a
        if leaving is None:
            raise AssertionError("a covering LP is bounded below by 0")
        D = _pivot(M, leaving, entering, D)
        basis[leaving] = entering
