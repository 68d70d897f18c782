"""Monomials and monomial ideals with exact arbitrary-precision exponents.

A monomial is an exponent tuple of integers; `check_monomial` rejects any
exponent that is not integral, so no float is ever truncated into one.  A
MonomialIdeal stores its divisibility-minimal generators sorted
lexicographically (deterministic reports, bit-stable goldens).  An ideal may
instead carry a membership *view*, a RegionView: the integer rows W,
right-hand sides m and box of the lattice region {a >= 0 : W a >= m}.  Its
`contains` is one integer row test, and its generators are materialized
from the region by the walk of `minimal_lattice_points` only when read.
Symbolic powers, integral closures and m^d in three or more variables are
views.

Containment has two entry points: `is_subset_of` answers yes or no, and
`witness_not_in` returns the lex-first left generator outside the right side.
Stored generators are trusted, so no right side re-validates them.  In two
variables a minimal generating set sorted lex is a staircase: x strictly
increases while y strictly decreases.  Hence (gx, gy) lies in an explicit
ideal iff the last of its generators with x <= gx has y <= gy, so one linear
merge of two staircases (a single monomial being a staircase of one step)
decides containment, and m^s lies in it iff s exceeds the top degree of the
monomials outside it, max over steps j of x_(j+1) + y_j - 2 (-1 for the unit
ideal, inf unless the staircase meets both axes).  The same invariant makes
two-variable minimization one sort plus a sweep that keeps each entry whose y
strictly decreases (`polyhedra.staircase`, which also starts the plane Newton
hull).  In more variables monomials of equal total degree never divide one
another unless equal, so minimization tests each candidate only against the
kept generators of strictly smaller degree.  Every comparison and
sum of two exponent tuples is one C-level `map` of an `operator` function
(`le`, `add`, `max`).  In any number of variables (g)J is the translate
g + J, already minimal and sorted, and (g)^n = (ng) (Miller & Sturmfels,
Combinatorial Commutative Algebra, ch. 1-3).  Each power I^n (n >= 2) is
built once and cached on I.

View rules.  Every view's rows W are >= 0, so a set G of monomials lies in
its region iff min over g in G of <w_r, g> >= m_r for every row r, and iff
the vertices of the Newton polyhedron conv(G) + R^n_{>=0} do (the region is
convex and closed upwards).  `is_subset_of` owns both rules.  In two
variables those vertices are the staircase's corners
(`polyhedra.convex_chain`), cached on the ideal.  In any other number
of variables the row minima decide, each from `weighted_min`, which caches
it on the left ideal per weight tuple without materializing a view (a
symbolic one by the bounded walk `lightest_lattice_point`); an explicit m^d
on the right is asked through its degree view.  `witness_not_in` scans the
left side for the lex-first witness only when the rule fails.
"""

from __future__ import annotations

from math import comb, inf
from operator import add, le, lt, mul as _times
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from .errors import CapabilityError, DimensionError, DomainError
from .polyhedra import convex_chain, staircase

Monomial = Tuple[int, ...]

# Cap on the candidate lattice points (walk leaves) visited when materializing
# the generators of a view.
MATERIALIZE_CAP = 100_000

_MISSING = object()


def check_monomial(m: Sequence[int], nvars: int) -> Monomial:
    given = tuple(m)
    try:
        m = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        raise DomainError(f"non-integral exponent in monomial {given}") from None
    if len(m) != nvars:
        raise DimensionError(f"monomial has {len(m)} exponents, ambient ring has {nvars} variables")
    if m != given:
        raise DomainError(f"non-integral exponent in monomial {given}")
    if min(m, default=0) < 0:
        raise DomainError(f"negative exponent in monomial {m}")
    return m


def mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def degree(m: Monomial) -> int:
    return sum(m)


_VAR_NAMES = "xyzwvutsrq"


def format_monomial(m: Monomial, names: Optional[Sequence[str]] = None) -> str:
    """Human-readable rendering, e.g. (2,1) -> 'x^2*y'."""
    if names is None:
        names = list(_VAR_NAMES[: len(m)]) if len(m) <= len(_VAR_NAMES) else [f"x{i}" for i in range(len(m))]
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def minimize_monomials(gens: Iterable[Monomial]) -> Tuple[Monomial, ...]:
    """Divisibility-minimal subset, sorted lexicographically. Idempotent.

    In two variables divisibility is dominance, so the minimal set is the
    sweep `polyhedra.staircase`, already in lex order.  In more variables,
    monomials of equal total degree never divide one another unless equal,
    so after a degree sort each candidate is only tested against kept
    generators of strictly smaller degree: `below`, a copy of the kept list
    taken whenever the degree changes.
    """
    unique = set(gens)
    if unique and len(next(iter(unique))) == 2:
        return tuple(staircase(unique))
    kept: list[Monomial] = []
    last = None
    for d, g in sorted((sum(m), m) for m in unique):
        if d != last:
            below, last = kept[:], d
        if not any(all(map(le, r, g)) for r in below):
            kept.append(g)
    return tuple(sorted(kept))


class RegionView(NamedTuple):
    """Membership in the lattice region {a >= 0 : <w_r, a> >= rhs_r for all r}.

    `rows` are nonnegative integer weight vectors and `box` bounds the
    coordinates of the region's minimal points, the walk's input.  `kind`
    names the ideal: "symbolic" (rows are minimal vertex covers, rhs n),
    "closure" (rows are the positive-offset facets of the Newton polyhedron
    of `base`, rhs offset * scale) or "degree" (one row of ones, rhs d: m^d).
    """

    rows: Tuple[Tuple[int, ...], ...]
    rhs: Tuple[int, ...]
    box: Tuple[int, ...]
    kind: str
    base: Optional["MonomialIdeal"] = None
    scale: int = 1

    def contains(self, m: Monomial) -> bool:
        return all(sum(map(_times, w, m)) >= r for w, r in zip(self.rows, self.rhs))


class MonomialIdeal:
    """A monomial ideal in k[x_1..x_n], explicit or as a membership view.

    Explicit generators of a view are materialized lazily (bounded search)
    and cached; all values are immutable after construction.
    """

    __slots__ = ("nvars", "_gens", "view", "_cache")

    def __init__(self, nvars: int, gens: Optional[Tuple[Monomial, ...]], view=None):
        self.nvars = int(nvars)
        if self.nvars <= 0:
            raise DimensionError("ambient variable count must be positive")
        self._gens = gens
        self.view = view
        self._cache: dict = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_generators(cls, nvars: int, gens: Iterable[Sequence[int]]) -> "MonomialIdeal":
        checked = [check_monomial(g, nvars) for g in gens]
        return cls(nvars, minimize_monomials(checked))

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, ())

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, ((0,) * nvars,))

    # -- basic predicates ----------------------------------------------------

    @property
    def view_kind(self) -> str:
        return self.view.kind if self.view is not None else "explicit"

    @property
    def is_explicit(self) -> bool:
        return self._gens is not None

    def is_zero(self) -> bool:
        return self.is_explicit and not self._gens

    def is_unit(self) -> bool:
        if self.is_explicit:
            return bool(self._gens) and degree(self._gens[0]) == 0
        return self.contains((0,) * self.nvars)

    def is_proper(self) -> bool:
        return not self.is_zero() and not self.is_unit()

    # -- generators ----------------------------------------------------------

    @property
    def generators(self) -> Tuple[Monomial, ...]:
        """Minimal generators, materializing a view on first access."""
        if self._gens is None:
            self._gens = minimal_lattice_points(*self.view[:3])
        return self._gens

    def cached(self, key, compute):
        """compute() on the first call for `key`, the stored value afterwards."""
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = self._cache[key] = compute()
        return value

    def corners(self) -> Tuple[Monomial, ...]:
        """Two variables: the vertices of conv(generators) + R^2_{>=0}, the
        strict corners of the staircase in lex order.  The generators already
        are the minimal staircase, so only its `convex_chain` runs; cached on
        the ideal, so repeated calls return the identical tuple."""
        return self.cached("corners", lambda: tuple(convex_chain(self.generators)))

    def weighted_min(self, weights: Sequence[int]) -> int:
        """min <w, g> over the minimal generators g of a nonzero ideal, for a
        nonnegative weight vector w of length nvars.

        A closure view of base^n gives n times the base's minimum, m^d gives
        d * min(w), and an unread symbolic view the bounded walk
        `lightest_lattice_point`; none materializes.  Every answer is cached
        per weight tuple.
        """
        weights = tuple(weights)
        if len(weights) != self.nvars:
            raise DimensionError("ideal and valuation dimensions differ")
        if self.is_zero():
            raise DomainError("the zero ideal has no valuation value")

        def compute():
            view = self.view
            if view is not None and view.kind == "closure":
                return view.scale * view.base.weighted_min(weights)
            if view is not None and view.kind == "degree":
                return view.rhs[0] * min(weights)
            if self._gens is None:
                return lightest_lattice_point(*view[:3], weights)
            return min(sum(map(_times, weights, g)) for g in self._gens)

        return self.cached(("weighted_min", weights), compute)

    # -- membership ----------------------------------------------------------

    def contains(self, m: Sequence[int]) -> bool:
        m = check_monomial(m, self.nvars)
        return self._contains_explicit(m) if self.view is None else self.view.contains(m)

    def _contains_explicit(self, m: Monomial) -> bool:
        gens = self._gens
        if self.nvars == 2:
            return _staircase_witness((m,), gens) is None
        d = self._complete_degree()
        if d is not None:
            return degree(m) >= d
        return any(all(map(le, g, m)) for g in gens)

    def _complete_degree(self) -> Optional[int]:
        """d when the ideal is generated by ALL monomials of total degree d (the
        d-th power of the maximal ideal), so that membership is a degree test;
        None otherwise.  Computed once per ideal and cached."""
        def compute():
            if self.view is not None:
                return self.view.rhs[0] if self.view.kind == "degree" else None
            gens = self._gens
            if not gens:
                return None
            d = degree(gens[0])
            if len(gens) == comb(d + self.nvars - 1, self.nvars - 1) and all(degree(g) == d for g in gens):
                return d
            return None

        return self.cached("complete_degree", compute)

    # -- arithmetic ------------------------------------------------------------

    def _require_same_ring(self, other: "MonomialIdeal"):
        if self.nvars != other.nvars:
            raise DimensionError(f"ambient rings differ: {self.nvars} vs {other.nvars} variables")

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The product; a factor with one generator g gives g + the other's gens."""
        self._require_same_ring(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.nvars)
        if other.is_unit():
            return self
        few, many = sorted((self.generators, other.generators), key=len)
        if len(few) == 1:
            return MonomialIdeal(self.nvars, tuple(mul(few[0], h) for h in many))
        return MonomialIdeal(self.nvars, minimize_monomials(mul(g, h) for g in few for h in many))

    def add(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal sum (union of generator sets)."""
        self._require_same_ring(other)
        return MonomialIdeal(self.nvars, minimize_monomials(self.generators + other.generators))

    def power(self, n: int) -> "MonomialIdeal":
        """I^n (I^0 = unit): m^(dn) for I = m^d (a degree view in three or more
        variables), (ng) for I = (g), else I^(n//2) * I^(n - n//2), minimized.
        Each I^n with n >= 2 is built once and cached on I, so repeated calls
        return the identical object."""
        if n < 0:
            raise DomainError("negative ideal power")
        if n == 0:
            return MonomialIdeal.unit(self.nvars)
        if n == 1 or self.is_zero() or self.is_unit():
            return self

        def build():
            d = self._complete_degree()
            if d is not None:
                return complete_power_ideal(self.nvars, d * n)
            if len(self.generators) == 1:
                return MonomialIdeal(self.nvars, (tuple(n * e for e in self.generators[0]),))
            return self.power(n // 2).multiply(self.power(n - n // 2))

        return self.cached(("power", n), build)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._require_same_ring(other)
        gens = [lcm(a, b) for a in self.generators for b in other.generators]
        return MonomialIdeal(self.nvars, minimize_monomials(gens))

    def is_subset_of(self, other: "MonomialIdeal") -> bool:
        """Containment self <= other: every minimal generator is a member.

        A view on the right is decided by its rule (module docstring): the
        corners of self through the view's public `contains` in two
        variables, the row minima otherwise, as is an explicit m^d (d >= 1)
        through its degree view.  An explicit m^s <= J in two variables is the
        top-degree test.  Every other pair asks `witness_not_in`.
        """
        self._require_same_ring(other)
        view = other.view
        if view is None and self.nvars > 2 and (d := other._complete_degree()):
            view = complete_power_ideal(self.nvars, d).view  # d = 0, the unit ideal, is left to the scan
        if view is None and self.nvars == 2 and (s := self._complete_degree()) is not None:
            g = other._gens  # m^s <= J iff s > J's top degree (module docstring), cached on J
            return s > other.cached("top_degree", lambda: inf if not g or g[0][0] or g[-1][1] else max(
                (x + y - 2 for (x, _), (_, y) in zip(g[1:], g)), default=-1))
        if view is None:
            return self.witness_not_in(other) is None
        if self.nvars == 2:
            return all(map(other.contains, self.corners()))
        return self.is_zero() or all(self.weighted_min(w) >= m for w, m in zip(view.rows, view.rhs))

    def witness_not_in(self, other: "MonomialIdeal") -> Optional[Monomial]:
        """The lex-first minimal generator of self outside other, or None if
        self <= other.

        A view on the right is first asked `is_subset_of`; only if its rule
        fails are all generators scanned, by the trusted row test
        `view.contains`.  An explicit right side is trusted: in two variables
        one merge walks both staircases, in more each generator goes through
        `_contains_explicit`.
        """
        self._require_same_ring(other)
        if other.view is None:
            if self.nvars == 2:
                return _staircase_witness(self.generators, other._gens)
            has = other._contains_explicit
        elif self.is_subset_of(other):
            return None
        else:
            has = other.view.contains
        return next((g for g in self.generators if not has(g)), None)

    # -- equality / ordering / rendering -----------------------------------------

    def __eq__(self, other) -> bool:
        """Equal minimal generators.  An ideal equals itself, and two region
        views of one kind with equal rows and right-hand sides are one region,
        so neither case materializes; every other pair compares generators."""
        if self is other:
            return True
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        a, b = self.view, other.view
        if a is not None and b is not None and (a.kind, a.rows, a.rhs) == (b.kind, b.rows, b.rhs):
            return True
        return self.generators == other.generators

    def __hash__(self):
        """Hash of the minimal generators: hashing a view materializes it."""
        return hash((self.nvars, self.generators))

    def __repr__(self):
        if self._gens is None:
            return f"MonomialIdeal(view={self.view_kind})"
        if self.is_zero():
            return "MonomialIdeal(0)"
        return "MonomialIdeal(" + ", ".join(format_monomial(g) for g in self.generators) + ")"


def _staircase_witness(gens: Tuple[Monomial, ...], staircase: Tuple[Monomial, ...]) -> Optional[Monomial]:
    """The first of the lex-sorted 2-variable `gens` outside the ideal whose
    minimal generators are `staircase`, by one merge of the two sequences.

    Both x-sequences are nondecreasing, so the pointer into `staircase` only
    moves forward; `y` is the y of the last staircase step with x <= gx, the
    least y among those steps because y strictly decreases along a staircase.
    """
    j, steps, y = 0, len(staircase), None
    for g in gens:
        gx = g[0]
        while j < steps and staircase[j][0] <= gx:
            y = staircase[j][1]
            j += 1
        if y is None or y > g[1]:
            return g
    return None


def complete_power_ideal(nvars: int, d: int) -> MonomialIdeal:
    """m^d, generated by all monomials of total degree d.  In three or more
    variables it is the degree view, whose generators the walk builds only
    when read; in one or two it is explicit, for the staircase merge."""
    if d == 0:
        return MonomialIdeal.unit(nvars)
    if nvars <= 2:  # the staircase x^i y^(d-i), or x^d
        return MonomialIdeal(nvars, tuple((i, d - i) for i in range(d + 1)) if nvars == 2 else ((d,),))
    return MonomialIdeal(nvars, None, RegionView(((1,) * nvars,), (d,), (d,) * nvars, "degree"))


def _column_tables(rows, n):
    """Per coordinate k: the rows that weigh k with those weights, and the rows
    it closes (k is their last weighted coordinate) as (row, weight) pairs."""
    cols = [([r for r, w in enumerate(rows) if w[k]], [w[k] for w in rows if w[k]]) for k in range(n)]
    closing = [[(r, w[k]) for r, w in enumerate(rows) if w[k] and not any(w[k + 1:])] for k in range(n)]
    return cols, closing


def _shift(col, slack, times):
    for r, w in zip(*col):
        slack[r] += times * w


def _least(closing, slack) -> int:
    """The least value of a coordinate that meets the rows it closes."""
    return max([-(slack[r] // w) for r, w in closing if slack[r] < 0], default=0)


def _count_leaf(leaves: int) -> int:
    if leaves >= MATERIALIZE_CAP:
        raise CapabilityError(
            f"materialization visits more than {MATERIALIZE_CAP} candidate lattice points (MATERIALIZE_CAP)")
    return leaves + 1


def minimal_lattice_points(rows, rhs, box) -> Tuple[Monomial, ...]:
    """Divisibility-minimal nonnegative lattice points of {a : W a >= m}.

    `rows` are nonnegative integer weight vectors, `rhs` their bounds, `box`
    componentwise upper bounds on the first n-1 coordinates of every minimal
    point.  With slack_r(p) = <w_r, p> - m_r, a feasible p is minimal iff
    every k with p_k > 0 has a row r with w_r[k] > slack_r(p) (the region is
    closed upwards).  A depth-first walk sets the coordinates in lex order,
    each from `_least`, so every leaf is feasible and ends at its least last
    coordinate.  Slacks only grow along the walk, so once a set coordinate
    fails the test, every extension and every larger value of the current
    coordinate fail it too, and the loop over that coordinate stops.  A leaf
    is kept iff every nonzero coordinate passes, so the points come out
    minimal and sorted.  MATERIALIZE_CAP bounds the leaves visited, not the
    volume of the box.
    """
    n = len(box)
    if n == 0:
        raise DimensionError("empty ambient dimension")
    if any(m > 0 and not any(w) for w, m in zip(rows, rhs)):
        return ()  # a row that weighs no coordinate stays short
    last = n - 1
    cols, closing = _column_tables(rows, n)
    slack, point, points, leaves = [-m for m in rhs], [0] * n, [], 0
    get = slack.__getitem__

    def minimal_at(k) -> bool:
        used, weights = cols[k]
        return any(map(lt, map(get, used), weights))

    def walk(j, support):
        nonlocal leaves
        v = _least(closing[j], slack)
        if j == last:
            leaves = _count_leaf(leaves)
            _shift(cols[last], slack, v)
            if all(map(minimal_at, support + (last,) if v else support)):
                points.append(tuple(point[:last]) + (v,))
            _shift(cols[last], slack, -v)
            return
        if not v:
            walk(j + 1, support)
            v = 1
        support += (j,)
        _shift(cols[j], slack, v)
        while v <= box[j]:
            point[j] = v
            if not all(map(minimal_at, support)):
                break
            walk(j + 1, support)
            v += 1
            _shift(cols[j], slack, 1)
        _shift(cols[j], slack, -v)
        point[j] = 0

    walk(0, ())
    return tuple(points)


def lightest_lattice_point(rows, rhs, box, weights) -> Optional[int]:
    """The least <weights, p> over the lattice points p of {a >= 0 : W a >= m},
    for weights >= 0 and the arguments of `minimal_lattice_points`, whose walk
    it bounds; None if the box has none.

    A coordinate's loop stops once every row that weighs it is met.  A prefix
    is pruned once its cost plus max_r ceil(deficit_r * min_k weights_k /
    w_r[k]) over the unset k reaches the incumbent, which only a strictly
    lighter leaf replaces.  MATERIALIZE_CAP bounds the leaves.
    """
    n = len(box)
    if any(m > 0 and not any(w) for w, m in zip(rows, rhs)):
        return None
    last = n - 1
    cols, closing = _column_tables(rows, n)
    # cheapest[j][r]: (weights[k], w_r[k]) of the least ratio over k >= j, None if w_r[k] = 0 there
    cheapest = [[None] * len(rows) for _ in range(n + 1)]
    for j in range(last, -1, -1):
        for r, w in enumerate(rows):
            c = cheapest[j + 1][r]
            cheapest[j][r] = (weights[j], w[j]) if w[j] and (c is None or weights[j] * c[1] < c[0] * w[j]) else c
    slack, best, leaves = [-m for m in rhs], None, 0

    def walk(j, cost):
        nonlocal best, leaves
        v = _least(closing[j], slack)
        if j == last:
            leaves = _count_leaf(leaves)
            if best is None or cost + v * weights[last] < best:
                best = cost + v * weights[last]
            return
        _shift(cols[j], slack, v)
        while v <= box[j]:
            here = cost + v * weights[j]
            if best is None or here + max([-((s * c[0]) // c[1]) for s, c in zip(slack, cheapest[j + 1]) if s < 0],
                                          default=0) < best:
                walk(j + 1, here)
            if all(slack[r] >= 0 for r in cols[j][0]):
                break
            v += 1
            _shift(cols[j], slack, 1)
        _shift(cols[j], slack, -v)

    walk(0, 0)
    return best
