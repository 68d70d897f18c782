"""Monomials and monomial ideals with exact arbitrary-precision exponents.

A monomial is an exponent tuple of integers; `check_monomial` rejects any
exponent that is not integral, so no float is ever truncated into one.  A
MonomialIdeal stores its divisibility-minimal generators sorted
lexicographically (deterministic reports, bit-stable goldens).  An ideal may
instead carry a membership *view* (SymbolicView, ClosureView): a small typed
object that answers `contains` without expanding generators and states the
lattice region its generators are materialized from.

Containment has one primitive, `witness_not_in`: it orients explicit
generators on the left and a membership test on the right, and returns the
lex-first left generator outside the right side.  Stored generators are
trusted, so an explicit right side is tested without re-validation.  In two
variables a minimal generating set sorted lex is a staircase: x strictly
increases while y strictly decreases.  Hence (gx, gy) lies in an explicit
ideal iff the last of its generators with x <= gx has y <= gy: one bisect
finds that generator for a single monomial, and one linear merge of the two
staircases decides containment.  The same invariant makes two-variable
minimization one sort plus a sweep that keeps each entry whose y strictly
decreases (Miller & Sturmfels, Combinatorial Commutative Algebra, ch. 1-3).
"""

from __future__ import annotations

import bisect
import itertools
from math import comb
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Optional, Sequence, Tuple

from .errors import CapabilityError, DimensionError, DomainError

Monomial = Tuple[int, ...]

# Cap on candidate lattice points when materializing generators of a view.
MATERIALIZE_CAP = 100_000

_MISSING = object()
_first = itemgetter(0)


def monomial(*exponents: int) -> Monomial:
    return tuple(int(e) for e in exponents)


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


def divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


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

    In two variables, after a lex sort a monomial is divisible by another iff
    some earlier entry has y no larger than its own, so one sweep keeps
    exactly the entries whose y strictly decreases; the kept entries are the
    staircase, already in lex order.  In more variables, monomials of equal
    total degree never divide one another unless equal, so after a degree
    sort each candidate is only tested against kept generators of strictly
    smaller degree.
    """
    unique = set(gens)
    if unique and len(next(iter(unique))) == 2:
        staircase: list[Monomial] = []
        for g in sorted(unique):
            if not staircase or g[1] < staircase[-1][1]:
                staircase.append(g)
        return tuple(staircase)
    unique = sorted(unique, key=lambda m: (degree(m), m))
    kept: list[Monomial] = []
    degrees: list[int] = []
    for g in unique:
        dg = degree(g)
        if any(d < dg and divides(r, g) for r, d in zip(kept, degrees)):
            continue
        kept.append(g)
        degrees.append(dg)
    return tuple(sorted(kept))


class SymbolicView(NamedTuple):
    """Membership means every stored cover C satisfies sum_{i in C} m_i >= n."""

    covers: Tuple[Monomial, ...]
    n: int
    kind = "symbolic"

    def contains(self, m: Monomial) -> bool:
        return all(sum(m[i] for i, on in enumerate(c) if on) >= self.n for c in self.covers)

    def region(self, nvars: int):
        # A minimal generator of the symbolic region never needs an exponent
        # above n: decrementing a coordinate > n keeps every cover sum >= n.
        return [tuple(c) for c in self.covers], [self.n] * len(self.covers), [self.n] * nvars


class ClosureView(NamedTuple):
    """Membership means m lies in scale * NP(base), NP the Newton polyhedron."""

    base: "MonomialIdeal"
    polyhedron: Any
    scale: int
    kind = "closure"

    def contains(self, m: Monomial) -> bool:
        return self.polyhedron.contains(m, scale=self.scale)

    def region(self, nvars: int):
        rows, rhs = [], []
        for hs in self.polyhedron.halfspaces:
            if all(w >= 0 for w in hs.normal) and hs.offset > 0:
                rows.append(tuple(int(w) for w in hs.normal))
                rhs.append(int(hs.offset) * self.scale)
        box = [self.scale * max(g[j] for g in self.base.generators) for j in range(nvars)]
        return rows, rhs, box


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
            self._gens = self._materialize()
        return self._gens

    def _materialize(self) -> Tuple[Monomial, ...]:
        return minimal_lattice_points(*self.view.region(self.nvars))

    def cached(self, key: str, compute):
        """compute() on the first call for `key`, the stored value afterwards."""
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = self._cache[key] = compute()
        return value

    # -- membership ----------------------------------------------------------

    def contains(self, m: Sequence[int]) -> bool:
        m = check_monomial(m, self.nvars)
        return self._contains_explicit(m) if self.view is None else self.view.contains(m)

    def _contains_explicit(self, m: Monomial) -> bool:
        gens = self._gens
        if not gens:
            return False
        if self.nvars == 2:
            # the last staircase step with x <= m_x has the least y of those steps
            k = bisect.bisect_right(gens, m[0], key=_first) - 1
            return k >= 0 and gens[k][1] <= m[1]
        d = self.cached("complete_degree", self._complete_degree)
        if d is not None:
            return degree(m) >= d
        return any(divides(g, m) for g in gens)

    def _complete_degree(self) -> Optional[int]:
        """d when the ideal is generated by ALL monomials of total degree d (the
        d-th power of the maximal ideal), so that membership is a degree test;
        None otherwise.  Built once per ideal through `cached`."""
        gens = self._gens
        if not gens:
            return None
        d = degree(gens[0])
        if len(gens) == comb(d + self.nvars - 1, self.nvars - 1) and all(degree(g) == d for g in gens):
            return d
        return None

    # -- arithmetic ------------------------------------------------------------

    def _require_same_ring(self, other: "MonomialIdeal"):
        if self.nvars != other.nvars:
            raise DimensionError(f"ambient rings differ: {self.nvars} vs {other.nvars} variables")

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._require_same_ring(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.nvars)
        if self.is_unit():
            return other if other.is_explicit else MonomialIdeal.from_generators(other.nvars, other.generators)
        if other.is_unit():
            return self
        gens = [mul(a, b) for a in self.generators for b in other.generators]
        return MonomialIdeal(self.nvars, minimize_monomials(gens))

    def add(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal sum (union of generator sets)."""
        self._require_same_ring(other)
        return MonomialIdeal(self.nvars, minimize_monomials(self.generators + other.generators))

    def power(self, n: int) -> "MonomialIdeal":
        """I^n by repeated squaring, minimizing at every step (I^0 = unit)."""
        if n < 0:
            raise DomainError("negative ideal power")
        if n == 0:
            return MonomialIdeal.unit(self.nvars)
        if n == 1 or self.is_zero() or self.is_unit():
            return self
        d = self.cached("complete_degree", self._complete_degree)
        if d is not None:
            # (m^d)^n = m^(dn): generate all monomials of total degree dn.
            return complete_power_ideal(self.nvars, d * n)
        result = None
        base = self
        k = n
        while k:
            if k & 1:
                result = base if result is None else result.multiply(base)
            k >>= 1
            if k:
                base = base.multiply(base)
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._require_same_ring(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.nvars)
        gens = [lcm(a, b) for a in self.generators for b in other.generators]
        return MonomialIdeal(self.nvars, minimize_monomials(gens))

    def is_subset_of(self, other: "MonomialIdeal") -> bool:
        """Containment self <= other: every minimal generator is a member.

        The left side must expand to generators; the right side may be any view.
        """
        return self.witness_not_in(other) is None

    def witness_not_in(self, other: "MonomialIdeal") -> Optional[Monomial]:
        """The lex-first minimal generator of self outside other, or None if
        self <= other.

        A view on the right answers through its public `contains`.  An
        explicit right side is trusted: in two variables one merge walks both
        staircases (see the module docstring), in more variables each
        generator goes through `_contains_explicit`.
        """
        self._require_same_ring(other)
        gens = self.generators
        if other.view is None and self.nvars == 2:
            return _staircase_witness(gens, other._gens)
        has = other._contains_explicit if other.view is None else other.contains
        return next((g for g in gens if not has(g)), None)

    # -- equality / ordering / rendering -----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.generators == other.generators

    def __hash__(self):
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
    """The ideal generated by all monomials of total degree d (d-th power of the
    homogeneous maximal ideal)."""
    if d == 0:
        return MonomialIdeal.unit(nvars)
    gens = []
    for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 2 - prev)
        gens.append(tuple(exps))
    return MonomialIdeal(nvars, tuple(sorted(gens)))


def minimal_lattice_points(rows, rhs, box) -> Tuple[Monomial, ...]:
    """Divisibility-minimal nonnegative lattice points of {a : W a >= m}.

    `rows` are nonnegative integer weight vectors, `rhs` their bounds, `box`
    componentwise upper bounds guaranteed to contain every minimal point.
    For each prefix of the first n-1 coordinates the least feasible last
    coordinate c(prefix) is computed; c is componentwise nonincreasing in the
    prefix, so a candidate is minimal iff no single-step prefix decrement
    keeps c equal.
    """
    n = len(box)
    if n == 0:
        raise DimensionError("empty ambient dimension")
    prefix_count = 1
    for b in box[:-1]:
        prefix_count *= b + 1
    if prefix_count > MATERIALIZE_CAP:
        raise CapabilityError(
            f"materialization would scan {prefix_count} candidate lattice points (cap {MATERIALIZE_CAP})"
        )
    last = n - 1
    cvals: dict = {}

    def cval(prefix) -> Optional[int]:
        c = 0
        for w, m in zip(rows, rhs):
            partial = sum(w[j] * prefix[j] for j in range(last))
            if w[last] == 0:
                if partial < m:
                    return None
            else:
                need = m - partial
                if need > 0:
                    c = max(c, -(-need // w[last]))
        return c

    ranges = [range(b + 1) for b in box[:-1]]
    for prefix in itertools.product(*ranges) if ranges else [()]:
        cvals[prefix] = cval(prefix)

    points = []
    for prefix, c in cvals.items():
        if c is None:
            continue
        minimal = True
        for j in range(last):
            if prefix[j] > 0:
                neighbor = cvals[prefix[:j] + (prefix[j] - 1,) + prefix[j + 1 :]]
                if neighbor is not None and neighbor <= c:
                    minimal = False
                    break
        if minimal:
            points.append(prefix + (c,))
    return minimize_monomials(points)
