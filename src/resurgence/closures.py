"""Newton polyhedra, integral closures, Rees valuations, symbolic powers.

The Rees valuations of a monomial ideal are realized as the primitive normals
of the Newton-polyhedron facets with positive offset (the facets not through
the coordinate subspaces), each paired with its value on the ideal.  Symbolic
powers are defined for squarefree ideals through minimal vertex covers of the
generator supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import CapabilityError, DomainError
from .monomials import Monomial, MonomialIdeal, RegionView
from .polyhedra import RationalPolyhedron, hull_with_recession

MAX_COVER_VARS = 12


def newton_polyhedron(ideal: MonomialIdeal) -> RationalPolyhedron:
    """conv(exponents) + positive orthant, cached on the ideal; in the plane from the cached corners."""
    if ideal.is_zero():
        raise DomainError("the zero ideal has no Newton polyhedron")
    return ideal.cached("newton", lambda: hull_with_recession(ideal.corners() if ideal.nvars == 2 else ideal.generators))


def _positive_facets(ideal: MonomialIdeal) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Sorted (normal, offset) pairs of the positive-offset facets of NP(ideal),
    compiled once per ideal.  Every facet normal is >= 0 (the recession cone
    is the orthant), so the offset-0 facets hold at every exponent vector."""
    poly = newton_polyhedron(ideal)

    def compile_facets():
        if any(w < 0 for hs in poly.halfspaces for w in hs.normal):
            raise AssertionError("Newton polyhedron facet with a negative normal entry")
        return tuple(sorted((hs.normal, int(hs.offset)) for hs in poly.halfspaces if hs.offset > 0))

    return ideal.cached("positive_facets", compile_facets)


def integral_closure(ideal: MonomialIdeal, n: int = 1) -> MonomialIdeal:
    """Integral closure of ideal^n, as the region view of n * NP(ideal): the
    positive-offset facets with right-hand sides n * offset, generators
    materialized on demand inside the box n * (coordinatewise maximum).
    One view per (ideal, n), cached on `ideal`, so repeated calls return the
    identical object and its region is walked at most once."""
    if ideal.is_zero():
        raise DomainError("the zero ideal has no integral closure here")
    if n < 1:
        raise DomainError("closure exponent must be positive")
    if ideal.is_unit():
        return MonomialIdeal.unit(ideal.nvars)

    def view():
        facets = _positive_facets(ideal)
        rows = tuple(w for w, _ in facets)
        rhs = tuple(n * c for _, c in facets)
        box = tuple(n * max(column) for column in zip(*ideal.generators))
        return MonomialIdeal(ideal.nvars, None, RegionView(rows, rhs, box, "closure", ideal, n))

    return ideal.cached(("closure", n), view)


@dataclass(frozen=True)
class ReesValuationSet:
    """Monomial Rees valuations of an ideal: primitive weight vectors w paired
    with w(ideal) = min over generators, always positive."""

    ideal: MonomialIdeal
    valuations: Tuple[Tuple[Tuple[int, ...], int], ...]

    def weights(self):
        return tuple(w for w, _ in self.valuations)


def rees_valuations(ideal: MonomialIdeal) -> ReesValuationSet:
    if ideal.is_zero() or ideal.is_unit():
        raise DomainError("Rees valuations need a nonzero proper ideal")
    return ReesValuationSet(ideal, _positive_facets(ideal))


def minimal_covers(ideal: MonomialIdeal) -> Tuple[Monomial, ...]:
    """Minimal vertex covers of the generator supports, as 0/1 indicator tuples.

    These index the minimal primes of a squarefree monomial ideal.  Berge's
    sequential transversal method on bitmasks (Berge, Hypergraphs, 1989;
    Fredman & Khachiyan, J. Algorithms 21, 1996): the minimal covers of the
    supports seen so far are kept; a new support keeps the covers that meet
    it and extends each other cover by each of its vertices.  An extension
    is minimal unless it contains a kept cover (two extensions never contain
    one another), so only that test is made.  Covers are returned by size,
    then lexicographically by their sorted vertex indices, which is the
    order of an exhaustive subset search and fixes the rows of the cover LP.
    Capped at MAX_COVER_VARS variables.
    """
    nvars = ideal.nvars
    if nvars > MAX_COVER_VARS:
        raise CapabilityError(f"cover enumeration capped at {MAX_COVER_VARS} variables")
    supports = sorted({sum(1 << i for i, e in enumerate(g) if e > 0) for g in ideal.generators})
    covers = [0]
    for support in supports:
        bits = [1 << i for i in range(nvars) if support >> i & 1]
        meets = [c for c in covers if c & support]
        grown = [c | b for c in covers if not c & support for b in bits]
        covers = meets + [g for g in grown if not any(c & g == c for c in meets)]
    vertices = [[i for i in range(nvars) if c >> i & 1] for c in covers]
    vertices.sort(key=lambda v: (len(v), v))
    return tuple(tuple(1 if i in v else 0 for i in range(nvars)) for v in vertices)


def symbolic_power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """n-th symbolic power of a squarefree monomial ideal, as a membership view
    cached on `ideal`.

    I^(n) is the intersection of the n-th powers of the minimal primes; a
    monomial belongs iff each minimal cover C satisfies sum_{i in C} m_i >= n.
    This is the one scope check for symbolic powers: the view's rows, the
    minimal covers cached on `ideal`, are also the rows of the cover LP.
    """
    if n < 1:
        raise DomainError("symbolic exponent must be positive")
    if ideal.is_zero() or ideal.is_unit():
        raise DomainError("symbolic powers need a nonzero proper ideal")
    if any(e > 1 for g in ideal.generators for e in g):
        raise CapabilityError("symbolic powers are implemented for squarefree ideals only")
    covers = ideal.cached("covers", lambda: minimal_covers(ideal))
    # One view per (ideal, n), so its generators are materialized at most once.
    # A minimal generator never needs an exponent above n: decrementing a
    # coordinate > n keeps every cover sum >= n.
    return ideal.cached(("symbolic", n), lambda: MonomialIdeal(ideal.nvars, None, RegionView(
        covers, (n,) * len(covers), (n,) * ideal.nvars, "symbolic")))


@dataclass(frozen=True)
class EquivalenceConstant:
    """A shift k with family_{i+k} <= base^i for all i.

    `bound` is the a-priori certificate (0 for ordinary powers, vars-1 via
    Briancon-Skoda for closures of powers); `k` may be smaller after the
    finite tightening pass, in which case `certified` is False and `horizon`
    records the window actually checked.
    """

    k: int
    bound: int
    certified: bool
    horizon: int


def bequiv_constant(ideal: MonomialIdeal, horizon: int = 8) -> EquivalenceConstant:
    """Equivalence shift of the closures of the powers of `ideal`.

    The Briancon-Skoda bound k = vars - 1 certifies closure(I^(i+k)) <= I^i;
    the tightening pass then decrements k while the containment verifies on
    the window.  (Plain powers need no pass: their shift is 0 exactly.)  The
    result is cached on `ideal` per horizon, so the pass runs once.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise DomainError("equivalence constants need a nonzero proper ideal")
    if horizon < 1:  # the tightening pass would check nothing and drive k to 0
        raise DomainError(f"equivalence constants need a horizon >= 1, not {horizon}")

    def tighten():
        bound = ideal.nvars - 1
        k = bound
        while k > 0 and all(
            integral_closure(ideal, i + k - 1).is_subset_of(ideal.power(i))
            for i in range(1, horizon + 1)
        ):
            k -= 1
        return EquivalenceConstant(k, bound, k == bound, horizon)

    return ideal.cached(("bequiv", horizon), tighten)
