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
from .monomials import ClosureView, Monomial, MonomialIdeal, SymbolicView
from .polyhedra import RationalPolyhedron, hull_with_recession

MAX_COVER_VARS = 12


def newton_polyhedron(ideal: MonomialIdeal) -> RationalPolyhedron:
    """conv(exponents) + positive orthant, cached on the ideal (written once)."""
    if ideal.is_zero():
        raise DomainError("the zero ideal has no Newton polyhedron")
    rays = [tuple(1 if i == j else 0 for j in range(ideal.nvars)) for i in range(ideal.nvars)]
    return ideal.cached("newton", lambda: hull_with_recession(ideal.generators, rays))


def integral_closure(ideal: MonomialIdeal, n: int = 1) -> MonomialIdeal:
    """Integral closure of ideal^n, as a membership view on n * NP(ideal).

    Explicit minimal generators are materialized on demand by bounded lattice
    point search (monomials of the n-fold dilate of the Newton polyhedron).
    """
    if ideal.is_zero():
        raise DomainError("the zero ideal has no integral closure here")
    if n < 1:
        raise DomainError("closure exponent must be positive")
    if ideal.is_unit():
        return MonomialIdeal.unit(ideal.nvars)
    return MonomialIdeal(ideal.nvars, None, ClosureView(ideal, newton_polyhedron(ideal), n))


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
    poly = newton_polyhedron(ideal)
    vals = []
    for hs in poly.halfspaces:
        if hs.offset > 0:
            if any(w < 0 for w in hs.normal):  # cannot happen for a Newton polyhedron
                raise AssertionError("Newton polyhedron facet with a negative normal entry")
            vals.append((hs.normal, int(hs.offset)))
    return ReesValuationSet(ideal, tuple(sorted(vals)))


def minimal_covers(ideal: MonomialIdeal) -> Tuple[Monomial, ...]:
    """Minimal vertex covers of the generator supports, as 0/1 indicator tuples.

    These index the minimal primes of a squarefree monomial ideal.  Exhaustive
    subset search with subset pruning; capped at MAX_COVER_VARS variables.
    """
    if ideal.nvars > MAX_COVER_VARS:
        raise CapabilityError(f"cover enumeration capped at {MAX_COVER_VARS} variables")
    supports = sorted({frozenset(i for i, e in enumerate(g) if e > 0) for g in ideal.generators})
    covers = []
    import itertools

    universe = range(ideal.nvars)
    for size in range(0, ideal.nvars + 1):
        for subset in itertools.combinations(universe, size):
            sset = set(subset)
            if any(set(c) <= sset for c in covers):
                continue
            if all(s & sset for s in supports):
                covers.append(subset)
    return tuple(tuple(1 if i in c else 0 for i in range(ideal.nvars)) for c in covers)


def symbolic_power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """n-th symbolic power of a squarefree monomial ideal, as a membership view.

    I^(n) is the intersection of the n-th powers of the minimal primes; a
    monomial belongs iff each minimal cover C satisfies sum_{i in C} m_i >= n.
    """
    if n < 1:
        raise DomainError("symbolic exponent must be positive")
    if ideal.is_zero() or ideal.is_unit():
        raise DomainError("symbolic powers need a nonzero proper ideal")
    if any(e > 1 for g in ideal.generators for e in g):
        raise CapabilityError("symbolic powers are implemented for squarefree ideals only")
    covers = ideal.cached("covers", lambda: minimal_covers(ideal))
    return MonomialIdeal(ideal.nvars, None, SymbolicView(covers, n))


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
    the window.  (Plain powers need no pass: their shift is 0 exactly.)
    """
    if ideal.is_zero() or ideal.is_unit():
        raise DomainError("equivalence constants need a nonzero proper ideal")
    bound = ideal.nvars - 1
    k = bound
    while k > 0:
        candidate = k - 1
        ok = all(
            integral_closure(ideal, i + candidate).is_subset_of(ideal.power(i))
            for i in range(1, horizon + 1)
        )
        if not ok:
            break
        k = candidate
    return EquivalenceConstant(k, bound, k == bound, horizon)
