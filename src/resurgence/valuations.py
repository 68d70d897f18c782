"""Monomial valuations, values on ideals, and skew Waldschmidt constants.

Only monomial valuations (nonnegative integer weight vectors) are supported:
they suffice for every monomial-ideal computation here, but suprema taken
"over all valuations" are therefore suprema over the monomial class and are
labeled as such by callers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple

from . import families as fam
from .closures import symbolic_power
from .errors import CapabilityError, DimensionError, DomainError
from .monomials import Monomial, MonomialIdeal
from .polyhedra import HalfSpace, LinearProgram, lp_minimize


@dataclass(frozen=True)
class MonomialValuation:
    """v(x^a) = <weights, a> for a nonnegative, not-all-zero weight vector."""

    weights: Tuple[int, ...]

    def __post_init__(self):
        given = tuple(self.weights)
        try:
            weights = tuple(map(int, given))
        except (TypeError, ValueError, OverflowError):  # None, nan, inf
            weights = None
        if weights != given:  # 0.5 or 1.7 would truncate
            raise DomainError(f"non-integral valuation weight in {given}")
        if not weights or all(w == 0 for w in weights):
            raise DomainError("valuation weights must not be all zero")
        if any(w < 0 for w in weights):
            raise DomainError("valuation weights must be nonnegative")
        object.__setattr__(self, "weights", weights)

    def of_monomial(self, m: Monomial) -> int:
        if len(m) != len(self.weights):
            raise DimensionError("monomial and valuation dimensions differ")
        return sum(w * e for w, e in zip(self.weights, m))

    def of_ideal(self, ideal: MonomialIdeal) -> int:
        """min over minimal generators (valid since the weights are >= 0),
        read from `MonomialIdeal.weighted_min`."""
        return ideal.weighted_min(self.weights)


def degree_valuation(nvars: int) -> MonomialValuation:
    """Weights (1,..,1): realizes the classical Waldschmidt constant."""
    return MonomialValuation((1,) * nvars)


@dataclass(frozen=True)
class WaldschmidtResult:
    """Skew Waldschmidt constant v^(family) = lim v(a_n)/n.

    For a graded family (a_p a_q <= a_(p+q)) the sequence v(a_n) is
    subadditive, so by Fekete's lemma the limit exists and equals
    inf v(a_n)/n; for any other family neither need hold.  certified means
    lower == upper == the exact constant.  The 'window' method's `upper` is
    min over n <= window of v(a_n)/n, an upper bound of inf v(a_n)/n, and so
    of the constant only for a graded family; no lower bound is invented, so
    `lower` is None there.
    """

    upper: Fraction
    lower: Optional[Fraction]
    certified: bool
    method: str  # "closed-form" | "lp" | "veronese" | "window"
    window: Optional[int] = None
    dual: Optional[tuple] = None

    @property
    def value(self) -> Fraction:
        return self.upper


def skew_waldschmidt(v: MonomialValuation, family: fam.GradedFamily, window: int = 12,
                     kmax: int = 6) -> WaldschmidtResult:
    """Dispatch by the family's facts.

    powers / power-pattern / closures thereof: exact slope * v(I);
    symbolic powers: exact via the fractional-cover LP; values taken from an
    inner family at step k (closures, Veroneses): k times the inner constant;
    families with a verified standard Veronese index k: exact v(a_k)/k;
    otherwise a window upper bound inf_{n <= window} v(a_n)/n, explicitly
    uncertified.
    """
    if window < 1:
        raise DomainError("window must be positive")
    sem = family.power
    if sem is not None and sem[1].subadditive and not sem[0].is_zero():
        exact = sem[1].slope * v.of_ideal(sem[0])
        return WaldschmidtResult(exact, exact, True, "closed-form")
    if family.symbolic_of is not None:
        return _symbolic_waldschmidt(v, family.symbolic_of)
    if family.inner is not None:
        inner = skew_waldschmidt(v, family.inner, window=window, kmax=kmax)
        step = family.step
        return replace(inner, upper=inner.upper * step,
                       lower=None if inner.lower is None else inner.lower * step)
    k, report = fam.find_standard_veronese(family, kmax, min(window, 8))
    if k is not None:
        exact = Fraction(v.of_ideal(family.member(k)), k)
        return WaldschmidtResult(exact, exact, True, "veronese", window=report.horizon)
    upper = None
    for n in range(1, window + 1):
        member = family.member(n)
        if member.is_zero():
            raise CapabilityError(f"family member {n} is the zero ideal; no value")
        q = Fraction(v.of_ideal(member), n)
        if upper is None or q < upper:
            upper = q
    return WaldschmidtResult(upper, None, False, "window", window=window)


def _symbolic_waldschmidt(v: MonomialValuation, ideal: MonomialIdeal) -> WaldschmidtResult:
    """Exact constant for symbolic powers: minimize <w, y> over the fractional
    vertex covers {y >= 0 : sum_{i in C} y_i >= 1 for every minimal cover C},
    the rows of I^(1)'s view; `symbolic_power` raises for any other base."""
    constraints = tuple(HalfSpace(c, 1) for c in symbolic_power(ideal, 1).view.rows)
    lp = LinearProgram(tuple(Fraction(w) for w in v.weights), constraints)
    res = lp_minimize(lp)
    return WaldschmidtResult(res.optimum, res.optimum, True, "lp", dual=res.dual)
