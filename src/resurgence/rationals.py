"""Exact extended rationals: {-inf} | Q | {+inf} with a total order.

All finite arithmetic is delegated to fractions.Fraction; this module only
adds the two infinities, which the containment invariants use for their sup/inf
conventions (sup of an empty set is -inf, inf of an empty set is +inf).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


def ceil_frac(q: Fraction | int) -> int:
    """Exact ceiling of a rational."""
    q = Fraction(q)
    return -((-q.numerator) // q.denominator)


def format_fraction(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True, order=True)
class ExtendedRational:
    """A value in {-inf} | Q | {+inf}.

    `sign` is -1 / 0 / +1 for -inf / finite / +inf; `value` is the finite
    part (None at infinity).  The generated order compares (sign, value), so
    -inf < every finite value < +inf; it compares only ExtendedRationals.
    """

    sign: int
    value: Fraction | None = None

    def __post_init__(self):
        if self.sign == 0:
            if self.value is None:
                raise ValueError("finite ExtendedRational needs a value")
            object.__setattr__(self, "value", Fraction(self.value))
        elif self.value is not None:
            raise ValueError("infinite ExtendedRational must not carry a value")

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    def __str__(self) -> str:
        if self.sign < 0:
            return "-inf"
        if self.sign > 0:
            return "inf"
        return format_fraction(self.value)


NEG_INFINITY = ExtendedRational(-1)
POS_INFINITY = ExtendedRational(1)


def finite(q: Rat) -> ExtendedRational:
    return ExtendedRational(0, Fraction(q))

