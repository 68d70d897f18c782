"""Malformed library calls raise a DomainError that names the bad argument.

One case per guard that no other test reaches.  Without its guard each call
would answer (beta_0 = 1, an empty lambda_0, a Veronese family of step 0, a
closure of I^0), run into another guard with another text (rho_n and
rho_lim then ask beta for s = 0) or fail outside the library's errors (an
empty grid has no last index).  The guards that raise another error class
(an unknown name, a dimension mismatch, a zero member, an abstract method)
are in `OTHER_ERRORS`.
"""

from fractions import Fraction

import pytest

from resurgence import (CapabilityError, DimensionError, DomainError, FamilyRangeError, MonomialIdeal,
                         MonomialValuation, beta, beta_v, ceil_mul, degree_valuation, integral_closure, lambda_,
                         lambda_v, powers, rho_lim_estimate, rho_n, skew_waldschmidt, veronese)
import resurgence.families as fam
from resurgence.polyhedra import HalfSpace, LinearProgram, hull_with_recession
from resurgence.rationals import ExtendedRational

M = MonomialIdeal.from_generators(2, [(1, 0), (0, 1)])
A, B = powers(M), powers(M.power(2))
V = MonomialValuation((1, 1))

CASES = {
    "beta at s = 0": (lambda: beta(A, B, 0, 5), "beta needs s >= 1 and cutoff >= 1"),
    "beta with cutoff 0": (lambda: beta(A, B, 1, 0), "beta needs s >= 1 and cutoff >= 1"),
    "beta_v at s = 0": (lambda: beta_v(V, A, B, 0, 5), "beta needs s >= 1 and cutoff >= 1"),
    "beta_v with cutoff 0": (lambda: beta_v(V, A, B, 1, 0), "beta needs s >= 1 and cutoff >= 1"),
    "lambda at n = 0": (lambda: lambda_(A, B, 0, 5), "lambda needs n >= 1 and cutoff >= 1"),
    "lambda_v at n = 0": (lambda: lambda_v(V, A, B, 0, 5), "lambda needs n >= 1 and cutoff >= 1"),
    "rho_n at n = 0": (lambda: rho_n(A, B, 0, 5, 10), "rho_n needs n >= 1"),
    "rho_lim on an empty grid": (lambda: rho_lim_estimate(A, B, [], 10), "rho_lim needs a grid of indices >= 1"),
    "rho_lim on the grid [0]": (lambda: rho_lim_estimate(A, B, [0], 10), "rho_lim needs a grid of indices >= 1"),
    "Veronese step 0": (lambda: veronese(A, 0), "Veronese step must be positive"),
    "closure of I^0": (lambda: integral_closure(M, 0), "closure exponent must be positive"),
    # a principal ideal: without the guard its power is a translation, where
    # the repeated squaring of any other ideal would never end
    "power -1": (lambda: MonomialIdeal.from_generators(2, [(2, 1)]).power(-1), "negative ideal power"),
    "unknown index function": (lambda: fam.IndexFunction("bogus")(1), "unknown index function 'bogus'"),
    "negative exponent": (lambda: fam.affine(1, -3)(1), "index function produced a negative exponent at n=1"),
    "ceil_mul with a negative ratio": (lambda: ceil_mul(Fraction(-1, 2)), "index functions must be nondecreasing"),
}

# the window path of skew_waldschmidt: kmax = 1 fails at n = 2, the zero member
ZERO_AT_TWO = fam.from_function(2, lambda n: MonomialIdeal.zero(2) if n == 2 else M.power(n))

OTHER_ERRORS = {
    "unknown ideal name": (lambda: fam.Environment().ideal("m"), FamilyRangeError, "unknown ideal name 'm'"),
    "unknown family name": (lambda: fam.Environment().family("a"), FamilyRangeError, "unknown family name 'a'"),
    "no variables": (lambda: MonomialIdeal(0, ()), DimensionError, "ambient variable count must be positive"),
    "rings differ": (lambda: M.multiply(MonomialIdeal.unit(3)), DimensionError,
                     "ambient rings differ: 2 vs 3 variables"),
    "point of the wrong dimension": (lambda: hull_with_recession([(1, 0), (0, 1)]).contains((1, 1, 1)),
                                     DimensionError, "point has dimension 3, polyhedron 2"),
    "monomial of the wrong dimension": (lambda: V.of_monomial((1, 2, 3)), DimensionError,
                                        "monomial and valuation dimensions differ"),
    "LP objective of the wrong length": (lambda: LinearProgram((1,), (HalfSpace((1, 1), 1),)), DimensionError,
                                         "objective length differs from constraint dimension"),
    "finite without a value": (lambda: ExtendedRational(0), ValueError, "finite ExtendedRational needs a value"),
    "infinite with a value": (lambda: ExtendedRational(1, Fraction(2)), ValueError,
                              "infinite ExtendedRational must not carry a value"),
    "zero member in the window": (lambda: skew_waldschmidt(degree_valuation(2), ZERO_AT_TWO, window=3, kmax=1),
                                  CapabilityError, "family member 2 is the zero ideal; no value"),
    "Expr.evaluate": (lambda: fam.Expr().evaluate(1, fam.Environment()), NotImplementedError, ""),
    "Expr.depends_on_index": (lambda: fam.Expr().depends_on_index(), NotImplementedError, ""),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=list(CASES))
def test_a_malformed_call_names_its_domain(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("call, error, message", OTHER_ERRORS.values(), ids=list(OTHER_ERRORS))
def test_a_malformed_call_raises_its_error(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
