"""Malformed library calls raise a DomainError that names the bad argument.

One case per guard that no other test reaches.  Without its guard each call
would answer (beta_0 = 1, an empty lambda_0, a Veronese family of step 0, a
closure of I^0), run into another guard with another text (rho_n and
rho_lim then ask beta for s = 0) or fail outside the library's errors (an
empty grid has no last index).
"""

import pytest

from resurgence import (DomainError, MonomialIdeal, MonomialValuation, beta, beta_v, integral_closure, lambda_,
                         lambda_v, powers, rho_lim_estimate, rho_n, veronese)

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
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=list(CASES))
def test_a_malformed_call_names_its_domain(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message
