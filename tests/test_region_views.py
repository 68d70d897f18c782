"""Seeded oracle tests of the region views' integer row test.

Closure views are compared with the Newton polyhedron's facet test, and
symbolic-power views with a scan of their materialized generators, on
random ideals in 2 to 4 variables, scales 1 to 3 and every exponent vector
of a box (degree views: `test_enumeration.TestCompletePower`).  Family
members keep their view kind.
"""

import itertools

from hypothesis import given, seed, settings, strategies as st

import oracles
from resurgence import (
    MonomialIdeal,
    closure_powers,
    integral_closure,
    newton_polyhedron,
    powers,
    symbolic,
    symbolic_power,
)

SEEDED = settings(max_examples=60, deadline=None, database=None)
SCALES = st.integers(1, 3)


def box(nvars):
    """Every exponent vector of a box of about 1,300 points."""
    side = {2: 36, 3: 11, 4: 6}[nvars]
    return itertools.product(range(side), repeat=nvars)


@st.composite
def ideals(draw, top):
    nvars = draw(st.integers(2, 4))
    mono = st.tuples(*[st.integers(0, top)] * nvars).filter(any)
    return MonomialIdeal.from_generators(nvars, draw(st.lists(mono, min_size=1, max_size=4)))


def maximal_ideal(nvars):
    variables = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    return MonomialIdeal.from_generators(nvars, variables)


class TestRegionMembership:
    @seed(111)
    @SEEDED
    @given(ideals(top=3), SCALES)
    def test_closure_rows_match_newton_polyhedron(self, ideal, k):
        closure, poly = integral_closure(ideal, k), newton_polyhedron(ideal)
        for m in box(ideal.nvars):
            assert closure.contains(m) == poly.contains(m, scale=k), m

    @seed(112)
    @SEEDED
    @given(ideals(top=1), SCALES)
    def test_symbolic_rows_match_generators(self, ideal, n):
        power = symbolic_power(ideal, n)
        for m in box(ideal.nvars):
            assert power.contains(m) == oracles.in_monomial_set(m, power.generators), m


class TestViewKinds:
    @seed(113)
    @SEEDED
    @given(ideals(top=3), SCALES)
    def test_members_keep_their_kind(self, ideal, n):
        assert closure_powers(ideal).member(n).view_kind == "closure"
        if all(e <= 1 for g in ideal.generators for e in g):
            assert symbolic(ideal).member(n).view_kind == "symbolic"

    def test_powers_of_the_maximal_ideal_are_degree_views(self):
        for nvars, n in itertools.product((2, 3, 4), (1, 2, 3)):
            member = powers(maximal_ideal(nvars)).member(n)
            # m itself stays explicit; (m^1)^n is m^n, a view in 3 or more variables
            assert member.view_kind == ("degree" if nvars >= 3 and n >= 2 else "explicit")
            assert member.generators == oracles.complete_power_generators(nvars, n)
