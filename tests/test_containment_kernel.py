"""Seeded property tests of the containment kernel and of minimization.

`witness_not_in`/`is_subset_of` and `minimize_monomials` are compared with
brute-force scans from `oracles` on random ideals in 2 and 3 variables.  The
two-variable corner test against a view is compared with the full scan of
the left side's generators, and the cached corners with the vertices of the
Newton polygon from both hull paths.
"""

from hypothesis import given, seed, settings, strategies as st

import oracles
from resurgence import MonomialIdeal, hull_with_recession, minimize_monomials
from resurgence.closures import integral_closure, symbolic_power
from resurgence.polyhedra import _double_description_hull

SEEDED = settings(max_examples=150, deadline=None, database=None)


def raw_generators(nvars, top=6):
    """Generator lists of the zero ideal, the unit ideal or 1 to 9 monomials."""
    mono = st.tuples(*[st.integers(0, top)] * nvars)
    return st.one_of(st.just([]), st.just([(0,) * nvars]), st.lists(mono, min_size=1, max_size=9))


def squarefree_generators(nvars):
    mono = st.tuples(*[st.integers(0, 1)] * nvars).filter(any)
    return st.lists(mono, min_size=1, max_size=5)


@st.composite
def explicit_pairs(draw):
    nvars = draw(st.sampled_from([2, 3]))
    return nvars, draw(raw_generators(nvars)), draw(raw_generators(nvars))


@st.composite
def view_pairs(draw):
    """(left generators, right view ideal, independent membership oracle)."""
    nvars = draw(st.sampled_from([2, 3]))
    left = draw(raw_generators(nvars, top=5))
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        base = draw(squarefree_generators(nvars))
        right = symbolic_power(MonomialIdeal.from_generators(nvars, base), n)
        member = lambda m: oracles.symbolic_member(m, base, n, nvars)  # noqa: E731
    else:
        base = draw(raw_generators(nvars, top=3).filter(lambda g: g and any(map(any, g))))
        right = integral_closure(MonomialIdeal.from_generators(nvars, base), n)
        member = None  # the scan over the materialized generators
    return nvars, left, right, member


class TestContainmentKernel:
    @seed(61)
    @SEEDED
    @given(explicit_pairs())
    def test_explicit_right_matches_naive_scan(self, case):
        nvars, left, right = case
        I = MonomialIdeal.from_generators(nvars, left)
        J = MonomialIdeal.from_generators(nvars, right)
        expected = oracles.first_outside(left, lambda m: oracles.in_monomial_set(m, right))
        assert I.witness_not_in(J) == expected
        assert I.is_subset_of(J) == (expected is None)

    @seed(62)
    @SEEDED
    @given(explicit_pairs())
    def test_products_match_naive_scan(self, case):
        # products give long staircases on both sides of the 2-variable merge
        nvars, left, right = case
        I = MonomialIdeal.from_generators(nvars, left)
        J = MonomialIdeal.from_generators(nvars, right)
        left_raw = oracles.product_set(left, right) if left and right else []
        right_raw = oracles.product_set(right, right) if right else []
        expected = oracles.first_outside(left_raw, lambda m: oracles.in_monomial_set(m, right_raw))
        assert I.multiply(J).witness_not_in(J.multiply(J)) == expected

    @seed(63)
    @SEEDED
    @given(view_pairs())
    def test_view_right_matches_naive_scan(self, case):
        nvars, left, right, member = case
        I = MonomialIdeal.from_generators(nvars, left)
        witness = I.witness_not_in(right)
        subset = I.is_subset_of(right)
        materialized = right.generators
        expected = oracles.first_outside(left, lambda m: oracles.in_monomial_set(m, materialized))
        assert witness == expected
        assert subset == (expected is None)
        if member is not None:
            assert expected == oracles.first_outside(left, member)


@st.composite
def staircases(draw):
    """2-variable ideals: the zero and unit ideals, one generator, collinear
    m^s shifted by a monomial, and powers of random ideals (long staircases
    with generators strictly inside the Newton polygon's edges)."""
    kind = draw(st.sampled_from(["zero", "unit", "one", "collinear", "power"]))
    if kind == "zero":
        return MonomialIdeal.zero(2)
    if kind == "unit":
        return MonomialIdeal.unit(2)
    shift = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
    if kind == "one":
        return MonomialIdeal.from_generators(2, [shift])
    if kind == "collinear":
        s = draw(st.integers(1, 9))
        return MonomialIdeal.from_generators(2, [(shift[0] + i, shift[1] + s - i) for i in range(s + 1)])
    base = draw(raw_generators(2, top=5).filter(bool))
    return MonomialIdeal.from_generators(2, base).power(draw(st.integers(1, 3)))


@st.composite
def plane_views(draw):
    """A 2-variable closure or symbolic-power view."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return symbolic_power(MonomialIdeal.from_generators(2, draw(squarefree_generators(2))), n)
    base = draw(raw_generators(2, top=4).map(lambda g: MonomialIdeal.from_generators(2, g))
                .filter(MonomialIdeal.is_proper))
    return integral_closure(base, n)


class TestCornerRule:
    @seed(65)
    @SEEDED
    @given(staircases(), plane_views())
    def test_witness_matches_full_scan(self, I, view):
        assert view.view is not None
        expected = next((g for g in I.generators if not view.contains(g)), None)
        assert I.witness_not_in(view) == expected
        assert I.is_subset_of(view) == (expected is None)

    @seed(66)
    @SEEDED
    @given(staircases(), st.integers(1, 4))
    def test_own_closures_contain_the_staircase(self, I, n):
        # I^n lies in the closure of I^n: every corner passes, no scan runs
        if I.is_proper():
            assert I.power(n).witness_not_in(integral_closure(I, n)) is None

    @seed(67)
    @SEEDED
    @given(staircases().filter(lambda I: not I.is_zero()))
    def test_corners_are_the_newton_polygon_vertices(self, I):
        gens = I.generators
        chain = hull_with_recession(gens)
        # the double description, called directly, on the same plane points
        described = _double_description_hull(gens)
        assert chain == described
        assert I.corners() == chain.vertices == described.vertices
        assert set(I.corners()) <= set(gens)
        assert I.corners() is I.corners()


class TestMinimizeOracle:
    @seed(64)
    @SEEDED
    @given(st.sampled_from([2, 3]).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 8)] * n), max_size=30)))
    def test_matches_brute_force_minimal_set(self, gens):
        once = minimize_monomials(gens)
        assert list(once) == oracles.minimal_set(gens)
        assert list(once) == sorted(once)
        assert minimize_monomials(once) == once
        assert minimize_monomials(reversed(gens)) == once
