"""Seeded property tests of the containment kernel and of minimization.

`witness_not_in`/`is_subset_of` and `minimize_monomials` are compared with
brute-force scans from `oracles` on random ideals in 2 and 3 variables.  The
two-variable corner test against a view is compared with the full scan of
the left side's generators, and the cached corners with the vertices of the
Newton polygon from both hull paths.  The row-minimum rule (a view on the
right in 3-5 variables, explicit or view left sides) is compared with the
scan over both sides' materialized generators, and `beta` into powers of the
maximal ideal with a scan of RegionView.contains over the escaping member's
generators.  The bounded walk that answers `weighted_min` on a symbolic view
is compared with the minimum over `oracles.box_minimal_lattice_points`, and
the row rule against an explicit m^d with `witness_not_in`.  The
two-variable fast paths are compared with their oracles: m^d on the left of
an explicit ideal (the top-degree rule) with the scan of all degree-d
monomials, products and powers with a principal factor with the full product
sets, and the plane Newton polygon built from the cached corners with the
hull of all generators.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from resurgence import (
    CapabilityError,
    MonomialIdeal,
    SequenceValue,
    beta,
    beta_v,
    degree_valuation,
    monomials,
    ceiling,
    closure_powers,
    hull_with_recession,
    minimize_monomials,
    newton_polyhedron,
    powers,
    symbolic,
)
from resurgence.closures import integral_closure, symbolic_power
from resurgence.monomials import complete_power_ideal
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
def region_views(draw, nvars):
    """A symbolic power, integral closure or m^d view in `nvars` variables."""
    kind = draw(st.sampled_from(["symbolic", "closure", "degree"]))
    n = draw(st.integers(1, 3))
    if kind == "symbolic":
        return symbolic_power(MonomialIdeal.from_generators(nvars, draw(squarefree_generators(nvars))), n)
    if kind == "closure":
        mono = st.tuples(*[st.integers(0, 2)] * nvars).filter(any)
        base = draw(st.lists(mono, min_size=1, max_size=4))
        return integral_closure(MonomialIdeal.from_generators(nvars, base), n)
    return complete_power_ideal(nvars, draw(st.integers(1, 5)))


def wide_view_pairs(left):
    """(left ideal, right view) in 3-5 variables, the left side drawn by `left(nvars)`."""
    return st.sampled_from([3, 4, 5]).flatmap(lambda n: st.tuples(left(n), region_views(n)))


def explicit_ideals(nvars):
    """The zero ideal, the unit ideal or 1 to 9 monomials, minimized."""
    return raw_generators(nvars, top=4).map(lambda g: MonomialIdeal.from_generators(nvars, g))


class TestRowMinimumRule:
    """Each side is asked before the scan materializes either side's generators."""

    @staticmethod
    def check(left, right):
        subset = left.is_subset_of(right)
        witness = left.witness_not_in(right)
        materialized = right.generators
        expected = oracles.first_outside(left.generators, lambda m: oracles.in_monomial_set(m, materialized))
        assert witness == expected
        assert subset == (witness is None)

    @seed(68)
    @SEEDED
    @given(wide_view_pairs(explicit_ideals))
    def test_explicit_left_matches_materialized_scan(self, case):
        self.check(*case)

    @seed(69)
    @SEEDED
    @given(wide_view_pairs(region_views))
    def test_view_left_matches_materialized_scan(self, case):
        self.check(*case)

    def test_probes_of_a_closure_read_one_cached_minimum(self):
        # the closure of I^3 for ROADMAP's ideal has least degree 3 * 4 = 12
        I = MonomialIdeal.from_generators(3, [(3, 1, 0), (0, 2, 3), (1, 0, 4), (2, 2, 1)])
        left = integral_closure(I, 3)
        answers = [left.is_subset_of(complete_power_ideal(3, d)) for d in (1, 2, 4, 8, 12, 13, 16)]
        assert answers == [True] * 5 + [False] * 2
        assert not left.is_explicit

        def recomputed():
            raise AssertionError("the row minimum was not cached")

        assert left.cached(("weighted_min", (1, 1, 1)), recomputed) == (12, (9, 3, 0))

    def test_beta_into_powers_of_m_matches_a_row_scan(self):
        # the least d with a generator of a_s outside m^d, by RegionView.contains
        # over the materialized generators of a_s; beta reads row minima instead
        def brute(member, nvars, cutoff):
            gens = member.generators
            hit = next((d for d in range(1, cutoff + 1)
                        if not all(map(complete_power_ideal(nvars, d).view.contains, gens))), None)
            return SequenceValue("exceeds", bound=cutoff) if hit is None else SequenceValue("finite", hit)

        rng = random.Random(70)
        for _ in range(40):
            n = rng.randint(3, 5)
            gens = [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            edges = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
            I = MonomialIdeal.from_generators(n, [g if any(g) else [1] * n for g in gens])
            E = MonomialIdeal.from_generators(n, [[int(i in e) for i in range(n)] for e in edges])
            alpha = Fraction(rng.randint(1, 7), rng.randint(1, 4))
            m = MonomialIdeal.from_generators(n, [[int(i == j) for j in range(n)] for i in range(n)])
            for make in (lambda: powers(I), lambda: symbolic(E), lambda: closure_powers(I),
                         lambda: ceiling(I, alpha)):
                for s in range(1, 4):
                    assert beta(make(), powers(m), s, 64) == brute(make().member(s), n, 64)


@st.composite
def weighted_symbolic_views(draw):
    """(an unmaterialized symbolic power in 2-7 variables, exponent 1-6, with
    at most 4,096 prefixes in its box so the oracle's scan stays short;
    weights 0-4, zeros included)."""
    nvars = draw(st.integers(2, 7))
    top = max(s for s in range(1, 7) if (s + 1) ** (nvars - 1) <= 4096)
    base = MonomialIdeal.from_generators(nvars, draw(squarefree_generators(nvars)))
    return symbolic_power(base, draw(st.integers(1, top))), draw(st.tuples(*[st.integers(0, 4)] * nvars))


def seven_cycle():
    return MonomialIdeal.from_generators(7, [[int(k in (i, (i + 1) % 7)) for k in range(7)] for i in range(7)])


class TestBoundedWalk:
    """`weighted_min` on a symbolic view walks the region, never materializing it."""

    @seed(71)
    @SEEDED
    @given(weighted_symbolic_views())
    def test_matches_the_minimum_over_the_box_scan(self, case):
        ideal, weights = case
        view = ideal.view
        points = oracles.box_minimal_lattice_points(view.rows, view.rhs, view.box)
        expected = min((sum(w * e for w, e in zip(weights, p)), p) for p in points)
        assert ideal.weighted_min(weights) == expected
        assert not ideal.is_explicit

    @seed(72)
    @SEEDED
    @given(st.sampled_from([3, 4, 5]).flatmap(lambda n: st.tuples(
        st.one_of(explicit_ideals(n), region_views(n)), st.integers(0, 4).map(
            lambda d: MonomialIdeal.from_generators(n, oracles.complete_power_generators(n, d))))))
    def test_explicit_complete_power_matches_witness(self, case):
        left, right = case
        assert right.is_explicit
        assert left.is_subset_of(right) == (left.witness_not_in(right) is None)

    def test_beta_into_powers_of_m_leaves_symbolic_members_unmaterialized(self):
        # 1 + ceil(7s/4) up to s = 12; the 13th symbolic power of the 7-cycle
        # is past MATERIALIZE_CAP when materialized
        m = MonomialIdeal.from_generators(7, [[int(k == i) for k in range(7)] for i in range(7)])
        a, b = symbolic(seven_cycle()), powers(m)
        expected = [1 + -(-7 * s // 4) for s in range(1, 13)]
        assert [beta(a, b, s, 40).value for s in range(1, 13)] == expected
        assert [beta_v(degree_valuation(7), a, b, s, 40).value for s in range(1, 13)] == expected
        assert all(a.member(s)._gens is None for s in range(1, 13))

    def test_cap_bounds_the_walk(self, monkeypatch):
        # the least degree of the 10th symbolic power takes three leaves
        assert symbolic_power(seven_cycle(), 10).weighted_min((1,) * 7) == (18, (2, 2, 2, 2, 2, 4, 4))
        monkeypatch.setattr(monomials, "MATERIALIZE_CAP", 2)
        with pytest.raises(CapabilityError, match="MATERIALIZE_CAP"):
            symbolic_power(seven_cycle(), 10).weighted_min((1,) * 7)


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


@st.composite
def m_primary_staircases(draw):
    """2-variable ideals containing powers of both variables."""
    gens = draw(raw_generators(2, top=6)) + [(draw(st.integers(0, 9)), 0), (0, draw(st.integers(0, 9)))]
    return MonomialIdeal.from_generators(2, gens)


@st.composite
def principal_pairs(draw):
    """(nvars, left, right) in 1-4 variables: half the left sides have one
    generator, the others and every right side up to 4 and 6."""
    nvars = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 4)] * nvars)
    left = draw(st.one_of(mono.map(lambda g: [g]), st.lists(mono, max_size=4)))
    return nvars, left, draw(st.lists(mono, max_size=6))


class TestTwoVariableFastPaths:
    @seed(121)
    @SEEDED
    @given(st.integers(0, 14), st.one_of(staircases(), m_primary_staircases()))
    def test_complete_power_left_matches_the_degree_scan(self, d, J):
        expected = oracles.first_outside(oracles.complete_power_generators(2, d),
                                         lambda m: oracles.in_monomial_set(m, J.generators))
        assert complete_power_ideal(2, d).is_subset_of(J) == (expected is None)

    def test_complete_power_left_on_the_edge_cases(self):
        ideal = lambda *gens: MonomialIdeal.from_generators(2, gens)  # noqa: E731
        cases = [  # (J, the d with m^d in J, the d without)
            (MonomialIdeal.unit(2), range(0, 6), range(0)),
            (MonomialIdeal.zero(2), range(0), range(0, 6)),
            (ideal((2, 0), (1, 1)), range(0), range(0, 9)),  # y^d stays outside: not m-primary
            (ideal((0, 3)), range(0), range(0, 9)),
            (ideal((3, 0), (0, 2)), range(4, 9), range(0, 4)),  # x^2 y is the top standard monomial
            (ideal((2, 0), (1, 1), (0, 2)), range(2, 9), range(0, 2)),  # m^2 itself
        ]
        for J, inside, outside in cases:
            for d in inside:
                assert complete_power_ideal(2, d).is_subset_of(J), (J, d)
            for d in outside:
                assert not complete_power_ideal(2, d).is_subset_of(J), (J, d)

    @seed(122)
    @SEEDED
    @given(principal_pairs())
    def test_products_with_a_principal_factor_match_the_product_set(self, case):
        nvars, left, right = case
        I = MonomialIdeal.from_generators(nvars, left)
        J = MonomialIdeal.from_generators(nvars, right)
        expected = tuple(oracles.minimal_set(oracles.product_set(left, right)))
        assert I.multiply(J).generators == J.multiply(I).generators == expected

    @seed(123)
    @SEEDED
    @given(principal_pairs().filter(lambda case: case[1]), st.integers(0, 4))
    def test_powers_of_a_principal_ideal_match_the_power_set(self, case, n):
        nvars, gens, _ = case
        expected = tuple(oracles.minimal_set(oracles.power_set_of_ideal(gens, n)))
        assert MonomialIdeal.from_generators(nvars, gens).power(n).generators == expected

    def test_a_principal_factor_translates_a_view(self):
        view = integral_closure(MonomialIdeal.from_generators(3, [(2, 1, 0), (0, 1, 3), (1, 0, 1)]), 2)
        for g in [(0, 0, 0), (1, 0, 2)]:
            expected = tuple(oracles.minimal_set(oracles.product_set([g], view.generators)))
            principal = MonomialIdeal.from_generators(3, [g])
            assert principal.multiply(view).generators == view.multiply(principal).generators == expected

    @seed(124)
    @SEEDED
    @given(st.one_of(staircases().filter(lambda I: not I.is_zero()), m_primary_staircases(), plane_views()))
    def test_plane_newton_polyhedron_matches_the_hull_of_all_generators(self, I):
        assert newton_polyhedron(I) == hull_with_recession(I.generators)
