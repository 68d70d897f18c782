"""Seeded property tests of lattice-point and cover enumeration.

`minimal_lattice_points` (a pruned depth-first walk) is compared with the full
box scan `oracles.box_minimal_lattice_points` on random weight systems and on
the regions of symbolic and closure views, and `lightest_lattice_point` (its
branch and bound) with the least weight over that scan; `minimal_covers` (Berge's method)
is compared with the exhaustive subset search `oracles.minimal_covers`, order
included.  The budgets of both functions are tested at their edges.  The
generators of m^d are compared with the stars-and-bars loop
`oracles.complete_power_generators`, order included.
"""

import itertools
import operator

import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from resurgence import (
    CapabilityError,
    DimensionError,
    MonomialIdeal,
    integral_closure,
    minimal_covers,
    monomials,
    powers,
    symbolic_power,
)
from resurgence.closures import MAX_COVER_VARS
from resurgence.families import symbolic
from resurgence.invariants import beta
from resurgence.monomials import complete_power_ideal, lightest_lattice_point, minimal_lattice_points

SEEDED = settings(max_examples=150, deadline=None, database=None)


def view_region(ideal):
    view = ideal.view
    return view.rows, view.rhs, view.box


def cycle(nvars):
    return MonomialIdeal.from_generators(
        nvars, [tuple(1 if k in (i, (i + 1) % nvars) else 0 for k in range(nvars)) for i in range(nvars)])


@st.composite
def weight_systems(draw):
    """(rows, rhs, box) in 1 to 5 variables; some rows put no weight on the
    last coordinate, so some prefixes have no feasible last coordinate."""
    nvars = draw(st.integers(1, 5))
    weight = st.integers(0, 3)
    row = st.tuples(*[weight] * (nvars - 1), st.one_of(st.just(0), weight))
    rows = draw(st.lists(row, max_size=4))
    rhs = [draw(st.integers(0, 6)) for _ in rows]
    box = [draw(st.integers(0, 4 if nvars <= 4 else 3)) for _ in range(nvars)]
    return rows, rhs, box


@st.composite
def squarefree_ideals(draw, max_vars=5):
    nvars = draw(st.integers(1, max_vars))
    mono = st.tuples(*[st.integers(0, 1)] * nvars).filter(any)
    return MonomialIdeal.from_generators(nvars, draw(st.lists(mono, min_size=1, max_size=5)))


@st.composite
def closure_ideals(draw):
    nvars = draw(st.integers(1, 5))
    mono = st.tuples(*[st.integers(0, 3 if nvars <= 4 else 2)] * nvars).filter(any)
    base = MonomialIdeal.from_generators(nvars, draw(st.lists(mono, min_size=1, max_size=4)))
    return integral_closure(base, draw(st.integers(1, 2)))


@st.composite
def hypergraphs(draw):
    """Generator lists on up to 12 vertices, with the zero and unit ideals."""
    nvars = draw(st.integers(1, MAX_COVER_VARS))
    edge = st.lists(st.integers(0, nvars - 1), min_size=1, max_size=4, unique=True)
    edges = draw(st.one_of(st.just([]), st.just([[]]), st.lists(edge, min_size=1, max_size=9)))
    return nvars, [tuple(1 if i in e else 0 for i in range(nvars)) for e in edges]


class TestMinimalLatticePoints:
    @seed(101)
    @SEEDED
    @given(weight_systems())
    def test_random_weights_match_box_scan(self, system):
        assert minimal_lattice_points(*system) == oracles.box_minimal_lattice_points(*system)

    @seed(106)
    @SEEDED
    @given(weight_systems().flatmap(lambda system: st.tuples(
        st.just(system), st.tuples(*[st.integers(0, 4)] * len(system[2])))))
    def test_lightest_point_matches_box_scan(self, case):
        # None where the box holds no region point
        system, weights = case
        points = oracles.box_minimal_lattice_points(*system)
        expected = min((sum(map(operator.mul, weights, p)) for p in points), default=None)
        assert lightest_lattice_point(*system, weights) == expected

    def test_ties_go_to_the_lex_first_point(self):
        # 3y + 3z >= 5 weighed by 3y + 3z: (0, 0, 2) and (0, 1, 1) both weigh 6
        assert lightest_lattice_point([(0, 3, 3)], [5], [2, 3, 1], (2, 3, 3)) == 6

    def test_row_without_last_weight(self):
        # x + y >= 2 and x >= 1: prefixes x = 0 have no feasible y at all
        system = [(1, 1), (1, 0)], [2, 1], [3, 3]
        assert minimal_lattice_points(*system) == ((1, 1), (2, 0))
        assert oracles.box_minimal_lattice_points(*system) == ((1, 1), (2, 0))

    @seed(102)
    @SEEDED
    @given(squarefree_ideals(), st.integers(1, 3))
    def test_symbolic_regions_match_box_scan(self, ideal, n):
        region = view_region(symbolic_power(ideal, n))
        assert minimal_lattice_points(*region) == oracles.box_minimal_lattice_points(*region)

    @seed(103)
    @settings(max_examples=60, deadline=None, database=None)
    @given(closure_ideals())
    def test_closure_regions_match_box_scan(self, view):
        region = view_region(view)
        assert minimal_lattice_points(*region) == oracles.box_minimal_lattice_points(*region)

    @seed(104)
    @SEEDED
    @given(weight_systems())
    def test_walk_emits_only_minimal_points(self, system):
        # no minimization pass follows the walk: its own output is the answer
        points = minimal_lattice_points(*system)
        assert points == oracles.box_minimal_lattice_points(*system)
        assert list(points) == sorted(set(points))
        assert not any(p != q and oracles.divides(p, q) for p in points for q in points)

    def test_cap_counts_leaves(self, monkeypatch):
        # x + y + z >= d visits the prefixes (x, y) with x + y <= d: 10 for d = 3
        monkeypatch.setattr(monomials, "MATERIALIZE_CAP", 10)
        assert len(minimal_lattice_points([(1, 1, 1)], [3], [3, 3, 3])) == 10
        with pytest.raises(CapabilityError, match="MATERIALIZE_CAP"):
            minimal_lattice_points([(1, 1, 1)], [4], [4, 4, 4])

    def test_region_over_the_cap_raises(self):
        # m^500 in 3 variables has 125,751 minimal generators, one per leaf
        with pytest.raises(CapabilityError, match=f"{monomials.MATERIALIZE_CAP} .*MATERIALIZE_CAP"):
            minimal_lattice_points([(1, 1, 1)], [500], [500, 500, 500])

    def test_empty_box_raises(self):
        with pytest.raises(DimensionError):
            minimal_lattice_points([()], [1], [])

    def test_seven_cycle_beta_table_to_seven(self):
        # s <= 5 are the box scan's values (it raised for s >= 6 under this
        # cap); each value is 1 + ceil(7s/4), one above the Waldschmidt bound
        # 7s/4 on the initial degree of the s-th symbolic power of the 7-cycle
        assert monomials.MATERIALIZE_CAP == 100_000
        m = MonomialIdeal.from_generators(7, [tuple(int(k == i) for k in range(7)) for i in range(7)])
        a, b = symbolic(cycle(7)), powers(m)
        table = [beta(a, b, s, 40).value for s in range(1, 8)]
        assert table[:5] == [3, 5, 7, 8, 10]
        assert table == [1 + -(-7 * s // 4) for s in range(1, 8)]
        assert [len(a.member(s).generators) for s in (5, 6, 7)] == [427, 805, 1407]


class TestMinimalCovers:
    @seed(105)
    @settings(max_examples=80, deadline=None, database=None)
    @given(hypergraphs())
    def test_matches_subset_search_in_order(self, graph):
        nvars, gens = graph
        ideal = MonomialIdeal.from_generators(nvars, gens)
        expected = tuple(tuple(1 if i in c else 0 for i in range(nvars))
                         for c in oracles.minimal_covers(ideal.generators, nvars))
        assert minimal_covers(ideal) == expected

    def test_thirteen_variables_raise(self):
        assert MAX_COVER_VARS == 12
        with pytest.raises(CapabilityError, match="12 variables"):
            minimal_covers(cycle(13))


class TestCompletePower:
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
    def test_generators_match_stars_and_bars_in_order(self, nvars):
        # every degree d <= 8; in three or more variables the walk builds them
        for d in range(9):
            ideal = complete_power_ideal(nvars, d)
            assert ideal.is_explicit == (nvars <= 2 or d == 0)
            assert ideal.generators == oracles.complete_power_generators(nvars, d)

    def test_probe_leaves_power_unmaterialized(self):
        ideal = complete_power_ideal(7, 5).power(3)
        assert ideal.view_kind == "degree" and ideal.view.rhs == (15,)
        inside = MonomialIdeal.from_generators(7, [(15, 0, 0, 0, 0, 0, 0), (3, 3, 3, 3, 3, 0, 0)])
        short = MonomialIdeal.from_generators(7, [(2,) * 7, (3, 3, 3, 3, 3, 0, 0)])
        assert inside.is_subset_of(ideal)
        assert short.witness_not_in(ideal) == (2,) * 7
        assert not ideal.is_explicit

    def test_generators_over_the_cap_raise(self):
        # m^17 in 7 variables has C(23, 6) = 100,947 generators, one per leaf
        ideal = complete_power_ideal(7, 17)
        assert ideal.contains((17, 0, 0, 0, 0, 0, 0)) and not ideal.contains((2,) * 7)
        with pytest.raises(CapabilityError, match=f"{monomials.MATERIALIZE_CAP} .*MATERIALIZE_CAP"):
            ideal.generators

    def test_membership_matches_all_monomials_of_degree_d(self):
        for nvars, d in itertools.product((2, 3, 4), (1, 2, 3, 4)):
            ideal = complete_power_ideal(nvars, d)
            box = list(itertools.product(range(d + 2), repeat=nvars))
            gens = [m for m in box if sum(m) == d]
            assert ideal.generators == tuple(sorted(gens))
            for m in box:
                assert ideal.contains(m) == oracles.in_monomial_set(m, gens)
