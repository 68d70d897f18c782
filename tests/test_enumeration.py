"""Seeded property tests of lattice-point and cover enumeration.

`minimal_lattice_points` (a pruned depth-first walk) is compared with the full
box scan `oracles.box_minimal_lattice_points` on random weight systems and on
the regions of symbolic and closure views; `minimal_covers` (Berge's method)
is compared with the exhaustive subset search `oracles.minimal_covers`, order
included.  The budgets of both functions are tested at their edges.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from resurgence import (
    CapabilityError,
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
from resurgence.monomials import complete_power_ideal, minimal_lattice_points

SEEDED = settings(max_examples=150, deadline=None, database=None)


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

    def test_row_without_last_weight(self):
        # x + y >= 2 and x >= 1: prefixes x = 0 have no feasible y at all
        system = [(1, 1), (1, 0)], [2, 1], [3, 3]
        assert minimal_lattice_points(*system) == ((1, 1), (2, 0))
        assert oracles.box_minimal_lattice_points(*system) == ((1, 1), (2, 0))

    @seed(102)
    @SEEDED
    @given(squarefree_ideals(), st.integers(1, 3))
    def test_symbolic_regions_match_box_scan(self, ideal, n):
        region = symbolic_power(ideal, n).view.region(ideal.nvars)
        assert minimal_lattice_points(*region) == oracles.box_minimal_lattice_points(*region)

    @seed(103)
    @settings(max_examples=60, deadline=None, database=None)
    @given(closure_ideals())
    def test_closure_regions_match_box_scan(self, view):
        region = view.view.region(view.nvars)
        assert minimal_lattice_points(*region) == oracles.box_minimal_lattice_points(*region)

    @seed(104)
    @SEEDED
    @given(weight_systems())
    def test_walk_emits_only_minimal_points(self, system):
        # the final minimization pass receives the minimal points, sorted
        seen = []
        with mock.patch.object(monomials, "minimize_monomials", lambda pts: seen.append(tuple(pts))):
            minimal_lattice_points(*system)
        assert seen == [oracles.box_minimal_lattice_points(*system)]

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
    def test_degree_is_stored(self):
        def compute():
            raise AssertionError("complete_degree recomputed")

        for nvars, d in ((1, 3), (3, 4), (7, 5)):
            assert complete_power_ideal(nvars, d).cached("complete_degree", compute) == d

    def test_membership_matches_all_monomials_of_degree_d(self):
        for nvars, d in ((2, 3), (3, 4), (4, 2)):
            ideal = complete_power_ideal(nvars, d)
            box = list(itertools.product(range(d + 2), repeat=nvars))
            gens = [m for m in box if sum(m) == d]
            assert ideal.generators == tuple(sorted(gens))
            for m in box:
                assert ideal.contains(m) == oracles.in_monomial_set(m, gens)
