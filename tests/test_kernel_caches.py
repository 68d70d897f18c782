"""Oracle tests of the exponent-tuple kernel and of the per-ideal caches.

Degree-grouped minimization in 4-6 variables is compared with
`oracles.minimal_set` on inputs built to stress its degree rule: whole
degree-d layers (where no two candidates divide each other) mixed with
lower-degree monomials that divide some of them, and duplicates.  Explicit
membership in 3-5 variables is compared with `oracles.in_monomial_set`.
Each power I^n is one cached object whose value equals the minimized
`oracles.power_set_of_ideal`, and each closure view of I^n is one cached
object, so `bequiv_constant` and `is_b_equivalent` walk each closure region
once between them.  The two-variable corners, the `convex_chain` of the
stored staircase, match `staircase_corners` of the same points shuffled
among dominated extras.
"""

import itertools
import random

import pytest

import oracles
from resurgence import MonomialIdeal, closure_powers, minimize_monomials, monomials
from resurgence.closures import bequiv_constant, integral_closure
from resurgence.families import is_b_equivalent
from resurgence.polyhedra import convex_chain, staircase_corners


def _layer(nvars, d):
    """All monomials of total degree d in `nvars` variables."""
    return [m for m in itertools.product(range(d + 1), repeat=nvars) if sum(m) == d]


def _mixed_degree_sets(rng, nvars):
    """A random subset of a degree-d layer, lower-degree monomials, and
    duplicates of both, shuffled."""
    d = rng.randint(2, 4)
    layer = _layer(nvars, d)
    gens = rng.sample(layer, rng.randint(1, min(len(layer), 30)))
    gens += [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(rng.randint(0, 6))]
    gens += [tuple(rng.randint(0, 5) for _ in range(nvars)) for _ in range(rng.randint(0, 6))]
    gens += rng.choices(gens, k=rng.randint(0, 5))
    rng.shuffle(gens)
    return gens


class TestDegreeGroupedMinimization:
    @pytest.mark.parametrize("nvars", [4, 5, 6])
    def test_matches_the_minimal_set_oracle(self, nvars):
        rng = random.Random(3000 + nvars)
        for _ in range(120):
            gens = _mixed_degree_sets(rng, nvars)
            assert list(minimize_monomials(gens)) == oracles.minimal_set(gens), gens

    def test_a_whole_layer_is_kept_and_a_divisor_below_prunes_it(self):
        layer = _layer(4, 3)
        assert minimize_monomials(layer) == tuple(sorted(layer))
        pruned = minimize_monomials(layer + [(1, 0, 0, 0)])
        assert pruned == tuple(sorted([(1, 0, 0, 0)] + [m for m in layer if m[0] == 0]))


class TestExplicitMembership:
    @pytest.mark.parametrize("nvars", [3, 4, 5])
    def test_matches_the_membership_oracle(self, nvars):
        rng = random.Random(3100 + nvars)
        for _ in range(60):
            raw = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(1, 8))]
            ideal = MonomialIdeal.from_generators(nvars, raw)
            probes = [tuple(rng.randint(0, 5) for _ in range(nvars)) for _ in range(40)]
            probes += [tuple(map(max, g, p)) for g, p in zip(ideal.generators, probes)]
            for m in probes:
                expected = oracles.in_monomial_set(m, raw)
                assert ideal.contains(m) == ideal._contains_explicit(m) == expected, (raw, m)


class TestPowerCache:
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_each_power_is_built_once_with_the_oracle_value(self, nvars):
        rng = random.Random(3200 + nvars)
        for _ in range(12):
            raw = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 4))]
            ideal = MonomialIdeal.from_generators(nvars, raw)
            for n in rng.sample(range(6), 6):
                power = ideal.power(n)
                assert power is ideal.power(n) or n == 0  # I^0 is a fresh unit ideal
                assert list(power.generators) == oracles.minimal_set(oracles.power_set_of_ideal(raw, n)), (raw, n)


class TestClosureCache:
    IDEAL = [(3, 1, 0), (0, 2, 3), (1, 0, 4), (2, 2, 1)]

    def test_each_closure_view_is_built_once(self):
        ideal = MonomialIdeal.from_generators(3, self.IDEAL)
        for n in (1, 2, 3):
            assert integral_closure(ideal, n) is integral_closure(ideal, n)
        assert integral_closure(ideal, 2) is not integral_closure(ideal, 3)

    def test_bequiv_and_b_equivalence_walk_each_region_once(self, monkeypatch):
        walked = []
        walk = monomials.minimal_lattice_points

        def recorder(rows, rhs, box):
            walked.append((rows, rhs))
            return walk(rows, rhs, box)

        monkeypatch.setattr(monomials, "minimal_lattice_points", recorder)
        ideal = MonomialIdeal.from_generators(3, self.IDEAL)
        assert bequiv_constant(ideal).k == 1
        assert is_b_equivalent(closure_powers(ideal), ideal, 2, 6).holds
        # k = 2 walks closure(I^n) for n = 2..9 and k = 1 stops at n = 1; the
        # check reads n = 3..8 from the same views and walks nothing new
        assert len(walked) == len(set(walked)) == 9


class TestConvexChain:
    def test_the_stored_staircase_gives_the_corners_of_all_points(self):
        rng = random.Random(3300)
        for _ in range(200):
            raw = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(1, 10))]
            ideal = MonomialIdeal.from_generators(2, raw)
            points = list(raw) + [(x + rng.randint(0, 3), y + rng.randint(0, 3)) for x, y in raw]
            rng.shuffle(points)
            assert convex_chain(ideal.generators) == staircase_corners(points), raw
            assert ideal.corners() == tuple(convex_chain(ideal.generators))
