"""Valuations and skew Waldschmidt constants."""

import random
from fractions import Fraction
from math import lcm

import pytest

import oracles

from resurgence import (
    CapabilityError,
    DimensionError,
    DomainError,
    HalfSpace,
    LinearProgram,
    MonomialIdeal,
    MonomialValuation,
    ceiling,
    closure_powers,
    constant,
    degree_valuation,
    powers,
    skew_waldschmidt,
    symbolic,
    table,
    validate_graded,
)
from resurgence.closures import integral_closure, symbolic_power
from resurgence.families import Environment
from resurgence.monomials import complete_power_ideal
import resurgence.families as fam


def ideal(nvars, *gens):
    return MonomialIdeal.from_generators(nvars, gens)


class TestValues:
    def test_on_monomials(self):
        assert MonomialValuation((1, 1)).of_monomial((2, 1)) == 3
        assert MonomialValuation((3, 2)).of_monomial((0, 3)) == 6
        assert MonomialValuation((0, 1)).of_monomial((5, 0)) == 0

    def test_on_ideals(self):
        I = ideal(2, (2, 0), (0, 3))
        assert MonomialValuation((1, 1)).of_ideal(I) == 2
        assert MonomialValuation((3, 2)).of_ideal(I) == 6  # tie at the Rees facet
        assert MonomialValuation((1, 1)).of_ideal(MonomialIdeal.unit(2)) == 0

    def test_argmin_recorded(self):
        I = ideal(2, (2, 0), (0, 3))
        assert I.weighted_min((1, 1)) == 2

    def test_weights_validation(self):
        with pytest.raises(DomainError):
            MonomialValuation((0, 0))
        with pytest.raises(DomainError):
            MonomialValuation((-1, 2))

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (1.7, 1), (float("nan"), 1),
                                         (float("inf"), 1), (None, 1), ("1", 1)])
    def test_non_integral_weights_rejected(self, weights):
        with pytest.raises(DomainError):
            MonomialValuation(weights)

    def test_integral_weights_stored_as_ints(self):
        weights = MonomialValuation((2.0, Fraction(3))).weights
        assert weights == (2, 3) and all(type(w) is int for w in weights)

    def test_closure_view_value(self):
        from resurgence import integral_closure
        I = ideal(2, (2, 0), (0, 3))
        v = MonomialValuation((3, 2))
        assert v.of_ideal(integral_closure(I, 4)) == 4 * v.of_ideal(I)


def full_scan(weights, gens):
    """min <w, g> over every generator."""
    return min(sum(w * e for w, e in zip(weights, g)) for g in gens)


def random_plane_ideals(rng, count):
    """Nonzero 2-variable ideals: the unit ideal, one generator, collinear
    m^s shifted by a monomial, powers of random ideals, closure views and
    symbolic-power views."""
    for _ in range(count):
        kind = rng.choice(("unit", "one", "collinear", "power", "closure", "symbolic"))
        shift = (rng.randint(0, 4), rng.randint(0, 4))
        if kind == "unit":
            yield MonomialIdeal.unit(2)
        elif kind == "one":
            yield ideal(2, shift)
        elif kind == "collinear":
            s = rng.randint(1, 9)
            yield ideal(2, *[(shift[0] + i, shift[1] + s - i) for i in range(s + 1)])
        elif kind == "symbolic":
            base = rng.choice([[(1, 1)], [(1, 0), (0, 1)], [(1, 0)], [(1, 0), (1, 1)]])
            yield symbolic_power(ideal(2, *base), rng.randint(1, 4))
        else:
            gens = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 5))]
            base = ideal(2, *gens)
            if kind == "power" or not base.is_proper():
                yield base.power(rng.randint(1, 3))
            else:
                yield integral_closure(base, rng.randint(1, 3))


class TestWeightedMinimum:
    def test_plane_minimum_matches_full_scan(self):
        rng = random.Random(71)
        for I in random_plane_ideals(rng, 300):
            weights = (rng.randint(0, 4), rng.randint(0, 4))
            if not any(weights):
                weights = (rng.randint(1, 4), 0)
            expected = full_scan(weights, I.generators)
            assert I.weighted_min(weights) == expected
            assert I.weighted_min(weights) == expected  # the cached answer

    def test_ties_give_the_left_end_of_the_edge(self):
        # (0,3), (1,2), (2,1), (3,0) all have degree 3
        I = complete_power_ideal(2, 3)
        assert I.weighted_min((1, 1)) == 3
        assert I.weighted_min((1, 0)) == 0
        assert I.weighted_min((0, 1)) == 0

    @pytest.mark.parametrize("nvars", [3, 4, 5])
    def test_degree_view_matches_materialized(self, nvars):
        rng = random.Random(72 + nvars)
        for d in range(1, 7):
            view = complete_power_ideal(nvars, d)
            gens = oracles.complete_power_generators(nvars, d)
            for _ in range(6):
                weights = tuple(rng.randint(0, 3) for _ in range(nvars))
                if not any(weights):
                    weights = (1,) * nvars
                expected = full_scan(weights, gens)
                assert view.weighted_min(weights) == expected
                assert expected == full_scan(weights, view.generators)

    def test_degree_view_past_the_materialization_cap(self):
        # m^17 in 7 variables has more minimal generators than MATERIALIZE_CAP
        m17 = complete_power_ideal(7, 17)
        assert m17.weighted_min((1, 2, 3, 1, 1, 1, 1)) == 17
        assert not m17.is_explicit

    @pytest.mark.parametrize("nvars", [2, 3])
    def test_zero_ideal_has_no_minimum(self, nvars):
        with pytest.raises(DomainError):
            MonomialIdeal.zero(nvars).weighted_min((1,) * nvars)

    def test_weights_of_another_length_are_refused(self):
        # every branch of `weighted_min` checks the length, so the closed-form
        # value rules refuse it as `MonomialValuation.of_ideal` does
        I = ideal(2, (2, 0), (0, 3))
        for family in (powers(I), closure_powers(I)):
            with pytest.raises(DimensionError, match="dimensions differ"):
                family.value_rule((5, 1, 7))
        for J, weights in ((I, (1,)), (complete_power_ideal(3, 2), (1, 1)), (symbolic_power(ideal(2, (1, 1)), 2), (1, 2, 3))):
            with pytest.raises(DimensionError, match="dimensions differ"):
                J.weighted_min(weights)
            with pytest.raises(DimensionError, match="dimensions differ"):
                MonomialValuation(weights).of_ideal(J)

    def test_value_rule_uses_the_same_minimum(self):
        rng = random.Random(73)
        for I in random_plane_ideals(rng, 60):
            if not I.is_proper():
                continue
            weights = (rng.randint(1, 4), rng.randint(0, 4))
            rule = powers(I).value_rule(weights)
            assert rule(1) == full_scan(weights, I.generators)
            assert rule(3) == 3 * rule(1)


class TestSkewWaldschmidt:
    def test_symbolic_triangle_lp(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        res = skew_waldschmidt(degree_valuation(3), symbolic(tri))
        assert (res.value, res.certified, res.method) == (Fraction(3, 2), True, "lp")

    def test_symbolic_lp_raises_where_symbolic_power_does(self):
        # the LP reads the rows of I^(1)'s view, so its scope is symbolic_power's:
        # (x^2, y^2) has constant 2, not the radical's 1, and the unit ideal none
        with pytest.raises(CapabilityError, match="squarefree"):
            skew_waldschmidt(degree_valuation(2), symbolic(ideal(2, (2, 0), (0, 2))))
        with pytest.raises(DomainError, match="nonzero proper"):
            skew_waldschmidt(degree_valuation(2), symbolic(MonomialIdeal.unit(2)))

    def test_powers_closed_form(self):
        m = ideal(2, (1, 0), (0, 1))
        res = skew_waldschmidt(degree_valuation(2), powers(m))
        assert (res.value, res.certified) == (1, True)

    def test_constant_family_vanishes(self):
        I = ideal(2, (1, 0), (0, 1))
        res = skew_waldschmidt(degree_valuation(2), constant(I))
        assert (res.value, res.certified) == (0, True)

    @pytest.mark.parametrize("family", [powers, lambda I: ceiling(I, Fraction(3, 2))])
    def test_unit_base_closed_form_is_zero(self, family):
        res = skew_waldschmidt(degree_valuation(3), family(MonomialIdeal.unit(3)))
        assert (res.value, res.lower, res.certified, res.method) == (0, 0, True, "closed-form")
        assert type(res.value) is Fraction

    def test_ceiling_scales(self):
        I = ideal(2, (2, 0), (0, 3))
        v = MonomialValuation((3, 2))
        res = skew_waldschmidt(v, ceiling(I, Fraction(3, 2)))
        assert res.value == Fraction(3, 2) * 6

    def test_closure_family_matches_base(self):
        I = ideal(2, (2, 0), (0, 3))
        v = MonomialValuation((3, 2))
        assert skew_waldschmidt(v, closure_powers(I)).value == 6

    def test_veronese_window_certificate(self):
        # periodic family with a standard Veronese at k = 2
        I = ideal(2, (1, 0), (0, 1))
        env = Environment({"I": I, "n": I.power(2)})
        family = fam.periodic(2, 2, {
            0: fam.Power(fam.Base("I"), fam.affine(1)),
            1: fam.Product((fam.Base("n"), fam.Power(fam.Base("I"), fam.affine(1)))),
        }, env)
        res = skew_waldschmidt(degree_valuation(2), family)
        assert (res.value, res.certified, res.method) == (1, True, "veronese")

    def test_window_upper_bound_only(self):
        # a table family with an arbitrary tail gets a window estimate
        I = ideal(2, (1, 0), (0, 1))
        family = table(2, [I, I.power(3)], tail=fam.Power(fam.Base("I"), fam.affine(2)),
                       env=Environment({"I": I}))
        res = skew_waldschmidt(degree_valuation(2), family, window=6, kmax=2)
        assert not res.certified
        assert res.method == "window"
        assert res.lower is None
        assert res.value == min(Fraction(1, 1), Fraction(3, 2), Fraction(2, 1))

    def test_window_bounds_monotone(self):
        I = ideal(2, (1, 0), (0, 1))
        family = table(2, [I, I.power(3)], tail=fam.Power(fam.Base("I"), fam.affine(2)),
                       env=Environment({"I": I}))
        previous = None
        for window in (2, 4, 6, 8):
            upper = skew_waldschmidt(degree_valuation(2), family, window=window, kmax=1).value
            if previous is not None:
                assert upper <= previous
            previous = upper

    def test_degree_specialization_vs_prefix(self):
        # LP value is a lower bound of every prefix ratio alpha(I^(n))/n
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        v = degree_valuation(3)
        exact = skew_waldschmidt(v, symbolic(tri)).value
        family = symbolic(tri)
        for n in range(1, 8):
            assert exact <= Fraction(v.of_ideal(family.member(n)), n)

    def test_cover_lp_against_the_bounded_walk(self):
        # alpha_hat_v(I) <= v(I^(s))/s for every s, with equality at s = q, the
        # lcm of the denominators of an LP argmin y*: q*y* is a lattice point
        # of I^(q)'s region.  v.of_ideal of an unread symbolic view runs the
        # bounded walk, so it shares no code with the cover LP; the argmin
        # comes from the oracle LP on the oracle's covers.
        rng = random.Random(2017)
        orders = set()
        for k in range(150):
            nvars = rng.randint(3, 6)
            size = 2 if k % 2 == 0 else 3  # graphs, then 3-uniform hypergraphs
            edges = {tuple(rng.sample(range(nvars), size)) for _ in range(rng.randint(1, 2 * nvars))}
            gens = [tuple(1 if i in e else 0 for i in range(nvars)) for e in edges]
            I = MonomialIdeal.from_generators(nvars, gens)
            weights = [0] * nvars
            while not any(weights):
                weights = [rng.randint(0, 4) for _ in range(nvars)]
            v = MonomialValuation(weights)
            value = skew_waldschmidt(v, symbolic(I)).value
            rows = tuple(HalfSpace(tuple(1 if i in c else 0 for i in range(nvars)), 1)
                         for c in oracles.minimal_covers(gens, nvars))
            argmin = oracles.fraction_lp_minimize(LinearProgram(tuple(map(Fraction, weights)), rows)).argmin
            q = lcm(*(y.denominator for y in argmin))
            for s in range(1, 7):
                assert value <= Fraction(v.of_ideal(symbolic_power(I, s)), s), (gens, weights, s)
            assert value == Fraction(v.of_ideal(symbolic_power(I, q)), q), (gens, weights, q)
            orders.add(q)
        assert {1, 2, 3} <= orders

    def test_ceiling_member_values(self):
        I = ideal(2, (2, 0), (0, 3))
        v = MonomialValuation((3, 2))
        family = ceiling(I, Fraction(5, 3))
        rule = family.value_rule(v.weights)
        for n in range(1, 12):
            expected = -((-5 * n) // 3) * 6
            assert rule(n) == v.of_ideal(family.member(n)) == expected


class TestSubAdditivity:
    def test_on_random_graded_families(self):
        rng = random.Random(31)
        for _ in range(25):
            nvars = rng.choice((2, 3))
            gens = [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(3)]
            gens = [g for g in gens if any(g)] or [(1,) * nvars]
            I = MonomialIdeal.from_generators(nvars, gens)
            if not I.is_proper():
                continue
            family = rng.choice((powers(I), ceiling(I, Fraction(rng.randint(1, 3), 2)),
                                 closure_powers(I)))
            assert validate_graded(family, 8).holds
            weights = tuple(rng.randint(0, 2) for _ in range(nvars))
            if not any(weights):
                weights = (1,) * nvars
            v = MonomialValuation(weights)
            values = {n: v.of_ideal(family.member(n)) for n in range(1, 9)}
            for p in range(1, 8):
                for q in range(1, 9 - p):
                    assert values[p + q] <= values[p] + values[q]
