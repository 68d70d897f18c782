"""Valuations and skew Waldschmidt constants."""

import random
from fractions import Fraction

import pytest

from resurgence import (
    DomainError,
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
from resurgence.families import Environment
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
        value, arg = MonomialValuation((1, 1)).of_ideal_with_argmin(I)
        assert (value, arg) == (2, (2, 0))

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


class TestSkewWaldschmidt:
    def test_symbolic_triangle_lp(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        res = skew_waldschmidt(degree_valuation(3), symbolic(tri))
        assert (res.value, res.certified, res.method) == (Fraction(3, 2), True, "lp")

    def test_powers_closed_form(self):
        m = ideal(2, (1, 0), (0, 1))
        res = skew_waldschmidt(degree_valuation(2), powers(m))
        assert (res.value, res.certified) == (1, True)

    def test_constant_family_vanishes(self):
        I = ideal(2, (1, 0), (0, 1))
        res = skew_waldschmidt(degree_valuation(2), constant(I))
        assert (res.value, res.certified) == (0, True)

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
