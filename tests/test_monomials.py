"""Monomial ideal arithmetic against small hand values and brute-force scans."""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from resurgence import (CapabilityError, DimensionError, DomainError, MonomialIdeal, format_monomial,
                        minimize_monomials)
from resurgence.closures import integral_closure, symbolic_power
from resurgence.monomials import complete_power_ideal


def ideal(nvars, *gens):
    return MonomialIdeal.from_generators(nvars, gens)


def random_ideal(rng, nvars, max_gens=4, max_deg=4, squarefree=False):
    top = 1 if squarefree else max_deg
    gens = [tuple(rng.randint(0, top) for _ in range(nvars))
            for _ in range(rng.randint(1, max_gens))]
    gens = [g for g in gens if any(g)]
    if not gens:
        gens = [tuple(1 if i == 0 else 0 for i in range(nvars))]
    return MonomialIdeal.from_generators(nvars, gens)


class TestMinimize:
    def test_drops_multiples(self):
        assert ideal(2, (2, 1), (3, 2), (0, 3)).generators == ((0, 3), (2, 1))

    def test_unit(self):
        assert ideal(2, (0, 0)).is_unit()
        assert ideal(2, (0, 0), (1, 2)).generators == ((0, 0),)

    def test_zero(self):
        assert MonomialIdeal.zero(2).is_zero()
        assert MonomialIdeal.from_generators(2, []).is_zero()

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(50):
            gens = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(6)]
            once = minimize_monomials(gens)
            assert minimize_monomials(once) == once

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            MonomialIdeal.from_generators(2, [(1, 2, 3)])

    @pytest.mark.parametrize("gens", [[(0.9, 2)], [(1, Fraction(5, 2))], [(2, 0), (1e-9, 3)]])
    def test_fractional_exponents_are_rejected(self, gens):
        with pytest.raises(DomainError):
            MonomialIdeal.from_generators(2, gens)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), float("-inf"), None, "x"])
    def test_non_numeric_exponents_are_rejected(self, exponent):
        with pytest.raises(DomainError):
            MonomialIdeal.from_generators(2, [(exponent, 1)])
        with pytest.raises(DomainError):
            ideal(2, (1, 0)).contains((exponent, 1))

    def test_negative_exponents_are_rejected(self):
        with pytest.raises(DomainError, match="negative exponent"):
            MonomialIdeal.from_generators(2, [(1, -1)])

    def test_integral_values_are_accepted(self):
        assert ideal(2, (2.0, Fraction(3, 1))).generators == ((2, 3),)


class TestArithmetic:
    def test_square_of_maximal(self):
        m = ideal(2, (1, 0), (0, 1))
        assert m.multiply(m).generators == ((0, 2), (1, 1), (2, 0))

    def test_unit_is_identity(self):
        I = ideal(2, (2, 0), (0, 3))
        assert I.multiply(MonomialIdeal.unit(2)) == I

    def test_zero_absorbs(self):
        I = ideal(2, (2, 0), (0, 3))
        assert I.multiply(MonomialIdeal.zero(2)).is_zero()

    def test_binomial_cube(self):
        m = ideal(2, (1, 0), (0, 1))
        assert m.power(3).generators == ((0, 3), (1, 2), (2, 1), (3, 0))

    def test_power_zero_is_unit(self):
        assert ideal(2, (2, 0), (0, 3)).power(0).is_unit()

    def test_power_against_brute_force(self):
        # (x^2, y^3)^2 via raw pairwise products
        I = ideal(2, (2, 0), (0, 3))
        brute = minimize_monomials(oracles.power_set_of_ideal(I.generators, 2))
        assert I.power(2).generators == brute == ((0, 6), (2, 3), (4, 0))

    def test_power_additivity(self):
        rng = random.Random(2)
        for _ in range(25):
            I = random_ideal(rng, 2)
            p, q = rng.randint(0, 3), rng.randint(1, 3)
            assert I.power(p).multiply(I.power(q)) == I.power(p + q)

    def test_multiply_distributes_over_sum(self):
        rng = random.Random(3)
        for _ in range(25):
            I, J, K = (random_ideal(rng, 3, max_gens=3) for _ in range(3))
            assert I.multiply(J.add(K)) == I.multiply(J).add(I.multiply(K))


class TestIntersect:
    def test_coprime(self):
        assert ideal(2, (1, 0)).intersect(ideal(2, (0, 1))).generators == ((1, 1),)

    def test_pairwise_lcm_case(self):
        left = ideal(2, (2, 0), (0, 1))
        right = ideal(2, (1, 0), (0, 2))
        brute = minimize_monomials(
            tuple(max(x, y) for x, y in zip(a, b))
            for a in left.generators for b in right.generators
        )
        assert left.intersect(right).generators == brute == ((0, 2), (1, 1), (2, 0))

    def test_unit_identity(self):
        I = ideal(2, (2, 1), (1, 3))
        assert I.intersect(MonomialIdeal.unit(2)) == I


class TestMembership:
    def test_divisibility(self):
        assert ideal(2, (2, 1)).contains((3, 1))
        assert not ideal(2, (2, 1)).contains((1, 5))

    def test_closure_view_facet(self):
        # 3a + 2b >= 6 is the only non-coordinate facet of NP((x^2, y^3))
        I = ideal(2, (2, 0), (0, 3))
        view = integral_closure(I, 1)
        assert not view.contains((1, 1))
        assert view.contains((1, 2))
        assert oracles.closure_member((1, 2), I.generators, 1)
        assert not oracles.closure_member((1, 1), I.generators, 1)

    def test_symbolic_view_cover_inequalities(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        view = symbolic_power(tri, 2)
        assert not view.contains((1, 2, 0))  # the {x,z} cover sums to 1
        assert view.contains((1, 1, 1))

    @pytest.mark.parametrize("m", [(1.7, 0), (1, 0.5), (Fraction(3, 2), 0)])
    def test_fractional_monomial_is_rejected(self, m):
        with pytest.raises(DomainError):
            ideal(2, (1, 0)).contains(m)

    def test_against_brute_scan(self):
        rng = random.Random(4)
        for _ in range(40):
            I = random_ideal(rng, 3)
            for m in itertools.product(range(3), repeat=3):
                assert I.contains(m) == oracles.in_monomial_set(m, I.generators)


class TestContainment:
    def test_trivial(self):
        assert ideal(2, (2, 0), (0, 2)).is_subset_of(ideal(2, (1, 0), (0, 1)))
        assert not ideal(2, (1, 0), (0, 1)).is_subset_of(ideal(2, (2, 0), (0, 2)))

    def test_not_filtration_witness(self):
        # x^5 y^2 lies in b1*a2 but not in b1*b2
        b1 = ideal(2, (3, 0), (0, 3))
        b2 = ideal(2, (4, 0), (3, 1), (1, 3), (0, 4))
        a2 = ideal(2, (1, 0), (0, 1)).power(4)
        assert b1.multiply(a2).contains((5, 2))
        assert not b1.multiply(b2).contains((5, 2))
        assert b1.multiply(b2).generators == (
            (0, 7), (1, 6), (3, 4), (4, 3), (6, 1), (7, 0))
        assert not b1.multiply(a2).is_subset_of(b1.multiply(b2))

    def test_partial_order(self):
        rng = random.Random(5)
        ideals = [random_ideal(rng, 2) for _ in range(12)]
        for I in ideals:
            assert I.is_subset_of(I)
        for I, J in itertools.permutations(ideals, 2):
            if I.is_subset_of(J) and J.is_subset_of(I):
                assert I == J
        for I, J, K in itertools.permutations(ideals, 3):
            if I.is_subset_of(J) and J.is_subset_of(K):
                assert I.is_subset_of(K)

    def test_zero_left(self):
        assert MonomialIdeal.zero(2).is_subset_of(ideal(2, (5, 5)))


class TestFormatting:
    def test_format_monomial(self):
        assert format_monomial((2, 1, 0)) == "x^2*y"
        assert format_monomial((0, 0)) == "1"
        assert format_monomial((1, 2), ["a", "b"]) == "a*b^2"
        assert format_monomial((0,) * 10 + (3,)) == "x10^3"  # past the named variables

    def test_repr(self):
        assert repr(ideal(2, (2, 0), (0, 3))) == "MonomialIdeal(y^3, x^2)"
        assert repr(MonomialIdeal.zero(2)) == "MonomialIdeal(0)"
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert repr(symbolic_power(tri, 2)) == "MonomialIdeal(view=symbolic)"


class TestViews:
    def test_closure_view_materializes(self):
        I = ideal(2, (2, 0), (0, 3))
        assert integral_closure(I, 1).generators == ((0, 3), (1, 2), (2, 0))

    def test_symbolic_left_of_containment(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert symbolic_power(tri, 1).is_subset_of(tri)

    def test_equal_regions_compare_without_materializing(self):
        # m^500 in 3 variables has 125,751 generators, past MATERIALIZE_CAP
        big, twin = complete_power_ideal(3, 500), complete_power_ideal(3, 500)
        assert big == big and big == twin
        tri = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        assert symbolic_power(ideal(3, *tri), 9) == symbolic_power(ideal(3, *reversed(tri)), 9)
        assert not big.is_explicit and not twin.is_explicit
        with pytest.raises(CapabilityError):
            hash(big)  # hashing a view materializes it

    def test_other_pairs_compare_generators(self):
        small = complete_power_ideal(3, 2)
        assert small == ideal(3, *oracles.complete_power_generators(3, 2))
        assert small != complete_power_ideal(3, 3)
        # a closure and a symbolic power that are the same ideal
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert integral_closure(tri, 1) == symbolic_power(tri, 1) == tri

    def test_staircase_index_matches_scan(self):
        rng = random.Random(6)
        gens = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(12)]
        I = MonomialIdeal.from_generators(2, [g for g in gens if any(g)])
        for m in itertools.product(range(11), repeat=2):
            assert I.contains(m) == oracles.in_monomial_set(m, I.generators)
