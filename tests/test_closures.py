"""Newton polyhedra, integral closures, Rees valuations, symbolic powers."""

import itertools
import random

import pytest

import oracles
from resurgence import (
    CapabilityError,
    DomainError,
    MonomialIdeal,
    bequiv_constant,
    integral_closure,
    minimal_covers,
    newton_polyhedron,
    powers,
    rees_valuations,
    symbolic,
    symbolic_power,
)


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


class TestNewtonPolyhedron:
    def test_plane_example(self):
        poly = newton_polyhedron(ideal(2, (2, 0), (0, 3)))
        assert {(h.normal, h.offset) for h in poly.halfspaces} == {
            ((1, 0), 0), ((0, 1), 0), ((3, 2), 6)}

    def test_principal_one_var(self):
        poly = newton_polyhedron(ideal(1, (1,)))
        assert {(h.normal, h.offset) for h in poly.halfspaces} == {((1,), 1)}

    def test_triangle(self):
        poly = newton_polyhedron(ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1)))
        normals = {(h.normal, h.offset) for h in poly.halfspaces}
        assert ((1, 1, 1), 2) in normals
        assert {((1, 1, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1)} <= normals

    def test_zero_ideal_rejected(self):
        with pytest.raises(DomainError):
            newton_polyhedron(MonomialIdeal.zero(2))

    def test_closure_rows_are_the_positive_offset_facets(self):
        # every Newton facet normal is >= 0; the closure view keeps exactly
        # the positive-offset facets, scaled by its exponent, as its rows
        I = ideal(2, (2, 0), (0, 3))
        poly = newton_polyhedron(I)
        assert all(all(w >= 0 for w in h.normal) for h in poly.halfspaces)
        view = integral_closure(I, 2).view
        assert view.rows == ((3, 2),) and view.rhs == (12,) and view.box == (4, 6)
        kept = sorted((h.normal, h.offset) for h in poly.halfspaces if h.offset > 0)
        assert list(zip(view.rows, (r // 2 for r in view.rhs))) == kept
        assert len(kept) < len(poly.halfspaces)


class TestIntegralClosure:
    def test_plane_example_against_brute_force(self):
        I = ideal(2, (2, 0), (0, 3))
        got = integral_closure(I, 1).generators
        brute = []
        for m in itertools.product(range(4), repeat=2):
            if oracles.closure_member(m, I.generators, 1):
                brute.append(m)
        from resurgence import minimize_monomials
        assert got == minimize_monomials(brute) == ((0, 3), (1, 2), (2, 0))

    def test_integrally_closed_ideal(self):
        m = ideal(2, (1, 0), (0, 1))
        assert integral_closure(m, 1) == m

    def test_contains_the_ideal(self):
        rng = random.Random(21)
        for _ in range(30):
            I = random_ideal(rng, rng.choice((2, 3)))
            if I.is_unit():
                continue
            assert I.is_subset_of(integral_closure(I, 1))

    def test_idempotent_as_predicate(self):
        rng = random.Random(22)
        for _ in range(15):
            I = random_ideal(rng, 2)
            if I.is_unit():
                continue
            once = integral_closure(I, 1)
            twice = integral_closure(MonomialIdeal.from_generators(2, once.generators), 1)
            for m in itertools.product(range(6), repeat=2):
                assert once.contains(m) == twice.contains(m)

    def test_valuation_criterion(self):
        # m in closure(I^n) iff <w, m> >= n * w(I) for every Rees valuation
        rng = random.Random(23)
        for _ in range(25):
            I = random_ideal(rng, rng.choice((2, 3)))
            if not I.is_proper():
                continue
            rv = rees_valuations(I).valuations
            n = rng.randint(1, 3)
            view = integral_closure(I, n)
            for _ in range(20):
                m = tuple(rng.randint(0, 8) for _ in range(I.nvars))
                by_valuations = all(
                    sum(w * e for w, e in zip(weights, m)) >= n * vi
                    for weights, vi in rv
                )
                assert view.contains(m) == by_valuations


class TestReesValuations:
    def test_maximal_ideal(self):
        assert rees_valuations(ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))).valuations == (
            ((1, 1, 1), 1),)

    def test_plane_example(self):
        assert rees_valuations(ideal(2, (2, 0), (0, 3))).valuations == (((3, 2), 6),)

    def test_triangle(self):
        assert rees_valuations(ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))).valuations == (
            ((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1), ((1, 1, 1), 2))

    def test_values_positive_and_primitive(self):
        from math import gcd
        rng = random.Random(24)
        for _ in range(30):
            I = random_ideal(rng, rng.choice((2, 3)))
            if not I.is_proper():
                continue
            for weights, value in rees_valuations(I).valuations:
                assert value > 0
                assert value == min(sum(w * e for w, e in zip(weights, g)) for g in I.generators)
                g = 0
                for w in weights:
                    g = gcd(g, w)
                assert g == 1

    def test_scale_invariance(self):
        # RV(I^t) has the same weight vectors, values scaled by t
        rng = random.Random(25)
        for _ in range(10):
            I = random_ideal(rng, 2, max_gens=3, max_deg=3)
            if not I.is_proper():
                continue
            base = rees_valuations(I).valuations
            for t in (2, 3):
                scaled = rees_valuations(I.power(t)).valuations
                assert scaled == tuple((w, t * v) for w, v in base)

    def test_unit_rejected(self):
        with pytest.raises(DomainError):
            rees_valuations(MonomialIdeal.unit(2))


class TestSymbolicPowers:
    def test_first_power_is_the_ideal(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert symbolic_power(tri, 1) == tri

    def test_covers(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert minimal_covers(tri) == ((1, 1, 0), (1, 0, 1), (0, 1, 1))

    def test_xyz_in_second_symbolic_not_square(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert symbolic_power(tri, 2).contains((1, 1, 1))
        assert not tri.power(2).contains((1, 1, 1))

    def test_principal_prime(self):
        I = ideal(2, (1, 0))
        for n in (1, 2, 5):
            assert symbolic_power(I, n).generators == ((n, 0),)

    def test_membership_matches_brute_covers(self):
        rng = random.Random(26)
        for _ in range(25):
            I = random_ideal(rng, 3, squarefree=True)
            if not I.is_proper():
                continue
            n = rng.randint(1, 4)
            view = symbolic_power(I, n)
            for m in itertools.product(range(n + 2), repeat=3):
                assert view.contains(m) == oracles.symbolic_member(
                    m, I.generators, n, 3)

    def test_chain_powers_closure_symbolic(self):
        rng = random.Random(27)
        for _ in range(20):
            I = random_ideal(rng, 3, squarefree=True)
            if not I.is_proper():
                continue
            for n in range(1, 5):
                plain = I.power(n)
                closed = integral_closure(I, n)
                assert plain.is_subset_of(closed)
                assert MonomialIdeal.from_generators(3, closed.generators).is_subset_of(
                    symbolic_power(I, n))

    def test_each_power_is_one_view_on_its_ideal(self):
        # the symbolic_power op and the symbolic family share it, so its
        # generators are materialized once
        pentagon = ideal(5, *[tuple(int(j in (i, (i + 1) % 5)) for j in range(5)) for i in range(5)])
        third = symbolic_power(pentagon, 3)
        assert symbolic_power(pentagon, 3) is third
        assert symbolic(pentagon).member(3) is third
        assert symbolic_power(pentagon, 2) is not third

    def test_non_squarefree_rejected(self):
        with pytest.raises(CapabilityError):
            symbolic_power(ideal(2, (2, 0), (0, 1)), 2)


class TestEquivalenceConstant:
    def test_powers_are_zero(self):
        _, const = powers(ideal(2, (1, 0), (0, 1))).base_equivalence()
        assert (const.k, const.bound, const.certified) == (0, 0, True)

    def test_normal_ideal_tightens_to_zero(self):
        got = bequiv_constant(ideal(2, (1, 0), (0, 1)))
        assert (got.k, got.bound, got.certified) == (0, 1, False)

    def test_non_normal_stays_at_bound(self):
        got = bequiv_constant(ideal(2, (2, 0), (0, 3)))
        assert (got.k, got.certified) == (1, True)

    def test_cached_on_the_ideal_per_horizon(self):
        I = ideal(2, (2, 0), (0, 3))
        short, full = bequiv_constant(I, 1), bequiv_constant(I, 8)
        assert (short.horizon, full.horizon) == (1, 8)
        assert bequiv_constant(I, 8) is full and bequiv_constant(I) is full

    def test_briancon_skoda_window(self):
        # the certified bound really does contain on the window
        rng = random.Random(28)
        for _ in range(10):
            I = random_ideal(rng, 2, max_gens=3, max_deg=3)
            if not I.is_proper():
                continue
            k = I.nvars - 1
            for i in range(1, 5):
                assert integral_closure(I, i + k).is_subset_of(I.power(i))
