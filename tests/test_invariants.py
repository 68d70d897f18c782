"""Escape sequences, resurgence windows, and the certified theorem routes."""

import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from resurgence import (
    NEG_INFINITY,
    POS_INFINITY,
    CapabilityError,
    DimensionError,
    DomainError,
    HypothesisError,
    MonomialIdeal,
    MonomialValuation,
    beta,
    beta_v,
    ceil_log2p1,
    ceil_mul,
    ceil_sqrt,
    ceiling,
    closure_powers,
    constant,
    degree_valuation,
    dual_sequences,
    finite,
    lambda_,
    lambda_v,
    linearly_finer_check,
    noncontainment_table,
    power_pattern,
    powers,
    rho_exact_certified,
    rho_hat_beta_limit,
    rho_hat_rees,
    rho_lim_estimate,
    rho_n,
    rho_window,
    rees_valuations,
    skew_waldschmidt,
    symbolic,
    table,
    veronese_scaling_check,
)
import resurgence.families as fam
from resurgence.closures import minimal_covers
from resurgence.jobs import parse_config
from resurgence.invariants import (REES_ROUTES, LinearlyFinerResult, SequenceValue, _first_index, _lambda_search,
                                   _search_witness)
from resurgence.rationals import ceil_frac


ROOT = Path(__file__).resolve().parent.parent


def ideal(nvars, *gens):
    return MonomialIdeal.from_generators(nvars, gens)


def maximal(nvars):
    return MonomialIdeal.from_generators(
        nvars, [[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)])


def sqrt_pair():
    I = maximal(2)
    return powers(I), power_pattern(I, ceil_sqrt())


def shifted_powers(I):
    """a_n = I^(n+1): no standard Veronese index (a_(2k) != a_k^2), so its
    skew Waldschmidt constants are window bounds, never exact."""
    return fam.from_function(I.nvars, lambda n: I.power(n + 1))


def strict_veronese_pair():
    """Powers of I against the period-2 family (even: I^i, odd: (mI) I^i)."""
    I = maximal(2)
    env = fam.Environment({"I": I, "n": I.power(2)})
    b = fam.periodic(2, 2, {
        0: fam.Power(fam.Base("I"), fam.affine(1)),
        1: fam.Product((fam.Base("n"), fam.Power(fam.Base("I"), fam.affine(1)))),
    }, env, name="b")
    return powers(I), b


def staircase_filtration():
    """b_n = (x^m) + y^2 (x,y)^(m-1), m = ceil(n/2): the filtration whose
    resurgence (= 1) differs from its asymptotic resurgence (= 1/2)."""
    nv = 2
    env = fam.Environment({
        "x": ideal(nv, (1, 0)),
        "y2": ideal(nv, (0, 2)),
        "m": maximal(nv),
    })
    expr = fam.Sum((
        fam.Power(fam.Base("x"), ceil_mul(Fraction(1, 2))),
        fam.Product((fam.Base("y2"), fam.Power(fam.Base("m"), ceil_mul(Fraction(1, 2), -1)))),
    ))
    return powers(maximal(nv)), fam.expression(nv, expr, env, name="b")


class TestBeta:
    def test_closure_left_against_plain_powers_compares_ideals(self):
        # closure(I) = (x^2, xy, y^2) is not inside I = (x^2, y^2), so beta_1 = 1;
        # comparing exponents alone (1 < d first at d = 2) would give 2
        I = ideal(2, (2, 0), (0, 2))
        assert beta(closure_powers(I), powers(I), 1, 10) == SequenceValue("finite", 1)

    def test_sqrt_family(self):
        a, b = sqrt_pair()
        for s in range(1, 11):
            assert beta(a, b, s, 200).value == s * s + 1

    def test_same_principal_ideal(self):
        a = powers(ideal(1, (1,)))
        for s in range(1, 8):
            assert beta(a, a, s, 50).value == s + 1

    def test_strict_veronese_noncontainment_set(self):
        a, b = strict_veronese_pair()
        got = [(s, sv.value) for s, sv in noncontainment_table(a, b, 12, 40) if sv.is_finite]
        expected = [(s, s) if s % 2 else (s, s - 1) for s in range(1, 13)]
        assert got == expected

    def test_empty_for_constant_tail(self):
        I = maximal(2)
        assert beta(powers(I), constant(I), 3, 30).kind == "empty"
        # a zero member a_s lies in every b_d
        assert beta(powers(MonomialIdeal.zero(2)), powers(I), 3, 30).kind == "empty"

    def test_empty_for_constant_veronese_tail(self):
        I = maximal(2)
        assert beta(powers(I), fam.veronese(constant(I), 2), 1, 30).kind == "empty"

    def test_exceeds_cutoff(self):
        a, b = sqrt_pair()
        sv = beta(a, b, 10, 50)
        assert (sv.kind, sv.bound) == ("exceeds", 50)

    def test_fast_path_matches_ideals(self):
        # the closed-form integer route agrees with honest containment checks
        I = ideal(2, (2, 0), (1, 1), (0, 3))
        a, b = powers(I), ceiling(I, Fraction(3, 2))
        for s in range(1, 7):
            fast = beta(a, b, s, 30)
            direct = next(d for d in range(1, 31)
                          if not a.member(s).is_subset_of(b.member(d)))
            assert fast.value == direct


class TestFirstIndex:
    """The galloping search against a linear scan.  A closed set of indices is
    a threshold set, so every one inside, at the edges of and beyond each
    window is tried, plus a seeded far threshold."""

    @staticmethod
    def counted(predicate):
        probes = []

        def probe(d):
            probes.append(d)
            return predicate(d)
        return probe, probes

    def test_matches_linear_scan_and_probes_each_index_once(self):
        rng = random.Random(41)
        filtration = SimpleNamespace(filtration=True)
        for cutoff in range(1, 65):
            window = range(1, cutoff + 1)
            far = rng.randint(cutoff + 3, 4 * cutoff + 8)
            for t in list(range(0, cutoff + 3)) + [far]:
                # upward closed, as beta's escape set: least member
                holds, probes = self.counted(lambda d: d >= t)
                want = next((d for d in window if d >= t), None)
                assert _first_index(holds, cutoff) == want, (cutoff, t)
                assert len(probes) == len(set(probes)) and set(probes) <= set(window)
                # downward closed, as lambda's escape set: greatest member
                fails, probes = self.counted(lambda d: d < t)
                last = max((d for d in window if d < t), default=None)
                got = _lambda_search(fails, filtration, cutoff)
                if last is None:
                    assert got.kind == "empty", (cutoff, t)
                elif last == cutoff:
                    assert (got.kind, got.bound) == ("exceeds", cutoff), (cutoff, t)
                else:
                    assert (got.kind, got.value) == ("finite", last), (cutoff, t)
                assert len(probes) == len(set(probes)) and set(probes) <= set(window)


class TestLambda:
    def test_constant_right_family_empty(self):
        I = maximal(2)
        assert lambda_(powers(I), constant(I), 4, 50).kind == "empty"

    def test_same_principal_ideal(self):
        a = powers(ideal(1, (1,)))
        assert lambda_(a, a, 1, 50).kind == "empty"
        for n in range(2, 8):
            assert lambda_(a, a, n, 50).value == n - 1

    def test_exceeds(self):
        a, b = sqrt_pair()
        # a_d escapes b_n for every d with d < ceil(sqrt(d))... never; flip roles:
        sv = lambda_(b, a, 2, 60)
        # sqrt-family members escape I^2 as long as ceil(sqrt(d)) < 2, i.e. d = 1
        assert sv.value == 1


class TestValuationSequences:
    def test_log_family_formulas(self):
        a = power_pattern(ideal(1, (1,)), ceil_log2p1())
        v = MonomialValuation((1,))
        for n in (1, 2, 3, 7, 8, 100, 1023, 1024):
            t = (n).bit_length()
            expected_beta = 1 << t
            bv = beta_v(v, a, a, n, 4096)
            assert bv.value == expected_beta
            lv = lambda_v(v, a, a, n, 4096)
            expected_lambda = (1 << (t - 1)) - 1
            if expected_lambda == 0:
                assert lv.kind == "empty"
            else:
                assert lv.value == expected_lambda

    def test_a_zero_member_is_empty_for_beta_and_refused_by_the_valuation_twins(self):
        # only beta may skip a zero a_s: it lies in every b_d, but has no value
        m = maximal(2)
        a = fam.from_function(2, lambda n: MonomialIdeal.zero(2) if n == 2 else m.power(n))
        b, v = powers(m), degree_valuation(2)
        assert beta(a, b, 2, 10) == SequenceValue("empty")
        for twin in (beta_v, lambda_v):
            with pytest.raises(DomainError, match="^the zero ideal has no valuation value$"):
                twin(v, a, b, 2, 10)

    def test_ratio_subsequences(self):
        a = power_pattern(ideal(1, (1,)), ceil_log2p1())
        v = MonomialValuation((1,))
        s = 10
        low, high = (1 << s) - 1, 1 << s
        assert abs(Fraction(beta_v(v, a, a, low, 5000).value, low) - 1) < Fraction(1, 100)
        assert Fraction(beta_v(v, a, a, high, 5000).value, high) == 2

    def test_powers_principal(self):
        a = powers(ideal(1, (1,)))
        v = MonomialValuation((1,))
        for n in range(1, 9):
            assert beta_v(v, a, a, n, 100).value == n + 1

    def test_beta_into_powers_of_m_is_beta_v_of_the_degree(self):
        # a_s is not in m^d iff deg(a_s) < d, so the containment route and the
        # valuation route must give the same escape index for every family.
        # Both read `weighted_min`; test_containment_kernel checks beta against
        # a row scan of the materialized generators
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(2, 5)
            gens = [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            # squarefree generators on nonempty supports, for the symbolic family
            edges = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
            I = ideal(n, *(g if any(g) else [1] * n for g in gens))
            E = ideal(n, *([int(i in e) for i in range(n)] for e in edges))
            alpha = Fraction(rng.randint(1, 7), rng.randint(1, 4))
            b = powers(maximal(n))
            for a in (powers(I), symbolic(E), closure_powers(I), ceiling(I, alpha)):
                for s in range(1, 4):
                    assert beta(a, b, s, 64) == beta_v(degree_valuation(n), a, b, s, 64)

    def test_a_valuation_of_another_dimension_is_refused(self):
        # the closed-form value rule of powers(m) reads `weighted_min`, which
        # checks the length as the general path `MonomialValuation.of_ideal` does
        a = powers(maximal(2))
        v = MonomialValuation((1,))
        with pytest.raises(DimensionError, match="dimensions differ"):
            beta_v(v, a, a, 1, 10)
        with pytest.raises(DimensionError, match="dimensions differ"):
            lambda_v(v, a, a, 1, 10)

    def test_beta_v_subadditive(self):
        # beta^v against powers of a fixed ideal is sub-additive
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        a = symbolic(tri)
        b = powers(maximal(3))
        v = degree_valuation(3)
        vals = {n: beta_v(v, a, b, n, 200).value for n in range(1, 17)}
        for p in range(1, 16):
            for q in range(1, 17 - p):
                assert vals[p + q] <= vals[p] + vals[q]

    def test_lambda_v_superadditive(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        a = symbolic(tri)
        b = powers(maximal(3))
        v = degree_valuation(3)
        vals = {}
        for n in range(2, 17):
            sv = lambda_v(v, a, b, n, 400)
            vals[n] = sv.value if sv.is_finite else 0
        for p in range(2, 15):
            for q in range(2, 17 - p):
                assert vals[p + q] >= vals[p] + vals[q]


class TestDualSequences:
    def test_direct_formula(self):
        alpha = {d: d for d in range(1, 31)}
        beta_seq = {n: 2 * n for n in range(1, 10)}
        left, right = dual_sequences(alpha, beta_seq, alpha_nondecreasing=True)
        for n in range(1, 10):
            assert right[n] == ("value", 2 * n)
            assert left[n] == ("value", 2 * n)

    def test_lambda_as_right_dual(self):
        # lambda^v_n(a, powers(b)) equals the right dual of v(a_d) against n*v(b)-1
        a = powers(ideal(2, (1, 0), (0, 1)))
        b = powers(ideal(2, (2, 0), (0, 2)))
        v = MonomialValuation((1, 2))
        alpha = {d: v.of_ideal(a.member(d)) for d in range(1, 61)}
        delta = {n: n * v.of_ideal(b.member(1)) - 1 for n in range(1, 16)}
        _, right = dual_sequences(alpha, delta, alpha_nondecreasing=True)
        for n in range(1, 16):
            lv = lambda_v(v, a, b, n, 60)
            if right[n][0] == "value":
                assert lv.value == right[n][1]

    def test_undetermined_positions(self):
        alpha = {d: d for d in range(1, 5)}
        beta_seq = {1: 10}
        left, right = dual_sequences(alpha, beta_seq, alpha_nondecreasing=True)
        assert left[1] == ("undetermined",)
        assert right[1] == ("undetermined",)  # the last window point qualifies


class TestRhoWindow:
    def test_ceiling_pair_exact(self):
        I = maximal(2)
        rep = rho_window(ceiling(I, 2), ceiling(I, 3), 60, 60)
        assert rep.value == finite(Fraction(3, 2))
        assert rep.certified
        assert rep.details["window_supremum"] < Fraction(3, 2)

    def test_staircase_filtration_value_one(self):
        a, b = staircase_filtration()
        rep = rho_window(a, b, 20, 60)
        assert rep.value == finite(1)
        s, r, witness = rep.witnesses[0]
        assert (s, r) == (1, 1)
        assert a.member(s).contains(witness)
        assert not b.member(r).contains(witness)

    def test_modified_constant_family(self):
        # a = powers(I), b = (I, I^2, I, I, ...): the sup is 1/2
        I = maximal(2)
        b = table(2, [I, I.power(2)], tail=fam.Base("I"), env=fam.Environment({"I": I}))
        rep = rho_window(powers(I), b, 20, 20)
        assert rep.value == finite(Fraction(1, 2))
        assert rep.witnesses[0][:2] == (1, 2)

    def test_empty_window_rejected(self):
        m = maximal(2)
        with pytest.raises(DomainError):
            rho_window(powers(m), powers(m.power(2)), 0, 5)

    def test_constant_family_is_neg_infinity(self):
        I = maximal(2)
        rep = rho_window(powers(I), constant(I), 15, 15)
        assert rep.value == NEG_INFINITY
        assert rep.certified

    def test_neg_infinity_uncertified_without_filtrations(self):
        # m^s lies in every member of constant(m), but a custom family is not
        # known to be a filtration, so -inf stays uncertified
        m = maximal(2)
        rep = rho_window(fam.from_function(2, m.power), constant(m), 4, 4)
        assert (rep.value, rep.certified) == (NEG_INFINITY, False)
        assert rep.notes == ("no noncontainment found on the window; -inf not certified "
                             "(families not known filtrations)",)

    def test_witnesses_recheckable(self):
        a, b = strict_veronese_pair()
        rep = rho_window(a, b, 10, 10)
        s, r, witness = rep.witnesses[0]
        assert a.member(s).contains(witness)
        assert not b.member(r).contains(witness)


class TestRhoN:
    def test_sqrt_family(self):
        a, b = sqrt_pair()
        for n in range(1, 11):
            rep = rho_n(a, b, n, n + 10, 500)
            assert rep.value == finite(Fraction(n, n * n + 1))

    def test_monotone_nonincreasing_in_n(self):
        a, b = strict_veronese_pair()
        values = [rho_n(a, b, n, 20, 40).value for n in range(1, 10)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_neg_infinity_tail(self):
        I = maximal(2)
        b = table(2, [I, I.power(2)], tail=fam.Base("I"), env=fam.Environment({"I": I}))
        assert rho_n(powers(I), b, 2, 20, 30).value == NEG_INFINITY


class TestRhoLim:
    def test_sqrt_trend_to_zero(self):
        a, b = sqrt_pair()
        rep = rho_lim_estimate(a, b, [5, 10, 20], cutoff=1200, tail=10)
        values = dict(rep.details["grid_values"])
        assert values[20] == finite(Fraction(20, 401))
        assert not rep.certified

    def test_certified_on_base_equivalent(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        rep = rho_lim_estimate(symbolic(tri), powers(maximal(3)), [4, 8], cutoff=60)
        assert rep.certified
        assert rep.value == finite(Fraction(2, 3))

    def test_same_family_trend_to_one(self):
        a = powers(ideal(1, (1,)))
        rep = rho_lim_estimate(a, a, [3, 6, 9], cutoff=40, tail=6)
        assert rep.certified
        assert rep.value == finite(1)


class TestRhoHatRees:
    def test_symbolic_vs_powers(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        rep = rho_hat_rees(symbolic(tri), powers(maximal(3)))
        assert rep.value == finite(Fraction(2, 3))
        assert rep.certified
        assert rep.details["maximizer"] == (1, 1, 1)
        assert "equals rho_hat(a, b)" in rep.claims

    def test_ceiling_pair(self):
        I = maximal(2)
        rep = rho_hat_rees(ceiling(I, 2), ceiling(I, 3))
        assert rep.value == finite(Fraction(3, 2))

    def test_closure_vs_powers_ratio_one(self):
        I = ideal(2, (2, 0), (0, 3))
        rep = rho_hat_rees(closure_powers(I), powers(I))
        assert rep.value == finite(1)
        assert rep.details["maximizer"] == (3, 2)

    def test_vanishing_waldschmidt_gives_infinity(self):
        I = maximal(2)
        rep = rho_hat_rees(power_pattern(I, ceil_sqrt()), powers(I))
        assert rep.value == POS_INFINITY

    def test_no_veronese_raises_capability(self):
        a, b = staircase_filtration()
        with pytest.raises(CapabilityError):
            rho_hat_rees(a, b)

    def test_rv_b1_comparison_data(self):
        a, b = strict_veronese_pair()
        rep = rho_hat_rees(a, b)
        assert rep.value == finite(1)
        assert rep.details["rv_b1_max"] == finite(1)


def _route(b):
    return next(name for name, scope in REES_ROUTES if scope(b, 6, 8, ()) is not None)


class TestReesRoutes:
    def test_routes_in_order_each_answering_its_pair(self):
        # powers(I) also has the Veronese index 1, so only the order makes it base-equivalent
        I = ideal(2, (2, 0), (0, 3))
        a, periodic = strict_veronese_pair()
        assert [name for name, _ in REES_ROUTES] == ["base-equivalent", "standard-veronese"]
        assert _route(powers(I)) == "base-equivalent"
        assert _route(periodic) == "standard-veronese"
        assert rho_hat_rees(a, powers(I)).hypotheses == ("structural: b is base-equivalent with shift 0 (bound 0)",)
        assert rho_hat_rees(a, periodic).hypotheses[0].property == "standard_veronese"

    def test_each_route_gives_a_positive_rho_hat(self):
        # w(A) > 0 and w^(a) >= 0 on every route, so rho_hat is never -inf or 0
        rng = random.Random(2026)
        for _ in range(8):
            I, J = (ideal(2, (rng.randint(1, 3), 0), (rng.randint(0, 2), rng.randint(1, 2)), (0, rng.randint(1, 3)))
                    for _ in range(2))
            alpha = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            for b, route in ((powers(I), "base-equivalent"), (closure_powers(I), "base-equivalent"),
                             (ceiling(I, alpha), "standard-veronese"), (fam.veronese(powers(I), 2), "standard-veronese")):
                assert _route(b) == route, (b, I)
                assert rho_hat_rees(powers(J), b, horizon=4).value > finite(0), (b, I, J)


class TestRhoHatBetaLimit:
    def test_first_rees_valuation_without_exact_left_constant(self):
        # the left family has no exact skew Waldschmidt constant, so v0 is the
        # first Rees valuation of b_1 = I and no valuation rows are reported
        I = ideal(2, (3, 0), (1, 1), (0, 3))
        rep = rho_hat_beta_limit(shifted_powers(I), powers(I), 4, 10)
        assert rep.details["v0"] == rees_valuations(I).weights()[0] == (1, 2)
        assert rep.details["valuations"] == ()
        assert any(note.startswith("v0 defaulted to the first Rees valuation") for note in rep.notes)
        assert rep.value == finite(Fraction(4, 6))  # a_4 = I^5 escapes first from I^6

    def test_triangle_convergence(self):
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        rep = rho_hat_beta_limit(symbolic(tri), powers(maximal(3)), 60, 200)
        assert abs(rep.value.value - Fraction(2, 3)) < Fraction(5, 100)
        exact = rho_hat_rees(symbolic(tri), powers(maximal(3))).value
        assert abs(rep.value.value - exact.value) < Fraction(5, 100)

    def test_staircase_estimate(self):
        a, b = staircase_filtration()
        rep = rho_hat_beta_limit(a, b, 200, 500)
        assert abs(rep.value.value - Fraction(1, 2)) < Fraction(5, 100)
        rows = dict(rep.details["beta"])
        assert abs(Fraction(rows[200].value, 200) - 2) < Fraction(5, 100)

    def test_same_principal_family(self):
        a = powers(ideal(1, (1,)))
        rep = rho_hat_beta_limit(a, a, 40, 80)
        assert rep.value == finite(Fraction(40, 41))
        assert not rep.certified


class TestRhoExact:
    def test_infinite_rho_hat_is_returned_at_once(self):
        # ceil(sqrt(n)) grows sublinearly: w^(a) = 0, so rho_hat = +inf
        b, a = sqrt_pair()
        rep = rho_exact_certified(a, b)
        assert rep.value == POS_INFINITY and rep.certified
        assert rep.claims == ("rho >= rho_hat = +inf",)
        assert rep.witnesses == () and "region" not in rep.details

    def test_closure_right_family_certified(self):
        # rho(a, closure(b)) equals rho_hat for base-equivalent b
        I = ideal(2, (2, 0), (0, 3))
        rep = rho_exact_certified(powers(maximal(2)), closure_powers(I))
        assert rep.value == finite(3)
        assert rep.certified

    def test_normal_ideal_equality(self):
        I = maximal(2)
        rep = rho_exact_certified(closure_powers(I), powers(I))
        assert rep.value == finite(1)
        assert rep.certified

    def test_budget_annotation_when_no_witness(self):
        I = ideal(2, (2, 0), (0, 3))
        rep = rho_exact_certified(closure_powers(I), powers(I), search_budget=24)
        assert rep.value == finite(1)
        assert not rep.certified
        assert any("search budget" in note for note in rep.notes)

    def test_witness_region_search(self):
        # a = powers((x y^2)), b = powers((x^2, y^3)): rho_hat = 6/7, but x y^2
        # lies in the closure of b_1 and not in b_1, so rho = 1 > rho_hat and
        # the finite region N = 6 certifies it
        J = ideal(2, (1, 2))
        I = ideal(2, (2, 0), (0, 3))
        rep = rho_exact_certified(powers(J), powers(I))
        assert rep.details["rho_hat"] == finite(Fraction(6, 7))
        assert rep.certified
        assert rep.value == finite(1)
        s, r, witness = rep.witnesses[0]
        assert (s, r) == (1, 1)
        assert powers(J).member(s).contains(witness)
        assert not powers(I).member(r).contains(witness)
        assert rep.details["region"]["N"] == 6

    def test_region_scan_with_non_filtration_left_family(self):
        # a = m, m^2, m^3, m^4, m, m^6, m^7, ... is no filtration (a_5 = m), but
        # a_(2n) = (m^2)^n gives w^(a) = w(m); against b = powers((x^2, y^3))
        # rho_hat = 3 and the row r = 1 escapes at s = 1, 2, 3 and 5, not at 4
        m = maximal(2)
        a = table(2, [m, m.power(2), m.power(3), m.power(4), m],
                  tail=fam.Power(fam.Base("m"), fam.affine(1)), env=fam.Environment({"m": m}))
        b = powers(ideal(2, (2, 0), (0, 3)))
        assert not a.filtration
        rep = rho_exact_certified(a, b)
        rho_hat, k = rep.details["rho_hat"].value, rep.details["gap"].k
        assert (rho_hat, k) == (3, 1)
        region = [(s, r) for r in range(1, ceil_frac(rep.details["region"]["N"]))
                  for s in range(1, ceil_frac((r + k) * rho_hat))]
        escapes = [(Fraction(s, r), s, r) for s, r in region
                   if not a.member(s).is_subset_of(b.member(r))]
        best = max(escapes, key=lambda e: e[0])
        assert rep.certified
        assert rep.value == finite(best[0]) == finite(5)
        s, r, witness = rep.witnesses[0]
        assert (s, r) == best[1:]
        assert a.member(s).contains(witness) and not b.member(r).contains(witness)

    @pytest.mark.parametrize("gap", ["x", "-2", "", "1.5"])
    def test_asserted_closure_gap_must_be_a_nonnegative_integer(self, gap):
        # b = I^n spelled as an expression has no closure-gap certificate of
        # its own, so the asserted gap is the one used
        m, I = maximal(2), ideal(2, (2, 0), (0, 3))
        env = fam.Environment({"m": m, "I": I})
        a = fam.expression(2, fam.Power(fam.Base("m"), fam.affine(3)), env)
        b = fam.expression(2, fam.Power(fam.Base("I"), fam.affine(1)), env)
        asserted = ("waldschmidt_equals_v_b1", "closure_gap:1")
        assert rho_exact_certified(a, b, assertions=asserted).details["gap"].k == 1
        with pytest.raises(DomainError, match="gap >= 0"):
            rho_exact_certified(a, b, assertions=(asserted[0], f"closure_gap:{gap}"))

    def test_a_family_without_a_closure_gap_certificate_is_refused(self):
        # neither integrally closed nor I^n by its power fact, and no gap asserted
        I = ideal(2, (2, 0), (0, 3))
        expr_powers = fam.expression(2, fam.Power(fam.Base("I"), fam.affine(1)), fam.Environment({"I": I}))
        for b in (expr_powers, power_pattern(I, ceil_mul(Fraction(3, 2)))):
            with pytest.raises(HypothesisError) as raised:
                rho_exact_certified(powers(I), b, assertions=("waldschmidt_equals_v_b1",))
            assert str(raised.value) == ("no closure-gap certificate for this family kind; "
                                         "assert 'closure_gap:<k>' if known")

    def test_an_asserted_closure_gap_is_labelled_user_asserted(self):
        # the asserted gap used to read "window-tightened, horizon 8", and a
        # gap of 0 claimed a window certificate that nothing had checked
        m, I = maximal(2), ideal(2, (2, 0), (0, 3))
        env = fam.Environment({"m": m, "I": I})
        a = fam.expression(2, fam.Power(fam.Base("m"), fam.affine(3)), env)
        b = fam.expression(2, fam.Power(fam.Base("I"), fam.affine(1)), env)
        one = rho_exact_certified(a, b, assertions=("waldschmidt_equals_v_b1", "closure_gap:1"))
        zero = rho_exact_certified(a, b, assertions=("waldschmidt_equals_v_b1", "closure_gap:0"))
        assert one.hypotheses[1] == "closure gap k = 1 (user-asserted)"
        assert zero.hypotheses[1] == "closure gap k = 0 (user-asserted)"
        assert zero.claims == ("certified-given-assertions",
                               "closure gap 0 is user-asserted: equality certified-given-assertions")
        assert (zero.value, zero.certified) == (finite(1), True)

    def test_witness_search_of_a_power_pair_builds_no_member(self, monkeypatch):
        # a_s lies in b_r iff ceil(3s/2) >= r, which the exponents decide alone;
        # the first escape with s/r > 1/2 in increasing s + r is (4, 7)
        I = ideal(2, (2, 0), (1, 1), (0, 3))
        a, b = power_pattern(I, ceil_mul(Fraction(3, 2))), powers(I)
        monkeypatch.setattr(fam.GradedFamily, "member", lambda self, n: pytest.fail("a member was built"))
        assert _search_witness(a, b, Fraction(1, 2), 24) == (4, 7)

    def test_a_window_that_checks_no_index_is_refused(self):
        # at horizon 0 the closure-gap tightening checked no index and drove
        # the gap to 0, certifying 4/3; and the period-3 family b of
        # jobs/periodic.json passed standard_veronese(k=1), which fails at 8
        I = ideal(3, (4, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 1))
        J = ideal(3, (3, 0, 0), (0, 3, 0), (0, 0, 3), (3, 3, 1), (1, 1, 1))
        for horizon in (1, 4):
            rep = rho_exact_certified(powers(J), powers(I), search_budget=24, horizon=horizon)
            assert rep.value == finite(2) and rep.certified
        b = parse_config((ROOT / "jobs" / "periodic.json").read_text()).families["b"]
        assert not fam.is_standard_veronese(b, 1, 8).holds
        with pytest.raises(DomainError, match="horizon >= 1"):
            rho_exact_certified(powers(J), powers(I), search_budget=24, horizon=0)
        with pytest.raises(DomainError, match="horizon >= 1"):
            fam.is_standard_veronese(b, 1, 0)
        # a structural report checks no window and stays as it was
        assert fam.validate_graded(powers(I), 0).certificate == "structural"

    def test_hypothesis_i_window_needs_an_index(self):
        # b = symbolic(m) is not base-equivalent, so hypothesis (i) is probed
        # on the window 1..horizon, which is empty at horizon 0
        m = maximal(2)
        with pytest.raises(DomainError, match="horizon >= 1, not 0"):
            rho_exact_certified(powers(m), symbolic(m), horizon=0)
        with pytest.raises(HypothesisError, match="cannot certify"):
            rho_exact_certified(powers(m), symbolic(m), horizon=1)

    def test_value_at_rho_hat_without_strict_witness(self):
        # a = powers(m), b = powers((x^2, y^3)): every escape has s/r <= 3 and
        # the ratio 3 is attained, but no pair exceeds rho_hat = 3
        I = ideal(2, (2, 0), (0, 3))
        rep = rho_exact_certified(powers(maximal(2)), powers(I))
        assert rep.value == finite(3)
        assert not rep.certified

    def test_staircase_hypothesis_failure_reported(self):
        a, b = staircase_filtration()
        with pytest.raises(HypothesisError):
            rho_exact_certified(a, b)

    def test_rationality_structural(self):
        I = ideal(2, (2, 0), (0, 3))
        rep = rho_exact_certified(powers(maximal(2)), powers(I))
        assert rep.value.is_finite and isinstance(rep.value.value, Fraction)


class TestVeroneseScaling:
    def test_exact_comparison_skipped_without_exact_left_constant(self):
        I = ideal(2, (3, 0), (1, 1), (0, 3))
        res = veronese_scaling_check(shifted_powers(I), powers(I), 2, 4)
        assert res.exact_lhs is None and res.exact_rhs_scaled is None
        assert len(res.notes) == 1 and res.notes[0].startswith("exact comparison skipped: ")
        assert res.holds == (res.window_lhs <= res.window_rhs_scaled)

    def test_strict_inequality_instance(self):
        a, b = strict_veronese_pair()
        res = veronese_scaling_check(a, b, 2, 12)
        assert res.holds
        assert res.window_lhs < res.window_rhs_scaled  # 2 < 4 strictness
        assert res.exact_lhs == finite(2)
        assert res.exact_rhs_scaled == finite(2)

    def test_powers_equality(self):
        I = ideal(2, (2, 0), (0, 3))
        res = veronese_scaling_check(powers(maximal(2)), powers(I), 3, 10)
        assert res.holds
        assert res.exact_lhs == res.exact_rhs_scaled


class TestLinearlyFiner:
    def test_undershooting_rho_star_reports_the_failure(self):
        # rho(m^n, m^(2n)) = 2, but rho* = 1 gives f(i) = i + 1: m^3 is not in m^4
        m = maximal(2)
        res = linearly_finer_check(powers(m), powers(m.power(2)), 6, rho_star=finite(1))
        assert not res.finer and res.f == (1, 1)
        i, witness = res.failure
        assert (i, witness) == (2, (0, 3))
        assert powers(m).member(3).contains(witness) and not m.power(4).contains(witness)

    def test_infinite_rho_star_has_no_linear_bound(self):
        m = maximal(2)
        res = linearly_finer_check(powers(m), powers(m), 6, rho_star=POS_INFINITY)
        assert res == LinearlyFinerResult(False, None, POS_INFINITY)

    def test_same_powers(self):
        I = ideal(2, (2, 0), (1, 1), (0, 3))
        res = linearly_finer_check(powers(I), powers(I), 20)
        assert res.finer and res.f == (1, 1)

    def test_ceiling_pair(self):
        I = maximal(2)
        res = linearly_finer_check(ceiling(I, 2), ceiling(I, 3), 20)
        assert res.finer and res.f == (2, 1)

    def test_primary_versus_prime(self):
        I = ideal(2, (2, 0), (1, 1), (0, 3))
        res = linearly_finer_check(powers(I), powers(maximal(2)), 30)
        assert res.finer and res.f == (1, 1)

    def test_neg_infinity_gives_identity(self):
        I = maximal(2)
        res = linearly_finer_check(powers(I), constant(I), 10)
        assert res.finer and res.f == (1, 0)


class TestPublishedInequalities:
    """Relations between routes that share no theorem, for a squarefree I with
    big height h, a = symbolic(I) and b = powers(I) (ROADMAP item 11):
      * 1 <= rho_hat <= rho;
      * every window value is at most rho, and at most h, since I^(hr) lies
        in I^r (Ein, Lazarsfeld & Smith 2001; Hochster & Huneke 2002);
      * alpha(I)/alpha_hat(I) <= rho_hat (Bocci & Harbourne 2010 for rho;
        Guardo, Harbourne & Van Tuyl, Adv. Math. 246 (2013), for rho_hat).
    Every rho asks `is_subset_of` and every value `weighted_min`; alpha_hat
    comes from the cover LP."""

    def test_random_graphs_and_hypergraphs(self):
        rng = random.Random(2001)
        for k in range(30):
            nvars = rng.randint(3, 5)
            size = 2 if k % 2 == 0 else 3  # graphs, then 3-uniform hypergraphs
            edges = {tuple(rng.sample(range(nvars), size)) for _ in range(rng.randint(1, 2 * nvars))}
            I = ideal(nvars, *([int(i in e) for i in range(nvars)] for e in edges))
            a, b, v = symbolic(I), powers(I), degree_valuation(nvars)
            h = max(map(sum, minimal_covers(I)))
            rho_hat = rho_hat_rees(a, b, horizon=3).value
            exact = rho_exact_certified(a, b, search_budget=24, horizon=3)
            windows = [rho_window(a, b, n, n).value for n in (3, 6)]
            assert finite(1) <= rho_hat, edges
            assert all(value <= finite(h) for value in windows), (edges, windows)
            if exact.certified:
                assert rho_hat <= exact.value, edges
                assert all(value <= exact.value for value in windows), (edges, windows)
            alpha_hat = skew_waldschmidt(v, a).value
            assert finite(Fraction(v.of_ideal(I)) / alpha_hat) <= rho_hat, edges


class TestStructuralInvariants:
    def test_chain_on_shared_window(self):
        # rho_hat estimate <= rho^n window <= rho window, on one beta table
        tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        a, b = symbolic(tri), powers(maximal(3))
        n_max, cutoff = 40, 120
        est = rho_hat_beta_limit(a, b, n_max, cutoff).value
        mid = rho_n(a, b, 1, n_max, cutoff).value
        top = rho_window(a, b, n_max, cutoff).value
        assert est <= mid <= top

    def test_monotonicity_under_nesting(self):
        rng = random.Random(41)
        for _ in range(20):
            nvars = 2
            gens = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(3)]
            gens = [g for g in gens if any(g)] or [(1, 0)]
            small = MonomialIdeal.from_generators(nvars, gens)
            larger = small.add(ideal(nvars, (rng.randint(0, 2), rng.randint(1, 2))))
            probe = MonomialIdeal.from_generators(
                nvars, [(rng.randint(1, 3), rng.randint(0, 2))])
            lhs = rho_window(powers(probe), powers(small), 8, 8).value
            rhs = rho_window(powers(probe), powers(larger), 8, 8).value
            assert lhs >= rhs
            lhs2 = rho_window(powers(small), powers(probe), 8, 8).value
            rhs2 = rho_window(powers(larger), powers(probe), 8, 8).value
            assert lhs2 <= rhs2

    def test_beta_lambda_duality(self):
        # valid for filtration pairs: escape iff r >= beta_s iff s <= lambda_r
        pairs = [
            (powers(ideal(2, (1, 0), (0, 2))), powers(ideal(2, (2, 0), (0, 3)))),
            staircase_filtration(),
        ]
        cutoff = 60
        for a, b in pairs:
            betas = {s: beta(a, b, s, cutoff) for s in range(1, 13)}
            lambdas = {r: lambda_(a, b, r, cutoff) for r in range(1, 13)}
            for s in range(1, 13):
                for r in range(1, 13):
                    escapes = not a.member(s).is_subset_of(b.member(r))
                    by_beta = betas[s].is_finite and r >= betas[s].value
                    lv = lambdas[r]
                    by_lambda = (lv.kind == "exceeds") or (lv.is_finite and s <= lv.value)
                    assert escapes == by_beta == by_lambda

    def test_stabilization_remark(self):
        # rho(a,b) = -inf and rho(b,a) finite force b_j = a_i = a_1 eventually
        I = ideal(2, (1, 1), (2, 0))
        m = maximal(2)
        a = constant(I)
        b = table(2, [m], tail=fam.Base("I"), env=fam.Environment({"I": I, "m": m}))
        rep_ab = rho_window(a, b, 12, 12)
        assert rep_ab.value == NEG_INFINITY and rep_ab.certified
        rep_ba = rho_window(b, a, 12, 12)
        assert rep_ba.value == finite(1)
        for i in range(1, 13):
            assert a.member(i) == a.member(1)
        for j in range(2, 13):
            assert b.member(j) == a.member(1)


@pytest.mark.parametrize("gens", [((1, 0), (0, 1)), ((2, 0), (0, 3))])
def test_powers_and_power_pattern_affine_one_take_the_same_routes(gens):
    # I^n spelled as powers(I) or as power_pattern(I, affine(1)) is one family
    I = ideal(2, *gens)
    spelled = powers(I), power_pattern(I, fam.affine(1))
    assert spelled[0].base_equivalence() == spelled[1].base_equivalence()
    assert spelled[0].base_equivalence() is not None
    left = powers(maximal(2))
    rees = [rho_hat_rees(left, b) for b in spelled]
    assert rees[0] == rees[1]
    assert "equals rho_hat(a, b)" in rees[1].claims
    exact = [rho_exact_certified(left, b) for b in spelled]
    assert exact[0] == exact[1]


def test_extended_rationals_order_the_infinities_around_every_finite_value():
    ordered = [NEG_INFINITY, finite(-3), finite(Fraction(-1, 2)), finite(0), finite(Fraction(7, 3)), POS_INFINITY]
    for i, x in enumerate(ordered):
        for j, y in enumerate(ordered):
            assert ((x < y), (x <= y), (x > y), (x >= y), (x == y)) == (i < j, i <= j, i > j, i >= j, i == j)
    with pytest.raises(TypeError):
        finite(1) < 2  # only ExtendedRationals compare
