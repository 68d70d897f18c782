"""Graded-family constructors, member conventions, and window validators."""

from fractions import Fraction

import pytest

from resurgence import (
    DomainError,
    FamilyRangeError,
    MonomialIdeal,
    ceiling,
    closure_of,
    closure_powers,
    constant,
    find_standard_veronese,
    is_b_equivalent,
    is_standard_veronese,
    powers,
    symbolic,
    table,
    validate_filtration,
    validate_graded,
    veronese,
)
import resurgence.families as fam
from resurgence.valuations import MonomialValuation, degree_valuation, skew_waldschmidt


def ideal(nvars, *gens):
    return MonomialIdeal.from_generators(nvars, gens)


def not_filtration_families():
    """The periodic pair (a, b) and the recurrence b' of the running example."""
    nv = 2
    b1 = ideal(nv, (3, 0), (0, 3))
    b2 = ideal(nv, (4, 0), (3, 1), (1, 3), (0, 4))
    a2 = ideal(nv, (1, 0), (0, 1)).power(4)
    env = fam.Environment({"b1": b1, "b2": b2, "a2": a2})
    fb = fam.periodic(nv, 3, {
        1: fam.Base("b1"), 2: fam.Base("b2"),
        0: fam.Product((fam.Base("b1"), fam.Base("b2"))),
    }, env, name="b")
    fa = fam.periodic(nv, 3, {
        1: fam.Base("b1"), 2: fam.Base("a2"),
        0: fam.Product((fam.Base("b1"), fam.Base("a2"))),
    }, env, name="a")
    env.bind_family("b", fb)
    env.bind_family("a", fa)
    fbp = fam.expression(nv, fam.Sum((
        fam.Ref("b", 0),
        fam.Product((fam.Ref("b", -2), fam.Base("a2"))),
    )), env, name="bp")
    return {"b1": b1, "b2": b2, "a2": a2, "a": fa, "b": fb, "bp": fbp}


class TestMembers:
    def test_ceiling_member(self):
        assert ceiling(ideal(1, (1,)), Fraction(1, 2)).member(3).generators == ((2,),)

    def test_member_zero_is_unit(self):
        assert powers(ideal(2, (1, 0), (0, 1))).member(0).is_unit()

    def test_member_negative_is_zero(self):
        assert powers(ideal(2, (1, 0), (0, 1))).member(-2).is_zero()

    def test_periodic_member(self):
        data = not_filtration_families()
        assert data["b"].member(5) == data["b2"]
        assert data["b"].member(6) == data["b1"].multiply(data["b2"])

    def test_table_range_error(self):
        family = table(2, [ideal(2, (1, 0))])
        assert family.member(1).generators == ((1, 0),)
        with pytest.raises(FamilyRangeError):
            family.member(2)

    def test_member_cached_and_pure(self):
        family = symbolic(ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1)))
        first = family.member(3)
        assert family.member(3) is first
        again = symbolic(ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))).member(3)
        assert first == again

    def test_veronese_is_substride(self):
        base = powers(ideal(2, (2, 0), (0, 3)))
        ver = veronese(base, 3)
        for n in range(0, 5):
            assert ver.member(n) == base.member(3 * n)

    def test_closure_of_general_family(self):
        data = not_filtration_families()
        closed = closure_of(data["b"])
        member = closed.member(2)
        assert member.view_kind == "closure"
        assert member.contains((2, 2))  # in the closure of b2, not in b2
        assert not data["b"].member(2).contains((2, 2))


class TestValidators:
    def test_powers_graded_structural(self):
        report = validate_graded(powers(ideal(2, (2, 0), (0, 3))), 20)
        assert report.holds and report.certificate == "structural"

    def test_not_filtration_example_graded(self):
        data = not_filtration_families()
        assert validate_graded(data["b"], 12).holds
        assert validate_graded(data["a"], 12).holds
        assert validate_graded(data["bp"], 10).holds

    def test_constructed_graded_failure(self):
        I = ideal(1, (1,))
        family = table(1, [I, I.power(3)],
                       tail=fam.Power(fam.Base("I"), fam.affine(3)),
                       env=fam.Environment({"I": I}))
        report = validate_graded(family, 6)
        assert not report.holds
        assert report.counterexample["indices"] == (1, 1)
        witness = report.counterexample["witness"]
        # independently re-checkable: witness in a_1*a_1 but not in a_2
        assert family.member(1).multiply(family.member(1)).contains(witness)
        assert not family.member(2).contains(witness)

    def test_a_window_that_checks_no_index_is_refused(self):
        # at horizon 1 neither scan has an index (no p, q >= 1 with p + q <= 1,
        # no p with 1 <= p < 1), yet both used to certify a family whose
        # graded window fails at horizon 2
        I = ideal(1, (1,))
        family = table(1, [I, I.power(3)],
                       tail=fam.Power(fam.Base("I"), fam.affine(3)),
                       env=fam.Environment({"I": I}))
        assert not validate_graded(family, 2).holds
        for validate in (validate_graded, validate_filtration):
            with pytest.raises(DomainError, match="checks an index, not 1"):
                validate(family, 1)
        # a structural report checks no window and stays as it was
        assert validate_graded(powers(I), 1).certificate == "structural"
        assert validate_filtration(powers(I), 1).certificate == "structural"

    def test_filtration_reports(self):
        data = not_filtration_families()
        assert validate_filtration(powers(ideal(2, (1, 0))), 10).holds
        assert validate_filtration(ceiling(ideal(2, (1, 0), (0, 1)), Fraction(3, 2)), 10).holds
        report = validate_filtration(data["a"], 4)
        assert not report.holds
        witness = report.counterexample["witness"]
        p_high, p_low = report.counterexample["indices"]
        assert data["a"].member(p_high).contains(witness)
        assert not data["a"].member(p_low).contains(witness)

    def test_standard_veronese_powers(self):
        assert is_standard_veronese(powers(ideal(2, (1, 0), (0, 1))), 1, 10).certificate == "structural"

    def test_standard_veronese_periodic(self):
        I = ideal(2, (1, 0), (0, 1))
        env = fam.Environment({"I": I, "n": I.power(2)})
        family = fam.periodic(2, 2, {
            0: fam.Power(fam.Base("I"), fam.affine(1)),
            1: fam.Product((fam.Base("n"), fam.Power(fam.Base("I"), fam.affine(1)))),
        }, env)
        assert is_standard_veronese(family, 2, 6).holds
        assert not is_standard_veronese(family, 1, 6).holds
        k, _ = find_standard_veronese(family, 6, 6)
        assert k == 2

    def test_standard_veronese_failure_witness(self):
        # b_4 = (x^2, x y^2, y^3) versus b_2^2 = (x^2, x y^2, y^4)
        nv = 2
        env = fam.Environment({
            "x": ideal(nv, (1, 0)),
            "y2": ideal(nv, (0, 2)),
            "m": ideal(nv, (1, 0), (0, 1)),
        })
        expr = fam.Sum((
            fam.Power(fam.Base("x"), fam.ceil_mul(Fraction(1, 2))),
            fam.Product((fam.Base("y2"), fam.Power(fam.Base("m"), fam.ceil_mul(Fraction(1, 2), -1)))),
        ))
        family = fam.expression(nv, expr, env)
        assert family.member(4).generators == ((0, 3), (1, 2), (2, 0))
        assert family.member(2).power(2).generators == ((0, 4), (1, 2), (2, 0))
        report = is_standard_veronese(family, 2, 2)
        assert not report.holds
        assert report.counterexample["witness"] == (0, 3)

    def test_b_equivalent_reports(self):
        I = ideal(2, (2, 0), (0, 3))
        assert is_b_equivalent(powers(I), I, 0, 8).holds
        assert is_b_equivalent(closure_powers(I), I, 1, 6).holds
        report = is_b_equivalent(constant(I), I, 2, 6)
        assert not report.holds
        witness = report.counterexample["witness"]
        assert witness is not None

    def test_b_equivalent_power_in_family_counterexample(self):
        # a_1 = m^2 lies in m, but m does not lie in a_1
        m = ideal(2, (1, 0), (0, 1))
        report = is_b_equivalent(powers(m.power(2)), m, 0, 4)
        assert not report.holds and report.params == {"k": 0}
        assert report.counterexample == {"indices": (1, 1), "witness": (0, 1),
                                         "side": "power_in_family"}
        assert m.contains((0, 1)) and not m.power(2).contains((0, 1))

    def test_failure_to_find_veronese(self):
        I = ideal(2, (1, 0), (0, 1))
        family = fam.power_pattern(I, fam.ceil_sqrt())
        k, report = find_standard_veronese(family, 4, 6)
        assert k is None
        assert not report.holds
        assert report.params["kmax"] == 4

    def test_find_standard_veronese_tries_only_a_structural_index(self):
        # I^ceil(3n/2) has structural index 2; with kmax = 1 the window search
        # tries k = 1, where a_2 = m^3 differs from a_1^2 = m^4
        family = ceiling(ideal(2, (1, 0), (0, 1)), Fraction(3, 2))
        k, report = find_standard_veronese(family, 6, 6)
        assert k == 2 and report == fam.ValidationReport(
            "standard_veronese", 6, True, "structural", {"k": 2})
        k, report = find_standard_veronese(family, 1, 6)
        assert k is None and report.params == {"k": None, "kmax": 1}
        assert report.counterexample is None

    @pytest.mark.parametrize("kmax", [0, -1])
    def test_find_standard_veronese_needs_an_index_to_try(self, kmax):
        # below 1 the search tried no index, not even a structural one, and reported a miss
        m = ideal(2, (1, 0), (0, 1))
        for family in (ceiling(m, Fraction(3, 2)), fam.power_pattern(m, fam.ceil_sqrt())):
            with pytest.raises(DomainError, match=f"^a standard Veronese search needs kmax >= 1, not {kmax}$"):
                find_standard_veronese(family, kmax, 6)

    @pytest.mark.parametrize("k", [0, -2])
    def test_a_standard_veronese_index_below_one_is_refused(self, k):
        # k % veronese_k == 0 held for k <= 0, and a symbolic family passed its
        # window: member(0) is the unit ideal, member(k*n) the zero ideal for k < 0
        for family in (powers(I2), ceiling(I2, Fraction(3, 2)), symbolic(S3)):
            with pytest.raises(DomainError, match=f"^a standard Veronese index needs k >= 1, not {k}$"):
                is_standard_veronese(family, k, 6)


class TestStructureFlags:
    def test_power_semantics(self):
        I = ideal(2, (2, 0), (0, 3))
        base, fn = closure_powers(I).power
        assert base == I and closure_powers(I).integrally_closed and fn(3) == 3

    def test_eventually_constant(self):
        I = ideal(2, (1, 0), (0, 1))
        assert constant(I).constant_from == 1 and constant(I).member(1) == I
        assert powers(I).constant_from is None
        prefix_family = table(2, [I.power(2)], tail=fam.Base("I"),
                              env=fam.Environment({"I": I}))
        d0 = prefix_family.constant_from
        assert (d0, prefix_family.member(d0)) == (2, I)

    @pytest.mark.parametrize("tail", [
        fam.Ref("f"),
        fam.Product((fam.Base("I"), fam.Ref("f", 1))),
        fam.Sum((fam.Base("x"), fam.Ref("f"))),
    ])
    def test_tail_referencing_a_family_is_not_constant(self, tail):
        I = ideal(2, (1, 0), (0, 1))
        env = fam.Environment({"I": I, "x": ideal(2, (1, 0))}, {"f": powers(I)})
        family = table(2, [I], tail=tail, env=env)
        assert family.constant_from is None
        assert family.member(3) != family.member(4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_veronese_keeps_the_constant_tail(self, k):
        I = ideal(2, (1, 0), (0, 1))
        prefix = [I.power(4), I.power(3), I.power(2), I.power(2)]
        inner = table(2, prefix, tail=fam.Base("I"), env=fam.Environment({"I": I}))
        d0 = veronese(inner, k).constant_from
        assert d0 == -(-5 // k) and veronese(inner, k).member(d0) == I
        assert all(veronese(inner, k).member(n) == I for n in range(d0, d0 + 4))
        assert k == 1 or veronese(inner, k).member(d0 - 1) != I
        assert veronese(constant(I), k).constant_from == 1 and veronese(constant(I), k).member(1) == I
        assert veronese(powers(I), k).constant_from is None

    def test_index_functions(self):
        assert [fam.ceil_sqrt()(n) for n in (1, 2, 4, 5, 9, 10)] == [1, 2, 2, 3, 3, 4]
        assert [fam.ceil_log2p1()(n) for n in (1, 2, 3, 4, 7, 8)] == [1, 2, 2, 3, 3, 4]
        assert fam.ceil_mul(Fraction(1, 2), -1)(1) == 0
        assert fam.affine(2, 1)(5) == 11
        assert fam.ceil_mul(Fraction(5, 3)).pure_slope
        assert not fam.ceil_mul(Fraction(5, 3), 1).pure_slope

    @pytest.mark.parametrize("a", [Fraction(3, 2), 1.5, Fraction(1, 3)])
    def test_a_non_integral_affine_slope_is_refused(self, a):
        # int(a) truncated the members (I^1, I^2, I^3 for a = 3/2) while the
        # closed form read the exact slope and certified 3/2 instead of 1
        with pytest.raises(DomainError, match="affine slope must be an integer.*ceil_mul"):
            fam.affine(a)

    @pytest.mark.parametrize("a", [Fraction(2), 2.0, 2])
    def test_an_integral_affine_slope_of_any_type_is_kept(self, a):
        I = ideal(2, (1, 0), (0, 1))
        family = fam.power_pattern(I, fam.affine(a))
        assert [family.member(n) for n in (1, 2)] == [I.power(2), I.power(4)]
        assert skew_waldschmidt(degree_valuation(2), family).value == 2


# -- facts of every family kind ------------------------------------------------

I2 = ideal(2, (2, 0), (1, 1), (0, 3))
S3 = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))


def fact_families():
    """One family per constructor, closures over six kinds, Veroneses over three."""
    m = ideal(2, (1, 0), (0, 1))
    env = fam.Environment({"I": I2, "m": m})
    periodic_b = not_filtration_families()["b"]
    tail_table = table(2, [ideal(2, (1, 0)), ideal(2, (1, 1))], tail=fam.Base("I"), env=env)
    return {
        "powers": powers(I2),
        "power_pattern": fam.power_pattern(I2, fam.ceil_sqrt()),
        "ceiling": ceiling(I2, Fraction(3, 2)),
        "constant": constant(I2),
        "symbolic": symbolic(S3),
        "closure_powers": closure_powers(I2),
        "periodic": periodic_b,
        "table": tail_table,
        "expression": fam.expression(2, fam.Product((fam.Power(fam.Base("m"), fam.affine(1)),
                                                     fam.Base("I"))), env),
        "from_function": fam.from_function(2, lambda n: I2.power(n).add(m.power(2 * n + 1))),
        "closure_of_ceiling": closure_of(ceiling(I2, Fraction(3, 2))),
        "closure_of_periodic": closure_of(periodic_b),
        "closure_of_table": closure_of(tail_table),
        "closure_of_veronese_powers": closure_of(veronese(powers(I2), 2)),
        "closure_of_symbolic": closure_of(symbolic(S3)),
        "closure_of_closure_powers": closure_of(closure_powers(I2)),
        "veronese_powers": veronese(powers(I2), 2),
        "veronese_closure_powers": veronese(closure_powers(I2), 3),
        "veronese_symbolic": veronese(symbolic(S3), 2),
    }


def family_facts(family):
    sem = family.power
    d0 = family.constant_from
    beq = family.base_equivalence()
    sw = skew_waldschmidt(degree_valuation(family.nvars), family)
    rule = family.value_rule((3, 2, 1)[: family.nvars])
    return {
        "power": None if sem is None else (sem[0].generators, sem[1].kind, sem[1].a, sem[1].b,
                                           family.integrally_closed),
        "flags": (family.filtration, family.graded, family.veronese_k, family.integrally_closed),
        "constant": None if d0 is None else (d0, family.member(d0).generators),
        "bequiv": None if beq is None else (beq[0].generators, beq[1].k, beq[1].bound),
        "waldschmidt": (sw.upper, sw.lower, sw.certified, sw.method),
        "values": None if rule is None else tuple(rule(n) for n in range(1, 7)),
    }


# recorded before the family kinds became constructor-set facts; the two
# closures marked below had no value rule then (the rule now comes from `inner`)
FACTS = {
    "powers": {
        "power": (((0, 3), (1, 1), (2, 0)), "affine", Fraction(1, 1), 0, False),
        "flags": (True, True, 1, False),
        "constant": None,
        "bequiv": (((0, 3), (1, 1), (2, 0)), 0, 0),
        "waldschmidt": (Fraction(2, 1), Fraction(2, 1), True, "closed-form"),
        "values": (5, 10, 15, 20, 25, 30),
    },
    "power_pattern": {
        "power": (((0, 3), (1, 1), (2, 0)), "ceil_sqrt", Fraction(0, 1), 0, False),
        "flags": (True, True, None, False),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(0, 1), Fraction(0, 1), True, "closed-form"),
        "values": (5, 10, 10, 10, 15, 15),
    },
    "ceiling": {
        "power": (((0, 3), (1, 1), (2, 0)), "ceil_mul", Fraction(3, 2), 0, False),
        "flags": (True, True, 2, False),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(3, 1), Fraction(3, 1), True, "closed-form"),
        "values": (10, 15, 25, 30, 40, 45),
    },
    "constant": {
        "power": (((0, 3), (1, 1), (2, 0)), "affine", Fraction(0, 1), 1, False),
        "flags": (True, True, None, False),
        "constant": (1, ((0, 3), (1, 1), (2, 0))),
        "bequiv": None,
        "waldschmidt": (Fraction(0, 1), Fraction(0, 1), True, "closed-form"),
        "values": (5, 5, 5, 5, 5, 5),
    },
    "symbolic": {
        "power": None,
        "flags": (True, True, None, True),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(3, 2), Fraction(3, 2), True, "lp"),
        "values": None,
    },
    "closure_powers": {
        "power": (((0, 3), (1, 1), (2, 0)), "affine", Fraction(1, 1), 0, True),
        "flags": (True, True, None, True),
        "constant": None,
        "bequiv": (((0, 3), (1, 1), (2, 0)), 0, 1),
        "waldschmidt": (Fraction(2, 1), Fraction(2, 1), True, "closed-form"),
        "values": (5, 10, 15, 20, 25, 30),
    },
    "periodic": {
        "power": None,
        "flags": (False, False, None, False),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(3, 10), None, False, "window"),
        "values": None,
    },
    "table": {
        "power": None,
        "flags": (False, False, None, False),
        "constant": (3, ((0, 3), (1, 1), (2, 0))),
        "bequiv": None,
        "waldschmidt": (Fraction(1, 6), None, False, "window"),
        "values": None,
    },
    "expression": {
        "power": None,
        "flags": (False, False, None, False),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(7, 6), None, False, "window"),
        "values": None,
    },
    "from_function": {
        "power": None,
        "flags": (False, False, None, False),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(2, 1), None, False, "window"),
        "values": None,
    },
    "closure_of_ceiling": {
        "power": (((0, 3), (1, 1), (2, 0)), "ceil_mul", Fraction(3, 2), 0, True),
        "flags": (True, True, None, True),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(3, 1), Fraction(3, 1), True, "closed-form"),
        "values": (10, 15, 25, 30, 40, 45),
    },
    "closure_of_periodic": {
        "power": None,
        "flags": (False, False, None, True),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(3, 10), None, False, "window"),
        "values": None,
    },
    "closure_of_table": {
        "power": None,
        "flags": (False, False, None, True),
        "constant": (3, ((0, 3), (1, 1), (2, 0))),
        "bequiv": None,
        "waldschmidt": (Fraction(1, 6), None, False, "window"),
        "values": None,
    },
    "closure_of_veronese_powers": {
        "power": None,
        "flags": (True, True, None, True),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(4, 1), Fraction(4, 1), True, "closed-form"),
        "values": (10, 20, 30, 40, 50, 60),  # was None
    },
    "closure_of_symbolic": {
        "power": None,
        "flags": (True, True, None, True),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(3, 2), Fraction(3, 2), True, "lp"),
        "values": None,
    },
    "closure_of_closure_powers": {  # power and bequiv were None: its members were closed again
        "power": (((0, 3), (1, 1), (2, 0)), "affine", Fraction(1, 1), 0, True),
        "flags": (True, True, None, True),
        "constant": None,
        "bequiv": (((0, 3), (1, 1), (2, 0)), 0, 1),
        "waldschmidt": (Fraction(2, 1), Fraction(2, 1), True, "closed-form"),
        "values": (5, 10, 15, 20, 25, 30),  # was None
    },
    "veronese_powers": {
        "power": None,
        "flags": (True, True, 1, False),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(4, 1), Fraction(4, 1), True, "closed-form"),
        "values": (10, 20, 30, 40, 50, 60),
    },
    "veronese_closure_powers": {
        "power": None,
        "flags": (True, True, None, True),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(6, 1), Fraction(6, 1), True, "closed-form"),
        "values": (15, 30, 45, 60, 75, 90),
    },
    "veronese_symbolic": {
        "power": None,
        "flags": (True, True, None, True),
        "constant": None,
        "bequiv": None,
        "waldschmidt": (Fraction(3, 1), Fraction(3, 1), True, "lp"),
        "values": None,
    },
}


@pytest.mark.parametrize("name", FACTS)
def test_family_facts_match_the_recording(name):
    assert family_facts(fact_families()[name]) == FACTS[name]


def test_fact_families_cover_every_constructor():
    kinds = {f.kind for f in fact_families().values()}
    assert kinds == {"power_fn", "symbolic", "closure_of", "veronese", "periodic", "table",
                     "expression", "custom"}


@pytest.mark.parametrize("name", ["closure_of_veronese_powers", "closure_of_closure_powers"])
def test_closure_value_rule_comes_from_inner(name):
    family = fact_families()[name]
    v = MonomialValuation((3, 2))
    rule = family.value_rule(v.weights)
    assert [rule(n) for n in range(1, 7)] == [v.of_ideal(family.member(n)) for n in range(1, 7)]


@pytest.mark.parametrize("name", ["closure_powers", "symbolic", "closure_of_ceiling"])
def test_closure_of_an_integrally_closed_family_keeps_its_members(name):
    # each member used to be closed again from its generators, which also
    # dropped the power fact and with it the base equivalence
    inner = fact_families()[name]
    outer = closure_of(inner)
    assert all(outer.member(n) == inner.member(n) for n in range(1, 7))
    assert outer.power == inner.power
    assert outer.base_equivalence() == inner.base_equivalence()
