"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every expected value is either a hand-checkable identity, a published worked
value, or recomputed here by an independent brute-force oracle.
"""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from resurgence import (
    DomainError,
    MonomialIdeal,
    MonomialValuation,
    beta,
    beta_v,
    ceil_log2p1,
    ceil_sqrt,
    ceiling,
    closure_powers,
    finite,
    integral_closure,
    lambda_,
    lambda_v,
    linearly_finer_check,
    minimize_monomials,
    noncontainment_table,
    power_pattern,
    powers,
    rees_valuations,
    rho_hat_beta_limit,
    rho_hat_rees,
    rho_n,
    rho_window,
    symbolic,
    symbolic_power,
    validate_graded,
)
from resurgence.polyhedra import HalfSpace, LinearProgram, lp_minimize
import resurgence.families as fam


def ideal(nvars, *gens):
    return MonomialIdeal.from_generators(nvars, gens)


def maximal(nvars):
    return MonomialIdeal.from_generators(
        nvars, [[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)])


def ok(number, text):
    print(f"[criterion {number:02d}] PASS - {text}")


def test_criterion_01_ceiling_pair():
    I = maximal(2)
    a, b = ceiling(I, 2), ceiling(I, 3)
    window = rho_window(a, b, 60, 60)
    assert window.value == finite(Fraction(3, 2))
    rees = rho_hat_rees(a, b)
    assert rees.value == finite(Fraction(3, 2))
    ok(1, "ceiling pair alpha=2, beta=3: rho_window = rho_hat_rees = 3/2 exactly")


def test_criterion_02_sqrt_family():
    I = maximal(2)
    a, b = powers(I), power_pattern(I, ceil_sqrt())
    for s in range(1, 31):
        assert beta(a, b, s, 1000).value == s * s + 1
    for n in range(1, 31):
        assert rho_n(a, b, n, n + 5, 1300).value == finite(Fraction(n, n * n + 1))
    window = rho_window(a, b, 12, 30)
    assert window.value == finite(Fraction(1, 2))
    assert window.witnesses[0][:2] == (1, 2)
    trend = rho_n(a, b, 30, 35, 1300).value
    assert trend <= finite(Fraction(1, 30))
    ok(2, "sqrt family: beta_s = s^2+1 (s <= 30), rho^n = n/(n^2+1), "
          "rho_window = 1/2 at (1,2), tail trend <= 1/30")


def staircase_pair():
    nv = 2
    env = fam.Environment({
        "x": ideal(nv, (1, 0)),
        "y2": ideal(nv, (0, 2)),
        "m": maximal(nv),
    })
    expr = fam.Sum((
        fam.Power(fam.Base("x"), fam.ceil_mul(Fraction(1, 2))),
        fam.Product((fam.Base("y2"), fam.Power(fam.Base("m"), fam.ceil_mul(Fraction(1, 2), -1)))),
    ))
    return powers(maximal(nv)), fam.expression(nv, expr, env, name="b")


def test_criterion_03_resurgence_not_closure_resurgence():
    a, b = staircase_pair()
    window = rho_window(a, b, 30, 70)
    assert window.value == finite(1)
    assert window.witnesses[0][:2] == (1, 1)
    b200 = beta(a, b, 200, 500)
    assert abs(Fraction(b200.value, 200) - 2) < Fraction(5, 100)
    estimate = rho_hat_beta_limit(a, b, 200, 500)
    assert abs(estimate.value.value - Fraction(1, 2)) < Fraction(5, 100)
    for s in range(1, 51):
        assert a.member(s + 1).is_subset_of(b.member(2 * s))
    ok(3, "staircase filtration: rho_window = 1 at (1,1), beta_200/200 within "
          "0.05 of 2, asymptotic estimate within 0.05 of 1/2, a_(s+1) <= b_(2s)")


def not_filtration_data():
    nv = 2
    b1 = ideal(nv, (3, 0), (0, 3))
    b2 = ideal(nv, (4, 0), (3, 1), (1, 3), (0, 4))
    a2 = maximal(nv).power(4)
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
        fam.Ref("b", 0), fam.Product((fam.Ref("b", -2), fam.Base("a2"))),
    )), env, name="bp")
    return b1, b2, a2, fa, fb, fbp


def test_criterion_04_graded_but_not_filtration():
    b1, b2, a2, fa, fb, fbp = not_filtration_data()
    m = maximal(2)
    # relations (i)-(v)
    assert b1.power(2).is_subset_of(b2) and b2.is_subset_of(b1)
    assert fa.member(1) == b1 and b2.is_subset_of(a2)
    w = (5, 2)
    assert b1.multiply(a2).contains(w) and not b1.multiply(b2).contains(w)
    assert a2.power(2) == b2.multiply(a2) == m.power(8)
    assert b1.power(2).is_subset_of(a2) and a2.power(2).is_subset_of(b1)
    # claims (1)-(3) and (6)
    assert validate_graded(fb, 12).holds and validate_graded(fa, 12).holds
    for mm, nn in itertools.product(range(-2, 4), repeat=2):
        product = fb.member(mm).multiply(fb.member(nn))
        assert product.is_subset_of(fb.member(mm + nn))
    assert fbp.member(1) == b1
    assert b2.is_subset_of(a2) and fbp.member(2) == a2
    for n in range(1, 13):
        recurrence = fb.member(n).add(fb.member(n - 2).multiply(fbp.member(2)))
        assert fbp.member(n) == recurrence
    b1a2, b1b2 = b1.multiply(a2), b1.multiply(b2)
    for q in range(1, 6):
        assert fa.member(3 * q) == b1a2
        assert fb.member(3 * q) == b1b2
        assert fbp.member(3 * q) == b1a2
    # witness pairs and the two window behaviours
    for q, n in itertools.product(range(1, 6), repeat=2):
        assert fa.member(3 * q * n).contains(w)
        assert not fb.member(3 * n).contains(w)
    assert rho_window(fa, fb, 15, 3).value >= finite(5)
    for s, r in itertools.product(range(1, 16), repeat=2):
        assert fa.member(3 * s) == fbp.member(3 * r)
    ok(4, "period-3 example: relations (i)-(v) and claims (1)-(3),(6) verified; "
          "x^5 y^2 escapes at ratio >= 5 while the recurrence family absorbs the 3Z grid")


def test_criterion_05_two_limit_points():
    a = power_pattern(ideal(1, (1,)), ceil_log2p1())
    v = MonomialValuation((1,))
    for n in range(1, 1025):
        t = (n).bit_length()
        bv = beta_v(v, a, a, n, 4096)
        assert bv.value == 1 << t
        lv = lambda_v(v, a, a, n, 4096)
        expected = (1 << (t - 1)) - 1
        if expected == 0:
            assert lv.kind == "empty"
        else:
            assert lv.value == expected
    s = 10
    low, high = (1 << s) - 1, 1 << s
    assert abs(Fraction(lambda_v(v, a, a, low, 4096).value, low) - Fraction(1, 2)) < Fraction(1, 100)
    assert abs(Fraction(lambda_v(v, a, a, high, 4096).value, high) - 1) < Fraction(1, 100)
    assert abs(Fraction(beta_v(v, a, a, low, 4096).value, low) - 1) < Fraction(1, 100)
    assert abs(Fraction(beta_v(v, a, a, high, 4096).value, high) - 2) < Fraction(1, 100)
    ok(5, "log2 family: lambda^v and beta^v closed forms hold for n <= 1024; "
          "subsequence ratios reach (1/2, 1) and (1, 2) within 0.01")


def test_criterion_06_strict_veronese_scaling():
    I = maximal(2)
    env = fam.Environment({"I": I, "n": I.power(2)})  # n = mI with I = m
    b = fam.periodic(2, 2, {
        0: fam.Power(fam.Base("I"), fam.affine(1)),
        1: fam.Product((fam.Base("n"), fam.Power(fam.Base("I"), fam.affine(1)))),
    }, env, name="b")
    a = powers(I)
    got = [(s, sv.value) for s, sv in noncontainment_table(a, b, 20, 60) if sv.is_finite]
    expected = [(s, s) if s % 2 else (s, s - 1) for s in range(1, 21)]
    assert got == expected
    assert rho_window(a, b, 20, 20).value == finite(2)
    b2 = powers(b.member(2))
    window_b2 = rho_window(a, b2, 20, 20).value
    assert window_b2 == finite(Fraction(19, 10))
    assert finite(Fraction(9, 5)) <= window_b2 < finite(2)
    for window in (5, 8, 12, 20):
        lhs = rho_window(a, b2, window, window).value
        rhs = rho_window(a, b, window, 2 * window).value
        assert lhs < finite(2 * rhs.value)
    ok(6, "period-2 example: NC set exact for s <= 20, window rho(a,b) = 2, "
          "rho(a, b_2 powers) = 19/10 -> 2, Veronese scaling strictly < 2x")


def test_criterion_07_closure_and_rees_oracles():
    I = ideal(2, (2, 0), (0, 3))
    got = integral_closure(I, 1).generators
    brute = minimize_monomials(
        m for m in itertools.product(range(7), repeat=2)
        if oracles.closure_member(m, I.generators, 1)
    )
    assert got == brute == ((0, 3), (1, 2), (2, 0))
    tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert set(rees_valuations(tri).valuations) == {
        ((1, 1, 1), 2), ((1, 1, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1)}
    rep = rho_hat_rees(symbolic(tri), powers(maximal(3)))
    assert rep.value == finite(Fraction(2, 3))
    # the LP behind the maximizing valuation, with its dual certificate
    covers = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    lp = LinearProgram((Fraction(1),) * 3, tuple(HalfSpace(c, 1) for c in covers))
    res = lp_minimize(lp)
    assert res.optimum == Fraction(3, 2)
    assert all(u >= 0 for u in res.dual)
    for j in range(3):
        assert sum(u * c.normal[j] for u, c in zip(res.dual, lp.constraints)) <= 1
    assert sum(u * c.offset for u, c in zip(res.dual, lp.constraints)) == Fraction(3, 2)
    ok(7, "closure of (x^2,y^3) matches brute-force enumeration; Rees valuations "
          "of the triangle ideal exact; rho_hat = 2/3 against the LP dual certificate")


def random_proper_ideal(rng, nvars, max_gens=4, max_deg=4, squarefree=False):
    top = 1 if squarefree else max_deg
    while True:
        gens = [tuple(rng.randint(0, top) for _ in range(nvars))
                for _ in range(rng.randint(1, max_gens))]
        gens = [g for g in gens if any(g)]
        if gens:
            candidate = MonomialIdeal.from_generators(nvars, gens)
            if candidate.is_proper():
                return candidate


def test_criterion_08_property_suites():
    rng = random.Random(2024)
    failures = []
    cases = 0

    # (a) 150 cases: validated graded families have sub-additive value sequences
    for _ in range(150):
        cases += 1
        nvars = rng.choice((2, 3))
        I = random_proper_ideal(rng, nvars, max_deg=3)
        kind = rng.randrange(3)
        family = (powers(I) if kind == 0
                  else ceiling(I, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
                  if kind == 1 else closure_powers(I))
        if not validate_graded(family, 12).holds:
            failures.append(("graded", I))
            continue
        weights = tuple(rng.randint(0, 2) for _ in range(nvars))
        v = MonomialValuation(weights if any(weights) else (1,) * nvars)
        values = {n: v.of_ideal(family.member(n)) for n in range(1, 13)}
        for p in range(1, 12):
            for q in range(1, 13 - p):
                if values[p + q] > values[p] + values[q]:
                    failures.append(("subadditive", I, p, q))

    # (b) 150 cases: window rho is monotone under memberwise nesting
    for _ in range(150):
        cases += 1
        small = random_proper_ideal(rng, 2, max_gens=3)
        extra = tuple(rng.randint(0, 3) for _ in range(2))
        larger = small.add(ideal(2, extra)) if any(extra) else small
        if larger.is_unit():
            larger = small
        probe = random_proper_ideal(rng, 2, max_gens=2)
        if rho_window(powers(probe), powers(small), 6, 6).value < \
                rho_window(powers(probe), powers(larger), 6, 6).value:
            failures.append(("nesting-b", small, larger))
        if rho_window(powers(small), powers(probe), 6, 6).value > \
                rho_window(powers(larger), powers(probe), 6, 6).value:
            failures.append(("nesting-a", small, larger))

    # (c) 200 cases: beta/lambda duality for filtration pairs
    for _ in range(200):
        cases += 1
        a = powers(random_proper_ideal(rng, 2, max_gens=3))
        b = powers(random_proper_ideal(rng, 2, max_gens=3))
        s = rng.randint(1, 6)
        r = rng.randint(1, 6)
        escapes = not a.member(s).is_subset_of(b.member(r))
        bs = beta(a, b, s, 40)
        lr = lambda_(a, b, r, 40)
        by_beta = bs.is_finite and r >= bs.value
        by_lambda = (lr.kind == "exceeds") or (lr.is_finite and s <= lr.value)
        if not escapes == by_beta == by_lambda:
            failures.append(("duality", a.member(1), b.member(1), s, r))

    # (d) 150 cases: I^n <= closure(I^n) <= I^(n) for squarefree I, n <= 4
    for _ in range(150):
        cases += 1
        I = random_proper_ideal(rng, 3, squarefree=True)
        for n in range(1, 5):
            closed = integral_closure(I, n)
            if not I.power(n).is_subset_of(closed):
                failures.append(("power-in-closure", I, n))
            explicit = MonomialIdeal.from_generators(3, closed.generators)
            if not explicit.is_subset_of(symbolic_power(I, n)):
                failures.append(("closure-in-symbolic", I, n))

    # (e) 150 cases: Briancon-Skoda containment closure(I^(n+vars-1)) <= I^n
    for _ in range(150):
        cases += 1
        nvars = rng.choice((2, 3))
        I = random_proper_ideal(rng, nvars, max_gens=3)
        k = nvars - 1
        for n in range(1, 6):
            if not integral_closure(I, n + k).is_subset_of(I.power(n)):
                failures.append(("briancon-skoda", I, n))

    # (f) 200 cases: LP duality certificates verify exactly.  Each case draws
    # a general LP, solved by the oracle (lp_minimize refuses it unless it is
    # covering), and a covering LP, solved by lp_minimize
    for _ in range(200):
        cases += 1
        n = rng.randint(1, 3)
        for low in (-2, 0):
            constraints = []
            for _ in range(rng.randint(1, 5)):
                normal = tuple(rng.randint(low, 3) for _ in range(n))
                if not any(normal):
                    normal = (1,) * n
                constraints.append(HalfSpace.normalized(normal, rng.randint(low, 3)))
            lp = LinearProgram(tuple(Fraction(rng.randint(0, 4)) for _ in range(n)),
                               tuple(constraints))
            if oracles.is_covering(lp):
                res = lp_minimize(lp)  # raises internally if its certificate is wrong
            else:
                with pytest.raises(DomainError):
                    lp_minimize(lp)
                res = oracles.fraction_lp_minimize(lp)
            if res.status == "optimal":
                value = sum(u * c.offset for u, c in zip(res.dual, lp.constraints))
                if value != res.optimum or any(u < 0 for u in res.dual) or any(
                        sum(u * c.normal[j] for u, c in zip(res.dual, lp.constraints)) > lp.objective[j]
                        for j in range(n)):
                    failures.append(("lp-duality", lp))

    assert cases == 1000
    assert failures == []
    ok(8, "property suites: 1000 randomized cases across six invariants, zero failures")


def test_criterion_09_beta_sequences_converge_together():
    tri = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
    rep = rho_hat_beta_limit(symbolic(tri), powers(maximal(3)), 100, 400)
    rows = {
        "plain": dict(rep.details["beta"]),
        "closure": dict(rep.details["beta_closure"]),
        "valuation": dict(rep.details["beta_valuation"]),
    }
    ratios = {key: Fraction(table[100].value, 100) for key, table in rows.items()}
    for ratio in ratios.values():
        assert abs(ratio - Fraction(3, 2)) < Fraction(5, 100)
    for x, y in itertools.combinations(ratios.values(), 2):
        assert abs(x - y) < Fraction(2, 100)
    ok(9, "beta, beta-closure, beta-valuation at n = 100 all within 0.05 of 3/2 "
          "and within 0.02 of each other")


def test_criterion_10_linear_comparison_of_topologies():
    I = ideal(2, (2, 0), (1, 1), (0, 3))
    a, b = powers(I), powers(maximal(2))
    # l is the largest power of the prime containing I: here alpha(I) = 2
    l = 1
    while I.is_subset_of(maximal(2).power(l + 1)):
        l += 1
    assert l == 2
    window = rho_window(a, b, 50, 50).value
    assert finite(Fraction(1, l + 1)) <= window <= finite(Fraction(1, l))
    res = linearly_finer_check(a, b, 50)
    assert res.finer
    assert res.f == (1, 1)
    for i in range(1, 51):
        assert a.member(i + 1).is_subset_of(b.member(i))
    ok(10, "primary-vs-prime powers: window rho in [1/3, 1/2] (l = 2) and "
           "f(n) = n + 1 linearly interleaves the filtrations up to 50")
