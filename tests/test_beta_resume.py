"""Resumed escape sequences against fresh per-row searches.

beta_sequence starts each row at a proved lower bound: the last finite value
when the left family is a filtration by construction, and the plain beta_n
under the closure and valuation sequences of rho_hat_beta_limit.  Every
sequence built that way must equal the rows of fresh `beta(..., start=1)` /
`beta_v` calls, on seeded pairs of left and right families built from job
descriptors as a config builds them.
"""

import json
import random
from fractions import Fraction

import pytest

from resurgence import (
    CapabilityError,
    DomainError,
    MonomialIdeal,
    MonomialValuation,
    beta,
    beta_sequence,
    beta_v,
    closure_of,
    constant,
    finite,
    noncontainment_table,
    powers,
    rho_hat_beta_limit,
    rho_lim_estimate,
    rho_n,
    rho_window,
    validate_filtration,
)
from resurgence import jobs
from resurgence.invariants import _first_index
from resurgence.rationals import NEG_INFINITY

S_MAX, CUTOFF = 7, 24

# left families: (name, descriptor, filtration by construction)
LEFT = (
    ("powers", {"kind": "powers", "ideal": "I"}, True),
    ("ceil_mul", {"kind": "power_pattern", "ideal": "I", "exponent": {"fn": "ceil_mul", "ratio": "3/2"}}, True),
    ("ceil_sqrt", {"kind": "power_pattern", "ideal": "m", "exponent": {"fn": "ceil_sqrt"}}, True),
    ("closure_powers", {"kind": "closure_powers", "ideal": "J"}, True),
    ("symbolic", {"kind": "symbolic", "ideal": "sq"}, True),
    ("veronese", {"kind": "veronese", "family": "ceil_sqrt", "step": 2}, True),
    ("periodic", {"kind": "periodic", "period": 3, "patterns": {
        "1": {"ideal": "b1"}, "2": {"ideal": "a2"}, "0": {"product": [{"ideal": "b1"}, {"ideal": "a2"}]}}}, False),
    # the prefix falls and rises again: I^3, I, I^2, then I^n
    ("table", {"kind": "table", "prefix": ["I3", "I", "I2"],
               "tail": {"power": {"ideal": "I"}, "exponent": {"fn": "affine"}}}, False),
    ("expression", {"kind": "expression", "expr": {"sum": [
        {"power": {"ideal": "J"}, "exponent": {"fn": "affine", "a": 2}},
        {"product": [{"ideal": "x4"}, {"power": {"ideal": "m"}, "exponent": {"fn": "affine"}}]}]}}, False),
)

# right families: the staircase b_n = x^ceil(n/2) + y^2 m^(ceil(n/2)-1), the
# period-3 family of jobs/periodic.json, a table with a J-power tail, the
# powers of (x^2, y^2) (not integrally closed, so its closure escapes later)
# and of I, and the closure of the staircase
RIGHT = (
    ("r_expression", {"kind": "expression", "expr": {"sum": [
        {"power": {"ideal": "x"}, "exponent": {"fn": "ceil_mul", "ratio": "1/2"}},
        {"product": [{"ideal": "y2"}, {"power": {"ideal": "m"}, "exponent":
                                         {"fn": "ceil_mul", "ratio": "1/2", "offset": -1}}]}]}}),
    ("r_periodic", {"kind": "periodic", "period": 3, "patterns": {
        "1": {"ideal": "b1"}, "2": {"ideal": "b2"}, "0": {"product": [{"ideal": "b1"}, {"ideal": "b2"}]}}}),
    ("r_table", {"kind": "table", "prefix": ["m", "J"],
                 "tail": {"power": {"ideal": "J"}, "exponent": {"fn": "ceil_mul", "ratio": "1/2"}}}),
    ("r_square", {"kind": "powers", "ideal": "sq2"}),
    ("r_powers", {"kind": "powers", "ideal": "I"}),
    ("r_closure", {"kind": "closure", "family": "r_expression"}),
)


def _random_ideal(rng):
    """A proper m-primary ideal of k[x, y]: pure powers of both variables and
    one or two mixed generators, exponents at most 4."""
    gens = [[rng.randint(1, 4), 0], [0, rng.randint(1, 4)]]
    gens += [[rng.randint(1, 3), rng.randint(1, 3)] for _ in range(rng.randint(1, 2))]
    return gens


def _families(seed):
    rng = random.Random(seed)
    ideal_i, ideal_j = _random_ideal(rng), _random_ideal(rng)
    i_ideal = MonomialIdeal.from_generators(2, [tuple(g) for g in ideal_i])
    ideals = {
        "I": ideal_i, "J": ideal_j, "m": [[1, 0], [0, 1]], "x": [[1, 0]], "y2": [[0, 2]],
        "x4": [[4, 0]], "sq": [[1, 1]], "sq2": [[2, 0], [0, 2]],
        "I2": [list(g) for g in i_ideal.power(2).generators],
        "I3": [list(g) for g in i_ideal.power(3).generators],
        "b1": [[3, 0], [0, 3]], "b2": [[4, 0], [3, 1], [1, 3], [0, 4]],
        "a2": [[4, 0], [3, 1], [2, 2], [1, 3], [0, 4]],
    }
    descriptors = {name: d for name, d, *_ in LEFT + RIGHT}
    config = jobs.parse_config(json.dumps({"vars": 2, "ideals": ideals, "families": descriptors}))
    return config.families


def _fresh(a, b, s_values, cutoff, v=None):
    if v is None:
        return [(s, beta(a, b, s, cutoff, start=1)) for s in s_values]
    return [(s, beta_v(v, a, b, s, cutoff, start=1)) for s in s_values]


def _finite_pairs(rows):
    return tuple((s, sv.value) for s, sv in rows if sv.is_finite)


@pytest.mark.parametrize("seed", range(4))
def test_every_resumed_sequence_equals_fresh_rows(seed):
    families = _families(seed)
    v = MonomialValuation((1, 2))
    for left, _, filtration in LEFT:
        a = families[left]
        assert a.filtration is filtration, left
        for right, _ in RIGHT:
            b = families[right]
            where = (seed, left, right)
            rows = _fresh(a, b, range(1, S_MAX + 1), CUTOFF)
            assert list(noncontainment_table(a, b, S_MAX, CUTOFF)) == rows, where
            assert jobs.OPS["beta_table"].run(a, b, 2, S_MAX, CUTOFF) == {"table": rows[1:]}, where
            assert jobs.OPS["beta_v_table"].run(v.weights, a, b, 1, S_MAX, CUTOFF) == {
                "table": _fresh(a, b, range(1, S_MAX + 1), CUTOFF, v)}, where
            pairs = _finite_pairs(rows)
            assert rho_window(a, b, S_MAX, CUTOFF).details["noncontainment_pairs"] == pairs, where
            assert rho_n(a, b, 3, S_MAX, CUTOFF).details["noncontainment_pairs"] == tuple(
                (s, r) for s, r in pairs if s >= 3), where
            grid = rho_lim_estimate(a, b, [2, 4], CUTOFF, tail=S_MAX - 4).details["grid_values"]
            assert grid == tuple((n, max((finite(Fraction(s, r)) for s, r in pairs if s >= n), default=NEG_INFINITY))
                                 for n in (2, 4)), where


@pytest.mark.parametrize("seed", range(4))
def test_floored_sequences_of_the_beta_limit_equal_fresh_rows(seed):
    families = _families(seed)
    checked = 0
    for left, _, _ in LEFT:
        a = families[left]
        for right, _ in RIGHT:
            b = families[right]
            if not validate_filtration(b, S_MAX).holds:
                continue
            try:
                report = rho_hat_beta_limit(a, b, S_MAX, CUTOFF, grid=[1, 2, 3, 5])
            except CapabilityError:  # beta_(n_max) beyond the cutoff
                continue
            where = (seed, left, right)
            grid = report.search["grid"]
            details = report.details
            assert list(details["beta"]) == _fresh(a, b, grid, CUTOFF), where
            assert list(details["beta_closure"]) == _fresh(a, closure_of(b), grid, CUTOFF), where
            v0 = MonomialValuation(details["v0"])
            assert list(details["beta_valuation"]) == _fresh(a, b, grid, CUTOFF, v0), where
            checked += 1
    assert checked >= 20


def test_the_closure_floor_leaves_a_later_closure_escape():
    # (x^2, y^2)^d is not integrally closed: m^(2k) escapes it at d = k but
    # its closure m^(2d) only at d = k + 1, so the plain sequence may floor
    # the closure sequence but not the other way round
    m = MonomialIdeal.from_generators(2, [(1, 0), (0, 1)])
    a = powers(m)
    b = powers(MonomialIdeal.from_generators(2, [(2, 0), (0, 2)]))
    details = rho_hat_beta_limit(a, b, 6, 20, grid=[2, 4, 6]).details
    assert [sv.value for _, sv in details["beta"]] == [1, 2, 3]
    assert [sv.value for _, sv in details["beta_closure"]] == [2, 3, 4]


def test_a_row_beyond_the_cutoff_gives_no_floor():
    # every beta_n of m^n against m^n is n + 1, beyond a cutoff of 2 from
    # n = 2 on: rows 2.. read '>2', give the other sequences no floor, and the
    # estimate reports that beta_(n_max) is not finite
    m = MonomialIdeal.from_generators(2, [(1, 0), (0, 1)])
    with pytest.raises(CapabilityError, match="beta_4 is not finite within cutoff 2"):
        rho_hat_beta_limit(powers(m), powers(m), 4, 2, grid=[1, 2, 3])


def test_rows_past_the_cutoff_or_empty_carry_no_resumption():
    # m^s against m^d escapes from d = s + 1 on: row 1 is 2, rows 2 and 3 run
    # past a cutoff of 2; m^s against the constant m^3 escapes at d = 1 for
    # s < 3 and never after, so rows 3 and 4 are empty
    m = MonomialIdeal.from_generators(2, [(1, 0), (0, 1)])
    a = powers(m)
    assert [str(sv) for _, sv in beta_sequence(a, a, range(1, 4), 2)] == ["2", ">2", ">2"]
    b = constant(m.power(3))
    assert [str(sv) for _, sv in beta_sequence(a, b, range(1, 5), 9)] == ["1", "1", "empty", "empty"]


def test_start_below_one_is_a_domain_error():
    m = MonomialIdeal.from_generators(1, [(1,)])
    with pytest.raises(DomainError, match="beta needs start >= 1, not 0"):
        beta(powers(m), powers(m), 1, 5, start=0)
    with pytest.raises(DomainError, match="beta needs start >= 1, not -1"):
        beta_v(MonomialValuation((1,)), powers(m), powers(m), 1, 5, start=-1)


def test_a_start_proof_skips_the_rows_below_it():
    # m^s escapes m^d exactly from d = s + 1 on; a search started at 4 gives
    # the same least index, and one started beyond the cutoff finds none
    m = MonomialIdeal.from_generators(2, [(1, 0), (0, 1)])
    a, b = powers(m), powers(m)
    assert beta(a, b, 5, 40, start=4) == beta(a, b, 5, 40) == beta(a, b, 5, 40, start=6)
    assert str(beta(a, b, 5, 3, start=4)) == ">3"


def test_first_index_from_a_start():
    # least d in start..cutoff of an upward-closed set, each index probed
    # at most once and none outside start..cutoff
    for cutoff in range(1, 30):
        for start in range(1, cutoff + 3):
            for t in range(0, cutoff + 3):
                probes = []

                def holds(d):
                    probes.append(d)
                    return d >= t
                want = next((d for d in range(start, cutoff + 1) if d >= t), None)
                assert _first_index(holds, cutoff, start) == want, (cutoff, start, t)
                assert len(probes) == len(set(probes)) and set(probes) <= set(range(start, cutoff + 1))
