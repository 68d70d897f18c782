"""The integer tableau of `lp_minimize` against the Fraction simplex it replaced.

`oracles.fraction_lp_minimize` is the general rational two-phase simplex with
the same pivot rules.  On a covering LP the integer tableau must take the
same pivots, so the `repr` of (status, optimum, argmin, dual) must match
exactly, including the argmin and dual that a degenerate LP picks among
several.  The seeded LPs add what `golden/lp_results.json` lacks: rational
objectives, and rows with coefficients up to 5, duplicated rows and offset-0
rows, whose pivots leave rows with a zero in the pivot column to be rescaled.
Every other LP is refused with a `DomainError`.  Phase 1 is solved once per
row set and reused, so objectives that share rows are also compared with a
solve on a cold cache.
"""

import random
from fractions import Fraction

import pytest

from resurgence import DomainError, HalfSpace, LinearProgram, lp_minimize
from resurgence import polyhedra

import oracles


def _objective(rng, n, low):
    if rng.random() < 0.5:
        return tuple(Fraction(rng.randint(low, 4)) for _ in range(n))
    return tuple(Fraction(rng.randint(low * 3, 12), rng.randint(1, 6)) for _ in range(n))


def _covering_lp(rng):
    n = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 8)):
        normal = [rng.randint(0, 5) if rng.random() < 0.6 else 0 for _ in range(n)]
        if not any(normal):
            normal[rng.randrange(n)] = rng.randint(1, 5)
        rows.append(HalfSpace(tuple(normal), rng.randint(0, 4) if rng.random() < 0.8 else 0))
        if rng.random() < 0.2:
            rows.append(rng.choice(rows))
    return LinearProgram(_objective(rng, n, 0), tuple(rows))


def _general_lp(rng):
    n = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 8)):
        normal = [rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(n)]
        if not any(normal):
            normal[rng.randrange(n)] = rng.choice((-1, 1))
        rows.append(HalfSpace(tuple(normal), rng.randint(-4, 4)))
        if rng.random() < 0.25:  # an equality, whose artificial may stay basic
            rows.append(HalfSpace(tuple(-x for x in normal), -rows[-1].offset))
    return LinearProgram(_objective(rng, n, -2), tuple(rows))


def _outcome(res):
    return repr((res.status, res.optimum, res.argmin, res.dual))


def test_integer_tableau_matches_fraction_simplex(monkeypatch):
    rescaled = 0
    pivot = polyhedra._pivot

    def counting(M, r, j, D):
        nonlocal rescaled
        rescaled += M[r][j] != D and any(row[j] == 0 for row in M)
        return pivot(M, r, j, D)

    monkeypatch.setattr(polyhedra, "_pivot", counting)
    rng = random.Random(909)
    degenerate = rational = 0
    for i in range(2400):
        lp = _covering_lp(rng)
        expected = oracles.fraction_lp_minimize(lp)
        assert _outcome(lp_minimize(lp)) == _outcome(expected), f"LP {i}"
        degenerate += any(h.offset == 0 for h in lp.constraints) or len(set(lp.constraints)) < len(lp.constraints)
        rational += any(c.denominator > 1 for c in lp.objective)
    assert degenerate >= 300 and rational >= 300
    assert rescaled >= 1000


def test_general_lps_are_refused():
    # the oracle still reaches every status on general LPs; lp_minimize
    # refuses each one that is not a covering LP
    rng = random.Random(910)
    statuses = []
    for _ in range(800):
        lp = _general_lp(rng)
        statuses.append(oracles.fraction_lp_minimize(lp).status)
        if not oracles.is_covering(lp):
            with pytest.raises(DomainError):
                lp_minimize(lp)
    assert min(statuses.count(s) for s in ("optimal", "infeasible", "unbounded")) >= 100


@pytest.mark.parametrize("objective, normal, offset", [
    ((Fraction(-1), Fraction(1)), (1, 1), 1),   # a negative objective entry
    ((Fraction(1), Fraction(1)), (1, -1), 1),   # a negative normal entry
    ((Fraction(1), Fraction(1)), (0, 0), 0),    # a zero normal
    ((Fraction(1), Fraction(1)), (1, 1), -1),   # a negative offset
])
def test_non_covering_lp_raises(objective, normal, offset):
    with pytest.raises(DomainError):
        lp_minimize(LinearProgram(objective, (HalfSpace(normal, offset),)))


@pytest.mark.parametrize("normal, offset", [((Fraction(1, 2), 1), 1), ((1, 1), Fraction(3, 2)),
                                            ((0.5, 1), 1), ((1, 1), 1.0), ((1, "1"), 1)])
def test_rows_must_be_integers(normal, offset):
    with pytest.raises(DomainError):
        LinearProgram((Fraction(1), Fraction(1)), (HalfSpace(normal, offset),))


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), None, "x"])
def test_objective_entries_must_be_rational(entry):
    with pytest.raises(DomainError):
        lp_minimize(LinearProgram((entry, Fraction(1)), (HalfSpace((1, 1), 1),)))


def test_objective_takes_ints_and_fractions():
    res = lp_minimize(LinearProgram((2, Fraction(3, 2)), (HalfSpace((1, 1), 1),)))
    assert (res.optimum, res.argmin) == (Fraction(3, 2), (0, 1))


def test_rational_objective():
    # min y1/2 + y2/3 with y1 + y2 >= 1 and y1 + 2 y2 >= 2: the vertex (0, 1)
    lp = LinearProgram((Fraction(1, 2), Fraction(1, 3)),
                       (HalfSpace((1, 1), 1), HalfSpace((1, 2), 2)))
    res = lp_minimize(lp)
    assert (res.optimum, res.argmin, res.dual) == (Fraction(1, 3), (0, 1), (0, Fraction(1, 6)))
    assert _outcome(res) == _outcome(oracles.fraction_lp_minimize(lp))


def _shared_row_rounds(rng, rounds):
    """Rounds of LPs in shuffled order, each on three row sets: a covering
    row set, the same normals with other offsets, and a third one; each row
    set takes four objectives."""
    for _ in range(rounds):
        base = _covering_lp(rng).constraints
        moved = tuple(HalfSpace(h.normal, rng.randint(0, 4)) for h in base)
        other = _covering_lp(rng).constraints
        lps = [LinearProgram(_objective(rng, len(rows[0].normal), 0), rows)
               for rows in (base, moved, other) for _ in range(4)]
        rng.shuffle(lps)
        yield lps


def test_objectives_on_shared_rows_match_a_cold_cache():
    # phase 1 is solved once per row set and reused: each warm solve must
    # equal a solve after cache_clear() and the Fraction simplex
    rng = random.Random(911)
    polyhedra._phase_one.cache_clear()
    offset_zero = duplicated = zero_entry = rational = 0
    for lps in _shared_row_rounds(rng, 60):
        warm = [_outcome(lp_minimize(lp)) for lp in lps]
        for lp, outcome in zip(lps, warm):
            polyhedra._phase_one.cache_clear()
            assert outcome == _outcome(lp_minimize(lp)) == _outcome(oracles.fraction_lp_minimize(lp))
            offset_zero += any(h.offset == 0 for h in lp.constraints)
            duplicated += len(set(lp.constraints)) < len(lp.constraints)
            zero_entry += 0 in lp.objective
            rational += any(c.denominator > 1 for c in lp.objective)
    assert min(offset_zero, duplicated, zero_entry, rational) >= 100


def test_phase_one_is_solved_once_per_row_set():
    polyhedra._phase_one.cache_clear()
    rows = (HalfSpace((1, 1, 0), 1), HalfSpace((0, 1, 1), 1), HalfSpace((1, 0, 1), 1))
    for objective in ((1, 1, 1), (1, 2, 3), (Fraction(1, 2), 0, 1)):
        lp_minimize(LinearProgram(tuple(map(Fraction, objective)), rows))
    info = polyhedra._phase_one.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_list_normals_are_solved():
    # the cache key copies each normal into a tuple, so a HalfSpace built
    # with a list normal (unhashable) is still accepted
    listed = LinearProgram((Fraction(2), Fraction(1)), (HalfSpace([1, 1], 1), HalfSpace([1, 0], 1)))
    tupled = LinearProgram(listed.objective, (HalfSpace((1, 1), 1), HalfSpace((1, 0), 1)))
    assert _outcome(lp_minimize(listed)) == _outcome(lp_minimize(tupled)) \
        == repr(("optimal", Fraction(2), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))))


def test_the_dual_check_reads_every_column(monkeypatch):
    # min 2 y1 + y2 with y1 + y2 >= 1: phase 1 ends with y1 basic.  Stopping
    # phase 2 there gives u = 2 >= 0 with b.u = 2 = c_B.rhs, so only the
    # column of y2 (u*1 = 2 > 1) shows that this dual is not feasible
    lp = LinearProgram((Fraction(2), Fraction(1)), (HalfSpace((1, 1), 1),))
    polyhedra._phase_one.cache_clear()
    assert lp_minimize(lp).optimum == 1
    monkeypatch.setattr(polyhedra, "_simplex", lambda M, basis, D: D)  # phase 1 is cached
    with pytest.raises(AssertionError, match="dual certificate"):
        lp_minimize(lp)
