"""The integer tableau of `lp_minimize` against the Fraction simplex it replaced.

`oracles.fraction_lp_minimize` is the rational two-phase simplex with the
same pivot rules.  The integer tableau must take the same pivots, so the
`repr` of (status, optimum, argmin, dual) must match exactly, including the
argmin and dual that a degenerate LP picks among several.  The seeded LPs add
what `golden/lp_results.json` lacks: rational objectives, and general rows
with coefficients up to 5 whose artificial pivot-out meets negative pivots
and whose pivots leave rows with a zero in the pivot column to be rescaled.
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
    n = rng.randint(2, 6)
    rows = set()
    for _ in range(rng.randint(1, 8)):
        support = rng.sample(range(n), rng.randint(1, n))
        rows.add(tuple(1 if j in support else 0 for j in range(n)))
    return LinearProgram(_objective(rng, n, 0), tuple(HalfSpace(r, 1) for r in sorted(rows)))


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


def _seeded_lps(count=2400):
    rng = random.Random(909)
    return [(_covering_lp if i % 3 == 0 else _general_lp)(rng) for i in range(count)]


def _outcome(res):
    return repr((res.status, res.optimum, res.argmin, res.dual))


def test_integer_tableau_matches_fraction_simplex(monkeypatch):
    pivots = {"negative": 0, "rescaled": 0}
    pivot = polyhedra._pivot

    def counting(M, r, j, D):
        p = M[r][j]
        pivots["negative"] += p < 0
        pivots["rescaled"] += abs(p) != D and any(row[j] == 0 for row in M)
        return pivot(M, r, j, D)

    monkeypatch.setattr(polyhedra, "_pivot", counting)
    statuses = []
    rational = 0
    for i, lp in enumerate(_seeded_lps()):
        expected = oracles.fraction_lp_minimize(lp)
        assert _outcome(lp_minimize(lp)) == _outcome(expected), f"LP {i}"
        statuses.append(expected.status)
        rational += expected.is_optimal and any(c.denominator > 1 for c in lp.objective)
    assert min(statuses.count(s) for s in ("optimal", "infeasible", "unbounded")) >= 100
    assert rational >= 300
    assert pivots["negative"] >= 20 and pivots["rescaled"] >= 1000


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
