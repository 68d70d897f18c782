"""The exact LP solver against recorded results of seeded LPs.

`golden/lp_results.json` holds, for each LP, its input and its
(status, optimum, argmin, dual).  Bland's rule fixes every pivot, so these
records pin the whole pivot path: a different entering column, leaving row or
tie-break moves an argmin or a dual of some degenerate LP here.  The LPs are:

  * fractional edge-cover LPs of random graphs and hypergraphs on 4-12
    vertices (sum over each edge >= 1), unit weights for half of them, so
    many are degenerate;
  * symbolic-power cover LPs (one row per minimal vertex cover), as
    `valuations._symbolic_waldschmidt` builds them;
  * general LPs with offsets in -3..3, some infeasible and some unbounded.

`lp_minimize` reproduces every covering record (the first 120 and the general
ones that happen to be covering) and refuses the rest with a `DomainError`;
`oracles.fraction_lp_minimize` reproduces every record.

Re-record only on purpose, after checking that a change of results is meant:

    PYTHONPATH=src python tests/test_lp_golden.py --record
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from resurgence import DomainError, HalfSpace, LinearProgram, MonomialIdeal, lp_minimize
from resurgence.closures import minimal_covers

import oracles

GOLDEN = Path(__file__).resolve().parent / "golden" / "lp_results.json"


def _edges(rng, nvars, max_size):
    """A random hypergraph on range(nvars) with every vertex in some edge."""
    edges = set()
    for _ in range(rng.randint(nvars // 2 + 1, 2 * nvars)):
        edges.add(frozenset(rng.sample(range(nvars), rng.randint(2, max_size))))
    edges |= {frozenset((v, (v + 1) % nvars)) for v in range(nvars)
              if not any(v in e for e in edges)}
    return sorted(tuple(sorted(e)) for e in edges)


def _indicator(nvars, support):
    return tuple(1 if i in support else 0 for i in range(nvars))


def _weights(rng, nvars):
    return [1] * nvars if rng.random() < 0.5 else [rng.randint(0, 4) for _ in range(nvars)]


def generate():
    """The seeded LPs, as (objective, [(normal, offset), ...]) in plain ints."""
    rng = random.Random(20260)
    lps = []
    for i in range(80):
        nvars = rng.randint(4, 12)
        edges = _edges(rng, nvars, 2 if i % 2 == 0 else 4)
        lps.append((_weights(rng, nvars), [(_indicator(nvars, e), 1) for e in edges]))
    while len(lps) < 120:
        nvars = rng.randint(4, 8)
        ideal = MonomialIdeal.from_generators(
            nvars, [_indicator(nvars, e) for e in _edges(rng, nvars, 3)])
        covers = minimal_covers(ideal)
        if len(covers) <= 24:
            lps.append((_weights(rng, nvars), [(c, 1) for c in covers]))
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 7)
        objective = [rng.randint(-2, 4) for _ in range(n)]
        rows = []
        for _ in range(m):
            normal = [rng.randint(-2, 3) for _ in range(n)]
            if not any(normal):
                normal[rng.randrange(n)] = 1
            rows.append((tuple(normal), rng.randint(-3, 3)))
        lps.append((objective, rows))
    return lps


def _lp(objective, rows):
    return LinearProgram(tuple(Fraction(c) for c in objective),
                         tuple(HalfSpace(tuple(normal), offset) for normal, offset in rows))


def solve(lp, solver) -> dict:
    res = solver(lp)
    return {"status": res.status,
            "optimum": None if res.optimum is None else str(res.optimum),
            "argmin": _strings(res.argmin), "dual": _strings(res.dual)}


def _strings(values):
    return None if values is None else [str(v) for v in values]


def _records():
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def record():
    lines = []
    for obj, rows in generate():
        lp = _lp(obj, rows)
        solver = lp_minimize if oracles.is_covering(lp) else oracles.fraction_lp_minimize
        lines.append(json.dumps({"objective": list(obj), "constraints": [[list(n), o] for n, o in rows],
                                 "result": solve(lp, solver)}, separators=(",", ":")))
    GOLDEN.write_text("\n".join(lines) + "\n")


def test_golden_covers_every_outcome():
    statuses = [r["result"]["status"] for r in _records()]
    assert len(statuses) == 320
    assert min(statuses.count(s) for s in ("optimal", "infeasible", "unbounded")) >= 20


def test_inputs_match_the_generator():
    assert [(r["objective"], [(tuple(n), o) for n, o in r["constraints"]]) for r in _records()] \
        == [(list(obj), [(tuple(n), o) for n, o in rows]) for obj, rows in generate()]


def test_results_match_golden():
    covering = 0
    for i, rec in enumerate(_records()):
        lp = _lp(rec["objective"], rec["constraints"])
        assert solve(lp, oracles.fraction_lp_minimize) == rec["result"], f"LP {i}"
        if oracles.is_covering(lp):
            covering += 1
            assert solve(lp, lp_minimize) == rec["result"], f"LP {i}"
        else:
            with pytest.raises(DomainError):
                lp_minimize(lp)
    assert covering >= 120


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
