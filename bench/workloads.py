"""Job configs for the benchmark workloads, generated from a seed.

The library only ever sees the JSON text built here.  A seed selects one of
VARIANTS input variants (variant = seed % VARIANTS), so the same seed always
gives the same configs and every variant has committed expected digests.
Variant 0 is the default: the paper's and ROADMAP's inputs as written.

Seeds change the inputs without changing how much work they are: the cost of
a pass must not depend on the seed, or the seed-to-seed spread would swamp a
real speed change.
  * staircase2d: the families are fixed by the paper; odd variants mirror
    the two variables.
  * closure3d: every seed uses ROADMAP's ideal I = (x^3y, y^2z^3, xz^4, x^2y^2z).
    Drawing other 4-generator ideals with exponents <= 4 was tried: even with
    the generator counts of I^1..I^5 matched, the fastest pass of a 30 s run
    ranged from 1.1 s to 1.8 s over ten drawn ideals, and the fastest of
    three passes from 1.25 s to 1.63 s over the six variable orders of I, so
    the seed would have decided the measured time.
  * symbolic: a seed orders the graph's Waldschmidt tasks; each task
    recomputes its covers and LP, so the order does not change the work.
    Relabelling the vertices and drawing the weights per seed was tried: it
    moves the Bland-rule pivots, and the fastest pass of a 30 s run ranged
    from 1.30 s to 1.49 s over ten seeds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

VARIANTS = 32
WORKLOADS = ("staircase2d", "closure3d", "symbolic")

# Per-pass sizes.  "full" is what the benchmark measures; "tiny" is the
# self-test size.  Every size must succeed at the seed commit: for example the
# 7-cycle beta table stops at s = 5 because s = 6 needs 7^6 = 117,649 lattice
# points, above MATERIALIZE_CAP.
SIZES = {
    "full": {
        "stair_s": 60, "stair_n": 60, "stair_nmax": 120, "stair_cutoff": 300,
        "stair_filtration": 40, "stair_graded": 20, "periodic_s": 24,
        "closure_horizon": 5, "sum_horizon": 4, "closure_n": 3,
        "graph_weights": 8, "cycle_s": 5, "cycle_power": 3,
    },
    "tiny": {
        "stair_s": 6, "stair_n": 6, "stair_nmax": 12, "stair_cutoff": 40,
        "stair_filtration": 6, "stair_graded": 4, "periodic_s": 9,
        "closure_horizon": 2, "sum_horizon": 2, "closure_n": 2,
        "graph_weights": 1, "cycle_s": 2, "cycle_power": 2,
    },
}

ROADMAP_IDEAL = [[3, 1, 0], [0, 2, 3], [1, 0, 4], [2, 2, 1]]
TRIANGLE_JOB = Path(__file__).with_name("triangle.json")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def configs(workload: str, seed: int, scale: str = "full") -> list[str]:
    """The workload's job configs, as JSON texts, for one seed."""
    variant = variant_of(seed)
    rng = random.Random(f"{workload}:{variant}")
    size = SIZES[scale]
    build = {"staircase2d": _staircase2d, "closure3d": _closure3d, "symbolic": _symbolic}
    return [json.dumps(cfg, sort_keys=True) for cfg in build[workload](variant, rng, size)]


# ---------------------------------------------------------------------------
# staircase2d
# ---------------------------------------------------------------------------


def _staircase2d(variant, rng, size):
    mirror = variant % 2 == 1

    def gens(*vectors):
        return [list(reversed(v)) if mirror else list(v) for v in vectors]

    # acceptance criterion 03: powers(m) against b_n = x^ceil(n/2) + y^2 m^(ceil(n/2)-1)
    stair = {
        "vars": 2,
        "ideals": {"x": gens([1, 0]), "y2": gens([0, 2]), "m": gens([1, 0], [0, 1])},
        "families": {
            "a": {"kind": "powers", "ideal": "m"},
            "b": {"kind": "expression", "expr": {"sum": [
                {"power": {"ideal": "x"}, "exponent": {"fn": "ceil_mul", "ratio": "1/2"}},
                {"product": [{"ideal": "y2"}, {"power": {"ideal": "m"}, "exponent":
                             {"fn": "ceil_mul", "ratio": "1/2", "offset": -1}}]},
            ]}},
        },
        "tasks": [
            {"op": "beta_table", "a": "a", "b": "b", "s_to": size["stair_s"],
             "cutoff": size["stair_cutoff"]},
            {"op": "lambda_table", "a": "a", "b": "b", "n_to": size["stair_n"],
             "cutoff": size["stair_cutoff"]},
            {"op": "rho_window", "a": "a", "b": "b", "s_max": 30, "r_max": 70},
            {"op": "rho_hat_beta", "a": "a", "b": "b", "n_max": size["stair_nmax"],
             "cutoff": size["stair_cutoff"]},
            {"op": "validate_filtration", "family": "b", "horizon": size["stair_filtration"]},
            {"op": "validate_graded", "family": "b", "horizon": size["stair_graded"]},
        ],
        "output": {"format": "csv"},
    }
    # the period-3 graded-but-not-filtration pair of jobs/periodic.json
    periodic = {
        "vars": 2,
        "ideals": {
            "b1": gens([3, 0], [0, 3]),
            "b2": gens([4, 0], [3, 1], [1, 3], [0, 4]),
            "a2": gens([4, 0], [3, 1], [2, 2], [1, 3], [0, 4]),
        },
        "families": {
            "b": {"kind": "periodic", "period": 3, "patterns": {
                "1": {"ideal": "b1"}, "2": {"ideal": "b2"},
                "0": {"product": [{"ideal": "b1"}, {"ideal": "b2"}]}}},
            "a": {"kind": "periodic", "period": 3, "patterns": {
                "1": {"ideal": "b1"}, "2": {"ideal": "a2"},
                "0": {"product": [{"ideal": "b1"}, {"ideal": "a2"}]}}},
            "bprime": {"kind": "expression", "expr": {"sum": [
                {"family": "b", "shift": 0},
                {"product": [{"family": "b", "shift": -2}, {"ideal": "a2"}]}]}},
        },
        "tasks": [
            {"op": "validate_graded", "family": "b", "horizon": 12},
            {"op": "validate_graded", "family": "bprime", "horizon": 10},
            {"op": "validate_filtration", "family": "a", "horizon": 6},
            {"op": "rho_window", "a": "a", "b": "b", "s_max": 15, "r_max": 3},
            {"op": "beta_table", "a": "a", "b": "bprime", "s_to": size["periodic_s"],
             "cutoff": 60},
        ],
        "output": {"format": "csv"},
    }
    return [stair, periodic]


# ---------------------------------------------------------------------------
# closure3d
# ---------------------------------------------------------------------------


def _closure3d(variant, rng, size):
    horizon = size["closure_horizon"]
    cfg = {
        "vars": 3,
        "ideals": {
            "I": ROADMAP_IDEAL, "J": [[2, 2, 2]],
            "tri": [[1, 1, 0], [1, 0, 1], [0, 1, 1]],
        },
        "families": {
            # I^n as an expression, so every closure member needs its own hull
            "e": {"kind": "expression", "expr": {"power": {"ideal": "I"},
                                                 "exponent": {"fn": "affine", "a": 1}}},
            "cl": {"kind": "closure", "family": "e"},
            "s": {"kind": "expression", "expr": {"sum": [
                {"family": "e", "shift": 0},
                {"product": [{"ideal": "J"}, {"family": "e", "shift": -1}]}]}},
            "cs": {"kind": "closure", "family": "s"},
            "ts": {"kind": "symbolic", "ideal": "tri"},
            "tp": {"kind": "powers", "ideal": "tri"},
            "tc": {"kind": "closure_powers", "ideal": "tri"},
        },
        "tasks": [
            {"op": "validate_filtration", "family": "cl", "horizon": horizon},
            {"op": "validate_filtration", "family": "cs", "horizon": size["sum_horizon"]},
            {"op": "newton_polyhedron", "ideal": "I"},
            {"op": "rees_valuations", "ideal": "I"},
            {"op": "integral_closure", "ideal": "I", "n": size["closure_n"]},
            {"op": "b_equivalent", "family": "cl", "ideal": "I", "k": 2,
             "horizon": max(horizon - 2, 1)},
            {"op": "standard_veronese", "family": "cl", "k": 2, "horizon": horizon // 2},
            {"op": "rho_exact", "a": "ts", "b": "tp"},
            {"op": "rho_exact", "a": "tc", "b": "tp"},
            {"op": "b_equivalent", "family": "tc", "ideal": "tri", "k": 2, "horizon": 6},
            {"op": "standard_veronese", "family": "ts", "k": 2, "horizon": 4},
        ],
        "output": {"format": "json"},
    }
    return [cfg]


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

# A 12-vertex graph with 16 minimal vertex covers: its fractional-cover LPs
# cost about 0.07 s each at the seed commit.
GRAPH12 = [(0, 3), (0, 5), (0, 9), (1, 4), (1, 7), (1, 11), (2, 6), (2, 8), (2, 10),
           (3, 7), (4, 10), (5, 8), (6, 11), (7, 9), (8, 11), (3, 10), (5, 6), (4, 9)]
GRAPH12_WEIGHTS = [
    [4, 4, 1, 3, 5, 4, 4, 3, 4, 3, 5, 2],
    [5, 2, 3, 2, 1, 5, 3, 5, 5, 2, 3, 1],
    [1, 3, 4, 5, 1, 3, 4, 3, 5, 2, 5, 4],
    [4, 5, 3, 1, 5, 1, 1, 4, 1, 5, 4, 3],
    [2, 3, 1, 2, 5, 2, 2, 2, 5, 4, 1, 1],
    [3, 5, 4, 1, 3, 5, 3, 1, 5, 3, 5, 2],
    [5, 5, 5, 3, 4, 1, 5, 4, 3, 5, 2, 3],
    [2, 2, 2, 1, 5, 3, 4, 1, 1, 2, 2, 1],
]


def _edge_vectors(nvars, edges):
    return sorted([1 if k in edge else 0 for k in range(nvars)] for edge in edges)


def _symbolic(variant, rng, size):
    tasks = [{"op": "waldschmidt", "family": "a", "weights": w}
             for w in GRAPH12_WEIGHTS[:size["graph_weights"]]]
    if variant:
        rng.shuffle(tasks)
    graph = {
        "vars": 12,
        "ideals": {"G": _edge_vectors(12, GRAPH12)},
        "families": {"a": {"kind": "symbolic", "ideal": "G"}},
        "tasks": tasks,
        "output": {"format": "json"},
    }
    cycle = {
        "vars": 7,
        "ideals": {
            "C": _edge_vectors(7, [(i, (i + 1) % 7) for i in range(7)]),
            "m": [[1 if k == i else 0 for k in range(7)] for i in range(7)],
        },
        "families": {
            "a": {"kind": "symbolic", "ideal": "C"},
            "b": {"kind": "powers", "ideal": "m"},
            "c": {"kind": "powers", "ideal": "C"},
        },
        "tasks": [
            {"op": "symbolic_power", "ideal": "C", "n": size["cycle_power"]},
            {"op": "beta_table", "a": "a", "b": "b", "s_to": size["cycle_s"], "cutoff": 40},
            {"op": "rho_hat_rees", "a": "a", "b": "c"},
        ],
        "output": {"format": "json"},
    }
    triangle = json.loads(TRIANGLE_JOB.read_text(encoding="utf-8"))
    return [graph, cycle, triangle]


# ---------------------------------------------------------------------------
# paper values, asserted on every pass whatever the seed
# ---------------------------------------------------------------------------


def _fraction(node):
    return Fraction(int(node["num"]), int(node["den"]))


def _rho_window_is_one_at_1_1(result):
    return _fraction(result["value"]) == 1 and result["witnesses"][0][:2] == [1, 1]


# (config index, task op, task family or None, predicate on the result, claim)
PAPER_VALUES = {
    "staircase2d": (
        (0, "rho_window", None, _rho_window_is_one_at_1_1,
         "staircase pair: rho_window = 1 at (1,1)"),
        (1, "rho_window", None, lambda r: _fraction(r["value"]) >= 5,
         "period-3 pair: rho_window >= 5"),
    ),
    "closure3d": (
        (0, "validate_filtration", "cl", lambda r: r["holds"],
         "closures of I^n form a filtration"),
        (0, "b_equivalent", "cl", lambda r: r["holds"],
         "Briancon-Skoda: closure(I^(i+2)) <= I^i in 3 variables"),
    ),
    "symbolic": (
        (2, "waldschmidt", "a", lambda r: _fraction(r["upper"]) == Fraction(3, 2),
         "triangle: Waldschmidt constant 3/2"),
        (2, "rho_hat_rees", None, lambda r: _fraction(r["value"]) == Fraction(2, 3),
         "triangle: asymptotic resurgence 2/3"),
    ),
}


def paper_checks(workload: str, config_texts: list[str], results: list[list[dict]]) -> list[str]:
    """The paper's values that one pass's results get wrong (empty if none)."""
    problems = []
    for ci, op, family, holds, claim in PAPER_VALUES[workload]:
        tasks = json.loads(config_texts[ci])["tasks"]
        found = [r for task, r in zip(tasks, results[ci])
                 if task["op"] == op and family in (None, task.get("family"))]
        if not found or any(r["status"] != "ok" or not holds(r["result"]) for r in found):
            problems.append(f"expected {claim}")
    return problems
