"""The benchmark's tracer still binds to the library.

`bench/tracer.py` wraps library functions and methods by name.  A rename in
`src/` that it no longer finds would otherwise show only in a full benchmark
run; here it fails in about a second.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from resurgence import MonomialIdeal, integral_closure, jobs

BENCH = Path(__file__).resolve().parent.parent / "bench"
ALL_OPS = Path(__file__).resolve().parent / "golden" / "all_ops.json"

# each op of the recorded all-ops config whose handler calls a spanned
# function directly, and that function's metric name
OP_SPANS = {
    "beta_table": "invariants.beta",
    "lambda_table": "invariants.lambda_",
    "rho_window": "invariants.rho_window",
    "rho_hat_rees": "invariants.rho_hat_rees",
    "rho_hat_beta": "invariants.rho_hat_beta_limit",
    "rho_exact": "invariants.rho_exact_certified",
    "waldschmidt": "valuations.skew_waldschmidt",
    "validate_graded": "families.validate_graded",
    "validate_filtration": "families.validate_filtration",
    "rees_valuations": "closures.rees_valuations",
    "newton_polyhedron": "closures.newton_polyhedron",
}


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def originals(tracer):
    found = {}
    for module, attr in tracer.SPANNED + tracer.COUNTED:
        holder = importlib.import_module(f"resurgence.{module}")
        for part in attr.split("."):
            holder = getattr(holder, part)
        found[(module, attr)] = holder
    return found


def test_every_binding_resolves_and_is_restored(tracer_module):
    before = originals(tracer_module)
    trace = tracer_module.Tracer()
    try:
        trace.install()
        wrapped = originals(tracer_module)
        assert all(wrapped[key] is not before[key] for key in before)
        left = MonomialIdeal.from_generators(2, [(4, 0), (1, 1), (0, 4)])
        right = integral_closure(MonomialIdeal.from_generators(2, [(3, 0), (0, 3)]), 1)
        assert left.witness_not_in(right) == (1, 1)
    finally:
        trace.uninstall()
    assert trace.counts["monomials.contains.calls"] > 0
    assert trace.counts["monomials.witness_not_in.calls"] == 1
    assert originals(tracer_module) == before


@pytest.mark.parametrize("op, span", sorted(OP_SPANS.items()))
def test_the_tracer_sees_the_function_each_op_calls(tracer_module, op, span):
    # a handler that bound its function at import would call the original,
    # which the tracer cannot replace, and its span would never fire
    raw = json.loads(ALL_OPS.read_text())
    raw["tasks"] = [next(task for task in raw["tasks"] if task["op"] == op)]
    config = jobs.parse_config(json.dumps(raw))
    trace = tracer_module.Tracer()
    try:
        trace.install()
        (task,) = jobs.run(config)["tasks"]
    finally:
        trace.uninstall()
    assert task["status"] == "ok"
    assert trace.counts[f"{span}.calls"] > 0
