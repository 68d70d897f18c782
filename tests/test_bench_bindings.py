"""The benchmark's tracer still binds to the library.

`bench/tracer.py` wraps library functions and methods by name.  A rename in
`src/` that it no longer finds would otherwise show only in a full benchmark
run; here it fails in about a second.
"""

import importlib
import sys
from pathlib import Path

import pytest

from resurgence import MonomialIdeal, integral_closure

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
