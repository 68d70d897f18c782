"""The library still produces the benchmark's committed digests.

`bench/expected.json` holds a digest of every task result and emitted report
of each workload's inputs.  A change to any report byte would otherwise show
only in a full benchmark run; here variant 0 of each workload is run once
through `bench/run.py` and compared, and every variant's configs are parsed.
Nothing under `bench/` is written.
"""

import json
import sys
from pathlib import Path

import pytest

from resurgence.jobs import parse_config

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("run", "probe", "tracer", "workloads", "worker")


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    yield run
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["staircase2d", "closure3d", "symbolic"])
def test_variant_zero_matches_the_committed_digests(bench_run, workload):
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    assert bench_run.expected_digests(workload, 0, "full") == expected["full"][workload]["0"]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    yield workloads
    sys.modules.pop("workloads", None)


@pytest.mark.parametrize("scale", ["full", "tiny"])
@pytest.mark.parametrize("workload", ["staircase2d", "closure3d", "symbolic"])
def test_every_generated_config_parses(workloads, workload, scale):
    # parsing only: a tighter schema must still accept every config the benchmark runs
    for variant in range(workloads.VARIANTS):
        for text in workloads.configs(workload, variant, scale):
            assert parse_config(text).tasks
