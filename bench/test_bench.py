"""Self-test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py

Writes only under .bench_out/selftest in the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3
WORK = run.OUT / "selftest"


def _expected_file(name, corrupt=False):
    """Tiny-scale digests of SEED for every workload, optionally with one
    task digest replaced."""
    variant = str(workloads.variant_of(SEED))
    table = {w: {variant: run.expected_digests(w, SEED, "tiny")} for w in workloads.WORKLOADS}
    if corrupt:
        for entries in table.values():
            entries[variant][0]["tasks"][0] = "0" * 16
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / name
    path.write_text(json.dumps({"tiny": table}), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def expected():
    return _expected_file("expected.json")


def _bench(workload, trace, expected_path, root=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
         "--expected", str(expected_path)],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace, expected):
    lines, result = _bench(workload, trace, expected)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith("  tasks_failed_frac = 0 ") for line in lines)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_digest_counts_as_failed_task():
    lines, result = _bench("staircase2d", 0, _expected_file("corrupt.json", corrupt=True))
    assert not result["correct"] and result["failed"] > 0
    frac = next(line for line in lines if line.startswith("  tasks_failed_frac"))
    assert float(frac.split("=")[1].split()[0]) > 0


def test_times_are_scaled_to_the_reference_speed():
    # a pass on a host at half the reference speed: the probe took twice as long
    slow = {"setup_s": 0.2, "run_s": 2.0, "cpu_s": 1.8, "peak_rss_mb": 20.0,
            "probe_s": 2 * probe.REFERENCE_S}
    metrics = run.end_to_end([slow])
    assert {k: v["value"] for k, v in metrics.items()} == pytest.approx(
        {"setup_s": 0.1, "run_s": 1.0, "cpu_s": 0.9, "peak_rss_mb": 20.0})


def test_every_wrapper_has_a_workload_that_must_fire_it():
    wrapped = {tracer.metric_name(m, a) for m, a in tracer.SPANNED + tracer.COUNTED}
    assert wrapped == {name for names in run.MUST_FIRE.values() for name in names}


def test_refuses_to_run_without_the_library():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "staircase2d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
