"""Benchmark of the resurgence batch-job pipeline.

    python3 bench/run.py --workload staircase2d --seed 0 --seconds 40 --trace 0

Each pass runs one workload's generated configs through the public
`resurgence.jobs` API (parse_config -> run -> emit), as the CLI does, in a
fresh interpreter, so member and hull caches are paid on every pass.  Passes
repeat until --seconds is used up; every task result of every pass is checked
against committed digests (bench/expected.json) and the paper's values.

--trace 0 prints the end-to-end metrics (medians over passes).  Times are
scaled to a reference host speed: each pass also times a fixed pure-Python
probe (bench/probe.py) just before and after its timed section, and a time t
is reported as t * probe.REFERENCE_S / probe time, because the shared host's
speed drifts by up to 1.8x between minutes.  The unscaled medians are printed
too.  --trace 1 alternates plain and traced passes and prints the per-layer
metrics of bench/tracer.py (self times scaled the same way), with the
traced/plain run_s ratio as the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed, metrics.

    python3 bench/run.py --record bench/expected.json

re-records the expected digests of every workload and input variant.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

sys.path.insert(0, str(BENCH))
import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import digest  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def _per_layer():
    extra = {
        "monomials.minimize_monomials": ("gens_in", "gens_kept"),
        "monomials.minimal_lattice_points": ("points_scanned",),
        "polyhedra.hull_with_recession": ("points_in", "facets_out", "vertices_out"),
        "polyhedra.lp_minimize": ("constraints_in",),
        "families.member": ("computed",),
        "invariants.beta": ("probes",),
        "jobs.emit": ("bytes",),
    }
    quantities = {
        "closures.newton_polyhedron": ("calls", "cache_hits"),
        "jobs.parse_config": ("self_s",),
        "jobs.emit": ("self_s", "bytes"),
    }
    metrics = []
    for module, attr in tracer.SPANNED + tracer.COUNTED:
        name = tracer.metric_name(module, attr)
        spanned = (module, attr) in tracer.SPANNED
        default = ("calls", "self_s") + extra.get(name, ()) if spanned else ("calls",)
        for quantity in quantities.get(name, default):
            unit = {"self_s": "s", "bytes": "bytes"}.get(quantity, "count")
            metrics.append((f"{name}.{quantity}", unit))
        if name == "valuations.skew_waldschmidt":
            metrics += [(f"{name}.method.{m}", "count") for m in tracer.WALDSCHMIDT_METHODS]
    metrics += [(f"{module}.self_s", "s") for module in tracer.MODULES if module != "cli"]
    metrics.append(("trace.overhead_ratio", "ratio"))
    return tuple(metrics)


PER_LAYER = _per_layer()

# Wrappers each workload exists to exercise; one that never fires there fails
# the traced run, because its layer metrics would then measure nothing.
MUST_FIRE = {
    "staircase2d": (
        "monomials.is_subset_of", "monomials.witness_not_in", "monomials.multiply",
        "monomials.power", "monomials.add", "monomials.contains",
        "monomials.minimize_monomials", "families.member", "families.validate_graded",
        "families.validate_filtration", "invariants.beta", "invariants.lambda_",
        "invariants.rho_window", "invariants.rho_hat_beta_limit", "jobs.parse_config",
        "jobs.emit",
    ),
    "closure3d": (
        "monomials.minimize_monomials", "monomials.minimal_lattice_points",
        "polyhedra.hull_with_recession", "closures.newton_polyhedron",
        "closures.rees_valuations", "closures.bequiv_constant",
        "families.validate_filtration", "invariants.rho_exact_certified",
        "jobs.parse_config", "jobs.emit",
    ),
    "symbolic": (
        "monomials.minimal_lattice_points", "polyhedra.hull_with_recession",
        "polyhedra.lp_minimize", "closures.minimal_covers", "closures.rees_valuations",
        "valuations.skew_waldschmidt", "invariants.rho_hat_rees", "jobs.parse_config",
        "jobs.emit",
    ),
}

# The layer predicted to dominate self time on each workload: monomials on
# staircase2d, the DD hull on closure3d, LP/covers/lattice/hull on symbolic.
PREDICTED = {
    "staircase2d": ("module", {"monomials"}),
    "closure3d": ("function", {"polyhedra.hull_with_recession"}),
    "symbolic": ("function", {"polyhedra.lp_minimize", "closures.minimal_covers",
                              "monomials.minimal_lattice_points",
                              "polyhedra.hull_with_recession"}),
}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(texts, trace, spans_path=None):
    """Run one pass in a fresh interpreter; returns the worker's result."""
    request = json.dumps({"src": str(SRC), "configs": texts, "trace": trace,
                          "spans_path": spans_path})
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=request,
                          capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=PASS_TIMEOUT_S)
    wall = time.perf_counter() - spawned
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout)
    result["setup_s"] = result.pop("setup_done") - spawned
    result["wall_s"] = wall
    return result


def check_pass(workload, texts, result, expected):
    """(attempted, failed, problems): each task and each emitted report is one
    item, failed when its status is not ok or its digest is not the expected
    one.  `expected` is None when no digests exist for these inputs."""
    attempted = failed = 0
    problems = []
    for ci, config in enumerate(result["configs"]):
        want = expected[ci] if expected is not None and ci < len(expected) else None
        items = [(f"config {ci} task {t['index']} ({t['op']})", t["status"] == "ok",
                  digest(t), want["tasks"][ti] if want and ti < len(want["tasks"]) else None)
                 for ti, t in enumerate(config["tasks"])]
        items.append((f"config {ci} emitted report", True, config["emit"],
                      want["emit"] if want else None))
        for label, ok, got, wanted in items:
            attempted += 1
            if not ok or got != wanted:
                failed += 1
                problems.append(f"{label}: " + ("status not ok" if not ok else
                                                "no expected digest" if wanted is None else
                                                "result differs from the expected one"))
    results = [config["tasks"] for config in result["configs"]]
    problems += workloads.paper_checks(workload, texts, results)
    return attempted, failed, problems


def measure(workload, texts, seconds, trace, seed):
    """Plain passes (and, with trace, traced passes alternating with them)
    until `seconds` are used; stops early rather than overrun."""
    OUT.mkdir(exist_ok=True)
    spans_path = str(OUT / f"spans-{workload}-seed{seed}.tsv") if trace else None
    plain, traced, history = [], [], []
    started = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        history.append(run_pass(texts, use_trace, spans_path))
        (traced if use_trace else plain).append(history[-1])
        elapsed = time.perf_counter() - started
        if trace:
            done = len(plain) >= MIN_TRACED_PASSES and len(traced) >= MIN_TRACED_PASSES
        else:
            done = len(plain) >= MIN_PASSES
        upcoming = max(p["wall_s"] for p in history[-3:])
        if done and elapsed + upcoming > seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def scaled(p, seconds):
    """A time measured in pass p, in seconds at the reference host speed."""
    return seconds * probe.REFERENCE_S / p["probe_s"]


def end_to_end(plain):
    return {name: {"value": statistics.median(scaled(p, p[name]) if unit == "s" else p[name]
                                              for p in plain), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(plain, traced, problems):
    summaries = [p["trace"] for p in traced]
    # JSON reports carry their wall-clock timings, so emitted bytes vary a
    # little; every other counter must repeat exactly.
    varying = {"jobs.emit.bytes"}

    def counters(summary):
        return {k: v for k, v in summary.items() if not k.endswith("self_s") and k not in varying}

    if any(counters(s) != counters(summaries[0]) for s in summaries[1:]):
        problems.append("trace counters differ between identical passes")
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = (statistics.median(scaled(p, p["run_s"]) for p in traced)
                     / statistics.median(scaled(p, p["run_s"]) for p in plain))
        elif unit == "s":
            value = statistics.median(scaled(p, p["trace"].get(name, 0)) for p in traced)
        else:
            value = statistics.median_low(s.get(name, 0) for s in summaries)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def coverage_problems(workload, traced):
    fired = traced[0]["trace"]
    return [f"wrapper {name} never fired on {workload}"
            for name in MUST_FIRE[workload] if not fired.get(name + ".calls")]


def dominant_layer(workload, metrics):
    """A report line naming the layer with the most self time, and whether it
    is the predicted one."""
    kind, predicted = PREDICTED[workload]
    if kind == "module":
        candidates = {m: metrics[f"{m}.self_s"]["value"]
                      for m in tracer.MODULES if m != "cli"}
    else:
        candidates = {name[: -len(".self_s")]: v["value"] for name, v in metrics.items()
                      if name.endswith(".self_s") and name.count(".") == 2}
    top = max(candidates, key=candidates.get)
    total = sum(candidates.values())
    verdict = "matches the prediction" if top in predicted else \
        f"MISMATCH: predicted {' or '.join(sorted(predicted))}"
    return f"dominant {kind} by self time: {top} ({candidates[top] / total:.0%}) - {verdict}"


def environment():
    sha = None
    if (ROOT / ".git").exists():  # benchmark checkouts are often plain file trees
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "resurgence").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha, "src_lines": src_lines}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def load_expected(path, scale, workload, seed):
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return data.get(scale, {}).get(workload, {}).get(str(workloads.variant_of(seed)))


def benchmark(args):
    texts = workloads.configs(args.workload, args.seed, args.scale)
    expected = load_expected(args.expected, args.scale, args.workload, args.seed)
    plain, traced = measure(args.workload, texts, args.seconds, args.trace, args.seed)

    attempted = failed = 0
    problems = []
    for p in plain + traced:
        a, f, probs = check_pass(args.workload, texts, p, expected)
        attempted, failed = attempted + a, failed + f
        problems += [q for q in probs if q not in problems]
    if args.trace:
        problems += coverage_problems(args.workload, traced)
        metrics = per_layer(plain, traced, problems)
    else:
        metrics = end_to_end(plain)

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "environment": env,
              "passes": [{k: p[k] for k in ("setup_s", "run_s", "cpu_s", "probe_s", "wall_s")}
                         for p in plain],
              "traced_passes": [{k: p[k] for k in ("run_s", "probe_s", "wall_s")}
                                for p in traced],
              "attempted": attempted, "failed": failed, "problems": problems,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} (variant "
          f"{workloads.variant_of(args.seed)}): {len(plain)} plain, {len(traced)} traced passes")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        raw = {name: statistics.median(p[name] for p in plain)
               for name in ("setup_s", "run_s", "cpu_s", "probe_s")}
        print("  unscaled medians: " + ", ".join(f"{k} = {v:.6g} s" for k, v in raw.items()))
    print(f"  tasks_failed_frac = {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    if args.trace:
        print(dominant_layer(args.workload, metrics))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def expected_digests(workload, variant, scale):
    """One pass's digests, for recording; refuses results that are not ok."""
    texts = workloads.configs(workload, variant, scale)
    result = run_pass(texts, trace=False)
    bad = [f"{t['op']}: {t.get('error')}" for c in result["configs"]
           for t in c["tasks"] if t["status"] != "ok"]
    bad += workloads.paper_checks(workload, texts, [c["tasks"] for c in result["configs"]])
    if bad:
        raise SystemExit(f"{workload} variant {variant} fails: {bad}")
    return [{"tasks": [digest(t) for t in c["tasks"]], "emit": c["emit"]}
            for c in result["configs"]]


def record(args):
    """Write the expected digests of every workload and variant at one scale."""
    path = Path(args.record)
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    table = data.setdefault(args.scale, {})
    for workload in ([args.workload] if args.workload else workloads.WORKLOADS):
        table[workload] = {str(v): expected_digests(workload, v, args.scale)
                           for v in range(workloads.VARIANTS)}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="expected-digest file to check results against")
    parser.add_argument("--record", metavar="PATH",
                        help="record expected digests into PATH instead of measuring")
    args = parser.parse_args(argv)
    if not (SRC / "resurgence" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record(args)
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
