"""One timed pass of a workload, in a fresh interpreter.

Reads a request object from stdin:
  {"src": <library source dir>, "configs": [<config JSON text>, ...],
   "trace": bool, "spans_path": <file or null>}
and writes one JSON object to stdout.  A pass pays what a CLI run pays:
interpreter start, import, parse_config (families built), then run + emit for
every config.  Nothing is cached across passes.

The speed probe (probe.py) is timed just before and just after the timed
section; `probe_s` is the mean of the two.

Timestamps are time.perf_counter() values, which on Linux read the
system-wide monotonic clock, so the caller can subtract its own spawn time
from `setup_done`.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from probe import probe_seconds


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def task_record(task: dict) -> dict:
    """A task's report entry without wall-clock data."""
    return {k: task[k] for k in ("index", "op", "status", "result", "error") if k in task}


def emit_digest(files: dict, out_format: str) -> str:
    """Digest of emitted files; JSON reports are compared without `timings`."""
    canon = {}
    for name, data in files.items():
        if out_format == "json":
            report = json.loads(data)
            report.pop("timings", None)
            canon[name] = report
        else:
            canon[name] = data.decode("utf-8")
    return digest(canon)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> None:
    request = json.loads(sys.stdin.read())
    src = Path(request["src"])
    sys.path.insert(0, str(src))
    tracer = None
    if request["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    from resurgence import jobs

    if Path(jobs.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported resurgence from {jobs.__file__}, not from {src}")

    configs = [jobs.parse_config(text) for text in request["configs"]]
    setup_done = time.perf_counter()

    probe_before = probe_seconds()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    outputs = []
    for config in configs:
        report = jobs.run(config)
        files = jobs.emit(report, config.output_format, "report")
        outputs.append((config, report, files))
    t1 = time.perf_counter()
    cpu1 = _cpu_seconds()
    probe_after = probe_seconds()
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    result = {
        "setup_done": setup_done,
        "run_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "probe_s": (probe_before + probe_after) / 2,
        "peak_rss_mb": peak_kib / 1024,
        "configs": [
            {"tasks": [task_record(t) for t in report["tasks"]],
             "emit": emit_digest(files, config.output_format)}
            for config, report, files in outputs
        ],
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
