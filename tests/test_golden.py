"""Whole configs run end to end: recorded reports compared byte for byte,
and the documented example configs required to run without a task error."""

import json
import re
from pathlib import Path

import pytest

from resurgence import jobs
from resurgence.jobs import emit, parse_config, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _report_bytes(config_text: str) -> bytes:
    report = run(parse_config(config_text))
    report.pop("timings")
    return emit(report, "json", "report")["report.json"]


def test_all_ops_report_matches_the_recording():
    # recorded before the op table and the family pass replaced the if-chains
    recorded = (GOLDEN / "all_ops_report.json").read_bytes()
    assert _report_bytes((GOLDEN / "all_ops.json").read_text()) == recorded


@pytest.mark.parametrize("job", ["triangle", "periodic"])
def test_shipped_job_report_matches_the_recording(job):
    # recorded before the family kinds became constructor-set facts
    recorded = (GOLDEN / f"{job}_report.json").read_bytes()
    assert _report_bytes((ROOT / "jobs" / f"{job}.json").read_text()) == recorded


def test_all_ops_config_covers_every_op_and_family_kind():
    raw = json.loads((GOLDEN / "all_ops.json").read_text())
    assert {task["op"] for task in raw["tasks"]} == set(jobs.OPS)
    assert {node["kind"] for node in raw["families"].values()} == set(jobs.FAMILY_KINDS)


def _readme_config() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"```json\n(.*?)```", text, re.S).group(1)


@pytest.mark.parametrize("source", ["README.md", "jobs/triangle.json", "jobs/periodic.json"])
def test_documented_configs_run_clean(source):
    text = _readme_config() if source == "README.md" else (ROOT / source).read_text()
    report = run(parse_config(text))
    assert report["tasks"]
    assert [t["status"] for t in report["tasks"]] == ["ok"] * len(report["tasks"])
