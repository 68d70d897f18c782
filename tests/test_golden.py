"""Whole configs run end to end: recorded reports compared byte for byte,
the documented example configs required to run without a task error, and
the README's library quick start required to show the values it comments."""

import ast
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from resurgence import finite, jobs
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


def _quick_start_values():
    """Each expression statement of the README's python block, evaluated in
    order with the statements before it, paired with the comment that gives
    its value: on the same line, else on the next."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines() + [""]
    namespace: dict = {}
    shown = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = (lines[node.end_lineno - 1].partition("#")[2]
                       or lines[node.end_lineno].partition("#")[2])
            shown.append((value, comment.strip()))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return shown


def test_readme_quick_start_shows_its_commented_values():
    (valuations, c1), (waldschmidt, c2), (rho_hat, c3), (claims, c4), (rho, c5) = _quick_start_values()
    assert valuations == ast.literal_eval(c1) == (
        ((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1), ((1, 1, 1), 2))
    assert (waldschmidt, c2) == (Fraction(3, 2), "Fraction(3, 2)")
    assert rho_hat == finite(Fraction(2, 3)) and c3.startswith(f"{rho_hat},")
    # the comment lists a prefix of the claims and ends in "..."
    prefix = ast.literal_eval(c4.removesuffix(", ...)") + ")")
    assert len(prefix) == 2 and claims[:2] == prefix
    assert rho == finite(Fraction(3, 2)) and c5.startswith(f"{rho},")


def test_readme_lists_the_keys_each_op_reads():
    # one list per table, in this order, each a paragraph of its own
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lists = [re.findall(r"^- `(\w+)`: (?:`([^`]*)`|\(no keys\))$", block, re.M) for block in text.split("\n\n")]
    tables = (jobs.FAMILY_KINDS, jobs.EXPONENT_RULES, jobs.EXPRESSION_NODES, jobs.OPS)
    assert [found for found in lists if found] == [
        [(name, entry.reads) for name, entry in table.items()] for table in tables]


@pytest.mark.parametrize("source", ["README.md", "jobs/triangle.json", "jobs/periodic.json"])
def test_documented_configs_run_clean(source):
    text = _readme_config() if source == "README.md" else (ROOT / source).read_text()
    report = run(parse_config(text))
    assert report["tasks"]
    assert [t["status"] for t in report["tasks"]] == ["ok"] * len(report["tasks"])
