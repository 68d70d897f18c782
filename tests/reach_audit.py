"""Run tier-1 under a line trace of src/resurgence/ and report every statement it never reaches.

    python tests/reach_audit.py

Every statement of the library should be reached by a test, or be listed in
tests/reach_allowlist.txt with the reason it cannot be.  The script exits 1
when a statement is unreached and not listed, or when a listed statement is
reached (the list only shrinks), and 2 when tier-1 itself fails.

An allowlist entry is one line, ``module :: qualname :: statement :: reason``,
where the statement is the first line of ``ast.unparse`` of it, so entries
survive edits elsewhere in the file and the line events of each Python
version.  Blank lines and lines starting with ``#`` are ignored.

Only the standard library is used beyond pytest, so the audit needs no
coverage package.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "resurgence"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"
SEPARATOR = " :: "


def code_lines(code) -> set[int]:
    """Lines of `code` itself that carry instructions (nested code objects excluded)."""
    return {line for _, _, line in code.co_lines() if line is not None}


class LineTrace:
    """Record (file, line) pairs executed in the given files.

    A code object stops being traced once every one of its lines has run,
    which keeps the hot kernels from paying for the hook more than once.
    """

    def __init__(self, files: set[str]):
        self.files = files
        self.hits: dict[str, set[int]] = {name: set() for name in files}
        self.pending: dict[object, set[int]] = {}

    def on_call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        pending = self.pending.get(code)
        if pending is None:
            pending = self.pending[code] = code_lines(code)
        return self.on_line if pending else None

    def on_line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self.hits[code.co_filename].add(frame.f_lineno)
            self.pending[code].discard(frame.f_lineno)
        return self.on_line


def statements(path: Path):
    """Yield (qualname, statement, header lines) for every statement of the module that compiles to code.

    A statement's header is its whole extent for a simple statement, and for a
    compound one the lines before its first body statement (decorators
    included).  Statements with no instruction on their header, such as
    docstrings, are skipped.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    executable = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        executable |= code_lines(code)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))

    def walk(node, qualname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                body = getattr(child, "body", None)
                last = child.end_lineno if not body else max(first, body[0].lineno - 1)
                header = set(range(first, last + 1))
                if header & executable:
                    yield qualname, child, header
            inner = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if qualname == "<module>" else f"{qualname}.{child.name}"
            yield from walk(child, inner)

    yield from walk(tree, "<module>")


def unreached(hits: dict[str, set[int]]) -> list[tuple[str, int]]:
    """(allowlist key, line) of every statement none of whose header lines ran."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = hits[str(path)]
        for qualname, node, header in statements(path):
            if not header & lines:
                text = ast.unparse(node).splitlines()[0]
                found.append((SEPARATOR.join((path.name, qualname, text)), node.lineno))
    return found


def read_allowlist() -> tuple[Counter, list[str]]:
    entries, problems = Counter(), []
    for number, line in enumerate(ALLOWLIST.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(SEPARATOR)
        if len(parts) != 4 or not parts[3].strip():
            problems.append(f"{ALLOWLIST.name}:{number}: not 'module :: qualname :: statement :: reason'")
            continue
        entries[SEPARATOR.join(parts[:3])] += 1
    return entries, problems


def main() -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    tracer = LineTrace({str(path) for path in PACKAGE.glob("*.py")})
    sys.settrace(tracer.on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"reach audit: tier-1 exited {status}; no audit without a passing run", file=sys.stderr)
        return 2

    missed = unreached(tracer.hits)
    allowed, problems = read_allowlist()
    print(f"\nreach audit: {len(missed)} unreached statement(s) in {PACKAGE.relative_to(ROOT)}")
    for key, line in missed:
        module, qualname, text = key.split(SEPARATOR)
        print(f"  {module}:{line} [{qualname}] {text}" + ("  (allowlisted)" if allowed[key] else ""))
    unexpected = Counter(key for key, _ in missed) - allowed
    stale = allowed - Counter(key for key, _ in missed)
    for key in sorted(unexpected.elements()):
        problems.append(f"unreached and not allowlisted: {key}")
    for key in sorted(stale.elements()):
        problems.append(f"allowlisted but reached (or gone); drop it from {ALLOWLIST.name}: {key}")
    for problem in problems:
        print(f"reach audit: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
