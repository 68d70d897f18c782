"""Declarative batch jobs: config parsing, execution, report emission.

Config files are JSON: named ideals (generator exponent lists), named family
descriptors, and an ordered task list.  Each op is one entry of `OPS` (its
required keys and its handler) and each family kind one entry of
`FAMILY_KINDS`, so validation and execution read the same table.  Reports are
deterministic for a fixed config - rationals are serialized as
numerator/denominator strings (never floats), orderings are fixed everywhere,
and wall-clock data is segregated under a separate key so the rest of the
report is byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, is_dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import __version__, closures, families as fam, invariants as inv, valuations as val
from .errors import ConfigError, ResurgenceError
from .monomials import MonomialIdeal
from .rationals import ExtendedRational, parse_fraction

BUILTIN_DEFAULTS = {"window": 20, "cutoff": 200, "kmax": 6, "horizon": 8}

# task keys that are read as integers
INT_KEYS = ("s_from", "s_to", "n_from", "n_to", "n", "k", "n_max", "s_max", "r_max",
            "tail", "budget") + tuple(BUILTIN_DEFAULTS)


@dataclass
class JobConfig:
    vars: int
    ideals: dict
    families: dict
    tasks: list
    output_format: str
    output_path: Optional[str]
    defaults: dict
    normalized: dict = field(repr=False, default_factory=dict)

    def digest(self) -> str:
        canon = json.dumps(self.normalized, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_BAD = object()  # what a reader returns once it has collected an error


def _failed(values) -> bool:
    return any(value is _BAD for value in values)


def _parse_int(value, where, errors):
    """The int of an integer string or of an integral number (2.0), else _BAD
    with the problem collected (2.7, Infinity, NaN, true, a list, ...)."""
    try:
        if isinstance(value, str) or (int(value) == value and not isinstance(value, bool)):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    errors.append(f"{where}: expected an integer, got {value!r}")
    return _BAD


def _named(name, table, key, what, where, errors):
    """table[name] when `name` is a string naming an entry, else _BAD with the
    problem collected (JSON may put any value where a name belongs)."""
    if isinstance(name, str) and name in table:
        return table[name]
    errors.append(f"{where}: {key!r} must name a defined {what}, not {name!r}")
    return _BAD


def _section(raw, key, errors) -> dict:
    """A top-level object of the config; absent or null reads as empty."""
    value = raw.get(key)
    if value is not None and not isinstance(value, dict):
        errors.append(f"'{key}' must be an object")
    return value if isinstance(value, dict) else {}


def _check_assertions(value, op, where, errors):
    """A list of known assertion names, each one that `op` reads."""
    if not isinstance(value, list) or not all(isinstance(text, str) for text in value):
        errors.append(f"{where}: 'assert' must be a list of strings, not {value!r}")
        return
    for text in value:
        name = "closure_gap:<k>" if text.startswith("closure_gap:") else text
        if name not in inv.ASSERTIONS:
            errors.append(f"{where}: 'assert' {text!r} is not one of {', '.join(map(repr, inv.ASSERTIONS))}")
        elif name not in OPS[op].asserts:
            errors.append(f"{where}: 'assert' {text!r} is not read by op {op!r}")
        elif text.startswith("closure_gap:"):
            gap = _parse_int(text.split(":", 1)[1], f"{where}: 'assert' {text!r}", errors)
            if gap is not _BAD and gap < 0:
                errors.append(f"{where}: 'assert' {text!r} needs a gap >= 0")


class _FamilyBuilder:
    """Parses and builds the named families in one recursive pass.

    A family's dependencies are built the first time it references them, and
    a name already on the build stack closes a cycle.  Readers collect their
    problems and return _BAD, so one family can report several of them.
    """

    def __init__(self, nodes: dict, ideals: dict, nvars: int, errors: list):
        self.nodes, self.ideals, self.nvars, self.errors = nodes, ideals, nvars, errors
        self.env = fam.Environment(ideals)
        self.built: dict = {}
        self.stack: list = []

    def where(self, part=""):
        return f"family {self.stack[-1]!r}{part}"

    def fail(self, problem, part=""):
        self.errors.append(f"{self.where(part)}: {problem}")
        return _BAD

    def build(self, name):
        if name in self.stack:
            cycle = " -> ".join(self.stack[self.stack.index(name):] + [name])
            self.errors.append(f"cycle among family definitions: {cycle}")
            return _BAD
        if name not in self.built:
            self.stack.append(name)
            self.built[name] = self._build(self.nodes[name])
            self.stack.pop()
            if self.built[name] is not _BAD:
                self.env.bind_family(name, self.built[name])
        return self.built[name]

    def _build(self, node):
        if not isinstance(node, dict) or "kind" not in node:
            return self.fail("descriptor must be an object with a 'kind'")
        kind = node["kind"]
        if not isinstance(kind, str) or kind not in FAMILY_KINDS:
            return self.fail(f"unknown family kind {kind!r}")
        try:
            return FAMILY_KINDS[kind](self, node)
        except ResurgenceError as exc:  # a constructor rejected the parsed values
            return self.fail(str(exc))

    def make(self, constructor, *args):
        """constructor(*args), named after the family being built, unless a
        reader failed."""
        return _BAD if _failed(args) else constructor(*args, name=self.stack[-1])

    def ideal(self, name, key="ideal", part=""):
        return _named(name, self.ideals, key, "ideal", self.where(part), self.errors)

    def family(self, name, part=""):
        node = _named(name, self.nodes, "family", "family", self.where(part), self.errors)
        return _BAD if node is _BAD else self.build(name)

    def integer(self, node, key, default=0, part=""):
        return _parse_int(node.get(key, default), f"{self.where(part)}: {key}", self.errors)

    def count(self, node, key):
        """A positive integer field."""
        value = self.integer(node, key)
        if value is not _BAD and value < 1:
            return self.fail(f"{node['kind']} needs a positive {key!r}")
        return value

    def alpha(self, node):
        try:
            return parse_fraction(str(node.get("alpha")))
        except (ValueError, ZeroDivisionError) as exc:
            return self.fail(f"bad alpha: {exc}")

    def index_function(self, node, part=""):
        if not isinstance(node, dict) or "fn" not in node:
            return self.fail("exponent rule must be an object with an 'fn' key", part)
        kind = node["fn"]
        try:
            if kind == "affine":
                a, b = self.integer(node, "a", 1, part), self.integer(node, "b", 0, part)
                return _BAD if _failed((a, b)) else fam.affine(a, b)
            if kind == "ceil_mul":
                args = (parse_fraction(str(node["ratio"])), self.integer(node, "offset", 0, part))
                return _BAD if _failed(args) else fam.ceil_mul(*args)
            if kind == "ceil_sqrt":
                return fam.ceil_sqrt()
            if kind == "ceil_log2p1":
                return fam.ceil_log2p1()
        except KeyError as exc:
            return self.fail(f"exponent rule {kind!r} needs {exc}", part)
        except (TypeError, ValueError, ZeroDivisionError, ResurgenceError) as exc:
            return self.fail(f"bad exponent rule: {exc}", part)
        return self.fail(f"unknown exponent rule {kind!r}", part)

    def patterns(self, node):
        """(period, {residue: expression}) of a periodic family."""
        period, patterns = self.count(node, "period"), node.get("patterns")
        if not isinstance(patterns, dict):
            return period, self.fail("periodic needs a 'patterns' object")
        if period is _BAD:
            return period, _BAD
        exprs = {r: self.expr(patterns.get(str(r)), f" residue {r}") for r in range(period)}
        return period, _BAD if _failed(exprs.values()) else exprs

    def prefix(self, node):
        names = node.get("prefix")
        if not isinstance(names, list):
            return self.fail("table needs a 'prefix' list of ideal names")
        prefix = [self.ideal(name, "prefix") for name in names]
        return _BAD if _failed(prefix) else prefix

    def expr(self, node, part=""):
        """An ideal expression; the families it references are built first."""
        if not isinstance(node, dict):
            return self.fail("expression must be an object", part)
        if "ideal" in node:
            ideal = self.ideal(node["ideal"], part=part)
            return _BAD if ideal is _BAD else fam.Base(node["ideal"])
        if "family" in node:
            family = self.family(node["family"], part)
            shift = self.integer(node, "shift", 0, part)
            return _BAD if _failed((family, shift)) else fam.Ref(node["family"], shift)
        for key, combine in (("product", fam.Product), ("sum", fam.Sum)):
            if key in node:
                if not isinstance(node[key], list) or not node[key]:
                    return self.fail(f"{key!r} must be a nonempty list of expressions", part)
                terms = [self.expr(x, part) for x in node[key]]
                return _BAD if _failed(terms) else combine(tuple(terms))
        if "power" in node:
            base = self.expr(node["power"], part)
            exponent = self.index_function(node.get("exponent", {"fn": "affine", "a": 1}), part)
            return _BAD if _failed((base, exponent)) else fam.Power(base, exponent)
        return self.fail("expression object needs one of ideal/family/product/sum/power", part)


# every family kind: its constructor, fed by the readers of its descriptor keys
FAMILY_KINDS = {
    "powers": lambda b, node: b.make(fam.powers, b.ideal(node.get("ideal"))),
    "symbolic": lambda b, node: b.make(fam.symbolic, b.ideal(node.get("ideal"))),
    "ceiling": lambda b, node: b.make(fam.ceiling, b.ideal(node.get("ideal")), b.alpha(node)),
    "power_pattern": lambda b, node: b.make(fam.power_pattern, b.ideal(node.get("ideal")),
                                            b.index_function(node.get("exponent"))),
    "closure_powers": lambda b, node: b.make(fam.closure_powers, b.ideal(node.get("ideal"))),
    "closure": lambda b, node: b.make(fam.closure_of, b.family(node.get("family"))),
    "veronese": lambda b, node: b.make(fam.veronese, b.family(node.get("family")),
                                       b.count(node, "step")),
    "periodic": lambda b, node: b.make(fam.periodic, b.nvars, *b.patterns(node), b.env),
    "table": lambda b, node: b.make(
        fam.table, b.nvars, b.prefix(node),
        None if node.get("tail") is None else b.expr(node["tail"], " tail"), b.env),
    "expression": lambda b, node: b.make(fam.expression, b.nvars, b.expr(node.get("expr")),
                                         b.env),
}


def parse_config(text: str) -> JobConfig:
    """Parse and validate a job config, collecting every schema error."""
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])

    nvars = raw.get("vars")
    if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 1:
        errors.append("'vars' must be a positive integer")
        nvars = 1

    ideals: dict[str, MonomialIdeal] = {}
    for name, gens in _section(raw, "ideals", errors).items():
        if not isinstance(gens, list):
            errors.append(f"ideal {name!r}: generators must be a list of exponent vectors")
            continue
        try:
            checked = []
            for g in gens:
                if not isinstance(g, list) or len(g) != nvars:
                    raise ValueError(f"exponent vector {g} does not have length {nvars}")
                checked.append([_parse_int(e, f"ideal {name!r}: exponent", errors) for e in g])
            if not any(_failed(g) for g in checked):
                ideals[name] = MonomialIdeal.from_generators(nvars, checked)
        except (ValueError, ResurgenceError) as exc:
            errors.append(f"ideal {name!r}: {exc}")

    family_nodes = _section(raw, "families", errors)
    builder = _FamilyBuilder(family_nodes, ideals, nvars, errors)
    for name in sorted(family_nodes):
        builder.build(name)

    tasks = raw.get("tasks")  # absent or null means no tasks, as for the sections
    if tasks is not None and not isinstance(tasks, list):
        errors.append("'tasks' must be a list")
    tasks = tasks if isinstance(tasks, list) else []
    for i, task in enumerate(tasks):
        where = f"task {i}"
        if not isinstance(task, dict) or "op" not in task:
            errors.append(f"{where}: must be an object with an 'op'")
            continue
        if not isinstance(task["op"], str) or task["op"] not in OPS:
            errors.append(f"{where}: unknown op {task['op']!r}")
            continue
        for key in OPS[task["op"]].keys:
            if key not in task:
                errors.append(f"{where}: op {task['op']!r} needs {key!r}")
        for key in INT_KEYS:
            if key in task:
                _parse_int(task[key], f"{where}: {key!r}", errors)
        for key in ("a", "b", "family"):
            if key in task:
                _named(task[key], family_nodes, key, "family", where, errors)
        if "ideal" in task:
            _named(task["ideal"], ideals, "ideal", "ideal", where, errors)
        if "weights" in task:
            w = task["weights"]
            if not isinstance(w, list) or len(w) != nvars:
                errors.append(f"{where}: 'weights' must be a list of length {nvars}")
        if not isinstance(task.get("grid", []), list):
            errors.append(f"{where}: 'grid' must be a list of integers")
        for key in ("weights", "grid"):
            for item in task[key] if isinstance(task.get(key), list) else ():
                _parse_int(item, f"{where}: {key!r}", errors)
        if "assert" in task:
            _check_assertions(task["assert"], task["op"], where, errors)

    output = _section(raw, "output", errors)
    out_format = output.get("format", "json")
    if out_format not in ("json", "csv"):
        errors.append(f"output format must be 'json' or 'csv', not {out_format!r}")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        errors.append(f"output path must be a string, not {out_path!r}")
    defaults = dict(BUILTIN_DEFAULTS)
    given = _section(raw, "defaults", errors)
    for key in BUILTIN_DEFAULTS:
        if key in given:
            defaults[key] = _parse_int(given[key], f"defaults: {key!r}", errors)

    if errors:
        raise ConfigError(errors)

    normalized = {
        "vars": nvars,
        "ideals": {k: [list(g) for g in ideals[k].generators] for k in sorted(ideals)},
        "families": {k: family_nodes[k] for k in sorted(family_nodes)},
        "tasks": tasks,
        "defaults": defaults,
        "output": {"format": out_format, "path": out_path},
    }
    return JobConfig(nvars, ideals, builder.built, tasks, out_format, out_path, defaults, normalized)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def run(config: JobConfig) -> dict:
    """Execute every task in order; failures are recorded per task and do not
    abort the batch.  An exception outside the library's error hierarchy is
    recorded as an `internal_error`.  Returns the structured report."""
    results = []
    timings = {}
    for i, task in enumerate(config.tasks):
        started = time.perf_counter()
        record = {"index": i, "op": task["op"]}
        try:
            record["result"] = encode(OPS[task["op"]].run(config, task))
            record["status"] = "ok"
        except Exception as exc:  # a fault outside the library's errors must not lose the batch
            prefix = "" if isinstance(exc, ResurgenceError) else "internal_error: "
            record["status"] = "error"
            record["error"] = f"{prefix}{type(exc).__name__}: {exc}"
        timings[str(i)] = time.perf_counter() - started
        results.append(record)
    return {
        "tool": "resurgence",
        "version": __version__,
        "config_digest": config.digest(),
        "config": config.normalized,
        "tasks": results,
        "timings": timings,
    }


def exit_status(report: dict) -> int:
    return 1 if any(t["status"] == "error" for t in report["tasks"]) else 0


def _param(config, task, key, fallback=None):
    """Integer task value of `key`; when absent, the task's or else the
    config's value of `fallback` (by default `key` itself)."""
    fallback = fallback or key
    return int(task.get(key, task.get(fallback, config.defaults[fallback])))


def _pair(config, task):
    return config.families[task["a"]], config.families[task["b"]]


def _bounds(config, task):
    return {"kmax": _param(config, task, "kmax"), "horizon": _param(config, task, "horizon")}


def _valuation(task):
    return val.MonomialValuation(tuple(int(w) for w in task["weights"]))


def _table(config, task, func, index, fallback, *head):
    """{"table": [(i, inv.<func>(*head, a, b, i, cutoff))]} for i from
    <index>_from (else <fallback>_from, else 1) to <index>_to (else
    <fallback>_to, else 0); the valuation versions pass the task's valuation
    as `head`."""
    a, b = _pair(config, task)
    lo = int(task.get(f"{index}_from", task.get(f"{fallback}_from", 1)))
    hi = int(task.get(f"{index}_to", task.get(f"{fallback}_to", 0)))
    cutoff = _param(config, task, "cutoff")
    return {"table": [(i, getattr(inv, func)(*head, a, b, i, cutoff)) for i in range(lo, hi + 1)]}


class Op(NamedTuple):
    keys: tuple  # task keys the op cannot run without
    run: Callable  # (config, task) -> result
    asserts: tuple = ()  # the "assert" names the op reads


# Every op.  Handlers look library functions up on their module at call time,
# so a wrapper installed on the module (a tracer, a mock) sees every call.
OPS = {
    "beta_table": Op(("a", "b", "s_to"), lambda c, t: _table(c, t, "beta", "s", "s")),
    "lambda_table": Op(("a", "b", "n_to"), lambda c, t: _table(c, t, "lambda_", "n", "n")),
    "beta_v_table": Op(("a", "b", "weights"), lambda c, t: _table(
        c, t, "beta_v", "n", "s", _valuation(t))),
    "lambda_v_table": Op(("a", "b", "weights"), lambda c, t: _table(
        c, t, "lambda_v", "n", "s", _valuation(t))),
    "rho_window": Op(("a", "b"), lambda c, t: inv.rho_window(
        *_pair(c, t), _param(c, t, "s_max", "window"), _param(c, t, "r_max", "window"))),
    "rho_n": Op(("a", "b", "n"), lambda c, t: inv.rho_n(
        *_pair(c, t), int(t["n"]), _param(c, t, "s_max", "window"), _param(c, t, "cutoff"))),
    "rho_lim": Op(("a", "b", "grid"), lambda c, t: inv.rho_lim_estimate(
        *_pair(c, t), [int(n) for n in t["grid"]], _param(c, t, "cutoff"),
        tail=int(t.get("tail", 10)), **_bounds(c, t))),
    "rho_hat_rees": Op(("a", "b"), lambda c, t: inv.rho_hat_rees(
        *_pair(c, t), **_bounds(c, t), assertions=tuple(t.get("assert", ()))),
        ("closure_module_finite",)),
    "rho_hat_beta": Op(("a", "b", "n_max"), lambda c, t: inv.rho_hat_beta_limit(
        *_pair(c, t), int(t["n_max"]), _param(c, t, "cutoff"),
        grid=[int(n) for n in t["grid"]] if "grid" in t else None, **_bounds(c, t))),
    "rho_exact": Op(("a", "b"), lambda c, t: inv.rho_exact_certified(
        *_pair(c, t), search_budget=int(t.get("budget", 60)), **_bounds(c, t),
        assertions=tuple(t.get("assert", ()))), inv.ASSERTIONS),
    "waldschmidt": Op(("family", "weights"), lambda c, t: val.skew_waldschmidt(
        _valuation(t), c.families[t["family"]], window=_param(c, t, "window"),
        kmax=_param(c, t, "kmax"))),
    "validate_graded": Op(("family",), lambda c, t: fam.validate_graded(
        c.families[t["family"]], _param(c, t, "horizon"))),
    "validate_filtration": Op(("family",), lambda c, t: fam.validate_filtration(
        c.families[t["family"]], _param(c, t, "horizon"))),
    "standard_veronese": Op(("family", "k"), lambda c, t: fam.is_standard_veronese(
        c.families[t["family"]], int(t["k"]), _param(c, t, "horizon"))),
    "b_equivalent": Op(("family", "ideal", "k"), lambda c, t: fam.is_b_equivalent(
        c.families[t["family"]], c.ideals[t["ideal"]], int(t["k"]), _param(c, t, "horizon"))),
    "veronese_scaling": Op(("a", "b", "k"), lambda c, t: inv.veronese_scaling_check(
        *_pair(c, t), int(t["k"]), _param(c, t, "window"))),
    "linearly_finer": Op(("a", "b"), lambda c, t: inv.linearly_finer_check(
        *_pair(c, t), _param(c, t, "window"))),
    "rees_valuations": Op(("ideal",), lambda c, t: closures.rees_valuations(c.ideals[t["ideal"]])),
    "newton_polyhedron": Op(("ideal",), lambda c, t: closures.newton_polyhedron(
        c.ideals[t["ideal"]])),
    "integral_closure": Op(("ideal",), lambda c, t: {"generators": closures.integral_closure(
        c.ideals[t["ideal"]], int(t.get("n", 1))).generators}),
    "symbolic_power": Op(("ideal",), lambda c, t: {"generators": closures.symbolic_power(
        c.ideals[t["ideal"]], int(t.get("n", 1))).generators}),
}


# ---------------------------------------------------------------------------
# encoding and emission
# ---------------------------------------------------------------------------


def encode(obj):
    """Recursively encode results into JSON-serializable structures; rationals
    become {"num","den"} strings, infinities the strings "-inf"/"inf"."""
    if isinstance(obj, ExtendedRational):
        return {"num": str(obj.value.numerator), "den": str(obj.value.denominator)} \
            if obj.is_finite else str(obj)
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, inv.SequenceValue):
        out = {"kind": obj.kind, "tag": str(obj), "certified": obj.certified}
        if obj.value is not None:
            out["value"] = obj.value
        if obj.bound is not None:
            out["bound"] = obj.bound
        return out
    if isinstance(obj, MonomialIdeal):
        return {"generators": [list(g) for g in obj.generators]}
    if isinstance(obj, closures.ReesValuationSet):
        return {"valuations": [{"weights": list(w), "value": v} for w, v in obj.valuations]}
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for key in obj.__dataclass_fields__:
            out[key] = encode(getattr(obj, key))
        out["type"] = type(obj).__name__
        return out
    if isinstance(obj, dict):
        return {str(k): encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(x) for x in obj]
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)


def _render_value(node) -> str:
    """Report cell rendering: rationals as 'p/q', infinities as given."""
    if isinstance(node, dict) and set(node) == {"num", "den"}:
        return node["num"] if node["den"] == "1" else f"{node['num']}/{node['den']}"
    return "" if node is None else str(node)


def emit(report: dict, out_format: str, stem: str = "report") -> dict[str, bytes]:
    """Serialize a run report; returns {relative path: bytes}.

    json: one file, full structure.  csv: one file per sequence table with
    header index,value,tag plus a summary file; LF line endings, rationals as
    'p/q'.  Byte-stable for identical configs apart from the segregated
    timings (json only).
    """
    if out_format == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
        return {f"{stem}.json": (text + "\n").encode("utf-8")}
    files = {}
    summary = ["index,op,status,value,certified"]
    for task in report["tasks"]:
        value, certified = "", ""
        result = task.get("result")
        if task["status"] == "ok" and isinstance(result, dict):
            if "table" in result:
                rows = ["index,value,tag"]
                for idx, sv in result["table"]:
                    cell = str(sv.get("value", "")) if isinstance(sv, dict) else str(sv)
                    tag = sv.get("tag", "") if isinstance(sv, dict) else ""
                    tag = "" if tag == cell else tag
                    rows.append(f"{idx},{cell},{tag}")
                files[f"{stem}_task{task['index']:02d}_{task['op']}.csv"] = \
                    ("\n".join(rows) + "\n").encode("utf-8")
                value = f"table[{len(result['table'])}]"
            elif "value" in result:
                value = _render_value(result["value"])
                certified = str(result.get("certified", ""))
            elif "holds" in result:
                value = str(result["holds"])
        elif task["status"] == "error":
            value = task["error"]
        summary.append(f"{task['index']},{task['op']},{task['status']},{value},{certified}")
    files[f"{stem}.csv"] = ("\n".join(summary) + "\n").encode("utf-8")
    return files
