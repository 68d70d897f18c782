"""Declarative batch jobs: config parsing, execution, report emission.

Config files are JSON: named ideals (generator exponent lists), named family
descriptors, and an ordered task list.  Each op is one entry of `OPS`: every
task key it reads, with its fallback, and its handler; `parse_config` checks
and `run` reads a task's keys with the same readers.  Each family kind is one
entry of `FAMILY_KINDS`.  Reports are deterministic for a fixed config:
rationals are numerator/denominator strings (never floats), orderings are
fixed, and wall-clock data sits under a separate key, so the rest of the
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


def _named(name, table, what, where, errors):
    """table[name] when `name` is a string naming an entry, else _BAD with the
    problem collected (JSON may put any value where a name belongs)."""
    if isinstance(name, str) and name in table:
        return table[name]
    errors.append(f"{where} must name a defined {what}, not {name!r}")
    return _BAD


def _section(raw, key, errors) -> dict:
    """A top-level object of the config; absent or null reads as empty."""
    value = raw.get(key)
    if value is not None and not isinstance(value, dict):
        errors.append(f"'{key}' must be an object")
    return value if isinstance(value, dict) else {}


def _integers(value, where, errors, length=None):
    """A list of integers, of `length` entries when one is given."""
    shaped = isinstance(value, list) and length in (None, len(value))
    if not shaped:
        errors.append(f"{where} must be a list " + ("of integers" if length is None else f"of length {length}"))
    items = [_parse_int(item, where, errors) for item in value] if isinstance(value, list) else []
    return items if shaped and not _failed(items) else _BAD


def _assertions(value, where, errors, config, op):
    """A tuple of known assertion names, each one that `op` reads."""
    if not isinstance(value, list) or not all(isinstance(text, str) for text in value):
        errors.append(f"{where} must be a list of strings, not {value!r}")
        return _BAD
    for text in value:
        name = "closure_gap:<k>" if text.startswith("closure_gap:") else text
        if name not in inv.ASSERTIONS:
            errors.append(f"{where} {text!r} is not one of {', '.join(map(repr, inv.ASSERTIONS))}")
        elif name not in OPS[op].asserts:
            errors.append(f"{where} {text!r} is not read by op {op!r}")
        elif text.startswith("closure_gap:"):
            gap = _parse_int(text.split(":", 1)[1], f"{where} {text!r}", errors)
            if gap is not _BAD and gap < 0:
                errors.append(f"{where} {text!r} needs a gap >= 0")
    return tuple(value)


# one reader per kind of task key, (value, where, errors, config, op) -> argument or _BAD
_READERS = {
    **dict.fromkeys(("a", "b", "family"), lambda value, where, errors, config, op: _named(
        value, config.families, "family", where, errors)),
    "ideal": lambda value, where, errors, config, op: _named(value, config.ideals, "ideal", where, errors),
    "weights": lambda value, where, errors, config, op: _integers(value, where, errors, config.vars),
    "grid": lambda value, where, errors, config, op: _integers(value, where, errors),
    "assert": _assertions,
    None: lambda value, where, errors, config, op: _parse_int(value, where, errors),  # any other key
}


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
        return _named(name, self.ideals, "ideal", f"{self.where(part)}: {key!r}", self.errors)

    def family(self, name, part=""):
        node = _named(name, self.nodes, "family", f"{self.where(part)}: 'family'", self.errors)
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
    # the tasks' names resolve as in the finished config; defaults are read at run time
    named = JobConfig(nvars, ideals, builder.built, tasks, "json", None, BUILTIN_DEFAULTS)
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or "op" not in task:
            errors.append(f"task {i}: must be an object with an 'op'")
        elif not isinstance(task["op"], str) or task["op"] not in OPS:
            errors.append(f"task {i}: unknown op {task['op']!r}")
        else:
            _arguments(named, task, f"task {i}", errors)

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
    for where, node, known in (("config", raw, ("vars", "ideals", "families", "tasks", "output", "defaults")),
                               ("output", output, ("format", "path")), ("defaults", given, BUILTIN_DEFAULTS)):
        errors += [f"{where}: unknown key {key!r}" for key in node if key not in known]

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
            errors: list[str] = []
            arguments = _arguments(config, task, f"task {i}", errors)
            if errors:
                raise ConfigError(errors)
            record["result"] = encode(OPS[task["op"]].run(*arguments))
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


_ABSENT = {"assert": ()}  # what an empty fallback gives (else None)


class Op(NamedTuple):
    reads: str  # the task keys of each argument of `run`, one word each (see _arguments)
    run: Callable  # (*arguments) -> result
    asserts: tuple = ()  # the "assert" names the op reads


def _arguments(config, task, where, errors) -> list:
    """The arguments of the task's op, one per word `key=...=last` of its
    `reads`: the first of these task keys that the task has, else the config
    default `last` names (as the config holds it now, after any command-line
    override), else the integer `last`, else `_ABSENT` for an empty `last`;
    otherwise the task needs `key`.  A task key the op does not read is a
    problem, and an 'assert' names each assertion the op does not read."""
    op = task["op"]
    chains = [word.split("=") for word in OPS[op].reads.split()]
    declared = {name for chain in chains for name in chain if name.isidentifier()}
    read = {}
    for key, value in task.items():
        if key in declared or key == "assert":
            read[key] = _READERS.get(key, _READERS[None])(value, f"{where}: {key!r}", errors, config, op)
        elif key != "op":
            errors.append(f"{where}: op {op!r} does not read {key!r}")
    arguments = []
    for chain in chains:
        given, last = [read[key] for key in chain if key in read], chain[-1]
        if given or last in config.defaults:
            arguments.append(given[0] if given else config.defaults[last])
        elif last.isdigit() or not last:
            arguments.append(int(last) if last else _ABSENT.get(chain[0]))
        else:
            errors.append(f"{where}: op {op!r} needs {chain[0]!r}")
    return arguments


def _table(func, *arguments):
    """{"table": [(i, func(*head, i, cutoff))]} for lo <= i <= hi; `arguments` are (*head, lo, hi, cutoff)."""
    *head, lo, hi, cutoff = arguments
    return {"table": [(i, func(*head, i, cutoff)) for i in range(lo, hi + 1)]}


# Every op: the task keys it reads, in the parameter order of the library
# function its handler calls.  Handlers look library functions up on their
# module at call time, so a wrapper installed there (a tracer, a mock) sees every call.
OPS = {
    "beta_table": Op("a b s_from=1 s_to cutoff", lambda *a: _table(inv.beta, *a)),
    "lambda_table": Op("a b n_from=1 n_to cutoff", lambda *a: _table(inv.lambda_, *a)),
    "beta_v_table": Op("weights a b n_from=s_from=1 n_to=s_to cutoff",
                       lambda w, *a: _table(inv.beta_v, val.MonomialValuation(w), *a)),
    "lambda_v_table": Op("weights a b n_from=s_from=1 n_to=s_to cutoff",
                         lambda w, *a: _table(inv.lambda_v, val.MonomialValuation(w), *a)),
    "rho_window": Op("a b s_max=window r_max=window", lambda *a: inv.rho_window(*a)),
    "rho_n": Op("a b n s_max=window cutoff", lambda *a: inv.rho_n(*a)),
    "rho_lim": Op("a b grid cutoff tail=10 kmax horizon", lambda *a: inv.rho_lim_estimate(*a)),
    "rho_hat_rees": Op("a b kmax horizon assert=", lambda *a: inv.rho_hat_rees(*a), ("closure_module_finite",)),
    "rho_hat_beta": Op("a b n_max cutoff grid= kmax horizon", lambda *a: inv.rho_hat_beta_limit(*a)),
    "rho_exact": Op("a b budget=60 kmax horizon assert=", lambda *a: inv.rho_exact_certified(*a), inv.ASSERTIONS),
    "waldschmidt": Op("weights family window kmax",
                      lambda w, *a: val.skew_waldschmidt(val.MonomialValuation(w), *a)),
    "validate_graded": Op("family horizon", lambda *a: fam.validate_graded(*a)),
    "validate_filtration": Op("family horizon", lambda *a: fam.validate_filtration(*a)),
    "standard_veronese": Op("family k horizon", lambda *a: fam.is_standard_veronese(*a)),
    "b_equivalent": Op("family ideal k horizon", lambda *a: fam.is_b_equivalent(*a)),
    "veronese_scaling": Op("a b k window", lambda *a: inv.veronese_scaling_check(*a)),
    "linearly_finer": Op("a b window", lambda *a: inv.linearly_finer_check(*a)),
    "rees_valuations": Op("ideal", lambda *a: closures.rees_valuations(*a)),
    "newton_polyhedron": Op("ideal", lambda *a: closures.newton_polyhedron(*a)),
    "integral_closure": Op("ideal n=1", lambda *a: {"generators": closures.integral_closure(*a).generators}),
    "symbolic_power": Op("ideal n=1", lambda *a: {"generators": closures.symbolic_power(*a).generators}),
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
