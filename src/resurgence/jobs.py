"""Declarative batch jobs: config parsing, execution, report emission.

Config files are JSON: named ideals (generator exponent lists), named family
descriptors, and an ordered task list.  Each op is one entry of `OPS`: every
task key it reads, with its fallback, and its handler; `parse_config` checks
and `run` reads a task's keys with the same readers.  Each family kind,
exponent rule and expression node is one entry of `FAMILY_KINDS`,
`EXPONENT_RULES` or `EXPRESSION_NODES`: every descriptor key it reads, with
its fallback, and its constructor.  One walker, `_read_keys`, reads the keys
of both.  Reports are deterministic for a fixed config: rationals are
numerator/denominator strings (never floats), orderings are fixed, and
wall-clock data sits under a separate key, so the rest of the report is
byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from collections import Counter
from dataclasses import dataclass, field, is_dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import __version__, closures, families as fam, invariants as inv, valuations as val
from .errors import ConfigError, ResurgenceError
from .monomials import MonomialIdeal
from .rationals import ExtendedRational

BUILTIN_DEFAULTS = {"window": 20, "cutoff": 200, "kmax": 6, "horizon": 8}
INTEGER_CAP = 10**6  # a config integer beyond it (as 1e300) would ask for endless work


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
_ABSENT = {"assert": (), "exponent": fam.affine(1)}  # what an empty fallback gives (else None)


def _failed(values) -> bool:
    return any(value is _BAD for value in values)


def _parse_int(value, where, errors):
    """The int of a string of decimal digits (not "1_0") or of an integral number
    (2.0) within INTEGER_CAP, else _BAD with the problem collected (2.7,
    Infinity, NaN, true, a list, 1e300, ...)."""
    try:
        if (isinstance(value, str) and re.fullmatch(r"\s*[-+]?[0-9]+\s*", value)) or (
                int(value) == value and not isinstance(value, bool)):
            if abs(int(value)) <= INTEGER_CAP:
                return int(value)
            errors.append(f"{where}: {value!r} exceeds INTEGER_CAP = {INTEGER_CAP} in absolute value")
            return _BAD
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


def _read_keys(entry, node, subject, tag, errors, read, defaults=()) -> list:
    """The arguments that `node` gives `entry` (an Op or a Maker), one per
    word `key=...=last` of its `reads`: the first of these keys that `node`
    has, through `read(key, value)`, else the entry of `defaults` that `last`
    names, else the integer `last`, else `_ABSENT`'s value for an empty
    `last`; otherwise `subject` needs `key`, and the argument is _BAD.  A key
    of `node` that the entry does not read, other than the `tag` naming it,
    is a problem; the keys in `entry.also_read` are read all the same."""
    chains = [word.split("=") for word in entry.reads.split()]
    declared = {name for chain in chains for name in chain if name.isidentifier()}
    got = {}
    for key, value in node.items():
        if key in declared or key in entry.also_read:
            got[key] = read(key, value)
        elif key != tag:
            errors.append(f"{subject} does not read {key!r}")
    arguments = []
    for chain in chains:
        given, last = [got[key] for key in chain if key in got], chain[-1]
        if given or last in defaults:
            arguments.append(given[0] if given else defaults[last])
        elif last.isdigit() or not last:
            arguments.append(int(last) if last else _ABSENT.get(chain[0]))
        else:
            errors.append(f"{subject} needs {chain[0]!r}")
            arguments.append(_BAD)
    return arguments


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


class Maker(NamedTuple):
    reads: str  # the descriptor keys of each argument of `make`, one word each (see _read_keys)
    make: Callable  # (*arguments) -> a family, an exponent rule or an ideal expression
    scoped: bool = False  # `make` also takes the config's vars first and its Environment last
    also_read = ()  # no key is read outside `reads`


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
        maker = FAMILY_KINDS[kind]
        arguments = self.arguments(maker, node, f"family kind {kind!r}", "kind")
        if arguments is not _BAD and maker.scoped:
            arguments = [self.nvars, *arguments, self.env]
        try:
            return _BAD if arguments is _BAD else maker.make(*arguments, name=self.stack[-1])
        except ResurgenceError as exc:  # a constructor rejected the parsed values
            return self.fail(str(exc))

    def rule(self, node, key, part):
        if not isinstance(node, dict) or "fn" not in node:
            return self.fail("exponent rule must be an object with an 'fn' key", part)
        fn = node["fn"]
        if not isinstance(fn, str) or fn not in EXPONENT_RULES:
            return self.fail(f"unknown exponent rule {fn!r}", part)
        arguments = self.arguments(EXPONENT_RULES[fn], node, f"exponent rule {fn!r}", "fn", part)
        try:
            return _BAD if arguments is _BAD else EXPONENT_RULES[fn].make(*arguments)
        except ResurgenceError as exc:
            return self.fail(f"bad exponent rule: {exc}", part)

    def expr(self, node, key, part):
        """The node of the first node key the expression has; the families
        it references are built first."""
        if not isinstance(node, dict):
            return self.fail("expression must be an object", part)
        tag = next((tag for tag in EXPRESSION_NODES if tag in node), None)
        if tag is None:
            return self.fail(f"expression object needs one of {'/'.join(EXPRESSION_NODES)}", part)
        arguments = self.arguments(EXPRESSION_NODES[tag], node, f"expression node {tag!r}", tag, part, _NODE_READERS)
        return _BAD if arguments is _BAD else EXPRESSION_NODES[tag].make(*arguments)

    def arguments(self, maker, node, what, tag, part="", readers=None):
        """The arguments that `node` gives `maker` (see _read_keys), each key
        read by `readers` (by default `_KEY_READERS`); _BAD after any problem."""
        readers, before = readers or _KEY_READERS, len(self.errors)
        arguments = _read_keys(maker, node, f"{self.where(part)}: {what}", tag, self.errors,
                               lambda key, value: readers.get(key, readers[None])(self, value, key, part))
        return _BAD if len(self.errors) > before or _failed(arguments) else arguments


# a rational: p, p/q or a plain decimal, signed and padded as `Fraction` reads
# them.  Not exponent notation, whose expansion costs time and memory that grow
# with the exponent's value, not with the text's length; nor 1_0 or inf.
_RATIONAL = re.compile(r"\s*[-+]?([0-9]+(/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)\s*")


def _fraction(b, value, key, part):
    text = str(value)
    if not _RATIONAL.fullmatch(text):
        return b.fail(f"bad {key}: {text!r} is not p, p/q or a plain decimal", part)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return b.fail(f"bad {key}: {exc}", part)


def _positive(b, value, key, part):
    number = _parse_int(value, f"{b.where(part)}: {key}", b.errors)
    if number is not _BAD and number < 1:
        return b.fail(f"{b.nodes[b.stack[-1]]['kind']} needs a positive {key!r}", part)
    return number


def _prefix(b, value, key, part):
    if not isinstance(value, list):
        return b.fail("table needs a 'prefix' list of ideal names", part)
    prefix = [_KEY_READERS["ideal"](b, name, key, part) for name in value]
    return _BAD if _failed(prefix) else prefix


def _patterns(b, value, key, part):
    """{residue: expression}; `families.periodic` checks the residues are 0..period-1."""
    if not isinstance(value, dict):
        return b.fail("periodic needs a 'patterns' object", part)
    pairs = [(_parse_int(residue, f"{b.where(part)}: patterns residue", b.errors),
              b.expr(node, key, f"{part} residue {residue}")) for residue, node in value.items()]
    if _failed(item for pair in pairs for item in pair):
        return _BAD
    patterns = dict(pairs)
    return patterns if len(patterns) == len(pairs) else b.fail("patterns give a residue twice", part)


def _terms(b, value, key, part):
    if not isinstance(value, list) or not value:
        return b.fail(f"{key!r} must be a nonempty list of expressions", part)
    terms = [b.expr(node, key, part) for node in value]
    return _BAD if _failed(terms) else tuple(terms)


def _name_of(reader):
    """A reader that checks a name as `reader` does and gives the name."""
    return lambda b, value, key, part: _BAD if reader(b, value, key, part) is _BAD else value


# one reader per descriptor key, (builder, value, key, part) -> argument or _BAD
_KEY_READERS = {
    "ideal": lambda b, value, key, part: _named(value, b.ideals, "ideal", f"{b.where(part)}: {key!r}", b.errors),
    "family": lambda b, value, key, part: _BAD if _named(
        value, b.nodes, "family", f"{b.where(part)}: {key!r}", b.errors) is _BAD else b.build(value),
    **dict.fromkeys(("alpha", "ratio"), _fraction),
    **dict.fromkeys(("period", "step"), _positive),
    "exponent": _FamilyBuilder.rule,
    **dict.fromkeys(("expr", "power"), _FamilyBuilder.expr),
    "tail": lambda b, value, key, part: None if value is None else b.expr(value, key, " tail"),
    **dict.fromkeys(("product", "sum"), _terms),
    "prefix": _prefix,
    "patterns": _patterns,
    None: lambda b, value, key, part: _parse_int(value, f"{b.where(part)}: {key}", b.errors),  # any other key
}
# an expression node holds the name of the ideal or family it reads
_NODE_READERS = {**_KEY_READERS, **{key: _name_of(_KEY_READERS[key]) for key in ("ideal", "family")}}

# Every family kind, exponent rule and expression node: the descriptor keys
# it reads, in the parameter order of the library constructor it calls.
FAMILY_KINDS = {
    "powers": Maker("ideal", fam.powers),
    "symbolic": Maker("ideal", fam.symbolic),
    "ceiling": Maker("ideal alpha", fam.ceiling),
    "power_pattern": Maker("ideal exponent", fam.power_pattern),
    "closure_powers": Maker("ideal", fam.closure_powers),
    "closure": Maker("family", fam.closure_of),
    "veronese": Maker("family step", fam.veronese),
    "periodic": Maker("period patterns", fam.periodic, scoped=True),
    "table": Maker("prefix tail=", fam.table, scoped=True),
    "expression": Maker("expr", fam.expression, scoped=True),
}
EXPONENT_RULES = {
    "affine": Maker("a=1 b=0", fam.affine),
    "ceil_mul": Maker("ratio offset=0", fam.ceil_mul),
    "ceil_sqrt": Maker("", fam.ceil_sqrt),
    "ceil_log2p1": Maker("", fam.ceil_log2p1),
}
EXPRESSION_NODES = {
    "ideal": Maker("ideal", fam.Base),
    "family": Maker("family shift=0", fam.Ref),
    "product": Maker("product", fam.Product),
    "sum": Maker("sum", fam.Sum),
    "power": Maker("power exponent=", fam.Power),
}


def parse_config(text: str) -> JobConfig:
    """Parse and validate a job config, collecting every schema error."""
    errors: list[str] = []

    def unique_keys(pairs):  # plain json.loads would keep the last of two equal keys
        obj = dict(pairs)
        if len(obj) < len(pairs):
            errors.extend(f"key {key!r} is given more than once in one object"
                          for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        return obj

    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
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


class Op(NamedTuple):
    reads: str  # the task keys of each argument of `run`, one word each (see _read_keys)
    run: Callable  # (*arguments) -> result
    asserts: tuple = ()  # the "assert" names the op reads
    also_read = ("assert",)  # its reader names each assertion the op does not read


def _arguments(config, task, where, errors) -> list:
    """The arguments that the task gives its op (see _read_keys), a config
    default as the config holds it now, after any command-line override."""
    op = task["op"]
    return _read_keys(OPS[op], task, f"{where}: op {op!r}", "op", errors, lambda key, value: _READERS.get(
        key, _READERS[None])(value, f"{where}: {key!r}", errors, config, op), config.defaults)


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
