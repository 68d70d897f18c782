"""Declarative batch jobs: config parsing, execution, report emission.

Config files are JSON: named ideals (generator exponent lists), named family
descriptors, and an ordered task list.  Reports are deterministic for a fixed
config - rationals are serialized as numerator/denominator strings (never
floats), orderings are fixed everywhere, and wall-clock data is segregated
under a separate key so the rest of the report is byte-stable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, is_dataclass
from fractions import Fraction
from typing import Optional

from . import closures, families as fam, invariants as inv, valuations as val
from .errors import ConfigError, ResurgenceError
from .monomials import MonomialIdeal
from .rationals import ExtendedRational, parse_fraction

VERSION = "0.1.0"

BUILTIN_DEFAULTS = {"window": 20, "cutoff": 200, "kmax": 6, "horizon": 8}

# every op, with the task keys it cannot run without
REQUIRED_KEYS = {
    "beta_table": ("a", "b", "s_to"), "lambda_table": ("a", "b", "n_to"),
    "beta_v_table": ("a", "b", "weights"), "lambda_v_table": ("a", "b", "weights"),
    "rho_window": ("a", "b"), "rho_n": ("a", "b", "n"), "rho_lim": ("a", "b", "grid"),
    "rho_hat_rees": ("a", "b"), "rho_hat_beta": ("a", "b", "n_max"), "rho_exact": ("a", "b"),
    "waldschmidt": ("family", "weights"), "validate_graded": ("family",),
    "validate_filtration": ("family",), "standard_veronese": ("family", "k"),
    "b_equivalent": ("family", "ideal", "k"), "veronese_scaling": ("a", "b", "k"),
    "linearly_finer": ("a", "b"), "rees_valuations": ("ideal",),
    "newton_polyhedron": ("ideal",), "integral_closure": ("ideal",),
    "symbolic_power": ("ideal",),
}

# task keys that are read as integers
INT_KEYS = ("s_from", "s_to", "n_from", "n_to", "n", "k", "n_max", "s_max", "r_max",
            "tail", "budget") + tuple(BUILTIN_DEFAULTS)

FAMILY_KINDS = {
    "powers", "symbolic", "ceiling", "power_pattern", "closure", "closure_powers",
    "veronese", "periodic", "table", "expression",
}


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


def _parse_int(value, where, errors) -> Optional[int]:
    """int(value), or None with an error collected when it is not an integer."""
    try:
        return int(value)
    except (TypeError, ValueError):
        errors.append(f"{where}: expected an integer, got {value!r}")
        return None


def _parse_index_function(node, where, errors) -> Optional[fam.IndexFunction]:
    if not isinstance(node, dict) or "fn" not in node:
        errors.append(f"{where}: exponent rule must be an object with an 'fn' key")
        return None
    kind = node["fn"]
    try:
        if kind == "affine":
            return fam.affine(int(node.get("a", 1)), int(node.get("b", 0)))
        if kind == "ceil_mul":
            return fam.ceil_mul(parse_fraction(str(node["ratio"])), int(node.get("offset", 0)))
        if kind == "ceil_sqrt":
            return fam.ceil_sqrt()
        if kind == "ceil_log2p1":
            return fam.ceil_log2p1()
    except (TypeError, ValueError, ResurgenceError) as exc:
        errors.append(f"{where}: bad exponent rule: {exc}")
        return None
    errors.append(f"{where}: unknown exponent rule {kind!r}")
    return None


def _parse_expr(node, where, names, errors):
    """Parse an expression AST node; records referenced ideal/family names."""
    if not isinstance(node, dict):
        errors.append(f"{where}: expression must be an object")
        return None
    if "ideal" in node:
        names["ideals"].add(node["ideal"])
        return fam.Base(node["ideal"])
    if "family" in node:
        names["families"].add(node["family"])
        shift = _parse_int(node.get("shift", 0), f"{where}: shift", errors)
        return None if shift is None else fam.Ref(node["family"], shift)
    if "product" in node:
        factors = [_parse_expr(x, where, names, errors) for x in node["product"]]
        return None if any(f is None for f in factors) else fam.Product(tuple(factors))
    if "sum" in node:
        terms = [_parse_expr(x, where, names, errors) for x in node["sum"]]
        return None if any(t is None for t in terms) else fam.Sum(tuple(terms))
    if "power" in node:
        base = _parse_expr(node["power"], where, names, errors)
        exponent = _parse_index_function(node.get("exponent", {"fn": "affine", "a": 1}),
                                         where, errors)
        return None if base is None or exponent is None else fam.Power(base, exponent)
    errors.append(f"{where}: expression object needs one of ideal/family/product/sum/power")
    return None


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
    if not isinstance(nvars, int) or nvars < 1:
        errors.append("'vars' must be a positive integer")
        nvars = 1

    ideals: dict[str, MonomialIdeal] = {}
    for name, gens in (raw.get("ideals") or {}).items():
        if not isinstance(gens, list):
            errors.append(f"ideal {name!r}: generators must be a list of exponent vectors")
            continue
        try:
            checked = []
            for g in gens:
                if not isinstance(g, list) or len(g) != nvars:
                    raise ValueError(f"exponent vector {g} does not have length {nvars}")
                checked.append([int(e) for e in g])
            ideals[name] = MonomialIdeal.from_generators(nvars, checked)
        except (ValueError, ResurgenceError) as exc:
            errors.append(f"ideal {name!r}: {exc}")

    family_nodes = raw.get("families") or {}
    deps: dict[str, set] = {}
    parsed: dict[str, dict] = {}
    for name, node in family_nodes.items():
        where = f"family {name!r}"
        if not isinstance(node, dict) or "kind" not in node:
            errors.append(f"{where}: descriptor must be an object with a 'kind'")
            continue
        kind = node["kind"]
        if kind not in FAMILY_KINDS:
            errors.append(f"{where}: unknown family kind {kind!r}")
            continue
        names = {"ideals": set(), "families": set()}
        entry = {"kind": kind, "node": node, "names": names}
        if kind in ("powers", "symbolic", "ceiling", "power_pattern", "closure_powers"):
            if "ideal" not in node:
                errors.append(f"{where}: kind {kind!r} needs an 'ideal'")
            else:
                names["ideals"].add(node["ideal"])
            if kind == "ceiling":
                try:
                    entry["alpha"] = parse_fraction(str(node.get("alpha")))
                except ValueError as exc:
                    errors.append(f"{where}: bad alpha: {exc}")
            if kind == "power_pattern":
                entry["fn"] = _parse_index_function(node.get("exponent"), where, errors)
        elif kind in ("closure", "veronese"):
            if "family" not in node:
                errors.append(f"{where}: kind {kind!r} needs a 'family'")
            else:
                names["families"].add(node["family"])
            if kind == "veronese":
                step = _parse_int(node.get("step", 0), f"{where}: step", errors)
                if step is not None and step < 1:
                    errors.append(f"{where}: veronese needs a positive 'step'")
        elif kind == "periodic":
            period = node.get("period")
            patterns = node.get("patterns")
            if not isinstance(period, int) or period < 1 or not isinstance(patterns, dict):
                errors.append(f"{where}: periodic needs 'period' and a 'patterns' object")
            else:
                entry["patterns"] = {}
                for residue in range(period):
                    key = str(residue)
                    if key not in patterns:
                        errors.append(f"{where}: missing pattern for residue {residue}")
                        continue
                    expr = _parse_expr(patterns[key], f"{where} residue {residue}", names, errors)
                    entry["patterns"][residue] = expr
        elif kind == "table":
            prefix = node.get("prefix")
            if not isinstance(prefix, list):
                errors.append(f"{where}: table needs a 'prefix' list of ideal names")
            else:
                for entry_name in prefix:
                    names["ideals"].add(entry_name)
            if node.get("tail") is not None:
                entry["tail"] = _parse_expr(node["tail"], f"{where} tail", names, errors)
        elif kind == "expression":
            if "expr" not in node:
                errors.append(f"{where}: expression kind needs 'expr'")
            else:
                entry["expr"] = _parse_expr(node["expr"], where, names, errors)
        parsed[name] = entry
        deps[name] = set(names["families"])

    for name, entry in parsed.items():
        for iname in entry["names"]["ideals"]:
            if iname not in ideals:
                errors.append(f"family {name!r}: references undefined ideal {iname!r}")
        for fname in entry["names"]["families"]:
            if fname not in parsed:
                errors.append(f"family {name!r}: references undefined family {fname!r}")

    order = _topo_order(deps, errors)

    tasks = raw.get("tasks") or []
    if not isinstance(tasks, list):
        errors.append("'tasks' must be a list")
        tasks = []
    for i, task in enumerate(tasks):
        where = f"task {i}"
        if not isinstance(task, dict) or "op" not in task:
            errors.append(f"{where}: must be an object with an 'op'")
            continue
        if task["op"] not in REQUIRED_KEYS:
            errors.append(f"{where}: unknown op {task['op']!r}")
            continue
        for key in REQUIRED_KEYS[task["op"]]:
            if key not in task:
                errors.append(f"{where}: op {task['op']!r} needs {key!r}")
        for key in INT_KEYS:
            if key in task:
                _parse_int(task[key], f"{where}: {key!r}", errors)
        for key in ("a", "b", "family"):
            if key in task and task[key] not in parsed:
                errors.append(f"{where}: references undefined family {task[key]!r}")
        if "ideal" in task and task["ideal"] not in ideals:
            errors.append(f"{where}: references undefined ideal {task['ideal']!r}")
        if "weights" in task:
            w = task["weights"]
            if not isinstance(w, list) or len(w) != nvars:
                errors.append(f"{where}: 'weights' must be a list of length {nvars}")
        if not isinstance(task.get("grid", []), list):
            errors.append(f"{where}: 'grid' must be a list of integers")
        for key in ("weights", "grid"):
            for item in task[key] if isinstance(task.get(key), list) else ():
                _parse_int(item, f"{where}: {key!r}", errors)

    output = raw.get("output") or {}
    out_format = output.get("format", "json")
    if out_format not in ("json", "csv"):
        errors.append(f"output format must be 'json' or 'csv', not {out_format!r}")
    defaults = dict(BUILTIN_DEFAULTS)
    for key in BUILTIN_DEFAULTS:
        if key in (raw.get("defaults") or {}):
            defaults[key] = _parse_int(raw["defaults"][key], f"defaults: {key!r}", errors)

    if errors:
        raise ConfigError(errors)

    env = fam.Environment(ideals)
    built: dict[str, fam.GradedFamily] = {}
    for name in order:
        built[name] = _build_family(name, parsed[name], nvars, ideals, built, env)
        env.bind_family(name, built[name])

    normalized = {
        "vars": nvars,
        "ideals": {k: [list(g) for g in ideals[k].generators] for k in sorted(ideals)},
        "families": {k: family_nodes[k] for k in sorted(family_nodes)},
        "tasks": tasks,
        "defaults": defaults,
        "output": {"format": out_format, "path": output.get("path")},
    }
    return JobConfig(nvars, ideals, built, tasks, out_format, output.get("path"),
                     defaults, normalized)


def _topo_order(deps, errors):
    order, state = [], {}

    def visit(node, stack):
        if state.get(node) == "done":
            return
        if state.get(node) == "active":
            errors.append(f"cycle among family definitions: {' -> '.join(stack + [node])}")
            return
        state[node] = "active"
        for dep in sorted(deps.get(node, ())):
            if dep in deps:
                visit(dep, stack + [node])
        state[node] = "done"
        order.append(node)

    for node in sorted(deps):
        visit(node, [])
    return order


def _build_family(name, entry, nvars, ideals, built, env):
    kind = entry["kind"]
    node = entry["node"]
    if kind == "powers":
        return fam.powers(ideals[node["ideal"]], name=name)
    if kind == "symbolic":
        return fam.symbolic(ideals[node["ideal"]], name=name)
    if kind == "ceiling":
        return fam.ceiling(ideals[node["ideal"]], entry["alpha"], name=name)
    if kind == "power_pattern":
        return fam.power_pattern(ideals[node["ideal"]], entry["fn"], name=name)
    if kind == "closure_powers":
        return fam.closure_powers(ideals[node["ideal"]], name=name)
    if kind == "closure":
        return fam.closure_of(built[node["family"]], name=name)
    if kind == "veronese":
        return fam.veronese(built[node["family"]], int(node["step"]), name=name)
    if kind == "periodic":
        return fam.periodic(nvars, int(node["period"]), entry["patterns"], env, name=name)
    if kind == "table":
        prefix = [ideals[n] for n in node["prefix"]]
        return fam.table(nvars, prefix, entry.get("tail"), env, name=name)
    if kind == "expression":
        return fam.expression(nvars, entry["expr"], env, name=name)
    raise AssertionError(kind)  # pragma: no cover


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def run(config: JobConfig) -> dict:
    """Execute every task in order; failures are recorded per task and do not
    abort the batch.  Returns the structured report."""
    import time

    results = []
    timings = {}
    for i, task in enumerate(config.tasks):
        started = time.perf_counter()
        record = {"index": i, "op": task["op"]}
        try:
            record["result"] = encode(_run_task(config, task))
            record["status"] = "ok"
        except ResurgenceError as exc:
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
        timings[str(i)] = time.perf_counter() - started
        results.append(record)
    return {
        "tool": "resurgence",
        "version": VERSION,
        "config_digest": config.digest(),
        "config": config.normalized,
        "tasks": results,
        "timings": timings,
    }


def exit_status(report: dict) -> int:
    return 1 if any(t["status"] == "error" for t in report["tasks"]) else 0


def _param(config, task, key):
    return int(task.get(key, config.defaults.get(key, BUILTIN_DEFAULTS.get(key))))


def _run_task(config: JobConfig, task: dict):
    op = task["op"]
    fams = config.families
    if op == "beta_table":
        a, b = fams[task["a"]], fams[task["b"]]
        cutoff = _param(config, task, "cutoff")
        return {"table": [(s, inv.beta(a, b, s, cutoff))
                          for s in range(int(task.get("s_from", 1)), int(task["s_to"]) + 1)]}
    if op == "lambda_table":
        a, b = fams[task["a"]], fams[task["b"]]
        cutoff = _param(config, task, "cutoff")
        return {"table": [(n, inv.lambda_(a, b, n, cutoff))
                          for n in range(int(task.get("n_from", 1)), int(task["n_to"]) + 1)]}
    if op in ("beta_v_table", "lambda_v_table"):
        a, b = fams[task["a"]], fams[task["b"]]
        v = val.MonomialValuation(tuple(int(w) for w in task["weights"]))
        cutoff = _param(config, task, "cutoff")
        func = inv.beta_v if op == "beta_v_table" else inv.lambda_v
        lo = int(task.get("n_from", task.get("s_from", 1)))
        hi = int(task.get("n_to", task.get("s_to", 0)))
        return {"table": [(n, func(v, a, b, n, cutoff)) for n in range(lo, hi + 1)]}
    if op == "rho_window":
        window = _param(config, task, "window")
        return inv.rho_window(fams[task["a"]], fams[task["b"]],
                              int(task.get("s_max", window)), int(task.get("r_max", window)))
    if op == "rho_n":
        return inv.rho_n(fams[task["a"]], fams[task["b"]], int(task["n"]),
                         int(task.get("s_max", _param(config, task, "window"))),
                         _param(config, task, "cutoff"))
    if op == "rho_lim":
        return inv.rho_lim_estimate(fams[task["a"]], fams[task["b"]],
                                    [int(n) for n in task["grid"]],
                                    _param(config, task, "cutoff"),
                                    tail=int(task.get("tail", 10)),
                                    kmax=_param(config, task, "kmax"),
                                    horizon=_param(config, task, "horizon"))
    if op == "rho_hat_rees":
        return inv.rho_hat_rees(fams[task["a"]], fams[task["b"]],
                                kmax=_param(config, task, "kmax"),
                                horizon=_param(config, task, "horizon"),
                                assertions=tuple(task.get("assert", ())))
    if op == "rho_hat_beta":
        return inv.rho_hat_beta_limit(fams[task["a"]], fams[task["b"]], int(task["n_max"]),
                                      _param(config, task, "cutoff"),
                                      grid=task.get("grid"),
                                      kmax=_param(config, task, "kmax"),
                                      horizon=_param(config, task, "horizon"))
    if op == "rho_exact":
        return inv.rho_exact_certified(fams[task["a"]], fams[task["b"]],
                                       search_budget=int(task.get("budget", 60)),
                                       kmax=_param(config, task, "kmax"),
                                       horizon=_param(config, task, "horizon"),
                                       assertions=tuple(task.get("assert", ())))
    if op == "waldschmidt":
        v = val.MonomialValuation(tuple(int(w) for w in task["weights"]))
        return val.skew_waldschmidt(v, fams[task["family"]],
                                    window=_param(config, task, "window"),
                                    kmax=_param(config, task, "kmax"))
    if op == "validate_graded":
        return fam.validate_graded(fams[task["family"]], _param(config, task, "horizon"))
    if op == "validate_filtration":
        return fam.validate_filtration(fams[task["family"]], _param(config, task, "horizon"))
    if op == "standard_veronese":
        return fam.is_standard_veronese(fams[task["family"]], int(task["k"]),
                                        _param(config, task, "horizon"))
    if op == "b_equivalent":
        return fam.is_b_equivalent(fams[task["family"]], config.ideals[task["ideal"]],
                                   int(task["k"]), _param(config, task, "horizon"))
    if op == "veronese_scaling":
        return inv.veronese_scaling_check(fams[task["a"]], fams[task["b"]], int(task["k"]),
                                          _param(config, task, "window"))
    if op == "linearly_finer":
        return inv.linearly_finer_check(fams[task["a"]], fams[task["b"]],
                                        _param(config, task, "window"))
    if op == "rees_valuations":
        return closures.rees_valuations(config.ideals[task["ideal"]])
    if op == "newton_polyhedron":
        return closures.newton_polyhedron(config.ideals[task["ideal"]])
    if op == "integral_closure":
        view = closures.integral_closure(config.ideals[task["ideal"]], int(task.get("n", 1)))
        return {"generators": view.generators}
    if op == "symbolic_power":
        view = closures.symbolic_power(config.ideals[task["ideal"]], int(task.get("n", 1)))
        return {"generators": view.generators}
    raise AssertionError(op)  # pragma: no cover


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
    if isinstance(obj, val.MonomialValuation):
        return {"weights": list(obj.weights)}
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
    if isinstance(obj, fam.GradedFamily):
        return {"family": obj.name or obj.kind}
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
