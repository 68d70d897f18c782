"""Runtime wrappers that time the library's layers from outside.

Nothing here edits the library: `Tracer.install` replaces public functions
and methods of `resurgence.*` with wrappers for the length of one pass.  A
module that imported a function by name (for example `closures` binds
`hull_with_recession`) holds its own reference, so every binding of the
original object in every `resurgence` module is replaced, and install fails
if one is left over.

Each wrapped call records a span (name, start, end, parent) in memory; a
span's self time is its duration minus the durations of its direct children.
Calls too hot to span (`MonomialIdeal.contains`, about 10^6 per pass) are
only counted.  Metric names are `<module>.<function>.<quantity>`.
"""

import importlib
import sys
import time
from collections import defaultdict

MODULES = ("monomials", "polyhedra", "closures", "valuations", "families", "invariants",
           "jobs", "cli")

# (module, attribute path) of every spanned callable
SPANNED = (
    ("monomials", "MonomialIdeal.is_subset_of"),
    ("monomials", "MonomialIdeal.witness_not_in"),
    ("monomials", "MonomialIdeal.multiply"),
    ("monomials", "MonomialIdeal.power"),
    ("monomials", "MonomialIdeal.add"),
    ("monomials", "minimize_monomials"),
    ("monomials", "minimal_lattice_points"),
    ("polyhedra", "hull_with_recession"),
    ("polyhedra", "lp_minimize"),
    ("closures", "newton_polyhedron"),
    ("closures", "minimal_covers"),
    ("closures", "rees_valuations"),
    ("closures", "bequiv_constant"),
    ("valuations", "skew_waldschmidt"),
    ("families", "GradedFamily.member"),
    ("families", "validate_graded"),
    ("families", "validate_filtration"),
    ("invariants", "beta"),
    ("invariants", "lambda_"),
    ("invariants", "rho_window"),
    ("invariants", "rho_hat_rees"),
    ("invariants", "rho_hat_beta_limit"),
    ("invariants", "rho_exact_certified"),
    ("jobs", "parse_config"),
    ("jobs", "emit"),
)
COUNTED = (("monomials", "MonomialIdeal.contains"),)

WALDSCHMIDT_METHODS = ("closed-form", "lp", "veronese", "window")


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.members = set()  # (family, n) pairs seen with n >= 1
        self.beta_depth = 0
        self._restore = []  # (holder, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"resurgence.{name}") for name in MODULES}
        for module, attr in SPANNED + COUNTED:
            holder, name = self._holder(modules[module], attr)
            original = getattr(holder, name)
            wrapper = self._wrap(metric_name(module, attr), original,
                                 spanned=(module, attr) in SPANNED)
            if holder is modules[module]:
                self._rebind_everywhere(original, wrapper)
            else:  # a method: the class attribute is the only binding
                self._set(holder, name, wrapper)

    def uninstall(self):
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    @staticmethod
    def _holder(module, attr):
        parts = attr.split(".")
        holder = module
        for part in parts[:-1]:
            holder = getattr(holder, part)
        return holder, parts[-1]

    def _set(self, holder, name, value):
        self._restore.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def _rebind_everywhere(self, original, wrapper):
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "resurgence" or key.startswith("resurgence.")]
        for module in loaded:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)
        left = [f"{m.__name__}.{n}" for m in loaded for n, v in vars(m).items() if v is original]
        if left:
            raise RuntimeError(f"bindings left unwrapped: {left}")

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name, fn, spanned):
        counts = self.counts
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        if not spanned:
            def counted(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if before is not None:
                args, state = before(args)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
                if before is not None:
                    self._leave(name, state)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _leave(self, name, state):
        if name == "invariants.beta":
            self.beta_depth -= 1
        elif name == "closures.newton_polyhedron":
            if self.counts["polyhedra.hull_with_recession.calls"] == state:
                self.counts["closures.newton_polyhedron.cache_hits"] += 1

    # Each _before_ hook returns the (possibly materialized) arguments and a
    # state value handed to _leave; each _after_ hook sees the result.

    def _before_monomials_is_subset_of(self, args):
        if self.beta_depth:
            self.counts["invariants.beta.probes"] += 1
        return args, None

    def _before_invariants_beta(self, args):
        self.beta_depth += 1
        return args, None

    def _before_closures_newton_polyhedron(self, args):
        return args, self.counts["polyhedra.hull_with_recession.calls"]

    def _before_monomials_minimize_monomials(self, args):
        gens = tuple(args[0])
        self.counts["monomials.minimize_monomials.gens_in"] += len(gens)
        return (gens,) + args[1:], None

    def _after_monomials_minimize_monomials(self, args, result):
        self.counts["monomials.minimize_monomials.gens_kept"] += len(result)

    def _after_monomials_minimal_lattice_points(self, args, result):
        box = args[2]
        scanned = 1
        for bound in box[:-1]:
            scanned *= bound + 1
        self.counts["monomials.minimal_lattice_points.points_scanned"] += scanned

    def _before_polyhedra_hull_with_recession(self, args):
        points = tuple(args[0])
        self.counts["polyhedra.hull_with_recession.points_in"] += len(points)
        return (points,) + args[1:], None

    def _after_polyhedra_hull_with_recession(self, args, result):
        self.counts["polyhedra.hull_with_recession.facets_out"] += len(result.halfspaces)
        self.counts["polyhedra.hull_with_recession.vertices_out"] += len(result.vertices)

    def _after_polyhedra_lp_minimize(self, args, result):
        self.counts["polyhedra.lp_minimize.constraints_in"] += len(args[0].constraints)

    def _after_valuations_skew_waldschmidt(self, args, result):
        self.counts[f"valuations.skew_waldschmidt.method.{result.method}"] += 1

    def _after_families_member(self, args, result):
        family, n = args[0], args[1]
        if n >= 1:
            self.members.add((family, n))

    def _after_jobs_emit(self, args, result):
        self.counts["jobs.emit.bytes"] += sum(len(data) for data in result.values())

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict:
        own = defaultdict(float)
        spans = self.spans
        for name, start, end, parent in spans:
            own[name] += end - start
            if parent >= 0:
                own[spans[parent][0]] -= end - start
        return own

    def summary(self) -> dict:
        """Counters and self times by metric name, plus per-module totals."""
        out = dict(self.counts)
        out["families.member.computed"] = len(self.members)
        modules = defaultdict(float)
        for name, seconds in self.self_times().items():
            out[name + ".self_s"] = seconds
            modules[name.split(".")[0]] += seconds
        for module, seconds in modules.items():
            out[module + ".self_s"] = seconds
        return out

    def write_spans(self, path):
        """Tab-separated spans: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
