"""Graded families of monomial ideals: constructors, lazy cached members,
and finite-window validation of the graded / filtration / standard-Veronese /
base-equivalence hypotheses.  Each constructor states its kind once: the
closure computing members and the structural facts the library reads.

Members obey the global conventions member(0) = S and member(i) = (0) for
i < 0.  Validation is always finite-window: a report either carries a
structural certificate (true by construction of the kind) or a window
certificate with its horizon; the library never asserts an infinite
hypothesis from finitely many members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Tuple

from . import closures
from .errors import DomainError, FamilyRangeError
from .monomials import MonomialIdeal
from .rationals import ceil_frac


# ---------------------------------------------------------------------------
# index functions: the exponent vocabulary for power-pattern families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexFunction:
    """A nonnegative, nondecreasing exponent rule n -> e(n).

    kinds: 'affine' a*n + b; 'ceil_mul' ceil(ratio*n) + offset;
    'ceil_sqrt' ceil(sqrt(n)); 'ceil_log2p1' ceil(log2(n + 1)).
    """

    kind: str
    a: Fraction = Fraction(0)
    b: int = 0

    def __call__(self, n: int) -> int:
        if self.kind == "affine":
            value = int(self.a) * n + self.b
        elif self.kind == "ceil_mul":
            value = ceil_frac(self.a * n) + self.b
        elif self.kind == "ceil_sqrt":
            value = 0 if n <= 0 else math.isqrt(n - 1) + 1
        elif self.kind == "ceil_log2p1":
            value = max(n, 0).bit_length()
        else:  # pragma: no cover
            raise DomainError(f"unknown index function {self.kind!r}")
        if value < 0:
            raise DomainError(f"index function produced a negative exponent at n={n}")
        return value

    @property
    def slope(self) -> Fraction:
        """Exact limit of e(n)/n."""
        return self.a if self.kind in ("affine", "ceil_mul") else Fraction(0)

    @property
    def subadditive(self) -> bool:
        """e(p+q) <= e(p) + e(q) for all p, q >= 1 (makes the family graded)."""
        if self.kind in ("affine", "ceil_mul"):
            return self.b >= 0
        return True  # ceil(sqrt) and ceil(log2(n+1)) are subadditive

    @property
    def pure_slope(self) -> bool:
        """True when e(n) = ceil(slope * n) exactly (no offset)."""
        return self.kind in ("affine", "ceil_mul") and self.b == 0 and self.a > 0


def affine(a: int, b: int = 0) -> IndexFunction:
    if a < 0:
        raise DomainError("index functions must be nondecreasing")
    if Fraction(a).denominator != 1:
        raise DomainError(f"an affine slope must be an integer, not {a}; ceil_mul takes a rational one")
    return IndexFunction("affine", Fraction(a), b)


def ceil_mul(ratio: Fraction, offset: int = 0) -> IndexFunction:
    ratio = Fraction(ratio)
    if ratio < 0:
        raise DomainError("index functions must be nondecreasing")
    return IndexFunction("ceil_mul", ratio, offset)


def ceil_sqrt() -> IndexFunction:
    return IndexFunction("ceil_sqrt")


def ceil_log2p1() -> IndexFunction:
    return IndexFunction("ceil_log2p1")


# ---------------------------------------------------------------------------
# ideal expressions (periodic patterns, table tails, recurrences)
# ---------------------------------------------------------------------------


class Expr:
    """Ideal-valued expression evaluated at a member index n.

    Leaves are named base ideals or shifted references to other families;
    nodes are sums, products, and powers with IndexFunction exponents.
    `key(n)` is all that `evaluate` reads of n (exponents and shifted
    indices), so equal keys give equal members; n itself is always sound.
    """

    def evaluate(self, n: int, env: "Environment") -> MonomialIdeal:
        raise NotImplementedError

    def key(self, n: int):
        return n

    def depends_on_index(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Base(Expr):
    name: str

    def evaluate(self, n, env):
        return env.ideal(self.name)

    def key(self, n):
        return ()

    def depends_on_index(self):
        return False


@dataclass(frozen=True)
class Ref(Expr):
    """Member of another family at index n + shift (conventions apply)."""

    family: str
    shift: int = 0

    def evaluate(self, n, env):
        return env.family(self.family).member(n + self.shift)

    def key(self, n):
        return n + self.shift

    def depends_on_index(self):
        return True


@dataclass(frozen=True)
class Product(Expr):
    factors: Tuple[Expr, ...]

    def evaluate(self, n, env):
        result = None
        for f in self.factors:
            ideal = f.evaluate(n, env)
            result = ideal if result is None else result.multiply(ideal)
        return result

    def key(self, n):
        return tuple(f.key(n) for f in self.factors)

    def depends_on_index(self):
        return any(f.depends_on_index() for f in self.factors)


@dataclass(frozen=True)
class Sum(Expr):
    terms: Tuple[Expr, ...]

    def evaluate(self, n, env):
        result = None
        for t in self.terms:
            ideal = t.evaluate(n, env)
            result = ideal if result is None else result.add(ideal)
        return result

    def key(self, n):
        return tuple(t.key(n) for t in self.terms)

    def depends_on_index(self):
        return any(t.depends_on_index() for t in self.terms)


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: IndexFunction

    def evaluate(self, n, env):
        return self.base.evaluate(n, env).power(self.exponent(n))

    def key(self, n):
        return self.base.key(n), self.exponent(n)

    def depends_on_index(self):
        return self.base.depends_on_index() or not (
            self.exponent.kind == "affine" and self.exponent.a == 0
        )


class Environment:
    """Named base ideals and families available to expressions."""

    def __init__(self, ideals: Mapping[str, MonomialIdeal] | None = None,
                 families: Mapping[str, "GradedFamily"] | None = None):
        self._ideals = dict(ideals or {})
        self._families = dict(families or {})

    def ideal(self, name: str) -> MonomialIdeal:
        if name not in self._ideals:
            raise FamilyRangeError(f"unknown ideal name {name!r}")
        return self._ideals[name]

    def family(self, name: str) -> "GradedFamily":
        if name not in self._families:
            raise FamilyRangeError(f"unknown family name {name!r}")
        return self._families[name]

    def bind_family(self, name: str, fam: "GradedFamily"):
        self._families[name] = fam


# ---------------------------------------------------------------------------
# graded families
# ---------------------------------------------------------------------------


class GradedFamily:
    """A lazily evaluated family {a_i} of monomial ideals.

    A constructor passes `compute` (member n for n >= 1) and the facts true of
    its kind by construction: `power` = (base, exponent rule) when the members
    are base^e(n), or their closures when they are `integrally_closed`;
    structural `filtration`/`graded`; `veronese_k` with member(k*n) = member(k)^n;
    `constant_from` d0 with member(d) = member(d0) for d >= d0; `inner`/`step`
    with v(member(n)) = v(inner.member(step*n)) for every monomial valuation v;
    `symbolic_of`, the ideal whose symbolic powers the members are.  `kind` is
    only a label.  Computed members are cached and never mutated.
    """

    def __init__(self, kind: str, nvars: int, compute: Callable[[int], MonomialIdeal], name=None,
                 *, power=None, filtration=False, graded=False, veronese_k=None,
                 integrally_closed=False, constant_from=None, inner=None, step=1,
                 symbolic_of=None):
        self.kind = kind
        self.nvars = nvars
        self.compute = compute
        self.name = name
        self.power = power
        self.filtration = filtration
        self.graded = graded
        self.veronese_k = veronese_k
        self.integrally_closed = integrally_closed
        self.constant_from = constant_from
        self.inner = inner
        self.step = step
        self.symbolic_of = symbolic_of
        self._cache: dict[int, MonomialIdeal] = {}

    def member(self, n: int) -> MonomialIdeal:
        if n < 0:
            return MonomialIdeal.zero(self.nvars)
        if n == 0:
            return MonomialIdeal.unit(self.nvars)
        got = self._cache.get(n)
        if got is None:
            got = self.compute(n)
            self._cache[n] = got
        return got

    def base_equivalence(self) -> Optional[Tuple[MonomialIdeal, closures.EquivalenceConstant]]:
        """(base ideal b, shift certificate) when the family is structurally
        b-equivalent: ordinary powers (k = 0) or closures of powers
        (Briancon-Skoda)."""
        sem = self.power
        if sem is None or sem[1] != affine(1) or not sem[0].is_proper():
            return None
        if not self.integrally_closed:
            return sem[0], closures.EquivalenceConstant(0, 0, True, 8)
        return sem[0], closures.bequiv_constant(sem[0])

    def value_rule(self, weights: Tuple[int, ...]) -> Optional[Callable[[int], int]]:
        """Closed-form n -> v(member(n)) for power families and for families
        whose values come from an inner family with one."""
        if self.power is not None:
            base, fn = self.power
            if base.is_zero():
                return None
            v_base = base.weighted_min(weights)
            return lambda n: fn(n) * v_base
        inner = None if self.inner is None else self.inner.value_rule(weights)
        if inner is None:
            return None
        step = self.step
        return lambda n: inner(step * n)

    def __repr__(self):
        label = self.name or self.kind
        return f"GradedFamily({label})"


# -- constructors -------------------------------------------------------------


def powers(ideal: MonomialIdeal, name=None) -> GradedFamily:
    return power_pattern(ideal, affine(1), name=name)


def power_pattern(ideal: MonomialIdeal, fn: IndexFunction, name=None) -> GradedFamily:
    """Members ideal^fn(n): a filtration since fn is nondecreasing."""
    return GradedFamily(
        "power_fn", ideal.nvars, lambda n: ideal.power(fn(n)), name,
        power=(ideal, fn), filtration=True, graded=fn.subadditive,
        veronese_k=fn.slope.denominator if fn.pure_slope else None,
        constant_from=1 if fn.kind == "affine" and fn.a == 0 else None)


def ceiling(ideal: MonomialIdeal, alpha: Fraction, name=None) -> GradedFamily:
    """The family I^(ceil(alpha * n)) for an exact rational alpha > 0.

    Irrational scaling rules are approximated by a caller-chosen rational;
    exactness is only ever claimed for the rational actually supplied.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise DomainError("ceiling families need alpha > 0")
    return power_pattern(ideal, ceil_mul(alpha), name=name)


def constant(ideal: MonomialIdeal, name=None) -> GradedFamily:
    return power_pattern(ideal, affine(0, 1), name=name)


def symbolic(ideal: MonomialIdeal, name=None) -> GradedFamily:
    """Symbolic powers: graded, shrinking, and intersections of powers of
    monomial primes, hence integrally closed."""
    return GradedFamily("symbolic", ideal.nvars, lambda n: closures.symbolic_power(ideal, n), name,
                        filtration=True, graded=True, integrally_closed=True, symbolic_of=ideal)


def closure_of(family: GradedFamily, name=None) -> GradedFamily:
    """Memberwise integral closures; monomial valuations do not see them.  The
    members of an integrally closed family pass through unchanged."""
    sem = family.power
    if family.integrally_closed:
        compute = family.member
    elif sem is not None and not sem[0].is_zero():
        base, fn = sem

        def compute(n):
            e = fn(n)
            return MonomialIdeal.unit(family.nvars) if e == 0 else closures.integral_closure(base, e)
    else:
        def compute(n):
            m = family.member(n)
            return m if m.is_zero() or m.is_unit() else closures.integral_closure(m, 1)
    return GradedFamily(
        "closure_of", family.nvars, compute, name,
        power=sem, filtration=family.filtration, graded=family.graded, integrally_closed=True,
        constant_from=family.constant_from, inner=family)


def closure_powers(ideal: MonomialIdeal, name=None) -> GradedFamily:
    return closure_of(powers(ideal), name=name)


def veronese(family: GradedFamily, k: int, name=None) -> GradedFamily:
    """The substride n -> member(k*n); constant from ceil(d0/k) when the
    inner family is constant from d0."""
    if k < 1:
        raise DomainError("Veronese step must be positive")
    d0 = family.constant_from
    return GradedFamily(
        "veronese", family.nvars, lambda n: family.member(k * n), name,
        filtration=family.filtration, graded=family.graded, veronese_k=family.veronese_k,
        integrally_closed=family.integrally_closed,
        constant_from=None if d0 is None else -(-d0 // k), inner=family, step=k)


def _built_once(expr: Expr, env: Environment) -> Callable[[int], MonomialIdeal]:
    """n -> expr at n, built once per distinct expr.key(n): indices with equal
    keys share one member object (members are never mutated)."""
    built = {}

    def member(n):
        key = expr.key(n)
        if key not in built:
            built[key] = expr.evaluate(n, env)
        return built[key]
    return member


def periodic(nvars: int, period: int, patterns: Mapping[int, Expr], env: Environment,
             name=None) -> GradedFamily:
    """Member n is patterns[n % period] at n, built once per residue and key."""
    # as many patterns as residues, each under its residue: exactly 0..period-1
    if period < 1 or len(patterns) != period or not all(isinstance(r, int) and 0 <= r < period for r in patterns):
        raise DomainError("periodic family needs one pattern per residue class 0..period-1")
    members = {r: _built_once(expr, env) for r, expr in patterns.items()}
    return GradedFamily("periodic", nvars, lambda n: members[n % period](n), name)


def table(nvars: int, prefix: Sequence[MonomialIdeal], tail: Optional[Expr] = None,
          env: Optional[Environment] = None, name=None) -> GradedFamily:
    """Listed members 1..len(prefix), then the tail expression, built once per
    key (constant from len(prefix) + 1 when the tail does not depend on n)."""
    prefix = tuple(prefix)
    tail_member = None if tail is None else _built_once(tail, env or Environment())

    def compute(n):
        if n <= len(prefix):
            return prefix[n - 1]
        if tail_member is None:
            raise FamilyRangeError(f"table family has no member at index {n} and no tail rule")
        return tail_member(n)
    fixed = tail is not None and not tail.depends_on_index()
    return GradedFamily("table", nvars, compute, name, constant_from=len(prefix) + 1 if fixed else None)


def expression(nvars: int, expr: Expr, env: Environment, name=None) -> GradedFamily:
    """Member n is expr at n, built once per distinct expr.key(n)."""
    return GradedFamily("expression", nvars, _built_once(expr, env), name)


def from_function(nvars: int, func: Callable[[int], MonomialIdeal], name=None) -> GradedFamily:
    """Library-only escape hatch: members computed by an arbitrary function."""
    return GradedFamily("custom", nvars, func, name)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    """Outcome of a finite-window hypothesis check.

    holds=False carries an independently checkable counterexample, except
    the 'not found' report of `find_standard_veronese`, which carries none;
    holds=True is either 'structural' (true by construction) or a 'window'
    certificate valid up to `horizon` only.
    """

    property: str
    horizon: int
    holds: bool
    certificate: str = "window"
    params: dict = field(default_factory=dict)
    counterexample: Optional[dict] = None


def _first_counterexample(property: str, horizon: int, params: dict, cases) -> ValidationReport:
    """The report on a lazy stream of cases (indices, witness, extra): the
    first case with a witness is the counterexample, a stream without one
    gives the window certificate, and an empty one (no index) is refused."""
    checked = 0
    for checked, (indices, witness, extra) in enumerate(cases, 1):
        if witness is not None:
            return ValidationReport(property, horizon, False, "window", params,
                                    counterexample={"indices": indices, "witness": witness, **extra})
    if not checked:
        raise DomainError(f"a {property} window needs a horizon >= 1 that checks an index, not {horizon}")
    return ValidationReport(property, horizon, True, "window", params)


def validate_graded(family: GradedFamily, horizon: int) -> ValidationReport:
    """Check a_p a_q <= a_(p+q) for all p + q <= horizon."""
    if family.graded:
        return ValidationReport("graded", horizon, True, "structural")
    return _first_counterexample("graded", horizon, {}, (
        ((p, q), family.member(p).multiply(family.member(q)).witness_not_in(family.member(p + q)), {})
        for p in range(1, horizon) for q in range(p, horizon - p + 1)))


def validate_filtration(family: GradedFamily, horizon: int) -> ValidationReport:
    """Check a_(p+1) <= a_p for all p < horizon."""
    if family.filtration:
        return ValidationReport("filtration", horizon, True, "structural")
    return _first_counterexample("filtration", horizon, {}, (
        ((p + 1, p), family.member(p + 1).witness_not_in(family.member(p)), {}) for p in range(1, horizon)))


def is_standard_veronese(family: GradedFamily, k: int, horizon: int) -> ValidationReport:
    """Check member(k*n) == member(k)^n (equal minimal generators) for n <= horizon.
    Only an index k >= 1 is a standard Veronese index."""
    if k < 1:
        raise DomainError(f"a standard Veronese index needs k >= 1, not {k}")
    params = {"k": k}
    sk = family.veronese_k
    if sk is not None and k % sk == 0:
        return ValidationReport("standard_veronese", horizon, True, "structural", params)
    bk = family.member(k)

    def cases():
        for n in range(1, horizon + 1):
            left, right = family.member(k * n), bk.power(n)
            # one generator compare is cheaper than two witness scans
            witness = None if left == right else left.witness_not_in(right) or right.witness_not_in(left)
            yield (k * n, n), witness, {}
    return _first_counterexample("standard_veronese", horizon, params, cases())


def find_standard_veronese(family: GradedFamily, kmax: int, horizon: int):
    """Smallest k <= kmax passing is_standard_veronese, with its report.

    Noetherian families admit some such k but no bound is known a priori;
    a miss up to kmax is reported as a failure to find, never as evidence
    of non-Noetherianity.  A structural index k <= kmax is the only one tried.
    """
    if kmax < 1:  # the search would try no index and report a miss
        raise DomainError(f"a standard Veronese search needs kmax >= 1, not {kmax}")
    sk = family.veronese_k
    for k in (sk,) if sk is not None and sk <= kmax else range(1, kmax + 1):
        report = is_standard_veronese(family, k, horizon)
        if report.holds:
            return k, report
    return None, ValidationReport("standard_veronese", horizon, False, "window", {"k": None, "kmax": kmax})


def is_b_equivalent(family: GradedFamily, base: MonomialIdeal, k: int, horizon: int) -> ValidationReport:
    """Check member(i+k) <= base^i <= member(i) for i <= horizon."""

    def cases():
        for i in range(1, horizon + 1):
            bi = base.power(i)
            yield (i + k, i), family.member(i + k).witness_not_in(bi), {"side": "family_in_power"}
            yield (i, i), bi.witness_not_in(family.member(i)), {"side": "power_in_family"}
    return _first_counterexample("b_equivalent", horizon, {"k": k}, cases())
