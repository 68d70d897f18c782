"""Containment invariants of pairs of graded families.

Conventions throughout: sup of an empty set is -inf and inf of an empty set
is +inf (SequenceValue / ExtendedRational encode both).  Window suprema are
certified lower bounds of the true supremum; a report carries certified=True
only when a theorem route (Rees-valuation formula, base-equivalence, or the
finite certified search region) pins the exact value, with every hypothesis
it used recorded in the report.  The eventual quantifier in the asymptotic
resurgence ("for all large t") is never evaluated directly: it is not finitely
decidable, so asymptotic values are only produced through those routes or
labeled as estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Tuple

from . import families as fam
from .closures import bequiv_constant, EquivalenceConstant, rees_valuations
from .errors import CapabilityError, DomainError, HypothesisError
from .rationals import NEG_INFINITY, POS_INFINITY, ExtendedRational, ceil_frac, finite
from .valuations import MonomialValuation, skew_waldschmidt


# ---------------------------------------------------------------------------
# escape sequences beta and lambda
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceValue:
    """Value of an escape index: a finite integer, '> bound', or empty set.

    certified=False marks window answers that the structure of the families
    could not close (e.g. a largest escape index for a non-filtration family).
    """

    kind: str  # "finite" | "exceeds" | "empty"
    value: Optional[int] = None
    bound: Optional[int] = None
    certified: bool = True

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self) -> str:
        if self.kind == "finite":
            return str(self.value)
        if self.kind == "exceeds":
            return f">{self.bound}"
        return "empty"


def _first_index(holds: Callable[[int], bool], cutoff: int) -> Optional[int]:
    """Least d in 1..cutoff with holds(d), given an upward-closed set of such d;
    None if there is none.

    Gallops through 1, 2, 4, ... (capped at the cutoff) and then bisects the
    last gap, so members are only evaluated near the answer and no index is
    probed twice.
    """
    lo, d = 0, 1
    while not holds(d):
        if d >= cutoff:
            return None
        lo, d = d, min(2 * d, cutoff)
    while d - lo > 1:
        mid = (lo + d) // 2
        if holds(mid):
            d = mid
        else:
            lo = mid
    return d


def _power_pair_tests(a: fam.GradedFamily, b: fam.GradedFamily):
    """Integer containment test for same-base power-pattern pairs.

    a_s <= b_d iff e_a(s) >= e_b(d), valid when the right side is an
    integral-closure family or both sides are plain power families of the
    same proper base (a Rees valuation of the base separates the powers;
    a closure on the left only cannot be decided by exponents alone).
    """
    sa, sb = a.power, b.power
    if sa is None or sb is None:
        return None
    base_a, fa, closed_a = sa
    base_b, fb, closed_b = sb
    if base_a != base_b or not base_a.is_proper():
        return None
    if closed_b or not closed_a:
        return fa, fb
    return None


def _escape_test(a: fam.GradedFamily, b: fam.GradedFamily, v: Optional[MonomialValuation] = None):
    """(escapes, by_exponents): escapes(i, j) is True iff a_i escapes b_j, the
    one question behind beta, lambda, their valuation twins and the window
    suprema.  Without v, a_i escapes when it is not contained in b_j;
    by_exponents says the test compares power exponents (see
    _power_pair_tests) and builds no ideal.  Given v, a_i escapes when
    v(a_i) < v(b_j), read from the families' closed-form value rules where
    they have one."""
    if v is not None:
        va, vb = (f.value_rule(v.weights) or (lambda n, f=f: v.of_ideal(f.member(n))) for f in (a, b))
        return (lambda i, j: va(i) < vb(j)), False
    pair = _power_pair_tests(a, b)
    if pair is None:
        return (lambda i, j: not a.member(i).is_subset_of(b.member(j))), False
    fa, fb = pair
    return (lambda i, j: fa(i) < fb(j)), True


def beta(a: fam.GradedFamily, b: fam.GradedFamily, s: int, cutoff: int) -> SequenceValue:
    """Least d <= cutoff with a_s not contained in b_d.

    Galloping search when b is a filtration by construction (the escape set is
    upward closed); linear scan otherwise.  'empty' is only reported when the
    family provably never escapes (constant tail reached inside the window).
    """
    return _beta(a, b, s, cutoff)


def beta_v(v: MonomialValuation, a: fam.GradedFamily, b: fam.GradedFamily,
           s: int, cutoff: int) -> SequenceValue:
    """Least d <= cutoff with v(a_s) < v(b_d)."""
    return _beta(a, b, s, cutoff, v)


def _beta(a, b, s, cutoff, v=None) -> SequenceValue:
    if s < 1 or cutoff < 1:
        raise DomainError("beta needs s >= 1 and cutoff >= 1")
    escapes, by_exponents = _escape_test(a, b, v)
    if v is None and not by_exponents and a.member(s).is_zero():
        return SequenceValue("empty")  # a zero member has no valuation value: beta_v raises
    if b.filtration:
        hit = _first_index(lambda d: escapes(s, d), cutoff)
    else:
        hit = next((d for d in range(1, cutoff + 1) if escapes(s, d)), None)
    if hit is not None:
        return SequenceValue("finite", hit)
    ec = b.eventually_constant()
    if ec is not None and ec[0] <= cutoff:
        return SequenceValue("empty")
    return SequenceValue("exceeds", bound=cutoff)


def lambda_(a: fam.GradedFamily, b: fam.GradedFamily, n: int, cutoff: int) -> SequenceValue:
    """Greatest d <= cutoff with a_d not contained in b_n.

    For a filtration a the escape set is downward closed, so the window
    answer is the true supremum whenever it falls below the cutoff.
    """
    return _lambda(a, b, n, cutoff)


def lambda_v(v: MonomialValuation, a: fam.GradedFamily, b: fam.GradedFamily,
             n: int, cutoff: int) -> SequenceValue:
    """Greatest d <= cutoff with v(a_d) < v(b_n)."""
    return _lambda(a, b, n, cutoff, v)


def _lambda(a, b, n, cutoff, v=None) -> SequenceValue:
    if n < 1 or cutoff < 1:
        raise DomainError("lambda needs n >= 1 and cutoff >= 1")
    escapes, _ = _escape_test(a, b, v)
    return _lambda_search(lambda d: escapes(d, n), a, cutoff)


def _lambda_search(fails, a, cutoff) -> SequenceValue:
    if a.filtration:
        # the greatest failing index is one below the least non-failing one
        held = _first_index(lambda d: not fails(d), cutoff)
        if held is None:
            return SequenceValue("exceeds", bound=cutoff)
        return SequenceValue("finite", held - 1) if held > 1 else SequenceValue("empty")
    best = next((d for d in range(cutoff, 0, -1) if fails(d)), None)
    if best is None:
        return SequenceValue("empty", certified=False)
    if best == cutoff:
        return SequenceValue("exceeds", bound=cutoff)
    return SequenceValue("finite", best, certified=False)


def noncontainment_table(a: fam.GradedFamily, b: fam.GradedFamily, s_max: int,
                         cutoff: int) -> Tuple[Tuple[int, SequenceValue], ...]:
    """(s, beta_s) for s <= s_max; the finite rows form the noncontainment set."""
    return tuple((s, beta(a, b, s, cutoff)) for s in range(1, s_max + 1))


# ---------------------------------------------------------------------------
# dual sequences
# ---------------------------------------------------------------------------


def dual_sequences(alpha: Mapping[int, int], beta_seq: Mapping[int, int],
                   alpha_nondecreasing: bool = False):
    """Left and right dual sequences of two finite sequence windows.

    left[n]  = inf {d : alpha_d >= beta_n},
    right[n] = sup {d : alpha_d <= beta_n},
    computed on the window only.  Entries are ('value', d), ('empty',) or
    ('undetermined',): a position is undetermined when the window cannot
    settle it (suprema need the monotonicity flag to be closed off).
    """
    ds = sorted(alpha)
    left = {}
    right = {}
    for n in sorted(beta_seq):
        target = beta_seq[n]
        hit = next((d for d in ds if alpha[d] >= target), None)
        left[n] = ("value", hit) if hit is not None else ("undetermined",)
        qualifying = [d for d in ds if alpha[d] <= target]
        if not qualifying:
            right[n] = ("empty",) if alpha_nondecreasing else ("undetermined",)
        else:
            d_star = max(qualifying)
            if alpha_nondecreasing and (d_star + 1) in alpha and alpha[d_star + 1] > target:
                right[n] = ("value", d_star)
            else:
                right[n] = ("undetermined",)
    return left, right


# ---------------------------------------------------------------------------
# resurgence reports
# ---------------------------------------------------------------------------


@dataclass
class ResurgenceReport:
    """Result record for a resurgence-type quantity.

    Every witness (s, r, m) is re-checkable: m is a member of a_s outside b_r.
    `hypotheses` holds the ValidationReports and structural facts the value
    relies on; an assertion it uses shows there as a "user-asserted: ..." line
    (a closure gap as "closure gap k = <k> (user-asserted)"), and `claims`
    then labels the value certified-given-assertions.
    """

    quantity: str
    value: ExtendedRational
    certified: bool
    witnesses: Tuple = ()
    hypotheses: Tuple = ()
    claims: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()
    search: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def rho_window(a: fam.GradedFamily, b: fam.GradedFamily, s_max: int, r_max: int) -> ResurgenceReport:
    """sup { s/r : s <= s_max, r <= r_max, a_s not contained in b_r }.

    Computed through beta (only r = beta_s contributes for each s).  The
    window value is a certified lower bound of the true supremum; it is
    stamped exact when a closed form applies (pure-ceiling pairs over one
    base ideal) or when the no-escape analysis of the -inf case closes.
    """
    if s_max < 1:
        raise DomainError("rho_window needs s_max >= 1")
    pairs = _escape_pairs(a, b, range(1, s_max + 1), r_max)
    best = _best_escape(a, b, pairs)
    search = {"s_max": s_max, "r_max": r_max}
    details = {"noncontainment_pairs": tuple(pairs)}
    if best is None:
        certified, notes = _neg_infinity_analysis(a, b, r_max)
        return ResurgenceReport("rho_window", NEG_INFINITY, certified, (), (),
                                claims=("no noncontainment on the window",),
                                notes=notes, search=search, details=details)
    value = finite(best[0])
    certified = False
    claims: Tuple[str, ...] = ("window supremum; certified lower bound of rho",)
    pair = _power_pair_tests(a, b)
    if pair is not None and pair[0].pure_slope and pair[1].pure_slope:
        exact = pair[1].slope / pair[0].slope
        details["window_supremum"] = best[0]
        value = finite(exact)
        certified = True
        claims = ("exact: ceiling-pair closed form (value slope_b/slope_a)",)
    return ResurgenceReport("rho_window", value, certified, (best[1],), (),
                            claims=claims, search=search, details=details)


def _escape_pairs(a, b, s_range, cutoff):
    """The pairs (s, beta_s) for s in s_range with beta_s finite within the
    cutoff."""
    values = ((s, beta(a, b, s, cutoff)) for s in s_range)
    return [(s, sv.value) for s, sv in values if sv.is_finite]


def _best_escape(a, b, pairs):
    """(ratio, witness (s, r, m)) of the first pair with the largest s/r, or
    None when there is no pair."""
    if not pairs:
        return None
    s, r = max(pairs, key=lambda pair: Fraction(*pair))
    return Fraction(s, r), (s, r, a.member(s).witness_not_in(b.member(r)))


def _neg_infinity_analysis(a, b, r_max):
    """-inf is exact iff a_1 lies in every b_i.  The window scan that found no
    escape already put a_1 in b_1..b_(r_max); when a and b are filtrations
    (by construction, or window-verified up to a constant tail) and b is
    constant from d0 <= r_max on, that covers every b_i."""
    def tail_inside(family):
        return family.constant_from is not None and family.constant_from <= r_max

    def filtration(family):
        return family.filtration or (tail_inside(family)
                                     and fam.validate_filtration(family, family.constant_from + 1).holds)
    if not (filtration(a) and filtration(b)):
        return False, ("no noncontainment found on the window; -inf not certified (families not known filtrations)",)
    if not tail_inside(b):
        return False, ("no noncontainment found on the window; -inf not certified (no constant tail inside window)",)
    return True, ("exact: a_1 lies in the intersection of all b_i (constant tail verified)",)


def rho_n(a: fam.GradedFamily, b: fam.GradedFamily, n: int, s_max: int, cutoff: int) -> ResurgenceReport:
    """sup { s / beta_s : n <= s <= s_max, beta_s finite within cutoff }."""
    if n < 1:
        raise DomainError("rho_n needs n >= 1")
    pairs = _escape_pairs(a, b, range(n, s_max + 1), cutoff)
    best = _best_escape(a, b, pairs)
    search = {"n": n, "s_max": s_max, "cutoff": cutoff}
    details = {"noncontainment_pairs": tuple(pairs)}
    if best is None:
        return ResurgenceReport("rho_n", NEG_INFINITY, False, (), (),
                                notes=("no noncontainment with s >= n on the window",),
                                search=search, details=details)
    return ResurgenceReport("rho_n", finite(best[0]), False, (best[1],), (),
                            claims=("window supremum of the tail s/beta_s",),
                            search=search, details=details)


def rho_lim_estimate(a: fam.GradedFamily, b: fam.GradedFamily, n_grid: Sequence[int],
                     cutoff: int, tail: int = 10, kmax: int = 6, horizon: int = 8) -> ResurgenceReport:
    """rho^n along a grid, with the certified limit when a theorem route applies.

    The grid values are window evaluations (nonincreasing in n by
    construction); the limit equals the Rees-valuation asymptotic resurgence
    exactly when b is structurally base-equivalent and a is a filtration.
    """
    grid = sorted(set(n_grid))
    if not grid or grid[0] < 1:
        raise DomainError("rho_lim needs a grid of indices >= 1")
    s_max = grid[-1] + tail
    pairs = _escape_pairs(a, b, range(grid[0], s_max + 1), cutoff)
    values = [(n, max((finite(Fraction(s, r)) for s, r in pairs if s >= n), default=NEG_INFINITY))
              for n in grid]
    details = {"grid_values": tuple(values)}
    notes = []
    certified = False
    claims: Tuple[str, ...] = ()
    value = values[-1][1]
    if a.filtration and b.base_equivalence() is not None:
        rees = rho_hat_rees(a, b, kmax=kmax, horizon=horizon)
        value = rees.value
        certified = True
        claims = ("exact: rho^lim equals the asymptotic resurgence (base-equivalent route)",)
        details["rees_report"] = rees
    else:
        notes.append("window trend only; the limit is reported by its last grid value")
    return ResurgenceReport("rho_lim", value, certified, (), (),
                            claims=claims, notes=tuple(notes),
                            search={"grid": tuple(grid), "cutoff": cutoff, "s_max": s_max},
                            details=details)


# ---------------------------------------------------------------------------
# asymptotic resurgence via Rees valuations
# ---------------------------------------------------------------------------


# The hypotheses a caller may assert ("closure_gap:<k>" stands for every
# integer k >= 0); the routes below read them from their `assertions`.
ASSERTIONS = ("closure_module_finite", "waldschmidt_equals_v_b1", "closure_gap:<k>")


def _base_equivalent(b, kmax, horizon, assertions):
    """b structurally base-equivalent (powers, closures of powers): A is the
    base and k = 1, and the value also equals rho(a, closure(b)) and
    rho_hat(a, b)."""
    beq = b.base_equivalence()
    if beq is None:
        return None
    base, const = beq
    return (base, 1, [f"structural: b is base-equivalent with shift {const.k} (bound {const.bound})"],
            ["equals rho_hat(a, closure(b))", "equals rho(a, closure(b))", "equals rho_hat(a, b)"],
            [], {"base": base})


def _standard_veronese(b, kmax, horizon, assertions):
    """b with a standard Veronese index k (structural or window-certified up
    to `horizon`, searched k <= kmax): A = b_k.  The equality with
    rho_hat(a, b) also needs the module-finiteness of the closure Rees
    algebra, which is only accepted as a user assertion."""
    k, vrep = fam.find_standard_veronese(b, kmax, horizon)
    if k is None:
        return None
    bk = b.member(k)
    if "closure_module_finite" not in assertions:
        return (bk, k, [vrep], ["equals rho_hat(a, closure(b))"],
                ["equality with rho_hat(a, b) needs the module-finiteness hypothesis; "
                 "assert 'closure_module_finite' to claim it"], {})
    return (bk, k, [vrep, "user-asserted: R(closure(b)) is a module-finite R(b)-algebra extension"],
            ["equals rho_hat(a, closure(b))",
             "equals rho_hat(a, b) [certified-given-assertions: closure_module_finite]"], [], {})


# The routes of the Rees formula, (name, scope) in priority order: the first
# scope that holds answers.  A scope takes (b, kmax, horizon, assertions) and
# gives None or (A, k, hypotheses, claims, notes, details), with
# vhat_w(b) = w(A)/k for every Rees valuation w of A.
REES_ROUTES = (("base-equivalent", _base_equivalent), ("standard-veronese", _standard_veronese))


def rho_hat_rees(a: fam.GradedFamily, b: fam.GradedFamily, kmax: int = 6,
                 horizon: int = 8, assertions: Tuple[str, ...] = ()) -> ResurgenceReport:
    """Asymptotic resurgence of (a, closure of b) by the Rees-valuation formula.

    The first route of REES_ROUTES that takes b gives an anchor ideal A and an
    index k; the value is max over the Rees valuations w of A of
    (w(A)/k) / w^(a), +inf as soon as some w^(a) = 0.  Suprema are over
    monomial valuations (they exhaust the Rees valuations of monomial ideals).
    """
    found = next(filter(None, (scope(b, kmax, horizon, assertions) for _, scope in REES_ROUTES)), None)
    if found is None:
        raise CapabilityError(
            f"no standard Veronese index k <= {kmax} found (horizon {horizon}); "
            "the Rees formula does not apply - use rho_hat_beta_limit for an estimate"
        )
    anchor, k, hyps, claims, notes, details = found
    if not anchor.is_proper():  # a base-equivalent base always is
        raise DomainError(f"member b_{k} is not a proper nonzero ideal")
    ratios = _valuation_ratios(anchor, anchor, k, a, kmax, horizon)
    if k > 1 and b.member(1).is_proper():
        # open data for the RV(b_1)-versus-RV(b_k) question: same formula
        # evaluated over the Rees valuations of b_1, never a theorem.
        ratios1 = _valuation_ratios(b.member(1), anchor, k, a, kmax, horizon)
        details["rv_b1_data"] = tuple(ratios1)
        details["rv_b1_max"] = _max_ratio(ratios1)[0]
    value, details["maximizer"] = _max_ratio(ratios)
    details["valuations"] = tuple(ratios)
    notes.append("valuation suprema range over monomial valuations "
                 "(these exhaust the Rees valuations of monomial ideals)")
    return ResurgenceReport("rho_hat_rees", value, True, (), tuple(hyps),
                            claims=tuple(claims), notes=tuple(notes),
                            search={"kmax": kmax, "horizon": horizon}, details=details)


def _valuation_ratios(ideal, anchor, k, a, kmax, horizon):
    """(w, vhat(b), vhat(a), ratio) per Rees valuation w of `ideal`, exact
    only: vhat(b) = w(anchor)/k."""
    rows = []
    for w in rees_valuations(ideal).weights():
        v = MonomialValuation(w)
        vb = Fraction(v.of_ideal(anchor), k)
        wa = skew_waldschmidt(v, a, window=max(horizon, 8), kmax=kmax)
        if not wa.certified:
            raise CapabilityError(
                f"no exact skew Waldschmidt constant for the left family (kind {a.kind}); "
                "use rho_hat_beta_limit"
            )
        va = wa.value
        rows.append((w, vb, va, POS_INFINITY if va == 0 else finite(vb / va)))
    return rows


def _max_ratio(rows):
    """(ratio, weights) of the first row with the largest ratio."""
    weights, _vb, _va, ratio = max(rows, key=lambda row: row[3])
    return ratio, weights


def rho_hat_beta_limit(a: fam.GradedFamily, b: fam.GradedFamily, n_max: int, cutoff: int,
                       grid: Optional[Sequence[int]] = None, kmax: int = 6,
                       horizon: int = 8) -> ResurgenceReport:
    """Estimate of rho_hat(a, closure(b)) as N / beta_N, with diagnostics.

    Reports the three escape sequences beta_n, beta_n against the closure
    family, and beta^v0_n for a Rees valuation v0 side by side; their n-th
    ratios converge to the same reciprocal exactly under the standard-Veronese
    plus module-finiteness hypotheses, so the spread at n = n_max is the
    convergence diagnostic.  Always certified=False (finite-N estimate).
    """
    hyps: list = []
    notes: list[str] = []
    filt = fam.validate_filtration(b, min(n_max, 20))
    if not filt.holds:
        raise HypothesisError("b must be a filtration for the beta-limit estimate", filt)
    hyps.append(filt)
    bbar = fam.closure_of(b)
    found = _standard_veronese(b, kmax, horizon, ())
    if found is not None:
        anchor, scale, (vrep, *_), *_ = found
        hyps.append(vrep)
    else:
        notes.append(
            f"no standard Veronese index k <= {kmax} found; v0 taken from the Rees "
            "valuations of b_1; the limit theorem is not certified for this family"
        )
        anchor, scale = b.member(1), 1
    if not anchor.is_proper():
        raise DomainError("anchor member of b is not a proper nonzero ideal")
    try:
        rows = _valuation_ratios(anchor, anchor, scale, a, kmax, horizon)
        _, v0w = _max_ratio(rows)
    except CapabilityError:
        rows = ()
        v0w = rees_valuations(anchor).weights()[0]
        notes.append("v0 defaulted to the first Rees valuation (no exact skew Waldschmidt for a)")
    v0 = MonomialValuation(v0w)
    if grid is None:
        grid = sorted({max(1, n_max // 4), max(1, n_max // 2), max(1, (3 * n_max) // 4), n_max})
    else:
        grid = sorted(set(grid) | {n_max})
    seq_plain, seq_closure, seq_val = [], [], []
    for n in grid:
        seq_plain.append((n, beta(a, b, n, cutoff)))
        seq_closure.append((n, beta(a, bbar, n, cutoff)))
        seq_val.append((n, beta_v(v0, a, b, n, cutoff)))
    last = seq_plain[-1][1]
    if not last.is_finite:
        raise CapabilityError(f"beta_{n_max} is not finite within cutoff {cutoff}")
    value = finite(Fraction(n_max, last.value))
    details = {
        "beta": tuple(seq_plain),
        "beta_closure": tuple(seq_closure),
        "beta_valuation": tuple(seq_val),
        "v0": v0.weights,
        "valuations": tuple(rows),
    }
    notes.append("estimate: n_max / beta_(n_max); the reciprocal ratios beta_n/n converge to 1/rho_hat under the recorded hypotheses")
    return ResurgenceReport("rho_hat_beta", value, False, (), tuple(hyps),
                            notes=tuple(notes),
                            search={"n_max": n_max, "cutoff": cutoff, "grid": tuple(grid)},
                            details=details)


# ---------------------------------------------------------------------------
# exact resurgence via the finite certified search region
# ---------------------------------------------------------------------------


def rho_exact_certified(a: fam.GradedFamily, b: fam.GradedFamily, search_budget: int = 60,
                        kmax: int = 6, horizon: int = 8,
                        assertions: Tuple[str, ...] = ()) -> ResurgenceReport:
    """Exact rho(a, b) through the finite search region, when certifiable.

    Hypotheses (validated or structural, failures raised, never ignored):
      (i)  every Rees valuation w of b_1 has w^(b) = w(b_1) - structural for
           base-equivalent kinds, user-assertable otherwise;
      (ii) a closure gap k with closure(b_(i+k)) contained in b_i for all i -
           0 for integrally closed members, Briancon-Skoda for powers.
    With rho_hat = rho_hat_rees(a, b): a witness pair s0/r0 > rho_hat bounds
    the search region r < N = k*rho_hat/(s0/r0 - rho_hat), s < (r+k)*rho_hat;
    the maximum of s/r over noncontainments there is exactly rho and is
    rational by construction.  If no witness exists up to the budget the
    report returns rho_hat with the equality claim left uncertified.
    """
    hyps: list = []
    claims: list[str] = []
    # hypothesis (i)
    if b.base_equivalence() is not None:
        hyps.append("structural: skew Waldschmidt constants of b equal the values on b_1 "
                    "(base-equivalent family)")
    elif "waldschmidt_equals_v_b1" in assertions:
        hyps.append("user-asserted: w^(b) = w(b_1) for every Rees valuation w of b_1")
        claims.append("certified-given-assertions")
    else:
        _disprove_or_fail_hypothesis_i(b, horizon)
    # hypothesis (ii): the closure gap
    gap, label, gap_zero_claim = _closure_gap(b, horizon, assertions)
    hyps.append(f"closure gap k = {gap.k} ({label})")
    rees = rho_hat_rees(a, b, kmax=kmax, horizon=horizon, assertions=assertions)
    hyps.extend(rees.hypotheses)
    rho_hat = rees.value  # > 0: each w(A) is a positive facet offset and w^(a) >= 0
    details = {"rho_hat": rho_hat, "rees_report": rees, "gap": gap}
    search = {"budget": search_budget, "kmax": kmax, "horizon": horizon}
    if rho_hat == POS_INFINITY or gap.k == 0:
        claims = ["rho >= rho_hat = +inf"] if rho_hat == POS_INFINITY else claims + [gap_zero_claim]
        return ResurgenceReport("rho_exact", rho_hat, True, (), tuple(hyps),
                                claims=tuple(claims), search=search, details=details)
    witness_pair = _search_witness(a, b, rho_hat.value, search_budget)
    if witness_pair is None:
        return ResurgenceReport("rho_exact", rho_hat, False, (), tuple(hyps), claims=tuple(claims),
                                notes=(f"no escape pair with s/r > rho_hat found with s + r <= {search_budget}; "
                                       "rho = rho_hat up to the search budget",), search=search, details=details)
    s0, r0 = witness_pair
    bound_n = (gap.k * rho_hat.value) / (Fraction(s0, r0) - rho_hat.value)
    r_limit = ceil_frac(bound_n) - 1
    best = None
    for r in range(1, r_limit + 1):
        s_limit = ceil_frac((r + gap.k) * rho_hat.value) - 1
        if s_limit < 1:
            continue
        sv = lambda_(a, b, r, s_limit)
        found = s_limit if sv.kind == "exceeds" else sv.value
        if found is not None and (best is None or Fraction(found, r) > best[0]):
            best = (Fraction(found, r), found, r)
    if best is None:  # pragma: no cover - (s0, r0) lies in the region
        raise AssertionError("search region lost the witness pair")
    witness = a.member(best[1]).witness_not_in(b.member(best[2]))
    claims += [
        "exact maximum over the certified finite region",
        "rho is rational (finite maximum of integer ratios)",
    ]
    details["region"] = {"N": bound_n, "witness_pair": (s0, r0)}
    return ResurgenceReport("rho_exact", finite(best[0]), True,
                            ((best[1], best[2], witness),), tuple(hyps),
                            claims=tuple(claims), search=search, details=details)


def _disprove_or_fail_hypothesis_i(b, horizon):
    """Window-probe hypothesis (i); raise with a definitive counterexample when
    a prefix already pushes the skew Waldschmidt constant below w(b_1)."""
    b1 = b.member(1)
    if not b1.is_proper():
        raise HypothesisError("b_1 is not a proper nonzero ideal")
    if horizon < 1:  # the window prefix below would hold no member
        raise DomainError(f"hypothesis (i) needs a window horizon >= 1, not {horizon}")
    for weights, val in rees_valuations(b1).valuations:
        v = MonomialValuation(weights)
        upper = min(Fraction(v.of_ideal(b.member(n)), n) for n in range(1, horizon + 1))
        if upper < val:
            raise HypothesisError(
                f"hypothesis w^(b) = w(b_1) fails: weights {weights} give "
                f"w(b_1) = {val} but a window prefix already shows w^(b) <= {upper}"
            )
    raise HypothesisError(
        "cannot certify w^(b) = w(b_1) for this family kind from a finite window; "
        "assert 'waldschmidt_equals_v_b1' explicitly if it is known"
    )


def _closure_gap(b, horizon, assertions):
    """(gap, label, claim): a closure gap of b, how it is known, and what a
    gap of 0 lets rho_exact claim."""
    sem = b.power
    if b.integrally_closed:
        gap = EquivalenceConstant(0, 0, True, horizon)
    elif sem is not None and sem[1] == fam.affine(1):
        gap = bequiv_constant(sem[0], horizon)
    else:
        text = next((text for text in assertions if text.startswith("closure_gap:")), None)
        if text is None:
            raise HypothesisError(
                "no closure-gap certificate for this family kind; assert 'closure_gap:<k>' if known")
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            k = -1
        if k < 0:
            raise DomainError(f"assertion {text!r} needs an integer gap >= 0")
        return (EquivalenceConstant(k, k, False, horizon), "user-asserted",
                "closure gap 0 is user-asserted: equality certified-given-assertions")
    if gap.certified:
        return gap, "certified bound", ("members of b are integrally closed: "
                                        "rho(a, b) = rho(a, closure(b)) = rho_hat")
    return gap, f"window-tightened, horizon {gap.horizon}", (
        f"closure gap 0 is window-tightened (horizon {gap.horizon}): "
        "equality certified given the window certificate")


def _search_witness(a, b, rho_hat: Fraction, budget: int):
    """First (s, r) in increasing s+r, then r, with s/r > rho_hat and a_s not in b_r."""
    escapes, _ = _escape_test(a, b)
    pairs = ((total - r, r) for total in range(2, budget + 1) for r in range(1, total))
    return next(((s, r) for s, r in pairs if Fraction(s, r) > rho_hat and escapes(s, r)), None)


# ---------------------------------------------------------------------------
# scaling and topology checks
# ---------------------------------------------------------------------------


@dataclass
class VeroneseScalingResult:
    """Window and exact comparisons of rho(a, powers(b_k)) against k*rho(a, b)."""

    holds: bool
    k: int
    window_lhs: ExtendedRational
    window_rhs_scaled: ExtendedRational
    exact_lhs: Optional[ExtendedRational]
    exact_rhs_scaled: Optional[ExtendedRational]
    hypothesis: fam.ValidationReport
    notes: Tuple[str, ...] = ()


def veronese_scaling_check(a: fam.GradedFamily, b: fam.GradedFamily, k: int,
                           window: int) -> VeroneseScalingResult:
    """Check rho(a, powers(b_k)) <= k * rho(a, b) on matched windows, and the
    exact asymptotic equality when the Rees formula applies to both sides.

    The window matching widens the right search to r <= k*window: an escape
    from b_k^r is an escape from b_(kr), so the two window suprema nest the
    same way the full suprema do.
    """
    ver = fam.is_standard_veronese(b, k, min(window, 8))
    if not ver.holds:
        raise HypothesisError(f"b is not standard-Veronese at k = {k} on the window", ver)
    bk_family = fam.powers(b.member(k), name=f"powers(b_{k})")
    lhs = rho_window(a, bk_family, window, window)
    rhs = rho_window(a, b, window, k * window)

    def scale(x):  # k >= 1, so the infinities stay put
        return finite(x.value * k) if x.is_finite else x
    rhs_scaled = scale(rhs.value)
    window_ok = lhs.value <= rhs_scaled
    exact_lhs = exact_rhs = None
    notes = []
    try:
        exact_lhs = rho_hat_rees(a, bk_family).value
        exact_rhs = scale(rho_hat_rees(a, b).value)
        exact_ok = exact_lhs == exact_rhs
        if not exact_ok:
            notes.append("asymptotic scaling equality fails")
    except CapabilityError as exc:
        exact_ok = True
        notes.append(f"exact comparison skipped: {exc}")
    return VeroneseScalingResult(window_ok and exact_ok, k, lhs.value, rhs_scaled,
                                 exact_lhs, exact_rhs, ver, tuple(notes))


@dataclass
class LinearlyFinerResult:
    """Outcome of the linear-comparability check between two filtrations.

    f is (slope, intercept) with a_(slope*i + intercept) <= b_i verified on
    the window; a verification failure signals that the window estimate of
    rho undershot the true value.
    """

    finer: bool
    f: Optional[Tuple[int, int]]
    rho_star: ExtendedRational
    failure: Optional[Tuple[int, tuple]] = None


def linearly_finer_check(a: fam.GradedFamily, b: fam.GradedFamily, window: int,
                         rho_star: Optional[ExtendedRational] = None) -> LinearlyFinerResult:
    """Build f(n) = ceil(rho*) n + 1 from the window resurgence and verify
    a_(f(i)) <= b_i for i <= window."""
    if rho_star is None:
        rho_star = rho_window(a, b, window, window).value
    if rho_star == POS_INFINITY:
        return LinearlyFinerResult(False, None, rho_star)
    if rho_star == NEG_INFINITY:
        f = (1, 0)  # a_i <= b_i already
    else:
        f = (max(ceil_frac(rho_star.value), 0), 1)
    slope, intercept = f
    for i in range(1, window + 1):
        witness = a.member(slope * i + intercept).witness_not_in(b.member(i))
        if witness is not None:
            return LinearlyFinerResult(False, f, rho_star, failure=(i, witness))
    return LinearlyFinerResult(True, f, rho_star)
