"""Expression-built members are built once per key (`Expr.key`).

`expression`, `periodic` and the tail of `table` build member n once per
distinct key of their expression at n, and indices with equal keys share
one member object.  The oracle is a fresh `Expr.evaluate` at every index:
on seeded random trees (2-3 variables, depth <= 3, shifted references, all
four exponent rules, ceil_mul ratios below 1 so that exponents plateau) each
member must equal it.  A `Power.key` without the exponent shares members
whose exponents differ, so the value checks fail.  A `Ref.key` without the
shift (key n) still gives equal keys only for equal n, so it shares nothing
wrongly; `test_key_reads_the_exponents_and_shifted_indices` pins the key
itself against `reference_key`.
"""

import random
from fractions import Fraction

import pytest

from resurgence import MonomialIdeal, ceiling
import resurgence.families as fam

N_MAX = 12


def reference_key(expr, n):
    """The index data `expr` reads at n, walked here independently."""
    if isinstance(expr, fam.Base):
        return ()
    if isinstance(expr, fam.Ref):
        return n + expr.shift
    if isinstance(expr, fam.Power):
        return reference_key(expr.base, n), expr.exponent(n)
    children = expr.terms if isinstance(expr, fam.Sum) else expr.factors
    return tuple(reference_key(child, n) for child in children)


def random_ideal(rng, nvars):
    """Pure powers of two variables and one mixed generator."""
    pure = [[rng.randint(1, 2) if i == j else 0 for i in range(nvars)] for j in rng.sample(range(nvars), 2)]
    return MonomialIdeal.from_generators(nvars, pure + [[rng.randint(0, 1) for _ in range(nvars)]])


def random_rule(rng, nested):
    """Any of the four rules; below another power only the slow-growing ones,
    so that nested exponents stay small."""
    kind = rng.choice(("ceil_mul", "ceil_sqrt", "ceil_log2p1") + (() if nested else ("affine",)))
    if kind == "affine":
        return fam.affine(rng.randint(0, 1), rng.randint(0, 1))
    if kind == "ceil_mul":
        return fam.ceil_mul(Fraction(rng.randint(1, 2), rng.randint(3, 5)), rng.randint(0, 1))
    return fam.ceil_sqrt() if kind == "ceil_sqrt" else fam.ceil_log2p1()


def random_expr(rng, depth, nested=False, top=True):
    if depth == 0 or (not top and rng.random() < 0.25):
        if rng.random() < 0.6:
            return fam.Base(rng.choice(("I", "J")))
        return fam.Ref(rng.choice(("p", "c")), rng.randint(-2, 2))
    node = rng.choice(("sum", "product", "power"))
    if node == "power":
        return fam.Power(random_expr(rng, depth - 1, True, False), random_rule(rng, nested))
    children = tuple(random_expr(rng, depth - 1, nested, False) for _ in range(rng.randint(2, 3)))
    return fam.Sum(children) if node == "sum" else fam.Product(children)


def degree_bound(expr, env):
    """An upper bound on the generator degrees of expr at n <= N_MAX."""
    if isinstance(expr, fam.Base):
        return max(map(sum, env.ideal(expr.name).generators))
    if isinstance(expr, fam.Ref):
        return max(map(sum, env.family(expr.family).member(N_MAX + 2).generators))
    if isinstance(expr, fam.Power):
        return degree_bound(expr.base, env) * expr.exponent(N_MAX)
    children = expr.terms if isinstance(expr, fam.Sum) else expr.factors
    return (max if isinstance(expr, fam.Sum) else sum)(degree_bound(child, env) for child in children)


def small_expr(rng, env, depth):
    """A random tree whose members stay small enough to build quickly."""
    while True:
        expr = random_expr(rng, depth)
        if degree_bound(expr, env) <= 16:
            return expr


def random_environment(rng, nvars):
    """Base ideals I, J and the families p = ceiling(K, 1/2), c = ceiling(L, 1/3)."""
    return fam.Environment(
        {"I": random_ideal(rng, nvars), "J": random_ideal(rng, nvars)},
        {"p": ceiling(random_ideal(rng, nvars), Fraction(1, 2)), "c": ceiling(random_ideal(rng, nvars), Fraction(1, 3))})


def cases():
    """(label, family, expr at n, env): per seed one expression family, one
    periodic family and one table tail."""
    out = []
    for seed in range(24):
        rng = random.Random(seed)
        nvars = rng.randint(2, 3)
        env = random_environment(rng, nvars)
        expr = small_expr(rng, env, 3)
        out.append((f"expression-{seed}", fam.expression(nvars, expr, env), lambda n, e=expr: e, env))
        period = rng.randint(2, 3)
        patterns = {r: small_expr(rng, env, 2) for r in range(period)}
        out.append((f"periodic-{seed}", fam.periodic(nvars, period, patterns, env),
                    lambda n, p=patterns, k=period: p[n % k], env))
        prefix = [random_ideal(rng, nvars) for _ in range(rng.randint(0, 2))]
        tail = small_expr(rng, env, 2)
        out.append((f"table-{seed}", fam.table(nvars, prefix, tail, env),
                    lambda n, t=tail, k=len(prefix): None if n <= k else t, env))
    return out


CASES = cases()


@pytest.mark.parametrize("label, family, expr_at, env", CASES, ids=[c[0] for c in CASES])
def test_members_equal_a_fresh_evaluation(label, family, expr_at, env):
    for n in range(1, N_MAX + 1):
        expr = expr_at(n)
        if expr is not None:
            assert family.member(n) == expr.evaluate(n, env), n


@pytest.mark.parametrize("label, family, expr_at, env", CASES, ids=[c[0] for c in CASES])
def test_indices_with_equal_keys_share_one_member(label, family, expr_at, env):
    first = {}
    for n in range(1, N_MAX + 1):
        expr = expr_at(n)
        if expr is not None:
            m = first.setdefault((id(expr), expr.key(n)), n)
            assert family.member(n) is family.member(m), (n, m)


@pytest.mark.parametrize("label, family, expr_at, env", CASES, ids=[c[0] for c in CASES])
def test_key_reads_the_exponents_and_shifted_indices(label, family, expr_at, env):
    for n in range(1, N_MAX + 1):
        expr = expr_at(n)
        if expr is not None:
            assert expr.key(n) == reference_key(expr, n), n


def test_the_random_families_share_members():
    # plateaus of ceil_mul, ceil_sqrt and ceil_log2p1 make members repeat
    shared = sum(len({id(f.member(n)) for n in range(1, N_MAX + 1)}) < N_MAX for _, f, _, _ in CASES)
    assert shared >= len(CASES) // 3


def test_the_staircase_is_built_once_per_plateau():
    """b_n = x^ceil(n/2) + y^2 m^(ceil(n/2) - 1): b_(2k-1) and b_(2k) are one
    object, built by one evaluation."""
    x, y2, m = (MonomialIdeal.from_generators(2, g) for g in ([(1, 0)], [(0, 2)], [(1, 0), (0, 1)]))
    expr = fam.Sum((
        fam.Power(fam.Base("x"), fam.ceil_mul(Fraction(1, 2))),
        fam.Product((fam.Base("y2"), fam.Power(fam.Base("m"), fam.ceil_mul(Fraction(1, 2), -1)))),
    ))
    built = []

    class Recording(fam.Sum):
        def evaluate(self, n, env):
            built.append(n)
            return super().evaluate(n, env)

    b = fam.expression(2, Recording(expr.terms), fam.Environment({"x": x, "y2": y2, "m": m}))
    for k in range(1, 7):
        assert b.member(2 * k - 1) is b.member(2 * k)
    assert built == [1, 3, 5, 7, 9, 11]


def test_a_node_without_a_key_of_its_own_is_keyed_by_n():
    """`Expr.key` defaults to n: a subclass that reads n in `evaluate` alone
    is evaluated once per index, so no member is shared by mistake."""
    m = MonomialIdeal.from_generators(2, [(1, 0), (0, 1)])
    built = []

    class EvenPowers(fam.Expr):
        def evaluate(self, n, env):
            built.append(n)
            return env.ideal("m").power(2 * (n // 2))

        def depends_on_index(self):
            return True

    b = fam.expression(2, EvenPowers(), fam.Environment({"m": m}))
    assert [b.member(n) for n in range(1, 5)] == [m.power(0), m.power(2), m.power(2), m.power(4)]
    assert built == [1, 2, 3, 4]
