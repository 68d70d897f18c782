"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive and self-contained: set arithmetic on
exponent tuples, subset enumeration, the full box scan for minimal lattice
points that the pruned walk of `minimal_lattice_points` replaced, the
stars-and-bars loop that built m^d before its degree view, exhaustive
facet checks, the rank-filtered double description that the adjacency test
of `hull_with_recession` replaced (it starts from all of Z^dim with a
lineality basis, where the library starts at a pointed simplicial cone, so
on Newton inputs it also shows the lineality ends empty), the rank test for
vertices that the tight-set rule replaced, basic-feasible-point enumeration
for LPs, and the general rational two-phase simplex that the integer
tableau of `lp_minimize` replaced (the library now solves only covering
LPs).  None of it calls the code paths it is used to check:
`halfspace_redundant` checks hulls with `fraction_lp_minimize`, which is
itself checked against `brute_lp_minimum`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from resurgence import HalfSpace, LinearProgram, LPResult


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def in_monomial_set(m, gens):
    return any(divides(g, m) for g in gens)


def minimal_set(gens):
    """Elements of `gens` divisible by no other element, sorted lexicographically."""
    unique = set(gens)
    return sorted(g for g in unique if not any(h != g and divides(h, g) for h in unique))


def first_outside(gens, member):
    """The lex-first minimal element of `gens` that fails `member`, or None."""
    return next((g for g in minimal_set(gens) if not member(g)), None)


def product_set(gens_a, gens_b):
    return {tuple(x + y for x, y in zip(a, b)) for a in gens_a for b in gens_b}


def power_set_of_ideal(gens, n):
    """Full (unminimized) generator set of the n-th power by iterated products."""
    if n == 0:
        return {tuple(0 for _ in next(iter(gens)))}
    out = set(gens)
    for _ in range(n - 1):
        out = product_set(out, gens)
    return out


def closure_member(m, gens, n, tmax=24):
    """x^m in the integral closure of I^n iff t*m is in I^(n*t) for some t."""
    for t in range(1, tmax + 1):
        target = tuple(t * e for e in m)
        if in_monomial_set(target, power_set_of_ideal(gens, n * t)):
            return True
    return False


def minimal_covers(gens, nvars):
    supports = [{i for i, e in enumerate(g) if e > 0} for g in gens]
    covers = []
    for size in range(nvars + 1):
        for subset in itertools.combinations(range(nvars), size):
            chosen = set(subset)
            if any(set(c) <= chosen for c in covers):
                continue
            if all(s & chosen for s in supports):
                covers.append(subset)
    return covers


def symbolic_member(m, gens, n, nvars):
    return all(sum(m[i] for i in c) >= n for c in minimal_covers(gens, nvars))


def complete_power_generators(nvars, d):
    """All monomials of total degree d in lex order, by stars and bars: the
    loop that built the generators of m^d before the degree view."""
    gens = []
    for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 2 - prev)
        gens.append(tuple(exps))
    return tuple(sorted(gens))


def box_minimal_lattice_points(rows, rhs, box):
    """Minimal nonnegative lattice points of {a : W a >= m} by a full box scan.

    For every prefix of the first n-1 coordinates inside `box`, c(prefix) is
    the least feasible last coordinate (None when a row without weight on the
    last coordinate stays short); c is nonincreasing in the prefix, so
    (prefix, c) is minimal iff no single-step decrement of the prefix keeps a
    feasible c <= c(prefix).  No cap: the caller keeps the box small.
    """
    last = len(box) - 1

    def cval(prefix):
        c = 0
        for w, m in zip(rows, rhs):
            need = m - sum(w[j] * prefix[j] for j in range(last))
            if w[last] == 0:
                if need > 0:
                    return None
            elif need > 0:
                c = max(c, -(-need // w[last]))
        return c

    cvals = {p: cval(p) for p in itertools.product(*(range(b + 1) for b in box[:-1]))}
    points = []
    for prefix, c in cvals.items():
        if c is None:
            continue
        lower = (cvals[prefix[:j] + (prefix[j] - 1,) + prefix[j + 1:]] for j in range(last) if prefix[j])
        if all(d is None or d > c for d in lower):
            points.append(prefix + (c,))
    return tuple(minimal_set(points))


# -- exact linear algebra (independent of the library) -------------------------


def solve_square(rows, rhs):
    """Solve a square rational system; None if singular."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return [mat[i][n] for i in range(n)]


def rank(rows):
    """Rank by forward elimination over the integers: each row is scaled to
    integers, and each update pv*row - f*pivot_row is divided by its gcd."""
    mat = []
    for row in rows:
        if all(type(x) is int for x in row):
            mat.append(list(row))
            continue
        fracs = [Fraction(x) for x in row]
        denom = 1
        for x in fracs:
            denom = denom * x.denominator // _gcd(denom, x.denominator)
        mat.append([int(x * denom) for x in fracs])
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        pv = top[col]
        for i in range(r + 1, len(mat)):
            f = mat[i][col]
            if f != 0:
                mat[i] = list(_reduced([pv * x - f * y for x, y in zip(mat[i], top)]))
        r += 1
    return r


def null_vector(rows, dim):
    """A nonzero vector orthogonal to all rows, or None."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(dim):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(dim) if c not in pivots]
    if not free:
        return None
    fc = free[0]
    vec = [Fraction(0)] * dim
    vec[fc] = Fraction(1)
    for i, pc in enumerate(pivots):
        vec[pc] = -mat[i][fc]
    return vec


def _reduced(vec):
    g = 0
    for v in vec:
        g = _gcd(g, abs(v))
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def rank_filtered_dual_description(generators, dim):
    """Lineality basis and extreme rays of {z : <g, z> >= 0 for all g}: the
    incremental double description that the adjacency-tested one of
    `polyhedra._dual_description` replaced.  Each constraint combines every
    sign-split pair of rays, then every ray is kept iff it is new, feasible
    and extreme by the `rank` of its tight set (the library makes no rank
    test)."""
    lineality = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    processed = []

    def is_extreme(ray):
        if all(v == 0 for v in ray):
            return False
        tight = [g for g in processed if _dot(g, ray) == 0]
        return rank(tight) >= dim - len(lineality) - 1

    for g in generators:
        lvals = [_dot(g, l) for l in lineality]
        pivot_idx = next((i for i, v in enumerate(lvals) if v != 0), None)
        if pivot_idx is not None:
            pivot = lineality[pivot_idx]
            pval = lvals[pivot_idx]
            if pval < 0:
                pivot = tuple(-x for x in pivot)
                pval = -pval
            lineality = [
                _reduced([pval * x - c * p for x, p in zip(l, pivot)])
                for i, (l, c) in enumerate(zip(lineality, lvals)) if i != pivot_idx
            ]
            rays = [_reduced([pval * x - _dot(g, r) * p for x, p in zip(r, pivot)]) for r in rays]
            rays.append(_reduced(pivot))
        else:
            valued = [(r, _dot(g, r)) for r in rays]
            plus = [(r, v) for r, v in valued if v > 0]
            minus = [(r, v) for r, v in valued if v < 0]
            combos = [_reduced([vp * x - vm * y for x, y in zip(m, p)])
                      for p, vp in plus for m, vm in minus]
            rays = [r for r, _ in plus] + [r for r, v in valued if v == 0] + combos
        processed.append(g)
        seen = set()
        filtered = []
        for r in rays:
            if r in seen:
                continue
            seen.add(r)
            if all(_dot(g2, r) >= 0 for g2 in processed) and is_extreme(r):
                filtered.append(r)
        rays = filtered
    return lineality, rays


def tight_mask(generators, ray):
    """Bitmask of the generators orthogonal to `ray` (bit k for generators[k])."""
    return sum(1 << k for k, g in enumerate(generators) if _dot(g, ray) == 0)


def rank_vertices(points, halfspaces):
    """The points of a polyhedron that are its vertices, as sorted Fraction
    tuples: a point is a vertex iff the normals of the halfspaces tight on it
    have full rank, the test the tight-set rule of `hull_with_recession`
    replaced."""
    dim = len(points[0])
    vertices = set()
    for p in points:
        tight = [h.normal for h in halfspaces if _dot(h.normal, p) == h.offset]
        if rank(tight) == dim:
            vertices.add(tuple(Fraction(x) for x in p))
    return tuple(sorted(vertices))


def brute_facets(points, rays):
    """All facet halfspaces of conv(points) + cone(rays) by n-subset search.

    Enumerates homogenized generator subsets of size dim, takes a null normal,
    orients it, keeps it when valid (all generators on the nonneg side) and
    supporting with full facet rank.  Returns normalized (normal, offset)
    pairs over integers.  Only for full-dimensional desk-scale inputs.
    """
    dim = len(points[0])
    gens = [tuple(p) + (1,) for p in points] + [tuple(r) + (0,) for r in rays]
    facets = set()
    for subset in itertools.combinations(range(len(gens)), dim):
        rows = [gens[i] for i in subset]
        z = null_vector(rows, dim + 1)
        if z is None:
            continue
        vals = [sum(Fraction(zi) * gi for zi, gi in zip(z, g)) for g in gens]
        if all(v >= 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals):
            z = [-x for x in z]
            vals = [-v for v in vals]
        else:
            continue
        tight = [g for g, v in zip(gens, vals) if v == 0]
        if rank(tight) != dim:
            continue
        normal, last = z[:-1], z[-1]
        if all(x == 0 for x in normal):
            continue
        denom = 1
        for x in normal + [last]:
            denom = denom * x.denominator // _gcd(denom, x.denominator)
        ints = [int(x * denom) for x in normal] + [int(last * denom)]
        g = 0
        for v in ints:
            g = _gcd(g, abs(v))
        ints = [v // g for v in ints]
        facets.add((tuple(ints[:-1]), -ints[-1]))
    return facets


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def brute_lp_minimum(objective, constraints, nonneg=True):
    """Minimize over all basic feasible points: solve every square subsystem
    of tight constraints (including x_i = 0 bounds when nonneg).

    Returns ('optimal', value) / ('infeasible', None) / ('unbounded-or-open', None):
    for bounded feasible problems with at least one vertex this is exact.
    """
    n = len(objective)
    rows = [tuple(c[0]) for c in constraints]
    offs = [c[1] for c in constraints]
    if nonneg:
        for i in range(n):
            rows.append(tuple(1 if j == i else 0 for j in range(n)))
            offs.append(0)

    def feasible(pt):
        return all(sum(Fraction(r) * x for r, x in zip(row, pt)) >= off
                   for row, off in zip(rows, offs))

    best = None
    any_feasible = False
    for subset in itertools.combinations(range(len(rows)), n):
        sol = solve_square([rows[i] for i in subset], [offs[i] for i in subset])
        if sol is None:
            continue
        if feasible(sol):
            any_feasible = True
            value = sum(Fraction(c) * x for c, x in zip(objective, sol))
            if best is None or value < best:
                best = value
    if best is not None:
        return "optimal", best
    return ("unbounded-or-open", None) if any_feasible else ("infeasible", None)


def is_covering(lp):
    """True for the LPs `lp_minimize` takes: objective >= 0, every normal a
    nonzero vector of entries >= 0, every offset >= 0."""
    return all(x >= 0 for x in lp.objective) and all(
        h.offset >= 0 and any(h.normal) and all(x >= 0 for x in h.normal)
        for h in lp.constraints)


def fraction_lp_minimize(lp):
    """A general LP on a Fraction tableau [y | slacks | artificials | rhs]:
    two phases, rows with a negative offset negated, Bland's rule, least-ratio
    leaving row (ties to the least basis index) and artificial pivot-out,
    with each pivot row scaled to a 1.  On a covering LP its pivot path, and
    hence its argmin and dual on degenerate LPs, is the one the integer
    tableau of `lp_minimize` must reproduce.  The dual certificate is not
    re-checked here."""
    nvar = len(lp.objective)
    m = len(lp.constraints)
    n_total = nvar + m
    zero, one = Fraction(0), Fraction(1)
    flips = [-1 if h.offset < 0 else 1 for h in lp.constraints]
    T = [[Fraction(f * x) for x in h.normal] + [Fraction(-f if j == i else 0) for j in range(m)]
         + [one if j == i else zero for j in range(m)] + [Fraction(f * h.offset)]
         for i, (h, f) in enumerate(zip(lp.constraints, flips))]
    T.append([-sum(row[j] for row in T) for j in range(n_total)] + [zero] * m
             + [-sum(row[-1] for row in T)])
    basis = list(range(n_total, n_total + m))
    if not _fraction_simplex(T, basis, n_total + m):
        raise AssertionError("phase-1 objective is bounded below by zero")
    if T[-1][-1] < 0:
        return LPResult("infeasible")
    for i, bv in enumerate(basis):
        if bv >= n_total:
            entering = next((j for j in range(n_total) if T[i][j] != 0), None)
            if entering is not None:
                _fraction_pivot(T, i, entering)
                basis[i] = entering
    c = [Fraction(x) for x in lp.objective] + [zero] * (2 * m + 1)
    T[-1] = [cj - sum(c[bv] * row[j] for bv, row in zip(basis, T)) for j, cj in enumerate(c)]
    if not _fraction_simplex(T, basis, n_total):
        return LPResult("unbounded")
    value = {bv: T[i][-1] for i, bv in enumerate(basis)}
    y = tuple(value.get(j, zero) for j in range(nvar))
    optimum = sum(Fraction(ci) * yi for ci, yi in zip(lp.objective, y))
    dual = tuple(-f * T[-1][n_total + i] for i, f in enumerate(flips))
    return LPResult("optimal", optimum, y, dual)


def _fraction_pivot(T, r, j):
    pv = T[r][j]
    top = T[r] = [x / pv if x else x for x in T[r]]
    for i, row in enumerate(T):
        if i != r and row[j] != 0:
            f = row[j]
            # zeros of the pivot row leave entries as they are; skipping them
            # only saves Fraction arithmetic
            T[i] = [x - f * y if y else x for x, y in zip(row, top)]


def _fraction_simplex(T, basis, columns) -> bool:
    while True:
        entering = next((j for j in range(columns) if T[-1][j] < 0), None)
        if entering is None:
            return True
        rows = [i for i in range(len(basis)) if T[i][entering] > 0]
        if not rows:
            return False
        leaving = min(rows, key=lambda i: (T[i][-1] / T[i][entering], basis[i]))
        _fraction_pivot(T, leaving, entering)
        basis[leaving] = entering


def halfspace_redundant(poly, index):
    """LP witness check: can the polyhedron do without halfspace `index`?"""
    target = poly.halfspaces[index]
    others = tuple(h for i, h in enumerate(poly.halfspaces) if i != index)
    # the variables are free: y = u - v with u, v >= 0
    split = tuple(HalfSpace(h.normal + tuple(-x for x in h.normal), h.offset) for h in others)
    objective = tuple(Fraction(v) for v in target.normal)
    lp = LinearProgram(objective + tuple(-c for c in objective), split)
    res = fraction_lp_minimize(lp)
    if res.status == "unbounded":
        return False
    if res.status == "infeasible":
        return True
    return res.optimum >= target.offset
