"""Hull and LP solver against brute-force facet enumeration and vertex search."""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from resurgence import (
    CapabilityError,
    DomainError,
    HalfSpace,
    LinearProgram,
    MonomialIdeal,
    hull_with_recession,
    lp_minimize,
)
from resurgence import polyhedra


def unit_rays(n):
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def hs_set(poly):
    return {(h.normal, h.offset) for h in poly.halfspaces}


class TestHull:
    def test_two_var_staircase(self):
        poly = hull_with_recession([(2, 0), (0, 3)], unit_rays(2))
        assert hs_set(poly) == {((1, 0), 0), ((0, 1), 0), ((3, 2), 6)}
        assert hs_set(poly) == oracles.brute_facets([(2, 0), (0, 3)], unit_rays(2))

    def test_translate_of_orthant(self):
        poly = hull_with_recession([(1, 0)], unit_rays(2))
        assert hs_set(poly) == {((1, 0), 1), ((0, 1), 0)}

    def test_triangle_3d(self):
        pts = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        poly = hull_with_recession(pts, unit_rays(3))
        expected = {
            ((1, 1, 1), 2), ((1, 1, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1),
            ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
        }
        assert hs_set(poly) == expected
        assert hs_set(poly) == oracles.brute_facets(pts, unit_rays(3))
        # membership by convex-combination feasibility on sampled points
        for q in itertools.product(range(3), repeat=3):
            lp = _membership_lp(q, pts, unit_rays(3))
            assert poly.contains(q) == (lp_minimize(lp).status == "optimal")

    def test_staircase_matches_double_description(self):
        # a third ray inside the orthant forces the generic path; same cone
        rng = random.Random(11)
        for _ in range(30):
            pts = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 5))]
            fast = hull_with_recession(pts, unit_rays(2))
            slow = hull_with_recession(pts, unit_rays(2) + [(1, 1)])
            assert hs_set(fast) == hs_set(slow)

    def test_brute_facets_random_3d(self):
        rng = random.Random(12)
        for _ in range(15):
            pts = sorted({tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(4)})
            poly = hull_with_recession(pts, unit_rays(3))
            assert hs_set(poly) == oracles.brute_facets(pts, unit_rays(3))

    def test_defining_points_are_members(self):
        rng = random.Random(13)
        for _ in range(20):
            pts = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(4)]
            poly = hull_with_recession(pts, unit_rays(3))
            for p in pts:
                assert poly.contains(p)
                shifted = tuple(x + 2 * r for x, r in zip(p, (1, 0, 1)))
                assert poly.contains(shifted)

    def test_irredundant_by_lp(self):
        pts = [(1, 1, 0), (1, 0, 1), (0, 1, 1), (3, 0, 0)]
        poly = hull_with_recession(pts, unit_rays(3))
        for i in range(len(poly.halfspaces)):
            assert not oracles.halfspace_redundant(poly, i)

    def test_flat_hulls_with_rays_have_no_face_at_infinity(self):
        # a half-plane inside x3 = 3: the face at infinity would come out as
        # x3 >= 0, implied by the equation
        poly = hull_with_recession([(2, 3, 3, 2)], [(2, -1, 0, -1), (-2, 2, 0, 2)])
        assert hs_set(poly) == {
            ((0, -3, 1, 3), 0), ((0, 3, -1, -3), 0), ((0, 0, -1, 0), -3), ((0, 0, 1, 0), 3),
            ((3, 3, -5, 0), 0), ((3, 6, -8, 0), 0),
        }
        rng = random.Random(20)
        for _ in range(200):
            pts, rays = _flat_hull_input(rng)
            poly = hull_with_recession(pts, rays)
            assert all(poly.contains(p) for p in pts)
            for i in range(len(poly.halfspaces)):
                assert not oracles.halfspace_redundant(poly, i)

    def test_degenerate_inputs(self):
        # all points equal: a translated orthant
        poly = hull_with_recession([(2, 2), (2, 2)], unit_rays(2))
        assert hs_set(poly) == {((1, 0), 2), ((0, 1), 2)}
        # points on a line with no rays: affine-hull equations appear
        segment = hull_with_recession([(0, 0), (2, 2)], [])
        assert segment.contains((1, 1))
        assert not segment.contains((1, 0))
        assert not segment.contains((3, 3))

    def test_scaling_membership(self):
        poly = hull_with_recession([(2, 0), (0, 3)], unit_rays(2))
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(1, 6)
            y = (rng.randint(0, 8), rng.randint(0, 8))
            scaled = tuple(n * c for c in y)
            assert poly.contains(scaled, scale=n) == poly.contains(y)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_brute_facets_random_integer_and_rational(self, dim):
        rng = random.Random(16 + dim)
        for _ in range(12):
            pts = [tuple(Fraction(rng.randint(0, 9), rng.choice((1, 1, 2, 3)))
                         for _ in range(dim)) for _ in range(rng.randint(1, 6))]
            poly = hull_with_recession(pts, unit_rays(dim))
            assert hs_set(poly) == oracles.brute_facets(pts, unit_rays(dim))
            assert set(poly.vertices) <= set(pts)

    def test_lower_dimensional_and_partial_rays(self):
        # exact outputs of the rational double description these inputs were
        # first run through; brute_facets needs full-dimensional input
        F = Fraction
        cases = [
            # no rays: a polytope
            ([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1)], [],
             (((-3, -2, -1), -6), ((-1, 1, -2), -2), ((0, 0, 1), 0), ((0, 1, 0), 0),
              ((1, -1, -3), -3), ((1, 0, 0), 0)),
             ((0, 0, 0), (0, 0, 1), (0, 3, 0), (1, 1, 1), (2, 0, 0))),
            # one ray
            ([(1, 0, 2), (0, 2, 1), (2, 1, 0)], [(1, 1, 0)],
             (((-1, 1, 0), -1), ((1, -1, -3), -5), ((1, -1, 3), 1), ((1, 1, 1), 3)),
             ((0, 2, 1), (1, 0, 2), (2, 1, 0))),
            # a segment with rational endpoint
            ([(1, 0, 2), (F(7, 2), 1, F(1, 3))], [],
             (((-6, 20, 3), 0), ((-2, 5, 0), -2), ((0, 1, 0), 0), ((2, -7, 0), 0),
              ((2, -5, 0), 2), ((6, -20, -3), 0)),
             ((1, 0, 2), (F(7, 2), 1, F(1, 3)))),
            # codimension 2: a plane in 4-space plus a ray inside it
            ([(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (2, 2, 2, 2)], [(1, 1, 1, 1)],
             (((-1, 0, 1, 0), 0), ((-1, 1, 0, 0), -1), ((0, -1, 0, 1), 0), ((0, 1, 0, -1), 0),
              ((0, 1, 0, 0), 0), ((1, -1, 0, 0), -1), ((1, 0, -1, 0), 0), ((1, 0, 0, 0), 0)),
             ((0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0))),
        ]
        for pts, rays, halfspaces, vertices in cases:
            poly = hull_with_recession(pts, rays)
            assert tuple((h.normal, h.offset) for h in poly.halfspaces) == halfspaces
            assert poly.vertices == tuple(tuple(Fraction(x) for x in v) for v in vertices)
            assert all(isinstance(x, Fraction) for v in poly.vertices for x in v)
            assert poly.recession_rays == tuple(sorted(rays))

    def test_power_of_four_generator_ideal(self):
        # I^8 has 109 generators but only 7 facets and 3 vertices
        ideal = MonomialIdeal.from_generators(3, [[3, 1, 0], [0, 2, 3], [1, 0, 4], [2, 2, 1]])
        gens = ideal.power(8).generators
        assert len(gens) == 109
        poly = hull_with_recession(gens, unit_rays(3))
        assert hs_set(poly) == {
            ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0), ((0, 4, 1), 32),
            ((1, 0, 1), 24), ((2, 1, 0), 16), ((7, 6, 5), 216),
        }
        assert poly.vertices == ((0, 16, 24), (8, 0, 32), (24, 8, 0))

    def test_adjacency_double_description_matches_rank_filtered_oracle(self, monkeypatch):
        answers = {}

        def oracle(gens, dim):  # memoized: the patched hull asks for the same cone
            key = (tuple(gens), dim)
            if key not in answers:
                answers.clear()
                lineality, extreme = oracles.rank_filtered_dual_description(gens, dim)
                answers[key] = lineality, [(r, oracles.tight_mask(gens, r)) for r in extreme]
            return answers[key]

        rng = random.Random(18)
        for _ in range(2000):
            pts, rays = _random_hull_input(rng)
            dim = len(pts[0])
            gens = [p + (1,) for p in pts] + [polyhedra._primitive(r) + (0,) for r in rays]
            lineality, extreme = polyhedra._dual_description(gens, dim + 1)
            want_lineality, want_extreme = oracle(gens, dim + 1)
            assert lineality == want_lineality
            assert len(extreme) == len({r for r, _ in extreme})
            # each ray's tight set is the one its dot products give
            assert sorted(extreme) == sorted(want_extreme)
            poly = hull_with_recession(pts, rays)
            with monkeypatch.context() as patched:
                patched.setattr(polyhedra, "_dual_description", oracle)
                assert poly == hull_with_recession(pts, rays)
            # the integer homogenization emits what the rational one does
            assert poly == hull_with_recession([tuple(map(Fraction, p)) for p in pts], rays)
            if not (dim == 2 and set(rays) == {(1, 0), (0, 1)}):  # the chain keeps ints
                assert all(type(x) is Fraction for v in poly.vertices for x in v)

    def test_vertices_match_the_rank_oracle(self):
        rng = random.Random(19)
        for _ in range(2400):
            pts, rays = _random_hull_input(rng, rational=True, zero_ray=True)
            poly = hull_with_recession(pts, rays)
            assert poly.vertices == oracles.rank_vertices(pts, poly.halfspaces)
        # the one point of R^0 is its own vertex
        assert hull_with_recession([()]).vertices == ((),)

    def test_powers_scale_the_newton_offsets(self):
        ideal = MonomialIdeal.from_generators(3, [[3, 1, 0], [0, 2, 3], [1, 0, 4], [2, 2, 1]])
        base = hs_set(hull_with_recession(ideal.generators, unit_rays(3)))
        for n in range(1, 6):
            poly = hull_with_recession(ideal.power(n).generators, unit_rays(3))
            assert hs_set(poly) == {(normal, n * offset) for normal, offset in base}

    def test_dimension_cap(self):
        with pytest.raises(CapabilityError):
            hull_with_recession([tuple(range(9))], unit_rays(9))

    def test_empty_points(self):
        with pytest.raises(Exception):
            hull_with_recession([], unit_rays(2))


class TestHalfSpaceNormalized:
    def test_integer_and_rational_inputs_match_the_fraction_path(self):
        # _primitive reduces all-int input by its gcd; the same entries as
        # Fractions take the lcm-of-denominators path, which must agree
        rng = random.Random(15)
        for _ in range(400):
            dim = rng.randint(1, 5)
            scale = rng.choice((1, 2, 6, 30))
            normal = [scale * rng.randint(-4, 4) for _ in range(dim)]
            if not any(normal):
                normal[0] = scale
            offset = scale * rng.randint(-5, 5)
            if rng.random() < 0.5:
                k = rng.randrange(dim + 1)
                den = rng.randint(2, 7)
                entries = normal + [offset]
                entries[k] = Fraction(entries[k], den)
                normal, offset = entries[:-1], entries[-1]
            joint = tuple(normal) + (offset,)
            expected = polyhedra._primitive([Fraction(x) for x in joint])
            assert polyhedra._primitive(joint) == expected
            h = HalfSpace.normalized(normal, offset)
            assert h == HalfSpace(expected[:-1], expected[-1])
            assert all(type(x) is int for x in (*h.normal, h.offset))

    def test_zero_normal_rejected(self):
        with pytest.raises(DomainError):
            HalfSpace.normalized((0, 0), 3)


def _random_hull_input(rng, rational=False, zero_ray=False):
    """Points and rays in 1-6 dimensions: orthant, partial, random signed or
    no rays, with repeated points and hulls inside a hyperplane.  `rational`
    gives about 30% of the points Fraction coordinates, and `zero_ray` adds
    the zero ray to about one input in ten."""
    dim = rng.randint(1, 6)
    top = rng.choice((1, 3, 6))
    pts = [tuple(rng.randint(0, top) for _ in range(dim)) for _ in range(rng.randint(1, 7))]
    pts += rng.sample(pts, rng.randint(0, len(pts) // 2))
    shape = rng.choice(("orthant", "partial", "random", "none", "flat"))
    if shape == "orthant":
        rays = unit_rays(dim)
    elif shape == "partial":
        rays = rng.sample(unit_rays(dim), rng.randint(1, dim))
    elif shape == "random":
        rays = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
        rays = [r for r in rays if any(r)]
    else:
        rays = []
    if shape == "flat" and dim > 1:
        # x_i = x_j + 1 on every point: a hull of lower dimension
        i, j = rng.sample(range(dim), 2)
        pts = [p[:i] + (p[j] + 1,) + p[i + 1:] for p in pts]
    if rational:
        pts = [tuple(Fraction(x, rng.randint(1, 4)) for x in p) if rng.random() < 0.3 else p
               for p in pts]
    if zero_ray and rng.random() < 0.1:
        rays = rays + [(0,) * dim]
    return pts, rays


def _flat_hull_input(rng):
    """Points on x_i = x_j + 1 and nonzero rays with r_i = r_j in 2-5
    dimensions: a hull inside that hyperplane that has rays."""
    dim = rng.randint(2, 5)
    i, j = rng.sample(range(dim), 2)

    def on_plane(v, shift):
        return v[:i] + (v[j] + shift,) + v[i + 1:]
    pts = [on_plane(tuple(rng.randint(0, 4) for _ in range(dim)), 1) for _ in range(rng.randint(1, 4))]
    rays = [on_plane(tuple(rng.randint(-2, 2) for _ in range(dim)), 0) for _ in range(rng.randint(1, 3))]
    return pts, [r for r in rays if any(r)]


def _membership_lp(q, pts, rays):
    """Feasibility of q = sum l_i p_i + sum m_j r_j, sum l_i = 1, l, m >= 0,
    written as a >=-system in the multipliers."""
    k, r = len(pts), len(rays)
    dim = len(q)
    constraints = []
    for coord in range(dim):
        row = tuple([p[coord] for p in pts] + [ray[coord] for ray in rays])
        constraints.append(HalfSpace.normalized(row, q[coord]))
        constraints.append(HalfSpace.normalized(tuple(-x for x in row), -q[coord]))
    ones = tuple([1] * k + [0] * r)
    constraints.append(HalfSpace.normalized(ones, 1))
    constraints.append(HalfSpace.normalized(tuple(-x for x in ones), -1))
    return LinearProgram(tuple(Fraction(0) for _ in range(k + r)), tuple(constraints))


class TestLP:
    def test_fractional_cover_lp(self):
        pairs = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        lp = LinearProgram(
            (Fraction(1), Fraction(1), Fraction(1)),
            tuple(HalfSpace(p, 1) for p in pairs),
        )
        res = lp_minimize(lp)
        assert res.optimum == Fraction(3, 2)
        assert res.argmin == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        status, brute = oracles.brute_lp_minimum(lp.objective, [(p, 1) for p in pairs])
        assert (status, brute) == ("optimal", Fraction(3, 2))

    def test_trivial(self):
        lp = LinearProgram((Fraction(1),), (HalfSpace((1,), 0),))
        assert lp_minimize(lp).optimum == 0

    def test_unbounded(self):
        lp = LinearProgram((Fraction(-1),), (HalfSpace((1,), 0),))
        assert lp_minimize(lp).status == "unbounded"

    def test_infeasible(self):
        lp = LinearProgram(
            (Fraction(1),),
            (HalfSpace((1,), 3), HalfSpace((-1,), -1)),
        )
        assert lp_minimize(lp).status == "infeasible"

    def test_no_constraints(self):
        assert lp_minimize(LinearProgram((Fraction(-1),), ())).status == "unbounded"
        res = lp_minimize(LinearProgram((Fraction(2), Fraction(0)), ()))
        assert (res.optimum, res.argmin, res.dual) == (0, (0, 0), ())

    def test_free_variables(self):
        # free y = u - v with u, v >= 0: min y1 + y2 s.t. y1 >= -2, y2 >= -3, y1 + y2 >= -4
        lp = LinearProgram(
            (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1)),
            (HalfSpace((1, 0, -1, 0), -2), HalfSpace((0, 1, 0, -1), -3),
             HalfSpace((1, 1, -1, -1), -4)),
        )
        res = lp_minimize(lp)
        assert res.optimum == Fraction(-4)

    def test_duality_random(self):
        rng = random.Random(15)
        checked = 0
        for _ in range(120):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            objective = tuple(Fraction(rng.randint(0, 4)) for _ in range(n))
            constraints = []
            for _ in range(m):
                normal = tuple(rng.randint(-2, 3) for _ in range(n))
                if all(v == 0 for v in normal):
                    normal = tuple(1 for _ in range(n))
                constraints.append(HalfSpace.normalized(normal, rng.randint(-2, 3)))
            lp = LinearProgram(objective, tuple(constraints))
            res = lp_minimize(lp)
            status, brute = oracles.brute_lp_minimum(objective, [(c.normal, c.offset) for c in constraints])
            # y >= 0 makes a nonempty feasible set pointed, so the vertex search
            # finds a point exactly when the LP is feasible
            assert (res.status == "infeasible") == (status == "infeasible")
            if res.status != "optimal":
                continue
            checked += 1
            # re-verify the certificate here, independent of the solver's own check
            assert all(u >= 0 for u in res.dual)
            for j in range(n):
                col = sum(u * c.normal[j] for u, c in zip(res.dual, lp.constraints))
                assert col <= objective[j]
            assert sum(u * c.offset for u, c in zip(res.dual, lp.constraints)) == res.optimum
            if status == "optimal":
                assert brute == res.optimum
        assert checked >= 30

    def test_determinism(self):
        pairs = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        lp = LinearProgram((Fraction(2), Fraction(1), Fraction(1)),
                           tuple(HalfSpace(p, 1) for p in pairs))
        first = lp_minimize(lp)
        for _ in range(3):
            again = lp_minimize(lp)
            assert (again.optimum, again.argmin, again.dual) == (first.optimum, first.argmin, first.dual)
