import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epival.bodies import Polytope
from epival.linalg import mat_rank, solve
from epival.measures import _lower_clip
from epival.spherical import SphericalPatch, in_cone


def patch(gens, d):
    return SphericalPatch.from_generators(gens, d)


class TestMembership:
    def test_octant_membership(self):
        gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert in_cone((2, 3, 1), gens)
        assert in_cone((0, 0, 0), gens)
        assert not in_cone((-1, 0, 0), gens)

    def test_plane_cone(self):
        gens = [(1, 0), (-1, 1), (-1, -1)]
        assert in_cone((0, -5), gens)
        assert in_cone((-7, 0), gens)


class TestPatch2D:
    def test_single_ray(self):
        p = patch([(3, 4)], 2)
        assert p.kind == "points"
        assert p.measure == 1.0
        np.testing.assert_allclose(p.data[0], [0.6, 0.8])

    def test_antipodal_line(self):
        p = patch([(1, 2), (-1, -2)], 2)
        assert p.kind == "points"
        assert p.measure == 2.0

    def test_wedge_angle(self):
        p = patch([(1, 0), (1, 1)], 2)
        assert p.measure == pytest.approx(math.pi / 4, abs=1e-14)
        q = patch([(1, 0), (-1, 1)], 2)
        assert q.measure == pytest.approx(3 * math.pi / 4, abs=1e-14)

    def test_half_plane(self):
        p = patch([(1, 0), (-1, 0), (0, 1)], 2)
        assert p.measure == pytest.approx(math.pi, abs=1e-14)
        val = p.integrate(lambda u: u[1])
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_full_circle(self):
        p = patch([(1, 0), (-1, 1), (-1, -1)], 2)
        assert p.measure == pytest.approx(2 * math.pi, abs=1e-14)
        assert p.integrate(lambda u: u[0] ** 2) == pytest.approx(math.pi, abs=1e-9)

    def test_wedge_integral(self):
        # angle from 0 to pi/2, integral of x over the quarter circle
        p = patch([(1, 0), (0, 1)], 2)
        assert p.integrate(lambda u: u[0]) == pytest.approx(1.0, abs=1e-10)

    def test_polygon_vertex_wedges_tile_circle(self):
        rng = random.Random(21)
        for _ in range(10):
            pts = [(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))) for _ in range(8)]
            poly = Polytope.construct(pts, ambient_dim=2)
            if poly.intrinsic_dim != 2:
                continue
            total = 0.0
            for v in poly.vertices:
                gens = [hs[0] for hs in poly.proper_halfspaces
                        if linalg_dot(hs[0], v) == hs[1]]
                total += patch(gens, 2).measure
            assert total == pytest.approx(2 * math.pi, abs=1e-12)


def linalg_dot(m, v):
    return sum(Fraction(a) * b for a, b in zip(m, v))


class TestPatch3D:
    def test_single_ray(self):
        p = patch([(1, 2, 2)], 3)
        assert p.kind == "points"
        assert p.measure == 1.0

    def test_line(self):
        p = patch([(0, 0, 1), (0, 0, -1)], 3)
        assert p.measure == 2.0

    def test_wedge_arc(self):
        p = patch([(1, 0, 0), (0, 1, 0)], 3)
        assert p.kind == "arc"
        assert p.measure == pytest.approx(math.pi / 2, abs=1e-14)

    def test_great_circle(self):
        p = patch([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], 3)
        assert p.measure == pytest.approx(2 * math.pi, abs=1e-14)

    def test_half_great_circle(self):
        p = patch([(1, 0, 0), (-1, 0, 0), (0, 0, 1)], 3)
        assert p.measure == pytest.approx(math.pi, abs=1e-14)
        # integral of z along the half circle
        assert p.integrate(lambda u: u[2]) == pytest.approx(2.0, abs=1e-10)

    def test_octant(self):
        p = patch([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert p.kind == "polygon"
        assert p.measure == pytest.approx(math.pi / 2, abs=1e-12)
        assert p.integrate(lambda u: 1.0) == pytest.approx(math.pi / 2, abs=1e-9)
        assert p.integrate(lambda u: u[2]) == pytest.approx(math.pi / 4, abs=1e-9)

    def test_lune(self):
        p = patch([(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0)], 3)
        assert p.kind == "lune"
        assert p.measure == pytest.approx(math.pi, abs=1e-12)
        # integral of z^2 over a lune of angle theta is 2*theta/3
        assert p.integrate(lambda u: u[2] ** 2) == pytest.approx(math.pi / 3, abs=1e-9)

    def test_hemisphere(self):
        p = patch([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)], 3)
        assert p.kind == "cap"
        assert p.measure == pytest.approx(2 * math.pi, abs=1e-12)
        assert p.integrate(lambda u: u[2]) == pytest.approx(math.pi, abs=1e-9)

    def test_full_sphere(self):
        gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        p = patch(gens, 3)
        assert p.measure == pytest.approx(4 * math.pi, abs=1e-12)
        assert p.integrate(lambda u: u[0] ** 2) == pytest.approx(4 * math.pi / 3, abs=1e-8)

    def test_oblique_cone_girard_vs_quadrature(self):
        gens = [(2, 1, 1), (1, 3, 1), (1, 1, 4), (3, 2, 2)]
        p = patch(gens, 3)
        assert p.kind == "polygon"
        quad = p.integrate(lambda u: 1.0)
        assert quad == pytest.approx(p.measure, abs=1e-9)

    def test_vertex_cones_tile_sphere(self):
        rng = random.Random(31)
        for _ in range(5):
            pts = [tuple(Fraction(rng.randint(-5, 5)) for _ in range(3)) for _ in range(10)]
            poly = Polytope.construct(pts, ambient_dim=3)
            if poly.intrinsic_dim != 3:
                continue
            total = 0.0
            for v in poly.vertices:
                gens = [hs[0] for hs in poly.proper_halfspaces
                        if linalg_dot(hs[0], v) == hs[1]]
                total += patch(gens, 3).measure
            assert total == pytest.approx(4 * math.pi, abs=1e-9)

    def test_bounding_halfspaces_contain_rays(self):
        cases = [
            ([(1, 2)], 2), ([(1, 0), (1, 1)], 2), ([(1, 0), (-1, 0), (0, 1)], 2),
            ([(3, 4, 0)], 3), ([(1, 0, 0), (0, 1, 0)], 3),
            ([(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0)], 3),
            ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)], 3),
            ([(2, 1, 1), (1, 3, 1), (1, 1, 4), (3, 2, 2)], 3),
            ([(1, 0, 0), (-1, 0, 0), (0, 0, 1)], 3),
            # a polygon whose edge normals, oriented by a direction of the
            # dual cone, once excluded the generator (1, -2, -2)
            ([(-1, 1, -2), (1, -2, -2), (3, -1, 3)], 3),
            # a flat cone with three pointed generators
            ([(2, 1, 1), (-1, 2, 2), (1, 3, 3)], 3),
        ]
        for gens, d in cases:
            p = patch(gens, d)
            for m in p.bounding:
                for r in p.rays:
                    assert linalg_dot(m, r) <= 0
            # interior mixtures stay inside, and flipping any constraint exits
            mix = tuple(sum(Fraction(g[k]) for g in gens) for k in range(d))
            assert all(linalg_dot(m, mix) <= 0 for m in p.bounding)

    def test_bounding_separates_outside_directions(self):
        p = patch([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert p.contains_direction(np.array([1.0, 1.0, 1.0]) / math.sqrt(3))
        assert not p.contains_direction(np.array([-1.0, 0.0, 0.0]))
        q = patch([(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0)], 3)
        assert q.contains_direction(np.array([0.0, 0.0, 1.0]))
        assert not q.contains_direction(np.array([-1.0, 0.1, 0.0]) / np.linalg.norm([-1.0, 0.1, 0.0]))

    def test_lower_clip_octant(self):
        # cutting the quarter space x, y >= 0 by z <= 0 leaves an octant;
        # the octant x, y, z >= 0 only meets z <= 0 on the equator
        p = check_lower_clip([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)], 2, None)
        assert p.kind == "polygon"
        assert p.measure == pytest.approx(math.pi / 2, abs=1e-14)
        assert check_lower_clip([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, None) is None

    def test_lower_clip_tilted(self):
        # the gradient box x <= -z, y <= -z slices the lower octant; the
        # quadrature still matches Girard
        p = check_lower_clip([(1, 0, 0), (0, 1, 0), (0, 0, -1)], 2, Fraction(1))
        assert p.kind == "polygon"
        assert p.integrate(lambda u: 1.0) == pytest.approx(p.measure, abs=1e-9)
        assert sorted(p.rays) == [(0, 0, -1), (0, 1, -1), (1, 0, -1), (1, 1, -1)]

    def test_cube_edge_cones(self):
        cube = Polytope.construct(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        # every edge normal cone is a quarter circle arc
        for i, j in cube.edge_list:
            a, b = cube.vertices[i], cube.vertices[j]
            gens = [hs[0] for hs in cube.proper_halfspaces
                    if linalg_dot(hs[0], a) == hs[1] and linalg_dot(hs[0], b) == hs[1]]
            p = patch(gens, 3)
            assert p.kind == "arc"
            assert p.measure == pytest.approx(math.pi / 2, abs=1e-14)


def dd_clip(rays, normal):
    """The double description step: generators of cone(rays) ∩ {x :
    normal·x ≤ 0}, every below/above pair kept, none dropped."""
    side = [linalg_dot(normal, r) for r in rays]
    out = [r for r, s in zip(rays, side) if s <= 0]
    for a, sa in zip(rays, side):
        for b, sb in zip(rays, side):
            if sa < 0 < sb:
                out.append(tuple(sb * x - sa * y for x, y in zip(a, b)))
    return out


def check_lower_clip(gens, n, bound):
    """_lower_clip against the double description steps it replaced: the
    same bounding set and kind, the measure to 1e-12."""
    d = n + 1
    p = patch(gens, d)
    rays = dd_clip(p.rays, tuple(int(k == n) for k in range(d)))
    if bound is not None:
        for j in range(n):
            for sgn in (1, -1):
                m = tuple(sgn if k == j else bound if k == n else 0
                          for k in range(d))
                rays = dd_clip(rays, m)
    rays = [r for r in rays if any(r)]
    got = _lower_clip(p, n, bound)
    if not rays or all(r[-1] == 0 for r in rays):
        assert got is None
        return None
    ref = patch(rays, d)
    assert got.kind == ref.kind
    assert set(got.bounding) == set(ref.bounding)
    assert got.measure == pytest.approx(ref.measure, abs=1e-12)
    return got


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[st.integers(-3, 3)] * (n + 1)), min_size=1, max_size=6),
    st.sampled_from([None, Fraction(1, 2), Fraction(3)]))))
def test_lower_clip_matches_double_description(case):
    n, gens, bound = case
    assume(any(any(g) for g in gens))
    check_lower_clip(gens, n, bound)


def subset_in_cone(x, gens):
    """Membership by the definition: x is a nonnegative combination of
    some linearly independent subset of the generators."""
    x = tuple(Fraction(v) for v in x)
    if all(v == 0 for v in x):
        return True
    for r in range(1, len(x) + 1):
        for sel in itertools.combinations(gens, r):
            if mat_rank(sel) < r:
                continue
            gram = [[linalg_dot(a, b) for b in sel] for a in sel]
            lam = solve(gram, [linalg_dot(a, x) for a in sel])
            if lam is None or any(t < 0 for t in lam):
                continue
            if all(sum(lam[i] * sel[i][k] for i in range(r)) == x[k]
                   for k in range(len(x))):
                return True
    return False


@st.composite
def cones_and_probes(draw):
    d = draw(st.sampled_from([2, 3]))
    vec = st.tuples(*[st.integers(-3, 3)] * d)
    gens = draw(st.lists(vec, min_size=1, max_size=7))
    if draw(st.booleans()):
        gens.append(tuple(-x for x in gens[0]))      # a lineality direction
    if draw(st.booleans()):
        gens.append(gens[-1])                         # a duplicate
    probes = draw(st.lists(vec, min_size=1, max_size=8))
    return d, gens, probes


@settings(max_examples=80, deadline=None)
@given(cones_and_probes())
def test_hull_cone_structure_matches_subset_membership(case):
    d, gens, probes = case
    assume(any(any(g) for g in gens))
    p = patch(gens, d)
    rays = [tuple(Fraction(x) for x in r) for r in p.rays]
    for x in probes + gens + [tuple(-v for v in g) for g in gens]:
        ref = subset_in_cone(x, rays)
        assert in_cone(x, gens) == ref
        assert all(linalg_dot(m, x) <= 0 for m in p.bounding) == ref
    lineality = [r for r in rays if subset_in_cone([-v for v in r], rays)]
    assert lineality == [r for r in rays
                         if all(linalg_dot(m, r) == 0 for m in p.bounding)]
