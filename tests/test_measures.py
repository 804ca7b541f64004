"""Frozen oracles for the support and Hessian measures.

Totals for the square, cube, segment and point are derived independently
by fitting the parallel volume polynomial vol(K_t) = sum over a ball,
edge tubes and facet slabs, worked out by hand before the module was
written:

    square   [0,1]^2 : order 0 -> pi,     order 1 -> 2
    cube     [0,1]^3 : order 0 -> 4pi/3,  order 1 -> pi,  order 2 -> 2
    segment  in R^2  : order 0 -> pi,     order 1 -> 1
    point    in R^2  : order 0 -> pi,     order 1 -> 0

and the localized bottom-edge mass of the square at direction (0,-1)
is 1/2.  Hessian totals for the three interval examples (R = 1):

    indicator of [-1,1]        : order 1 -> 2, order 0 -> 2, flowout -> 4
    |x| + indicator of [-1,1]  : order 1 -> 2, order 0 -> 2, flowout -> 4
    indicator of {0}           : order 1 -> 0, order 0 -> 2, flowout -> 2
"""

import itertools
import math
from fractions import Fraction as F
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epival import bodies
from epival.bodies import FACET_TOL, INSIDE_TOL, GeometryError, Polytope
from epival.cases import CaseGenerator
from epival.functions import PLConvexFunction
from epival.linalg import dot, sub
from epival.measures import (
    MC_TOL,
    FaceMeasure,
    FacePiece,
    SphereMeasure,
    _cone_generators,
    _gradient_region,
    _lower_clip,
    _mc_reach,
    complex_faces,
    density_constant,
    faces_with_cones,
    hessian_integrate,
    hessian_integrate_via_support,
    hessian_measure,
    hessian_steiner,
    hessian_total,
    integrate_over_face,
    integrate_support_measure,
    local_parallel_volume_mc,
    nearest_points,
    p_t_volume_mc,
    parallel_volume,
    support_measure,
    surface_area_measure,
)
from epival.spherical import (
    SphericalPatch,
    _adaptive_1d,
    _adaptive_tri,
    _spherical_tri_integral,
)


def square():
    return Polytope.construct([(0, 0), (1, 0), (0, 1), (1, 1)], 2)


def cube():
    return Polytope.construct(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], 3)


def segment2():
    return Polytope.construct([(0, 0), (1, 0)], 2)


def point2():
    return Polytope.construct([(F(1, 3), F(1, 2))], 2)


def indicator_interval():
    return PLConvexFunction.constant(Polytope.construct([(-1,), (1,)], 1), 0)


def vee_interval():
    dom = Polytope.construct([(-1,), (1,)], 1)
    return PLConvexFunction.from_pieces(dom, [((-1,), 0), ((1,), 0)])


def indicator_origin():
    return PLConvexFunction.constant(Polytope.construct([(0,)], 1), 0)


def random_polytope(rng, d, npts=12):
    while True:
        pts = [tuple(F(int(round(x * 8)), 8) for x in rng.normal(size=d))
               for _ in range(npts)]
        P = Polytope.construct(pts, d)
        if P.intrinsic_dim == d:
            return P


def scale(P, t):
    return Polytope.construct(
        [tuple(F(t) * x for x in v) for v in P.vertices], P.ambient_dim)


class TestDensityConstants:
    def test_table(self):
        assert density_constant(2, 0) == F(1, 2)
        assert density_constant(2, 1) == F(1, 2)
        assert density_constant(3, 0) == F(1, 3)
        assert density_constant(3, 1) == F(1, 6)
        assert density_constant(3, 2) == F(1, 3)


class TestSupportTotals:
    def test_square(self):
        assert support_measure(square(), 0).total == pytest.approx(math.pi, abs=1e-12)
        assert support_measure(square(), 1).total == pytest.approx(2.0, abs=1e-12)

    def test_cube(self):
        assert support_measure(cube(), 0).total == pytest.approx(4 * math.pi / 3, abs=1e-9)
        assert support_measure(cube(), 1).total == pytest.approx(math.pi, abs=1e-12)
        assert support_measure(cube(), 2).total == pytest.approx(2.0, abs=1e-12)

    def test_segment(self):
        assert support_measure(segment2(), 0).total == pytest.approx(math.pi, abs=1e-12)
        assert support_measure(segment2(), 1).total == pytest.approx(1.0, abs=1e-12)

    def test_point(self):
        assert support_measure(point2(), 0).total == pytest.approx(math.pi, abs=1e-12)
        assert support_measure(point2(), 1).total == 0.0

    def test_parallel_volume_square(self):
        for t in (0.25, 0.5, 1.0, 2.0):
            want = 1 + 4 * t + math.pi * t * t - 1
            assert parallel_volume(square(), t) == pytest.approx(want, rel=1e-12)

    def test_parallel_volume_cube(self):
        t = 0.75
        want = 6 * t + 3 * math.pi * t ** 2 + 4 * math.pi / 3 * t ** 3
        assert parallel_volume(cube(), t) == pytest.approx(want, rel=1e-9)

    def test_normal_region_inside_normal_cone(self):
        for P, i in [(square(), 0), (cube(), 1), (segment2(), 0)]:
            fm = support_measure(P, i)
            for piece in fm.pieces:
                for r in piece.normal_region.rays:
                    u = np.array([float(x) for x in r])
                    u /= np.linalg.norm(u)
                    assert piece.normal_region.contains_direction(u)


class TestLocalization:
    def test_square_bottom_edge(self):
        def f(x, nu):
            return 1.0 if nu[1] < -0.9 else 0.0

        got = integrate_support_measure(square(), 1, f)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_facet_formula_matches_atoms(self):
        for P in (square(), cube()):
            d = P.ambient_dim
            sam = surface_area_measure(P)

            def g(x, nu):
                return float(nu[0] ** 2 + 0.3 * nu[-1])

            got = integrate_support_measure(P, d - 1, g)
            want = sam.pair(lambda n: n[0] ** 2 + 0.3 * n[-1]) / d
            assert got == pytest.approx(want, abs=1e-9)

    def test_vertex_order_is_angular_measure(self):
        tri = Polytope.construct([(0, 0), (1, 0), (0, 1)], 2)
        # interior angles: pi/2, pi/4, pi/4 -> exterior 2pi total
        assert support_measure(tri, 0).total == pytest.approx(math.pi, abs=1e-12)


class TestSurfaceAreaMeasure:
    def test_square_atoms(self):
        sam = surface_area_measure(square())
        assert sam.total() == pytest.approx(4.0)
        assert sam.closedness_residual() < 1e-12

    def test_lower_dimensional_body(self):
        sam = surface_area_measure(segment2())
        assert len(sam.atoms) == 2
        assert sam.total() == pytest.approx(2.0)
        assert sam.closedness_residual() < 1e-12
        assert surface_area_measure(point2()).atoms == ()

    def test_closedness_random(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            for _ in range(5):
                P = random_polytope(rng, d)
                sam = surface_area_measure(P)
                assert sam.closedness_residual() < 1e-9

    def test_faces_longer_than_1e154(self):
        """A squared length, or a normal's squared length, beyond the
        float range takes the overflow-safe route instead of raising:
        the root of an integer square and a normal divided by its largest
        entry first."""
        seg = Polytope.construct([(0.0, 0.0), (1e300, 0.0)])
        assert seg.relative_volume_float == 1e300
        tall = Polytope.construct([(0, 0), (1, 1e300)])
        sam = surface_area_measure(tall)
        assert list(sam.weights) == [tall.relative_volume_float] * 2 == [1e300] * 2
        assert np.array_equal(sam.normals, [[-1.0, 1e-300], [1.0, -1e-300]])
        tri = surface_area_measure(Polytope.construct([(0, 0), (1, 0), (0, 1e300)]))
        assert sorted(tri.weights) == [1.0, 1e300, 1e300]
        assert sam.closedness_residual() == 0.0 and tri.closedness_residual() < 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(11)
        P = random_polytope(rng, 3)
        for i in (1, 2):
            a = support_measure(scale(P, 2), i).total
            b = support_measure(P, i).total
            assert a == pytest.approx(2 ** i * b, rel=1e-9)

    def test_json_round_trip(self):
        sam = surface_area_measure(cube())
        back = SphereMeasure.from_dict(sam.to_dict())
        assert back.dim == 3
        assert back.total() == pytest.approx(sam.total())


class TestParallelVolumeMC:
    def test_square_full(self):
        est, se = local_parallel_volume_mc(square(), None, 1.0, 200_000, 42)
        assert abs(est - (4 + math.pi)) < 3 * se + 1e-12

    def test_point(self):
        est, se = local_parallel_volume_mc(point2(), None, 1.0, 120_000, 7)
        assert abs(est - math.pi) < 3 * se + 1e-12

    def test_square_bottom_normal_region(self):
        def region(x, u):
            return u[1] <= -1 + 1e-9

        est, se = local_parallel_volume_mc(square(), region, 1.0, 200_000, 3)
        assert abs(est - 1.0) < 3 * se + 1e-12

    def test_steiner_vs_mc_random(self):
        rng = np.random.default_rng(20)
        for d in (2, 3):
            P = random_polytope(rng, d)
            for t in (0.25, 0.5, 1.0, 2.0):
                want = parallel_volume(P, t)
                est, se = local_parallel_volume_mc(P, None, t, 60_000, 1000 + d)
                assert abs(est - want) < 3.5 * se + 1e-12

    def test_reproducible(self):
        a = local_parallel_volume_mc(square(), None, 0.5, 10_000, 9)
        b = local_parallel_volume_mc(square(), None, 0.5, 10_000, 9)
        assert a == b

    @pytest.mark.parametrize("oracle", ["body", "function"])
    @pytest.mark.parametrize("t, samples, what", [
        (math.nan, 100, "t"), (math.inf, 100, "t"), (0.5, 10.5, "samples")])
    def test_rejects_a_bad_time_or_sample_count(self, oracle, t, samples, what):
        with pytest.raises(ValueError, match=f"^{what} must"):
            if oracle == "body":
                local_parallel_volume_mc(square(), None, t, samples, 0)
            else:
                p_t_volume_mc(vee_interval(), None, t, samples, 0)


# the Steiner times of the numerics benchmark and of criterion 04, and two
# far from them
SCREEN_T = (0.25, 0.5, 1.0, 2.0, 1e-6, 50.0)


def oracle_hits(dist, t):
    return (dist > MC_TOL) & (dist <= t)


def assert_screen_keeps_every_hit(P, X, t):
    """nearest_points with the oracle's reach against it without reach:
    the same hit mask, and the same bits on every row not screened."""
    dist, proj = nearest_points(P, X)
    got_dist, got_proj = nearest_points(P, X, reach=_mc_reach(P, t))
    assert np.array_equal(oracle_hits(got_dist, t), oracle_hits(dist, t))
    kept = np.isfinite(got_dist)
    screened = ~kept
    assert np.all(np.isnan(got_proj[screened])) and np.all(np.isinf(got_dist[screened]))
    assert got_dist[kept].tobytes() == dist[kept].tobytes()
    assert got_proj[kept].tobytes() == proj[kept].tobytes()
    return np.count_nonzero(screened)


class TestReachScreen:
    def test_screen_keeps_every_hit_on_case_bodies(self):
        # the numerics workload's two bodies are bodies 3 of these families
        rng = np.random.default_rng(23)
        screened = 0
        for d in (2, 3):
            for i in range(10):
                P = CaseGenerator(7, d).body(i)
                v = P.float_vertices
                for t in SCREEN_T:
                    # the oracle's box, and a band of rows just outside the
                    # facets at slack about t
                    X = rng.uniform(v.min(0) - t, v.max(0) + t, size=(3000, d))
                    A, b = P.float_halfspaces
                    unit = A / np.linalg.norm(A, axis=1)[:, None]
                    mids = np.array([v[list(idx)].mean(axis=0) for _, idx in P._facets])
                    band = mids + t * unit * (1.0 + rng.uniform(-1e-12, 1e-12, (len(A), 1)))
                    screened += assert_screen_keeps_every_hit(P, np.vstack([X, band]), t)
        assert screened > 0

    @pytest.mark.parametrize("t", SCREEN_T)
    def test_rows_with_slack_exactly_t_are_kept(self, t):
        # slack exactly t off the facets through the origin of the unit
        # square and cube: inside each facet, past its corner, along an edge
        for P in (square(), cube()):
            d = P.ambient_dim
            rows = []
            for k in range(d):
                e = np.zeros(d)
                e[k] = t
                rows += [np.full(d, 0.5) * (e == 0) - e, -e, -e + (e == 0) * 1.0]
            X = np.array(rows)
            A, b = P.float_halfspaces
            assert np.all(np.max((X @ A.T - b) / np.linalg.norm(A, axis=1), axis=1) == t)
            assert np.all(oracle_hits(nearest_points(P, X)[0], t))
            assert assert_screen_keeps_every_hit(P, X, t) == 0

    def test_reach_leaves_other_bodies_alone(self):
        X = np.random.default_rng(2).uniform(-3.0, 3.0, size=(200, 3))
        for P in (Polytope.construct([(0, 0, 0), (1, 0, 0), (0, 1, 0)], 3),
                  Polytope.construct([(0, 0, 0), (1, 2, 3)], 3),
                  Polytope.construct([(F(-1),), (F(2),)], 1)):
            pts = X[:, :P.ambient_dim]
            dist, proj = nearest_points(P, pts)
            got = nearest_points(P, pts, reach=0.0)
            assert got[0].tobytes() == dist.tobytes()
            assert got[1].tobytes() == proj.tobytes()


def search_nearest_points(P, points):
    """nearest_points before the slack screen: every point tries every
    vertex, edge and facet plane, kept as the reference."""
    if P.is_empty:
        raise GeometryError("projection onto empty body")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    verts = P.float_vertices
    dv = np.linalg.norm(pts[:, None, :] - verts[None, :, :], axis=2)
    arg = np.argmin(dv, axis=1)
    best = dv[np.arange(len(pts)), arg]
    proj = verts[arg].copy()

    def consider(cand_pts, cand_dist):
        nonlocal best, proj
        better = cand_dist < best
        best = np.where(better, cand_dist, best)
        proj[better] = cand_pts[better]

    for i, j in P.edge_list:
        a, b = verts[i], verts[j]
        ab = b - a
        tt = np.clip(((pts - a) @ ab) / float(ab @ ab), 0.0, 1.0)
        cand = a + tt[:, None] * ab
        consider(cand, np.linalg.norm(pts - cand, axis=1))
    A, bvec = P.float_halfspaces
    slack = np.maximum(1.0, np.abs(bvec))
    full = P.intrinsic_dim == P.ambient_dim >= 2
    if full:
        norms = np.linalg.norm(A, axis=1)
        planes = [(A[r] / norms[r], bvec[r] / norms[r]) for r in range(A.shape[0])]
    elif P.intrinsic_dim == 2 and P.ambient_dim == 3:
        m, c = P.equality_planes[0]
        n = np.array([float(x) for x in m])
        nn = np.linalg.norm(n)
        planes = [(n / nn, float(c) / nn)]
    else:
        planes = []
    for n, off in planes:
        dist = pts @ n - off
        cand = pts - dist[:, None] * n
        ok = np.all(cand @ A.T <= bvec + FACET_TOL * slack, axis=1)
        consider(np.where(ok[:, None], cand, np.inf), np.where(ok, np.abs(dist), np.inf))
    if full:
        inside = np.all(pts @ A.T <= bvec + INSIDE_TOL * slack, axis=1)
        best = np.where(inside, 0.0, best)
        proj[inside] = pts[inside]
    return best, proj


T_GRID = (0.25, 0.5, 1.0, 2.0)


def assert_nearest_matches_search(P, X):
    dist, proj = nearest_points(P, X)
    ref, ref_proj = search_nearest_points(P, X)
    assert dist.shape == ref.shape and proj.shape == ref_proj.shape
    assert np.max(np.abs(dist - ref), initial=0.0) <= 1e-12
    assert np.max(np.abs(proj - ref_proj), initial=0.0) <= 1e-9
    for t in T_GRID:
        # the Monte Carlo oracle's hit mask
        assert np.array_equal((dist > 1e-12) & (dist <= t), (ref > 1e-12) & (ref <= t))


@st.composite
def bodies_and_probes(draw):
    """Hulls of points on a random affine subspace of rank 0 to d (flat
    and full bodies), with a seed and a margin for uniform probes."""
    d = draw(st.sampled_from((2, 3)))
    rank = draw(st.integers(0, d))
    coord = st.integers(-4, 4).map(F) | st.fractions(-4, 4, max_denominator=7)
    base = draw(st.tuples(*[coord] * d))
    dirs = draw(st.lists(st.tuples(*[coord] * d), min_size=rank, max_size=rank))
    coefs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rank), min_size=1, max_size=10))
    pts = [tuple(base[k] + sum(c * v[k] for c, v in zip(cs, dirs)) for k in range(d))
           for cs in coefs]
    return (Polytope.construct(pts, d), draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.sampled_from((0.25, 1.0, 4.0))))


@st.composite
def polygons_and_probes(draw):
    """Full dimensional polygons: hulls of 3 to 10 rational points of
    affine rank 2, with a seed for uniform probes."""
    coord = st.integers(-6, 6).map(F) | st.fractions(-6, 6, max_denominator=9)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=10))
    P = Polytope.construct(pts, 2)
    assume(P.intrinsic_dim == 2)
    return P, draw(st.integers(0, 2 ** 32 - 1))


def max_slack_rows(P, X):
    """Which rows of X lie outside the full dimensional body P, and the
    halfspace row with the largest normalized slack for each."""
    A, b = P.float_halfspaces
    vals = X @ A.T
    outside = ~np.all(vals <= b + INSIDE_TOL * np.maximum(1.0, np.abs(b)), axis=1)
    return outside, np.argmax((vals - b) / np.linalg.norm(A, axis=1), axis=1)


class TestNearestPoints:
    def test_square_cases(self):
        P = square()
        X = np.array([[0.5, 0.5], [2.0, 0.5], [2.0, 2.0], [0.5, -3.0]])
        dist, proj = nearest_points(P, X)
        assert dist == pytest.approx([0.0, 1.0, math.sqrt(2), 3.0])
        assert proj[1] == pytest.approx([1.0, 0.5])
        assert proj[2] == pytest.approx([1.0, 1.0])

    def test_interval_is_a_clip(self):
        P = Polytope.construct([(F(-1),), (F(2),)], 1)
        X = np.array([[0.3], [0.1], [1.7], [-1.5], [2.25]])
        dist, proj = nearest_points(P, X)
        assert np.array_equal(dist, [0.0, 0.0, 0.0, 0.5, 0.25])
        assert np.array_equal(proj, [[0.3], [0.1], [1.7], [-1.0], [2.0]])

    def test_flat_in_3d(self):
        P = Polytope.construct([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)
        X = np.array([[0.25, 0.25, 2.0], [-1.0, 0.0, 0.0]])
        dist, _ = nearest_points(P, X)
        assert dist == pytest.approx([2.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(polygons_and_probes())
    def test_plane_projection_on_max_slack_edge(self, case):
        P, seed = case
        rng = np.random.default_rng(seed)
        v = P.float_vertices
        X = rng.uniform(v.min(0) - 3.0, v.max(0) + 3.0, size=(500, 2))
        outside, top = max_slack_rows(P, X)
        proj = nearest_points(P, X)[1][outside]
        # each edge's two vertices, by exact incidence
        ends = np.array([[[float(y) for y in w] for w in P.vertices if dot(m, w) == c]
                         for m, c in P.halfspaces])[top[outside]]
        a, ab = ends[:, 0], ends[:, 1] - ends[:, 0]
        t = np.clip(np.sum((proj - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
        gap = np.linalg.norm(proj - (a + t[:, None] * ab), axis=1)
        assert np.max(gap, initial=0.0) <= 1e-9

    def test_acute_vertex_takes_far_points_of_its_cone(self):
        # the normal cone of the origin is x <= -|y| / 100
        P = Polytope.construct([(0, 0), (100, -1), (100, 1)], 2)
        rng = np.random.default_rng(5)
        xs = -rng.uniform(1.0, 1e4, size=200)
        X = np.column_stack([xs, xs * rng.uniform(-100.0, 100.0, size=200)])
        dist, proj = nearest_points(P, X)
        assert np.max(np.abs(proj)) <= 1e-12
        assert np.allclose(dist, np.linalg.norm(X, axis=1), rtol=1e-15, atol=0.0)

    def test_roof_projects_onto_the_ridge_off_the_max_slack_facet(self):
        # a roof with its ridge from (0,1,1) to (3,1,1); above the ridge the
        # max-slack facet is the hip x + 2z <= 5, which misses the projection
        h = F(1, 2)
        P = Polytope.construct([(0, 0, 0), (4, 0, 0), (0, 2, 0), (4, 2, 0),
                                (0, 1, 1), (3, 1, 1), (4, h, h), (4, 3 * h, h)], 3)
        X = np.array([[1.5, 1.0, 50.0]])
        dist, proj = nearest_points(P, X)
        assert dist[0] == pytest.approx(49.0, abs=1e-12)
        assert np.allclose(proj[0], [1.5, 1.0, 1.0], rtol=0.0, atol=1e-12)
        outside, top = max_slack_rows(P, X)
        m, c = P.halfspaces[top[0]]
        assert outside[0] and m == (1, 0, 2) and c == 5
        assert float(c) - np.dot(m, proj[0]) > 1.0

    @settings(max_examples=150, deadline=None)
    @given(bodies_and_probes())
    def test_screen_matches_search(self, case):
        P, seed, margin = case
        d = P.ambient_dim
        rng = np.random.default_rng(seed)
        v = P.float_vertices
        X = np.vstack([rng.uniform(v.min(0) - margin, v.max(0) + margin, size=(400, d)),
                       v, 0.5 * (v + v[::-1])])
        # small blocks, so that several run and the last is short
        with mock.patch.object(bodies, "NEAREST_BLOCK", 96):
            assert_nearest_matches_search(P, X)
        empty = nearest_points(P, np.empty((0, d)))
        assert empty[0].shape == (0,) and empty[1].shape == (0, d)

    def test_screen_matches_search_on_case_bodies(self):
        # the bodies and cells of the Steiner acceptance cases, sampled as
        # their Monte Carlo oracles sample them
        rng = np.random.default_rng(11)
        shapes = [CaseGenerator(7, d).body(i) for d in (2, 3) for i in range(10)]
        shapes += [region for i in range(5)
                   for _, _, region in CaseGenerator(7, 2).pl_function(i).cells]
        for P in shapes:
            v = P.float_vertices
            for t in (0.25, 2.0):
                X = rng.uniform(v.min(0) - 2 * t, v.max(0) + 2 * t,
                                size=(6000, P.ambient_dim))
                assert_nearest_matches_search(P, X)


def construct_faces_with_cones(P, i):
    """faces_with_cones as written before it read the facet table: each
    face rebuilt by construct from its vertices, its generators found by
    exact dot products."""
    d, k = P.ambient_dim, P.intrinsic_dim
    if i == k:
        return [] if k == d else [(P, _cone_generators(P, P.vertices))]
    if i == 0:
        faces = [[v] for v in P.vertices]
    elif i == 1:
        faces = [[P.vertices[a], P.vertices[b]] for a, b in P.edge_list]
    else:
        faces = [[P.vertices[j] for j in idx] for _, idx in P._facets]
    return [(Polytope.construct(f, d), _cone_generators(P, f)) for f in faces]


class TestFacesFromTheFacetTable:
    def test_faces_match_construct(self):
        flat = [Polytope.construct([(0, 0, 0), (1, 2, 3), (2, 1, F(1, 3))], 3),
                Polytope.construct([(0, 0, 0), (1, 2, 3)], 3),
                Polytope.construct([(0.5, 0.25), (1.5, 0.75)], 2),
                Polytope.construct([(F(-1),), (F(2),)], 1)]
        shapes = [CaseGenerator(7, d).body(i) for d in (3, 2) for i in range(10)]
        shapes += [Polytope.construct([(0.5, 0.25), (1.5, 0.75), (0.1, 2.0)], 2)] + flat
        checked = 0
        for P in shapes:
            for i in range(P.intrinsic_dim + 1):
                got = faces_with_cones(P, i)
                want = construct_faces_with_cones(P, i)
                assert len(got) == len(want)
                for (face, gens), (ref, ref_gens) in zip(got, want):
                    assert gens == ref_gens
                    assert face.vertices == ref.vertices
                    assert face.halfspaces == ref.halfspaces
                    assert face.intrinsic_dim == ref.intrinsic_dim
                    if face.intrinsic_dim == 2:
                        assert face.boundary_cycle == ref.boundary_cycle
                    assert face.float_vertices.shape == ref.float_vertices.shape
                    assert face.float_vertices.tobytes() == ref.float_vertices.tobytes()
                    checked += 1
        assert checked > 400


def uncached_support_measure(P, i):
    """support_measure as built before it was kept on the body."""
    d = P.ambient_dim
    c = density_constant(d, i)
    pieces = [FacePiece(face, SphericalPatch.from_generators(gens, d), float(c), c)
              for face, gens in faces_with_cones(P, i)]
    return FaceMeasure(i, d, tuple(pieces))


class TestTotalsOncePerBody:
    def test_support_measure_kept_on_the_body(self):
        for d in (2, 3):
            P = CaseGenerator(7, d).body(3)
            for i in range(d):
                m = support_measure(P, i)
                assert support_measure(P, i) is m
                # a rebuild from the vertices starts afresh
                Q = Polytope.construct(P.vertices, d)
                assert support_measure(Q, i) is not m
                assert support_measure(Q, i).total == m.total

    def test_parallel_volume_keeps_its_bits(self):
        for d in (2, 3):
            for k in range(4):
                P = CaseGenerator(7, d).body(k)
                for t in T_GRID + (3.0,):
                    want = float(sum(t ** (d - i) * comb(d, i)
                                     * uncached_support_measure(P, i).total
                                     for i in range(d)))
                    assert parallel_volume(P, t) == want

    def test_hessian_total_kept_per_order_and_bound(self):
        u = CaseGenerator(7, 2).pl_function(1)
        for R in (F(1), F(3), F(1, 2)):
            for i in range(3):
                want = hessian_measure(u, i, R).total_exact
                got = hessian_total(u, i, R)
                assert got == want
                assert hessian_total(u, i, R) is got
        assert hessian_total(u, 0, F(3)) != hessian_total(u, 0, F(1))
        v = PLConvexFunction.from_dict(u.to_dict())
        assert hessian_steiner(v, F(1, 2), F(3)) == hessian_steiner(u, F(1, 2), F(3))


class TestHessianTotals:
    def test_indicator_interval(self):
        u = indicator_interval()
        assert hessian_total(u, 1) == 2
        assert hessian_total(u, 0) == 2
        assert hessian_steiner(u, 1) == 4

    def test_vee(self):
        u = vee_interval()
        assert hessian_total(u, 1) == 2
        assert hessian_total(u, 0) == 2
        assert hessian_steiner(u, 1) == 4

    def test_indicator_origin(self):
        u = indicator_origin()
        assert hessian_total(u, 1) == 0
        assert hessian_total(u, 0) == 2
        assert hessian_steiner(u, 1) == 2

    def test_box_dependence(self):
        u = indicator_interval()
        assert hessian_total(u, 0, F(3)) == 6
        assert hessian_steiner(u, 2, F(3)) == 2 + 2 * 6

    def test_positive_gradient_slab(self):
        u = indicator_interval()
        hm = hessian_measure(u, 0)

        def f(x, y):
            return 1.0 if y[0] > 0 else 0.0

        assert hm.integrate(f) == pytest.approx(1.0, abs=1e-9)

    def test_two_dim_pyramid(self):
        # u = max(|x1|, |x2|) on [-1,1]^2: 4 cells, gradients (+-1, 0), (0, +-1)
        dom = Polytope.construct([(-1, -1), (1, -1), (-1, 1), (1, 1)], 2)
        u = PLConvexFunction.from_pieces(
            dom, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)])
        # order 2: domain area; order 0: gradient box fully covered once
        assert hessian_total(u, 2) == 4
        assert hessian_total(u, 0) == 4
        # flowout at t=1 in box R=1 is the 4x4 square
        assert hessian_steiner(u, 1) == 16

    def test_negative_gradient_bound(self):
        with pytest.raises(ValueError, match="nonnegative bound"):
            hessian_measure(indicator_interval(), 0, F(-1))

    def test_gradient_regions_match_vertex_enumeration(self):
        # the region clipped from the box equals the vertex enumeration of
        # its rows: hull facets and ray perpendiculars that no ray leaves,
        # and the box
        gen = CaseGenerator(7, 2)
        for k in range(4):
            u = gen.pl_function(k)
            for R in (F(1), F(1, 2), F(3)):
                box = [(m, R) for m in ((1, 0), (-1, 0), (0, 1), (0, -1))]
                for i in range(3):
                    for face in complex_faces(u, i):
                        region, points, rays = _gradient_region(u, face, R)
                        hull = Polytope.construct(points, 2)
                        cands = [m for m, _ in hull.halfspaces]
                        cands += [(s * r[1], -s * r[0]) for r in rays for s in (1, -1)]
                        rows = [(m, max(dot(m, p) for p in points)) for m in cands
                                if any(m) and all(dot(m, r) <= 0 for r in rays)]
                        ref = Polytope.from_halfspaces(rows + box, 2)
                        assert region.vertices == ref.vertices
                        assert region.halfspaces == ref.halfspaces

    def test_two_dim_simple_split(self):
        dom = Polytope.construct([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
        u = PLConvexFunction.from_pieces(dom, [((0, 0), 0), ((1, 1), -1)])
        assert hessian_total(u, 2) == 1
        est, se = p_t_volume_mc(u, None, 1.0, 150_000, 17)
        want = float(hessian_steiner(u, 1))
        assert abs(est - want) < 3.5 * se + 1e-12


class TestFlowoutMC:
    @pytest.mark.parametrize("maker,want", [
        (indicator_interval, 4.0),
        (vee_interval, 4.0),
        (indicator_origin, 2.0),
    ])
    def test_interval_examples(self, maker, want):
        est, se = p_t_volume_mc(maker(), None, 1.0, 150_000, 23)
        assert abs(est - want) < 3.5 * se + 1e-12

    def test_steiner_matches_mc_across_t(self):
        u = vee_interval()
        for t in (0.25, 0.5, 2.0):
            want = float(hessian_steiner(u, F(t).limit_denominator(64)))
            est, se = p_t_volume_mc(u, None, t, 100_000, 31)
            assert abs(est - want) < 3.5 * se + 1e-12

    def test_vee_splits_evenly_between_the_gradient_signs(self):
        # |x| on [-1, 1] is symmetric under x -> -x, which flips the
        # gradient, so the region y > 0 holds half of the flow-out volume
        u = vee_interval()
        want = float(hessian_steiner(u, F(1), F(1))) / 2
        est, se = p_t_volume_mc(u, lambda x, y: y[0] > 0, 1.0, 100_000, 5)
        assert abs(est - want) < 3 * se


class TestPushforwardConsistency:
    def test_order0_dim1(self):
        u = vee_interval()
        hm = hessian_measure(u, 0, F(2))

        def f(x, y):
            return math.cos(0.7 * y[0]) * (1.0 + float(x[0]) ** 2)

        direct = hm.integrate(f, tol=1e-9)
        via = hessian_integrate_via_support(u, 0, f, tol=1e-9, gradient_bound=F(2))
        assert via == pytest.approx(direct, abs=1e-6)

    def test_order0_origin(self):
        u = indicator_origin()

        def f(x, y):
            return 1.0 + 0.5 * y[0] ** 2

        direct = hessian_measure(u, 0, F(1)).integrate(f, tol=1e-9)
        via = hessian_integrate_via_support(u, 0, f, tol=1e-9, gradient_bound=F(1))
        # direct: integral of f over [-1, 1] = 2 + 1/3
        assert direct == pytest.approx(2 + 1 / 3, abs=1e-9)
        assert via == pytest.approx(direct, abs=1e-6)

    def test_dim2_orders(self):
        dom = Polytope.construct([(0, 0), (2, 0), (0, 2), (2, 2)], 2)
        u = PLConvexFunction.from_pieces(
            dom, [((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)])

        def f(x, y):
            return (1.0 + 0.3 * x[0] - 0.2 * x[1]) * math.exp(-0.5 * (y[0] + y[1]))

        for i in (0, 1):
            direct = hessian_measure(u, i, F(2)).integrate(f, tol=1e-8)
            via = hessian_integrate_via_support(u, i, f, tol=1e-8, gradient_bound=F(2))
            assert via == pytest.approx(direct, abs=5e-5), f"order {i}"

    def test_top_order_is_cell_sum(self):
        dom = Polytope.construct([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
        u = PLConvexFunction.from_pieces(dom, [((0, 0), 0), ((1, 1), -1)])

        def f(x, y):
            return x[0] + x[1] + y[0]

        got = hessian_integrate(u, 2, f)
        # each cell is a half square; gradient (1,1) on the upper cell
        # integral of x0+x1 over the square is 1, plus area 1/2 of the cell
        assert got == pytest.approx(1.0 + 0.5, abs=1e-9)


class TestFaceQuadrature:
    def test_triangle_area(self):
        tri = Polytope.construct([(0, 0, 0), (2, 0, 0), (0, 2, 0)], 3)
        assert integrate_over_face(tri, lambda x: 1.0) == pytest.approx(2.0, abs=1e-10)

    def test_segment_moment(self):
        seg = Polytope.construct([(0, 0), (1, 1)], 2)
        got = integrate_over_face(seg, lambda x: x[0])
        assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-10)

    def test_point_counts(self):
        assert integrate_over_face(point2(), lambda x: 5.0) == 5.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_support_totals_scale_correctly(seed):
    rng = np.random.default_rng(seed)
    P = random_polytope(rng, 2, npts=8)
    t0 = support_measure(P, 0).total
    assert t0 == pytest.approx(math.pi, abs=1e-9)
    Q = scale(P, 3)
    assert support_measure(Q, 1).total == pytest.approx(
        3 * support_measure(P, 1).total, rel=1e-9)


# ---------------------------------------------------------------------------
# one routine per job: the copies each shared routine replaced, kept as
# references that the routine must match float for float and face for face


def ref_integrate_over_face(face, g, tol=1e-9):
    """integrate_over_face with its own triangle fan."""
    k = face.intrinsic_dim
    if k < 0:
        return 0.0
    if k == 0:
        return g(face.float_vertices[0])
    if k == 1:
        a, b = face.float_vertices[0], face.float_vertices[-1]
        length = np.linalg.norm(b - a)
        return _adaptive_1d(lambda s: length * g(a + s * (b - a)), 0.0, 1.0, tol)
    cyc = face.boundary_cycle
    verts = face.float_vertices
    total = 0.0

    def g_rows(pts):
        return [g(x) for x in pts]

    for j in range(1, len(cyc) - 1):
        total += _adaptive_tri(
            verts[cyc[0]], verts[cyc[j]], verts[cyc[j + 1]], g_rows,
            tol / max(1, len(cyc) - 2), 6)
    return total


def ref_patch_integrate(patch, f, tol=1e-11):
    """SphericalPatch.integrate with its own spherical polygon fan."""
    if patch.kind != "polygon":
        return patch.integrate(f, tol)
    verts = patch.data
    total = 0.0
    for i in range(1, len(verts) - 1):
        total += _spherical_tri_integral(
            verts[0], verts[i], verts[i + 1], f, tol / max(1, len(verts) - 2))
    return total


def ref_face_measure_integrate(fm, f, tol=1e-7):
    total = 0.0
    piece_tol = tol / max(1, len(fm.pieces))
    for p in fm.pieces:
        patch = p.normal_region

        def outer(x, patch=patch):
            return ref_patch_integrate(patch, lambda nu: f(x, nu), piece_tol)

        total += p.density_constant * ref_integrate_over_face(p.face, outer, piece_tol)
    return total


def ref_hessian_measure_integrate(hm, f, tol=1e-8):
    out = 0.0
    piece_tol = tol / max(1, len(hm.pieces))
    for p in hm.pieces:
        if p.gradient_region.is_empty:
            continue
        grad = p.gradient_region

        def outer(x, grad=grad):
            return ref_integrate_over_face(grad, lambda y: f(x, y), piece_tol)

        out += float(p.density) * ref_integrate_over_face(p.face, outer, piece_tol)
    return out


def ref_hessian_top_order(u, f, tol=1e-8):
    out = 0.0
    cells = u.cells
    cell_tol = tol / max(1, len(cells))
    for g, _, region in cells:
        gf = np.array([float(x) for x in g])
        out += ref_integrate_over_face(region, lambda x, gf=gf: f(x, gf), cell_tol)
    return out


def ref_integrate_via_support(u, i, f, tol=1e-8, gradient_bound=None):
    n = u.n
    fm = support_measure(u.body_of(), i)
    bound = F(gradient_bound) if gradient_bound is not None else None
    total = 0.0
    kept = []
    for piece in fm.pieces:
        patch = _lower_clip(piece.normal_region, n, bound)
        if patch is not None:
            kept.append((piece, patch))
    piece_tol = tol / max(1, len(kept))
    for piece, patch in kept:
        face = piece.face
        u_dir = None
        if i == 1 and n == 2:
            w = sub(face.vertices[-1], face.vertices[0])
            sp = np.array([float(w[0]), float(w[1])])
            nsp = np.linalg.norm(sp)
            if nsp < 1e-15:
                continue
            u_dir = sp / nsp

        def integrand(X, N, u_dir=u_dir):
            gt = -N[-1]
            y = N[:-1] / gt
            y2 = float(y @ y)
            yu2 = 0.0 if u_dir is None else float(y @ u_dir) ** 2
            corr = (n + 1) * (1.0 + y2) ** (0.5 * (n - i + 1)) / (1.0 + yu2)
            return f(X[:-1], y) * corr

        def outer(X, patch=patch, integrand=integrand):
            return ref_patch_integrate(patch, lambda N: integrand(X, N), piece_tol)

        total += float(piece.density) * ref_integrate_over_face(face, outer, piece_tol)
    return total


def ref_local_parallel_volume_mc(P, region, t, samples, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    verts = P.float_vertices
    lo = verts.min(axis=0) - t
    hi = verts.max(axis=0) + t
    vol_box = float(np.prod(hi - lo))
    X = rng.uniform(lo, hi, size=(samples, P.ambient_dim))
    dist, proj = nearest_points(P, X)
    hit = (dist > MC_TOL) & (dist <= t)
    if region is not None:
        for k in np.nonzero(hit)[0]:
            u = (X[k] - proj[k]) / dist[k]
            if not region(proj[k], u):
                hit[k] = False
    p = float(np.mean(hit))
    return vol_box * p, vol_box * math.sqrt(max(p * (1.0 - p), 0.0) / samples)


def ref_p_t_volume_mc(u, region, t, samples, seed, gradient_bound=1.0):
    n = u.n
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dverts = u.domain.float_vertices
    lo = dverts.min(axis=0) - t * gradient_bound
    hi = dverts.max(axis=0) + t * gradient_bound
    vol_box = float(np.prod(hi - lo))
    Z = rng.uniform(lo, hi, size=(samples, n))
    best_val = np.full(samples, np.inf)
    best_x = np.zeros((samples, n))
    for g, b, region_poly in u.cells:
        gf = np.array([float(x) for x in g])
        _, xs = nearest_points(region_poly, Z - t * gf)
        vals = xs @ gf + float(b) + np.sum((Z - xs) ** 2, axis=1) / (2.0 * t)
        better = vals < best_val
        best_val = np.where(better, vals, best_val)
        best_x[better] = xs[better]
    Y = (Z - best_x) / t
    hit = np.all(np.abs(Y) <= gradient_bound + MC_TOL, axis=1)
    if region is not None:
        for k in np.nonzero(hit)[0]:
            if not region(best_x[k], Y[k]):
                hit[k] = False
    p = float(np.mean(hit))
    return vol_box * p, vol_box * math.sqrt(max(p * (1.0 - p), 0.0) / samples)


def ref_on_segment(v, a, b):
    ab, av = sub(b, a), sub(v, a)
    for p, q in itertools.combinations(range(len(a)), 2):
        if ab[p] * av[q] != ab[q] * av[p]:
            return False
    t = next((av[k] / ab[k] for k in range(len(a)) if ab[k] != 0), None)
    if t is None:
        return all(x == 0 for x in av)
    return 0 <= t <= 1


def ref_refined_edges(u):
    """The edges of an n = 2 complex with every cell edge split at the
    complex vertices on it, as endpoint pairs."""
    segs = set()
    for _, _, region in u.cells:
        vs = region.vertices
        for a, b in region.edge_list:
            segs.add(tuple(sorted((vs[a], vs[b]))))
    refined = set()
    for a, b in segs:
        on = sorted(v for v in u.complex_vertices if ref_on_segment(v, a, b))
        refined |= {(p, q) for p, q in zip(on, on[1:]) if p != q}
    return refined


def moment(x, v):
    # the peak at v[0] = 0.1 makes the quadrature's depth depend on tol
    return (1.0 + 0.3 * float(x[0]) - 0.1 * float(x[-1])) * math.exp(
        0.4 * v[-1] - 0.2 * v[0] - 0.1 * float(v @ v)) / (1.0 + 10.0 * (v[0] - 0.1) ** 2)


def recording(accept):
    """A region that accepts by the predicate and records each pair it
    was asked about."""
    calls = []

    def region(x, v):
        calls.append((x.copy(), v.copy()))
        return accept(x, v)

    return region, calls


def same_calls(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y) and np.array_equal(v, w) for (x, v), (y, w) in zip(a, b))


class TestOneRoutinePerJob:
    def test_support_measure_integral(self):
        for d in (2, 3):
            for k in range(2):
                P = CaseGenerator(7, d).body(k)
                for i in range(d):
                    fm = support_measure(P, i)
                    assert fm.integrate(moment, 1e-5) == \
                        ref_face_measure_integrate(fm, moment, 1e-5)

    def test_face_and_patch_fans(self):
        P = CaseGenerator(7, 3).body(0)
        g = lambda x: math.cos(float(x[0])) / (1.0 + 10.0 * (float(x[1]) - 0.1) ** 2)
        for face, gens in faces_with_cones(P, 2) + faces_with_cones(P, 0):
            assert integrate_over_face(face, g, 1e-6) == ref_integrate_over_face(face, g, 1e-6)
            patch = SphericalPatch.from_generators(gens, 3)
            assert patch.integrate(g, 1e-6) == ref_patch_integrate(patch, g, 1e-6)

    def test_hessian_measure_integral(self):
        fns = [vee_interval()] + [CaseGenerator(7, n).pl_function(k)
                                  for n in (1, 2) for k in range(3)]
        empty = 0
        for u in fns:
            for R in (F(1, 2), F(2)):
                for i in range(u.n + 1):
                    hm = hessian_measure(u, i, R)
                    empty += sum(p.gradient_region.is_empty for p in hm.pieces)
                    assert hm.integrate(moment, 1e-6) == \
                        ref_hessian_measure_integrate(hm, moment, 1e-6)
        assert empty > 0

    def test_hessian_integral_top_order(self):
        for n in (1, 2):
            for k in range(3):
                u = CaseGenerator(7, n).pl_function(k)
                assert hessian_integrate(u, n, moment, 1e-6) == \
                    ref_hessian_top_order(u, moment, 1e-6)

    def test_hessian_integral_via_support(self):
        fns = [vee_interval(), indicator_origin(), CaseGenerator(7, 1).pl_function(0),
               CaseGenerator(7, 2).pl_function(0)]
        for u in fns:
            for i in range(u.n):
                for R in (None, F(2)):
                    got = hessian_integrate_via_support(u, i, moment, 1e-4, R)
                    assert got == ref_integrate_via_support(u, i, moment, 1e-4, R)

    def test_parallel_volume_oracle(self):
        for d in (2, 3):
            P = CaseGenerator(7, d).body(1)
            region, calls = recording(lambda x, v: v[0] < 0.5)
            ref_region, ref_calls = recording(lambda x, v: v[0] < 0.5)
            got = local_parallel_volume_mc(P, region, 0.5, 4000, 11)
            assert got == ref_local_parallel_volume_mc(P, ref_region, 0.5, 4000, 11)
            assert same_calls(calls, ref_calls)
            assert got[0] < local_parallel_volume_mc(P, None, 0.5, 4000, 11)[0]

    def test_flowout_oracle(self):
        for n in (1, 2):
            u = CaseGenerator(7, n).pl_function(1)
            for R in (1.0, 0.5):
                region, calls = recording(lambda x, y: y[0] > 0)
                ref_region, ref_calls = recording(lambda x, y: y[0] > 0)
                got = p_t_volume_mc(u, region, 0.75, 4000, 13, R)
                assert got == ref_p_t_volume_mc(u, ref_region, 0.75, 4000, 13, R)
                assert same_calls(calls, ref_calls)
                assert got[0] < p_t_volume_mc(u, None, 0.75, 4000, 13, R)[0]
                assert p_t_volume_mc(u, None, 0.75, 4000, 13, R) == \
                    ref_p_t_volume_mc(u, None, 0.75, 4000, 13, R)

    def test_cell_edges_need_no_splitting(self):
        for k in range(10):
            u = CaseGenerator(7, 2).pl_function(k)
            assert {f.vertices for f in complex_faces(u, 1)} == ref_refined_edges(u)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=0, max_value=24))
def test_cell_edges_are_complex_edges(seed, index):
    u = CaseGenerator(seed, 2).pl_function(index)
    assert {f.vertices for f in complex_faces(u, 1)} == ref_refined_edges(u)


def ref_gradient_region_interval(u, face, bound):
    """_gradient_region in one variable as it was written before the box
    clip served both dimensions: the interval spanned by the gradients,
    opened to the box along the rays and cut to it."""
    points = [g for g, _, region in u.cells if region.contains(face.centroid)]
    rays = _cone_generators(u.domain, face.vertices)
    lo = min(p[0] for p in points)
    hi = max(p[0] for p in points)
    if any(r[0] < 0 for r in rays):
        lo = -bound
    if any(r[0] > 0 for r in rays):
        hi = bound
    lo = max(lo, -bound)
    hi = min(hi, bound)
    if lo > hi:
        return Polytope.empty(1), points, rays
    return Polytope.construct([(lo,), (hi,)], 1), points, rays


@pytest.mark.parametrize("seed", [7, 1, 2])
def test_interval_gradient_regions_are_box_clips(seed):
    gen = CaseGenerator(seed, 1)
    for k in range(15):
        u = gen.pl_function(k)
        for R in (F(0), F(1, 3), F(1, 2), F(1), F(2), F(5)):
            for i in range(2):
                for face in complex_faces(u, i):
                    region, points, rays = _gradient_region(u, face, R)
                    want, want_points, want_rays = ref_gradient_region_interval(u, face, R)
                    assert region.vertices == want.vertices
                    assert region.halfspaces == want.halfspaces
                    assert (points, rays) == (want_points, want_rays)
                with mock.patch("epival.measures._gradient_region",
                                ref_gradient_region_interval):
                    want_total = hessian_measure(u, i, R).total_exact
                assert hessian_measure(u, i, R).total_exact == want_total


def test_vertical_edges_of_lifted_bodies_have_no_lower_patch():
    """A vertical edge of the lifted body has a horizontal normal cone,
    so the support route to the order-1 Hessian integral never sees one."""
    vertical = 0
    gen = CaseGenerator(7, 2)
    for k in range(10):
        for piece in support_measure(gen.pl_function(k).body_of(), 1).pieces:
            w = sub(piece.face.vertices[-1], piece.face.vertices[0])
            if w[0] == w[1] == 0:
                vertical += 1
                for bound in (None, F(2)):
                    assert _lower_clip(piece.normal_region, 2, bound) is None
    assert vertical > 0
