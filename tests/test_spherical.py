import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epival import spherical
from epival.bodies import Polytope
from epival.cases import CaseGenerator
from epival.linalg import (
    dot,
    independent_subset,
    primitive,
    solve,
)
from epival.measures import _lower_clip, _product_integral, support_measure
from epival.spherical import (
    SphericalPatch,
    _dedupe_rays,
    _extreme_cycle_3d,
    _extreme_pair,
    _gl,
    _orthonormal_complement_f,
    _sphere_band,
    _spherical_tri_integral,
    _tangent_normals,
    _adaptive_tri,
    _tri_rule,
    _unit,
    in_cone,
)
from test_linalg import is_zero, mat_rank, orthogonal_complement, orthogonalize, reject


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
    normal·x ≤ 0}, every below/above pair kept, each direction once and
    the zero rays dropped, which leaves the cone as it is."""
    side = [linalg_dot(normal, r) for r in rays]
    out = [r for r, s in zip(rays, side) if s <= 0]
    for a, sa in zip(rays, side):
        for b, sb in zip(rays, side):
            if sa < 0 < sb:
                out.append(tuple(sb * x - sa * y for x, y in zip(a, b)))
    return list(dict.fromkeys(primitive(r) for r in out if any(r)))


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


def old_dedupe_rays(gens):
    """The primitive directions of the nonzero generators by a list
    membership test, as they were found before the dict."""
    seen = []
    for g in gens:
        if all(x == 0 for x in g):
            continue
        p = primitive(g)
        if p not in seen:
            seen.append(p)
    return seen


def old_cone_frame(gens, d):
    """The cone structure as from_generators read it before one builder
    served both dimensions: Fraction rays, and the pointed rank by a second
    elimination.  Returns (l, p, pointed, lin_basis, bounding)."""
    rays = [tuple(Fraction(x) for x in r)
            for r in old_dedupe_rays([tuple(Fraction(x) for x in g) for g in gens])]
    bounding = _tangent_normals(rays, d)[0]
    lin_basis = independent_subset(
        [r for r in rays if all(dot(m, r) == 0 for m in bounding)])
    ortho = orthogonalize(lin_basis)
    pointed = [v for v in (reject(r, ortho) for r in rays) if not is_zero(v)]
    pointed = [tuple(Fraction(x) for x in p) for p in old_dedupe_rays(pointed)]
    return (len(lin_basis), mat_rank(pointed) if pointed else 0, pointed,
            lin_basis, bounding)


def old_build_2d(l, p, pointed, lin_basis, bounding):
    """The circle's own builder: kind, measure and data."""
    if l == 2:
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        return "arc", 2 * math.pi, (e1, e2, 0.0, 2 * math.pi)
    if l == 1:
        if p == 0:
            u = _unit(lin_basis[0])
            return "points", 2.0, (u, -u)
        a = _unit(pointed[0])
        t = _unit(lin_basis[0])
        return "arc", math.pi, (t, a, 0.0, math.pi)
    if p == 1:
        return "points", 1.0, (_unit(pointed[0]),)
    ea, eb = _extreme_pair(pointed, bounding)
    ua, ub = _unit(ea), _unit(eb)
    ang = math.acos(max(-1.0, min(1.0, float(ua @ ub))))
    sgn = 1.0 if (ua[0] * ub[1] - ua[1] * ub[0]) > 0 else -1.0
    e2 = np.array([-ua[1] * sgn, ua[0] * sgn])
    return "arc", ang, (ua, e2, 0.0, ang)


def old_band_integral(gens, f, tol=1e-11):
    """integrate on a sphere, cap or lune as its own branch did it, with
    the frame each kind built for itself."""
    l, _, pointed, lin_basis, bounding = old_cone_frame(gens, 3)
    if l == 3:
        axis = np.array([0.0, 0.0, 1.0])
        b1, b2 = _orthonormal_complement_f(axis)
        return _sphere_band(f, axis, b1, b2, 0.0, math.pi, 0.0, 2 * math.pi, tol)
    if l == 2:
        axis = _unit(pointed[0])
        b1, b2 = _orthonormal_complement_f(axis)
        return _sphere_band(f, axis, b1, b2, 0.0, math.pi / 2, 0.0, 2 * math.pi, tol)
    ea, eb = _extreme_pair(pointed, bounding)
    axis = _unit(lin_basis[0])
    ua, ub = _unit(ea), _unit(eb)
    theta = math.acos(max(-1.0, min(1.0, float(ua @ ub))))
    e2 = ub - float(ub @ ua) * ua
    e2 /= np.linalg.norm(e2)
    return _sphere_band(f, axis, ua, e2, 0.0, math.pi, 0.0, theta, tol)


def smooth(u):
    return math.exp(u[0]) * math.cos(2.0 * u[-1]) + u[0] * u[-1]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=5))
def test_one_builder_matches_circle_builder(gens):
    assume(any(any(g) for g in gens))
    assert _dedupe_rays(gens) == old_dedupe_rays(gens)
    kind, measure, data = old_build_2d(*old_cone_frame(gens, 2))
    p = patch(gens, 2)
    assert (p.kind, p.measure) == (kind, measure)
    ref = SphericalPatch(kind, 2, measure, data).integrate(smooth)
    assert p.integrate(smooth) == pytest.approx(ref, rel=0, abs=1e-14)


@pytest.mark.parametrize("gens, kind", [
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)], "cap"),
    ([(1, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1), (1, -1, 2)], "cap"),
    ([(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0)], "lune"),
    ([(1, 2, 2), (-1, -2, -2), (2, 1, -2), (-3, 1, 0), (1, 1, 1)], "lune"),
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], "sphere"),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], "sphere"),
])
def test_band_matches_per_kind_branch(gens, kind):
    p = patch(gens, 3)
    assert p.kind == kind
    assert p.integrate(smooth) == old_band_integral(gens, smooth)


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
    if p.kind == "polygon":
        # a full rank pointed cone: minus the sum of its tangent normals is
        # interior, and consecutive extreme rays share a bounding plane
        w = [-sum(m[k] for m in p.bounding) for k in range(3)]
        assert all(linalg_dot(w, r) > 0 for r in rays)
        cycle = _extreme_cycle_3d(rays, list(p.bounding))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert any(linalg_dot(m, a) == 0 == linalg_dot(m, b) for m in p.bounding)


def ref_extreme_cycle_3d(pointed, bounding):
    """_extreme_cycle_3d as it was written on Fractions: the section by
    w·x = 1 read in the rational Gram-Schmidt basis of its plane."""
    w = tuple(-sum(m[k] for m in bounding) for k in range(3))
    section = []
    for g in pointed:
        t = dot(w, g)
        section.append(tuple(x / t for x in g))
    basis = orthogonal_complement([w], 3)
    coords = [(dot(basis[0], q), dot(basis[1], q)) for q in section]
    hull = Polytope.construct(coords, 2)
    lookup = {c: pointed[i] for i, c in enumerate(coords)}
    return [lookup[hull.vertices[j]] for j in hull.boundary_cycle]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-5, 5)] * 3), min_size=3, max_size=6))
def test_extreme_cycle_matches_the_rational_section(gens):
    # a pointed full rank cone: its rays, deduplicated, are its pointed
    # part, and the integer section basis gives the rational one's cycle
    assume(any(any(g) for g in gens))
    p = patch(gens, 3)
    assume(p.kind == "polygon")
    rays = _dedupe_rays(gens)
    bounding = _tangent_normals(rays, 3)[0]
    cycle = _extreme_cycle_3d(rays, bounding)
    assert cycle == ref_extreme_cycle_3d(rays, bounding)
    assert len(cycle) == len(p.data)


def flat_tri_quad(v0, v1, v2, g, n):
    """The collapsed Gauss-Legendre rule node by node with a scalar
    integrand, as it was before the nodes became arrays: the reference."""
    xs, ws = _gl(n)
    e1, e2 = v1 - v0, v2 - v0
    if len(e1) == 2:
        area2 = abs(e1[0] * e2[1] - e1[1] * e2[0])
    else:
        area2 = np.linalg.norm(np.cross(e1, e2))
    total = 0.0
    for i, s in enumerate(xs):
        for j, r in enumerate(xs):
            pt = v0 + s * ((1 - r) * (v1 - v0) + r * (v2 - v0))
            total += ws[i] * ws[j] * s * g(pt)
    return area2 * total


def scalar_spherical_tri_integral(v0, v1, v2, f, tol):
    """_spherical_tri_integral on the scalar rule and a scalar radial
    projection, with the recursion that recomputes each child's estimate."""
    nu = np.cross(v1 - v0, v2 - v0)
    nu = nu / np.linalg.norm(nu)
    if float(nu @ v0) < 0:
        nu = -nu

    def g(pt):
        r = np.linalg.norm(pt)
        return f(pt / r) * float(pt @ nu) / r ** 3

    def adaptive(v0, v1, v2, tol, depth):
        coarse = flat_tri_quad(v0, v1, v2, g, 8)
        m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
        subs = ((v0, m01, m20), (m01, v1, m12), (m20, m12, v2), (m01, m12, m20))
        fine = sum(flat_tri_quad(*t, g, 8) for t in subs)
        if abs(fine - coarse) < tol * (1.0 + abs(fine)) or depth > 7:
            return fine
        return sum(adaptive(*t, tol / 4, depth + 1) for t in subs)

    return adaptive(v0, v1, v2, tol, 0)


coordinate = st.floats(-3, 3, allow_nan=False).filter(lambda x: abs(x) > 1e-3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)), st.sampled_from((6, 8)),
       st.lists(st.lists(coordinate, min_size=9, max_size=9), min_size=1, max_size=4))
def test_batched_triangle_rule_matches_scalar_rule(d, n, raw):
    tris = np.array([np.reshape(r[:3 * d], (3, d)) for r in raw])

    def g(x):
        return math.cos(x[0] - 2.0 * x[-1]) + x[0] * x[-1] ** 2

    got = _tri_rule(tris, lambda pts: [g(x) for x in pts], n)
    want = [flat_tri_quad(*t, g, n) for t in tris]
    assert got == pytest.approx(want, rel=1e-13, abs=1e-300)
    # the terms are summed in the scalar loop's order, so the reports keep
    # their bits
    assert got == want


def test_spherical_triangles_match_scalar_rule():
    rng = np.random.default_rng(5)
    fs = (lambda u: float(u[0] ** 2), lambda u: math.exp(u[1]) * u[2])
    for _ in range(3):
        v = rng.normal(size=(3, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        for f in fs:
            assert _spherical_tri_integral(*v, f, 1e-8) == \
                scalar_spherical_tri_integral(*v, f, 1e-8)


def list_weighted_spherical_tri_integral(v0, v1, v2, f, tol):
    """_spherical_tri_integral with each node weighted by its own scalar
    expression in a list, as before the weighting ran on whole arrays: the
    reference."""
    nu = np.cross(v1 - v0, v2 - v0)
    norm = np.linalg.norm(nu)
    if norm < 1e-30:
        return 0.0
    nu = nu / norm
    if float(nu @ v0) < 0:
        nu = -nu

    def g_rows(pts):
        r = np.sqrt(np.vecdot(pts, pts))
        h = np.vecdot(pts, nu)
        return [f(u) * float(c) / s ** 3
                for u, c, s in zip(pts / r[:, None], h, r)]

    return _adaptive_tri(v0, v1, v2, g_rows, tol, 8)


def lambda_face_measure_integrate(fm, f, tol):
    """FaceMeasure.integrate with its per-node lambda, as it was before it
    handed each patch a partial."""
    return _product_integral(
        [(p.density_constant, p.face,
          lambda x, tol, patch=p.normal_region: patch.integrate(lambda nu: f(x, nu), tol))
         for p in fm.pieces], tol)


def test_array_weighting_keeps_the_list_bits():
    fs = (lambda x, nu: nu[0] ** 2,
          lambda x, nu: math.sin(nu[0]) + nu[-1] ** 3,
          lambda x, nu: x[0] * nu[1] ** 2)
    polygons = 0
    for i in range(10):
        P = CaseGenerator(7, 3).body(i)
        for order in (0, 1):
            fm = support_measure(P, order)
            polygons += sum(p.normal_region.kind == "polygon" for p in fm.pieces)
            for f in fs:
                got = fm.integrate(f, 1e-6)
                with mock.patch.object(spherical, "_spherical_tri_integral",
                                       list_weighted_spherical_tri_integral):
                    want = lambda_face_measure_integrate(fm, f, 1e-6)
                assert got == want
    assert polygons > 0
