import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from epival import bodies
from epival.bodies import (
    GeometryError,
    Polytope,
    _affine_rank,
    _canon_halfspace,
    _chart,
    _integer_image,
    _last_axis,
)
from epival.linalg import (
    cross3,
    dot,
    independent_subset,
    mat_rank,
    norm_sq,
    orthogonal_complement,
    solve,
    sub,
)
from epival.measures import nearest_points, surface_area_measure


def square(a=0, b=1):
    return Polytope.construct([(a, a), (b, a), (b, b), (a, b)])


def cube(a=0, b=1):
    return Polytope.construct([(x, y, z) for x in (a, b) for y in (a, b) for z in (a, b)])


class TestConstruct:
    def test_square_drops_interior_point(self):
        S = Polytope.construct([(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2))])
        assert len(S.vertices) == 4
        assert S.volume == 1
        assert set(S.halfspaces) == {
            ((-1, 0), F(0)), ((0, -1), F(0)), ((0, 1), F(1)), ((1, 0), F(1)),
        }

    def test_collinear_points_dropped_2d(self):
        S = Polytope.construct([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (1, 2)])
        assert len(S.vertices) == 4

    def test_cube(self):
        C = cube()
        assert len(C.vertices) == 8
        assert len(C.halfspaces) == 6
        assert C.volume == 1

    def test_simplex_volume(self):
        T = Polytope.construct([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert T.volume == F(1, 6)

    def test_octahedron(self):
        O = Polytope.construct(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        )
        assert O.volume == F(4, 3)
        assert len(O.halfspaces) == 8

    def test_flat_triangle_in_space(self):
        T = Polytope.construct([(0, 0, 0), (2, 0, 0), (0, 2, 0)], 3)
        assert T.intrinsic_dim == 2
        assert T.volume == 0
        assert len(T.equality_planes) == 1
        assert len(T.proper_halfspaces) == 3
        assert T.relative_volume_float == pytest.approx(2.0)

    def test_segment_and_point(self):
        S = Polytope.construct([(0, 0), (2, 2)], 2)
        assert S.intrinsic_dim == 1
        P = Polytope.construct([(1, 2, 3)], 3)
        assert P.intrinsic_dim == 0
        assert P.contains((1, 2, 3))
        assert not P.contains((1, 2, 4))

    def test_empty(self):
        E = Polytope.empty(2)
        assert E.is_empty and E.volume == 0 and not E.contains((0, 0))


def brute_hull(points):
    """Plane enumeration in Fraction arithmetic: the planes through three
    points with every point on one side, and the points where the tight
    planes have rank 3.  Sorted halfspaces and vertices."""
    pts = sorted(set(map(lambda p: tuple(map(F, p)), points)))
    planes = {}
    for a, b, c in itertools.combinations(pts, 3):
        n = cross3(sub(b, a), sub(c, a))
        if not any(n):
            continue
        off = dot(n, a)
        sides = [dot(n, p) - off for p in pts]
        if all(s <= 0 for s in sides):
            m, cc = _canon_halfspace(n, off)
            planes.setdefault(m, cc)
        elif all(s >= 0 for s in sides):
            m, cc = _canon_halfspace([-x for x in n], -off)
            planes.setdefault(m, cc)
    hs = sorted(planes.items())
    verts = [p for p in pts
             if mat_rank([m for m, c in hs if dot(m, p) == c]) == 3]
    return hs, verts


class TestHullAgainstBruteForce:
    """The incremental hull on integer images must agree with plane
    enumeration on degenerate inputs: grids, boundary-heavy and
    cospherical points, and floats with huge common denominators."""

    def _check(self, pts):
        if _affine_rank(sorted(set(map(lambda p: tuple(map(F, p)), pts)))) < 3:
            return
        P = Polytope.construct(pts, 3)
        hs, verts = brute_hull(pts)
        assert list(P.halfspaces) == hs
        assert list(P.vertices) == verts

    def test_grid_points(self):
        rng = random.Random(7)
        for _ in range(40):
            pts = [tuple(F(rng.randint(-2, 2)) for _ in range(3)) for _ in range(10)]
            self._check(pts)

    def test_rational_points(self):
        rng = random.Random(13)
        for _ in range(40):
            pts = [
                tuple(F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(3))
                for _ in range(11)
            ]
            self._check(pts)

    def test_coplanar_heavy(self):
        rng = random.Random(99)
        for _ in range(25):
            pts = [(F(i), F(j), F(0)) for i in range(3) for j in range(3)]
            pts += [tuple(F(rng.randint(-2, 3)) for _ in range(3)) for _ in range(4)]
            rng.shuffle(pts)
            self._check(pts)

    def test_cospherical(self):
        rng = random.Random(5)
        pts = []
        while len(pts) < 12:
            a, b, c = (rng.randint(-9, 9) for _ in range(3))
            s = a * a + b * b + c * c
            if s == 0:
                continue
            pts.append((F(18 * a, s + 81), F(18 * b, s + 81), F(9 * (s - 81), s + 81)))
        self._check(pts)

    def test_perturbed_cube_floats(self):
        # cube corners and face centers moved by a few units in the last
        # place or by 1e-9: some stay vertices, some fall inside
        rng = random.Random(17)
        corners = [(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        centers = [(0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (1.0, 0.5, 0.5)]
        for scale in (1e-15, 1e-9):
            for _ in range(10):
                pts = [tuple(F(x + rng.uniform(-scale, scale)) for x in p)
                       for p in corners + centers]
                self._check(pts)

    def test_tiny_coordinates(self):
        rng = random.Random(23)
        for _ in range(10):
            pts = [tuple(F(rng.randint(-3, 3) * 1e-300 + rng.uniform(-1, 1) * 1e-301)
                         for _ in range(3)) for _ in range(9)]
            self._check(pts + [(1e-300, 0.0, 0.0), (0.0, 1e-300, 0.0),
                               (0.0, 0.0, 1e-300), (0.0, 0.0, 0.0)])

    # decimals, floats and small fractions, as in TestPlaneHull
    xyz = st.one_of(st.floats(-1e3, 1e3),
                    st.integers(-30, 30).map(lambda k: k / 10),
                    st.fractions(-10, 10, max_denominator=12))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(xyz, xyz, xyz), min_size=1, max_size=9))
    def test_matches_plane_enumeration(self, pts):
        # three points off the first one make the hull three dimensional
        x, y, z = pts[0]
        self._check(pts + [(x + 1, y, z), (x, y + 1, z), (x, y, z + 1)])

    def test_volume_matches_scipy(self):
        from scipy.spatial import ConvexHull

        rng = random.Random(11)
        for _ in range(8):
            pts = [
                tuple(F(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(3))
                for _ in range(10)
            ]
            if _affine_rank(sorted(set(pts))) < 3:
                continue
            P = Polytope.construct(pts)
            H = ConvexHull(np.array([[float(x) for x in p] for p in pts]))
            assert abs(float(P.volume) - H.volume) < 1e-9


def subset_columns(verts, k):
    """The first k coordinate columns, in itertools order, onto which the
    affine hull of the points projects one to one: the subset search that
    _last_axis and the segment rule replace."""
    basis = independent_subset(sub(p, verts[0]) for p in verts[1:])
    for cols in itertools.combinations(range(len(verts[0])), k):
        if mat_rank([[u[c] for c in cols] for u in basis]) == k:
            return cols


@settings(max_examples=80, deadline=None)
@given(st.one_of(*(st.lists(st.tuples(*[grid] * d), min_size=2, max_size=8)
                   for grid in (st.integers(-2, 2), st.integers(0, 1))
                   for d in (2, 3))))
def test_projection_rule_matches_subset_search(pts):
    """The chart of a flat body: segments in the plane and in space
    project onto the first coordinate their direction uses, polygons in
    space drop the last coordinate their normal uses, and a point keeps
    none.  The facets of full dimensional bodies drop the last coordinate
    their normal uses."""
    d = len(pts[0])
    P = Polytope.construct(pts, d)
    k = P.intrinsic_dim
    if k < d:
        cols = _chart([m for m, _ in P.equality_planes], d)
        assert cols == subset_columns(P.vertices, k)
    if k == 1:
        u = sub(P.vertices[-1], P.vertices[0])
        assert cols == (next(j for j, x in enumerate(u) if x),)
    if k == d:
        for (m, _), idx in P._facets:
            drop = _last_axis(m)
            cols = subset_columns([P.vertices[i] for i in idx], d - 1)
            assert tuple(j for j in range(d) if j != drop) == cols


def gram_flat_hull(points, d):
    """Vertices and halfspaces of a flat hull through exact coordinates
    in an affine basis (one Gram solve per point) and a dual basis that
    lifts the relative normals: the construction the chart replaces."""
    pts = sorted(set(tuple(map(F, p)) for p in points))
    base = pts[0]
    basis = independent_subset(sub(p, base) for p in pts[1:])
    rank = len(basis)
    comp = orthogonal_complement(basis, d)
    hs = []
    for w in comp:
        hs.append(_canon_halfspace(w, dot(w, base)))
        hs.append(_canon_halfspace([-x for x in w], -dot(w, base)))
    if rank == 0:
        return (base,), tuple(sorted(set(hs)))
    gram = [[dot(u, v) for v in basis] for u in basis]
    coords = [solve(gram, [dot(u, sub(p, base)) for u in basis]) for p in pts]
    inner = Polytope.construct(coords, rank)
    dual = []
    for j in range(rank):
        lam = solve(gram, [F(int(i == j)) for i in range(rank)])
        dual.append(tuple(sum(lam[i] * basis[i][k] for i in range(rank))
                          for k in range(d)))
    for m, c in inner.halfspaces:
        n = tuple(sum(m[j] * dual[j][k] for j in range(rank)) for k in range(d))
        hs.append(_canon_halfspace(n, c + dot(n, base)))
    verts = [tuple(base[k] + sum(y[j] * basis[j][k] for j in range(rank))
                   for k in range(d)) for y in inner.vertices]
    return tuple(sorted(verts)), tuple(sorted(set(hs)))


def gram_boundary_cycle(P):
    """The cycle of a polygon found in Fraction arithmetic on the
    projection that drops the last coordinate of its plane's normal in
    space: the rule boundary_cycle kept before the chart."""
    verts = P.vertices
    if P.ambient_dim == 3:
        k = _last_axis(P.equality_planes[0][0])
        verts = [v[:k] + v[k + 1:] for v in verts]
    cycle, _ = fraction_polygon(verts)
    return tuple(verts.index(p) for p in cycle)


# coordinates with small, large and float-derived denominators
rational = st.one_of(st.integers(-4, 4).map(F),
                     st.fractions(-50, 50, max_denominator=12),
                     st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
                     st.floats(-1e3, 1e3).map(F))


@st.composite
def flat_point_sets(draw):
    """Points, segments and polygons in the plane and in space: affine
    combinations of at most d - 1 directions, with duplicates."""
    d = draw(st.sampled_from((2, 3)))
    rank = draw(st.integers(0, d - 1))
    base = draw(st.tuples(*[rational] * d))
    dirs = draw(st.lists(st.tuples(*[st.integers(-3, 3).map(F) | rational] * d),
                         min_size=rank, max_size=rank))
    coefs = draw(st.lists(st.tuples(*[rational] * rank), min_size=1, max_size=8))
    pts = [tuple(base[k] + sum(t * u[k] for t, u in zip(c, dirs)) for k in range(d))
           for c in coefs]
    return d, pts + draw(st.lists(st.sampled_from(pts), max_size=3))


@settings(max_examples=300, deadline=None)
@given(flat_point_sets())
def test_chart_construction_matches_gram_solves(data):
    d, pts = data
    P = Polytope.construct(pts, d)
    verts, hs = gram_flat_hull(pts, d)
    assert P.vertices == verts
    assert P.halfspaces == hs
    assert P.intrinsic_dim == _affine_rank(list(verts)) < d
    if P.intrinsic_dim == 2:
        assert P.boundary_cycle == gram_boundary_cycle(P)


def derived_cycle(P):
    """boundary_cycle derived from scratch on the same body made without
    construct, so that nothing is carried: the reference for the cycle
    construct hands over."""
    fresh = Polytope(P.ambient_dim, P.q, P.images, P.planes)
    assert "boundary_cycle" not in fresh.__dict__
    return fresh.boundary_cycle


@st.composite
def polygon_inputs(draw):
    """Points in the plane, or on a plane in space through an integer
    parametrization: float-derived coordinates at one scale, down to
    1e-300, with repeated points and points on lines through two
    others."""
    scale = draw(st.sampled_from((1.0, 2.0 ** -30, 1e-300)))
    unit = st.floats(-1.0, 1.0)
    pts = [(F(x * scale), F(y * scale))
           for x, y in draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=10))]
    for i, j, t in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                           st.integers(-8, 16)), max_size=8)):
        # t = 0 repeats a point; any other t lies on the line through two
        a, b = pts[i % len(pts)], pts[j % len(pts)]
        pts.append(tuple(x + F(t, 8) * (y - x) for x, y in zip(a, b)))
    if draw(st.booleans()):
        return 2, pts
    small = st.tuples(*[st.integers(-2, 2)] * 3)
    u, v = draw(small), draw(small)
    assume(any(cross3(u, v)))
    o = tuple(map(F, draw(st.tuples(unit, unit, unit))))
    return 3, [tuple(o[k] + s * u[k] + t * v[k] for k in range(3)) for s, t in pts]


@settings(max_examples=300, deadline=None)
@given(polygon_inputs())
def test_construct_carries_the_derived_cycle(data):
    d, pts = data
    P = Polytope.construct(pts, d)
    if P.intrinsic_dim == 2:
        assert P.__dict__["boundary_cycle"] == derived_cycle(P)
        assert sorted(P.boundary_cycle) == list(range(len(P.vertices)))
    else:
        assert "boundary_cycle" not in P.__dict__


def as_points_reference(points):
    """The intake construct had before it read ratios: every coordinate
    made a Fraction up front.  One change: a numpy int is read through
    int, because F(np.int64(k)) keeps a numpy numerator, and the integer
    image then overflowed (OverflowError) or wrapped."""
    out = []
    for p in points:
        out.append(tuple(F(int(x) if isinstance(x, np.integer) else x) for x in p))
    return out


def integer_image_reference(points):
    """The integer image on Fraction points before the ratio reading: the
    common denominator q of the points' coordinates, and a map from each
    integer point q * p back to p."""
    points = list(points)
    q = math.lcm(*(x.denominator for p in points for x in p))
    return q, {tuple(x.numerator * (q // x.denominator) for x in p): p
               for p in points}


# a column of coordinates shares one unit, so that the affine dependencies
# of the small integers survive wherever the unit is exact: ones, thirds,
# the smallest subnormal, scales 1e-300 and 1e300, and tenths
UNITS = (F(1), F(1, 3), 5e-324, 1e-300, 1e300, 0.1)
ENCODINGS = ("float", "numpy float", "Fraction", "str", "int", "numpy int")


def encode(k, unit, how, negative_zero):
    """The value k * unit as a coordinate of the given type: ints only at
    unit 1 (a float otherwise), a float zero signed as drawn."""
    exact = F(k) * F(unit)
    if how in ("int", "numpy int") and unit == 1:
        return k if how == "int" else np.int64(k)
    if how == "Fraction":
        return exact
    if how == "str":
        return str(exact)
    x = k * float(unit)
    if x == 0 and negative_zero:
        x = -0.0
    return np.float64(x) if how == "numpy float" else x


@st.composite
def intake_inputs(draw):
    """Points in R^1, R^2 and R^3 of every affine rank (b + A t for small
    integer t and A), with repeats, encoded per coordinate: all as Python
    floats, or in types mixed within one point."""
    d = draw(st.sampled_from((1, 2, 3)))
    rank = draw(st.integers(0, d))
    small = st.integers(-2, 2)
    A = draw(st.lists(st.lists(small, min_size=rank, max_size=rank),
                      min_size=d, max_size=d))
    b = draw(st.lists(small, min_size=d, max_size=d))
    ts = draw(st.lists(st.lists(small, min_size=rank, max_size=rank),
                       min_size=1, max_size=8))
    ks = [[b[i] + sum(a * t for a, t in zip(A[i], tt)) for i in range(d)] for tt in ts]
    ks += draw(st.lists(st.sampled_from(ks), max_size=3))
    units = draw(st.lists(st.sampled_from(UNITS), min_size=d, max_size=d))
    floats = draw(st.booleans())
    pts = []
    for k in ks:
        kinds = ["float"] * d if floats else draw(
            st.lists(st.sampled_from(ENCODINGS), min_size=d, max_size=d))
        signs = draw(st.lists(st.booleans(), min_size=d, max_size=d))
        pts.append(tuple(encode(x, u, how, neg)
                         for x, u, how, neg in zip(k, units, kinds, signs)))
    return d, pts


@settings(max_examples=300, deadline=None)
@given(intake_inputs())
@example((2, [(-0.0, 0.0), (1.0, -0.0), (0.0, 1.0)]))
@example((1, [(-0.0,), (0.5,), (0.25,)]))
@example((3, [(-0.0, 1e-300, 5e-324), (1e300, -0.0, 0.1), (0.1, 0.2, 0.3),
              (-0.0, -0.0, 1.0)]))
@example((2, [("1/3", 0.5), (F(2, 3), np.int64(1)), (1, np.float64(0.75)),
              (0.25, 3), ("1/3", 0.5)]))
# a numpy int beside a float with a large denominator overflowed in int64
@example((2, [(np.int64(3), 0.1), (0, 0), (1, 1)]))
def test_construct_intake_matches_fraction_intake(data):
    d, pts = data
    ref = as_points_reference(pts)
    P = Polytope.construct(pts, d)
    R = Polytope.construct(ref, d)
    assert P.vertices == R.vertices
    assert P.halfspaces == R.halfspaces
    assert P.intrinsic_dim == R.intrinsic_dim == _affine_rank(sorted(set(ref)))
    if P.intrinsic_dim == 2:
        assert P.boundary_cycle == R.boundary_cycle == derived_cycle(P)
    assert all(type(x) is F for v in P.vertices for x in v)
    # the integer image read off the ratios is the Fraction one
    q, image = integer_image_reference(ref)
    q_new, keys = _integer_image(pts)
    assert q_new == q
    assert list(dict(zip(keys, ref)).items()) == list(image.items())
    assert _integer_image(ref) == (q, keys)
    assert set(P.vertices) <= set(image.values())
    assert all(dot(m, p) <= c for m, c in P.halfspaces for p in ref)
    # the float view construct carries is the one derived from the vertices
    derived = np.array([[float(x) for x in v] for v in P.vertices], dtype=float)
    carried = P.__dict__.get("float_vertices")
    if all(type(x) is float for p in pts for x in p):
        assert carried is not None
    if not any(type(x) is float for p in pts for x in p):
        assert carried is None
    if carried is not None:
        assert carried.dtype == derived.dtype and carried.shape == derived.shape
        assert carried.tobytes() == derived.tobytes()


@pytest.mark.parametrize("bad, error", [(float("nan"), ValueError),
                                        (float("inf"), OverflowError),
                                        (-float("inf"), OverflowError),
                                        (None, TypeError)])
def test_construct_rejects_what_fraction_rejects(bad, error):
    for d in (1, 2, 3):
        pts = [(0.5,) * d, (1,) * (d - 1) + (bad,)]
        with pytest.raises(error):
            as_points_reference(pts)
        with pytest.raises(error):
            Polytope.construct(pts, d)


# a subnormal scale keeps a few bits of each coordinate; 1e-300 and 1e300
# put the turns' products outside the range of the orientation filter
FLOAT_SCALES = (1.0, 2.0 ** -30, 1e-300, 5e-318, 1e300)


@st.composite
def float_point_sets(draw):
    """Points in the plane as Python floats at one of FLOAT_SCALES: an
    edge walk like minkowski_solve's, whose atoms may have a twin 1e-7 rad
    on (near-collinear triples), or collinear points; with repeats and
    zeros signed as drawn."""
    scale = draw(st.sampled_from(FLOAT_SCALES))
    kind = draw(st.sampled_from(["walk", "walk", "line", "axis"]))
    if kind == "walk":
        angles, weights = [], []
        for angle, exponent, twin in draw(st.lists(st.tuples(
                st.floats(0.0, 2 * math.pi), st.floats(-3.0, 1.0), st.booleans()),
                min_size=1, max_size=10)):
            for a in (angle, angle + 1e-7)[:1 + twin]:
                angles.append(a)
                weights.append(10.0 ** exponent)
        order = np.argsort(angles)
        edges = np.array([(-math.sin(angles[k]), math.cos(angles[k])) for k in order])
        walk = np.zeros((len(order) + 1, 2))
        walk[1:] = edges * np.array(weights)[order, None]
        np.cumsum(walk, axis=0, out=walk)
        m = len(order)
        pts = (walk[:-1] - (np.arange(m) / m)[:, None] * walk[-1]) * scale
    else:
        ks = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8))
        a, b = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]))
        c = draw(st.integers(-2, 2)) if kind == "axis" else 0
        pts = np.array([(k * a + c * b, k * b - c * a) for k in ks], dtype=float) * scale
    pts = [tuple(p) for p in pts.tolist()]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    flips = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    return [tuple(-0.0 if x == 0 and f else x for x in p) for p, f in zip(pts, flips)]


@settings(max_examples=300, deadline=None)
@given(float_point_sets())
@example([(0.0, -0.0), (-0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, -0.0)])
@example([(1e-300, 1e-300), (-1e-300, 3e-300), (2e-300, 2e-300), (0.0, 1e-300)])
@example([(1e300, 0.0), (0.0, 1e300), (-1e300, -1e300), (5e299, 5e299)])
@example([(5e-324, 0.0), (0.0, 5e-324), (1e-323, 1e-323), (0.0, 0.0)])
@example([(0.5, 0.5), (1.0, 1.0), (-2.0, -2.0), (1.0, 1.0)])
def test_float_decided_polygon_is_the_integer_decided_one(pts):
    """construct decides all-float plane input on the floats with the
    filtered turn; the body, and the vertices and halfspaces it makes on
    first read, are those construct decides on the same points as
    Fractions.  Collinear input goes the Fraction way too."""
    P = Polytope.construct(np.array(pts), 2)
    R = Polytope.construct([tuple(map(F, p)) for p in pts], 2)
    assert P.intrinsic_dim == R.intrinsic_dim
    if R.intrinsic_dim == 2:
        assert "vertices" not in P.__dict__ and "halfspaces" not in P.__dict__
        assert P.boundary_cycle == R.boundary_cycle
    carried = P.float_vertices
    assert carried.dtype == R.float_vertices.dtype
    assert carried.tobytes() == R.float_vertices.tobytes()
    assert P.vertices == R.vertices
    assert P.halfspaces == R.halfspaces
    assert all(type(x) is F for v in P.vertices for x in v)
    assert all(type(c) is F and all(type(x) is int for x in m) for m, c in P.halfspaces)


def test_filter_falls_back_outside_its_range(monkeypatch):
    """Subnormal and 1e+-300 coordinates are scaled by a power of two into
    the range of the filter, which then decides every turn, as at scale
    1.  Points at 1e-300 and 1e300 together cannot be scaled without
    rounding: their turns' products leave [TURN_MIN, TURN_MAX], and the
    chain decides them with the exact turn."""
    calls = []
    exact = bodies._exact_left
    monkeypatch.setattr(bodies, "_exact_left", lambda *a: calls.append(a) or exact(*a))
    base = [(math.cos(t), math.sin(t)) for t in np.linspace(0.0, 6.0, 40)]
    base += [(0.0, 0.0), (0.25, -0.5)]
    mixed = [(x * 1e300, y * 1e300) for x, y in base] + [(1e-300, 2e-300), (-3e-300, 1e-300)]
    for scale in (1.0, 5e-318, 1e-300, 1e300, None):
        calls.clear()
        pts = mixed if scale is None else [(x * scale, y * scale) for x, y in base]
        P = Polytope.construct(np.array(pts), 2)
        assert "vertices" not in P.__dict__
        assert (len(calls) > 0) == (scale is None), scale
        assert P.vertices == Polytope.construct([tuple(map(F, p)) for p in pts], 2).vertices


def test_float_entry_is_a_float_array():
    """The same float points as an array and as a list give the same body;
    only the array is decided on the floats, with its vertices and
    halfspaces left to first read."""
    pts = [(math.cos(t), math.sin(t)) for t in np.linspace(0.0, 6.0, 40)] + [(0.25, -0.5)]
    lazy = Polytope.construct(np.array(pts), 2)
    eager = Polytope.construct(pts, 2)
    assert "vertices" not in lazy.__dict__ and "halfspaces" not in lazy.__dict__
    assert isinstance(lazy, bodies._FloatPolygon) and not isinstance(eager, bodies._FloatPolygon)
    assert lazy.vertices == eager.vertices and lazy.halfspaces == eager.halfspaces
    assert lazy.boundary_cycle == eager.boundary_cycle
    assert lazy.float_vertices.tobytes() == eager.float_vertices.tobytes()


@st.composite
def polygon_orders(draw):
    """Points in the plane as Python floats at one of FLOAT_SCALES: a
    convex polygon on an ellipse, counterclockwise from any vertex, whose
    vertices may have a twin 1e-7 rad on; then one change: none,
    clockwise order, one vertex dented inwards, the float midpoint of an
    edge (a near-collinear triple), or a vertex repeated.  Or an odd
    regular polygon visited every second vertex (a pentagram), which
    turns left at every vertex and around twice."""
    scale = draw(st.sampled_from(FLOAT_SCALES))
    kind = draw(st.sampled_from(["convex", "clockwise", "dent", "midpoint", "repeat",
                                 "star"]))
    if kind == "star":
        k = draw(st.sampled_from([5, 7, 9]))
        angles = [2 * math.pi * (2 * j % k) / k for j in range(k)]
        a = b = 1.0
    else:
        angles = []
        for angle, twin in draw(st.lists(st.tuples(
                st.floats(0.0, 2 * math.pi, exclude_max=True), st.booleans()),
                min_size=3, max_size=12, unique_by=lambda t: t[0])):
            angles += [angle, angle + 1e-7][:1 + twin]
        angles.sort()
        a, b = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    pts = [(a * math.cos(t) * scale, b * math.sin(t) * scale) for t in angles]
    i = draw(st.integers(0, len(pts) - 1))
    if kind == "clockwise":
        pts.reverse()
    elif kind == "dent":
        cx, cy = np.mean(pts, axis=0).tolist()
        t = draw(st.floats(0.01, 1.0))
        pts[i] = (pts[i][0] + t * (cx - pts[i][0]), pts[i][1] + t * (cy - pts[i][1]))
    elif kind == "midpoint":
        (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % len(pts)]
        pts.insert(i + 1, (x0 + (x1 - x0) / 2, y0 + (y1 - y0) / 2))
    elif kind == "repeat":
        pts.insert(draw(st.integers(0, len(pts))), pts[i])
    start = draw(st.integers(0, len(pts) - 1))
    return pts[start:] + pts[:start]


def assert_is_fraction_polygon(P, pts):
    """P, decided on the floats pts, is the hull construct decides on the
    same points as Fractions: the kept points, the cycle and the float
    view's bytes."""
    R = Polytope.construct([tuple(map(F, p)) for p in pts], 2)
    if R.intrinsic_dim < 2:
        assert P is None
        return
    assert P.boundary_cycle == R.boundary_cycle
    assert P.float_vertices.tobytes() == R.float_vertices.tobytes()
    assert P.vertices == R.vertices


@settings(max_examples=300, deadline=None)
@given(polygon_orders())
def test_float_polygon_in_any_order_is_the_fraction_polygon(pts):
    """_float_polygon takes a counterclockwise convex cycle as it stands
    and sends every other order to the chain; either way the result is
    the hull decided in Fractions."""
    assert_is_fraction_polygon(bodies._float_polygon(np.array(pts)), pts)


@pytest.mark.parametrize("scale", FLOAT_SCALES)
def test_convex_cycle_takes_the_certificate(monkeypatch, scale):
    """A regular 12-gon counterclockwise from any vertex is certified
    without the chain; the same points clockwise, and a pentagram, go to
    the chain; the results are the Fraction hulls."""
    calls = []
    chain = bodies._half_chain
    monkeypatch.setattr(bodies, "_half_chain",
                        lambda *a, **k: calls.append(a) or chain(*a, **k))
    gon = [(math.cos(t) * scale, math.sin(t) * scale)
           for t in np.linspace(0.0, 2 * math.pi, 12, endpoint=False)]
    star = [(math.cos(4 * math.pi * j / 5) * scale, math.sin(4 * math.pi * j / 5) * scale)
            for j in range(5)]
    cases = [(gon[k:] + gon[:k], 0) for k in range(12)] + [(gon[::-1], 2), (star, 2)]
    for pts, chain_calls in cases:
        calls.clear()
        P = bodies._float_polygon(np.array(pts))
        assert len(calls) == chain_calls
        assert_is_fraction_polygon(P, pts)


def test_certificate_refuses_a_turn_on_the_filter_bound(monkeypatch):
    """At a, the float turn of (o, a, b) is l - r with l - r equal to
    TURN_ERR * (|l| + |r|) exactly, where the filter certifies nothing:
    the chain decides the polygon, with the exact turn there."""
    turns = []
    exact = bodies._exact_left
    monkeypatch.setattr(bodies, "_exact_left", lambda *a: turns.append(a) or exact(*a))
    l, r = float.fromhex("0x1.5555555555554p+0"), float.fromhex("0x1.5555555555550p+0")
    assert l - r == bodies.TURN_ERR * (abs(l) + abs(r))
    pts = [(0.0, 0.0), (1.0, 1.0), (r, l), (0.0, 2.0)]
    assert_is_fraction_polygon(bodies._float_polygon(np.array(pts)), pts)
    assert len(turns) >= 1


def test_certificate_refuses_a_float_turn_of_the_wrong_sign():
    """The float turn of (p, q, r) is left, the exact one right (-21/2^51):
    q lies inside the triangle p, r, s and is not a vertex."""
    u = 2.0 ** -53
    pts = [(0.5 + 48 * u, 0.5 + 41 * u), (12.0, 12.0), (24.0, 24.0), (0.0, 30.0)]
    (px, py), (qx, qy), (rx, ry) = pts[:3]
    assert (qx - px) * (ry - py) > (qy - py) * (rx - px)
    P = bodies._float_polygon(np.array(pts))
    assert_is_fraction_polygon(P, pts)
    assert len(P.boundary_cycle) == 3


def fraction_polygon(points):
    """The plane hull in Fraction arithmetic: the strict hull vertices
    counterclockwise from the lexicographically smallest (monotone chain),
    and the sorted edge halfspaces."""
    pts = sorted({tuple(map(F, p)) for p in points})

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for chain, seq in ((lower, pts), (upper, pts[::-1])):
        for p in seq:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    cycle = lower[:-1] + upper[:-1]
    hs = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        n = (b[1] - a[1], a[0] - b[0])
        hs.append(_canon_halfspace(n, n[0] * a[0] + n[1] * a[1]))
    return cycle, sorted(hs)


class TestPlaneHull:
    """construct and boundary_cycle decide the plane hull on integer images
    of the points; the result is the hull in Fraction arithmetic, with the
    same vertices, halfspaces, start and orientation."""

    def check(self, points):
        cycle, hs = fraction_polygon(points)
        P = Polytope.construct(points, 2)
        assert [P.vertices[i] for i in P.boundary_cycle] == cycle
        assert P.vertices == tuple(sorted(cycle))
        assert list(P.halfspaces) == hs
        # the same polygon on the plane x = 1/3 in space: boundary_cycle
        # projects it onto the last two coordinates
        Q = Polytope.construct([(F(1, 3),) + tuple(p) for p in points], 3)
        assert [Q.vertices[i][1:] for i in Q.boundary_cycle] == cycle
        return P

    def test_drops_duplicate_and_collinear_points(self):
        # (1.6, 0.4) twice; (1, 1) and (1.6, 0.7) lie exactly on edges;
        # (1, 0.3) lies on the segment from (0.4, 0.2) to (1.6, 0.4) only
        # as a decimal: as floats it is a hair below it, a vertex, though
        # the turn evaluated in floats rounds to 0 and would drop it
        pts = [(1.6, 0.4), (0.4, 0.2), (1.0, 0.3), (1.6, 0.4), (1.6, 1.0),
               (1.0, 1.0), (0.4, 1.0), (1.6, 0.7), (1e-300, 0.6), (0.8, 0.6)]
        P = self.check(pts)
        assert P.float_vertices[list(P.boundary_cycle)].tolist() == [
            [1e-300, 0.6], [0.4, 0.2], [1.0, 0.3], [1.6, 0.4], [1.6, 1.0],
            [0.4, 1.0]]

    # tenths are decimals on many common lines, which rounding breaks by a
    # few units in the last place; small fractions have denominators that
    # are not powers of two
    xy = st.one_of(st.floats(-1e3, 1e3),
                   st.integers(-30, 30).map(lambda k: k / 10),
                   st.fractions(-10, 10, max_denominator=12))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(xy, xy), min_size=3, max_size=12))
    def test_matches_fraction_hull(self, pts):
        # two points off the first one make the hull two dimensional
        x, y = pts[0]
        self.check(pts + [(x + 1, y), (x, y + 1)])


class TestClipIntersect:
    def test_clip_square_by_diagonal(self):
        T = square().clip((1, 1), 1)
        assert T.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
        assert T.volume == F(1, 2)

    def test_clip_away_everything(self):
        assert square().clip((1, 0), -1).is_empty

    def test_clip_through_vertex_leaves_point(self):
        P = square().clip((1, 1), 0)
        assert P.intrinsic_dim == 0
        assert P.vertices == ((F(0), F(0)),)

    def test_clip_no_change(self):
        S = square()
        assert S.clip((1, 0), 5) is S

    def test_intersect_squares(self):
        I = square().intersect(square(F(1, 2), F(3, 2)))
        assert I.volume == F(1, 4)

    def test_intersect_disjoint(self):
        assert square().intersect(square(3, 4)).is_empty

    def test_intersect_in_facet(self):
        shifted = square().translate((1, 0))
        I = square().intersect(shifted)
        assert I.intrinsic_dim == 1
        assert set(I.vertices) == {(F(1), F(0)), (F(1), F(1))}
        corner = square().intersect(square(1, 2))
        assert corner.intrinsic_dim == 0
        assert corner.vertices == ((F(1), F(1)),)

    def test_cube_clip_volume(self):
        H = cube().clip((1, 1, 1), F(3, 2))
        assert H.volume == 1 - (F(3, 2) ** 3 - 3 * (F(1, 2) ** 3)) / 6


class TestUnionConvex:
    def test_halves_of_square(self):
        A = Polytope.construct([(0, 0), (1, 0), (1, F(1, 2)), (0, F(1, 2))])
        B = Polytope.construct([(0, F(1, 2)), (1, F(1, 2)), (1, 1), (0, 1)])
        assert A.is_union_convex(B)
        assert not A.is_union_convex(B.translate((F(1, 4), 0)))

    def test_rhombus_from_triangles(self):
        T1 = Polytope.construct([(0, 0), (1, 1), (0, 2)])
        T2 = Polytope.construct([(0, 0), (-1, 1), (0, 2)])
        assert T1.is_union_convex(T2)

    def test_overlapping_triangles_nonconvex(self):
        T1 = Polytope.construct([(0, 0), (2, 0), (0, 2)])
        T2 = Polytope.construct([(2, 2), (0, 2), (2, 0)])
        assert T1.is_union_convex(T2)
        T3 = T2.translate((F(1, 10), 0))
        assert not T1.is_union_convex(T3)

    def test_cube_halves(self):
        A = cube().clip((0, 0, 1), F(1, 2))
        B = cube().clip((0, 0, -1), -F(1, 2))
        assert A.is_union_convex(B)
        assert not A.is_union_convex(B.translate((F(1, 8), 0, 0)))

    def test_segments(self):
        a = Polytope.construct([(0, 0), (1, 1)], 2)
        b = Polytope.construct([(1, 1), (2, 2)], 2)
        c = Polytope.construct([(2, 2), (3, 3)], 2)
        assert a.is_union_convex(b)
        assert not a.is_union_convex(c)

    def test_point_cases(self):
        p = Polytope.construct([(0, 0)], 2)
        assert p.is_union_convex(p)
        assert p.is_union_convex(square())


class TestMetrics:
    def test_hausdorff_nested_squares(self):
        assert square().hausdorff_distance(square(0, 2)) == pytest.approx(2 ** 0.5)

    def test_hausdorff_translate(self):
        S = square()
        assert S.hausdorff_distance(S.translate((F(3, 10), 0))) == pytest.approx(0.3)

    def test_hausdorff_zero(self):
        assert cube().hausdorff_distance(cube()) == 0.0

    def test_hausdorff_dense_sampling_oracle(self):
        # directed distances checked against a dense boundary sample
        A = Polytope.construct([(0, 0), (3, 1), (2, 3), (-1, 2)])
        B = Polytope.construct([(1, 1), (2, 0), (4, 2), (1, 4)])
        d = A.hausdorff_distance(B)
        ts = np.linspace(0, 1, 400)
        worst = 0.0
        for P, Q in ((A, B), (B, A)):
            cyc = [P.float_vertices[i] for i in P.boundary_cycle]
            for i in range(len(cyc)):
                seg = cyc[i][None, :] * (1 - ts[:, None]) + cyc[(i + 1) % len(cyc)][None, :] * ts[:, None]
                worst = max(worst, float(np.max(Q.distances_to(seg))))
        assert d == pytest.approx(worst, abs=1e-6)

    def test_distances_to_flat_triangle(self):
        T = Polytope.construct([(0, 0, 0), (2, 0, 0), (0, 2, 0)], 3)
        d = T.distances_to(np.array([[0.5, 0.5, 1.0], [3.0, 0.0, 0.0], [-1.0, -1.0, 0.0]]))
        assert d == pytest.approx([1.0, 1.0, 2 ** 0.5])
        # the same floats as the metric projection, flat and full dimensional
        X = np.random.default_rng(3).uniform(-2.0, 3.0, size=(300, 3))
        for P in (T, cube()):
            assert np.array_equal(P.distances_to(X), nearest_points(P, X)[0])


class TestTransforms:
    def test_minkowski_sum_squares(self):
        S = square().minkowski_sum(square())
        assert S.volume == 4
        assert S == square().scale(2)

    def test_minkowski_sum_cube_segment(self):
        seg = Polytope.construct([(0, 0, 0), (0, 0, 1)], 3)
        assert cube().minkowski_sum(seg).volume == 2

    def test_reflect_last(self):
        T = Polytope.construct([(0, 0), (1, 0), (0, 1)])
        R = T.reflect_last()
        assert R.contains((F(1, 4), -F(1, 4)))
        assert not R.contains((F(1, 4), F(1, 4)))

    def test_from_halfspaces_round_trip(self):
        C = cube()
        D = Polytope.from_halfspaces(C.halfspaces, 3)
        assert C == D
        box = Polytope.from_halfspaces([((1, 0), 2), ((-1, 0), 1), ((0, 1), 3),
                                        ((0, -1), F(1, 2))], 2)
        assert box == Polytope.construct([(-1, F(-1, 2)), (2, F(-1, 2)), (2, 3), (-1, 3)])

    def test_from_halfspaces_rejects_unbounded(self):
        half_plane = [((0, 1), 1)]
        strip = [((0, 1), 1), ((0, -1), 1)]
        # normals spanning the plane, but only a half-plane of directions
        wedge = [((1, 0), 1), ((0, 1), 1), ((-1, 1), 1)]
        for rows in (half_plane, strip, wedge):
            with pytest.raises(GeometryError, match="do not bound"):
                Polytope.from_halfspaces(rows, 2)


coord = st.fractions(min_value=-4, max_value=4).map(lambda x: x.limit_denominator(6))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=7))
def test_construct_contains_all_inputs(pts):
    P = Polytope.construct(pts, 2)
    assert all(P.contains(p) for p in pts)
    assert all(v in set(map(tuple, map(lambda q: tuple(map(F, q)), pts))) for v in P.vertices)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=6), st.tuples(coord, coord))
def test_support_translation_covariance(pts, t):
    P = Polytope.construct(pts, 2)
    Q = P.translate(t)
    for y in [(1, 0), (0, 1), (-1, 2), (3, -1)]:
        assert Q.support(y) == P.support(y) + F(t[0]) * y[0] + F(t[1]) * y[1]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=7),
       st.integers(min_value=1, max_value=5))
def test_scale_volume_homogeneous(pts, k):
    P = Polytope.construct(pts, 3)
    t = F(k, 2)
    assert P.scale(t).volume == t ** 3 * P.volume


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=6),
       st.lists(st.tuples(coord, coord), min_size=3, max_size=6))
def test_intersection_commutes(pts_a, pts_b):
    A = Polytope.construct(pts_a, 2)
    B = Polytope.construct(pts_b, 2)
    assert A.intersect(B) == B.intersect(A)
    I = A.intersect(B)
    assert_intersection_is_reference(A, B, I)
    if not I.is_empty:
        assert I.volume <= min(A.volume, B.volume)


def assert_intersection_is_reference(A, B, I):
    """I equals the vertex enumeration of both bodies' halfspaces, in its
    vertices and in its halfspace set."""
    ref = Polytope.from_halfspaces(A.halfspaces + B.halfspaces, A.ambient_dim)
    assert I.vertices == ref.vertices
    assert set(I.halfspaces) == set(ref.halfspaces)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=6),
       st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=6))
def test_intersection_commutes_3d(pts_a, pts_b):
    A = Polytope.construct(pts_a, 3)
    B = Polytope.construct(pts_b, 3)
    I = A.intersect(B)
    assert I == B.intersect(A)
    assert_intersection_is_reference(A, B, I)


def tight_indices(P, m, c):
    """The vertices on a facet, by Fraction dot products."""
    return [i for i, v in enumerate(P.vertices)
            if sum(F(a) * x for a, x in zip(m, v)) == c]


def pairwise_edges(P):
    """Edges of a 3D body as the vertex pairs whose common tight facets
    have rank 2."""
    tight = [[m for m, c in P.halfspaces if i in tight_indices(P, m, c)]
             for i in range(len(P.vertices))]
    return tuple((i, j) for i in range(len(P.vertices))
                 for j in range(i + 1, len(P.vertices))
                 if mat_rank([m for m in tight[i] if m in tight[j]]) == 2)


def facet_area(verts, d):
    """relative_volume_float of the facet built as its own flat body: the
    segment length in 2D, the fan over its boundary_cycle in 3D."""
    Fc = Polytope.construct(verts, d)
    if d == 2:
        return float(norm_sq(sub(Fc.vertices[-1], Fc.vertices[0]))) ** 0.5
    cyc = [Fc.vertices[i] for i in Fc.boundary_cycle]
    return sum(0.5 * float(norm_sq(cross3(sub(b, cyc[0]), sub(c, cyc[0])))) ** 0.5
               for b, c in zip(cyc[1:], cyc[2:]))


def assert_facet_table(P):
    d = P.ambient_dim
    assert [h for h, _ in P._facets] == list(P.planes)
    atoms = surface_area_measure(P).atoms
    for (m, c), (_, idx), (_, w) in zip(P.halfspaces, P._facets, atoms):
        tight = tight_indices(P, m, c)
        assert sorted(idx) == tight
        verts = [P.vertices[i] for i in tight]
        if d == 3:
            Fc = Polytope.construct(verts, 3)
            assert list(idx) == [P.vertices.index(Fc.vertices[i]) for i in Fc.boundary_cycle]
        assert w == facet_area(verts, d)
    if d == 3:
        assert P.edge_list == pairwise_edges(P)


rational = st.builds(F, st.integers(-20, 20), st.integers(1, 5))
grid = st.integers(-2, 2).map(F)
hull_inputs = st.one_of(
    *(st.lists(st.tuples(*[q] * d), min_size=d + 1, max_size=11)
      for q in (rational, grid) for d in (2, 3)))


@settings(max_examples=60, deadline=None)
@given(hull_inputs, st.lists(st.integers(-3, 3), min_size=3, max_size=3), rational)
def test_facet_table_matches_old_derivations(pts, vec, off):
    """_facets, edge_list and the surface area measure against the
    per-facet derivations they replace, on a fresh hull and on the bodies
    that clip, translate and reflect_last make from it."""
    d = len(pts[0])
    P = Polytope.construct(pts, d)
    for Q in (P, P.clip(vec[:d], off), P.translate(vec[:d]), P.reflect_last()):
        if Q.intrinsic_dim == d:
            assert_facet_table(Q)
