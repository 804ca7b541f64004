"""The exact readers that compute on a body's integer image, against the
Fraction readers they replace.

Polytope.volume, relative_volume_float, the facet areas of
surface_area_measure, support, intrinsic_dim and clip read the image
q * v of the vertices in integer arithmetic; functions._tight, max_value
and the floor of _epigraph read the pieces scaled to integer rows on it;
independent_subset tests its candidates by maximal minors; _hull_flat
forms the equality normals of a segment or a point with an integer
Gram-Schmidt.  Each reference below is the Fraction version, and each
result must be equal: Fractions by ==, floats by their bytes.  The
bodies come from every intake type construct takes, from Fractions made
of floats at scales 1, 2^-30 and 1e-300, and from float (k, 2) arrays
(the _FloatPolygon path); flat bodies are among them.
"""

import itertools
import math
from fractions import Fraction as F

import numpy as np
from hypothesis import example, given, settings, strategies as st

from epival import bodies
from epival.bodies import Polytope, _FloatPolygon, _chart, _last_axis
from epival.cases import CaseGenerator
from epival.functions import (
    PLConvexFunction,
    _epigraph,
    _prism,
    _project_piece,
    _row,
    _tight,
)
from epival.linalg import (
    cross3,
    dot,
    int_complement,
    int_reject,
    primitive,
    sub,
)
from epival.measures import faces_with_cones, surface_area_measure
from test_bodies import as_points_reference, intake_inputs
from test_linalg import mat_rank, norm_sq, orthogonal_complement, reject

# ---------------------------------------------------------------------------
# the Fraction readers


def ref_rank(points):
    """Affine rank by Gauss-Jordan on the Fraction differences."""
    points = list(points)
    return mat_rank([sub(p, points[0]) for p in points[1:]]) if len(points) > 1 else 0


def ref_volume(P):
    if P.is_empty or P.intrinsic_dim < P.ambient_dim:
        return F(0)
    d = P.ambient_dim
    if d == 1:
        return P.vertices[-1][0] - P.vertices[0][0]
    total = F(0)
    for (m, c), (_, idx) in zip(P.halfspaces, P._facets):
        k = _last_axis(m)
        proj = [P.vertices[i][:k] + P.vertices[i][k + 1:] for i in idx]
        if d == 2:
            area = abs(proj[1][0] - proj[0][0])
        else:
            area = abs(sum(a[0] * b[1] - b[0] * a[1]
                           for a, b in zip(proj, proj[1:] + proj[:1]))) / 2
        total += c * area / abs(m[k])
    return total / d


def ref_root(s):
    """The root of the Fraction s >= 0; where float(s) overflows, the
    integer root of s's numerator times its denominator, over the
    denominator."""
    try:
        return float(s) ** 0.5
    except OverflowError:
        return math.isqrt(s.numerator * s.denominator) / s.denominator


def ref_face_measure(cycle):
    a = cycle[0]
    if len(cycle) == 1:
        return 1.0
    if len(cycle) == 2:
        return ref_root(norm_sq(sub(cycle[1], a)))
    tot = 0.0
    for b, c in zip(cycle[1:], cycle[2:]):
        tot += 0.5 * ref_root(norm_sq(cross3(sub(b, a), sub(c, a))))
    return tot


def ref_relative_volume_float(P):
    k = P.intrinsic_dim
    if k < 0:
        return 0.0
    if k == P.ambient_dim:
        return float(ref_volume(P))
    order = P.boundary_cycle if k == 2 else (0, -1)[:k + 1]
    return ref_face_measure([P.vertices[i] for i in order])


def ref_facet_weights(P):
    if P.intrinsic_dim == P.ambient_dim:
        return [ref_face_measure([P.vertices[j] for j in idx]) for _, idx in P._facets]
    if P.intrinsic_dim == P.ambient_dim - 1:
        return [ref_relative_volume_float(P)] * 2
    return []


def ref_canon_halfspace(normal, offset):
    m = primitive(normal)
    j = next(i for i, a in enumerate(m) if a)
    return m, F(offset) / (F(normal[j]) / m[j])


def ref_clip_vertices(P, normal, offset):
    """The vertices of the clip, from Fraction crossing points sorted as
    Fraction tuples."""
    m, c = ref_canon_halfspace([F(x) for x in normal], F(offset))
    vals = [dot(m, v) - c for v in P.vertices]
    if all(s <= 0 for s in vals):
        return P.vertices
    pts = {v for v, s in zip(P.vertices, vals) if s <= 0}
    if not pts:
        return ()
    for i, j in P.edge_list:
        si, sj = vals[i], vals[j]
        if (si < 0 < sj) or (sj < 0 < si):
            a, b = P.vertices[i], P.vertices[j]
            pts.add(tuple((x * sj - y * si) / (sj - si) for x, y in zip(a, b)))
    pts = sorted(pts)
    if P.intrinsic_dim == P.ambient_dim and min(vals) < 0:
        return tuple(pts)
    return Polytope.construct(pts, P.ambient_dim).vertices


def ref_support(P, y):
    return max(dot([F(x) for x in y], v) for v in P.vertices)


def ref_tight(epigraph, piece):
    g, b = piece
    return [v[:-1] for v in epigraph.vertices if dot(g, v[:-1]) + b == v[-1]]


def ref_top(domain, pieces):
    return max(dot(g, v) + b for g, b in pieces for v in domain.vertices)


def ref_epigraph(domain, pieces, level):
    g0, b0 = pieces[0]
    lo = min(dot(g0, v) for v in domain.vertices) + b0 - 1
    body = _prism(domain, lo, level)
    for g, b in pieces:
        body = body.clip(g + (-1,), -b)
    return body


def ref_flat_halfspaces(keys, basis):
    """_hull_flat's halfspaces with the equality normals and the lifts made
    by the rational Gram-Schmidt of linalg."""
    d, base = len(keys[0]), keys[0]
    if len(basis) == d - 1 > 0:
        u = basis[0]
        comp = [primitive((-u[1], u[0]) if d == 2 else cross3(*basis))]
    else:
        comp = [primitive(w) for w in orthogonal_complement(basis, d)]
    cols = _chart(comp, d)
    kept, rel = keys, ()
    if cols:
        chart = {tuple(p[j] for j in cols): p for p in keys}
        inner, inner_hs, _ = bodies._hull(sorted(chart), [tuple(u[j] for j in cols) for u in basis])
        kept = [chart[y] for y in inner]
        rel = [m for m, _ in inner_hs]
    hs = []
    for m in rel:
        lift = [0] * d
        for j, x in zip(cols, m):
            lift[j] = x
        n = primitive(reject(lift, comp))
        hs.append((n, max(dot(n, v) for v in kept)))
    for w in comp:
        c = dot(w, base)
        hs += [(w, c), (tuple(-x for x in w), -c)]
    return hs


# ---------------------------------------------------------------------------
# the checks


DIRECTIONS = ((1, 0, 0), (0, -1, 0), (F(1, 3), F(-2, 7), 5), (0.1, -2.5, 1e-300),
              (-3, F(7, 2), 0))
CUTS = (((1, 1, 1), F(1, 3)), ((F(-1, 2), 3, 0), 0), ((0.25, -1, 2), 0.5),
        ((0, 0, -1), -1e-300))


def outcome(read):
    """The bytes of the floats read, or the error raised: a float too large
    for its range raises OverflowError on both sides."""
    try:
        return np.asarray(read(), dtype=float).tobytes()
    except OverflowError:
        return OverflowError


def assert_readers_match(P):
    """Every image reader of P equals its Fraction reference."""
    d = P.ambient_dim
    if P.is_empty:
        assert P.volume == 0
        return
    assert P.intrinsic_dim == ref_rank(P.vertices)
    vol = P.volume
    assert type(vol) is F and vol == ref_volume(P)
    assert outcome(lambda: P.relative_volume_float) == outcome(
        lambda: ref_relative_volume_float(P))
    try:
        weights = surface_area_measure(P).weights
    except (OverflowError, RuntimeWarning):
        # an area, or a normal's length, beyond the float range stops the
        # measure; the float reads above compare those outcomes
        pass
    else:
        assert outcome(lambda: weights) == outcome(lambda: ref_facet_weights(P))
    for y in DIRECTIONS:
        got = P.support(y[:d])
        assert type(got) is F and got == ref_support(P, y[:d])
    for normal, offset in CUTS:
        if not any(normal[:d]):
            continue
        assert P.clip(normal[:d], offset).vertices == ref_clip_vertices(P, normal[:d], offset)


def assert_hash_is_the_values(P):
    """Equal bodies have equal hashes, whatever built them."""
    same = [Polytope.construct(P.vertices, P.ambient_dim),
            Polytope(P.ambient_dim, P.q, P.images, P.planes)]
    if all(type(x) is F for v in P.vertices for x in v):
        floats = [tuple(map(float, v)) for v in P.vertices]
        if [tuple(map(F, v)) for v in floats] == list(P.vertices):
            same.append(Polytope.construct(floats, P.ambient_dim))
    for Q in same:
        assert Q == P and hash(Q) == hash(P)


def scaled_float_points(scale):
    """Points whose coordinates are Fractions made from floats near the
    scale: big denominators, and at 1e-300 huge ones."""
    coord = st.floats(-4, 4, allow_nan=False, allow_infinity=False).map(
        lambda x: F(x * scale))
    return st.integers(1, 3).flatmap(
        lambda d: st.lists(st.tuples(*[coord] * d), min_size=1, max_size=9).map(
            lambda pts: (d, pts)))


@settings(max_examples=200, deadline=None)
@given(intake_inputs())
@example((2, [(-0.0, 0.0), (1.0, -0.0), (0.0, 1.0)]))
@example((3, [(-0.0, 1e-300, 5e-324), (1e300, -0.0, 0.1), (0.1, 0.2, 0.3),
              (-0.0, -0.0, 1.0)]))
@example((2, [("1/3", 0.5), (F(2, 3), np.int64(1)), (1, np.float64(0.75)),
              (0.25, 3), ("1/3", 0.5)]))
def test_readers_on_every_intake_type(data):
    d, pts = data
    P = Polytope.construct(pts, d)
    assert_readers_match(P)
    assert_hash_is_the_values(P)
    R = Polytope.construct(as_points_reference(pts), d)
    assert R == P and hash(R) == hash(P)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1.0, 2.0 ** -30, 1e-300)).flatmap(scaled_float_points))
def test_readers_on_float_coordinates_at_every_scale(data):
    d, pts = data
    P = Polytope.construct(pts, d)
    assert_readers_match(P)
    assert_hash_is_the_values(P)


flat_3d = st.tuples(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=0, max_size=2),
    st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=1, max_size=7),
    st.sampled_from((F(1), F(1, 3), F(2.0 ** -30), F(1e-300))))


@settings(max_examples=150, deadline=None)
@given(flat_3d)
def test_readers_on_flat_bodies_in_space(data):
    """Points, segments and polygons in space: b + A t for one or two
    directions A, at a unit."""
    b, A, ts, unit = data
    pts = [tuple(unit * (b[i] + sum(a[i] * t for a, t in zip(A, tt))) for i in range(3))
           for tt in ts]
    P = Polytope.construct(pts, 3)
    assert P.intrinsic_dim < 3
    assert_readers_match(P)
    assert_hash_is_the_values(P)


float_walks = st.lists(
    st.tuples(st.floats(-8, 8, allow_nan=False, allow_infinity=False),
              st.floats(-8, 8, allow_nan=False, allow_infinity=False)),
    min_size=3, max_size=12)


@settings(max_examples=150, deadline=None)
@given(float_walks, st.sampled_from((1.0, 2.0 ** -30, 1e-300)))
def test_readers_on_float_polygons(pts, scale):
    arr = np.array(pts, dtype=float) * scale
    P = Polytope.construct(arr)
    R = Polytope.construct([tuple(map(F, p)) for p in arr.tolist()], 2)
    assert P == R and hash(P) == hash(R)
    if isinstance(P, _FloatPolygon):
        assert (P.q, P.images) == (R.q, R.images)
    assert_readers_match(P)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3).map(F)] * 3), min_size=4, max_size=10),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_equal_bodies_hash_equal_through_clip_translate_and_face(pts, vec):
    P = Polytope.construct(pts, 3)
    made = [P.clip(vec, F(1, 2)), P.translate(vec), P.translate([F(x, 3) for x in vec])]
    if P.intrinsic_dim == 3:
        made += [P.face(idx) for _, idx in P._facets] + [P.face(e) for e in P.edge_list]
    for Q in made:
        assert_hash_is_the_values(Q)
        assert_readers_match(Q)


def pl_inputs():
    """A domain in R^1 or R^2 of any rank, from any intake type, and one
    to four pieces with integer, rational and float coefficients."""
    coef = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
                     st.floats(-3, 3, allow_nan=False, allow_infinity=False))
    return intake_inputs().filter(lambda data: data[0] < 3).flatmap(
        lambda data: st.tuples(st.just(data), st.lists(
            st.tuples(st.lists(coef, min_size=data[0], max_size=data[0]), coef),
            min_size=1, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(pl_inputs())
def test_function_readers_on_rows(data):
    (d, pts), pieces = data
    domain = Polytope.construct(pts, d)
    u = PLConvexFunction.from_pieces(domain, pieces)
    raw = sorted({(tuple(map(F, g)), F(b)) for g, b in pieces})
    if domain.intrinsic_dim < d:
        raw = sorted({_project_piece(p, domain) for p in raw})
    level = ref_top(domain, raw) + 1
    epi = ref_epigraph(domain, raw, level)
    assert u.epigraph.vertices == epi.vertices
    assert u.epigraph.halfspaces == epi.halfspaces
    assert _epigraph(domain, raw, level).vertices == epi.vertices
    for p in raw:
        assert [epi.vertices[i][:-1] for i in _tight(epi, _row(p))] == ref_tight(epi, p)
    kept = tuple(p for p in raw if (tp := ref_tight(epi, p))
                 and ref_rank(tp) == domain.intrinsic_dim)
    assert u.pieces == kept
    assert u.max_value == ref_top(domain, kept) == level - 1
    for (_, _, cell), p in zip(u.cells, kept):
        assert cell == Polytope.construct(ref_tight(u.epigraph, p), d)
    same = PLConvexFunction(Polytope.construct(domain.vertices, d), tuple(reversed(u.pieces)))
    assert same == u and hash(same) == hash(u)


def test_flat_halfspaces_of_edges_match_the_rational_gram_schmidt():
    """The edge faces of CaseGenerator(7, 3) bodies 0-9: the integer
    complement and lifts give the halfspaces of the rational ones."""
    gen = CaseGenerator(7, 3)
    seen = 0
    for i in range(10):
        P = gen.body(i)
        q, ints = P.q, P.images
        for face, _ in faces_with_cones(P, 1):
            idx = [P.vertices.index(v) for v in face.vertices]
            keys = [ints[j] for j in idx]
            basis = [sub(keys[1], keys[0])]
            ref = ref_flat_halfspaces(keys, basis)
            assert bodies._hull_flat(keys, basis)[1] == ref
            assert face.halfspaces == tuple((m, F(c, q)) for m, c in sorted(ref))
            seen += 1
    assert seen > 100


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.lists(st.integers(-5, 5), min_size=d, max_size=d),
                         max_size=d))))
def test_integer_complement_matches_the_rational_one(data):
    d, vecs = data
    basis = [tuple(v) for v in vecs]
    if mat_rank(basis or [[0] * d]) < len(basis):
        return
    comp = int_complement(basis, d)
    assert comp == [primitive(w) for w in orthogonal_complement(basis, d)]
    for v in itertools.product(range(-2, 3), repeat=d):
        if comp and any(v):
            r = reject(v, comp)
            got = int_reject(v, comp)
            assert any(got) == any(r)
            if any(r):
                assert bodies._iprimitive(got) == primitive(r)
