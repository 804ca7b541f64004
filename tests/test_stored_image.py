"""A body stores one form, its canonical integer image, on every route
that builds it.

Each route (construct from every intake type and from a float (k, 2)
array, clip, face, translate, scale, reflect_last, the prism of an
epigraph and a moved lid) must store the least common denominator q of
the vertices and the images q * v that _integer_image reads off the
Fraction vertices; its Fraction halfspaces must be those the Fraction
implementations below give, which are the ones the bodies stored before
they stored the image; and a body must equal, with the same hash, the
one construct builds from its vertices.  No route makes the Fraction
views: they are made on first read.
"""

from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

from epival import bodies
from epival.bodies import Polytope, _integer_image, _move_lid, _prism
from epival.linalg import dot
from test_bodies import as_points_reference, intake_inputs
from test_image_readers import float_walks, ref_canon_halfspace, ref_clip_vertices

# ---------------------------------------------------------------------------
# the Fraction implementations: (vertices, halfspaces) of each route


def ref_construct(points, d):
    """The hull on the integer image of the Fraction points, with each
    offset over q."""
    points = [tuple(map(F, p)) for p in points]
    if not points:
        return (), ()
    q, keys = _integer_image(points)
    keys = sorted(set(keys))
    kept, hs, _ = bodies._hull(keys, bodies._affine_basis(keys))
    return (tuple(tuple(F(x, q) for x in p) for p in kept),
            tuple(sorted((m, F(c, q)) for m, c in hs)))


def ref_clip(P, normal, offset):
    m, c = ref_canon_halfspace([F(x) for x in normal], F(offset))
    vals = [dot(m, v) - c for v in P.vertices]
    verts = ref_clip_vertices(P, normal, offset)
    if all(s <= 0 for s in vals) or not verts:
        return verts, P.halfspaces if verts else ()
    if P.intrinsic_dim == P.ambient_dim and min(vals) < 0:
        kept = [h for h, (_, idx) in zip(P.halfspaces, P._facets)
                if any(vals[i] < 0 for i in idx)]
        return verts, tuple(sorted(kept + [(m, c)]))
    return ref_construct(verts, P.ambient_dim)


def ref_translate(P, shift):
    t = [F(x) for x in shift]
    return (tuple(sorted(tuple(x + y for x, y in zip(v, t)) for v in P.vertices)),
            tuple(sorted((m, c + dot(m, t)) for m, c in P.halfspaces)))


def ref_scale(P, t):
    return (tuple(sorted(tuple(t * x for x in v) for v in P.vertices)),
            tuple(sorted((m, t * c) for m, c in P.halfspaces)))


def ref_reflect_last(P):
    def flip(p):
        return p[:-1] + (-p[-1],)
    return (tuple(sorted(map(flip, P.vertices))),
            tuple(sorted((flip(m), c) for m, c in P.halfspaces)))


def ref_prism(P, lo, level):
    z = (0,) * P.ambient_dim
    return (tuple(sorted(v + (t,) for v in P.vertices for t in (lo, level))),
            tuple(sorted([(m + (0,), c) for m, c in P.halfspaces]
                         + [(z + (1,), level), (z + (-1,), -lo)])))


def ref_move_lid(E, old, level):
    top = ((0,) * (E.ambient_dim - 1) + (1,), old)
    return (tuple(v[:-1] + (level,) if v[-1] == old else v for v in E.vertices),
            tuple((h[0], level) if h == top else h for h in E.halfspaces))


# ---------------------------------------------------------------------------
# the check


def assert_stored_form(P, ref):
    """P stores the canonical image of the reference vertices and has the
    reference halfspaces; construct on its vertices gives an equal body
    with the same hash."""
    verts, hs = ref
    assert P.vertices == tuple(verts)
    assert (P.q, list(P.images)) == _integer_image(P.vertices)
    assert P.halfspaces == tuple(hs)
    assert all(type(c) is F for _, c in P.halfspaces)
    same = Polytope.construct(P.vertices, P.ambient_dim)
    assert same == P and hash(same) == hash(P)


rational = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6),
                     st.sampled_from((0.1, -2.5, 1e-300)))


@settings(max_examples=200, deadline=None)
@given(intake_inputs(), st.lists(rational, min_size=4, max_size=4),
       st.fractions(F(1, 9), 5, max_denominator=9), st.fractions(0, 4, max_denominator=5),
       float_walks, st.sampled_from((1.0, 2.0 ** -30, 1e-300)))
def test_every_route_stores_the_canonical_image(data, vec, factor, rise, walk, unit):
    d, pts = data
    P = Polytope.construct(pts, d)
    arr = np.array(walk, dtype=float) * unit
    polygon = Polytope.construct(arr)
    if isinstance(polygon, bodies._FloatPolygon):
        assert not {"q", "images", "planes"} & set(polygon.__dict__)
    normal, shift, offset = vec[:d], vec[1:d + 1], vec[-1]
    # each body with its reference, made after every body is built
    made = [(P, lambda: ref_construct(as_points_reference(pts), d)),
            (P.translate(shift), lambda: ref_translate(P, shift)),
            (P.scale(factor), lambda: ref_scale(P, factor)),
            (P.reflect_last(), lambda: ref_reflect_last(P)),
            (polygon, lambda: ref_construct(arr.tolist(), 2))]
    if any(normal):
        made.append((P.clip(normal, offset), lambda: ref_clip(P, normal, offset)))
    if P.intrinsic_dim == d > 1:
        for idx in [idx for _, idx in P._facets] + list(P.edge_list):
            made.append((P.face(idx), lambda idx=idx: ref_construct(
                [P.vertices[i] for i in idx], d)))
    if d < 3 and not P.is_empty:
        lo, top, level = F(-1), F(-1) + factor, F(-6, 7) + rise
        prism = _prism(P, lo, top)
        made += [(prism, lambda: ref_prism(P, lo, top)),
                 (_move_lid(prism, top, level), lambda: ref_move_lid(prism, top, level))]
    # the Fraction views are made on first read, not by the route
    for Q, _ in made:
        assert "vertices" not in Q.__dict__ and "halfspaces" not in Q.__dict__
    for Q, ref in made:
        assert_stored_form(Q, ref())
    # equal bodies by other routes
    back = [P.translate(shift).translate([-F(x) for x in shift]),
            P.scale(factor).scale(1 / factor), P.reflect_last().reflect_last()]
    for Q in back:
        assert Q == P and hash(Q) == hash(P)
