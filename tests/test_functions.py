import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epival.bodies import GeometryError, Polytope, _affine_rank
from epival.cases import CaseGenerator
from epival.functions import (
    EpiMinNotConvex,
    MaxAffine,
    PLConvexFunction,
    _as_piece,
    _epigraph,
    _move_lid,
    _prism,
    _project_piece,
    epi_distance,
)
from epival.linalg import dot, sub


def absfun():
    return PLConvexFunction.lower_envelope([(-1, 1), (0, 0), (1, 1)])


def boxfun():
    # max(|x1|, |x2|) on [-1,1]^2
    S = Polytope.construct([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    return PLConvexFunction.from_pieces(
        S, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)]
    )


def random_envelope(rng, n, npts=None):
    npts = npts or rng.randint(n + 1, n + 5)
    pts = []
    for _ in range(npts):
        x = tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
        t = F(rng.randint(-6, 6), rng.randint(1, 3))
        pts.append(x + (t,))
    return PLConvexFunction.lower_envelope(pts)


class TestConstruction:
    def test_abs_canonical(self):
        u = absfun()
        assert u.pieces == (((F(-1),), F(0)), ((F(1),), F(0)))
        assert u.evaluate((F(1, 2),)) == F(1, 2)
        assert u.evaluate((2,)) is None
        assert u.min_value == 0 and u.max_value == 1

    def test_dominated_piece_dropped(self):
        dom = Polytope.construct([(0,), (1,)], 1)
        u = PLConvexFunction.from_pieces(dom, [((0,), 0), ((0,), -1), ((1,), -5)])
        assert u.pieces == (((F(0),), F(0)),)

    def test_collinear_envelope_is_affine(self):
        u = PLConvexFunction.lower_envelope([(0, 0), (1, 1), (2, 2)])
        assert u.pieces == (((F(1),), F(0)),)
        assert u.domain.vertices == ((F(0),), (F(2),))

    def test_point_domain(self):
        dom = Polytope.construct([(3, 4)], 2)
        u = PLConvexFunction.from_pieces(dom, [((1, 1), 0), ((0, 0), 2)])
        assert u.pieces == (((F(0), F(0)), F(7)),)
        assert u.evaluate((3, 4)) == 7

    def test_segment_domain_gradient_projection(self):
        # x2 is constant 0 on the segment, so gradients differing only in
        # the second slot collapse to one canonical piece
        dom = Polytope.construct([(0, 0), (1, 0)], 2)
        u = PLConvexFunction.from_pieces(dom, [((1, 5), 0), ((1, -3), 0)])
        assert len(u.pieces) == 1
        assert u.evaluate((F(1, 2), 0)) == F(1, 2)

    def test_vertical_segment_envelope(self):
        u = PLConvexFunction.lower_envelope([(2, 5), (2, -1), (2, 3)])
        assert u.domain.vertices == ((F(2),),)
        assert u.evaluate((2,)) == -1

    def test_tilted_plane_envelope(self):
        u = PLConvexFunction.lower_envelope([(0, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 1)])
        assert u.pieces == (((F(1), F(0)), F(0)),)

    def test_cells_tile_domain(self):
        v = boxfun()
        assert len(v.cells) == 4
        total = sum(c.volume for _, _, c in v.cells)
        assert total == v.domain.volume

    def test_serialization_round_trip(self):
        for u in (absfun(), boxfun()):
            assert PLConvexFunction.from_dict(u.to_dict()) == u


class TestDictionary:
    def test_body_of_abs(self):
        K = absfun().body_of()
        assert set(K.vertices) == {
            (F(-1), F(1)), (F(0), F(0)), (F(0), F(2)), (F(1), F(1)),
        }
        assert K.volume == 2

    def test_body_of_box(self):
        assert boxfun().body_of().volume == F(8, 3)

    def test_body_of_constant_is_flat(self):
        dom = Polytope.construct([(0,), (1,)], 1)
        K = PLConvexFunction.constant(dom, F(1, 2)).body_of()
        assert K.intrinsic_dim == 1
        assert set(K.vertices) == {(F(0), F(1, 2)), (F(1), F(1, 2))}

    def test_floor_inverts_body_lower_part(self):
        rng = random.Random(3)
        for n in (1, 2):
            for _ in range(12):
                u = random_envelope(rng, n)
                assert PLConvexFunction.floor_of(u.epigraph) == u

    def test_floor_of_cube(self):
        C = Polytope.construct(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        )
        u = PLConvexFunction.floor_of(C)
        assert u == PLConvexFunction.constant(
            Polytope.construct([(0, 0), (1, 0), (1, 1), (0, 1)]), 0
        )

    def test_floor_of_needs_a_graph_axis(self):
        for body in (Polytope.empty(1), Polytope.construct([(0,), (1,)], 1)):
            with pytest.raises(GeometryError):
                PLConvexFunction.floor_of(body)

    def test_floor_of_rotated_square(self):
        K = Polytope.construct([(0, 0), (1, 1), (0, 2), (-1, 1)])
        u = PLConvexFunction.floor_of(K)
        assert u == absfun()


class TestConjugate:
    def test_abs_conjugate_closed_form(self):
        c = absfun().fenchel_conjugate()
        for y in [F(0), F(1, 2), F(2), F(-3), F(7, 3)]:
            assert c.evaluate((y,)) == max(F(0), abs(y) - 1)

    def test_linear_conjugate(self):
        dom = Polytope.construct([(0,), (1,)], 1)
        u = PLConvexFunction.affine(dom, (1,), 0)
        c = u.fenchel_conjugate()
        for y in [F(-2), F(0), F(1), F(5, 2)]:
            assert c.evaluate((y,)) == max(F(0), y - 1)

    def test_support_identity_random(self):
        # conjugate equals the support of the associated body evaluated at
        # downward directions, exactly
        rng = random.Random(17)
        for n in (1, 2):
            for _ in range(10):
                u = random_envelope(rng, n)
                c = u.fenchel_conjugate()
                K = u.body_of()
                for _ in range(6):
                    y = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
                    assert c.evaluate(y) == K.support(y + (F(-1),))

    def test_fenchel_young(self):
        rng = random.Random(23)
        for n in (1, 2):
            for _ in range(8):
                u = random_envelope(rng, n)
                c = u.fenchel_conjugate()
                for g, b, cell in u.cells:
                    for x in cell.vertices:
                        # equality at subgradients
                        assert u.evaluate(x) + c.evaluate(g) == sum(
                            a * t for a, t in zip(x, g)
                        )
                for _ in range(4):
                    x = u.domain.centroid
                    y = tuple(F(rng.randint(-5, 5), 2) for _ in range(n))
                    assert u.evaluate(x) + c.evaluate(y) >= sum(
                        a * t for a, t in zip(x, y)
                    )


class TestEpiOperations:
    def test_epi_scale_matches_body_scaling(self):
        rng = random.Random(31)
        for n in (1, 2):
            for _ in range(6):
                u = random_envelope(rng, n)
                t = F(rng.randint(1, 7), rng.randint(1, 4))
                assert u.epi_scale(t).body_of() == u.body_of().scale(t)

    def test_epi_translate_matches_body_translation(self):
        rng = random.Random(37)
        for n in (1, 2):
            for _ in range(6):
                u = random_envelope(rng, n)
                s = tuple(F(rng.randint(-4, 4), 2) for _ in range(n))
                c = F(rng.randint(-3, 3))
                assert u.epi_translate(s, c).body_of() == u.body_of().translate(s + (c,))

    def test_epi_scale_value(self):
        u = absfun().epi_scale(2)
        assert u.evaluate((1,)) == 1
        assert u.evaluate((2,)) == 2
        assert u.domain.vertices == ((F(-2),), (F(2),))


class TestLattice:
    def test_max_min_of_floors_on_split_bodies(self):
        rng = random.Random(41)
        for _ in range(10):
            u = random_envelope(rng, 1, 5)
            K = u.body_of()
            lo = min(v[0] for v in K.vertices)
            hi = max(v[0] for v in K.vertices)
            a = lo + (hi - lo) * F(1, 3)
            b = lo + (hi - lo) * F(2, 3)
            L = K.clip((1, 0), b)
            R = K.clip((-1, 0), -a)
            fl = PLConvexFunction.floor_of
            assert fl(L.intersect(R)) == fl(L).pointwise_max(fl(R))
            assert fl(L.convex_union(R)) == fl(L).pointwise_min(fl(R))

    def test_min_rejects_nonconvex(self):
        dom = Polytope.construct([(0,), (1,)], 1)
        u = PLConvexFunction.constant(dom, 0)
        v = PLConvexFunction.affine(dom, (1,), F(-1, 2))
        with pytest.raises(EpiMinNotConvex):
            u.pointwise_min(v)

    def test_min_rejects_agreeing_at_domain_endpoints(self):
        # the convex envelope of min(x, 1-x) is 0, which agrees with the
        # minimum at both domain endpoints, so a vertex check on the
        # inputs' cells alone would pass; the epigraph union is
        # disconnected at low levels and the test still rejects
        dom = Polytope.construct([(0,), (1,)], 1)
        u = PLConvexFunction.affine(dom, (1,), 0)
        v = PLConvexFunction.affine(dom, (-1,), 1)
        with pytest.raises(EpiMinNotConvex):
            u.pointwise_min(v)

    def test_min_overlapping_domains_above_minimum(self):
        # one input sits strictly above the other on a shared domain;
        # the minimum is the lower input and must not be rejected
        dom = Polytope.construct([(0,), (1,)], 1)
        u = PLConvexFunction.constant(dom, 0)
        v = PLConvexFunction.from_pieces(dom, [((2,), -1), ((-2,), 1)])
        assert v.evaluate((0,)) == 1 and v.evaluate((1,)) == 1
        assert u.pointwise_min(v) == u

    def test_min_disjoint_domains_collinear(self):
        a = PLConvexFunction.affine(Polytope.construct([(0,), (1,)], 1), (1,), 0)
        b = PLConvexFunction.affine(Polytope.construct([(1,), (2,)], 1), (1,), 0)
        m = a.pointwise_min(b)
        assert m.domain.vertices == ((F(0),), (F(2),))

    def test_min_disjoint_domains_rejected(self):
        a = PLConvexFunction.constant(Polytope.construct([(0,), (1,)], 1), 0)
        b = PLConvexFunction.constant(Polytope.construct([(2,), (3,)], 1), 0)
        with pytest.raises(EpiMinNotConvex):
            a.pointwise_min(b)

    def test_max_with_disjoint_domain_is_empty(self):
        a = PLConvexFunction.constant(Polytope.construct([(0,), (1,)], 1), 0)
        b = PLConvexFunction.constant(Polytope.construct([(2,), (3,)], 1), 0)
        assert a.pointwise_max(b).is_empty

    def test_results_are_kept_per_operand(self):
        dom = Polytope.construct([(0,), (1,)], 1)
        u = PLConvexFunction.constant(dom, 0)
        v = PLConvexFunction.from_pieces(dom, [((2,), -1), ((-2,), 1)])
        lo, hi = u.pointwise_min(v), u.pointwise_max(v)
        assert u.pointwise_min(v) is lo and u.pointwise_max(v) is hi
        # an equal operand that is another object finds the same results
        twin = PLConvexFunction(v.domain, v.pieces)
        assert twin is not v
        assert u.pointwise_min(twin) is lo and u.pointwise_max(twin) is hi
        assert lo == u and hi == v

    def test_not_convex_raises_anew_on_every_call(self):
        dom = Polytope.construct([(0,), (1,)], 1)
        u = PLConvexFunction.affine(dom, (1,), 0)
        v = PLConvexFunction.affine(dom, (-1,), 1)
        raised = []
        for other in (v, v, PLConvexFunction(v.domain, v.pieces)):
            with pytest.raises(EpiMinNotConvex) as info:
                u.pointwise_min(other)
            raised.append(info.value)
        assert len({id(e) for e in raised}) == 3

    def test_empty_operands(self):
        u = absfun()
        empty = PLConvexFunction.empty(1)
        assert u.pointwise_min(empty) is u and empty.pointwise_min(u) is u
        assert empty.pointwise_min(empty) is empty
        for a, b in ((u, empty), (empty, u), (empty, empty)):
            assert a.pointwise_max(b) == empty

    @pytest.mark.parametrize("d", [2, 3])
    def test_minimum_of_split_floors_carries_its_epigraph(self, d):
        gen = CaseGenerator(7, d)
        for i in range(6):
            K, L = gen.split_pair(i)
            u, v = PLConvexFunction.floor_of(K), PLConvexFunction.floor_of(L)
            level = max(u.max_value, v.max_value) + 1
            for w in (u, v):
                moved = w._epigraph_at(level)
                fresh = Polytope.construct(moved.vertices, d)
                assert (moved.vertices, moved.halfspaces) == (fresh.vertices, fresh.halfspaces)
            lo = u.pointwise_min(v)
            assert lo == PLConvexFunction.floor_of(K.convex_union(L))
            epi = lo.__dict__["epigraph"]
            ref = _epigraph(lo.domain, lo.pieces, lo.max_value + 1)
            assert (epi.vertices, epi.halfspaces) == (ref.vertices, ref.halfspaces)
            assert_carried_views(epi)


class TestSublevel:
    def test_sublevel_abs(self):
        u = absfun()
        s = u.sublevel_set(F(1, 2))
        assert s.vertices == ((F(-1, 2),), (F(1, 2),))
        assert u.sublevel_set(-1).is_empty
        assert u.sublevel_set(5) == u.domain

    def test_sublevel_box(self):
        v = boxfun()
        s = v.sublevel_set(F(1, 2))
        assert s.volume == 1


class TestEpiDistance:
    def test_identical(self):
        assert epi_distance(absfun(), absfun()) == 0.0

    def test_translate_small(self):
        u = absfun()
        v = u.epi_translate((F(1, 100),), 0)
        d = epi_distance(u, v)
        assert 0 < d < 0.05

    def test_cap_at_one(self):
        u = absfun()
        v = u.epi_translate((100,), 0)
        assert epi_distance(u, v) == 1.0

    def test_empty_conventions(self):
        e = PLConvexFunction.empty(1)
        assert epi_distance(e, e) == 0.0
        assert epi_distance(e, absfun()) == 1.0

    def test_decreasing_under_vertex_perturbation(self):
        base = [(-1, 1), (0, 0), (1, 1)]
        u = PLConvexFunction.lower_envelope(base)
        prev = None
        for j in range(1, 8):
            eps = F(1, 2 ** j)
            pts = [(-1 + eps, 1), (0, eps), (1, 1 + eps)]
            d = epi_distance(u, PLConvexFunction.lower_envelope(pts))
            if prev is not None:
                assert d <= prev + 1e-12
            prev = d
        assert prev < 1e-2


coord = st.integers(min_value=-6, max_value=6)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(coord, coord), min_size=2, max_size=6),
    st.tuples(coord, coord),
)
def test_envelope_minorizes_input_points(pts, q):
    u = PLConvexFunction.lower_envelope(pts)
    for x, t in pts:
        val = u.evaluate((x,))
        assert val is not None and val <= t
    val = u.evaluate((q[0],))
    if val is not None:
        # value is a convex combination certificate: never below the best
        # affine minorant through the input points
        assert val >= min(t for _, t in pts)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coord, coord, coord), min_size=3, max_size=7))
def test_envelope_convexity_midpoints(pts):
    u = PLConvexFunction.lower_envelope(pts)
    vs = u.complex_vertices
    for a in vs:
        for b in vs:
            mid = tuple((x + y) / 2 for x, y in zip(a, b))
            va, vb, vm = u.evaluate(a), u.evaluate(b), u.evaluate(mid)
            assert vm is not None and vm <= (va + vb) / 2


# ---- the derivations the truncated epigraph replaced, as references -------


def pairwise_pieces(domain, pieces):
    """Minimal pieces: clip the domain by every other piece and keep the
    pieces whose region has the dimension of the domain."""
    raw = [_as_piece(g, b) for g, b in pieces]
    k = domain.intrinsic_dim
    if k < domain.ambient_dim:
        raw = [_project_piece(p, domain) for p in raw]
    if k == 0:
        x0 = domain.vertices[0]
        return (((F(0),) * domain.ambient_dim, max(dot(g, x0) + b for g, b in raw)),)
    raw = sorted(set(raw))
    kept = []
    for g, b in raw:
        region = domain
        for h, c in raw:
            if (h, c) != (g, b):
                region = region.clip(sub(h, g), b - c)
        if not region.is_empty and region.intrinsic_dim == k:
            kept.append((g, b))
    return tuple(kept)


def pairwise_cells(u):
    out = []
    for g, b in u.pieces:
        region = u.domain
        for h, c in u.pieces:
            if (h, c) != (g, b):
                region = region.clip(sub(h, g), b - c)
        out.append((g, b, region))
    return out


def graph_hull_conjugate(u, verts):
    """Conjugate pieces (v, -u(v)) at the extreme points of the graph,
    found as the vertices of the hull of the graph points."""
    hull = Polytope.construct([v + (u.evaluate(v),) for v in verts], u.n + 1)
    return tuple(sorted((p[:-1], -p[-1]) for p in hull.vertices))


small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def domain_and_pieces(draw):
    n = draw(st.sampled_from((1, 2)))
    # one or two points give a point or a segment, collinear ones a flat
    # domain in the plane
    pts = draw(st.lists(st.tuples(*[small] * n), min_size=1, max_size=4))
    pieces = draw(st.lists(st.tuples(st.tuples(*[small] * n), small),
                           min_size=1, max_size=4))
    g, b = pieces[0]
    if draw(st.booleans()):
        pieces.append((g, b))
    if draw(st.booleans()):
        pieces.append((g, b - 1))
    return Polytope.construct(pts, n), pieces


@settings(max_examples=80, deadline=None)
@given(domain_and_pieces())
def test_epigraph_matches_old_derivations(case):
    dom, pieces = case
    u = PLConvexFunction.from_pieces(dom, pieces)
    assert u.pieces == pairwise_pieces(dom, pieces)
    cells = pairwise_cells(u)
    assert [(g, b, c.vertices, c.halfspaces) for g, b, c in u.cells] == [
        (g, b, c.vertices, c.halfspaces) for g, b, c in cells]
    verts = tuple(sorted(set(dom.vertices).union(
        *(c.vertices for _, _, c in cells))))
    assert u.complex_vertices == verts
    assert u.min_value == min(u.evaluate(v) for v in verts)
    assert u.fenchel_conjugate().pieces == graph_hull_conjugate(u, verts)
    # the epigraph handed over by from_pieces is the one built from the
    # kept pieces
    fresh = PLConvexFunction(u.domain, u.pieces).epigraph
    assert fresh == u.epigraph and fresh.halfspaces == u.epigraph.halfspaces
    assert PLConvexFunction.floor_of(u.epigraph) == u
    assert PLConvexFunction.empty(u.n).complex_vertices == ()


def assert_carried_views(body):
    """Each face view the body carries equals the one derived afresh."""
    fresh = Polytope(body.ambient_dim, body.q, body.images, body.planes)
    assert body.intrinsic_dim == fresh.intrinsic_dim
    for name in ("_facets", "boundary_cycle", "edge_list"):
        if name in body.__dict__:
            assert body.__dict__[name] == getattr(fresh, name), name


@st.composite
def lid_cases(draw):
    """A function, from the case family or on a flat domain (a point in
    R^1 or R^2, a segment in R^2), and the levels to move its lid to."""
    kind = draw(st.sampled_from(("family", "point", "segment")))
    if kind == "family":
        n = draw(st.sampled_from((1, 2)))
        u = CaseGenerator(7, n).pl_function(draw(st.integers(0, 29)))
    else:
        n = 2 if kind == "segment" else draw(st.sampled_from((1, 2)))
        size = 1 if kind == "point" else 2
        pts = draw(st.lists(st.tuples(*[small] * n), min_size=size, max_size=size,
                            unique=True))
        pieces = draw(st.lists(st.tuples(st.tuples(*[small] * n), small),
                               min_size=1, max_size=3))
        u = PLConvexFunction.from_pieces(Polytope.construct(pts, n), pieces)
    rises = draw(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=7),
                          min_size=1, max_size=3))
    return u, rises


@settings(max_examples=60, deadline=None)
@given(lid_cases())
def test_a_moved_lid_is_the_epigraph_at_that_level(case):
    u, rises = case
    own = u.max_value + 1
    epi = u.epigraph
    # derive the views the move carries, so that it carries them
    names = ("_facets", "edge_list") + (("boundary_cycle",) if epi.intrinsic_dim == 2 else ())
    for name in names:
        getattr(epi, name)
    assert u._epigraph_at(own) is epi
    for rise in rises:
        level = own + rise
        moved = u._epigraph_at(level)
        ref = _epigraph(u.domain, u.pieces, level)
        assert (moved.vertices, moved.halfspaces) == (ref.vertices, ref.halfspaces)
        top = (0,) * u.n + (1,)
        assert (top, level) in moved.halfspaces
        assert all(name in moved.__dict__ for name in ("_facets", "edge_list"))
        assert_carried_views(moved)
        # and back down to the function's own level
        back = _move_lid(moved, level, own)
        assert (back.vertices, back.halfspaces) == (epi.vertices, epi.halfspaces)


def test_max_value_is_the_largest_vertex_value():
    for n in (1, 2):
        gen = CaseGenerator(7, n)
        for i in range(10):
            u = gen.pl_function(i)
            want = max(u.evaluate(v) for v in u.domain.vertices)
            assert u.max_value == want and type(u.max_value) is type(want)


def test_prism_records_the_rank_of_its_vertices():
    # the epigraph's first clip reads the recorded rank instead of running
    # the Fraction rank computation; it must be the vertices' affine rank
    segment = Polytope.construct([(0, 0), (1, 1)], 2)
    fns = [PLConvexFunction.from_pieces(segment, [((1, 0), 0), ((0, 1), 1)]),
           PLConvexFunction.from_pieces(Polytope.construct([(F(1, 3), 2)], 2),
                                        [((1, 1), 0)])]
    for n in (1, 2):
        gen = CaseGenerator(7, n)
        fns += [gen.pl_function(i) for i in range(10)]
    for u in fns:
        level = u.max_value + 1
        for lo in (u.max_value - 3, level - F(1, 7)):
            prism = _prism(u.domain, lo, level)
            assert prism.__dict__["intrinsic_dim"] == _affine_rank(list(prism.vertices))
        epi = _epigraph(u.domain, u.pieces, level)
        assert epi.intrinsic_dim == _affine_rank(list(epi.vertices))


def test_numpy_int_vectors_read_as_python_ints():
    # a Fraction keeps a numpy int as its numerator, whose products wrap
    # around at 2**63; the exact readers take it through int instead, so
    # every result equals the Python-int call's, with no overflow warning
    tri = Polytope.construct([(0, 0), (1, 0), (0, 1)], 2)
    u = PLConvexFunction.from_pieces(tri, [((1, 0), 0), ((0, 1), 0)])
    big = 2 ** 62
    far_tri = tri.translate((big, big))
    far_u = u.epi_translate((big, big), big)
    conj = u.fenchel_conjugate()

    def body(P):
        return P.vertices, P.halfspaces

    calls = {
        "translate": lambda a, b: body(tri.translate((a, b))),
        "contains": lambda a, b: far_tri.contains((a, b)),
        "support": lambda a, b: far_tri.support((a, b)),
        "clip": lambda a, b: body(far_tri.clip((a, 3), b)),
        "evaluate": lambda a, b: far_u.evaluate((a, b)),
        "epi_translate": lambda a, b: (lambda w: (body(w.domain), w.pieces))(
            u.epi_translate((a, b), a)),
        "MaxAffine.evaluate": lambda a, b: conj.evaluate((a, b)),
    }
    for name, call in calls.items():
        want = call(big, big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = call(np.int64(big), np.int64(big))
        assert got == want, name
