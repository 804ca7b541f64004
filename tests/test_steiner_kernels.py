"""The Steiner kernels against their row-major references, bit for bit.

nearest_points works facets-major on coordinate rows, the flow-out
oracle's hit test sums coordinate columns, and the adaptive triangle
quadrature splits a whole level of triangles at once.  The routines they
replaced are kept here as references: the row-major block of
nearest_points with its row clip and edge search, the oracle's hit test
with np.where and row writes, and the recursive quadrature.  Every float
the new routines return must have the references' bits (tobytes()
equality), on the acceptance suite's bodies and functions, on flat
bodies and intervals, and on rows picked to be awkward: vertices, signed
zeros, rows tied between two facets, and blocks cut short.
"""

import itertools
import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest

from epival import bodies, measures, spherical
from epival.bodies import (
    FACET_TOL,
    INSIDE_TOL,
    GeometryError,
    Polytope,
    _segment_clip,
    nearest_points,
)
from epival.cases import CaseGenerator
from epival.measures import (
    MC_TOL,
    _mc_reach,
    faces_with_cones,
    integrate_over_face,
    p_t_volume_mc,
    support_measure,
)
from epival.spherical import DEPTH_CAP_TRI, _adaptive_tri, _tri_rule

T_VALUES = (1e-6, 0.25, 0.5, 1.0, 2.0, 50.0)


# ---------------------------------------------------------------------------
# the references: nearest_points before it ran facets-major


def ref_nearest_points(P, points, *, reach=math.inf):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if P.ambient_dim == 1:
        verts = P.float_vertices
        proj = np.clip(pts, verts.min(), verts.max())
        return np.abs(pts - proj)[:, 0], proj
    dist, proj = np.empty(len(pts)), np.empty_like(pts)
    for lo in range(0, len(pts), bodies.NEAREST_BLOCK):
        rows = slice(lo, lo + bodies.NEAREST_BLOCK)
        dist[rows], proj[rows] = ref_nearest_block(P, pts[rows], reach=reach)
    return dist, proj


def ref_nearest_block(P, x, *, reach=math.inf):
    A, bvec = P.float_halfspaces
    slack = np.maximum(1.0, np.abs(bvec))
    dist, proj = np.zeros(len(x)), x.copy()
    if P.intrinsic_dim < P.ambient_dim:
        rest = np.arange(len(x))
        if P.intrinsic_dim == 2:
            m, c = P.equality_planes[0]
            n = np.array([float(v) for v in m])
            nn = np.linalg.norm(n)
            n, off = n / nn, float(c) / nn
            s = x @ n - off
            cand = x - s[:, None] * n
            ok = np.all(cand @ A.T <= bvec + FACET_TOL * slack, axis=1)
            dist[ok], proj[ok] = np.abs(s[ok]), cand[ok]
            rest = rest[~ok]
    else:
        vals = x @ A.T
        out = np.nonzero(~np.all(vals <= bvec + INSIDE_TOL * slack, axis=1))[0]
        norms = np.linalg.norm(A, axis=1)
        over = (vals[out] - bvec) / norms
        top = np.argmax(over, axis=1)
        far = over[np.arange(len(out)), top] > reach
        if far.any():
            dist[out[far]], proj[out[far]] = np.inf, np.nan
            out, over, top = out[~far], over[~far], top[~far]
        if P.ambient_dim == 2:
            verts = P.float_vertices
            ends = np.array([idx for _, idx in P._facets])[top]
            dist[out], proj[out] = ref_segment_clip(x[out], verts[ends[:, 0]], verts[ends[:, 1]])
            return dist, proj
        at = (np.arange(len(out)), top)
        s = over[at]
        cand = x[out] - s[:, None] * (A[top] / norms[top, None])
        ok = cand @ A.T <= bvec - FACET_TOL * slack
        ok[at] = True
        ok = np.all(ok, axis=1)
        dist[out[ok]], proj[out[ok]] = s[ok], cand[ok]
        rest = out[~ok]
    if len(rest):
        dist[rest], proj[rest] = ref_nearest_edge(P, x[rest])
    return dist, proj


def ref_segment_clip(x, a, b):
    ab = b - a
    tt = np.clip(np.sum((x - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
    cand = a + tt[:, None] * ab
    return np.linalg.norm(x - cand, axis=1), cand


def ref_nearest_edge(P, x):
    verts = P.float_vertices
    if not P.edge_list:
        proj = np.repeat(verts, len(x), axis=0)
        return np.linalg.norm(x - proj, axis=1), proj
    i, j = np.array(P.edge_list).T
    a, ab = verts[i], verts[j] - verts[i]
    diff = [x[:, k] - a[:, k, None] for k in range(x.shape[1])]
    tt = sum(dk * ab[:, k, None] for k, dk in enumerate(diff))
    tt = np.clip(tt / np.sum(ab * ab, axis=1)[:, None], 0.0, 1.0)
    sq = sum((dk - tt * ab[:, k, None]) ** 2 for k, dk in enumerate(diff))
    e = np.argmin(sq, axis=0)
    return ref_segment_clip(x, a[e], verts[j[e]])


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def unit_cube():
    return list(itertools.product((0, 1), repeat=3))


def flat_bodies():
    return [Polytope.construct([(0, 0), (F(3, 7), F(5, 3))], 2),
            Polytope.construct([(F(1, 3), F(-2, 5))], 2),
            Polytope.construct([(0, 0, 0), (1, 0, 0), (F(1, 3), F(5, 7), 0)], 3),
            Polytope.construct([(0, F(1, 9), 0), (1, 2, 3), (2, F(37, 9), 6)], 3),
            Polytope.construct([(F(1, 3), 0, F(-2, 5))], 3),
            Polytope.construct([(F(-1),), (F(7, 3),)], 1),
            Polytope.construct([(F(2, 3),)], 1)]


def bisector_rows(P, rs):
    """Rows v + r (u_f + u_g) off each vertex v of the facets f and g
    through it, u the unit normals: in the normal cone of v, on the
    bisector of f and g, where the two slacks tie in exact arithmetic."""
    A, _ = P.float_halfspaces
    unit = A / np.linalg.norm(A, axis=1)[:, None]
    v = P.float_vertices
    facets = P._facets
    rows = [v[i] + r * (unit[f] + unit[g])
            for f in range(len(facets)) for g in range(f + 1, len(facets))
            for i in set(facets[f][1]) & set(facets[g][1]) for r in rs]
    return np.array(rows).reshape(-1, P.ambient_dim)


def awkward_rows(P):
    """The body's vertices and edge midpoints, their signed-zero and
    negated copies, and rows on the bisectors of its facets."""
    v = P.float_vertices
    rows = [v, 0.5 * (v + v[::-1]), -0.0 * v, np.where(v == 0, -0.0, -v)]
    if P.intrinsic_dim == P.ambient_dim:
        rows.append(bisector_rows(P, np.geomspace(1e-3, 10.0, 40)))
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# nearest_points


def test_nearest_points_keeps_the_row_major_bits():
    rng = np.random.default_rng(29)
    shapes = [CaseGenerator(7, d).body(i) for d in (2, 3) for i in range(10)]
    shapes += flat_bodies()
    # several blocks a call, the last one short
    with mock.patch.object(bodies, "NEAREST_BLOCK", 96):
        for P in shapes:
            d = P.ambient_dim
            v = P.float_vertices
            for t in T_VALUES:
                X = np.vstack([rng.uniform(v.min(0) - 2 * t, v.max(0) + 2 * t, size=(700, d)),
                               awkward_rows(P)])
                for reach in (math.inf, _mc_reach(P, t)):
                    assert_same_bits(nearest_points(P, X, reach=reach),
                                     ref_nearest_points(P, X, reach=reach))


def test_rows_tied_between_two_facets_take_the_first():
    # a triangle whose coordinates differ in size, so that a + (b - a)
    # need not be b: on a tied row the two facets' clips differ in bits
    tri = Polytope.construct([(F(1, 3), F(1, 7)), (100 + F(1, 11), F(1, 13)),
                              (F(1, 17), 50 + F(1, 19))], 2)
    shapes = [tri, Polytope.construct(unit_cube(), 3)]
    shapes += [CaseGenerator(7, d).body(i) for d in (2, 3) for i in range(4)]
    differ = 0
    for P in shapes:
        X = bisector_rows(P, np.geomspace(1e-3, 10.0, 300))
        A, b = P.float_halfspaces
        over = np.sort((X @ A.T - b) / np.linalg.norm(A, axis=1), axis=1)
        X = X[over[:, -1] == over[:, -2]]
        assert len(X) > 0
        assert_same_bits(nearest_points(P, X), ref_nearest_points(P, X))
        if P is tri:
            # the last of the tied facets would move the bits
            over = (X @ A.T - b) / np.linalg.norm(A, axis=1)
            first = np.argmax(over, axis=1)
            last = len(A) - 1 - np.argmax(over[:, ::-1], axis=1)
            ends = np.array([idx for _, idx in P._facets])
            v = P.float_vertices
            ref = ref_segment_clip(X, v[ends[first, 0]], v[ends[first, 1]])[1]
            other = ref_segment_clip(X, v[ends[last, 0]], v[ends[last, 1]])[1]
            differ += np.count_nonzero(np.any(ref != other, axis=1))
    assert differ > 0


def test_column_clip_keeps_signed_zeros():
    # a start a = (-0, -0) and direction (-1, -1) from x = (0, -0): each
    # term (x - a) ab is -0, so tt is +0 only if its sum starts at 0.0,
    # and the projection a + tt ab is -0 only then
    rng = np.random.default_rng(3)
    a = np.vstack([[[-0.0, -0.0]], rng.choice([-0.0, 0.0, 1.5, -2.25], size=(400, 2))])
    b = np.vstack([[[-1.0, -1.0]], rng.choice([-0.0, 0.0, 0.75, 3.0], size=(400, 2))])
    x = np.vstack([[[0.0, -0.0]], rng.choice([-0.0, 0.0, 0.5, -1.0], size=(400, 2))])
    keep = np.any(a != b, axis=1)
    a, b, x = a[keep], b[keep], x[keep]
    ab = b - a
    dist, cand = _segment_clip(x.T.copy(), a.T.copy(), ab.T.copy(), np.sum(ab * ab, axis=1))
    want = ref_segment_clip(x, a, b)
    assert_same_bits((dist, cand.T.copy()), want)
    assert np.signbit(want[1][0]).all()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_rejected(bad):
    shapes = [Polytope.construct([(0, 0), (1, 0), (0, 1)], 2),
              Polytope.construct([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
              Polytope.construct(unit_cube(), 3)] + flat_bodies()
    for P in shapes:
        X = np.zeros((5, P.ambient_dim))
        X[3, -1] = bad
        for reach in (math.inf, 1.0):
            with pytest.raises(GeometryError, match="finite"):
                nearest_points(P, X, reach=reach)
        with pytest.raises(GeometryError, match="finite"):
            P.distances_to(X)


# ---------------------------------------------------------------------------
# the flow-out oracle's hit test


def ref_hits(u, t, gradient_bound):
    """p_t_volume_mc's hit test before it summed coordinate columns, on
    the row-major nearest_points."""
    def hits(Z):
        best_val = np.full(len(Z), np.inf)
        best_x = np.zeros(Z.shape)
        for g, b, region_poly in u.cells:
            gf = np.array([float(x) for x in g])
            shifted = Z - t * gf
            _, xs = ref_nearest_points(region_poly, shifted)
            vals = xs @ gf + float(b) + np.sum((Z - xs) ** 2, axis=1) / (2.0 * t)
            better = vals < best_val
            best_val = np.where(better, vals, best_val)
            best_x[better] = xs[better]
        Y = (Z - best_x) / t
        return (np.all(np.abs(Y) <= gradient_bound + MC_TOL, axis=1),
                lambda k: (best_x[k], Y[k]))
    return hits


def spied(call):
    """call() with measures._mc_volume recording each hit mask, and the
    pairs of the hits, before the region filters them."""
    seen = []
    real = measures._mc_volume

    def spy(verts, t, pad, samples, seed, hits, region):
        def recorded(X):
            hit, pair = hits(X)
            seen.append((hit.copy(), [np.concatenate(pair(k)) for k in np.flatnonzero(hit)]))
            return hit, pair
        return real(verts, t, pad, samples, seed, recorded, region)

    with mock.patch.object(measures, "_mc_volume", spy):
        return call(), seen


def test_flowout_oracle_keeps_its_hits():
    for n in (1, 2):
        for i in range(5):
            u = CaseGenerator(7, n).pl_function(i)
            for t, R in ((0.25, 1.0), (0.75, 2.0)):
                region = lambda x, y: y[0] > 0
                got, got_seen = spied(lambda: p_t_volume_mc(u, region, t, 3000, 17, R))
                want, want_seen = spied(lambda: measures._mc_volume(
                    u.domain.float_vertices, t, t * R, 3000, 17, ref_hits(u, t, R), region))
                assert_same_bits(got, want)
                (hit, pairs), (ref_hit, ref_pairs) = got_seen[0], want_seen[0]
                assert np.array_equal(hit, ref_hit) and hit.any()
                assert_same_bits(pairs, ref_pairs)


# ---------------------------------------------------------------------------
# the adaptive triangle quadrature


def ref_adaptive_tri(v0, v1, v2, g_rows, tol, order, depth=0, whole=None):
    """_adaptive_tri as a recursion: each node's four children in their
    own _tri_rule call."""
    if whole is None:
        whole = _tri_rule(np.array([(v0, v1, v2)]), g_rows, order)[0]
    m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
    subs = ((v0, m01, m20), (m01, v1, m12), (m20, m12, v2), (m01, m12, m20))
    parts = _tri_rule(np.array(subs), g_rows, order)
    fine = sum(parts)
    if abs(fine - whole) < tol * (1.0 + abs(fine)) or depth > DEPTH_CAP_TRI:
        return fine
    return sum(ref_adaptive_tri(*t, g_rows, tol / 4, order, depth + 1, p)
               for t, p in zip(subs, parts))


def recursive():
    """Both modules that call _adaptive_tri call the recursion instead."""
    return mock.patch.multiple(spherical, _adaptive_tri=ref_adaptive_tri), \
        mock.patch.multiple(measures, _adaptive_tri=ref_adaptive_tri)


def bits(x):
    return np.float64(x).tobytes()


def test_breadth_first_quadrature_keeps_the_recursive_bits():
    fs = (lambda x, nu: nu[0] ** 2,
          lambda x, nu: math.sin(3.0 * nu[0]) + nu[-1] ** 3,
          lambda x, nu: x[0] / (1.0 + 10.0 * (nu[0] - 0.1) ** 2))
    g = lambda x: math.cos(float(x[0])) / (1.0 + 10.0 * (float(x[1]) - 0.1) ** 2)
    for i in range(3):
        P = CaseGenerator(7, 3).body(i)
        got = [support_measure(P, order).integrate(f, 1e-6) for order in (0, 1) for f in fs]
        got += [integrate_over_face(face, g, 1e-8) for face, _ in faces_with_cones(P, 2)]
        a, b = recursive()
        with a, b:
            want = [support_measure(P, order).integrate(f, 1e-6)
                    for order in (0, 1) for f in fs]
            want += [integrate_over_face(face, g, 1e-8) for face, _ in faces_with_cones(P, 2)]
        assert list(map(bits, got)) == list(map(bits, want))


@pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-13])
def test_depth_cap_and_fold_order_match_the_recursion(tol):
    # a kink across the triangle: at tol 1e-13 the nodes along it stay
    # open down to DEPTH_CAP_TRI, and the others close at their own levels
    tri = np.array([[0.0, 0.0], [1.0, 1.0 / 3.0], [2.0 / 7.0, 1.0]])

    def counting(calls):
        def g_rows(pts):
            calls.append(len(pts))
            return np.abs(pts[:, 0] - 0.1) * np.exp(pts[:, 1])
        return g_rows

    calls, ref_calls = [], []
    got = _adaptive_tri(*tri, counting(calls), tol, 4)
    want = ref_adaptive_tri(*tri, counting(ref_calls), tol, 4)
    assert bits(got) == bits(want)
    # the same nodes, one call for the whole triangle and one a level
    assert sum(calls) == sum(ref_calls)
    assert len(calls) < len(ref_calls) or len(calls) == 2
    if tol == 1e-13:
        assert len(calls) == 1 + DEPTH_CAP_TRI + 2
