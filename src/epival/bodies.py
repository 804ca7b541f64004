"""Convex polytopes with exact rational vertex and halfspace data.

A Polytope lives in ambient dimension 1, 2 or 3 and may be lower
dimensional (a polygon floating in space, a segment, a point) or empty.
Vertices are fractions.Fraction tuples in lexicographic order.  Halfspaces
are pairs (m, c) meaning m . x <= c with m a primitive integer vector; a
flat body carries equality constraints as opposite halfspace pairs.

Points in the plane given as the rows of a float (k, 2) numpy array,
finite and not all collinear (the edge walks of minkowski_solve), are
decided on the floats themselves (_float_polygon), scaled by a power
of two so that their turns' products stay in the range of Shewchuk's
static orientation filter: a float turn whose size exceeds the filter's
error bound has the exact turn's sign.  An edge walk is mostly its own
hull, counterclockwise; one whole-array pass certifies that
(_convex_order) and takes the cycle as given.  Other input is deduplicated and sorted: float equality is
equality of the exact values (0.0 == -0.0) and the float order is their
order, so these are the points the exact path would hull.  The monotone
chain then decides each turn with the filter, and every turn the filter
cannot certify, or whose products leave the range where the bound holds,
is decided exactly (_exact_left).  So the kept points and the cycle are
the exact ones.
Such a polygon, a _FloatPolygon, stores float_vertices, boundary_cycle
and intrinsic_dim; its vertices (each kept float as a Fraction) and
halfspaces (from the integer image of those vertices) are made on first
read.

Every other input, lists of Python floats included, goes the exact
way.  construct reads each input coordinate once, as its
as_integer_ratio() (int, float, Fraction and numpy floats have it; a
string or a numpy int is read as a Fraction or an int first).  The integer image of the points, scaled by their common
denominator q, is built from the ratios with one q // den per distinct
denominator.  Fractions are made only for the coordinates of the points
the hull keeps, and input Fractions are reused.  When the kept
coordinates came in as Python floats, construct also stores
float_vertices in the body, as it stores boundary_cycle below: the
bodies of minkowski_solve in space carry it.  Every other body derives
it from its vertices.

The hull of the integer image is the monotone chain in the plane and one
incremental hull in space, in integer arithmetic.  Offsets come out as
integers m . a and become Fraction(m . a, q) once the hull is known.  A
full dimensional body derives its facets once, in
Polytope._facets: each halfspace with its vertices, in cyclic order in
3D.  Edges, volume, clipping and the facet areas of the surface area
measure all read them.  A plane in space is projected one to one by
dropping the last coordinate its normal uses (_last_axis).

A flat body (a point, a segment, a polygon in space) is built in one
coordinate chart of its affine hull (_chart): the same integer hull runs
on the projected points, and each relative facet normal is lifted into
the hull's direction space by one exact rejection against the equality
normals, with no Gram solves and no dual basis.  A single equality normal
(a segment in the plane, a polygon in space) is a perpendicular or a
cross product of the direction basis, with no Gram-Schmidt.

A polygon made by construct, in the plane or in space, carries its
boundary_cycle: the monotone chain its hull was decided on, read as
indices into the sorted vertices.  Bodies made directly (a clip that
stays full dimensional, translate, scale, reflect_last, the prism of an
epigraph) derive it on first use from the integer image of their
vertices.

All predicates and constructions in this module are exact: the one
float predicate, the filtered turn above, is used only where its sign is
certified to be the exact one.  Floating point otherwise enters only
through the float_* views, relative_volume_float, and the metric
routines nearest_points, distances_to and hausdorff_distance.

nearest_points reads a point x outside a full dimensional body off its
max-slack facet, the halfspace with the largest normalized slack.  In
the plane the projection is one clip onto that facet's edge.  If the
projection lies inside an edge, that edge's slack is the distance and
every other edge's slack is smaller.  If it is a vertex v, x - v lies in
the cone of v's two edge normals; every other edge normal is angularly
farther from x - v and has a negative offset at v, so the max-slack edge
ends at v.  In space x keeps its projection onto the max-slack facet
plane when that lies in the facet; otherwise it takes the nearest of all
edges, since its projection may lie on an edge of another facet.
The max-slack facet's slack is also a lower bound on the distance, since
its halfspace contains the body, so a caller that only needs the points
within some reach can skip every row whose slack already exceeds it.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .linalg import Vec, cross3, dot, primitive, smul, solve, sub
from .schema import array, field, integer, rational

Halfspace = tuple[tuple[int, ...], Fraction]


class GeometryError(ValueError):
    pass


def _canon_halfspace(normal: Sequence[Fraction], offset: Fraction) -> Halfspace:
    m = primitive(normal)
    scale = None
    for a, b in zip(m, normal):
        if a != 0:
            scale = Fraction(b) / a
            break
    return m, Fraction(offset) / scale


def _affine_basis(points: Sequence[Vec]) -> list[Vec]:
    """Greedy basis of the direction space of the affine hull."""
    return linalg.independent_subset(sub(p, points[0]) for p in points[1:])


def _affine_rank(points: Sequence[Vec]) -> int:
    return len(_affine_basis(points))


def _exact(x) -> int | Fraction:
    """A coordinate without as_integer_ratio, read exactly: an integral
    type (a numpy int) through int, since a Fraction of a numpy int keeps
    its numpy numerator, which overflows in integer products; anything
    else (a string) through Fraction(x)."""
    return int(x) if isinstance(x, numbers.Integral) else Fraction(x)


def _ratios(coords: list) -> tuple[list, list[int], list[int]]:
    """Each coordinate's as_integer_ratio(), read once: coprime integers
    with a positive denominator.  int, float, Fraction and numpy floats
    have it; a coordinate of any other type is read by _exact first.
    Returns the coordinates, those of other types replaced, with their
    numerators and their denominators."""
    odd = {t for t in set(map(type, coords)) if not hasattr(t, "as_integer_ratio")}
    if odd:
        coords = [_exact(x) if type(x) in odd else x for x in coords]
    ratios = [x.as_integer_ratio() for x in coords]
    return coords, list(map(itemgetter(0), ratios)), list(map(itemgetter(1), ratios))


def _scaled(nums: list[int], dens: list[int], d: int) -> tuple[int, list[tuple[int, ...]]]:
    """The common denominator q of the ratios and the integer points
    q * p, d coordinates each, in input order.  Each coordinate costs one
    multiplication by q // den, computed once per distinct denominator:
    a float walk has a few dozen, all powers of two."""
    distinct = set(dens)
    q = math.lcm(*distinct)
    scale = {den: q // den for den in distinct}
    flat = list(map(mul, nums, map(scale.__getitem__, dens)))
    return q, list(zip(*[iter(flat)] * d))


def _integer_image(points: Sequence[Sequence]) -> tuple[int, list[tuple[int, ...]]]:
    """The common denominator q of the points' coordinates and the integer
    points q * p, in input order.  Scaling by q > 0 keeps the
    lexicographic order and the sign of every turn, so the images decide
    both exactly, in integer instead of Fraction arithmetic."""
    _, nums, dens = _ratios(list(itertools.chain.from_iterable(points)))
    return _scaled(nums, dens, len(points[0]) if points else 1)


def _intake(rows: list[tuple], ambient_dim: int | None
            ) -> tuple[int, list, list[int], list[int]]:
    """The ambient dimension, checked, and the points' coordinates in one
    flat list with their numerators and denominators (_ratios)."""
    coords, nums, dens = _ratios(list(itertools.chain.from_iterable(rows)))
    if ambient_dim is None:
        if not rows:
            raise GeometryError("ambient_dim required for empty input")
        ambient_dim = len(rows[0])
    if ambient_dim not in (1, 2, 3):
        raise GeometryError(f"unsupported ambient dimension {ambient_dim}")
    if rows and set(map(len, rows)) != {ambient_dim}:
        raise GeometryError("mixed point dimensions")
    return ambient_dim, coords, nums, dens


def _kept(nums: list[int], dens: list[int], d: int
          ) -> tuple[int, list[int], list[tuple[tuple[int, ...], int]],
                     tuple[int, ...] | None, int]:
    """The hull of points given by their coordinates' ratios, d to a
    point.  Returns the common denominator q; the position in the flat
    coordinate list of each coordinate of each kept point, the points in
    lexicographic order; the integer halfspaces and the cycle of _hull;
    and the affine rank.  The integer images stay here, so they are freed
    before construct makes its Fractions."""
    q, images = _scaled(nums, dens, d)
    # one input point for each distinct image
    index = dict(zip(images, range(len(images))))
    keys = sorted(index)
    basis = _affine_basis(keys)
    kept, hs, cycle = _hull(keys, basis)
    return q, [index[k] * d + j for k in kept for j in range(d)], hs, cycle, len(basis)


# Shewchuk's static orientation filter ("Adaptive precision floating-point
# arithmetic and fast robust geometric predicates", Discrete Comput. Geom.
# 18, 1997): the float turn l - r of three float points, l and r the two
# rounded products, has the sign of the exact turn when
# |l - r| > TURN_ERR (|l| + |r|).  The bound assumes that no difference or
# product overflowed and that none underflowed by more than the 16 eps^2
# term absorbs, which holds for |l| + |r| in [TURN_MIN, TURN_MAX].
TURN_ERR = (3 + 16 * 2.0 ** -53) * 2.0 ** -53
TURN_MIN, TURN_MAX = 2.0 ** -960, 2.0 ** 960


def _exact_left(o: tuple[float, float], a: tuple[float, float],
                b: tuple[float, float]) -> bool:
    """Whether the float point b lies strictly left of the line from o
    through a, decided exactly on the three points' integer image: the
    turn the filtered chain falls back on when the filter cannot certify
    the float one."""
    ratios = [x.as_integer_ratio() for p in (o, a, b) for x in p]
    # a float's denominator is a power of two: the largest is the lcm
    q = max(den for _, den in ratios)
    ox, oy, ax, ay, bx, by = [num * (q // den) for num, den in ratios]
    return (ax - ox) * (by - oy) > (ay - oy) * (bx - ox)


def _half_chain(pts: Sequence[tuple], filtered: bool = False) -> list[tuple]:
    """One half of the monotone chain: the points that turn strictly left.
    Integer points take the exact integer turn.  Float points (filtered)
    take the float turn where Shewchuk's filter certifies its sign, and
    _exact_left where it does not."""
    out: list = []
    for p in pts:
        x, y = p
        while len(out) >= 2:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            l, r = (ax - ox) * (y - oy), (ay - oy) * (x - ox)
            left = l > r
            if filtered:
                s = abs(l) + abs(r)
                # a nan or an infinity fails every comparison
                if not (TURN_MIN <= s <= TURN_MAX and abs(l - r) > TURN_ERR * s):
                    left = _exact_left(out[-2], out[-1], p)
            if left:
                break
            out.pop()
        out.append(p)
    return out


def _chain(pts: list[tuple], filtered: bool = False) -> list[tuple]:
    """Monotone chain (Andrew 1979) over distinct points in lexicographic
    order: the strict hull vertices, counterclockwise from the first point;
    fewer than three iff the points are collinear.  The points are integer
    ones, or finite float ones with filtered set (_half_chain)."""
    return _half_chain(pts, filtered)[:-1] + _half_chain(pts[::-1], filtered)[:-1]


def _edge_halfspaces(cycle: Sequence[tuple[int, int]]) -> list[tuple[tuple[int, int], int]]:
    """The edges of an integer polygon given counterclockwise, each as its
    primitive outer normal m with the integer offset m . a."""
    hs = []
    for (ax, ay), (bx, by) in zip(cycle, cycle[1:] + cycle[:1]):
        n0, n1 = by - ay, ax - bx
        g = math.gcd(n0, n1)
        m0, m1 = n0 // g, n1 // g
        hs.append(((m0, m1), m0 * ax + m1 * ay))
    return hs


def _exact_offsets(hs: Iterable[tuple[tuple[int, ...], int]], q: int
                   ) -> tuple[Halfspace, ...]:
    """Integer halfspaces (m, m . a) of the integer image q * P, sorted, as
    the halfspaces (m, Fraction(m . a, q)) of P."""
    return tuple((m, Fraction(c, q)) for m, c in sorted(hs))


def _float_polygon(pts: np.ndarray) -> "Polytope | None":
    """The hull of points in the plane given as the rows of a float (k, 2)
    array, decided on the floats themselves, or None if a coordinate is
    not finite or the points (fewer than three, say) are collinear:
    construct's general path then decides them (and rejects a nan or an
    infinity).

    The points are first scaled by the power of two that puts their
    largest magnitude in [0.5, 1), unless that would round a coordinate
    (an input spanning more than the float exponent range): the scaling is
    then exact, keeps every order and every turn's sign, and keeps the
    turns' products inside the filter's range.  Input that is already its
    hull, counterclockwise (_convex_order), is taken as it stands.  Any
    other input is deduplicated and sorted, which does what construct does
    on the integer image (float equality is image equality, 0.0 == -0.0,
    and scaling by q > 0 keeps the order), and the filtered chain decides
    every turn exactly.  The body keeps the input floats."""
    if len(pts) < 3 or not np.isfinite(pts).all():
        return None
    e = math.frexp(float(np.max(np.abs(pts))))[1]
    scaled = np.ldexp(pts, -e)
    if not np.array_equal(np.ldexp(scaled, e), pts):
        scaled, e = pts, 0
    convex = _convex_order(scaled)
    if convex is not None:
        order, rank = convex
        # adding 0.0 turns -0.0 into 0.0, as float(Fraction(-0.0)) does
        return _FloatPolygon(pts[order] + 0.0, tuple(np.roll(rank, -order[0]).tolist()))
    cycle = _chain(sorted(set(map(tuple, scaled.tolist()))), filtered=True)
    if len(cycle) < 3:
        return None
    kept = sorted(cycle)
    return _FloatPolygon(np.ldexp(np.array(kept), e) + 0.0, _reindexed(cycle, kept))


def _convex_order(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """For float points in the order given, their lexicographic order and
    each point's rank in it, if the points are a strictly convex polygon
    counterclockwise; None if that is not certified.  Every cyclic turn
    must be certified strictly left by the filter of _half_chain, and the
    ranks must rise once and fall once around the cycle.  An edge rises
    in rank when its direction lies in one half-turn of angles (x up, or
    x equal and y up), and each left turn is less than a half-turn, so
    the ranks change direction twice per full turn of the edges: twice
    means the polygon turns once (a pentagram turns left everywhere too,
    but twice).  Such a polygon is its own hull, every point a strict
    vertex: the chain's cycle is the input started at the lexicographic
    minimum."""
    if len(pts) < 3:
        return None
    a, b = np.roll(pts, -1, axis=0) - pts, np.roll(pts, -2, axis=0) - pts
    # a product that overflows is an inf, whose s fails the range test
    with np.errstate(all="ignore"):
        left, right = a[:, 0] * b[:, 1], a[:, 1] * b[:, 0]
        s = np.abs(left) + np.abs(right)
        certified = (s >= TURN_MIN) & (s <= TURN_MAX) & (left - right > TURN_ERR * s)
    if not certified.all():
        return None
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    rank = np.empty(len(pts), dtype=np.intp)
    rank[order] = np.arange(len(pts))
    rising = np.roll(rank, -1) > rank
    if np.count_nonzero(rising != np.roll(rising, 1)) != 2:
        return None
    return order, rank


def _reindexed(cycle: Sequence, verts: Sequence) -> tuple[int, ...]:
    """The cycle of points as indices into verts."""
    index = {v: i for i, v in enumerate(verts)}
    return tuple(index[p] for p in cycle)


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    """Dot product of integer vectors, in integer arithmetic."""
    return sum(map(mul, a, b))


def _last_axis(m: Sequence) -> int:
    """The last coordinate the normal m uses.  Dropping it projects the
    normal's plane one to one onto the other coordinates."""
    return max(j for j, x in enumerate(m) if x)


def _chart(normals: Sequence[Sequence], d: int) -> tuple[int, ...]:
    """The coordinates onto which a flat in R^d with these independent
    equality normals projects one to one.  One normal (a segment in the
    plane, a polygon in space): drop the last coordinate it uses.  Two
    normals in space (a segment): keep the first coordinate the segment's
    direction, their cross product, uses.  With no normals every
    coordinate is kept, and a point keeps none."""
    if len(normals) == 1:
        k = _last_axis(normals[0])
        return tuple(j for j in range(d) if j != k)
    if d - len(normals) == 1:
        return (next(j for j, x in enumerate(cross3(*normals)) if x),)
    return tuple(range(d - len(normals)))


def _hull_3d(pts: list[tuple[int, ...]]
             ) -> tuple[list[tuple[tuple[int, ...], int]], set[int]]:
    """Incremental hull (de Berg et al., Computational Geometry, ch. 11)
    of distinct integer points of affine rank 3 in lexicographic order.

    Returns each facet's primitive outer normal m with its offset m . a,
    and the indices of the strict hull vertices: the union of the facets'
    monotone chains.  Raises GeometryError if an input point lies outside.
    """

    def cross(o, a, b):
        u0, u1, u2 = a[0] - o[0], a[1] - o[1], a[2] - o[2]
        v0, v1, v2 = b[0] - o[0], b[1] - o[1], b[2] - o[2]
        return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)

    i2 = next(i for i in range(2, len(pts)) if any(cross(pts[0], pts[1], pts[i])))
    n012 = cross(pts[0], pts[1], pts[i2])
    i3 = next(i for i in range(2, len(pts))
              if _idot(n012, pts[i]) != _idot(n012, pts[0]))
    seed = (0, 1, i2, i3)
    # four times the seed's centroid, a point inside every hull below
    center = [sum(pts[i][k] for i in seed) for k in range(3)]

    def triangle(a, b, c):
        """The triangle oriented away from the center, with its plane
        n . x <= off."""
        n = cross(pts[a], pts[b], pts[c])
        off = _idot(n, pts[a])
        if _idot(n, center) > 4 * off:
            return (a, c, b), tuple(-x for x in n), -off
        return (a, b, c), n, off

    tris = [triangle(*t) for t in itertools.combinations(seed, 3)]
    for p, x in enumerate(pts):
        if p in seed:
            continue
        sides = [_idot(n, x) - off for _, n, off in tris]
        if max(sides) <= 0:
            continue
        # seeing a triangle includes lying on its plane: coplanar triangles
        # must be rebuilt with the new point or the horizon fans pinch
        edges = Counter(frozenset(e) for (t, _, _), s in zip(tris, sides) if s >= 0
                        for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])))
        tris = [t for t, s in zip(tris, sides) if s < 0]
        tris += [triangle(*e, p) for e, k in edges.items() if k == 1]

    corners: dict[tuple[int, ...], set[int]] = defaultdict(set)
    for t, n, _ in tris:
        g = math.gcd(*n)
        corners[tuple(x // g for x in n)].update(t)
    facets, verts = [], set()
    for m, idx in corners.items():
        off = _idot(m, pts[min(idx)])
        if max(_idot(m, x) for x in pts) > off:
            raise GeometryError("hull misses an input point")
        facets.append((m, off))
        k = _last_axis(m)
        proj = {pts[i][:k] + pts[i][k + 1:]: i for i in idx}
        verts.update(proj[c] for c in _chain(sorted(proj)))
    return facets, verts


def _hull(keys: list[tuple[int, ...]], basis: list
          ) -> tuple[list[tuple[int, ...]], list[tuple[tuple[int, ...], int]],
                     tuple[int, ...] | None]:
    """Hull of distinct integer points in lexicographic order whose affine
    hull has direction space span(basis).  Returns the kept points in
    lexicographic order; each halfspace as its primitive normal m with
    the integer offset m . a; and, for a polygon, its boundary cycle as
    indices into the kept points, else None."""
    d = len(keys[0])
    if len(basis) < d:
        return _hull_flat(keys, basis)
    if d == 1:
        lo, hi = keys[0], keys[-1]
        return [lo, hi], [((-1,), -lo[0]), ((1,), hi[0])], None
    if d == 2:
        cycle = _chain(keys)
        kept = sorted(cycle)
        return kept, _edge_halfspaces(cycle), _reindexed(cycle, kept)
    facets, idx = _hull_3d(keys)
    return [keys[i] for i in sorted(idx)], facets, None


def _hull_flat(keys: list[tuple[int, ...]], basis: list
               ) -> tuple[list[tuple[int, ...]], list[tuple[tuple[int, ...], int]],
                          tuple[int, ...] | None]:
    """_hull for points whose affine hull is flat.  The equality normals,
    which pin the affine hull, span the orthogonal complement of the
    basis; a single one (a segment in the plane, a polygon in space) is
    the basis vector's perpendicular or the basis vectors' cross product,
    with no Gram-Schmidt.  The hull is decided on the chart; each of its
    facet normals is lifted into the span by rejecting the equality
    normals."""
    d, base = len(keys[0]), keys[0]
    if len(basis) == d - 1 > 0:
        # the sign is free: both halfspaces of the plane are kept below
        u = basis[0]
        comp = [primitive((-u[1], u[0]) if d == 2 else cross3(*basis))]
    else:
        comp = [primitive(w) for w in linalg.orthogonal_complement(basis, d)]
    cols = _chart(comp, d)
    kept, rel, cycle = keys, (), None
    if cols:
        # the chart is one to one on the affine hull, so the projected
        # points are distinct and the projected basis is a basis
        chart = {tuple(p[j] for j in cols): p for p in keys}
        inner, inner_hs, inner_cycle = _hull(
            sorted(chart), [tuple(u[j] for j in cols) for u in basis])
        kept = [chart[y] for y in inner]
        rel = [m for m, _ in inner_hs]
        if inner_cycle is not None:  # a polygon in space
            cycle = [kept[i] for i in inner_cycle]
    hs = []
    for m in rel:
        lift = [0] * d
        for j, x in zip(cols, m):
            lift[j] = x
        n = primitive(linalg.reject(lift, comp))
        hs.append((n, max(_idot(n, v) for v in kept)))
    for w in comp:
        c = _idot(w, base)
        hs += [(w, c), (tuple(-x for x in w), -c)]
    kept = sorted(kept)
    # the cycle is read back against the sorted points, so it does not
    # rest on the chart keeping their order
    return kept, hs, None if cycle is None else _reindexed(cycle, kept)


class Polytope:
    """A body given by its ambient dimension, its vertices and its
    halfspaces.  A polygon that construct decided in floats, from a
    float (k, 2) array, is a _FloatPolygon, which makes its vertices and
    halfspaces on first read."""

    def __init__(self, ambient_dim: int, vertices: tuple[Vec, ...],
                 halfspaces: tuple[Halfspace, ...]):
        self.ambient_dim = ambient_dim
        self.vertices = vertices
        self.halfspaces = halfspaces

    # ---- constructors -------------------------------------------------

    @staticmethod
    def empty(ambient_dim: int) -> "Polytope":
        return Polytope(ambient_dim, (), ())

    @staticmethod
    def construct(points: Iterable[Sequence], ambient_dim: int | None = None) -> "Polytope":
        if (isinstance(points, np.ndarray) and points.dtype == np.float64
                and points.shape[1:] == (2,) and ambient_dim in (None, 2)):
            out = _float_polygon(points)
            if out is not None:
                return out
        rows = [tuple(p) for p in points]
        d, coords, nums, dens = _intake(rows, ambient_dim)
        if not coords:
            return Polytope.empty(d)
        q, at, hs, cycle, rank = _kept(nums, dens, d)
        hs = _exact_offsets(hs, q)
        # Fractions only for the kept points' coordinates: an input
        # Fraction is reused, anything else is made from its ratio
        given = [coords[i] for i in at]
        vals = [x if type(x) is Fraction else Fraction(nums[i], dens[i])
                for x, i in zip(given, at)]
        out = Polytope(d, tuple(zip(*[iter(vals)] * d)), hs)
        if cycle is not None:
            out.__dict__["boundary_cycle"] = cycle
        out.__dict__["intrinsic_dim"] = rank
        if set(map(type, given)) == {float}:
            # adding 0.0 turns -0.0 into 0.0, as float(Fraction(-0.0)) does
            out.__dict__["float_vertices"] = np.array(given).reshape(-1, d) + 0.0
        return out

    @staticmethod
    def from_halfspaces(
        halfspaces: Iterable[tuple[Sequence, object]], ambient_dim: int
    ) -> "Polytope":
        """Vertex enumeration for a bounded polyhedron given as m . x <= c
        rows.  The rows bound every such polyhedron iff their normals
        positively span the space, that is iff the origin lies inside the
        hull of the normals; otherwise this raises GeometryError."""
        rows = sorted(
            {(tuple(Fraction(x) for x in m), Fraction(c)) for m, c in halfspaces}
        )
        normals = Polytope.construct([m for m, _ in rows], ambient_dim)
        if normals.intrinsic_dim < ambient_dim or any(
                c <= 0 for _, c in normals.halfspaces):
            raise GeometryError("halfspaces do not bound a polytope")
        pts = set()
        for sel in itertools.combinations(rows, ambient_dim):
            x = solve([m for m, _ in sel], [c for _, c in sel])
            if x is None:
                continue
            if all(dot(m, x) <= c for m, c in rows):
                pts.add(x)
        if not pts:
            return Polytope.empty(ambient_dim)
        return Polytope.construct(sorted(pts), ambient_dim)

    # ---- equality / hashing ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        return f"Polytope(dim={self.ambient_dim}, nverts={len(self.vertices)})"

    # ---- basic queries ------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @cached_property
    def intrinsic_dim(self) -> int:
        if self.is_empty:
            return -1
        return _affine_rank(list(self.vertices))

    @cached_property
    def equality_planes(self) -> tuple[Halfspace, ...]:
        if self.intrinsic_dim == self.ambient_dim:
            return ()
        seen = set(self.halfspaces)
        eq = []
        for m, c in self.halfspaces:
            neg = tuple(-x for x in m)
            if (neg, -c) in seen and (neg, -c) > (m, c):
                eq.append((m, c))
        return tuple(eq)

    @cached_property
    def proper_halfspaces(self) -> tuple[Halfspace, ...]:
        eq = set()
        for m, c in self.equality_planes:
            eq.add((m, c))
            eq.add((tuple(-x for x in m), -c))
        return tuple(h for h in self.halfspaces if h not in eq)

    def contains(self, point: Sequence) -> bool:
        if self.is_empty:
            return False
        x = tuple(map(_exact, point))
        return all(dot(m, x) <= c for m, c in self.halfspaces)

    def support(self, direction: Sequence) -> Fraction:
        if self.is_empty:
            raise GeometryError("support of empty body")
        y = tuple(map(_exact, direction))
        return max(dot(y, v) for v in self.vertices)

    @cached_property
    def centroid(self) -> Vec:
        n = len(self.vertices)
        return tuple(sum(v[k] for v in self.vertices) / n for k in range(self.ambient_dim))

    # ---- faces --------------------------------------------------------

    @cached_property
    def boundary_cycle(self) -> tuple[int, ...]:
        """Vertex indices of a 2 dimensional body in cyclic order, from
        the lexicographically smallest vertex, counterclockwise in the
        chart of the body's plane.  construct hands it over; any other
        body derives it here."""
        if self.intrinsic_dim != 2:
            raise GeometryError("boundary cycle needs a 2 dimensional body")
        cols = _chart([m for m, _ in self.equality_planes], self.ambient_dim)
        verts = list(map(itemgetter(*cols), self.vertices))
        # the chart is one to one on the vertices, so their images
        # are distinct and keep the vertex order
        _, keys = _integer_image(verts)
        index = dict(zip(keys, range(len(keys))))
        return tuple(map(index.__getitem__, _chain(sorted(keys))))

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Index pairs of the 1 dimensional faces."""
        k = self.intrinsic_dim
        if k <= 0:
            return ()
        if k == 1:
            return ((0, len(self.vertices) - 1),)
        if k == 2:
            cyc = self.boundary_cycle
            return tuple(
                tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)]))) for i in range(len(cyc))
            )
        return tuple(sorted({tuple(sorted(e)) for _, idx in self._facets
                             for e in zip(idx, idx[1:] + idx[:1])}))

    @cached_property
    def _image(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The vertices' common denominator q and their images q * v."""
        q, keys = _integer_image(self.vertices)
        return q, tuple(keys)

    @cached_property
    def _facets(self) -> tuple[tuple[Halfspace, tuple[int, ...]], ...]:
        """Each halfspace of the body with the indices of its vertices,
        found by integer dot products on the integer images.  In 3D the
        indices of a polygon facet are in cyclic order: the monotone chain
        on the projection that drops the last coordinate the normal uses,
        which is one to one on the facet.  A flat body's halfspace may hold
        one or two vertices; those keep their index order."""
        q, ints = self._image
        out = []
        for m, c in self.halfspaces:
            num, den = q * c.numerator, c.denominator
            idx = [i for i, p in enumerate(ints) if _idot(m, p) * den == num]
            if self.ambient_dim == 3 and len(idx) > 2:
                k = _last_axis(m)
                proj = {(ints[i][:k] + ints[i][k + 1:]): i for i in idx}
                idx = [proj[p] for p in _chain(sorted(proj))]
            out.append(((m, c), tuple(idx)))
        return tuple(out)

    def face(self, idx: Sequence[int]) -> "Polytope":
        """The face of the body on the vertex indices idx (a vertex, an
        edge or a 2-face), as construct builds it from those vertices.  It
        is read off the body's integer image: no three vertices of a face
        are collinear, so its first three span its affine hull, and
        _hull_flat's halfspaces, with their offsets over the body's common
        denominator, keep their values at any positive scale."""
        idx = sorted(idx)
        q, ints = self._image
        keys = [ints[i] for i in idx]
        basis = [sub(p, keys[0]) for p in keys[1:3]]
        _, hs, cycle = _hull_flat(keys, basis)
        out = Polytope(self.ambient_dim, tuple(self.vertices[i] for i in idx),
                       _exact_offsets(hs, q))
        if cycle is not None:
            out.__dict__["boundary_cycle"] = cycle
        out.__dict__["intrinsic_dim"] = len(basis)
        out.__dict__["float_vertices"] = self.float_vertices[idx]
        return out

    # ---- transforms ---------------------------------------------------

    def translate(self, shift: Sequence) -> "Polytope":
        if self.is_empty:
            return self
        t = tuple(map(_exact, shift))
        verts = tuple(sorted(linalg.add(v, t) for v in self.vertices))
        hs = tuple(
            sorted((m, c + dot(m, t)) for m, c in self.halfspaces)
        )
        return Polytope(self.ambient_dim, verts, hs)

    def scale(self, t) -> "Polytope":
        t = Fraction(t)
        if t <= 0:
            raise GeometryError("scale factor must be positive")
        if self.is_empty:
            return self
        verts = tuple(sorted(smul(t, v) for v in self.vertices))
        hs = tuple(sorted((m, t * c) for m, c in self.halfspaces))
        return Polytope(self.ambient_dim, verts, hs)

    def reflect_last(self) -> "Polytope":
        """Mirror in the hyperplane where the last coordinate vanishes."""
        if self.is_empty:
            return self

        def flip(p):
            return p[:-1] + (-p[-1],)

        verts = tuple(sorted(flip(v) for v in self.vertices))
        hs = tuple(sorted((flip(m), c) for m, c in self.halfspaces))
        return Polytope(self.ambient_dim, verts, hs)

    def minkowski_sum(self, other: "Polytope") -> "Polytope":
        if self.is_empty or other.is_empty:
            return Polytope.empty(self.ambient_dim)
        pts = [linalg.add(a, b) for a in self.vertices for b in other.vertices]
        return Polytope.construct(pts, self.ambient_dim)

    # ---- clipping and intersection ------------------------------------

    def clip(self, normal: Sequence, offset) -> "Polytope":
        """Intersect with the halfspace normal . x <= offset."""
        if self.is_empty:
            return self
        normal, offset = list(map(_exact, normal)), _exact(offset)
        if not any(normal):
            return self if offset >= 0 else Polytope.empty(self.ambient_dim)
        m, c = _canon_halfspace(normal, offset)
        # the slack m . v - c of each vertex v, times q * c.denominator > 0
        q, ints = self._image
        num, den = q * c.numerator, c.denominator
        vals = [_idot(m, p) * den - num for p in ints]
        if all(v <= 0 for v in vals):
            return self
        keep = [v for v, s in zip(self.vertices, vals) if s <= 0]
        if not keep:
            return Polytope.empty(self.ambient_dim)
        new_pts = list(keep)
        for i, j in self.edge_list:
            si, sj = vals[i], vals[j]
            if (si < 0 < sj) or (sj < 0 < si):
                # the slack vanishes at (sj * v_i - si * v_j) / (sj - si)
                d = q * (sj - si)
                new_pts.append(tuple(Fraction(x * sj - y * si, d)
                                     for x, y in zip(ints[i], ints[j])))
        new_pts = sorted(set(new_pts))
        if self.intrinsic_dim == self.ambient_dim and min(vals) < 0:
            # a vertex strictly inside keeps the body full dimensional, and
            # an old facet stays a facet iff it has such a vertex
            hs = [h for h, idx in self._facets if any(vals[i] < 0 for i in idx)]
            out = Polytope(self.ambient_dim, tuple(new_pts), tuple(sorted(hs + [(m, c)])))
            out.__dict__["intrinsic_dim"] = self.ambient_dim
            return out
        return Polytope.construct(new_pts, self.ambient_dim)

    def intersect(self, other: "Polytope") -> "Polytope":
        if self.ambient_dim != other.ambient_dim:
            raise GeometryError("ambient dimensions differ")
        if other.is_empty:
            return Polytope.empty(self.ambient_dim)
        out = self
        for m, c in other.halfspaces:
            if out.is_empty:
                break
            out = out.clip(m, c)
        return out

    def convex_union(self, other: "Polytope") -> "Polytope":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Polytope.construct(
            list(self.vertices) + list(other.vertices), self.ambient_dim
        )

    def is_union_convex(self, other: "Polytope") -> bool:
        """Exact test whether the set union with the other body is convex."""
        return self._union_hull(other) is not None

    def _union_hull(self, other: "Polytope") -> "Polytope | None":
        """The convex hull of the union with the other body if the union is
        convex, else None.

        The union is convex iff it fills its own convex hull up to measure
        zero in the hull's dimension, and inclusion-exclusion gives that
        measure exactly.  All four bodies are measured through one shared
        coordinate projection so the comparison is scale consistent.
        """
        hull = self.convex_union(other)
        if self.is_empty or other.is_empty or hull.intrinsic_dim == 0:
            return hull
        k = hull.intrinsic_dim
        inter = self.intersect(other)
        if k == self.ambient_dim:
            vols = [b.volume for b in (self, other, hull, inter)]
        else:
            cols = _chart([m for m, _ in hull.equality_planes], self.ambient_dim)
            vols = _volume_in_dim_of([self, other, hull, inter], k, cols)
        va, vb, vh, vi = vols
        return hull if vh == va + vb - vi else None

    # ---- measure ------------------------------------------------------

    @cached_property
    def volume(self) -> Fraction:
        """Lebesgue measure in the ambient dimension, exact."""
        if self.is_empty or self.intrinsic_dim < self.ambient_dim:
            return Fraction(0)
        d = self.ambient_dim
        if d == 1:
            return self.vertices[-1][0] - self.vertices[0][0]
        total = Fraction(0)
        for (m, c), idx in self._facets:
            # the facet's area projected along coordinate k
            k = _last_axis(m)
            proj = [self.vertices[i][:k] + self.vertices[i][k + 1:] for i in idx]
            if d == 2:
                area = abs(proj[1][0] - proj[0][0])
            else:
                area = abs(sum(a[0] * b[1] - b[0] * a[1]
                               for a, b in zip(proj, proj[1:] + proj[:1]))) / 2
            total += c * area / abs(m[k])
        return total / d

    @cached_property
    def relative_volume_float(self) -> float:
        """Hausdorff measure of the body in its affine hull dimension."""
        k = self.intrinsic_dim
        if k < 0:
            return 0.0
        if k == self.ambient_dim:
            return float(self.volume)
        order = self.boundary_cycle if k == 2 else (0, -1)[:k + 1]
        return _face_measure([self.vertices[i] for i in order])

    # ---- float helpers ------------------------------------------------

    @cached_property
    def float_vertices(self) -> np.ndarray:
        return np.array([[float(x) for x in v] for v in self.vertices], dtype=float)

    @cached_property
    def float_halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.array([[float(x) for x in m] for m, _ in self.halfspaces], dtype=float)
        b = np.array([float(c) for _, c in self.halfspaces], dtype=float)
        return a, b

    def distances_to(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from each row of points to the body, float."""
        return nearest_points(self, points)[0]

    def hausdorff_distance(self, other: "Polytope") -> float:
        if self.is_empty or other.is_empty:
            raise GeometryError("hausdorff distance needs nonempty bodies")
        d1 = float(np.max(other.distances_to(self.float_vertices)))
        d2 = float(np.max(self.distances_to(other.float_vertices)))
        return max(d1, d2)

    # ---- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "vertices": [[str(x) for x in v] for v in self.vertices],
        }

    @staticmethod
    def from_dict(data: dict, where: str = "polytope") -> "Polytope":
        d = field(data, "dim", where, integer)
        pts = field(data, "vertices", where, array,
                    lambda v, name: array(v, name, rational, d, "dim"))
        if not pts:
            return Polytope.empty(d)
        return Polytope.construct(pts, d)


class _FloatPolygon(Polytope):
    """A polygon whose hull construct decided on float points
    (_float_polygon).  It keeps the float view of its vertices and its
    boundary cycle; its exact vertices, each kept float as a Fraction, and
    its halfspaces, from the integer image of those vertices, are made on
    first read.  Only this class has them as cached properties: a class
    attribute named like an instance attribute makes every read of that
    attribute slower, on every body."""

    def __init__(self, float_vertices: np.ndarray, boundary_cycle: tuple[int, ...]):
        self.ambient_dim = 2
        self.intrinsic_dim = 2
        self.float_vertices = float_vertices
        self.boundary_cycle = boundary_cycle

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        return tuple(tuple(map(Fraction, v)) for v in self.float_vertices.tolist())

    @cached_property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        q, ints = self._image
        return _exact_offsets(_edge_halfspaces([ints[i] for i in self.boundary_cycle]), q)


# a facet-plane projection counts as lying on the facet within FACET_TOL,
# and a point is inside the body within INSIDE_TOL, both relative to
# max(1, |offset|) of each halfspace row
FACET_TOL = 1e-9
INSIDE_TOL = 1e-12
# nearest_points works on blocks of this many rows, which bounds its
# rows x facets and edges x rows arrays
NEAREST_BLOCK = 4096


def nearest_points(P: Polytope, points: np.ndarray, *, reach: float = math.inf
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Distances and metric projections onto the body, vectorized, float.

    A point inside a full dimensional body is its own projection.  A point
    x outside is read off its max-slack facet, the one with the largest
    normalized slack, in blocks of NEAREST_BLOCK rows.  In the plane that
    is one clip onto the facet's edge.  A projection inside an edge has
    that edge's slack as its distance, larger than any other edge's slack;
    a projection at a vertex v puts x - v in the cone of v's two edge
    normals, and every other edge normal is angularly farther from x - v
    and has a negative offset at v, so the max-slack edge ends at v.  In
    space a point whose projection onto the max-slack facet plane lies in
    the facet, clear of the other facet planes by FACET_TOL, takes that
    projection; the rest take the nearest of all edges, which need not lie
    on that facet.  A flat body takes the nearest of its edges (its vertex,
    if it is a point), and a polygon in space its affine-hull plane where
    that projection is feasible within FACET_TOL.  In R^1 the projection
    is a clip onto the interval.

    On a full dimensional body in R^2 or R^3, a row whose max-slack facet
    slack exceeds reach is certified farther than reach: it gets distance
    inf and projection NaN and is not projected.  Every other row, and
    every row of any other body, gets the bits it gets without reach."""
    if P.is_empty:
        raise GeometryError("projection onto empty body")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if P.ambient_dim == 1:
        verts = P.float_vertices
        proj = np.clip(pts, verts.min(), verts.max())
        return np.abs(pts - proj)[:, 0], proj
    dist, proj = np.empty(len(pts)), np.empty_like(pts)
    for lo in range(0, len(pts), NEAREST_BLOCK):
        rows = slice(lo, lo + NEAREST_BLOCK)
        dist[rows], proj[rows] = _nearest_block(P, pts[rows], reach=reach)
    return dist, proj


def _nearest_block(P: Polytope, x: np.ndarray, *, reach: float = math.inf
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One block of rows of nearest_points on a body in R^2 or R^3."""
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
            dist[out], proj[out] = _segment_clip(x[out], verts[ends[:, 0]], verts[ends[:, 1]])
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
        dist[rest], proj[rest] = _nearest_edge(P, x[rest])
    return dist, proj


def _segment_clip(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance and projection of each row of x onto the segment [a, b]
    given by the same row of a and b."""
    ab = b - a
    tt = np.clip(np.sum((x - a) * ab, axis=1) / np.sum(ab * ab, axis=1), 0.0, 1.0)
    cand = a + tt[:, None] * ab
    return np.linalg.norm(x - cand, axis=1), cand


def _nearest_edge(P: Polytope, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance and projection of each row of x onto the nearest edge of
    the body, or onto its vertex if it is a point.  The search runs on
    edges x rows arrays, one coordinate per array."""
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
    return _segment_clip(x, a[e], verts[j[e]])


def _volume_in_dim_of(bodies: Sequence[Polytope], k: int, cols: tuple[int, ...]) -> list[Fraction]:
    out = []
    for b in bodies:
        if b.is_empty or b.intrinsic_dim < k:
            out.append(Fraction(0))
            continue
        proj = [tuple(v[c] for c in cols) for v in b.vertices]
        out.append(Polytope.construct(proj, k).volume)
    return out


def _face_measure(cycle: Sequence[Vec]) -> float:
    """Hausdorff measure of a face of dimension at most 2 from its vertices
    in cyclic order: 1 for a point, the length of a segment, the fan sum of
    the triangles of a polygon in space."""
    a = cycle[0]
    if len(cycle) == 1:
        return 1.0
    if len(cycle) == 2:
        return float(linalg.norm_sq(sub(cycle[1], a))) ** 0.5
    tot = 0.0
    for b, c in zip(cycle[1:], cycle[2:]):
        tot += 0.5 * float(linalg.norm_sq(cross3(sub(b, a), sub(c, a)))) ** 0.5
    return tot
