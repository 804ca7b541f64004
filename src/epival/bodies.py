"""Convex polytopes stored as exact integer images.

A Polytope lives in ambient dimension 1, 2 or 3 and may be lower
dimensional (a polygon floating in space, a segment, a point) or empty.
It stores one exact form: q, the least common denominator of its
vertices' coordinates; images, the integer points q * v in lexicographic
order; and planes, its halfspaces m . x <= c as (m, q c), with m a
primitive integer vector, so q c = m . (q a) at a vertex a on the plane.
A flat body carries its equality constraints as opposite plane pairs.
Scaling by q > 0 keeps the lexicographic order and the sign of every turn
and every slack, so the images decide them exactly, in integer
arithmetic.  Polytope() divides the gcd of q and the image coordinates
out, which keeps q least and the image canonical: equal bodies have
equal images.  vertices (the images over q) and halfspaces (the offsets
over q) are Fraction views made on first read; float_vertices and
float_halfspaces divide the same integers by q, a correctly rounded
int/int division, as float() of those Fractions is.

Every constructor builds the image directly.  construct scales its input
to integers (linalg.on_integers: each coordinate read once, as its
as_integer_ratio()) and hulls the integer points: the monotone chain in
the plane and one incremental hull in space, whose offsets come out as
the integers m . a.  clip orders the kept vertices and the cut's points
on one integer scale; face takes a slice of its parent's image;
translate, scale, reflect_last, the prism D x [lo, level] of an epigraph
(_prism) and an epigraph with its lid moved (_move_lid) are integer maps.
A full dimensional body derives its facets once, in Polytope._facets:
each plane with its vertices, in cyclic order in 3D.  Edges, volume,
clipping and the facet areas of the surface area measure all read them.
A plane in space is projected one to one by dropping the last coordinate
its normal uses (_last_axis).

The readers compute on the image too: volume sums integer facet terms
into one Fraction; relative_volume_float and the facet areas of the
surface area measure divide an integer squared length or cross product
by q^2 or q^4; support and contains scale their argument to integers;
the rank behind intrinsic_dim is an integer maximal minor test; and the
hash is that of the image.

A flat body (a point, a segment, a polygon in space) is built in one
coordinate chart of its affine hull (_chart): the same integer hull runs
on the projected points, and each relative facet normal is lifted into
the hull's direction space by one exact rejection against the equality
normals, with no Gram solves and no dual basis.  A single equality normal
(a segment in the plane, a polygon in space) is a perpendicular or a
cross product of the direction basis, with no Gram-Schmidt; the two of a
segment in space come from a fraction-free integer Gram-Schmidt, as do
the lifts (_icomplement, _ireject).

A polygon made by construct, in the plane or in space, carries its
boundary_cycle: the monotone chain its hull was decided on, read as
indices into the sorted vertices.  Other bodies derive it on first use
from their images.

Points in the plane given as the rows of a float (k, 2) numpy array,
finite and not all collinear (the edge walks of minkowski_solve), are
decided on the floats themselves (_float_polygon), scaled by a power of
two so that their turns' products stay in the range of Shewchuk's static
orientation filter: a float turn whose size exceeds the filter's error
bound has the exact turn's sign.  An edge walk is mostly its own hull,
counterclockwise; one whole-array pass certifies that (_convex_order)
and takes the cycle as given.  Other input is deduplicated and sorted:
float equality is equality of the exact values (0.0 == -0.0) and the
float order is their order, so these are the points the exact path would
hull.  The monotone chain then decides each turn with the filter, and
every turn the filter cannot certify, or whose products leave the range
where the bound holds, is decided exactly (_exact_left).  So the kept
points and the cycle are the exact ones.  Such a polygon, a
_FloatPolygon, stores float_vertices, boundary_cycle and intrinsic_dim;
its image and its edge planes are made on first read.

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
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .linalg import Vec, cross3, dot, on_integers, solve, sub
from .schema import array, field, integer, rational

Halfspace = tuple[tuple[int, ...], Fraction]
# a halfspace m . x <= c of a body with denominator q, as (m, q c)
Plane = tuple[tuple[int, ...], int]
Image = tuple[int, ...]


class GeometryError(ValueError):
    pass


def _canon_halfspace(normal: Sequence, offset) -> Halfspace:
    """normal . x <= offset, for a nonzero normal, as (m, c) with m its
    primitive integer multiple: the normal and the offset scaled to
    integers N and O together, m = N / g for the gcd g of N, and c = O / g."""
    ints = on_integers([*normal, offset])[1]
    g = math.gcd(*ints[:-1])
    return tuple(x // g for x in ints[:-1]), Fraction(ints[-1], g)


def _affine_basis(points: Sequence[Vec]) -> list[Vec]:
    """Greedy basis of the direction space of the affine hull."""
    return linalg.independent_subset(sub(p, points[0]) for p in points[1:])


def _affine_rank(points: Sequence[Vec]) -> int:
    return len(_affine_basis(points))


def _integer_image(points: Sequence[Sequence]) -> tuple[int, list[tuple[int, ...]]]:
    """The common denominator q of the points' coordinates and the integer
    points q * p, in input order."""
    d = len(points[0]) if points else 1
    q, flat = on_integers(list(itertools.chain.from_iterable(points)))
    return q, list(zip(*[iter(flat)] * d))


def _intake(rows: list[tuple], ambient_dim: int | None) -> tuple[int, list]:
    """The ambient dimension, checked, and the points' coordinates in one
    flat list."""
    if ambient_dim is None:
        if not rows:
            raise GeometryError("ambient_dim required for empty input")
        ambient_dim = len(rows[0])
    if ambient_dim not in (1, 2, 3):
        raise GeometryError(f"unsupported ambient dimension {ambient_dim}")
    if rows and set(map(len, rows)) != {ambient_dim}:
        raise GeometryError("mixed point dimensions")
    return ambient_dim, list(itertools.chain.from_iterable(rows))


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
    ox, oy, ax, ay, bx, by = on_integers([*o, *a, *b])[1]
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


def _icross(o: Sequence[int], a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    """(a - o) x (b - o) for integer points in space."""
    u0, u1, u2 = a[0] - o[0], a[1] - o[1], a[2] - o[2]
    v0, v1, v2 = b[0] - o[0], b[1] - o[1], b[2] - o[2]
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def _iprimitive(v: Sequence[int]) -> tuple[int, ...]:
    """The nonzero integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _ireject(v: Sequence[int], ortho: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """A positive multiple of the component of the integer vector v
    orthogonal to the span of the pairwise orthogonal integer vectors in
    ortho: each step is the rejection times w . w > 0,
    v <- (w . w) v - (v . w) w, fraction-free."""
    for w in ortho:
        ww, vw = _idot(w, w), _idot(v, w)
        v = tuple(ww * a - vw * b for a, b in zip(v, w))
    return tuple(v)


def _icomplement(basis: Sequence[Sequence[int]], d: int) -> list[tuple[int, ...]]:
    """Primitive pairwise orthogonal integer vectors spanning the
    orthogonal complement of span(basis) in R^d: Gram-Schmidt by _ireject
    on the basis, then on the unit vectors in turn.  Each is a positive
    multiple of the rational Gram-Schmidt vector, since a rejection
    against a positive multiple of w is the rejection against w."""
    ortho: list[tuple[int, ...]] = []
    for u in basis:
        ortho.append(_iprimitive(_ireject(u, ortho)))
    comp = []
    for k in range(d):
        e = _ireject([int(j == k) for j in range(d)], ortho)
        if any(e):
            comp.append(_iprimitive(e))
            ortho.append(comp[-1])
    return comp


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
    i2 = next(i for i in range(2, len(pts)) if any(_icross(pts[0], pts[1], pts[i])))
    n012 = _icross(pts[0], pts[1], pts[i2])
    i3 = next(i for i in range(2, len(pts))
              if _idot(n012, pts[i]) != _idot(n012, pts[0]))
    seed = (0, 1, i2, i3)
    # four times the seed's centroid, a point inside every hull below
    center = [sum(pts[i][k] for i in seed) for k in range(3)]

    def triangle(a, b, c):
        """The triangle oriented away from the center, with its plane
        n . x <= off."""
        n = _icross(pts[a], pts[b], pts[c])
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
        corners[_iprimitive(n)].update(t)
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
    with no Gram-Schmidt, and more (a segment or a point in space) come
    from the integer Gram-Schmidt of _icomplement.  The hull is decided
    on the chart; each of its facet normals is lifted into the span by
    rejecting the equality normals (_ireject)."""
    d, base = len(keys[0]), keys[0]
    if len(basis) == d - 1 > 0:
        # the sign is free: both halfspaces of the plane are kept below
        u = basis[0]
        comp = [_iprimitive((-u[1], u[0]) if d == 2 else cross3(*basis))]
    else:
        comp = _icomplement(basis, d)
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
        n = _iprimitive(_ireject(lift, comp))
        hs.append((n, max(_idot(n, v) for v in kept)))
    for w in comp:
        c = _idot(w, base)
        hs += [(w, c), (tuple(-x for x in w), -c)]
    kept = sorted(kept)
    # the cycle is read back against the sorted points, so it does not
    # rest on the chart keeping their order
    return kept, hs, None if cycle is None else _reindexed(cycle, kept)



class Polytope:
    """A body given by its ambient dimension and its integer image: the
    least common denominator q of its vertices, the sorted integer points
    q * v, and its halfspaces as planes (m, q c).  Polytope() takes any
    positive common denominator and divides the image down to the least
    one.  A polygon that construct decided in floats, from a float (k, 2)
    array, is a _FloatPolygon, which makes its image and planes on first
    read."""

    def __init__(self, ambient_dim: int, q: int, images: Sequence[Image],
                 planes: Sequence[Plane]):
        g = math.gcd(q, *itertools.chain.from_iterable(images))
        if g > 1:
            q //= g
            images = [tuple(x // g for x in p) for p in images]
            planes = [(m, c // g) for m, c in planes]
        self.ambient_dim = ambient_dim
        self.q = q
        self.images = tuple(images)
        self.planes = tuple(planes)

    # ---- constructors -------------------------------------------------

    @staticmethod
    def empty(ambient_dim: int) -> "Polytope":
        return Polytope(ambient_dim, 1, (), ())

    @staticmethod
    def construct(points: Iterable[Sequence], ambient_dim: int | None = None) -> "Polytope":
        if (isinstance(points, np.ndarray) and points.dtype == np.float64
                and points.shape[1:] == (2,) and ambient_dim in (None, 2)):
            out = _float_polygon(points)
            if out is not None:
                return out
        d, coords = _intake([tuple(p) for p in points], ambient_dim)
        if not coords:
            return Polytope.empty(d)
        q, flat = on_integers(coords)
        out = _hulled(d, q, zip(*[iter(flat)] * d))
        if set(map(type, coords)) == {float}:
            # a body of Python floats keeps its float view from the start
            out.float_vertices
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
                c <= 0 for _, c in normals.planes):
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
        return (self.ambient_dim == other.ambient_dim and self.q == other.q
                and self.images == other.images)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash, computed once from the canonical image."""
        return hash((self.ambient_dim, self.q, self.images))

    def __repr__(self) -> str:
        return f"Polytope(dim={self.ambient_dim}, nverts={len(self.images)})"

    # ---- the Fraction views -------------------------------------------

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        """The vertices in lexicographic order: the images over q."""
        q = self.q
        return tuple(tuple(Fraction(x, q) for x in p) for p in self.images)

    @cached_property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        """The halfspaces (m, c), sorted: the planes with offsets over q."""
        q = self.q
        return tuple((m, Fraction(c, q)) for m, c in self.planes)

    # ---- basic queries ------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.images

    @cached_property
    def intrinsic_dim(self) -> int:
        if self.is_empty:
            return -1
        return _affine_rank(self.images)

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
        """Whether m . x <= c on every plane, read on the point scaled to
        integers X = D x: q m . X <= D (q c)."""
        if self.is_empty:
            return False
        D, x = on_integers(list(point))
        if len(x) != self.ambient_dim:
            raise GeometryError("point and body dimensions differ")
        q = self.q
        return all(_idot(m, x) * q <= c * D for m, c in self.planes)

    def support(self, direction: Sequence) -> Fraction:
        """max y . v over the vertices v, read off the integer image: with
        y scaled to integers Y by the least common denominator D of its
        entries, the largest Y . qv over q D."""
        if self.is_empty:
            raise GeometryError("support of empty body")
        D, y = on_integers(list(direction))
        if len(y) != self.ambient_dim:
            raise GeometryError("direction and body dimensions differ")
        return Fraction(max(_idot(y, p) for p in self.images), self.q * D)

    @cached_property
    def centroid(self) -> Vec:
        n = len(self.images)
        return tuple(Fraction(sum(p[k] for p in self.images), n * self.q)
                     for k in range(self.ambient_dim))

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
        # the chart is one to one on the vertices, so the projected images
        # are distinct and keep the vertex order
        keys = list(map(itemgetter(*cols), self.images))
        index = dict(zip(keys, range(len(keys))))
        return tuple(map(index.__getitem__, _chain(sorted(keys))))

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Index pairs of the 1 dimensional faces."""
        k = self.intrinsic_dim
        if k <= 0:
            return ()
        if k == 1:
            return ((0, len(self.images) - 1),)
        if k == 2:
            cyc = self.boundary_cycle
            return tuple(
                tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)]))) for i in range(len(cyc))
            )
        return tuple(sorted({tuple(sorted(e)) for _, idx in self._facets
                             for e in zip(idx, idx[1:] + idx[:1])}))

    @cached_property
    def _facets(self) -> tuple[tuple[Plane, tuple[int, ...]], ...]:
        """Each plane of the body with the indices of its vertices, the
        images p with m . p = q c.  In 3D the indices of a polygon facet are
        in cyclic order: the monotone chain on the projection that drops
        the last coordinate the normal uses, which is one to one on the
        facet.  A flat body's plane may hold one or two vertices; those
        keep their index order."""
        ints = self.images
        out = []
        for m, c in self.planes:
            idx = [i for i, p in enumerate(ints) if _idot(m, p) == c]
            if self.ambient_dim == 3 and len(idx) > 2:
                k = _last_axis(m)
                proj = {(ints[i][:k] + ints[i][k + 1:]): i for i in idx}
                idx = [proj[p] for p in _chain(sorted(proj))]
            out.append(((m, c), tuple(idx)))
        return tuple(out)

    def face(self, idx: Sequence[int]) -> "Polytope":
        """The face of the body on the vertex indices idx (a vertex, an
        edge or a 2-face), as construct builds it from those vertices: a
        slice of the body's image.  No three vertices of a face are
        collinear, so its first three span its affine hull."""
        idx = sorted(idx)
        keys = [self.images[i] for i in idx]
        basis = [sub(p, keys[0]) for p in keys[1:3]]
        _, hs, cycle = _hull_flat(keys, basis)
        out = Polytope(self.ambient_dim, self.q, keys, sorted(hs))
        if cycle is not None:
            out.__dict__["boundary_cycle"] = cycle
        out.__dict__["intrinsic_dim"] = len(basis)
        out.__dict__["float_vertices"] = self.float_vertices[idx]
        return out

    # ---- transforms ---------------------------------------------------

    def translate(self, shift: Sequence) -> "Polytope":
        """The body moved by shift.  Adding one vector to every image keeps
        their order, and the planes, each with its own normal, stay sorted
        by their normals."""
        if self.is_empty:
            return self
        D, t = on_integers(list(shift))
        Q = math.lcm(self.q, D)
        a, t = Q // self.q, [x * (Q // D) for x in t]
        images = [tuple(x * a + y for x, y in zip(p, t, strict=True)) for p in self.images]
        return Polytope(self.ambient_dim, Q, images,
                        [(m, c * a + _idot(m, t)) for m, c in self.planes])

    def scale(self, t) -> "Polytope":
        t = Fraction(t)
        if t <= 0:
            raise GeometryError("scale factor must be positive")
        if self.is_empty:
            return self
        num, den = t.as_integer_ratio()
        return Polytope(self.ambient_dim, self.q * den,
                        [tuple(num * x for x in p) for p in self.images],
                        [(m, num * c) for m, c in self.planes])

    def reflect_last(self) -> "Polytope":
        """Mirror in the hyperplane where the last coordinate vanishes."""
        if self.is_empty:
            return self

        def flip(p):
            return p[:-1] + (-p[-1],)

        return Polytope(self.ambient_dim, self.q, sorted(map(flip, self.images)),
                        sorted((flip(m), c) for m, c in self.planes))

    def minkowski_sum(self, other: "Polytope") -> "Polytope":
        if self.is_empty or other.is_empty:
            return Polytope.empty(self.ambient_dim)
        Q = math.lcm(self.q, other.q)
        a, b = Q // self.q, Q // other.q
        return _hulled(self.ambient_dim, Q, [
            tuple(a * x + b * y for x, y in zip(u, v, strict=True))
            for u in self.images for v in other.images])

    # ---- clipping and intersection ------------------------------------

    def clip(self, normal: Sequence, offset) -> "Polytope":
        """Intersect with the halfspace normal . x <= offset, read as the
        integer row N . x <= O that on_integers scales it to."""
        if self.is_empty:
            return self
        ints = on_integers([*normal, offset])[1]
        N, O = ints[:-1], ints[-1]
        if not any(N):
            return self if O >= 0 else Polytope.empty(self.ambient_dim)
        # the slack N . v - O of each vertex v, times q > 0
        q, pts = self.q, self.images
        vals = [_idot(N, p) - q * O for p in pts]
        if all(v <= 0 for v in vals):
            return self
        keep = [i for i, s in enumerate(vals) if s <= 0]
        if not keep:
            return Polytope.empty(self.ambient_dim)
        # the slack vanishes on an edge with si < 0 < sj at the point
        # (sj * v_i - si * v_j) / (sj - si), which no other edge and no
        # vertex holds: each such point is its image numerator over its
        # weight q (sj - si), and each kept vertex its image over q
        cuts = []
        for i, j in self.edge_list:
            si, sj = vals[i], vals[j]
            if (si < 0 < sj) or (sj < 0 < si):
                cuts.append((tuple(x * sj - y * si for x, y in zip(pts[i], pts[j])), sj - si))
        # all on one scale, Q = q lcm(|sj - si|)
        scale = math.lcm(*map(itemgetter(1), cuts))
        keys = [tuple(x * scale for x in pts[i]) for i in keep]
        keys += [tuple(x * (scale // w) for x in p) for p, w in cuts]
        Q = q * scale
        if self.intrinsic_dim == self.ambient_dim and min(vals) < 0:
            # a vertex strictly inside keeps the body full dimensional, and
            # an old facet stays a facet iff it has such a vertex; the cut's
            # plane (m, Q c) is an integer m . (Q a) at the cut's points
            planes = [(m, c * scale) for (m, c), idx in self._facets
                      if any(vals[i] < 0 for i in idx)]
            m, c = _canon_halfspace(N, O)
            planes.append((m, int(c * Q)))
            out = Polytope(self.ambient_dim, Q, sorted(keys), sorted(planes))
            out.__dict__["intrinsic_dim"] = self.ambient_dim
            return out
        return _hulled(self.ambient_dim, Q, keys)

    def intersect(self, other: "Polytope") -> "Polytope":
        if self.ambient_dim != other.ambient_dim:
            raise GeometryError("ambient dimensions differ")
        if other.is_empty:
            return Polytope.empty(self.ambient_dim)
        out, q = self, other.q
        for m, c in other.planes:
            if out.is_empty:
                break
            # m . x <= c / q as the integer row q m . x <= c
            out = out.clip([q * x for x in m], c)
        return out

    def convex_union(self, other: "Polytope") -> "Polytope":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        Q = math.lcm(self.q, other.q)
        return _hulled(self.ambient_dim, Q, [tuple(x * (Q // P.q) for x in p)
                                             for P in (self, other) for p in P.images])

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
        """Lebesgue measure in the ambient dimension, exact, read off the
        integer image q * P: the sum over the facets (m, c) of c times the
        facet's area projected along the last coordinate k its normal
        uses, over |m_k| d.  On the image each term is an integer over
        |m_k|: the plane's offset q c, times the projected area, a length,
        or twice an area (shoelace), over q^(d-1)."""
        if self.is_empty or self.intrinsic_dim < self.ambient_dim:
            return Fraction(0)
        d = self.ambient_dim
        q, ints = self.q, self.images
        if d == 1:
            return Fraction(ints[-1][0] - ints[0][0], q)
        terms = []
        for (m, c), idx in self._facets:
            k = _last_axis(m)
            proj = [ints[i][:k] + ints[i][k + 1:] for i in idx]
            if d == 2:
                area = abs(proj[1][0] - proj[0][0])
            else:
                area = abs(sum(a[0] * b[1] - b[0] * a[1]
                               for a, b in zip(proj, proj[1:] + proj[:1])))
            terms.append((c * area, abs(m[k])))
        den = math.lcm(*map(itemgetter(1), terms))
        num = sum(t * (den // w) for t, w in terms)
        return Fraction(num, den * q ** d * d * (1 if d == 2 else 2))

    @cached_property
    def relative_volume_float(self) -> float:
        """Hausdorff measure of the body in its affine hull dimension."""
        k = self.intrinsic_dim
        if k < 0:
            return 0.0
        if k == self.ambient_dim:
            return float(self.volume)
        order = self.boundary_cycle if k == 2 else (0, -1)[:k + 1]
        return _face_measure(self.q, [self.images[i] for i in order])

    # ---- float helpers ------------------------------------------------

    @cached_property
    def float_vertices(self) -> np.ndarray:
        q = self.q
        return np.array([[x / q for x in p] for p in self.images], dtype=float)

    @cached_property
    def float_halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.array([[float(x) for x in m] for m, _ in self.planes], dtype=float)
        b = np.array([c / self.q for _, c in self.planes], dtype=float)
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
    boundary cycle; its image, the kept floats' exact values over their
    least common denominator, and its edge planes are made on first read.
    Only this class has them as cached properties: a class attribute named
    like an instance attribute makes every read of that attribute slower,
    on every body."""

    def __init__(self, float_vertices: np.ndarray, boundary_cycle: tuple[int, ...]):
        self.ambient_dim = 2
        self.intrinsic_dim = 2
        self.float_vertices = float_vertices
        self.boundary_cycle = boundary_cycle

    @cached_property
    def images(self) -> tuple[Image, ...]:
        """The image of the kept floats; q is stored with it."""
        self.q, keys = _integer_image(self.float_vertices.tolist())
        return tuple(keys)

    @cached_property
    def q(self) -> int:
        self.images  # which stores q
        return self.__dict__["q"]

    @cached_property
    def planes(self) -> tuple[Plane, ...]:
        return tuple(sorted(_edge_halfspaces([self.images[i] for i in self.boundary_cycle])))


def _hulled(d: int, q: int, pts: Iterable[Image]) -> Polytope:
    """The hull of the integer points q * x, with its rank and, for a
    polygon, its boundary cycle."""
    keys = sorted(set(pts))
    basis = _affine_basis(keys)
    kept, hs, cycle = _hull(keys, basis)
    out = Polytope(d, q, kept, sorted(hs))
    if cycle is not None:
        out.__dict__["boundary_cycle"] = cycle
    out.__dict__["intrinsic_dim"] = len(basis)
    return out


def _prism(domain: Polytope, lo, level) -> Polytope:
    """domain x [lo, level] for a nonempty domain and lo < level, with its
    rank recorded: one more than the domain's.  Each domain image p
    becomes (a p, Q lo) and (a p, Q level) at the common denominator Q,
    in that order, so the images stay sorted."""
    Q = math.lcm(domain.q, lo.denominator, level.denominator)
    a, lo, level = Q // domain.q, int(lo * Q), int(level * Q)
    z = (0,) * domain.ambient_dim
    planes = [(m + (0,), c * a) for m, c in domain.planes]
    planes += [(z + (1,), level), (z + (-1,), -lo)]
    body = Polytope(domain.ambient_dim + 1, Q,
                    [tuple(a * x for x in p) + (t,) for p in domain.images for t in (lo, level)],
                    sorted(planes))
    body.__dict__["intrinsic_dim"] = domain.intrinsic_dim + 1
    return body


def _move_lid(epigraph: Polytope, old, level) -> Polytope:
    """A truncated epigraph with its lid moved from level old to level,
    both strictly above the graph: the lid vertices and the top plane
    ((0, ..., 0, 1), q old) move, every graph vertex stays.  Each vertex
    keeps its place in the sorted order, and so does the top plane, the
    only one with its normal, so the rank, the facets' and the boundary's
    vertex indices and the edges carry over."""
    d, q = epigraph.ambient_dim, epigraph.q
    Q = math.lcm(q, level.denominator)
    a, lid, top = Q // q, int(old * q), (0,) * (d - 1) + (1,)
    level = int(level * Q)
    images = [tuple(a * x for x in p[:-1]) + (level if p[-1] == lid else a * p[-1],)
              for p in epigraph.images]
    out = Polytope(d, Q, images, [(m, level if m == top else a * c)
                                  for m, c in epigraph.planes])
    known = epigraph.__dict__
    out.__dict__["intrinsic_dim"] = epigraph.intrinsic_dim
    for name in ("boundary_cycle", "edge_list"):
        if name in known:
            out.__dict__[name] = known[name]
    if "_facets" in known:
        moved = dict(zip(epigraph.planes, out.planes))
        out.__dict__["_facets"] = tuple((moved[h], idx) for h, idx in known["_facets"])
    return out


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
        out.append(_hulled(k, b.q, [tuple(p[c] for c in cols) for p in b.images]).volume)
    return out


def _face_measure(q: int, cycle: Sequence[tuple[int, ...]]) -> float:
    """Hausdorff measure of a face of dimension at most 2 from the integer
    images q * v of its vertices in cyclic order: 1 for a point, the
    length of a segment, the fan sum of the triangles of a polygon in
    space.  A length is the root of an integer N over q^2 and a cross
    product's the root of one over q^4 (_root)."""
    a = cycle[0]
    if len(cycle) == 1:
        return 1.0
    if len(cycle) == 2:
        u = [x - y for x, y in zip(cycle[1], a)]
        return _root(_idot(u, u), q)
    q2 = q * q
    tot = 0.0
    for b, c in zip(cycle[1:], cycle[2:]):
        n = _icross(a, b, c)
        tot += 0.5 * _root(_idot(n, n), q2)
    return tot


def _root(N: int, r: int) -> float:
    """sqrt(N) / r for integers N >= 0 and r > 0: the root of N / r^2, a
    correctly rounded int/int division, as float() of the rational value
    is.  Where that quotient overflows (a root above 1e154), isqrt(N) / r,
    whose floor is off by less than one part in 1e154."""
    try:
        return (N / (r * r)) ** 0.5
    except OverflowError:
        return math.isqrt(N) / r
