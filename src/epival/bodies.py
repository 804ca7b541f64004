"""Convex polytopes with exact rational vertex and halfspace data.

A Polytope lives in ambient dimension 1, 2 or 3 and may be lower
dimensional (a polygon floating in space, a segment, a point) or empty.
Vertices are fractions.Fraction tuples in lexicographic order.  Halfspaces
are pairs (m, c) meaning m . x <= c with m a primitive integer vector; a
flat body carries equality constraints as opposite halfspace pairs.

Every hull is decided on the integer image of its points, scaled by
their common denominator: the monotone chain in the plane, one incremental
hull in space, with no fallback.  A full dimensional body derives its
facets once, in Polytope._facets: each halfspace with its vertices, in
cyclic order in 3D.  Edges, volume, clipping and the facet areas of the
surface area measure all read them.  A plane in space is projected one to
one by dropping the last coordinate its normal uses (_last_axis).

All predicates and constructions in this module are exact.  Floating
point enters only through the float_* views, relative_volume_float, and
the metric routines nearest_points, distances_to and hausdorff_distance.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .linalg import Vec, cross3, dot, primitive, smul, solve, sub

Halfspace = tuple[tuple[int, ...], Fraction]


class GeometryError(Exception):
    pass


def _as_points(points: Iterable[Sequence]) -> list[Vec]:
    out = []
    for p in points:
        out.append(tuple(Fraction(x) for x in p))
    return out


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


def _hull_1d(points: list[Vec]) -> list[Vec]:
    lo = min(points)
    hi = max(points)
    return [lo] if lo == hi else [lo, hi]


def _integer_image(points: Iterable[Vec]) -> tuple[int, dict]:
    """The common denominator q of the points' coordinates, and a map from
    each integer point q * p back to p.  Scaling by q > 0 keeps the
    lexicographic order and the sign of every turn, so the images decide
    both exactly, in integer instead of Fraction arithmetic."""
    points = list(points)
    q = math.lcm(*(x.denominator for p in points for x in p))
    return q, {tuple(x.numerator * (q // x.denominator) for x in p): p
               for p in points}


def _chain(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone chain over distinct integer points in lexicographic order,
    of affine rank 2: the strict hull vertices, counterclockwise from the
    first point."""

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull_2d(points: Iterable[Vec]) -> list[Vec]:
    """Strict hull vertices of rational points of affine rank 2, in
    counterclockwise order from the lexicographically smallest."""
    _, image = _integer_image(points)
    return [image[p] for p in _chain(sorted(image))]


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    """Dot product of integer vectors, in integer arithmetic."""
    return sum(map(mul, a, b))


def _last_axis(m: Sequence) -> int:
    """The last coordinate the normal m uses.  Dropping it projects the
    normal's plane one to one onto the other coordinates."""
    return max(j for j, x in enumerate(m) if x)


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


@dataclass(frozen=True, eq=False)
class Polytope:
    ambient_dim: int
    vertices: tuple[Vec, ...]
    halfspaces: tuple[Halfspace, ...] = field(repr=False)

    # ---- constructors -------------------------------------------------

    @staticmethod
    def empty(ambient_dim: int) -> "Polytope":
        return Polytope(ambient_dim, (), ())

    @staticmethod
    def construct(points: Iterable[Sequence], ambient_dim: int | None = None) -> "Polytope":
        pts = _as_points(points)
        if ambient_dim is None:
            if not pts:
                raise GeometryError("ambient_dim required for empty input")
            ambient_dim = len(pts[0])
        if ambient_dim not in (1, 2, 3):
            raise GeometryError(f"unsupported ambient dimension {ambient_dim}")
        if not pts:
            return Polytope.empty(ambient_dim)
        if any(len(p) != ambient_dim for p in pts):
            raise GeometryError("mixed point dimensions")
        q, image = _integer_image(pts)
        keys = sorted(image)
        pts = [image[k] for k in keys]
        rank = _affine_rank(keys)
        if rank < ambient_dim:
            return Polytope._construct_flat(pts, ambient_dim, rank)
        if ambient_dim == 1:
            verts = _hull_1d(pts)
            hs = [
                _canon_halfspace((Fraction(-1),), -verts[0][0]),
                _canon_halfspace((Fraction(1),), verts[-1][0]),
            ]
            return Polytope(1, tuple(verts), tuple(sorted(hs)))
        if ambient_dim == 2:
            # edges of the integer image: primitive normal m, offset m . a / q
            cycle = _chain(keys)
            hs = []
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                n = (b[1] - a[1], a[0] - b[0])
                g = math.gcd(*n)
                m = (n[0] // g, n[1] // g)
                hs.append((m, Fraction(_idot(m, a), q)))
            return Polytope(2, tuple(image[k] for k in sorted(cycle)),
                            tuple(sorted(hs)))
        facets, idx = _hull_3d(keys)
        return Polytope(3, tuple(pts[i] for i in sorted(idx)),
                        tuple(sorted((m, Fraction(c, q)) for m, c in facets)))

    @staticmethod
    def _construct_flat(pts: list[Vec], ambient_dim: int, rank: int) -> "Polytope":
        base = pts[0]
        if rank == 0:
            hs = []
            for k in range(ambient_dim):
                e = tuple(Fraction(int(k == j)) for j in range(ambient_dim))
                hs.append(_canon_halfspace(e, base[k]))
                hs.append(_canon_halfspace([-x for x in e], -base[k]))
            return Polytope(ambient_dim, (base,), tuple(sorted(set(hs))))
        basis = _affine_basis(pts)
        # exact coordinates of each point in the affine basis
        gram = [[dot(u, v) for v in basis] for u in basis]
        coords = []
        for p in pts:
            rhs = [dot(u, sub(p, base)) for u in basis]
            y = solve(gram, rhs)
            coords.append(y)
        inner = Polytope.construct(coords, rank)
        # dual basis inside the span lifts relative normals to ambient ones
        dual = []
        for j in range(rank):
            lam = solve(gram, [Fraction(int(i == j)) for i in range(rank)])
            w = tuple(
                sum(lam[i] * basis[i][k] for i in range(rank)) for k in range(ambient_dim)
            )
            dual.append(w)
        hs: list[Halfspace] = []
        for m, c in inner.halfspaces:
            n = tuple(
                sum(Fraction(m[j]) * dual[j][k] for j in range(rank))
                for k in range(ambient_dim)
            )
            hs.append(_canon_halfspace(n, c + dot(n, base)))
        # equality constraints pin the affine hull
        comp = linalg.orthogonal_complement(basis, ambient_dim)
        for w in comp:
            hs.append(_canon_halfspace(w, dot(w, base)))
            hs.append(_canon_halfspace([-x for x in w], -dot(w, base)))
        lifted = []
        for y in inner.vertices:
            v = tuple(
                base[k] + sum(y[j] * basis[j][k] for j in range(rank))
                for k in range(ambient_dim)
            )
            lifted.append(v)
        return Polytope(ambient_dim, tuple(sorted(lifted)), tuple(sorted(set(hs))))

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
        x = tuple(Fraction(v) for v in point)
        return all(dot(m, x) <= c for m, c in self.halfspaces)

    def support(self, direction: Sequence) -> Fraction:
        if self.is_empty:
            raise GeometryError("support of empty body")
        y = tuple(Fraction(v) for v in direction)
        return max(dot(y, v) for v in self.vertices)

    @cached_property
    def centroid(self) -> Vec:
        n = len(self.vertices)
        return tuple(sum(v[k] for v in self.vertices) / n for k in range(self.ambient_dim))

    # ---- faces --------------------------------------------------------

    @cached_property
    def boundary_cycle(self) -> tuple[int, ...]:
        """Vertex indices of a 2 dimensional body in cyclic order."""
        if self.intrinsic_dim != 2:
            raise GeometryError("boundary cycle needs a 2 dimensional body")
        verts = self.vertices
        if self.ambient_dim == 3:
            # drop the last coordinate the plane's normal uses
            k = _last_axis(self.equality_planes[0][0])
            verts = [v[:k] + v[k + 1:] for v in verts]
        # the projection is one to one on the vertices, so their images
        # are distinct and keep the vertex order
        _, image = _integer_image(verts)
        index = {k: i for i, k in enumerate(image)}
        return tuple(index[k] for k in _chain(sorted(image)))

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
        q, image = _integer_image(self.vertices)
        return q, tuple(image)

    @cached_property
    def _facets(self) -> tuple[tuple[Halfspace, tuple[int, ...]], ...]:
        """Each halfspace of a full dimensional body with the indices of
        its vertices, found by integer dot products on the integer images.
        In 3D the indices are in cyclic order: the monotone chain on the
        projection that drops the last coordinate the normal uses, which
        is one to one on the facet."""
        q, ints = self._image
        out = []
        for m, c in self.halfspaces:
            idx = [i for i, p in enumerate(ints)
                   if _idot(m, p) * c.denominator == q * c.numerator]
            if self.ambient_dim == 3:
                k = _last_axis(m)
                proj = {(ints[i][:k] + ints[i][k + 1:]): i for i in idx}
                idx = [proj[p] for p in _chain(sorted(proj))]
            out.append(((m, c), tuple(idx)))
        return tuple(out)

    # ---- transforms ---------------------------------------------------

    def translate(self, shift: Sequence) -> "Polytope":
        if self.is_empty:
            return self
        t = tuple(Fraction(v) for v in shift)
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
        if all(Fraction(v) == 0 for v in normal):
            return self if Fraction(offset) >= 0 else Polytope.empty(self.ambient_dim)
        m, c = _canon_halfspace([Fraction(v) for v in normal], Fraction(offset))
        # the slack m . v - c of each vertex v, times q * c.denominator > 0
        q, ints = self._image
        vals = [_idot(m, p) * c.denominator - q * c.numerator for p in ints]
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
            # a segment projects one to one onto the first coordinate its
            # direction uses, a polygon in space onto the coordinates left
            # when the last one its normal uses is dropped
            if k == 1:
                u = sub(hull.vertices[-1], hull.vertices[0])
                cols = (next(j for j, x in enumerate(u) if x),)
            else:
                drop = _last_axis(hull.equality_planes[0][0])
                cols = tuple(j for j in range(3) if j != drop)
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
    def from_dict(data: dict) -> "Polytope":
        d = int(data["dim"])
        pts = [[Fraction(s) for s in v] for v in data["vertices"]]
        if not pts:
            return Polytope.empty(d)
        return Polytope.construct(pts, d)


# a facet-plane projection counts as lying on the facet within FACET_TOL,
# and a point is inside the body within INSIDE_TOL, both relative to
# max(1, |offset|) of each halfspace row
FACET_TOL = 1e-9
INSIDE_TOL = 1e-12


def nearest_points(P: Polytope, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances and metric projections onto the body, vectorized, float.

    Candidates are the vertices, the edges, and the facet planes (or the
    affine hull of a flat polygon in space); a point inside the body is
    its own projection."""
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
