"""Regions cut out of the unit sphere by polyhedral cones.

A patch is built from exact rational cone generators.  All cone structure
is read off one exact hull of the origin and the generators: its dimension
is the span s of the cone, and the normals m of its facets through the
origin give the cone as {x : m·x ≤ 0} (its bounding halfspaces, equality
pairs included for a flat cone), decide membership, mark the lineality
rays (those with m·r = 0 for every m) and the extreme rays of a pointed
wedge.  Measures and integrals of continuous functions over the patch are
floats.

One builder serves the circle (d = 2) and the sphere (d = 3).  Patch kinds
by linear span s and lineality l of the cone:
    points    s=1        one direction (l=0) or an antipodal pair (l=1)
    arc       s=2        wedge arc, half circle (l=1), full circle (l=2)
    polygon   s=3, l=0   convex spherical polygon, area by Girard
    lune      s=3, l=1   region between two meridian half planes
    cap       s=3, l=2   hemisphere
    sphere    s=3, l=3   everything
An arc carries its frame and angle range; a lune, cap or sphere carries
its axis, frame and polar and azimuthal extents, so all three integrate as
one band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .bodies import GeometryError, Polytope, _idot
from .linalg import Vec, dot, primitive

_GL_NODES = {}

# Adaptive quadrature stops subdividing past these depths and returns its
# finest estimate.
DEPTH_CAP_1D = 18
DEPTH_CAP_TRI = 7


def _gl(n: int):
    if n not in _GL_NODES:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_NODES[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_NODES[n]


def _unit(v) -> np.ndarray:
    a = np.asarray([float(x) for x in v], dtype=float)
    return a / np.linalg.norm(a)


def _tangent_normals(gens: Sequence[Sequence], d: int) -> tuple[list[tuple[int, ...]], int]:
    """Normals m of the facets of conv({0} ∪ gens) through the origin, so
    that cone(gens) = {x : m·x ≤ 0 for every m}: the tangent cone of a
    polytope at a point is cut out by the facets through it.  Also the
    hull's dimension, which is the dimension of the generators' span."""
    hull = Polytope.construct([(0,) * d, *gens], d)
    return [m for m, c in hull.planes if c == 0], hull.intrinsic_dim


def in_cone(x: Sequence[Fraction], gens: Sequence[Vec]) -> bool:
    """Exact membership of x in the conical hull of the generators."""
    return all(dot(m, x) <= 0 for m in _tangent_normals(gens, len(x))[0])


def _dedupe_rays(gens: Sequence[Vec]) -> list[tuple[int, ...]]:
    """The primitive directions of the nonzero generators, each once, in
    order of first appearance."""
    return list(dict.fromkeys(primitive(g) for g in gens if any(g)))


def _extreme_pair(pointed: list[tuple[int, ...]], normals: list[tuple[int, ...]]
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two extreme rays of a pointed rank-2 cone, exact: the pointed
    rays on a bounding hyperplane that is not an equality, in order.  Every
    normal is orthogonal to the lineality space, so a ray and its part off
    that space lie on the same hyperplanes."""
    facets = [m for m in normals if tuple(-x for x in m) not in normals]
    ea, eb = [g for g in pointed if any(_idot(m, g) == 0 for m in facets)]
    return ea, eb


def _extreme_cycle_3d(pointed: list[tuple[int, ...]],
                      bounding: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of a pointed full rank cone with integer rays, in
    cyclic order, exact.  Every ray has m·g ≤ 0 for each tangent normal m,
    with equality for all of them only at g = 0, so w = −Σm has w·g > 0 on
    every ray.  The rays are cut by the plane w·x = 1 and read in the
    integer Gram-Schmidt basis of its direction space (int_complement),
    the rational one up to positive factors, which keep the section's
    lexicographic order and orientation and so its hull cycle."""
    w = tuple(-sum(m[k] for m in bounding) for k in range(3))
    ts = [_idot(w, g) for g in pointed]
    if not all(t > 0 for t in ts):
        raise GeometryError("no strict interior direction found for pointed cone")
    b0, b1 = linalg.int_complement([w], 3)
    coords = [(Fraction(_idot(b0, g), t), Fraction(_idot(b1, g), t))
              for g, t in zip(pointed, ts)]
    hull = Polytope.construct(coords, 2)
    lookup = {c: pointed[i] for i, c in enumerate(coords)}
    return [lookup[hull.vertices[j]] for j in hull.boundary_cycle]


@dataclass(frozen=True)
class SphericalPatch:
    kind: str
    dim: int
    measure: float
    data: tuple
    rays: tuple[Vec, ...] = ()
    bounding: tuple[tuple[int, ...], ...] = ()

    @staticmethod
    def from_generators(gens: Sequence[Sequence], d: int) -> "SphericalPatch":
        rays = _dedupe_rays(gens)
        if not rays:
            raise GeometryError("cone has no nonzero generators")
        bounding, s = _tangent_normals(rays, d)
        # lineality space: spanned by the rays on every bounding hyperplane
        lin_rays = [r for r in rays if all(_idot(m, r) == 0 for m in bounding)]
        lin_basis = linalg.independent_subset(lin_rays)
        l = len(lin_basis)
        # pointed part: project the remaining rays off the lineality space
        ortho = linalg.int_orthogonalize(lin_basis)
        pointed = _dedupe_rays([linalg.int_reject(r, ortho) for r in rays])
        kind, measure, data = SphericalPatch._build(
            l, s - l, s, pointed, lin_basis, bounding)
        return SphericalPatch(kind, d, measure, data, tuple(rays), tuple(bounding))

    # ---- assembly ------------------------------------------------------

    @staticmethod
    def _build(l, p, s, pointed, lin_basis, bounding):
        """Kind, measure and quadrature data of the patch; the branches for
        a span s ≤ 2 serve the circle as well as the sphere."""
        if s == 1:
            if l == 1:
                u = _unit(lin_basis[0])
                return "points", 2.0, (u, -u)
            return "points", 1.0, (_unit(pointed[0]),)
        if l == 3:
            axis = np.array([0.0, 0.0, 1.0])
            return "sphere", 4 * math.pi, (axis, *_orthonormal_complement_f(axis),
                                           math.pi, 2 * math.pi)
        if l == 2 and p == 0:
            # the cone is a plane: great circle
            e1, e2, _ = _arc_frame(*lin_basis)
            return "arc", 2 * math.pi, (e1, e2, 0.0, 2 * math.pi)
        if l == 2:
            # half space: the pointed remainder is orthogonal to the plane
            axis = _unit(pointed[0])
            return "cap", 2 * math.pi, (axis, *_orthonormal_complement_f(axis),
                                        math.pi / 2, 2 * math.pi)
        if s == 2:
            if l == 1:
                # half great circle from -t through a to t
                t = _unit(lin_basis[0])
                a = _unit(pointed[0])
                return "arc", math.pi, (t, a, 0.0, math.pi)
            ua, e2, ang = _arc_frame(*_extreme_pair(pointed, bounding))
            return "arc", ang, (ua, e2, 0.0, ang)
        if l == 1:
            # lune between the meridian planes through the wedge edges
            ua, e2, theta = _arc_frame(*_extreme_pair(pointed, bounding))
            return "lune", 2 * theta, (_unit(lin_basis[0]), ua, e2, math.pi, theta)
        # pointed full dimensional cone: spherical polygon
        verts = [_unit(v) for v in _extreme_cycle_3d(pointed, bounding)]
        return "polygon", _girard_area(verts), tuple(verts)

    # ---- queries -------------------------------------------------------

    def contains_direction(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether the float direction u lies in the cone (boundary included)."""
        for m in self.bounding:
            mf = np.array([float(x) for x in m])
            if float(mf @ u) > tol * np.linalg.norm(mf):
                return False
        return True

    # ---- integration ---------------------------------------------------

    def integrate(self, f: Callable[[np.ndarray], float], tol: float = 1e-11) -> float:
        if self.kind == "points":
            return float(sum(f(u) for u in self.data))
        if self.kind == "arc":
            e1, e2, p0, p1 = self.data
            g = lambda phi: f(math.cos(phi) * e1 + math.sin(phi) * e2)
            return _adaptive_1d(g, p0, p1, tol)
        if self.kind in ("cap", "lune", "sphere"):
            axis, e1, e2, psi, theta = self.data
            return _sphere_band(f, axis, e1, e2, 0.0, psi, 0.0, theta, tol)
        if self.kind == "polygon":
            return _fan(self.data,
                        lambda a, b, c, tol: _spherical_tri_integral(a, b, c, f, tol), tol)
        raise GeometryError(f"unknown patch kind {self.kind}")


def _girard_area(verts: list[np.ndarray]) -> float:
    k = len(verts)
    total = 0.0
    for i in range(k):
        a = verts[(i - 1) % k]
        v = verts[i]
        b = verts[(i + 1) % k]
        ta = a - float(a @ v) * v
        tb = b - float(b @ v) * v
        ta /= np.linalg.norm(ta)
        tb /= np.linalg.norm(tb)
        total += math.acos(max(-1.0, min(1.0, float(ta @ tb))))
    return total - (k - 2) * math.pi


def _arc_frame(ea, eb) -> tuple[np.ndarray, np.ndarray, float]:
    """The unit vector ua along ea, the unit vector e2 orthogonal to it in
    the plane of ea and eb on eb's side, and the angle from ea to eb."""
    ua, ub = _unit(ea), _unit(eb)
    angle = math.acos(max(-1.0, min(1.0, float(ua @ ub))))
    e2 = ub - float(ub @ ua) * ua
    return ua, e2 / np.linalg.norm(e2), angle


def _orthonormal_complement_f(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = int(np.argmin(np.abs(axis)))
    e = np.zeros(3)
    e[k] = 1.0
    b1 = np.cross(axis, e)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(axis, b1)
    return b1, b2


def _adaptive_1d(g, a: float, b: float, tol: float, depth: int = 0,
                 whole: float | None = None) -> float:
    """Integral of g over [a, b] by Gauss-Legendre 12 on recursive halving.
    Each half is handed the estimate its parent computed for it."""
    xs, ws = _gl(12)

    def quad(lo, hi):
        return (hi - lo) * float(np.sum(ws * np.array([g(lo + (hi - lo) * x) for x in xs])))

    mid = 0.5 * (a + b)
    if whole is None:
        whole = quad(a, b)
    left, right = quad(a, mid), quad(mid, b)
    halves = left + right
    if abs(whole - halves) < tol * (1.0 + abs(halves)) or depth > DEPTH_CAP_1D:
        return halves
    return _adaptive_1d(g, a, mid, tol / 2, depth + 1, left) + \
        _adaptive_1d(g, mid, b, tol / 2, depth + 1, right)


def _sphere_band(f, axis, b1, b2, psi0, psi1, phi0, phi1, tol) -> float:
    def g(psi):
        def h(phi):
            u = math.cos(psi) * axis + math.sin(psi) * (
                math.cos(phi) * b1 + math.sin(phi) * b2)
            return f(u)
        return math.sin(psi) * _adaptive_1d(h, phi0, phi1, tol)
    return _adaptive_1d(g, psi0, psi1, tol)


def _tri_rule(tris: np.ndarray, g_rows, n: int) -> list:
    """The collapsed Gauss-Legendre rule of order n on each triangle
    tris[k] = (v0, v1, v2).  The nodes of all the triangles go to the
    batch integrand g_rows in one (rows, d) array; each rule's terms are
    summed in node order, as one scalar loop would."""
    xs, ws = _gl(n)
    v0 = tris[:, 0]
    e1, e2 = tris[:, 1] - v0, tris[:, 2] - v0
    # node (i, j) is v0 + s_i * ((1 - s_j) * e1 + s_j * e2)
    inner = (1 - xs)[:, None] * e1[:, None, :] + xs[:, None] * e2[:, None, :]
    pts = v0[:, None, None, :] + xs[:, None, None] * inner[:, None, :, :]
    k, d = tris.shape[0], tris.shape[2]
    vals = np.asarray(g_rows(pts.reshape(-1, d)), dtype=float).reshape(k, n, n)
    terms = (ws[:, None] * ws[None, :] * xs[:, None] * vals).reshape(k, -1)
    sums = 0.0 + np.cumsum(terms, axis=1)[:, -1]
    if d == 2:
        area2 = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    else:
        cross = np.cross(e1, e2)
        area2 = np.sqrt(np.vecdot(cross, cross))
    return list(area2 * sums)


def _adaptive_tri(v0, v1, v2, g_rows, tol: float, order: int) -> float:
    """Integral over the flat triangle v0 v1 v2 by the collapsed
    Gauss-Legendre rule of the given order on 4-way midpoint subdivision,
    breadth first.  g_rows maps a (rows, d) array of points to their
    values.  Each level's open triangles split at once: the nodes of all
    their children go to g_rows in one _tri_rule call, and each child is
    handed the estimate that call made for it.  A triangle closes when its
    children's sum is within tol * (1 + |sum|) of its own estimate, tol
    quartered per level, or once its depth passes DEPTH_CAP_TRI; its value
    is then that sum.  An open triangle's value is 0 + the values of its
    four children in child order, folded up from the deepest level, so
    the bits are those of the depth-first recursion."""
    tris = np.array([(v0, v1, v2)])
    d = tris.shape[2]
    wholes = _tri_rule(tris, g_rows, order)
    levels = []
    depth = 0
    while len(tris):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        # subs[k, j] is child j of triangle k
        subs = np.stack([np.stack(t, axis=1) for t in
                         ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))], axis=1)
        parts = _tri_rule(subs.reshape(-1, 3, d), g_rows, order)
        fines = [sum(parts[j:j + 4]) for j in range(0, len(parts), 4)]
        split = [not (abs(fine - whole) < tol * (1.0 + abs(fine)) or depth > DEPTH_CAP_TRI)
                 for fine, whole in zip(fines, wholes)]
        levels.append((fines, split))
        tris = subs[np.array(split, dtype=bool)].reshape(-1, 3, d)
        wholes = [p for j, p in enumerate(parts) if split[j // 4]]
        tol, depth = tol / 4, depth + 1
    values: list = []
    for fines, split in reversed(levels):
        below, values = iter(values), []
        for fine, opened in zip(fines, split):
            values.append(sum(next(below) for _ in range(4)) if opened else fine)
    return values[0]


def _fan(verts: Sequence[np.ndarray], tri: Callable, tol: float) -> float:
    """Sum of tri(verts[0], verts[j], verts[j+1], tri_tol) over the fan of
    a convex polygon from its first vertex, with tol split evenly over the
    triangles."""
    total = 0.0
    tri_tol = tol / max(1, len(verts) - 2)
    for j in range(1, len(verts) - 1):
        total += tri(verts[0], verts[j], verts[j + 1], tri_tol)
    return total


def _spherical_tri_integral(v0, v1, v2, f, tol: float) -> float:
    """Integral of f over the spherical triangle via radial projection of
    the flat triangle with the same vertices."""
    nu = np.cross(v1 - v0, v2 - v0)
    norm = np.linalg.norm(nu)
    if norm < 1e-30:
        return 0.0
    nu = nu / norm
    if float(nu @ v0) < 0:
        nu = -nu

    def g_rows(pts):
        # per row the bits of norm(pt) and pt @ nu: vecdot is the same dot.
        # Only f is called per node; float_power gives the bits of the
        # scalar s ** 3, where the array r ** 3 need not
        r = np.sqrt(np.vecdot(pts, pts))
        h = np.vecdot(pts, nu)
        vals = np.array([f(u) for u in pts / r[:, None]], dtype=float)
        return vals * h / np.float_power(r, 3)

    return _adaptive_tri(v0, v1, v2, g_rows, tol, 8)
