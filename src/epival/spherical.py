"""Regions cut out of the unit sphere by polyhedral cones.

A patch is built from exact rational cone generators.  All cone structure
is read off one exact hull: the facets of conv({0} ∪ generators) through
the origin.  Their normals m give the cone as {x : m·x ≤ 0} (its bounding
halfspaces, equality pairs included for a flat cone), decide membership,
mark the lineality rays (those with m·r = 0 for every m) and the extreme
rays of a pointed wedge.  Measures and integrals of continuous functions
over the patch are floats.

Patch kinds by linear span s and lineality l of the cone, ambient d:
    points    s=1        one direction (l=0) or an antipodal pair (l=1)
    arc       s=2, d any wedge arc, half circle (l=1), full circle (l=2)
    polygon   s=3, l=0   convex spherical polygon, area by Girard
    lune      s=3, l=1   region between two meridian half planes
    cap       s=3, l=2   hemisphere
    sphere    s=3, l=3   everything
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .bodies import GeometryError, Polytope, _hull_2d
from .linalg import Vec, dot, mat_rank, primitive

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


def _tangent_normals(gens: Sequence[Sequence], d: int) -> list[tuple[int, ...]]:
    """Normals m of the facets of conv({0} ∪ gens) through the origin, so
    that cone(gens) = {x : m·x ≤ 0 for every m}: the tangent cone of a
    polytope at a point is cut out by the facets through it."""
    hull = Polytope.construct([(0,) * d, *gens], d)
    return [m for m, c in hull.halfspaces if c == 0]


def in_cone(x: Sequence[Fraction], gens: Sequence[Vec]) -> bool:
    """Exact membership of x in the conical hull of the generators."""
    return all(dot(m, x) <= 0 for m in _tangent_normals(gens, len(x)))


def _dedupe_rays(gens: Sequence[Vec]) -> list[tuple[int, ...]]:
    seen = []
    for g in gens:
        if all(x == 0 for x in g):
            continue
        p = primitive(g)
        if p not in seen:
            seen.append(p)
    return seen


def _extreme_pair(pointed: list[Vec], normals: list[tuple[int, ...]]) -> tuple[Vec, Vec]:
    """The two extreme rays of a pointed rank-2 cone, exact: the pointed
    rays on a bounding hyperplane that is not an equality, in order.  Every
    normal is orthogonal to the lineality space, so a ray and its part off
    that space lie on the same hyperplanes."""
    facets = [m for m in normals if tuple(-x for x in m) not in normals]
    ea, eb = [g for g in pointed if any(dot(m, g) == 0 for m in facets)]
    return ea, eb


def _interior_direction(pointed: list[Vec]) -> Vec:
    """An exact w with w·g > 0 for every generator; the LP is solved only
    when every exact candidate fails."""
    def candidates():
        yield tuple(sum(g[k] for g in pointed) for k in range(3))
        fsum = np.sum([_unit(g) for g in pointed], axis=0)
        if np.linalg.norm(fsum) > 1e-12:
            yield tuple(Fraction(x).limit_denominator(10 ** 6)
                        for x in fsum / np.linalg.norm(fsum))
        for i, j in itertools.combinations(range(len(pointed)), 2):
            yield tuple(x + y for x, y in zip(pointed[i], pointed[j]))
        yield _interior_direction_lp(pointed)

    for w in candidates():
        if all(v == 0 for v in w):
            continue
        if all(dot(w, g) > 0 for g in pointed):
            return tuple(Fraction(x) for x in w)
    raise GeometryError("no strict interior direction found for pointed cone")


def _interior_direction_lp(pointed: list[Vec]) -> Vec:
    """Feasible point of {w : w . g >= 1 for the unit generators}, so the
    float answer has margin near 1 and survives exact re-verification."""
    from scipy.optimize import linprog

    units = np.array([_unit(g) for g in pointed])
    res = linprog(
        c=np.zeros(3),
        A_ub=-units,
        b_ub=-np.ones(len(pointed)),
        bounds=[(-1e9, 1e9)] * 3,
        method="highs",
    )
    if not res.success:
        return (Fraction(0),) * 3
    return tuple(Fraction(float(x)) for x in res.x)


def _extreme_cycle_3d(pointed: list[Vec]) -> list[Vec]:
    """Extreme rays of a pointed full rank cone, in cyclic order, exact."""
    w = _interior_direction(pointed)
    section = []
    for g in pointed:
        t = dot(w, g)
        section.append(tuple(x / t for x in g))
    basis = linalg.orthogonal_complement([w], 3)
    coords = [(dot(basis[0], q), dot(basis[1], q)) for q in section]
    cyc = _hull_2d(coords)
    lookup = {c: pointed[i] for i, c in enumerate(coords)}
    return [lookup[c] for c in cyc]


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
        rays = _dedupe_rays([tuple(Fraction(x) for x in g) for g in gens])
        if not rays:
            raise GeometryError("cone has no nonzero generators")
        rays_f = [tuple(Fraction(x) for x in r) for r in rays]
        bounding = _tangent_normals(rays, d)
        # lineality space: spanned by the rays on every bounding hyperplane
        lin_rays = [r for r in rays_f if all(dot(m, r) == 0 for m in bounding)]
        lin_basis = linalg.independent_subset(lin_rays)
        l = len(lin_basis)
        # pointed part: project the remaining rays off the lineality space
        ortho = linalg.orthogonalize(lin_basis)
        pointed = [v for v in (linalg.reject(r, ortho) for r in rays_f)
                   if not linalg.is_zero(v)]
        pointed = [tuple(Fraction(x) for x in p) for p in _dedupe_rays(pointed)]
        p = mat_rank(pointed) if pointed else 0
        s = l + p

        if d == 2:
            kind, measure, data = SphericalPatch._build_2d(
                l, p, pointed, lin_basis, bounding)
        else:
            kind, measure, data = SphericalPatch._build_3d(
                l, p, s, pointed, lin_basis, bounding)
        return SphericalPatch(kind, d, measure, data,
                              tuple(rays_f), tuple(bounding))

    # ---- assembly ------------------------------------------------------

    @staticmethod
    def _build_2d(l, p, pointed, lin_basis, bounding):
        if l == 2:
            e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
            return "arc", 2 * math.pi, (e1, e2, 0.0, 2 * math.pi)
        if l == 1:
            if p == 0:
                u = _unit(lin_basis[0])
                return "points", 2.0, (u, -u)
            # half plane: semicircle centered on the pointed direction
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

    @staticmethod
    def _build_3d(l, p, s, pointed, lin_basis, bounding):
        if s == 1:
            if l == 1:
                u = _unit(lin_basis[0])
                return "points", 2.0, (u, -u)
            return "points", 1.0, (_unit(pointed[0]),)
        if l == 3:
            return "sphere", 4 * math.pi, ()
        if l == 2 and p == 0:
            # the cone is a plane: great circle
            e1 = _unit(lin_basis[0])
            e2f = np.array([float(x) for x in lin_basis[1]])
            e2 = e2f - (e2f @ e1) * e1
            e2 /= np.linalg.norm(e2)
            return "arc", 2 * math.pi, (e1, e2, 0.0, 2 * math.pi)
        if l == 2:
            # half space: the pointed remainder is orthogonal to the plane
            return "cap", 2 * math.pi, (_unit(pointed[0]),)
        if s == 2:
            if l == 1:
                # half great circle from -t through a to t
                t = _unit(lin_basis[0])
                a = _unit(pointed[0])
                return "arc", math.pi, (t, a, 0.0, math.pi)
            ea, eb = _extreme_pair(pointed, bounding)
            ua, ub = _unit(ea), _unit(eb)
            ang = math.acos(max(-1.0, min(1.0, float(ua @ ub))))
            e2 = ub - float(ub @ ua) * ua
            e2 /= np.linalg.norm(e2)
            return "arc", ang, (ua, e2, 0.0, ang)
        if l == 1:
            # lune between the meridian planes through the wedge edges
            ea, eb = _extreme_pair(pointed, bounding)
            axis = _unit(lin_basis[0])
            ua, ub = _unit(ea), _unit(eb)
            theta = math.acos(max(-1.0, min(1.0, float(ua @ ub))))
            e2 = ub - float(ub @ ua) * ua
            e2 /= np.linalg.norm(e2)
            return "lune", 2 * theta, (axis, ua, e2, theta)
        # pointed full dimensional cone: spherical polygon
        verts = [_unit(v) for v in _extreme_cycle_3d(pointed)]
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
        if self.kind == "cap":
            axis = self.data[0]
            b1, b2 = _orthonormal_complement_f(axis)
            return _sphere_band(f, axis, b1, b2, 0.0, math.pi / 2, 0.0, 2 * math.pi, tol)
        if self.kind == "sphere":
            axis = np.array([0.0, 0.0, 1.0])
            b1, b2 = _orthonormal_complement_f(axis)
            return _sphere_band(f, axis, b1, b2, 0.0, math.pi, 0.0, 2 * math.pi, tol)
        if self.kind == "lune":
            axis, e1, e2, theta = self.data
            return _sphere_band(f, axis, e1, e2, 0.0, math.pi, 0.0, theta, tol)
        if self.kind == "polygon":
            verts = self.data
            total = 0.0
            for i in range(1, len(verts) - 1):
                total += _spherical_tri_integral(
                    verts[0], verts[i], verts[i + 1], f, tol / max(1, len(verts) - 2)
                )
            return total
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


def _orthonormal_complement_f(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = int(np.argmin(np.abs(axis)))
    e = np.zeros(3)
    e[k] = 1.0
    b1 = np.cross(axis, e)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(axis, b1)
    return b1, b2


def _adaptive_1d(g, a: float, b: float, tol: float, depth: int = 0) -> float:
    """Integral of g over [a, b] by Gauss-Legendre 12 on recursive halving."""
    xs, ws = _gl(12)

    def quad(lo, hi):
        return (hi - lo) * float(np.sum(ws * np.array([g(lo + (hi - lo) * x) for x in xs])))

    mid = 0.5 * (a + b)
    whole = quad(a, b)
    halves = quad(a, mid) + quad(mid, b)
    if abs(whole - halves) < tol * (1.0 + abs(halves)) or depth > DEPTH_CAP_1D:
        return halves
    return _adaptive_1d(g, a, mid, tol / 2, depth + 1) + \
        _adaptive_1d(g, mid, b, tol / 2, depth + 1)


def _sphere_band(f, axis, b1, b2, psi0, psi1, phi0, phi1, tol) -> float:
    def g(psi):
        def h(phi):
            u = math.cos(psi) * axis + math.sin(psi) * (
                math.cos(phi) * b1 + math.sin(phi) * b2)
            return f(u)
        return math.sin(psi) * _adaptive_1d(h, phi0, phi1, tol)
    return _adaptive_1d(g, psi0, psi1, tol)


def _flat_tri_quad(v0, v1, v2, g, n: int) -> float:
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


def _adaptive_tri(v0, v1, v2, g, tol: float, order: int, depth: int = 0) -> float:
    """Integral of g over the flat triangle v0 v1 v2 by the collapsed
    Gauss-Legendre rule of the given order on recursive 4-way midpoint
    subdivision."""
    coarse = _flat_tri_quad(v0, v1, v2, g, order)
    m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
    subs = ((v0, m01, m20), (m01, v1, m12), (m20, m12, v2), (m01, m12, m20))
    fine = sum(_flat_tri_quad(*t, g, order) for t in subs)
    if abs(fine - coarse) < tol * (1.0 + abs(fine)) or depth > DEPTH_CAP_TRI:
        return fine
    return sum(_adaptive_tri(*t, g, tol / 4, order, depth + 1) for t in subs)


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

    def g(pt):
        r = np.linalg.norm(pt)
        return f(pt / r) * float(pt @ nu) / r ** 3

    return _adaptive_tri(v0, v1, v2, g, tol, 8)
