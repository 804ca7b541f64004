"""Surface area measures, support measures with their Steiner structure,
Hessian measures of piecewise linear convex functions, and the Monte Carlo
oracles that cross-check both Steiner formulas.

The per-face normalization of the support measures is the constant table
c(d, i) = 1 / ((d-i) * binom(d, i)), fixed once by fitting the parallel
volume of the unit square and cube and frozen here.  With it the local
parallel volume expands as

    vol(K_t \\ K) = sum_i t^(d-i) * binom(d, i) * (order-i total).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Optional, Sequence

import numpy as np

from .bodies import GeometryError, Polytope, _face_measure, nearest_points
from .functions import PLConvexFunction
from .linalg import Vec, dot, primitive, norm_sq, sub
from .spherical import SphericalPatch, _adaptive_1d, _adaptive_tri


def density_constant(d: int, i: int) -> Fraction:
    """Weight of an i-face piece of the order-i support measure."""
    return Fraction(1, (d - i) * comb(d, i))


# ---------------------------------------------------------------------------
# surface area measure


@dataclass(frozen=True)
class SphereMeasure:
    dim: int
    atoms: tuple[tuple[np.ndarray, float], ...]
    signed: bool = False

    def total(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def closedness_residual(self) -> float:
        if not self.atoms:
            return 0.0
        s = np.sum([w * n for n, w in self.atoms], axis=0)
        return float(np.max(np.abs(s)))

    def pair(self, kernel: Callable[[np.ndarray], float]) -> float:
        return float(sum(w * kernel(n) for n, w in self.atoms))

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [{"n": [float(x) for x in n], "w": w} for n, w in self.atoms],
            "signed": self.signed,
        }

    @staticmethod
    def from_dict(data: dict) -> "SphereMeasure":
        dim = int(data["dim"])
        atoms = tuple(
            (np.asarray(a["n"], dtype=float), float(a["w"])) for a in data["atoms"]
        )
        if any(n.shape != (dim,) for n, _ in atoms):
            raise ValueError(f"atom normals must have dim = {dim} coordinates")
        if not all(np.all(np.isfinite(n)) and math.isfinite(w) for n, w in atoms):
            raise ValueError("atom normals and weights must be finite")
        return SphereMeasure(dim, atoms, bool(data.get("signed", False)))


def surface_area_measure(P: Polytope) -> SphereMeasure:
    """Top order area measure: facet volumes at outward facet normals.

    A body of dimension d-1 contributes its volume at both unit normals;
    anything flatter has no facets and yields the zero measure.
    """
    d = P.ambient_dim
    k = P.intrinsic_dim
    atoms: list[tuple[np.ndarray, float]] = []
    if k == d:
        for (m, _), idx in P._facets:
            n = np.array([float(x) for x in m])
            n /= np.linalg.norm(n)
            atoms.append((n, _face_measure([P.vertices[j] for j in idx])))
    elif k == d - 1 and k >= 0:
        m = P.equality_planes[0][0]
        n = np.array([float(x) for x in m])
        n /= np.linalg.norm(n)
        w = P.relative_volume_float
        atoms.append((n, w))
        atoms.append((-n, w))
    return SphereMeasure(d, tuple(atoms))


# ---------------------------------------------------------------------------
# faces and their normal cones


def _cone_generators(P: Polytope, face_vertices: Sequence[Vec]) -> list[Vec]:
    gens: list[Vec] = []
    for m, c in P.proper_halfspaces:
        mm = tuple(Fraction(x) for x in m)
        if all(dot(mm, v) == c for v in face_vertices):
            gens.append(mm)
    for m, c in P.equality_planes:
        mm = tuple(Fraction(x) for x in m)
        gens.append(mm)
        gens.append(tuple(-x for x in mm))
    return gens


def faces_with_cones(P: Polytope, i: int) -> list[tuple[Polytope, list[Vec]]]:
    """All i-faces of P with generators of their outer normal cones."""
    d = P.ambient_dim
    k = P.intrinsic_dim
    if k < 0 or i > k:
        return []
    if i == k:
        if k == d:
            return []
        return [(P, _cone_generators(P, P.vertices))]
    out = []
    if i == 0:
        for v in P.vertices:
            face = Polytope.construct([v], d)
            out.append((face, _cone_generators(P, [v])))
    elif i == 1:
        for a, b in P.edge_list:
            va, vb = P.vertices[a], P.vertices[b]
            face = Polytope.construct([va, vb], d)
            out.append((face, _cone_generators(P, [va, vb])))
    elif i == 2:
        for _, idx in P._facets:
            verts = [P.vertices[j] for j in idx]
            face = Polytope.construct(verts, d)
            out.append((face, _cone_generators(P, verts)))
    else:
        raise GeometryError(f"face dimension {i} out of range")
    return out


@dataclass(frozen=True)
class FacePiece:
    face: Polytope
    normal_region: SphericalPatch
    density_constant: float
    density: Fraction


@dataclass(frozen=True)
class FaceMeasure:
    order: int
    dim: int
    pieces: tuple[FacePiece, ...]

    @property
    def total(self) -> float:
        return float(
            sum(
                p.density_constant * p.face.relative_volume_float * p.normal_region.measure
                for p in self.pieces
            )
        )

    def integrate(self, f: Callable[[np.ndarray, np.ndarray], float],
                  tol: float = 1e-7) -> float:
        total = 0.0
        piece_tol = tol / max(1, len(self.pieces))
        for p in self.pieces:
            patch = p.normal_region

            def outer(x, patch=patch):
                return patch.integrate(lambda nu: f(x, nu), piece_tol)

            total += p.density_constant * integrate_over_face(p.face, outer, piece_tol)
        return total


def support_measure(P: Polytope, i: int) -> FaceMeasure:
    d = P.ambient_dim
    if not 0 <= i <= d - 1:
        raise ValueError(f"support measure order {i} outside 0..{d - 1}")
    c = density_constant(d, i)
    pieces = []
    for face, gens in faces_with_cones(P, i):
        patch = SphericalPatch.from_generators(gens, d)
        pieces.append(FacePiece(face, patch, float(c), c))
    return FaceMeasure(i, d, tuple(pieces))


def integrate_support_measure(P: Polytope, i: int,
                              f: Callable[[np.ndarray, np.ndarray], float],
                              tol: float = 1e-7) -> float:
    return support_measure(P, i).integrate(f, tol)


def parallel_volume(P: Polytope, t: float) -> float:
    """Closed form vol(K_t \\ K) from the support measure totals."""
    d = P.ambient_dim
    return float(
        sum(t ** (d - i) * comb(d, i) * support_measure(P, i).total for i in range(d))
    )


# ---------------------------------------------------------------------------
# quadrature over faces


def integrate_over_face(face: Polytope, g: Callable[[np.ndarray], float],
                        tol: float = 1e-9) -> float:
    """Integral of g against Hausdorff measure on a face of dimension <= 2."""
    k = face.intrinsic_dim
    if k < 0:
        return 0.0
    if k == 0:
        return g(face.float_vertices[0])
    if k == 1:
        a, b = face.float_vertices[0], face.float_vertices[-1]
        length = np.linalg.norm(b - a)
        return _adaptive_1d(lambda s: length * g(a + s * (b - a)), 0.0, 1.0, tol)
    if k == 2:
        cyc = face.boundary_cycle
        verts = face.float_vertices
        total = 0.0
        for j in range(1, len(cyc) - 1):
            total += _adaptive_tri(
                verts[cyc[0]], verts[cyc[j]], verts[cyc[j + 1]], g,
                tol / max(1, len(cyc) - 2), 6)
        return total
    raise GeometryError("face integration supports dimension <= 2")


# ---------------------------------------------------------------------------
# the parallel-volume Monte Carlo oracle


def local_parallel_volume_mc(
    P: Polytope,
    region: Optional[Callable[[np.ndarray, np.ndarray], bool]],
    t: float,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the local parallel volume mu_t(P, region).

    Samples a box around the outer parallel body, rejects points of P,
    maps the rest through the nearest point projection and keeps those
    whose support element lies in the region.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if t <= 0:
        raise ValueError("t must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    verts = P.float_vertices
    lo = verts.min(axis=0) - t
    hi = verts.max(axis=0) + t
    vol_box = float(np.prod(hi - lo))
    X = rng.uniform(lo, hi, size=(samples, P.ambient_dim))
    dist, proj = nearest_points(P, X)
    hit = (dist > 1e-12) & (dist <= t)
    if region is not None:
        idx = np.nonzero(hit)[0]
        for k in idx:
            u = (X[k] - proj[k]) / dist[k]
            if not region(proj[k], u):
                hit[k] = False
    p = float(np.mean(hit))
    est = vol_box * p
    se = vol_box * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return est, se


# ---------------------------------------------------------------------------
# the cell complex of a PL function and its Hessian measures


def _on_segment(v: Vec, a: Vec, b: Vec) -> bool:
    d = len(a)
    ab = sub(b, a)
    av = sub(v, a)
    for p, q in itertools.combinations(range(d), 2):
        if ab[p] * av[q] != ab[q] * av[p]:
            return False
    t = None
    for k in range(d):
        if ab[k] != 0:
            t = av[k] / ab[k]
            break
    if t is None:
        return all(x == 0 for x in av)
    return 0 <= t <= 1


def complex_faces(u: PLConvexFunction, i: int) -> list[Polytope]:
    """The i-faces of the gradient cell complex, T-junctions split."""
    n = u.n
    if not 0 <= i <= n:
        raise ValueError(f"face dimension {i} outside 0..{n}")
    if i == n:
        return [region for _, _, region in u.cells]
    if i == 0:
        return [Polytope.construct([v], n) for v in u.complex_vertices]
    # i == 1, n == 2: refine cell edges by all complex vertices lying on them
    segs = set()
    for _, _, region in u.cells:
        vs = region.vertices
        for a, b in region.edge_list:
            segs.add(tuple(sorted((vs[a], vs[b]))))
    verts = u.complex_vertices
    refined = set()
    for a, b in segs:
        on = sorted(v for v in verts if _on_segment(v, a, b))
        for p, q in zip(on, on[1:]):
            if p != q:
                refined.add((p, q))
    return [Polytope.construct([p, q], n) for p, q in sorted(refined)]


def _gradient_region(u: PLConvexFunction, face: Polytope,
                     bound: Fraction) -> tuple[Polytope, list[Vec], list[Vec]]:
    """The subgradient polytope over the relative interior of a complex face,
    truncated to the box [-bound, bound]^n.  Also returns the untruncated
    generator data (gradient points, recession rays)."""
    n = u.n
    mid = face.centroid
    points = [g for g, _, region in u.cells if region.contains(mid)]
    rays = _cone_generators(u.domain, face.vertices)
    if not points:
        raise GeometryError("face lies in no cell of the complex")
    hs: list[tuple[tuple[int, ...], Fraction]] = []
    if n == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        if any(r[0] < 0 for r in rays):
            lo = -bound
        if any(r[0] > 0 for r in rays):
            hi = bound
        lo = max(lo, -bound)
        hi = min(hi, bound)
        if lo > hi:
            return Polytope.empty(1), points, rays
        region = Polytope.construct([(lo,), (hi,)], 1)
        return region, points, rays
    hull = Polytope.construct(points, n)
    cands = [m for m, _ in hull.halfspaces]
    for r in rays:
        perp = (-r[1], r[0])
        cands.append(perp)
        cands.append((-perp[0], -perp[1]))
    seen = set()
    for m in cands:
        mm = tuple(Fraction(x) for x in m)
        if all(x == 0 for x in mm):
            continue
        pm = primitive(mm)
        if pm in seen:
            continue
        seen.add(pm)
        if any(dot(pm, r) > 0 for r in rays):
            continue
        off = max(dot(pm, p) for p in points)
        hs.append((pm, Fraction(off)))
    for j in range(n):
        e = tuple(1 if k == j else 0 for k in range(n))
        hs.append((e, Fraction(bound)))
        hs.append((tuple(-x for x in e), Fraction(bound)))
    return Polytope.from_halfspaces(hs, n), points, rays


def _flat_factor_pair(face: Polytope, grad: Polytope) -> Fraction:
    """Exact product of the 1-dimensional Hausdorff measures of two
    orthogonal rational segments (lattice lengths against |direction|^2)."""
    fa, fb = face.vertices[0], face.vertices[-1]
    p = primitive(sub(fb, fa))
    k = next(j for j in range(len(p)) if p[j] != 0)
    lam = sub(fb, fa)[k] / p[k]
    if grad.intrinsic_dim == 0:
        return Fraction(0)
    ga, gb = grad.vertices[0], grad.vertices[-1]
    q = sub(gb, ga)
    # grad segment must run orthogonal to the face direction
    if dot(p, q) != 0:
        raise GeometryError("gradient segment not orthogonal to its face")
    perp = (-p[1], p[0])
    kk = next(j for j in range(2) if perp[j] != 0)
    mu = q[kk] / Fraction(perp[kk])
    return abs(lam) * abs(mu) * norm_sq(p)


@dataclass(frozen=True)
class HessianPiece:
    face: Polytope
    gradient_region: Polytope
    density: Fraction
    weight: Fraction


@dataclass(frozen=True)
class HessianMeasure:
    order: int
    n: int
    pieces: tuple[HessianPiece, ...]

    @property
    def total_exact(self) -> Fraction:
        return sum((p.weight for p in self.pieces), Fraction(0))

    @property
    def total(self) -> float:
        return float(self.total_exact)

    def integrate(self, f: Callable[[np.ndarray, np.ndarray], float],
                  tol: float = 1e-8) -> float:
        out = 0.0
        piece_tol = tol / max(1, len(self.pieces))
        for p in self.pieces:
            if p.gradient_region.is_empty:
                continue
            grad = p.gradient_region

            def outer(x, grad=grad):
                return integrate_over_face(grad, lambda y: f(x, y), piece_tol)

            out += float(p.density) * integrate_over_face(p.face, outer, piece_tol)
        return out


def hessian_measure(u: PLConvexFunction, i: int,
                    gradient_bound: Fraction = Fraction(1)) -> HessianMeasure:
    """The order-i Hessian measure of u, gradients truncated to a box.

    Boundary faces of the domain carry unbounded subgradient regions; the
    measure is locally finite only, so every total is relative to the
    gradient box [-R, R]^n.
    """
    n = u.n
    if not 0 <= i <= n:
        raise ValueError(f"order {i} outside 0..{n}")
    bound = Fraction(gradient_bound)
    c = Fraction(1, comb(n, i))
    pieces = []
    for face in complex_faces(u, i):
        grad, _, _ = _gradient_region(u, face, bound)
        if grad.is_empty:
            weight = Fraction(0)
        elif i == 0:
            weight = c * grad.volume
        elif i == n:
            weight = c * face.volume if grad.intrinsic_dim == 0 else Fraction(0)
        else:
            weight = c * _flat_factor_pair(face, grad)
        pieces.append(HessianPiece(face, grad, c, weight))
    return HessianMeasure(i, n, tuple(pieces))


def hessian_total(u: PLConvexFunction, i: int,
                  gradient_bound: Fraction = Fraction(1)) -> Fraction:
    return hessian_measure(u, i, gradient_bound).total_exact


def hessian_steiner(u: PLConvexFunction, t: Fraction,
                    gradient_bound: Fraction = Fraction(1)) -> Fraction:
    """Exact Steiner polynomial of the subgradient flow-out, as the sum
    binom(n, i) t^i times the order n-i total over the gradient box."""
    n = u.n
    t = Fraction(t)
    return sum(
        (comb(n, i) * t ** i * hessian_total(u, n - i, gradient_bound)
         for i in range(n + 1)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# pushforward relation between support and Hessian measures


def _lower_clip(patch: SphericalPatch, n: int,
                bound: Optional[Fraction]) -> Optional[SphericalPatch]:
    """Restrict a normal-cone patch to the open lower half sphere and,
    optionally, to the gradient box pulled back through the projection.

    The cuts are homogeneous, so they cut the pyramid conv({0} ∪ rays) to
    a body whose nonzero vertices generate the cut cone."""
    d = n + 1
    cuts = [tuple(int(k == n) for k in range(d))]
    if bound is not None:
        for j in range(n):
            for sgn in (1, -1):
                cuts.append(tuple(sgn if k == j else bound if k == n else 0
                                  for k in range(d)))
    body = Polytope.construct([(0,) * d, *patch.rays], d)
    for m in cuts:
        body = body.clip(m, 0)
    rays = [v for v in body.vertices if any(v)]
    if not rays or all(r[-1] == 0 for r in rays):
        return None
    return SphericalPatch.from_generators(rays, d)


def hessian_integrate(u: PLConvexFunction, i: int,
                      f: Callable[[np.ndarray, np.ndarray], float],
                      tol: float = 1e-8,
                      gradient_bound: Optional[Fraction] = None) -> float:
    """Integral of f(x, y) against the order-i Hessian measure of u.

    The top order reduces to the exact sum over gradient cells; lower
    orders are computed through the support measure of the lifted body
    with the jacobian of the gnomonic projection applied.
    """
    n = u.n
    if not 0 <= i <= n:
        raise ValueError(f"order {i} outside 0..{n}")
    if i == n:
        out = 0.0
        cells = u.cells
        cell_tol = tol / max(1, len(cells))
        for g, _, region in cells:
            gf = np.array([float(x) for x in g])
            out += integrate_over_face(region, lambda x, gf=gf: f(x, gf), cell_tol)
        return out
    return hessian_integrate_via_support(u, i, f, tol, gradient_bound)


def hessian_integrate_via_support(
    u: PLConvexFunction, i: int,
    f: Callable[[np.ndarray, np.ndarray], float],
    tol: float = 1e-8,
    gradient_bound: Optional[Fraction] = None,
) -> float:
    """The support-measure route to the order-i Hessian integral.

    On lower support elements (X, N) of the lifted body the pushforward
    under (spatial part, gnomonic projection) carries the order-i support
    measure to a multiple of the order-i Hessian measure; the density
    worked out on the cell structure is

        (n+1) * (1+|y|^2)^((n-i+1)/2) / (1+|y_par|^2),

    with y_par the component of y along the face's spatial direction.
    The top order case collapses to the plain cell sum, which anchors
    the normalization.
    """
    n = u.n
    K = u.body_of()
    fm = support_measure(K, i)
    bound = Fraction(gradient_bound) if gradient_bound is not None else None
    total = 0.0
    kept = []
    for piece in fm.pieces:
        patch = _lower_clip(piece.normal_region, n, bound)
        if patch is not None:
            kept.append((piece, patch))
    piece_tol = tol / max(1, len(kept))
    for piece, patch in kept:
        face = piece.face
        u_dir = None
        if i == 1 and n == 2:
            w = sub(face.vertices[-1], face.vertices[0])
            sp = np.array([float(w[0]), float(w[1])])
            nsp = np.linalg.norm(sp)
            if nsp < 1e-15:
                continue
            u_dir = sp / nsp

        def integrand(X, N):
            gt = -N[-1]
            y = N[:-1] / gt
            y2 = float(y @ y)
            if u_dir is None:
                yu2 = 0.0
            else:
                yu2 = float(y @ u_dir) ** 2
            corr = (n + 1) * (1.0 + y2) ** (0.5 * (n - i + 1)) / (1.0 + yu2)
            return f(X[:-1], y) * corr

        def outer(X, patch=patch):
            return patch.integrate(lambda N: integrand(X, N), piece_tol)

        total += float(piece.density) * integrate_over_face(face, outer, piece_tol)
    return total


# ---------------------------------------------------------------------------
# Monte Carlo oracle for the Hessian Steiner formula


def p_t_volume_mc(
    u: PLConvexFunction,
    region: Optional[Callable[[np.ndarray, np.ndarray], bool]],
    t: float,
    samples: int,
    seed: int,
    gradient_bound: float = 1.0,
) -> tuple[float, float]:
    """Monte Carlo volume of {x + t y : y in the subgradient at x, |y| <= R}.

    Membership is decided through the proximal point: cell by cell the
    quadratic is minimized in closed form via metric projection, the best
    cell wins, and the subgradient is read off as (z - x*) / t.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if t <= 0:
        raise ValueError("t must be positive")
    n = u.n
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dverts = u.domain.float_vertices
    lo = dverts.min(axis=0) - t * gradient_bound
    hi = dverts.max(axis=0) + t * gradient_bound
    vol_box = float(np.prod(hi - lo))
    Z = rng.uniform(lo, hi, size=(samples, n))
    best_val = np.full(samples, np.inf)
    best_x = np.zeros((samples, n))
    for g, b, region_poly in u.cells:
        gf = np.array([float(x) for x in g])
        shifted = Z - t * gf
        _, xs = nearest_points(region_poly, shifted)
        vals = xs @ gf + float(b) + np.sum((Z - xs) ** 2, axis=1) / (2.0 * t)
        better = vals < best_val
        best_val = np.where(better, vals, best_val)
        best_x[better] = xs[better]
    Y = (Z - best_x) / t
    hit = np.all(np.abs(Y) <= gradient_bound + 1e-12, axis=1)
    if region is not None:
        idx = np.nonzero(hit)[0]
        for k in idx:
            if not region(best_x[k], Y[k]):
                hit[k] = False
    p = float(np.mean(hit))
    est = vol_box * p
    se = vol_box * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return est, se
