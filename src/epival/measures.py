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
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable, Optional, Sequence

import numpy as np

from .bodies import GeometryError, Polytope, _face_measure, nearest_points
from .functions import PLConvexFunction
from .linalg import Vec, dot, primitive, norm_sq, sub
from .schema import InputError, array, field, integer, real
from .spherical import SphericalPatch, _adaptive_1d, _adaptive_tri, _fan


def density_constant(d: int, i: int) -> Fraction:
    """Weight of an i-face piece of the order-i support measure."""
    return Fraction(1, (d - i) * comb(d, i))


# ---------------------------------------------------------------------------
# surface area measure

# an atom normal shorter than this has no direction to normalize
MIN_NORMAL_LENGTH = 1e-12


@dataclass(frozen=True, eq=False)
class SphereMeasure:
    """Atoms at the rows of a float (m, dim) array, weights a float (m,) one."""

    dim: int
    normals: np.ndarray
    weights: np.ndarray

    @property
    def atoms(self) -> tuple[tuple[np.ndarray, float], ...]:
        """The atoms as (normal row, weight) pairs."""
        return tuple(zip(self.normals, self.weights.tolist()))

    def total(self) -> float:
        return float(sum(self.weights.tolist()))

    def closedness_residual(self) -> float:
        s = np.sum(self.weights[:, None] * self.normals, axis=0)
        return float(np.max(np.abs(s)))

    def pair(self, kernel: Callable[[np.ndarray], float]) -> float:
        return float(sum(w * float(kernel(n))
                         for n, w in zip(self.normals, self.weights.tolist())))

    def to_dict(self) -> dict:
        return {"dim": self.dim, "atoms": [
            {"n": n, "w": w} for n, w in zip(self.normals.tolist(), self.weights.tolist())]}

    @staticmethod
    def from_dict(data: dict, where: str = "measure") -> "SphereMeasure":
        dim = field(data, "dim", where, integer)
        if dim < 1:
            raise InputError(f"{where} dim must be positive, got {dim}")
        atom = f"{where} atom"
        pairs = [(field(a, "n", atom, array, real, dim, "dim"), field(a, "w", atom, real))
                 for a in field(data, "atoms", where, array)]
        normals = np.array([n for n, _ in pairs], dtype=float).reshape(-1, dim)
        with np.errstate(over="ignore"):
            lengths = np.sqrt(np.vecdot(normals, normals))
        if not np.all(np.isfinite(lengths) & (lengths >= MIN_NORMAL_LENGTH)):
            raise InputError("atom normals must be nonzero, of length at least "
                             f"{MIN_NORMAL_LENGTH:g} and finite")
        return SphereMeasure(dim, normals, np.array([w for _, w in pairs], dtype=float))


def surface_area_measure(P: Polytope) -> SphereMeasure:
    """Top order area measure: facet volumes at outward facet normals.

    A body of dimension d-1 contributes its volume at both unit normals;
    anything flatter has no facets and yields the zero measure.
    """
    d = P.ambient_dim
    k = P.intrinsic_dim
    normals: list[np.ndarray] = []
    weights: list[float] = []
    if k == d:
        for (m, _), idx in P._facets:
            n = np.array([float(x) for x in m])
            normals.append(n / np.linalg.norm(n))
            weights.append(_face_measure([P.vertices[j] for j in idx]))
    elif k == d - 1 and k >= 0:
        n = np.array([float(x) for x in P.equality_planes[0][0]])
        n /= np.linalg.norm(n)
        normals += [n, -n]
        weights += [P.relative_volume_float] * 2
    return SphereMeasure(d, np.reshape(normals, (-1, d)), np.array(weights, dtype=float))


# ---------------------------------------------------------------------------
# faces and their normal cones


def _cone_generators(P: Polytope, face_vertices: Sequence[Vec]) -> list[Vec]:
    gens: list[Vec] = [m for m, c in P.proper_halfspaces
                       if all(dot(m, v) == c for v in face_vertices)]
    for m, _ in P.equality_planes:
        gens += [m, tuple(-x for x in m)]
    return gens


def faces_with_cones(P: Polytope, i: int) -> list[tuple[Polytope, list[Vec]]]:
    """All i-faces of P with generators of their outer normal cones.  A
    face's generators are the normals of the proper halfspaces whose vertex
    indices in P's facet table contain the face's, in table order, then
    both normals of each equality plane."""
    d = P.ambient_dim
    k = P.intrinsic_dim
    if k < 0 or i > k:
        return []
    if i == k:
        if k == d:
            return []
        return [(P, _cone_generators(P, P.vertices))]
    if i == 0:
        faces = [(j,) for j in range(len(P.vertices))]
    elif i == 1:
        faces = P.edge_list
    elif i == 2:
        faces = [idx for _, idx in P._facets]
    else:
        raise GeometryError(f"face dimension {i} out of range")
    proper = set(P.proper_halfspaces)
    table = [(m, set(idx)) for (m, c), idx in P._facets if (m, c) in proper]
    planes = [g for m, _ in P.equality_planes for g in (m, tuple(-x for x in m))]
    return [(P.face(f), [m for m, idx in table if idx.issuperset(f)] + planes)
            for f in faces]


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
        return _product_integral(
            [(p.density_constant, p.face,
              lambda x, tol, patch=p.normal_region:
                  patch.integrate(partial(f, x), tol))
             for p in self.pieces], tol)


def support_measure(P: Polytope, i: int) -> FaceMeasure:
    """The order-i support measure of P, built once per body and kept in
    its __dict__, so a body rebuilt from its vertices starts afresh."""
    d = P.ambient_dim
    if not 0 <= i <= d - 1:
        raise ValueError(f"support measure order {i} outside 0..{d - 1}")
    cache = P.__dict__.setdefault("support_measures", {})
    if i not in cache:
        c = density_constant(d, i)
        pieces = []
        for face, gens in faces_with_cones(P, i):
            patch = SphericalPatch.from_generators(gens, d)
            pieces.append(FacePiece(face, patch, float(c), c))
        cache[i] = FaceMeasure(i, d, tuple(pieces))
    return cache[i]


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
        def g_rows(pts):
            return [g(x) for x in pts]

        return _fan(face.float_vertices[list(face.boundary_cycle)],
                    lambda a, b, c, tol: _adaptive_tri(a, b, c, g_rows, tol, 6), tol)
    raise GeometryError("face integration supports dimension <= 2")


def _product_integral(pieces: Sequence[tuple[float, Polytope, Optional[Callable]]],
                      tol: float) -> float:
    """Sum over the pieces (weight, face, inner) of weight times the
    integral over the face of x -> inner(x, piece_tol), in piece order,
    with tol split evenly over all the pieces.  A piece whose inner is
    None adds nothing but keeps its share of the split."""
    total = 0.0
    piece_tol = tol / max(1, len(pieces))
    for weight, face, inner in pieces:
        if inner is not None:
            total += weight * integrate_over_face(
                face, lambda x, inner=inner: inner(x, piece_tol), piece_tol)
    return total


# ---------------------------------------------------------------------------
# Monte Carlo volumes and the parallel-volume oracle

# the Monte Carlo oracles' float slack: a sample at distance up to this
# from the body counts as in it, and a subgradient up to this past the
# gradient bound counts as within it
MC_TOL = 1e-12
# the relative margin of _mc_reach
REACH_RTOL = 1e-9


def _mc_volume(verts: np.ndarray, t: float, pad: float, samples: int, seed: int,
               hits: Callable, region: Optional[Callable]) -> tuple[float, float]:
    """The estimate and standard error of the volume of a set, from
    uniform samples of the box around verts widened by pad on every side;
    t is the oracle's time, checked positive and finite, and samples is
    checked a positive integer.  hits(X) gives the samples' hit mask and a
    map from the index of a hit to its (point, direction) pair; a hit
    counts if region is None or accepts its pair, asked in index order."""
    if not isinstance(samples, numbers.Integral) or samples <= 0:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive and finite, got {t!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lo = verts.min(axis=0) - pad
    hi = verts.max(axis=0) + pad
    vol_box = float(np.prod(hi - lo))
    X = rng.uniform(lo, hi, size=(samples, verts.shape[1]))
    hit, pair = hits(X)
    if region is not None:
        for k in np.nonzero(hit)[0]:
            if not region(*pair(k)):
                hit[k] = False
    p = float(np.mean(hit))
    est = vol_box * p
    se = vol_box * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return est, se


def _mc_reach(P: Polytope, t: float) -> float:
    """The reach local_parallel_volume_mc hands nearest_points: t plus
    REACH_RTOL times t and the body's largest coordinate magnitude.  The
    margin is above the rounding of both the screen's slack and the
    projected distance, which is relative to the coordinates as well as
    to t, so no sample that the unscreened distance counts as a hit is
    screened."""
    return t + REACH_RTOL * (t + float(np.max(np.abs(P.float_vertices))))


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
    whose support element lies in the region.  Samples that a halfspace
    of P certifies farther than _mc_reach are misses, and are not
    projected.
    """
    def hits(X):
        dist, proj = nearest_points(P, X, reach=_mc_reach(P, t))
        return ((dist > MC_TOL) & (dist <= t),
                lambda k: (proj[k], (X[k] - proj[k]) / dist[k]))

    return _mc_volume(P.float_vertices, t, t, samples, seed, hits, region)


# ---------------------------------------------------------------------------
# the cell complex of a PL function and its Hessian measures


def complex_faces(u: PLConvexFunction, i: int) -> list[Polytope]:
    """The i-faces of the gradient cell complex.  The cells are the
    projected lower facets of one polytope, the epigraph, so they form a
    regular subdivision, and those meet face to face (De Loera, Rambau and
    Santos, Triangulations, 2010, ch. 2): every cell edge is an edge of
    the complex, with no complex vertex inside it to split it at."""
    n = u.n
    if not 0 <= i <= n:
        raise ValueError(f"face dimension {i} outside 0..{n}")
    if i == n:
        return [region for _, _, region in u.cells]
    if i == 0:
        return [Polytope.construct([v], n) for v in u.complex_vertices]
    # i == 1, n == 2: the distinct cell edges
    segs = {tuple(sorted((region.vertices[a], region.vertices[b])))
            for _, _, region in u.cells for a, b in region.edge_list}
    return [Polytope.construct(seg, n) for seg in sorted(segs)]


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
    region = Polytope.construct(itertools.product((-bound, bound), repeat=n), n)
    hull = Polytope.construct(points, n)
    cands = [m for m, _ in hull.halfspaces]
    # in the plane a ray's perpendiculars can bound the region; on the
    # line the hull's two halfspaces are all the candidates there are
    if n == 2:
        for r in rays:
            cands += [(-r[1], r[0]), (r[1], -r[0])]
    seen = set()
    for m in cands:
        if not any(m):
            continue
        pm = primitive(m)
        if pm in seen:
            continue
        seen.add(pm)
        if any(dot(pm, r) > 0 for r in rays):
            continue
        region = region.clip(pm, max(dot(pm, p) for p in points))
    return region, points, rays


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
        return _product_integral(
            [(float(p.density), p.face,
              None if p.gradient_region.is_empty else
              lambda x, tol, grad=p.gradient_region:
                  integrate_over_face(grad, lambda y: f(x, y), tol))
             for p in self.pieces], tol)


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
    if bound < 0:
        raise ValueError("the gradient box needs a nonnegative bound")
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
    """The order-i total over the gradient box, computed once per function
    and bound and kept in the function's __dict__."""
    cache = u.__dict__.setdefault("hessian_totals", {})
    key = (i, Fraction(gradient_bound))
    if key not in cache:
        cache[key] = hessian_measure(u, i, gradient_bound).total_exact
    return cache[key]


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
        return _product_integral(
            [(1.0, region, lambda x, tol, gf=np.array([float(y) for y in g]): f(x, gf))
             for g, _, region in u.cells], tol)
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

    def integrand(X, N, u_dir):
        gt = -N[-1]
        y = N[:-1] / gt
        y2 = float(y @ y)
        yu2 = 0.0 if u_dir is None else float(y @ u_dir) ** 2
        corr = (n + 1) * (1.0 + y2) ** (0.5 * (n - i + 1)) / (1.0 + yu2)
        return f(X[:-1], y) * corr

    pieces = []
    for piece in fm.pieces:
        patch = _lower_clip(piece.normal_region, n, bound)
        if patch is None:
            continue
        u_dir = None
        if i == 1 and n == 2:
            w = sub(piece.face.vertices[-1], piece.face.vertices[0])
            sp = np.array([float(w[0]), float(w[1])])
            u_dir = sp / np.linalg.norm(sp)
        pieces.append((float(piece.density), piece.face,
                       lambda X, tol, patch=patch, u_dir=u_dir:
                           patch.integrate(lambda N: integrand(X, N, u_dir), tol)))
    return _product_integral(pieces, tol)


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
    def hits(Z):
        best_val = np.full(len(Z), np.inf)
        best_x = np.zeros(Z.shape)
        for g, b, region_poly in u.cells:
            gf = np.array([float(x) for x in g])
            shifted = Z - t * gf
            _, xs = nearest_points(region_poly, shifted)
            vals = xs @ gf + float(b) + np.sum((Z - xs) ** 2, axis=1) / (2.0 * t)
            better = vals < best_val
            best_val = np.where(better, vals, best_val)
            best_x[better] = xs[better]
        Y = (Z - best_x) / t
        return (np.all(np.abs(Y) <= gradient_bound + MC_TOL, axis=1),
                lambda k: (best_x[k], Y[k]))

    return _mc_volume(u.domain.float_vertices, t, t * gradient_bound, samples, seed,
                      hits, region)
