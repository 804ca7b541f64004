"""Reconstruction of a polytope from its surface area measure.

Dimension 2 is a direct edge walk: sort the normals by angle, lay the
edges end to end, close the tiny float gap.  Dimension 3 solves the
variational form of the problem: minimize

    f(h) = target . h - log V(h)

over support offsets h.  By Brunn-Minkowski log V is concave, so f is
convex, and the translations span its kernel.  Its gradient is
target - A/V, so at the minimum the facet areas are A = V * target and
h / sqrt(V) is the body.  One Levenberg-Marquardt damped Newton loop
finds it, with the Hessian -J/V + A A^T / V^2 built from the analytic
area Jacobian

    dA_i/dh_j = len(i, j) / sin(i, j)          for adjacent facets
    dA_i/dh_i = -sum_j len(i, j) * cos(i, j) / sin(i, j)

The damping gives a facet that has left the body a gradient step back.
The loop runs on target over its largest entry, which keeps h of order
1 at any input scale.  Facet polygons are computed by clipping each
facet's plane against all the other halfspaces, which keeps every edge
length tagged by the neighbor that produced it; each plane's basis and
cut directions depend on the normals only and are computed once per
solve.  The input measure must be positive and closed; both failure
modes get their own exception.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .bodies import GeometryError, Polytope
from .measures import MIN_NORMAL_LENGTH, SphereMeasure
from .schema import InputError


class UnbalancedInput(ValueError):
    """The weighted normals do not sum to zero within tolerance."""


class DegenerateNormals(ValueError):
    """Nonpositive weights, or directions that do not span the space."""


class NonPositiveMeasure(DegenerateNormals, InputError):
    """An atom weight is at or below 0 once atoms of one normal are merged."""


# atoms whose unit normals lie within DIRECTION_TOL are merged; a measure
# whose closedness residual exceeds BALANCE_TOL of its total mass is
# rejected; the 3D Newton loop stops once every rescaled facet area is
# within AREA_TOL of its target, relative to the largest target area, or
# after MAX_ITER steps
DIRECTION_TOL = 1e-9
BALANCE_TOL = 1e-6
AREA_TOL = 1e-9
MAX_ITER = 200
# a merged atom whose weight is at most ZERO_WEIGHT in absolute value is
# dropped; the normals must have numerical rank 3 at RANK_TOL
ZERO_WEIGHT = 1e-14
RANK_TOL = 1e-9
# facet planes: a normal whose in-plane part is shorter than PARALLEL_TOL
# is parallel to the plane, and its facet empties the plane when the
# plane lies more than PARALLEL_GAP outside its halfspace; a clipped chain
# closes a gap longer than CHAIN_GAP with a new edge; an edge shorter
# than EDGE_TOL adds nothing to the area Jacobian
PARALLEL_TOL = 1e-12
PARALLEL_GAP = 1e-9
CHAIN_GAP = 1e-13
EDGE_TOL = 1e-12
# a Newton step that moves f by at most FLAT_TOL * (1 + |f|) counts as
# flat; polygon corners within MERGE_TOL, scaled by the seed box, are one
# vertex; a final area residual above STALL_TOL of max(1, largest target
# area) means the iteration stalled
FLAT_TOL = 1e-12
MERGE_TOL = 1e-9
STALL_TOL = 1e-7


def _merged_atoms(mu: SphereMeasure) -> tuple[np.ndarray, list[float]]:
    """The atoms at unit normals in lexicographic order of the normals,
    the normals as the rows of an array: atoms whose normals lie within
    DIRECTION_TOL are merged into the first, and merged weights of at
    most ZERO_WEIGHT are dropped.  Without such twins (_has_twins) the
    sorted atoms are the answer, and the scan runs only with them."""
    if not mu.atoms:
        return np.empty((0, mu.dim)), []
    ns, ws = zip(*mu.atoms)
    N = np.array(ns, dtype=float)
    # vecdot takes one dot per row, so the bits match math.sqrt(n @ n)
    norms = np.sqrt(np.vecdot(N, N))
    if np.any(norms < MIN_NORMAL_LENGTH):
        raise DegenerateNormals("zero direction atom")
    units = N / norms[:, None]
    raw = np.array(ws, dtype=float)
    # lexsort is stable and has -0.0 == 0.0, so it orders the rows as
    # sorted() orders their tuples
    order = np.lexsort(units.T[::-1])
    rows = units[order]
    if np.isfinite(rows).all() and not _has_twins(rows):
        w = raw[order]
        keep = np.abs(w) > ZERO_WEIGHT
        return rows[keep], w[keep].tolist()
    # lexicographic sort so duplicates land next to each other; a short
    # backward scan over entries with a close leading coordinate then
    # merges them without the quadratic all-pairs comparison
    keys = list(map(tuple, units.tolist()))
    raw = raw.tolist()
    first: list[int] = []
    kept: list[tuple] = []
    weights: list[float] = []
    for k in sorted(range(len(units)), key=keys.__getitem__):
        n, w = keys[k], raw[k]
        hit = False
        for idx in range(len(kept) - 1, -1, -1):
            if n[0] - kept[idx][0] > DIRECTION_TOL:
                break
            if math.dist(kept[idx], n) < DIRECTION_TOL:
                weights[idx] += w
                hit = True
                break
        if not hit:
            first.append(k)
            kept.append(n)
            weights.append(w)
    keep = [k for k, w in enumerate(weights) if abs(w) > ZERO_WEIGHT]
    return units[[first[k] for k in keep]], [weights[k] for k in keep]


def _has_twins(rows: np.ndarray) -> bool:
    """Whether the merge scan would merge two of these finite unit rows,
    given in lexicographic order: whether a pair whose leading
    coordinates lie within DIRECTION_TOL, the pairs the scan compares,
    lies within DIRECTION_TOL.  Such pairs are found offset by offset;
    a row whose next row at offset k is too far in the leading
    coordinate has every later row too far as well.  math.dist is at
    least the largest coordinate difference, so only pairs where that is
    below DIRECTION_TOL take the scan's math.dist test."""
    x = rows[:, 0]
    near = np.arange(len(rows))
    for k in itertools.count(1):
        near = near[near < len(rows) - k]
        near = near[x[near + k] - x[near] <= DIRECTION_TOL]
        if not near.size:
            return False
        close = near[np.max(np.abs(rows[near + k] - rows[near]), axis=1) < DIRECTION_TOL]
        if any(math.dist(rows[i].tolist(), rows[i + k].tolist()) < DIRECTION_TOL
               for i in close.tolist()):
            return True


def project_closed(normals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Least squares projection of the weights onto the closedness
    constraint sum_k weights[k] * normals[k] = 0."""
    V = normals.T
    correction = V.T @ np.linalg.solve(V @ V.T, V @ weights)
    return weights - correction


def _balance(normals, weights):
    """Reject weights whose closedness residual exceeds BALANCE_TOL of the
    total mass, then project them onto the closedness constraint."""
    N = np.array(normals)
    w = np.array(weights, dtype=float)
    r = N.T @ w
    total = float(np.sum(np.abs(w))) or 1.0
    if np.linalg.norm(r) > BALANCE_TOL * total:
        raise UnbalancedInput(
            f"closedness residual {np.linalg.norm(r):.3e} exceeds "
            f"{BALANCE_TOL:.1e} of total mass")
    return project_closed(N, w)


def minkowski_solve(mu: SphereMeasure) -> Polytope:
    """The polytope whose surface area measure is mu, up to translation."""
    if mu.dim not in (2, 3):
        raise GeometryError(f"dimension {mu.dim} not supported")
    normals, weights = _merged_atoms(mu)
    if any(w <= 0 for w in weights):
        raise NonPositiveMeasure("surface area measure must be positive")
    if mu.dim == 2:
        return Polytope.construct(
            _edge_walk(normals, weights).tolist(), 2)
    return _solve_3d(normals, weights)


# ---------------------------------------------------------------------------
# dimension 2: the edge walk


def _edge_walk(normals, weights) -> np.ndarray:
    """Edges in angular order laid end to end, the closing gap spread
    evenly over the vertices."""
    if len(normals) < 3:
        raise DegenerateNormals("need at least three distinct edge normals")
    N = np.array(normals)
    w = _balance(N, weights)
    # merged normals lie DIRECTION_TOL apart, far more than the ulp by
    # which np.arctan2 may differ from math.atan2
    order = np.argsort(np.arctan2(N[:, 1], N[:, 0]))
    N = N[order]
    # edge k is w_k times the normal turned a quarter left; the walk
    # starts at a zero row so that cumsum adds exactly as a loop would
    pts = np.zeros((len(order) + 1, 2))
    pts[1:, 0] = -N[:, 1]
    pts[1:, 1] = N[:, 0]
    pts[1:] *= w[order, None]
    np.cumsum(pts, axis=0, out=pts)
    m = len(order)
    return pts[:-1] - (np.arange(m) / m)[:, None] * pts[-1]


# ---------------------------------------------------------------------------
# dimension 3: damped Newton on support offsets


def _clip_chain(edges, a, b, c, tag):
    """Intersect a convex edge chain in the plane with a*s + b*t <= c.

    Edges are ((P, Q), tag) pairs in cyclic order; the cut is closed with
    one new edge carrying the clip's tag.  Returns None when empty.
    """
    kept = []
    for (P, Q), et in edges:
        fP = a * P[0] + b * P[1] - c
        fQ = a * Q[0] + b * Q[1] - c
        if fP <= 0 and fQ <= 0:
            kept.append(((P, Q), et))
        elif fP <= 0 < fQ:
            t = fP / (fP - fQ)
            X = (P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1]))
            kept.append(((P, X), et))
        elif fQ <= 0 < fP:
            t = fP / (fP - fQ)
            X = (P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1]))
            kept.append(((X, Q), et))
    if not kept:
        return None
    out = []
    k = len(kept)
    for idx in range(k):
        (P, Q), et = kept[idx]
        out.append(((P, Q), et))
        R = kept[(idx + 1) % k][0][0]
        if abs(Q[0] - R[0]) + abs(Q[1] - R[1]) > CHAIN_GAP:
            out.append(((Q, R), tag))
    return out


def _facet_frames(normals: np.ndarray):
    """What each facet plane's clipping needs of the normals alone, so
    that one solve computes it once.

    Facet i gets (e1, e2, cuts, parallel, sins): an orthonormal basis of
    its plane; (j, a/s, b/s, s) for each other facet j whose normal has
    in-plane coefficients (a, b) of length s; the facets parallel to it;
    and s by neighbor, the sine of the angle between the two normals."""
    frames = []
    for i, ni in enumerate(normals):
        e1 = np.cross(ni, [1.0, 0.0, 0.0])
        if np.linalg.norm(e1) < 0.1:
            e1 = np.cross(ni, [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(ni, e1)
        cuts, parallel = [], []
        for j, nj in enumerate(normals):
            if j == i:
                continue
            a = float(nj @ e1)
            b = float(nj @ e2)
            s = math.hypot(a, b)
            if s < PARALLEL_TOL:
                parallel.append(j)
            else:
                cuts.append((j, a / s, b / s, s))
        frames.append((e1, e2, cuts, parallel,
                       {j: s for j, _, _, s in cuts}))
    return frames


def _facet_polygons(normals: np.ndarray, frames, h: np.ndarray):
    """The nonempty facet polygons at support vector h and the half-width
    L of the seed box they were clipped from; (None, L) when the body is
    empty.

    Each facet polygon is built by clipping its own plane with all other
    halfspaces, so its edges come out tagged by the neighbor that cut
    them.  A polygon is (i, p0, e1, e2, edges, sins): the facet index,
    the plane's origin and in-plane basis, the tagged edge chain, and
    the sine of the angle to each neighbor."""
    L = 100.0 * (1.0 + float(np.max(np.abs(h))))
    for _ in range(3):
        polys = _facet_polygons_at(normals, frames, h, L)
        if polys is not None:
            return polys or None, L
        L *= 100.0
    return None, L


def _facet_polygons_at(normals: np.ndarray, frames, h: np.ndarray,
                       L: float):
    """The facet polygons clipped from a seed box of half-width L, or
    None when the box is too small for this support vector."""
    origins = h[:, None] * normals
    # offsets[i][j] = h_j - n_j . p0_i: facet j's line in facet i's plane;
    # vecdot takes one dot per pair, so the bits match n_j @ p0_i
    offsets = (h - np.vecdot(normals, origins[:, None, :])).tolist()
    corners = [(-L, -L), (L, -L), (L, L), (-L, L)]
    box = [((corners[k], corners[(k + 1) % 4]), None) for k in range(4)]
    polys = []
    for i, (e1, e2, cuts, parallel, sins) in enumerate(frames):
        c = offsets[i]
        if any(c[j] < -PARALLEL_GAP for j in parallel):
            continue
        edges = box
        for j, a, b, s in cuts:
            edges = _clip_chain(edges, a, b, c[j] / s, j)
            if edges is None:
                break
        if edges is None:
            continue
        if any(et is None for _, et in edges):
            return None  # seed box too small for this support vector
        polys.append((i, origins[i], e1, e2, edges, sins))
    return polys


def _areas_and_jacobian(normals: np.ndarray, polys):
    """Facet areas and the symmetric adjacency Jacobian of the polygons."""
    m = len(normals)
    areas = np.zeros(m)
    J = np.zeros((m, m))
    for i, _, _, _, edges, sins in polys:
        area2 = 0.0
        for (P, Q), et in edges:
            area2 += P[0] * Q[1] - P[1] * Q[0]
            ell = math.hypot(Q[0] - P[0], Q[1] - P[1])
            if ell < EDGE_TOL:
                continue
            cos = float(normals[i] @ normals[et])
            J[i, et] += ell / sins[et]
            J[i, i] -= ell * cos / sins[et]
        areas[i] = 0.5 * abs(area2)
    return areas, 0.5 * (J + J.T)


def _facet_geometry(normals: np.ndarray, frames, h: np.ndarray):
    """Areas and adjacency Jacobian at support vector h, or None when the
    body is empty."""
    polys, _ = _facet_polygons(normals, frames, h)
    return None if polys is None else _areas_and_jacobian(normals, polys)


def _vertices(polys, L: float) -> np.ndarray:
    """Float vertices of the body: the polygon corners in space, merged
    when they lie within a tolerance scaled by the seed box."""
    tol = MERGE_TOL * max(1.0, L / 100.0)
    clusters: list[list[np.ndarray]] = []
    for _, p0, e1, e2, edges, _ in polys:
        for (P, _), _ in edges:
            v = p0 + P[0] * e1 + P[1] * e2
            for cl in clusters:
                if np.linalg.norm(v - cl[0]) < tol:
                    cl.append(v)
                    break
            else:
                clusters.append([v])
    return np.array([np.mean(cl, axis=0) for cl in clusters])


def _solve_3d(normals, weights) -> Polytope:
    N = np.array(normals)
    if len(normals) < 4 or np.linalg.matrix_rank(N, tol=RANK_TOL) < 3:
        raise DegenerateNormals("normals do not span space")
    target = _balance(N, weights)
    scale = float(np.max(target))
    unit = target / scale  # iterate at a scale-free size, h of order 1
    m = len(normals)
    frames = _facet_frames(N)

    def state(h):
        """f(h), the areas, their Jacobian, the volume and the rescaled
        residual max |A/V - unit| at h; None where the body is empty."""
        geo = _facet_geometry(N, frames, h)
        if geo is None:
            return None
        areas, J = geo
        vol = float(h @ areas) / 3.0
        if not vol > 0:
            return None
        return (float(unit @ h) - math.log(vol), areas, J, vol,
                float(np.max(np.abs(areas / vol - unit))))

    # Minimize f(h) = unit . h - log V(h).  By Brunn-Minkowski log V is
    # concave, so f is convex, with the translations as its kernel; at
    # the minimum A(h) = V(h) * unit.  Start on the ray through
    # (1, ..., 1) where f is least, at unit . h = 3.
    h = np.full(m, 3.0 / float(np.sum(unit)))
    cur = state(h)
    if cur is None:
        raise DegenerateNormals("unit support polytope is empty")
    f, areas, J, vol, res = cur
    steps, mu = 0, 1.0
    while res > AREA_TOL and steps < MAX_ITER:
        # Levenberg-Marquardt step on the Hessian -J/V + A A^T / V^2; the
        # damping gives an empty facet, whose row is zero, a gradient step
        H = np.outer(areas, areas) / vol ** 2 - J / vol
        H += mu * float(np.max(np.abs(np.diag(H)))) * np.eye(m)
        trial = h + np.linalg.solve(H, areas / vol - unit)
        if np.array_equal(trial, h):
            break
        steps += 1
        new = state(trial)
        # accept a decrease of f, or, where f is flat in float near the
        # minimum, a decrease of the residual
        if new is not None and (new[0] < f or (
                new[0] <= f + FLAT_TOL * (1.0 + abs(f)) and new[4] < res)):
            h = trial
            f, areas, J, vol, res = new
            mu /= 10.0
        else:
            mu *= 10.0

    h *= math.sqrt(scale / vol)
    polys, L = _facet_polygons(N, frames, h)
    if polys is None:
        raise GeometryError("area iteration collapsed")
    areas, _ = _areas_and_jacobian(N, polys)
    final = float(np.max(np.abs(areas - target)))
    if final > STALL_TOL * max(1.0, scale):
        raise GeometryError(
            f"area iteration stalled at residual {final:.3e} after "
            f"{steps} Newton steps and {steps + 1} facet-geometry "
            "evaluations")

    return Polytope.construct(_vertices(polys, L).tolist(), 3)
