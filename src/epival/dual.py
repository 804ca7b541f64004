"""Dual-density pipeline for degree-one valuations.

An atomic measure with zero mass and zero first moment is smoothed to a
grid density, pushed to a sphere density, discretized into a balanced
surface area measure, and finally realized as a difference of two
polytopes whose lower facets reproduce the pairing.  Ground truth stays
exact the whole way: the atomic pairing is a finite rational sum over
conjugate values, and the grid pairing integrates the conjugate exactly
over every cell.  The pairing has no geometry of its own: the regions
where the conjugate is affine, and in two variables the volume of its
truncated epigraph over a cell, come from epival.functions.

The sphere transfer uses the factor (1 + |y|^2)^(n/2 + 1).  With the
lower normal written as (y, -1)/sqrt(1 + |y|^2), the spherical measure
pulls back to dy/(1 + |y|^2)^((n+1)/2) and the support value carries a
further 1/sqrt(1 + |y|^2), so this exponent is the one that makes the
sphere pairing equal the plane pairing; the grid-versus-sphere identity
in the tests pins it down numerically as well.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .bodies import Polytope
from .functions import PLConvexFunction
from .measures import SphereMeasure
from .minkowski import minkowski_solve, project_closed
from .report import Report, csv_text, dumps_canonical
from .schema import InputError, array, field, integer, rational
from .spherical import _adaptive_1d
from .valuations import SphereDensity


# ---------------------------------------------------------------------------
# atomic dual measures


@dataclass(frozen=True)
class DualAtomMeasure:
    """Finite signed atom measure on gradient space with exact zero mass
    and zero first moment, so every affine function pairs to zero."""

    n: int
    atoms: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self):
        atoms = tuple(
            (tuple(Fraction(c) for c in x), Fraction(w))
            for x, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for x, _ in atoms:
            if len(x) != self.n:
                raise ValueError("atom dimension mismatch")
        if sum((w for _, w in atoms), Fraction(0)) != 0:
            raise ValueError("atom weights must sum to zero")
        for a in range(self.n):
            if sum((w * x[a] for x, w in atoms), Fraction(0)) != 0:
                raise ValueError("atom first moment must vanish")

    @property
    def box(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        if not self.atoms:
            z = tuple(Fraction(0) for _ in range(self.n))
            return z, z
        lo = tuple(min(x[a] for x, _ in self.atoms) for a in range(self.n))
        hi = tuple(max(x[a] for x, _ in self.atoms) for a in range(self.n))
        return lo, hi

    def total_variation(self) -> Fraction:
        return sum((abs(w) for _, w in self.atoms), Fraction(0))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "atoms": [
                {"x": [str(c) for c in x], "w": str(w)}
                for x, w in self.atoms
            ],
        }

    @staticmethod
    def from_dict(data: dict, where: str = "measure") -> "DualAtomMeasure":
        n = field(data, "n", where, integer)
        atom = f"{where} atom"
        atoms = tuple((field(a, "x", atom, array, rational, n), field(a, "w", atom, rational))
                      for a in field(data, "atoms", where, array))
        try:
            return DualAtomMeasure(n, atoms)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# grid densities


@dataclass
class GridDensity:
    """Cell-constant density on a uniform axis-aligned grid.

    lo is the corner of the first cell, h the cell width; values has one
    axis per variable.  All cell boundaries are exact rationals so the
    pairing with a piecewise linear conjugate can be integrated exactly
    cell by cell."""

    n: int
    lo: tuple[Fraction, ...]
    h: Fraction
    values: np.ndarray

    def __post_init__(self):
        self.lo = tuple(Fraction(v) for v in self.lo)
        self.h = Fraction(self.h)
        self.values = np.asarray(self.values, dtype=float)
        if self.h <= 0:
            raise ValueError("cell width must be positive")
        if self.values.ndim != self.n or len(self.lo) != self.n:
            raise ValueError("grid shape does not match dimension")

    def centers(self) -> tuple[np.ndarray, ...]:
        out = []
        for a in range(self.n):
            k = np.arange(self.values.shape[a])
            out.append(float(self.lo[a]) + (k + 0.5) * float(self.h))
        return tuple(out)

    def _points(self) -> np.ndarray:
        grids = np.meshgrid(*self.centers(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def _inhabited(self) -> tuple[np.ndarray, np.ndarray]:
        """Centers and values of the nonzero cells, in raveled order."""
        vals = self.values.ravel()
        mask = vals != 0.0
        return self._points()[mask], vals[mask]

    def moments(self) -> tuple[float, np.ndarray]:
        hn = float(self.h) ** self.n
        vals = self.values.ravel()
        m0 = float(np.sum(vals)) * hn
        m1 = (vals[:, None] * self._points()).sum(axis=0) * hn
        return m0, m1

    def moment_residuals(self) -> tuple[float, float]:
        m0, m1 = self.moments()
        return abs(m0), float(np.linalg.norm(m1))

    def support_radius(self) -> float:
        pts, _ = self._inhabited()
        return float(np.max(np.linalg.norm(pts, axis=1), initial=0.0))

    def outer_radius(self) -> float:
        """Distance to the farthest corner of any inhabited cell."""
        pts, _ = self._inhabited()
        far = np.linalg.norm(np.abs(pts) + 0.5 * float(self.h), axis=1)
        return float(np.max(far, initial=0.0))

    def value_at(self, y: Sequence) -> float:
        y = np.asarray([float(v) for v in y], dtype=float)
        idx = []
        for a in range(self.n):
            k = math.floor((y[a] - float(self.lo[a])) / float(self.h))
            if k < 0 or k >= self.values.shape[a]:
                return 0.0
            idx.append(k)
        return float(self.values[tuple(idx)])

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "lo": [str(v) for v in self.lo],
            "h": str(self.h),
            "shape": list(self.values.shape),
            "values": [float(v) for v in self.values.ravel()],
        }


# ---------------------------------------------------------------------------
# mollification

# radial profiles on [0, 1); the normalizing constant is computed per
# dimension so every registry entry integrates to one
def _profile_smooth(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = r < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def _profile_quartic(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = r < 1.0
    out[inside] = (1.0 - r[inside] ** 2) ** 2
    return out


_PROFILES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "smooth": _profile_smooth,
    "quartic": _profile_quartic,
}


@lru_cache(maxsize=None)
def _profile_constant(name: str, n: int) -> float:
    if n not in (1, 2):
        raise ValueError("mollifiers handle one or two variables")
    profile = _PROFILES[name]
    val = _adaptive_1d(lambda r: float(profile(np.array([r]))[0]) * r ** (n - 1),
                       0.0, 1.0, 1e-15)
    sphere = 2.0 if n == 1 else 2.0 * math.pi
    return 1.0 / (sphere * val)


def mollifier_kernel(name: str, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Normalized bump supported in the unit ball, as a callable on an
    array of points with one row per point."""
    if not isinstance(name, str) or name not in _PROFILES:
        raise InputError(f"unknown mollifier {name!r}")
    c = _profile_constant(name, n)
    profile = _PROFILES[name]

    def kernel(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return c * profile(np.linalg.norm(pts, axis=1))

    return kernel


def mollify(mu: DualAtomMeasure, bump: str, j: int) -> GridDensity:
    """Scale-j smoothing of the atoms onto a grid of step 1/(32 j).

    The raw samples inherit the atoms' annihilation only up to the
    midpoint rule, so a minimal correction over the inhabited cells
    restores zero mass and zero first moment to rounding error."""
    if not isinstance(j, int) or j < 1:
        raise ValueError("smoothing index must be a positive integer")
    kernel = mollifier_kernel(bump, mu.n)
    n = mu.n
    h = Fraction(1, 32 * j)
    pad = Fraction(1, j)
    lo_box, hi_box = mu.box
    lo_idx = [math.floor((lo_box[a] - pad) / h) - 2 for a in range(n)]
    hi_idx = [math.ceil((hi_box[a] + pad) / h) + 2 for a in range(n)]
    lo = tuple(lo_idx[a] * h for a in range(n))
    shape = tuple(hi_idx[a] - lo_idx[a] for a in range(n))
    grid = GridDensity(n, lo, h, np.zeros(shape))
    if not mu.atoms:
        return grid

    pts = grid._points()
    vals = np.zeros(len(pts))
    for x, w in mu.atoms:
        center = np.array([float(c) for c in x])
        vals += float(w) * j ** n * kernel(j * (center - pts))

    grid.values = vals.reshape(shape)  # a view: the shift below lands in it
    mask = vals != 0.0
    if mask.any():
        m0, m1 = grid.moments()
        C = np.vstack([np.ones(mask.sum()), pts[mask].T]) * float(h) ** n
        shift = -C.T @ np.linalg.solve(C @ C.T, np.concatenate([[m0], m1]))
        vals[mask] += shift
    return grid


# ---------------------------------------------------------------------------
# exact pairing with conjugates


def _on_integers(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """A common denominator D of the rationals and the integers D * x."""
    D = math.lcm(*(x.denominator for x in xs))
    return D, [x.numerator * (D // x.denominator) for x in xs]


def _grid_pairing_1d(env, lo: Fraction, h: Fraction, values: np.ndarray) -> float:
    """Sum over the cells [lo + k h, lo + (k + 1) h] of values[k] times the
    exact integral over the cell of a piecewise linear function given as
    (start, slope, intercept) rows sorted by start, the first at lo.

    Points are scaled by D, slopes by Ds and intercepts by Dc, common
    denominators, so the integral of the row (s, c) over [p, r] is
    (r - p)(S Dc (p + r) + 2 C D Ds) / (2 D^2 Ds Dc) in integers.  Each
    cell's numerator goes through one integer division, which rounds
    correctly, as float() of the exact Fraction does."""
    starts, slopes, offsets = zip(*env)
    D, xs = _on_integers((lo, h) + starts)
    Ds, S = _on_integers(slopes)
    Dc, C = _on_integers(offsets)
    # the rows' starts, with no row after the last
    x0, w, xs = xs[0], xs[1], xs[2:] + [math.inf]
    S = [s * Dc for s in S]
    C = [2 * c * D * Ds for c in C]
    den = 2 * D * D * Ds * Dc
    total, k = 0.0, 0
    for i, v in enumerate(values.tolist()):
        if v == 0.0:
            continue
        p = x0 + i * w
        b = p + w
        # the row that holds p, and the rows after it up to b
        while xs[k + 1] <= p:
            k += 1
        num, j = 0, k
        while p < b:
            r = min(b, xs[j + 1])
            num += (r - p) * (S[j] * (p + r) + C[j])
            p, j = r, j + 1
        total += v * (num / den)
    return total


def eval_dual(phi: GridDensity, u: PLConvexFunction) -> float:
    """Pair the grid density with the conjugate of u, integrating the
    conjugate exactly over each inhabited cell.

    In one variable the cells of the conjugate restricted to the grid's
    span give its breakpoints once.  In two, the conjugate restricted to
    a grid cell C has its epigraph truncated one above its maximum M, so
    the integral over C is (M + 1) h^2 minus that body's volume."""
    conj = u.fenchel_conjugate()
    lo, h = phi.lo, phi.h
    total = 0.0
    if phi.n == 1:
        span = Polytope.construct([lo, (lo[0] + len(phi.values) * h,)], 1)
        env = sorted((cell.vertices[0][0], g[0], b) for g, b, cell in
                     PLConvexFunction.from_pieces(span, conj.pieces).cells)
        return _grid_pairing_1d(env, lo[0], h, phi.values)
    if phi.n != 2:
        raise ValueError("pairing implemented for one or two variables")
    it = np.nditer(phi.values, flags=["multi_index"])
    for v in it:
        if v == 0.0:
            continue
        x0, y0 = (lo[i] + k * h for i, k in enumerate(it.multi_index))
        cell = Polytope.construct(
            [(x0, y0), (x0 + h, y0), (x0, y0 + h), (x0 + h, y0 + h)], 2)
        w = PLConvexFunction.from_pieces(cell, conj.pieces)
        total += float(v) * float((w.max_value + 1) * h * h - w.epigraph.volume)
    return total


# ---------------------------------------------------------------------------
# sphere transfer


@dataclass(frozen=True)
class GridTransferKernel:
    """Sphere kernel induced by a grid density through the radial map
    from lower unit normals to gradients."""

    grid: GridDensity

    def __call__(self, N: np.ndarray) -> float:
        N = np.asarray(N, dtype=float)
        c = -N[-1]
        if c <= 1e-15:
            return 0.0
        y = N[:-1] / c
        v = self.grid.value_at(y)
        if v == 0.0:
            return 0.0
        return v * (1.0 + float(y @ y)) ** (self.grid.n / 2 + 1)

    def sup_bound(self) -> float:
        """Exact supremum of |kernel| over the sphere: the transfer
        factor is radial and increasing, so each cell peaks at its
        farthest corner."""
        g = self.grid
        pts, vals = g._inhabited()
        far = np.linalg.norm(np.abs(pts) + 0.5 * float(g.h), axis=1)
        return float(np.max(np.abs(vals) * (1.0 + far ** 2) ** (g.n / 2 + 1),
                            initial=0.0))


def plane_to_sphere_density(phi: GridDensity) -> SphereDensity:
    """Push the grid density to the sphere of directions, with the
    weight that matches the plane pairing against support values."""
    R = phi.outer_radius()
    margin = (1.0 - 1e-12) / math.sqrt(1.0 + R * R)
    return SphereDensity(phi.n + 1, GridTransferKernel(phi), margin)


# ---------------------------------------------------------------------------
# discretization on the sphere


def _sup_norm(f: SphereDensity) -> float:
    if isinstance(f.kernel, GridTransferKernel):
        return f.kernel.sup_bound()
    if f.d == 2:
        t = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
        return max(abs(f(np.array([math.cos(a), math.sin(a)]))) for a in t)
    z, _ = np.polynomial.legendre.leggauss(64)
    worst = 0.0
    for zz in z:
        r = math.sqrt(max(0.0, 1.0 - zz * zz))
        for a in np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False):
            worst = max(worst, abs(f(np.array(
                [r * math.cos(a), r * math.sin(a), zz]))))
    return worst


def _circle_nodes(m: int) -> np.ndarray:
    t = 2.0 * math.pi * np.arange(m) / m
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def _sqrt1p_antiderivative(y: float) -> float:
    # antiderivative of sqrt(1 + y^2)
    return 0.5 * (y * math.hypot(1.0, y) + math.asinh(y))


def _arc_masses(phi: GridDensity, m: int) -> np.ndarray:
    """Integral of the transferred density over each node's arc of the
    unit circle, exact per cell overlap.

    Pulled back to gradient space the spherical element cancels all but
    one factor of the transfer weight, leaving phi(y) sqrt(1 + y^2),
    which integrates in closed form.  Point samples would see the cell
    jumps at O(1/m); these masses do not."""
    out = np.zeros(m)
    lo = float(phi.lo[0])
    h = float(phi.h)
    step = 2.0 * math.pi / m

    def theta(y: float) -> float:
        return math.atan(y) + 1.5 * math.pi

    for k, v in enumerate(phi.values):
        if v == 0.0:
            continue
        a = lo + k * h
        b = a + h
        t1, t2 = theta(a), theta(b)
        i1 = math.floor(t1 / step + 0.5)
        i2 = math.floor(t2 / step + 0.5)
        for i in range(i1, i2 + 1):
            left = max(t1, (i - 0.5) * step)
            right = min(t2, (i + 0.5) * step)
            if right <= left:
                continue
            ya = a if left == t1 else math.tan(left - 1.5 * math.pi)
            yb = b if right == t2 else math.tan(right - 1.5 * math.pi)
            out[i % m] += float(v) * (
                _sqrt1p_antiderivative(yb) - _sqrt1p_antiderivative(ya))
    return out


def _closed_measure(N: np.ndarray, w: np.ndarray) -> SphereMeasure:
    """The positive measure with atoms at the rows of N and the weights w
    projected onto the closedness constraint."""
    w = project_closed(N, w)
    if np.any(w <= 0):
        raise ValueError("atom count too small to balance the density")
    return SphereMeasure(N.shape[1], N, w)


def balance_and_discretize(f: SphereDensity, m: int) -> SphereMeasure:
    """Quadrature atoms for the density 1 + sup|f| + f, with weights
    projected onto the closedness constraint."""
    d = f.d
    if m < d + 1:
        raise ValueError("need at least d + 1 atoms")
    sup = _sup_norm(f)
    if d == 2:
        N = _circle_nodes(m)
        if isinstance(f.kernel, GridTransferKernel):
            return _closed_measure(
                N, 2.0 * math.pi / m * (1.0 + sup) + _arc_masses(f.kernel.grid, m))
        q = np.full(m, 2.0 * math.pi / m)
    elif d == 3:
        nz = max(2, math.isqrt(m // 2))
        nphi = 2 * nz
        z, lam = np.polynomial.legendre.leggauss(nz)
        rows = []
        qs = []
        for zz, ll in zip(z, lam):
            r = math.sqrt(max(0.0, 1.0 - zz * zz))
            for a in 2.0 * math.pi * np.arange(nphi) / nphi:
                rows.append([r * math.cos(a), r * math.sin(a), zz])
                qs.append(ll * 2.0 * math.pi / nphi)
        N = np.array(rows)
        q = np.array(qs)
    else:
        raise ValueError("sphere discretization handles d in {2, 3}")
    return _closed_measure(N, q * np.array([1.0 + sup + f(row) for row in N]))


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True)
class GwRow:
    j: int
    sup_error: float
    moment_zero: float
    moment_first: float
    support_radius: float
    representation_residual: float


@dataclass(frozen=True)
class GwReport(Report):
    rows: tuple[GwRow, ...]
    bodies: dict

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(GwRow)],
                        [asdict(r) for r in self.rows])

    def to_json(self) -> str:
        return dumps_canonical(
            {"rows": [asdict(r) for r in self.rows], "bodies": self.bodies})


def _polygon_edges(P: Polytope):
    """Outward unit normals, lengths, and start vertices of the edges of
    a polygon, plus the full vertex array, all in boundary_cycle order,
    which is counterclockwise."""
    V = P.float_vertices[list(P.boundary_cycle)]
    E = np.roll(V, -1, axis=0) - V
    lens = np.linalg.norm(E, axis=1)
    keep = lens > 0
    N = np.stack([E[keep, 1], -E[keep, 0]], axis=1) / lens[keep, None]
    return N, lens[keep], V[keep], V


# a strict sign test would let reconstruction noise classify an
# equatorial edge differently for the two bodies; any fixed cut
# inside the density's support margin keeps the split identical on
# both, and the band it drops cancels between them anyway
LOWER_EDGE_CUT = 1e-3


def _lower_facet_pairing(N: np.ndarray, lens: np.ndarray,
                         body_vertices: np.ndarray) -> float:
    mask = N[:, -1] < -LOWER_EDGE_CUT
    if not mask.any():
        return 0.0
    H = np.max(N[mask] @ body_vertices.T, axis=1)
    return float(np.sum(lens[mask] * H))


def gw_pipeline(mu: DualAtomMeasure, bump: str, j_list: Sequence[int],
                family: Sequence[PLConvexFunction], m: int = 1 << 14
                ) -> GwReport:
    """Run the full construction for each smoothing index and report how
    well the polytope difference reproduces the exact pairing.

    The quadrature nodes and the reference ball share one node set, so
    the constant part of the discretized measure cancels between the two
    bodies instead of contributing its own quadrature error."""
    if mu.n != 1:
        raise ValueError("the body stage is wired for one variable")
    if not family:
        raise ValueError("need at least one test function")
    conjugates = [u.fenchel_conjugate() for u in family]
    truth = [
        float(sum((w * conj.evaluate(x) for x, w in mu.atoms), Fraction(0)))
        for conj in conjugates
    ]
    body_vertex_sets = [u.body_of().float_vertices for u in family]

    rows = []
    artifacts: dict = {}
    for j in j_list:
        phi = mollify(mu, bump, j)
        f = plane_to_sphere_density(phi)
        sup = _sup_norm(f)
        mu_j = balance_and_discretize(f, m)
        ball_j = _closed_measure(_circle_nodes(m),
                                 np.full(m, 2.0 * math.pi / m * (1.0 + sup)))
        LN, Llen, _, _ = _polygon_edges(minkowski_solve(mu_j))
        WN, Wlen, Wstart, WV = _polygon_edges(minkowski_solve(ball_j))

        sup_err = 0.0
        rep_err = 0.0
        for u_idx in range(len(family)):
            grid_val = eval_dual(phi, family[u_idx])
            KV = body_vertex_sets[u_idx]
            body_val = _lower_facet_pairing(LN, Llen, KV) \
                - _lower_facet_pairing(WN, Wlen, KV)
            sup_err = max(sup_err, abs(grid_val - truth[u_idx]))
            rep_err = max(rep_err, abs(grid_val - body_val))

        radius = 1.0 + sup
        center = WV.mean(axis=0)
        apothem = float(np.min(np.einsum("ij,ij->i", Wstart - center, WN)))
        circum = float(np.max(np.linalg.norm(WV - center, axis=1)))
        gap = max(radius - apothem, circum - radius)

        r0, r1 = phi.moment_residuals()
        rows.append(GwRow(int(j), sup_err, r0, r1,
                          phi.support_radius(), rep_err))
        artifacts[str(int(j))] = {
            "ball_radius": radius,
            "ball_gap": gap,
            "main_edges": int(len(Llen)),
            "ball_edges": int(len(Wlen)),
            "atom_count": int(m),
            "sup_density": sup,
            "grid": phi.to_dict(),
        }
    return GwReport(tuple(rows), artifacts)
