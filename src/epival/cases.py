"""Seeded random case generation for the identity suites.

Every draw flows from one integer seed through spawned child sequences,
keyed by (stream, case index), so a single case can be regenerated in
isolation and the collection is insensitive to evaluation order.  Points
are Gaussian samples snapped to 12-bit rationals; all downstream geometry
is then exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bodies import GeometryError, Polytope
from .functions import PLConvexFunction
from .valuations import BumpKernel, PlaneDensity

SNAP_DENOM = 1 << 12

_STREAM_BODY = 0
_STREAM_FUNCTION = 1
_STREAM_SPLIT = 2
_STREAM_DENSITY = 3
_STREAM_POINTS = 4
_STREAM_SEQUENCE = 5


def snap(x, denom: int = SNAP_DENOM) -> Fraction:
    return Fraction(round(float(x) * denom), denom)


def _random_body(rng: np.random.Generator, d: int) -> Polytope:
    k = int(rng.integers(d + 2, d + 7))
    for _ in range(32):
        pts = [tuple(snap(x) for x in rng.normal(size=d)) for _ in range(k)]
        P = Polytope.construct(pts, d)
        if P.intrinsic_dim == d:
            return P
    raise GeometryError("could not draw a full dimensional body")


@dataclass(frozen=True)
class CaseGenerator:
    """Deterministic case factory; dimension is ambient for bodies and
    the variable count n for functions and densities."""

    seed: int
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")

    def _rng(self, stream: int, index: int) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(stream, index))
        return np.random.default_rng(ss)

    def body(self, index: int) -> Polytope:
        """Hull of Gaussian points with snapped rational coordinates."""
        return _random_body(self._rng(_STREAM_BODY, index), self.dimension)

    def pl_function(self, index: int) -> PLConvexFunction:
        """Lower envelope of Gaussian lifted points over a full
        dimensional domain."""
        n = self.dimension
        rng = self._rng(_STREAM_FUNCTION, index)
        k = int(rng.integers(n + 3, n + 9))
        for _ in range(32):
            lifted = [
                tuple(snap(x) for x in rng.normal(size=n + 1))
                for _ in range(k)
            ]
            u = PLConvexFunction.lower_envelope(lifted)
            if u.domain.intrinsic_dim == n:
                return u
        raise GeometryError("could not draw a full dimensional function")

    def split_pair(self, index: int) -> tuple[Polytope, Polytope]:
        """Two bodies cut from one hull by an overlapping slab with a
        random rational normal: the union is the hull itself and the
        intersection is a full dimensional slice."""
        d = self.dimension
        rng = self._rng(_STREAM_SPLIT, index)
        M = _random_body(rng, d)
        for _ in range(32):
            a = tuple(snap(x) for x in rng.normal(size=d))
            lo, hi = -M.support(tuple(-x for x in a)), M.support(a)
            if hi == lo:
                continue
            c1 = lo + (hi - lo) * snap(rng.uniform(0.30, 0.44))
            c2 = lo + (hi - lo) * snap(rng.uniform(0.56, 0.70))
            K = M.clip(a, c2)
            L = M.clip(tuple(-x for x in a), -c1)
            if K.intrinsic_dim == d and L.intrinsic_dim == d:
                return K, L
        raise GeometryError("could not split the body")

    def bump_density(self, index: int,
                     radius_cap: float | None = None) -> PlaneDensity:
        """Smooth compactly supported bump on gradient space; an optional
        cap clips the support radius (clipping is shared by both sides of
        the change-of-variables identity, so it stays an identity)."""
        n = self.dimension
        rng = self._rng(_STREAM_DENSITY, index)
        center = tuple(float(x) for x in rng.uniform(-1.2, 1.2, size=n))
        width = float(rng.uniform(0.4, 1.3))
        radius = float(np.linalg.norm(center)) + width
        if radius_cap is not None:
            radius = min(radius, radius_cap)
        return PlaneDensity(n, BumpKernel(center, width), radius)

    def rational_points(self, index: int, count: int,
                        scale: float = 1.5) -> list[tuple[Fraction, ...]]:
        """Snapped Gaussian probe points in gradient space."""
        rng = self._rng(_STREAM_POINTS, index)
        return [
            tuple(snap(scale * x) for x in rng.normal(size=self.dimension))
            for _ in range(count)
        ]

    def body_sequence(self, index: int, length: int) -> list[Polytope]:
        """A body followed by perturbed copies converging to it: each
        vertex moves along a fixed direction with amplitude halving per
        step, all coordinates exact."""
        d = self.dimension
        rng = self._rng(_STREAM_SEQUENCE, index)
        base = _random_body(rng, d)
        dirs = [tuple(snap(x) for x in rng.normal(size=d)) for _ in base.vertices]
        out = [base]
        for step in range(length):
            eps = Fraction(1, 4 * 2 ** step)
            pts = [
                tuple(v[i] + eps * g[i] for i in range(d))
                for v, g in zip(base.vertices, dirs)
            ]
            out.append(Polytope.construct(pts, d))
        return out
