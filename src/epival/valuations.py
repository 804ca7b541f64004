"""Valuations on convex bodies and on convex functions, and the transfer
between the two pictures.

A body valuation here is a pairing of the top order surface area measure
with a density on unit normals.  A function valuation pairs gradient cell
volumes with a density on gradient space.  The two are conjugate under
the radial map between the lower half sphere and gradient space; the
conversion carries the cosine weight of that map, so

    plane density (y)  =  sphere density((y, -1)/sqrt(1+|y|^2)) * sqrt(1+|y|^2)

and every valuation evaluated both ways on a lifted function body must
agree.  Kernels are closed dataclasses with named parameters so registry
files never deserialize code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .bodies import GeometryError, Polytope
from .functions import EpiMinNotConvex, PLConvexFunction
from .linalg import solve as exact_solve
from .measures import surface_area_measure
from .schema import InputError, array, field, integer, real


# ---------------------------------------------------------------------------
# kernels


class _Record:
    """Base of the kernels and densities of a registry: to_dict writes the
    kind, if the class has one, and every field, a tuple as a JSON array
    and a nested record as its own to_dict."""

    def to_dict(self) -> dict:
        out = {"kind": self.kind} if hasattr(self, "kind") else {}
        return out | {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.to_dict() if isinstance(value, _Record) else value


@dataclass(frozen=True)
class BumpKernel(_Record):
    """Smooth compactly supported bump around a center point."""

    center: tuple[float, ...]
    width: float
    height: float = 1.0

    kind = "bump"

    def __call__(self, y: np.ndarray) -> float:
        c = np.asarray(self.center, dtype=float)
        r2 = float(np.sum((np.asarray(y, dtype=float) - c) ** 2)) / self.width ** 2
        if r2 >= 1.0:
            return 0.0
        return self.height * math.exp(1.0 - 1.0 / (1.0 - r2))


@dataclass(frozen=True)
class PolyKernel(_Record):
    """Multivariate polynomial, terms as (exponent tuple, coefficient)."""

    terms: tuple[tuple[tuple[int, ...], float], ...]

    kind = "poly"

    def __call__(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        out = 0.0
        for exps, c in self.terms:
            out += c * float(np.prod([y[i] ** e for i, e in enumerate(exps)]))
        return out


@dataclass(frozen=True)
class ZonalKernel(_Record):
    """Polynomial in the cosine against a fixed axis, p(axis . y)."""

    axis: tuple[float, ...]
    coeffs: tuple[float, ...]

    kind = "zonal"

    def __call__(self, y: np.ndarray) -> float:
        t = float(np.dot(np.asarray(self.axis, dtype=float), np.asarray(y, dtype=float)))
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * t + c
        return out


@dataclass(frozen=True)
class ConstKernel(_Record):
    value: float = 1.0

    kind = "const"

    def __call__(self, y: np.ndarray) -> float:
        return self.value


def _term(value, where: str, dim: int | None):
    if type(value) is not list or len(value) != 2:
        raise InputError(f"{where} must be a JSON array [exponents, coefficient]")
    return (tuple(array(value[0], f"{where} exponents", integer, dim)),
            real(value[1], f"{where} coefficient"))


def kernel_from_dict(data: dict, where: str = "kernel", dim: int | None = None):
    """A kernel on R^dim; any dimension when dim is None."""
    kind = field(data, "kind", where)
    if kind == "bump":
        return BumpKernel(tuple(field(data, "center", where, array, real, dim)),
                          field(data, "width", where, real, True),
                          real(data.get("height", 1.0), f"{where} height"))
    if kind == "poly":
        return PolyKernel(tuple(field(data, "terms", where, array,
                                      lambda t, name: _term(t, name, dim))))
    if kind == "zonal":
        return ZonalKernel(tuple(field(data, "axis", where, array, real, dim)),
                           tuple(field(data, "coeffs", where, array, real)))
    if kind == "const":
        return ConstKernel(real(data.get("value", 1.0), f"{where} value"))
    if kind == "lifted_plane":
        return LiftedPlaneKernel(field(data, "plane", where, PlaneDensity.from_dict))
    if kind == "dropped_sphere":
        return DroppedSphereKernel(field(data, "sphere", where, SphereDensity.from_dict))
    raise InputError(f"{where} kind: unknown kernel kind {kind!r}")


# ---------------------------------------------------------------------------
# densities on gradient space and on the sphere


@dataclass(frozen=True)
class PlaneDensity(_Record):
    """Density on gradient space, vanishing outside |y| <= support_radius."""

    n: int
    kernel: Callable[[np.ndarray], float]
    support_radius: float

    def __call__(self, y) -> float:
        y = np.asarray([float(v) for v in y], dtype=float)
        if float(y @ y) > self.support_radius ** 2 + 1e-15:
            return 0.0
        return float(self.kernel(y))

    @property
    def cap_margin(self) -> float:
        """Distance of the matching sphere density's support from the
        equator, as a lower bound on the vertical cosine."""
        return 1.0 / math.sqrt(1.0 + self.support_radius ** 2)

    @staticmethod
    def from_dict(data: dict, where: str = "plane", n: int | None = None) -> "PlaneDensity":
        """The density; its n must equal n when that is given."""
        n = field(data, "n", where, integer, n)
        return PlaneDensity(n, field(data, "kernel", where, kernel_from_dict, n),
                            field(data, "support_radius", where, real))


@dataclass(frozen=True)
class SphereDensity(_Record):
    """Density on unit directions of R^d.  A margin delta > 0 promises the
    support stays in the cap {N : N_d <= -delta}; margin None makes no
    support promise (whole sphere allowed)."""

    d: int
    kernel: Callable[[np.ndarray], float]
    margin: Optional[float] = None

    def __call__(self, N) -> float:
        N = np.asarray([float(v) for v in N], dtype=float)
        if self.margin is not None and N[-1] > -self.margin:
            return 0.0
        return float(self.kernel(N))

    @staticmethod
    def from_dict(data: dict, where: str = "sphere", d: int | None = None) -> "SphereDensity":
        """The density; its d must equal d when that is given."""
        d = field(data, "d", where, integer, d)
        m = data.get("margin")
        return SphereDensity(d, field(data, "kernel", where, kernel_from_dict, d),
                             None if m is None else real(m, f"{where} margin"))


@dataclass(frozen=True)
class LiftedPlaneKernel(_Record):
    """Sphere kernel induced by a plane density: the plane value at the
    radial image, damped by the vertical cosine."""

    plane: PlaneDensity

    kind = "lifted_plane"

    def __call__(self, N: np.ndarray) -> float:
        N = np.asarray(N, dtype=float)
        cos = -N[-1]
        if cos <= 0.0:
            return 0.0
        y = N[:-1] / cos
        return self.plane(y) * cos


@dataclass(frozen=True)
class DroppedSphereKernel(_Record):
    """Plane kernel induced by a sphere density: the sphere value at the
    lifted direction, amplified by the inverse vertical cosine."""

    sphere: SphereDensity

    kind = "dropped_sphere"

    def __call__(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        s = math.sqrt(1.0 + float(y @ y))
        N = np.append(y, -1.0) / s
        return self.sphere(N) * s


def zeta_to_eta(plane: PlaneDensity) -> SphereDensity:
    """Sphere density matching a compactly supported plane density."""
    return SphereDensity(plane.n + 1, LiftedPlaneKernel(plane), plane.cap_margin)


def eta_to_zeta(sphere: SphereDensity) -> PlaneDensity:
    """Plane density matching a sphere density supported away from the
    equator; without a positive margin the plane support is unbounded."""
    if sphere.margin is None or sphere.margin <= 0.0:
        raise ValueError("sphere density needs a positive equator margin")
    radius = math.sqrt(max(1.0 / sphere.margin ** 2 - 1.0, 0.0))
    return PlaneDensity(sphere.d - 1, DroppedSphereKernel(sphere), radius)


# ---------------------------------------------------------------------------
# evaluation


def eval_gradient_valuation(u: PLConvexFunction, zeta: Callable) -> float:
    """Sum over gradient cells of cell volume times the density at the
    cell gradient.  Volumes are exact; only the density is float."""
    if u.is_empty:
        return 0.0
    out = 0.0
    for g, _, region in u.cells:
        vol = region.volume
        if vol == 0:
            continue
        out += float(vol) * float(zeta(np.array([float(x) for x in g])))
    return out


def eval_sphere_valuation(P: Polytope, eta: Callable) -> float:
    """Pairing of the top order surface area measure with a density."""
    sam = surface_area_measure(P)
    return float(sum(w * float(eta(n)) for n, w in sam.atoms))


# ---------------------------------------------------------------------------
# valuation specs and the registry


class Skip:
    """Sentinel for case results that do not apply (no convex minimum)."""

    def __repr__(self) -> str:
        return "Skip"

    def __eq__(self, other) -> bool:
        return isinstance(other, Skip)

    def __hash__(self) -> int:
        return hash("Skip")


SKIP = Skip()

FORMS = ("gradient", "sphere", "dual_density")


@dataclass(frozen=True)
class ValuationSpec:
    """A function valuation in one of the closed forms.

    gradient     : plane density paired with gradient cells
    sphere       : sphere density paired with the lifted body's facets
    dual_density : finite signed atoms paired with the conjugate function
    """

    form: str
    n: int
    plane: Optional[PlaneDensity] = None
    sphere: Optional[SphereDensity] = None
    dual_atoms: Optional[tuple[tuple[tuple[float, ...], float], ...]] = None
    name: str = ""

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")

    def __call__(self, u: PLConvexFunction) -> float:
        if self.form == "gradient":
            return eval_gradient_valuation(u, self.plane)
        if self.form == "sphere":
            if self.sphere.margin is None or self.sphere.margin <= 0.0:
                raise ValueError(
                    "sphere form needs a positive margin to act on functions")
            if u.is_empty:
                return 0.0
            return eval_sphere_valuation(u.body_of(), self.sphere)
        if u.is_empty:
            return 0.0
        conj = u.fenchel_conjugate()
        return float(sum(
            w * float(conj.evaluate(tuple(Fraction(v) for v in x)))
            for x, w in self.dual_atoms))

    def to_dict(self) -> dict:
        out = {"form": self.form, "n": self.n, "name": self.name}
        if self.form == "gradient":
            out["plane"] = self.plane.to_dict()
        elif self.form == "sphere":
            out["sphere"] = self.sphere.to_dict()
        else:
            out["atoms"] = [{"x": list(x), "w": w} for x, w in self.dual_atoms]
        return out

    @staticmethod
    def from_dict(data: dict, where: str = "valuation") -> "ValuationSpec":
        form = field(data, "form", where)
        if form not in FORMS:
            raise InputError(f"{where} form: unknown form {form!r}")
        n = field(data, "n", where, integer)
        name = data.get("name", "")
        if form == "gradient":
            return ValuationSpec(form, n, name=name, plane=field(
                data, "plane", where, PlaneDensity.from_dict, n))
        if form == "sphere":
            sphere = field(data, "sphere", where, SphereDensity.from_dict, n + 1)
            if not (sphere.margin or 0) > 0:
                raise InputError(f"{where} sphere margin must be positive in the sphere form")
            return ValuationSpec(form, n, name=name, sphere=sphere)
        atom = f"{where} atom"
        atoms = tuple((tuple(field(a, "x", atom, array, real, n)), field(a, "w", atom, real))
                      for a in field(data, "atoms", where, array))
        return ValuationSpec(form, n, dual_atoms=atoms, name=name)


def save_registry(specs: dict[str, ValuationSpec], path: str) -> None:
    payload = {name: vs.to_dict() for name, vs in sorted(specs.items())}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def registry_from_dict(payload: dict) -> dict[str, ValuationSpec]:
    """The valuations of a registry file's JSON object, by name."""
    if not isinstance(payload, dict):
        raise InputError("a registry must be a JSON object of named valuations")
    return {name: ValuationSpec.from_dict(d, f"valuation {name!r}")
            for name, d in payload.items()}


# ---------------------------------------------------------------------------
# structural checks


def valuation_residual(Z: Callable[[PLConvexFunction], float],
                       u: PLConvexFunction,
                       v: PLConvexFunction):
    """Z(min) + Z(max) - Z(u) - Z(v) when the pointwise minimum is convex,
    otherwise the Skip sentinel."""
    try:
        lo = u.pointwise_min(v)
    except EpiMinNotConvex:
        return SKIP
    hi = u.pointwise_max(v)
    return Z(lo) + Z(hi) - Z(u) - Z(v)


def homogeneous_components(Z: Callable[[PLConvexFunction], float],
                           u: PLConvexFunction,
                           n: Optional[int] = None) -> list[float]:
    """Degrees 0..n of Z at u, from exact Vandermonde interpolation of
    Z at the epigraph scalings t = 1..n+1."""
    if n is None:
        n = u.n
    ts = list(range(1, n + 2))
    values = [Z(u.epi_scale(t)) for t in ts]
    for t, value in zip(ts, values):
        if not math.isfinite(value):
            raise ValueError(f"the valuation at the scaling t = {t} is not finite: {value}")
    rows = [[Fraction(t) ** k for k in range(n + 1)] for t in ts]
    sol = exact_solve(rows, [Fraction(v) for v in values])
    if sol is None:
        raise GeometryError("degenerate interpolation nodes")
    return [float(c) for c in sol]


def cylinder_over(K: Polytope, length) -> Polytope:
    """Right prism K x [0, length] one dimension up."""
    ell = Fraction(length)
    if ell <= 0:
        raise GeometryError("cylinder length must be positive")
    pts = [v + (Fraction(0),) for v in K.vertices]
    pts += [v + (ell,) for v in K.vertices]
    return Polytope.construct(pts, K.ambient_dim + 1)


def _mirror_symmetric(eta: Callable, d: int, rng: np.random.Generator,
                      probes: int = 64, tol: float = 1e-9) -> bool:
    for _ in range(probes):
        N = rng.normal(size=d)
        N /= np.linalg.norm(N)
        M = N.copy()
        M[-1] = -M[-1]
        if abs(float(eta(N)) - float(eta(M))) > tol:
            return False
    return True


def cylinder_identity_check(eta: SphereDensity, K: Polytope, length,
                            seed: int = 0) -> tuple[float, float]:
    """Both sides of the prism identity for a density symmetric under
    reflection in the horizontal plane: the facet pairing of the prism
    against twice the base volume at the down direction plus length times
    the side pairing of the base.  Asymmetric densities are rejected."""
    d = K.ambient_dim + 1
    rng = np.random.default_rng(seed)
    if not _mirror_symmetric(eta, d, rng):
        raise ValueError("density is not symmetric under horizontal reflection")
    prism = cylinder_over(K, length)
    lhs = eval_sphere_valuation(prism, eta)
    down = np.zeros(d)
    down[-1] = -1.0
    base = K.relative_volume_float
    side = 0.0
    for nu, w in surface_area_measure(K).atoms:
        side += w * float(eta(np.append(nu, 0.0)))
    rhs = 2.0 * float(eta(down)) * base + float(length) * side
    return lhs, rhs
