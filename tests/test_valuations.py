"""Transfer identity, invariance, and structure tests for valuations.

Worked oracles: a constant density 1 pairs the cube to its surface area
6; any linear density pairs every body to 0 (the surface area measure is
centered); the diamond with vertices (+-1, 0), (0, +-1) pairs to sqrt(2)
times the sum of the density over its four diagonal normals; the unit
square seen as a prism over [0, 1] pairs the constant density to its
perimeter 4.
"""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epival.bodies import Polytope
from epival.functions import PLConvexFunction
from epival.valuations import (
    SKIP,
    BumpKernel,
    ConstKernel,
    PlaneDensity,
    PolyKernel,
    SphereDensity,
    ValuationSpec,
    ZonalKernel,
    cylinder_identity_check,
    cylinder_over,
    eta_to_zeta,
    eval_gradient_valuation,
    eval_sphere_valuation,
    homogeneous_components,
    kernel_from_dict,
    registry_from_dict,
    save_registry,
    valuation_residual,
    zeta_to_eta,
)


def cube():
    return Polytope.construct(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], 3)


def random_pl(rng, n, npts=7, denom=8):
    """Lower envelope of a random lifted point cloud, full dimensional."""
    while True:
        pts = []
        for _ in range(npts):
            x = [F(int(round(v * denom)), denom) for v in rng.normal(size=n)]
            t = sum(xi * xi for xi in x) + F(int(round(rng.normal() * denom)), denom)
            pts.append(tuple(x) + (t,))
        u = PLConvexFunction.lower_envelope(pts)
        if not u.is_empty and u.domain.intrinsic_dim == n:
            return u


def restrict_to(u, m, c):
    dom = u.domain.clip(tuple(F(x) for x in m), F(c))
    if dom.is_empty:
        return PLConvexFunction.empty(u.n)
    return PLConvexFunction.from_pieces(dom, u.pieces)


def bump_plane(n, center, width, radius=None):
    if radius is None:
        radius = float(np.linalg.norm(center)) + width
    return PlaneDensity(n, BumpKernel(tuple(center), width), radius)


class TestKernels:
    def test_bump_support_and_smoothness(self):
        k = BumpKernel((0.0,), 1.0)
        assert k(np.array([0.0])) == pytest.approx(1.0)
        assert k(np.array([1.0])) == 0.0
        assert k(np.array([0.999])) < 1e-2

    def test_poly(self):
        k = PolyKernel((((2, 0), 1.0), ((0, 1), -3.0)))
        assert k(np.array([2.0, 1.0])) == pytest.approx(4.0 - 3.0)

    def test_zonal(self):
        k = ZonalKernel((0.0, 0.0, -1.0), (0.0, 1.0))
        assert k(np.array([0.0, 0.0, -1.0])) == pytest.approx(1.0)
        assert k(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)

    def test_round_trip(self):
        for k in (BumpKernel((0.5, -0.25), 2.0, 3.0),
                  PolyKernel((((1,), 2.0),)),
                  ZonalKernel((0.0, 1.0), (1.0, 0.0, 2.0)),
                  ConstKernel(4.0)):
            back = kernel_from_dict(k.to_dict())
            assert back == k

    def test_to_dict_writes_each_field(self):
        # the dicts that each class's own to_dict wrote, before one base
        # class wrote them all
        bump = {"kind": "bump", "center": [0.5], "width": 1.0, "height": 1.0}
        plane = PlaneDensity(1, BumpKernel((0.5,), 1.0), 1.5)
        plane_dict = {"n": 1, "support_radius": 1.5, "kernel": bump}
        eta = zeta_to_eta(plane)
        assert plane.to_dict() == plane_dict
        assert eta.to_dict() == {"d": 2, "margin": plane.cap_margin, "kernel": {
            "kind": "lifted_plane", "plane": plane_dict}}
        assert eta_to_zeta(eta).kernel.to_dict() == {
            "kind": "dropped_sphere", "sphere": eta.to_dict()}
        assert PolyKernel((((2, 0), 1.0), ((0, 1), -3.0))).to_dict() == {
            "kind": "poly", "terms": [[[2, 0], 1.0], [[0, 1], -3.0]]}
        assert ZonalKernel((0.0, 1.0), (1.0, 2.0)).to_dict() == {
            "kind": "zonal", "axis": [0.0, 1.0], "coeffs": [1.0, 2.0]}
        assert ConstKernel(4.0).to_dict() == {"kind": "const", "value": 4.0}


class TestConversion:
    def test_round_trip_pointwise(self):
        zeta = bump_plane(1, (0.5,), 1.0)
        eta = zeta_to_eta(zeta)
        back = eta_to_zeta(eta)
        for y in (-0.4, 0.0, 0.3, 1.2, 5.0):
            assert back((y,)) == pytest.approx(zeta((y,)), abs=1e-12)

    def test_margin_radius_consistency(self):
        zeta = bump_plane(2, (1.0, 0.0), 0.5)
        eta = zeta_to_eta(zeta)
        assert eta.margin == pytest.approx(1.0 / math.sqrt(1.0 + 1.5 ** 2))
        assert eta_to_zeta(eta).support_radius == pytest.approx(1.5)

    def test_equator_support_rejected(self):
        eta = SphereDensity(2, ConstKernel(1.0), None)
        with pytest.raises(ValueError):
            eta_to_zeta(eta)
        eta0 = SphereDensity(2, ConstKernel(1.0), 0.0)
        with pytest.raises(ValueError):
            eta_to_zeta(eta0)

    def test_cosine_weight(self):
        zeta = bump_plane(1, (0.0,), 2.0)
        eta = zeta_to_eta(zeta)
        # at 45 degrees the gradient is 1 and the cosine is 1/sqrt(2)
        N = np.array([1.0, -1.0]) / math.sqrt(2)
        assert eta(N) == pytest.approx(zeta((1.0,)) / math.sqrt(2))


class TestSphereExamples:
    def test_constant_on_cube_is_surface_area(self):
        eta = SphereDensity(3, ConstKernel(1.0))
        assert eval_sphere_valuation(cube(), eta) == pytest.approx(6.0)

    def test_linear_density_vanishes(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            axis = rng.normal(size=d)
            axis /= np.linalg.norm(axis)
            eta = SphereDensity(d, ZonalKernel(tuple(axis), (0.0, 1.0)))
            pts = [tuple(F(int(round(8 * v)), 8) for v in rng.normal(size=d))
                   for _ in range(10)]
            P = Polytope.construct(pts, d)
            assert eval_sphere_valuation(P, eta) == pytest.approx(0.0, abs=1e-12)

    def test_diamond(self):
        diamond = Polytope.construct([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)
        eta = SphereDensity(2, PolyKernel((((2, 0), 1.0), ((0, 1), 0.5))))
        s = math.sqrt(2)
        want = s * sum(
            0.5 + 0.5 * ny / s for ny in (1, 1, -1, -1))
        assert eval_sphere_valuation(diamond, eta) == pytest.approx(want, abs=1e-12)

    def test_cylinder_identity_square(self):
        K = Polytope.construct([(0,), (1,)], 1)
        eta = SphereDensity(2, ConstKernel(1.0))
        lhs, rhs = cylinder_identity_check(eta, K, 1)
        assert lhs == pytest.approx(4.0)
        assert rhs == pytest.approx(4.0)

    def test_cylinder_identity_polygon(self):
        K = Polytope.construct([(0, 0), (2, 0), (0, 1), (2, 1)], 2)
        eta = SphereDensity(3, ZonalKernel((0.0, 0.0, 1.0), (0.5, 0.0, 1.0)))
        lhs, rhs = cylinder_identity_check(eta, K, F(3, 2))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_cylinder_rejects_asymmetric(self):
        K = Polytope.construct([(0,), (1,)], 1)
        eta = SphereDensity(2, ZonalKernel((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValueError):
            cylinder_identity_check(eta, K, 1)

    def test_prism_geometry(self):
        prism = cylinder_over(Polytope.construct([(0, 0), (1, 0), (0, 1)], 2), 2)
        assert prism.ambient_dim == 3
        assert prism.volume == 1


class TestTwoPathIdentity:
    @pytest.mark.parametrize("n", [1, 2])
    def test_bumps_on_random_functions(self, n):
        rng = np.random.default_rng(100 + n)
        radius = math.sqrt(1.0 / 0.2 ** 2 - 1.0)
        for trial in range(5):
            center = rng.uniform(-1.5, 1.5, size=n)
            width = float(rng.uniform(0.5, 1.5))
            zeta = bump_plane(n, tuple(center), width,
                              min(radius, float(np.linalg.norm(center)) + width))
            eta = zeta_to_eta(zeta)
            u = random_pl(rng, n)
            a = eval_gradient_valuation(u, zeta)
            b = eval_sphere_valuation(u.body_of(), eta)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12), f"trial {trial}"

    def test_identity_with_flat_cells(self):
        dom = Polytope.construct([(-1,), (1,)], 1)
        u = PLConvexFunction.from_pieces(dom, [((-1,), 0), ((1,), 0)])
        zeta = bump_plane(1, (1.0,), 0.5)
        eta = zeta_to_eta(zeta)
        a = eval_gradient_valuation(u, zeta)
        b = eval_sphere_valuation(u.body_of(), eta)
        assert a == pytest.approx(float(zeta((1.0,))), abs=1e-12)
        assert b == pytest.approx(a, rel=1e-12)


class TestInvariance:
    def test_epi_translation_exact(self):
        rng = np.random.default_rng(7)
        zeta = bump_plane(2, (0.5, -0.5), 1.0)
        u = random_pl(rng, 2)
        base = eval_gradient_valuation(u, zeta)
        for shift, c in [((F(1, 3), F(-2, 5)), F(7, 2)), ((F(4), F(0)), F(-1))]:
            v = u.epi_translate(shift, c)
            assert eval_gradient_valuation(v, zeta) == pytest.approx(
                base, rel=1e-12, abs=1e-15)

    def test_epi_scale_homogeneity(self):
        rng = np.random.default_rng(8)
        zeta = bump_plane(2, (0.0, 0.0), 1.5)
        u = random_pl(rng, 2)
        base = eval_gradient_valuation(u, zeta)
        for t in (F(1, 2), F(2), F(7, 3)):
            v = u.epi_scale(t)
            assert eval_gradient_valuation(v, zeta) == pytest.approx(
                float(t) ** 2 * base, rel=1e-12)


class TestValuationSpec:
    def test_gradient_form_and_registry(self, tmp_path):
        zeta = bump_plane(1, (0.25,), 1.0)
        vs = ValuationSpec("gradient", 1, plane=zeta, name="bump1")
        rng = np.random.default_rng(2)
        u = random_pl(rng, 1)
        path = tmp_path / "registry.json"
        save_registry({"bump1": vs}, str(path))
        back = registry_from_dict(json.loads(path.read_text()))["bump1"]
        assert back(u) == pytest.approx(vs(u), rel=1e-15)

    def test_sphere_form_matches_gradient_form(self):
        zeta = bump_plane(1, (-0.5,), 0.75)
        vs_g = ValuationSpec("gradient", 1, plane=zeta)
        vs_s = ValuationSpec("sphere", 1, sphere=zeta_to_eta(zeta))
        rng = np.random.default_rng(4)
        for _ in range(3):
            u = random_pl(rng, 1)
            assert vs_s(u) == pytest.approx(vs_g(u), rel=1e-9, abs=1e-12)

    def test_sphere_form_without_margin_rejected(self):
        vs = ValuationSpec("sphere", 1, sphere=SphereDensity(2, ConstKernel(1.0)))
        u = PLConvexFunction.constant(Polytope.construct([(0,), (1,)], 1), 0)
        with pytest.raises(ValueError):
            vs(u)

    def test_dual_density_exact(self):
        atoms = (((0.5,), 2.0), ((-1.0,), -2.0))
        vs = ValuationSpec("dual_density", 1, dual_atoms=atoms)
        dom = Polytope.construct([(-1,), (1,)], 1)
        u = PLConvexFunction.constant(dom, 0)
        # conjugate of the indicator of [-1,1] is |y|
        assert vs(u) == pytest.approx(2.0 * 0.5 - 2.0 * 1.0)

    def test_external_not_serializable(self):
        # plain callables serve where a valuation need not be serialized,
        # so "external" is no form: neither built nor read back
        with pytest.raises(ValueError, match="unknown form"):
            ValuationSpec("external", 1)
        with pytest.raises(ValueError, match="unknown form"):
            ValuationSpec.from_dict({"form": "external", "n": 1})

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="unknown form"):
            ValuationSpec("mixed", 1)
        with pytest.raises(ValueError, match="unknown form"):
            ValuationSpec.from_dict({"form": "mixed", "n": 1})


class TestResidualAndDecomposition:
    def test_split_pair_residual_small(self):
        rng = np.random.default_rng(12)
        zeta = bump_plane(2, (0.3, 0.1), 1.2)
        vs = ValuationSpec("gradient", 2, plane=zeta)
        for trial in range(4):
            u = random_pl(rng, 2)
            c = u.domain.centroid
            m = tuple(F(int(x), 1) for x in rng.integers(-3, 4, size=2))
            if all(x == 0 for x in m):
                m = (F(1), F(0))
            off = sum(mi * ci for mi, ci in zip(m, c))
            u1 = restrict_to(u, m, off)
            u2 = restrict_to(u, tuple(-x for x in m), -off)
            if u1.is_empty or u2.is_empty:
                continue
            res = valuation_residual(vs, u1, u2)
            assert res is not SKIP
            assert res == pytest.approx(0.0, abs=1e-10)

    def test_disjoint_incompatible_pair_skips(self):
        dom1 = Polytope.construct([(0,), (1,)], 1)
        dom2 = Polytope.construct([(3,), (4,)], 1)
        u = PLConvexFunction.constant(dom1, 0)
        v = PLConvexFunction.constant(dom2, 5)
        vs = ValuationSpec("gradient", 1, plane=bump_plane(1, (0.0,), 1.0))
        assert valuation_residual(vs, u, v) == SKIP

    def test_components_of_homogeneous_valuation(self):
        rng = np.random.default_rng(21)
        zeta = bump_plane(2, (0.2, -0.3), 1.0)
        vs = ValuationSpec("gradient", 2, plane=zeta)
        u = random_pl(rng, 2)
        comps = homogeneous_components(vs, u)
        total = vs(u)
        assert comps[0] == pytest.approx(0.0, abs=1e-9)
        assert comps[1] == pytest.approx(0.0, abs=1e-9)
        assert comps[2] == pytest.approx(total, rel=1e-9)
        assert sum(comps) == pytest.approx(total, rel=1e-9)

    def test_components_of_mixed_valuation(self):
        zeta = bump_plane(1, (0.4,), 0.8)

        def Z(u):
            return 7.0 + 4.0 * eval_gradient_valuation(u, zeta)

        rng = np.random.default_rng(22)
        u = random_pl(rng, 1)
        comps = homogeneous_components(Z, u, n=1)
        assert comps[0] == pytest.approx(7.0, rel=1e-12)
        assert comps[1] == pytest.approx(4.0 * eval_gradient_valuation(u, zeta),
                                         rel=1e-9, abs=1e-12)

    def test_distinguishes_densities(self):
        z1 = bump_plane(1, (0.5,), 0.5)
        z2 = bump_plane(1, (-0.5,), 0.5)
        dom = Polytope.construct([(0,), (1,)], 1)
        u = PLConvexFunction.affine(dom, (F(1, 2),), 0)
        a = eval_gradient_valuation(u, z1)
        b = eval_gradient_valuation(u, z2)
        assert abs(a - b) > 0.5


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_split_residual_property(seed):
    rng = np.random.default_rng(seed)
    zeta = bump_plane(1, (0.0,), 2.0)
    vs = ValuationSpec("gradient", 1, plane=zeta)
    u = random_pl(rng, 1, npts=5)
    c = u.domain.centroid[0]
    u1 = restrict_to(u, (1,), c)
    u2 = restrict_to(u, (-1,), -c)
    if u1.is_empty or u2.is_empty:
        return
    res = valuation_residual(vs, u1, u2)
    if res is not SKIP:
        assert res == pytest.approx(0.0, abs=1e-10)
