"""Acceptance run: every criterion executes at its stated tolerance and
shows up as exactly one pass/fail line under pytest -v.

Each test is numbered; run `pytest tests/test_acceptance.py -v` to get
the ten-line summary.  Stated runtime budgets are asserted inside the
tests that carry one.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.optimize

from epival.bodies import Polytope
from epival.cases import CaseGenerator
from epival.cli import SuiteConfig, run_suite
from epival.dual import DualAtomMeasure, gw_pipeline
from epival.functions import PLConvexFunction, epi_distance
from epival.measures import (
    hessian_steiner,
    local_parallel_volume_mc,
    p_t_volume_mc,
    parallel_volume,
    support_measure,
    surface_area_measure,
)
from epival.minkowski import minkowski_solve
from epival.valuations import (
    PlaneDensity,
    BumpKernel,
    SphereDensity,
    ZonalKernel,
    cylinder_identity_check,
    eval_gradient_valuation,
    eval_sphere_valuation,
    homogeneous_components,
    valuation_residual,
    zeta_to_eta,
)

SEED = 7
T_GRID = (0.25, 0.5, 1.0, 2.0)


def unit_square():
    return Polytope.construct([(0, 0), (1, 0), (0, 1), (1, 1)], 2)


def unit_cube():
    return Polytope.construct(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], 3)


def test_criterion_01_conjugate_identity():
    t0 = time.monotonic()
    for n in (1, 2):
        cfg = SuiteConfig("conjugate", n, 100, SEED, 1e-9, 3.0, None)
        rep = run_suite(cfg)
        assert rep.passed == 100, f"n={n}: {rep.failed} cases broke exactness"
        assert rep.worst_residual == 0.0
    assert time.monotonic() - t0 < 30.0


def test_criterion_02_change_of_variables():
    t0 = time.monotonic()
    for n in (1, 2):
        cfg = SuiteConfig("change-of-vars", n, 100, SEED, 1e-9, 3.0, None)
        rep = run_suite(cfg)
        assert rep.all_passed, f"n={n}: worst {rep.worst_residual}"
        assert rep.worst_residual <= 1e-9
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_lattice_transfer():
    for n in (1, 2):
        gen = CaseGenerator(SEED, n + 1)
        zeta = PlaneDensity(n, BumpKernel((0.3,) * n, 1.2), 2.0)
        eta = zeta_to_eta(zeta)
        z_grad = lambda u: eval_gradient_valuation(u, zeta)  # noqa: E731
        z_sph = lambda u: (0.0 if u.is_empty else  # noqa: E731
                           eval_sphere_valuation(u.body_of(), eta))
        for i in range(100):
            K, L = gen.split_pair(i)
            u = PLConvexFunction.floor_of(K)
            v = PLConvexFunction.floor_of(L)
            assert PLConvexFunction.floor_of(K.intersect(L)) == \
                u.pointwise_max(v), f"n={n} case {i}"
            for Z in (z_grad, z_sph):
                res = valuation_residual(Z, u, v)
                assert res is not None and abs(res) <= 1e-9, \
                    f"n={n} case {i}: residual {res}"


def test_criterion_04_steiner_formulas():
    # closed-form totals of the square and the cube
    sq = [support_measure(unit_square(), i).total for i in (0, 1)]
    assert sq[0] == pytest.approx(math.pi, rel=1e-12)
    assert sq[1] == pytest.approx(2.0, rel=1e-12)
    cu = [support_measure(unit_cube(), i).total for i in (0, 1, 2)]
    assert cu[0] == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert cu[1] == pytest.approx(math.pi, rel=1e-12)
    assert cu[2] == pytest.approx(2.0, rel=1e-12)

    def mc_seed(stream, i):
        ss = np.random.SeedSequence(SEED, spawn_key=(stream, i))
        return int(ss.generate_state(1, dtype=np.uint64)[0] % (1 << 62))

    # ten random bodies against the Monte Carlo oracle
    for count, d in ((5, 2), (5, 3)):
        gen = CaseGenerator(SEED, d)
        for i in range(count):
            P = gen.body(i)
            for t in T_GRID:
                want = parallel_volume(P, t)
                est, se = local_parallel_volume_mc(
                    P, None, t, 240_000, mc_seed(20 + d, i))
                assert abs(est - want) <= 3.0 * se + 1e-12, \
                    f"d={d} case {i} t={t}: z={(abs(est-want))/se:.2f}"

    # ten random functions: flow-out volume against the exact polynomial
    for count, n in ((5, 1), (5, 2)):
        gen = CaseGenerator(SEED, n)
        for i in range(count):
            u = gen.pl_function(i)
            bound = max((abs(g) for p in u.pieces for g in p[0]),
                        default=F(0)) + 1
            for t in T_GRID:
                want = float(hessian_steiner(u, F(t), bound))
                est, se = p_t_volume_mc(u, None, t, 240_000,
                                        mc_seed(30 + n, i),
                                        gradient_bound=float(bound))
                assert abs(est - want) <= 3.0 * se + 1e-12, \
                    f"n={n} case {i} t={t}: z={(abs(est-want))/se:.2f}"


def test_criterion_05_homogeneous_decomposition():
    dual_atoms = (((-1.0,), 1.0), ((0.5,), 2.0))
    dual_atoms2 = (((-1.0, 0.5), 1.0), ((0.5, 0.0), 2.0))

    def dual_val(u, atoms):
        conj = u.fenchel_conjugate()
        return float(sum(w * float(conj.evaluate(tuple(F(v) for v in x)))
                         for x, w in atoms))

    zeta1 = PlaneDensity(1, BumpKernel((0.2,), 1.0), 1.5)
    zeta2 = PlaneDensity(2, BumpKernel((0.2, -0.1), 1.0), 1.5)
    eta2 = zeta_to_eta(zeta2)
    mixed = [
        (1, lambda u: 2.0 + 3.0 * dual_val(u, dual_atoms)
            + eval_gradient_valuation(u, zeta1)),
        (2, lambda u: 0.25 + dual_val(u, dual_atoms2)
            + eval_gradient_valuation(u, zeta2)),
        (2, lambda u: -1.0 + 0.5 * dual_val(u, dual_atoms2)
            + eval_sphere_valuation(u.body_of(), eta2)),
    ]
    for which, (n, Z) in enumerate(mixed):
        gen = CaseGenerator(SEED + which, n)
        for i in range(3):
            u = gen.pl_function(i)
            comps = homogeneous_components(Z, u, n)
            scaled = homogeneous_components(Z, u.epi_scale(3), n)
            assert sum(comps) == pytest.approx(Z(u), rel=1e-9)
            for deg in range(n + 1):
                want = 3.0 ** deg * comps[deg]
                assert scaled[deg] == pytest.approx(want, rel=1e-7, abs=1e-7), \
                    f"valuation {which} case {i} degree {deg}"


def test_criterion_06_degree_n_behavior():
    for n in (1, 2):
        gen = CaseGenerator(SEED, n)
        zeta = PlaneDensity(n, BumpKernel((0.1,) * n, 1.5), 2.0)
        for i in range(50):
            u = gen.pl_function(i)
            base = eval_gradient_valuation(u, zeta)
            shift = gen.rational_points(i, 1, scale=0.5)[0]
            moved = eval_gradient_valuation(
                u.epi_translate(shift, F(3, 7)), zeta)
            assert abs(moved - base) <= 1e-12 * max(1.0, abs(base)), \
                f"n={n} case {i}: translation moved the value"
            scaled = eval_gradient_valuation(u.epi_scale(2), zeta)
            assert abs(scaled - 2 ** n * base) <= \
                1e-12 * max(1.0, abs(2 ** n * base)), f"n={n} case {i}"

    # prism identity over twenty body/length pairs
    rng = np.random.default_rng(SEED)
    for n in (1, 2):
        gen = CaseGenerator(SEED, n)
        for i in range(10):
            K = gen.body(i)
            length = F(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
            axis = tuple(float(x) for x in rng.normal(size=n)) + (0.0,)
            coeffs = tuple(float(x) for x in rng.normal(size=3))
            eta = SphereDensity(n + 1, ZonalKernel(axis, coeffs))
            lhs, rhs = cylinder_identity_check(eta, K, length, seed=int(i))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), \
                f"n={n} case {i}: {lhs} vs {rhs}"


def seg(a, b):
    return Polytope.construct([(F(a),), (F(b),)], 1)


def test_criterion_07_pipeline_refinement():
    t0 = time.monotonic()
    mu = DualAtomMeasure(1, (
        ((F(-1),), F(1)), ((F(0),), F(-2)), ((F(1),), F(1))))
    family = [
        PLConvexFunction.constant(seg(-1, 1), 0),
        PLConvexFunction.from_pieces(
            seg(-1, 1), (((F(1),), F(0)), ((F(-1),), F(0)))),
        PLConvexFunction.constant(seg(0, 2), 0),
    ]
    j_list = (2, 4, 8, 16)
    report = gw_pipeline(mu, "smooth", j_list, family)
    norm = float(mu.total_variation())
    sups = [row.sup_error for row in report.rows]
    assert all(b < a for a, b in zip(sups, sups[1:])), f"not monotone: {sups}"
    assert sups[-1] <= 0.05 * norm
    for row in report.rows:
        assert abs(row.moment_zero) <= 1e-8 * norm
        assert abs(row.moment_first) <= 1e-8 * norm
        assert row.support_radius <= 1.0 + 1.0 / row.j + 1.0 / (32 * row.j) \
            + 1e-12
        assert row.representation_residual <= 1e-5
    assert time.monotonic() - t0 < 300.0


def test_criterion_08_minkowski_solver():
    # closed forms first
    cube_mu = surface_area_measure(unit_cube())
    Q = minkowski_solve(cube_mu)
    shift = tuple(a - b for a, b in zip(unit_cube().centroid, Q.centroid))
    assert Q.translate(shift).hausdorff_distance(unit_cube()) < 1e-9

    w = 2.5
    angs = [math.pi / 2 + k * 2 * math.pi / 3 for k in range(3)]
    from epival.measures import SphereMeasure
    tri_mu = SphereMeasure(2, tuple(
        (np.array([math.cos(a), math.sin(a)]), w) for a in angs))
    T = minkowski_solve(tri_mu)
    sides = sorted(
        math.dist([float(x) for x in T.vertices[i]],
                  [float(x) for x in T.vertices[j]])
        for i, j in T.edge_list)
    assert len(sides) == 3
    assert all(abs(s - w) < 1e-9 for s in sides)

    def area_residual(P, Q, atol):
        got = surface_area_measure(Q)
        for nrm, wt in surface_area_measure(P).atoms:
            near = sum(wg for ng, wg in got.atoms
                       if np.linalg.norm(ng - nrm) < 1e-5)
            assert abs(near - wt) <= atol, f"facet {nrm}: {near} vs {wt}"

    gen2 = CaseGenerator(SEED, 2)
    for i in range(50):
        P = gen2.body(i)
        area_residual(P, minkowski_solve(surface_area_measure(P)), 1e-9)
    gen3 = CaseGenerator(SEED, 3)
    for i in range(20):
        P = gen3.body(i)
        area_residual(P, minkowski_solve(surface_area_measure(P)), 1e-6)


def test_criterion_09_hemisphere_conjugate_closed_forms():
    def b_star(x):
        return math.sqrt(1.0 + float(np.dot(x, x)))

    def fd_hessian(f, x, h=1e-4):
        n = len(x)
        H = np.zeros((n, n))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            H[i, i] = (f(x + ei) - 2 * f(x) + f(x - ei)) / h ** 2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                H[i, j] = H[j, i] = (
                    f(x + ei + ej) - f(x + ei - ej)
                    - f(x - ei + ej) + f(x - ei - ej)) / (4 * h ** 2)
        return H

    rng = np.random.default_rng(SEED)
    for n in (1, 2):
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=n)
            r2 = float(np.dot(x, x))
            # the closed form is the conjugate of the lower hemisphere
            y0 = x / math.sqrt(1.0 + r2)
            res = scipy.optimize.minimize(
                lambda y: -(float(np.dot(x, y)) + math.sqrt(
                    max(0.0, 1.0 - float(np.dot(y, y))))),
                0.99 * y0, method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-14})
            assert -res.fun == pytest.approx(b_star(x), abs=1e-6)
            want_det = (1.0 + r2) ** (-(n / 2.0 + 1.0))
            got_det = float(np.linalg.det(fd_hessian(b_star, x)))
            assert abs(got_det - want_det) <= 1e-6, \
                f"n={n} x={x}: {got_det} vs {want_det}"


def test_criterion_10_floor_map_continuity():
    for count, d in ((5, 2), (5, 3)):
        gen = CaseGenerator(SEED, d)
        for i in range(count):
            seq = gen.body_sequence(i, 13)
            limit = PLConvexFunction.floor_of(seq[0])
            dists = [epi_distance(PLConvexFunction.floor_of(Q), limit)
                     for Q in seq[1:]]
            for a, b in zip(dists, dists[1:]):
                assert b <= a + 1e-12, f"d={d} case {i}: not decreasing {dists}"
            assert dists[-1] < 1e-3, f"d={d} case {i}: final {dists[-1]}"
