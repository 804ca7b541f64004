"""Tests for the dual-density pipeline.

Frozen oracles, derived by hand before the implementation existed:

* mu2 = delta_{-1} - 2 delta_0 + delta_1 has total variation 4,
  zero mean and zero first moment, so pairing it with any affine
  function gives 0.  Its exact pairing with a conjugate is
  Z(u) = u*(-1) - 2 u*(0) + u*(1):
    - u = I_[-1,1]  (u* = |y|):          Z = 1 - 0 + 1 = 2
    - u = |x| + I_[-1,1] (u* = (|y|-1)+): Z = 0 - 0 + 0 = 0
    - u = I_[0,2]   (u* = max(0, 2y)):   Z = 0 - 0 + 2 = 2
* Mollified values converge at rate 1/j.  For u* = |y| the only error
  comes from the kink at 0 under the middle atom: the outer atoms sit
  where u* is affine over the whole bump support, so a symmetric bump
  integrates them exactly.  |value - 2| = 2 E_b / j with
  E_b = int b(t)|t| dt < 1, hence |value - 2| <= 2/j.  For u = I_[0,2]
  the kink of max(0, 2y) at 0 gives |value - 2| <= 4 E_b^+ / j <= 2/j.
* Grid integrals of a one-cell density against u* = |y|:
    cell [1/4, 1/2) value 2:   2 * ((1/2)^2 - (1/4)^2)/2 = 3/16
    cell [-1/8, 1/8) value 1:  2 * (1/8)^2 / 2          = 1/64
  and in two variables against u* = |y1| + |y2|:
    cell [0, 1/4)^2 value 1:           1/64
    cell [-1/8, 1/8) x [0, 1/4) val 1: 1/256 + 1/128 = 3/256
* Unit-circle discretization of the constant density 1 with four
  nodes: atoms at +-e1, +-e2, each of weight 2 pi / 4 = pi / 2.
* The sphere-side density at the south pole equals the plane value at
  the origin, with unit transfer factor.
"""

import importlib.util
import itertools
import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epival import bodies, dual
from epival.bodies import Polytope
from epival.cases import CaseGenerator
from epival.functions import PLConvexFunction
from epival.measures import SphereMeasure
from epival.minkowski import project_closed
from epival.valuations import ConstKernel, SphereDensity
from epival.dual import (
    DualAtomMeasure,
    GridDensity,
    balance_and_discretize,
    eval_dual,
    gw_pipeline,
    mollifier_kernel,
    mollify,
    plane_to_sphere_density,
    _PROFILES,
    _arc_masses,
    _circle_nodes,
    _closed_measure,
    _profile_constant,
    _sup_norm,
)

DATA = Path(__file__).resolve().parent.parent / "data"
PERFBENCH = DATA.parent / "perfbench"


def perfbench_workloads():
    """The benchmark's workload module, for the gw cases it runs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def seg(a, b):
    return Polytope.construct([(F(a),), (F(b),)], 1)


def interval_indicator(a, b):
    return PLConvexFunction.constant(seg(a, b), 0)


def abs_on_interval():
    return PLConvexFunction.from_pieces(
        seg(-1, 1), (((F(1),), F(0)), ((F(-1),), F(0))))


def family3():
    return [interval_indicator(-1, 1), abs_on_interval(),
            interval_indicator(0, 2)]


def mu_second():
    return DualAtomMeasure(1, (
        ((F(-1),), F(1)), ((F(0),), F(-2)), ((F(1),), F(1))))


def one_cell_grid(n, lo, h, index, value):
    shape = tuple(4 for _ in range(n))
    vals = np.zeros(shape)
    vals[index] = value
    return GridDensity(n, tuple(F(x) for x in lo), F(h), vals)


def dual_pairing(mu, u):
    conj = u.fenchel_conjugate()
    return float(sum(w * conj.evaluate(x) for x, w in mu.atoms))


class TestDualAtomMeasure:
    def test_total_variation(self):
        assert mu_second().total_variation() == 4

    def test_zero_sum_required(self):
        with pytest.raises(ValueError):
            DualAtomMeasure(1, (((F(0),), F(1)),))

    def test_zero_first_moment_required(self):
        with pytest.raises(ValueError):
            DualAtomMeasure(1, (((F(0),), F(1)), ((F(1),), F(-1))))

    def test_json_round_trip(self):
        mu = mu_second()
        data = json.loads(json.dumps(mu.to_dict()))
        back = DualAtomMeasure.from_dict(data)
        assert back.n == 1
        assert back.atoms == mu.atoms

    def test_box_contains_atoms(self):
        mu = mu_second()
        lo, hi = mu.box
        assert lo == (F(-1),) and hi == (F(1),)


class TestMollify:
    def test_kernel_normalized(self):
        for name, n in itertools.product(_PROFILES, (1, 2)):
            bump = mollifier_kernel(name, n)
            h = 1.0 / 256
            axes = np.arange(-1 + h / 2, 1, h)
            if n == 1:
                pts = axes[:, None]
            else:
                X, Y = np.meshgrid(axes, axes, indexing="ij")
                pts = np.stack([X.ravel(), Y.ravel()], axis=1)
            mass = float(np.sum(bump(pts))) * h ** n
            assert abs(mass - 1.0) < 1e-4

    def test_profile_constant_matches_quad(self):
        from scipy.integrate import quad

        # the quartic bump integrates exactly: 8/15 on [0, 1] and 1/6
        # against r, so its constants are 15/16 and 3/pi
        exact = {("quartic", 1): 15 / 16, ("quartic", 2): 3 / math.pi}
        for name, profile in _PROFILES.items():
            for n in (1, 2):
                val, _ = quad(lambda r: float(profile(np.array([r]))[0]) * r ** (n - 1),
                              0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
                ref = 1.0 / ((2.0 if n == 1 else 2.0 * math.pi) * val)
                got = _profile_constant(name, n)
                assert got == pytest.approx(ref, rel=1e-15, abs=0)
                if (name, n) in exact:
                    assert got == pytest.approx(exact[name, n], rel=1e-15, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mollify(mu_second(), "smooth", 0)
        with pytest.raises(ValueError):
            mollify(mu_second(), "no-such-bump", 2)

    def test_zero_measure(self):
        phi = mollify(DualAtomMeasure(1, ()), "smooth", 4)
        assert float(np.max(np.abs(phi.values))) == 0.0
        r0, r1 = phi.moment_residuals()
        assert r0 == 0.0 and r1 == 0.0

    def test_matches_direct_formula(self):
        j = 4
        phi = mollify(mu_second(), "smooth", j)
        bump = mollifier_kernel("smooth", 1)
        centers = phi.centers()[0]
        expect = np.zeros_like(centers)
        for x_m, w in ((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0)):
            expect += float(w) * j * bump(j * (x_m - centers)[:, None])
        scale = float(np.max(np.abs(expect)))
        assert float(np.max(np.abs(phi.values - expect))) < 2e-2 * scale

    def test_moment_residuals_enforced(self):
        for j in (2, 4, 16):
            phi = mollify(mu_second(), "smooth", j)
            r0, r1 = phi.moment_residuals()
            assert r0 <= 1e-12 * 4
            assert r1 <= 1e-12 * 4

    def test_support_radius(self):
        for j in (2, 4, 8, 16):
            phi = mollify(mu_second(), "smooth", j)
            assert phi.support_radius() <= 1 + 1.0 / j

    def test_boundary_layer_zero(self):
        phi = mollify(mu_second(), "smooth", 2)
        assert float(np.max(np.abs(phi.values[:2]))) == 0.0
        assert float(np.max(np.abs(phi.values[-2:]))) == 0.0

    def test_affine_annihilation(self):
        phi = mollify(mu_second(), "smooth", 4)
        x = phi.centers()[0]
        hn = float(phi.h)
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = rng.normal(size=2)
            val = float(np.sum(phi.values * (a * x + b))) * hn
            assert abs(val) <= 1e-8 * 4


class TestEvalDual:
    def test_one_cell_exact(self):
        phi = one_cell_grid(1, [0.0], F(1, 4), (1,), 2.0)
        got = eval_dual(phi, interval_indicator(-1, 1))
        assert got == pytest.approx(3.0 / 16, abs=1e-15)

    def test_kink_inside_cell(self):
        phi = one_cell_grid(1, [F(-5, 8)], F(1, 4), (2,), 1.0)
        got = eval_dual(phi, interval_indicator(-1, 1))
        assert got == pytest.approx(1.0 / 64, abs=1e-15)

    def test_point_domain_conjugates(self):
        phi = mollify(mu_second(), "smooth", 2)
        pin = PLConvexFunction.constant(Polytope.construct([(F(0),)], 1), 0)
        assert eval_dual(phi, pin) == 0.0
        shifted = PLConvexFunction.constant(
            Polytope.construct([(F(1),)], 1), 0)
        assert abs(eval_dual(phi, shifted)) <= 1e-10

    def test_second_difference_limits(self):
        last = {0: None, 2: None}
        for j in (2, 4, 8, 16):
            phi = mollify(mu_second(), "smooth", j)
            for u, z in ((interval_indicator(-1, 1), 2.0),
                         (abs_on_interval(), 0.0),
                         (interval_indicator(0, 2), 2.0)):
                err = abs(eval_dual(phi, u) - z)
                assert err <= 2.0 / j
            err2 = abs(eval_dual(phi, interval_indicator(-1, 1)) - 2.0)
            if last[2] is not None:
                assert err2 < last[2]
            last[2] = err2

    def test_two_dim_single_cell(self):
        square = Polytope.construct(
            [(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1))], 2)
        u = PLConvexFunction.constant(square, 0)
        phi = one_cell_grid(2, [0.0, 0.0], F(1, 4), (0, 0), 1.0)
        assert eval_dual(phi, u) == pytest.approx(1.0 / 64, abs=1e-15)

    def test_two_dim_kink_cell(self):
        square = Polytope.construct(
            [(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1))], 2)
        u = PLConvexFunction.constant(square, 0)
        phi = one_cell_grid(2, [F(-5, 8), 0.0], F(1, 4), (2, 0), 1.0)
        assert eval_dual(phi, u) == pytest.approx(3.0 / 256, abs=1e-15)

    def test_convexity_positivity(self):
        for j in (2, 8):
            phi = mollify(mu_second(), "smooth", j)
            for u in family3():
                assert eval_dual(phi, u) >= -1e-8


# The pairing as it was computed before it read its regions off
# epival.functions: a 1D upper envelope of lines, and in two variables a
# Sutherland-Hodgman clip of each cell per piece with a fan integral.


def ref_envelope_1d(pieces):
    # upper envelope of lines, each entry (slope, intercept, start); the
    # first segment starts at minus infinity
    best = {}
    for g, b in pieces:
        s = g[0]
        if s not in best or b > best[s]:
            best[s] = b
    env = []
    for s, c in sorted(best.items()):
        start = None
        while env:
            s0, c0, x0 = env[-1]
            start = (c0 - c) / (s - s0)
            if x0 is None or start > x0:
                break
            env.pop()
            start = None
        env.append((s, c, start))
    return env


def ref_integrate_envelope(env, a, b):
    total = F(0)
    idx = 0
    for i in range(len(env) - 1, -1, -1):
        if env[i][2] is None or env[i][2] < b:
            idx = i
            break
    hi = b
    while hi > a:
        s, c, start = env[idx]
        lo = a if (start is None or start < a) else start
        total += s * (hi * hi - lo * lo) / 2 + c * (hi - lo)
        hi = lo
        idx -= 1
    return total


def _integrate_envelope(env, a, b):
    """Exact integral over [a, b] of a piecewise linear function given as
    (start, slope, intercept) rows sorted by start, the first starting at
    or before a; the walk goes left from b, row by row."""
    total = F(0)
    idx = len(env) - 1
    hi = b
    while hi > a:
        start, s, c = env[idx]
        if start < hi:
            lo = start if start > a else a
            total += (hi - lo) * (s * (lo + hi) / 2 + c)
            hi = lo
        idx -= 1
    return total


def fraction_pairing_1d(phi, u):
    """eval_dual in one variable as it integrated each inhabited cell in
    Fraction arithmetic: the reference for the integer pairing."""
    conj = u.fenchel_conjugate()
    lo, h = phi.lo, phi.h
    span = Polytope.construct([lo, (lo[0] + len(phi.values) * h,)], 1)
    env = sorted((cell.vertices[0][0], g[0], b) for g, b, cell in
                 PLConvexFunction.from_pieces(span, conj.pieces).cells)
    total = 0.0
    a = lo[0]
    for v in phi.values:
        b = a + h
        if v != 0.0:
            total += float(v) * float(_integrate_envelope(env, a, b))
        a = b
    return total


def recorded_pairings(monkeypatch, runs):
    """The (grid, function) pairs eval_dual sees in the gw runs given as
    (measure, bump, levels, family, m)."""
    pairs = []
    pair = dual.eval_dual
    monkeypatch.setattr(dual, "eval_dual",
                        lambda phi, u: pairs.append((phi, u)) or pair(phi, u))
    for mu, bump, j_list, family, m in runs:
        gw_pipeline(mu, bump, j_list, family, m)
    monkeypatch.undo()
    return pairs


def test_grid_pairing_matches_fraction_pairing(monkeypatch):
    """Every pairing of the TestPipeline fixture and of the benchmark's
    warm-up (m = 64) gives the float the Fraction pairing gives, bit for
    bit."""
    workloads = perfbench_workloads()
    runs = [(mu_second(), "smooth", (2, 4, 8, 16), family3(), 64)]
    for case in workloads.gw_build(0, DATA.parent):
        atoms, bump, j, family = case.data
        runs.append((DualAtomMeasure(1, atoms), bump, (j,),
                     [PLConvexFunction.from_dict(d) for d in family], 64))
    pairs = recorded_pairings(monkeypatch, runs)
    assert len(pairs) == 4 * 3 + 2 * 3
    for phi, u in pairs:
        got, want = eval_dual(phi, u), fraction_pairing_1d(phi, u)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_gw_polygons_are_decided_in_floats(monkeypatch):
    """The four Minkowski polygons of one benchmark gw pass at seed 1
    (m = 4096) are built on the float path, each edge walk certified as
    its own hull: no chain, no exact fallback turn, and no exact vertices
    made."""
    workloads = perfbench_workloads()
    turns, chains, polygons = [], [], []
    exact, chain, solve = bodies._exact_left, bodies._half_chain, dual.minkowski_solve
    monkeypatch.setattr(bodies, "_exact_left",
                        lambda *a: turns.append(a) or exact(*a))
    monkeypatch.setattr(bodies, "_half_chain",
                        lambda *a, **k: chains.append(a) or chain(*a, **k))

    def solve_counting_chains(mu):
        # the exact bodies of the pass run the chain too; count the solve's
        before = len(chains)
        polygons.append((solve(mu), len(chains) - before))
        return polygons[-1][0]

    monkeypatch.setattr(dual, "minkowski_solve", solve_counting_chains)
    for case in workloads.gw_build(1, DATA.parent):
        workloads._gw_report(case, workloads.GW_SPHERE_ATOMS)
    assert len(polygons) == 4
    for P, chain_calls in polygons:
        assert "vertices" not in P.__dict__ and "halfspaces" not in P.__dict__
        assert len(P.boundary_cycle) > 1000
        assert chain_calls == 0
    assert turns == []


def ref_clip_polygon(poly, a0, a1, rhs):
    # keep the side a0 x + a1 y >= rhs; exact crossings
    out = []
    m = len(poly)
    for i in range(m):
        P = poly[i]
        Q = poly[(i + 1) % m]
        fP = a0 * P[0] + a1 * P[1] - rhs
        fQ = a0 * Q[0] + a1 * Q[1] - rhs
        if fP >= 0:
            out.append(P)
        if (fP > 0 > fQ) or (fP < 0 < fQ):
            t = fP / (fP - fQ)
            out.append((P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1])))
    return out


def ref_affine_over_polygon(g, b, poly):
    if len(poly) < 3:
        return F(0)
    p0 = poly[0]
    total = F(0)
    for i in range(1, len(poly) - 1):
        p1, p2 = poly[i], poly[i + 1]
        cross = (p1[0] - p0[0]) * (p2[1] - p0[1]) - \
                (p1[1] - p0[1]) * (p2[0] - p0[0])
        cx = (p0[0] + p1[0] + p2[0]) / 3
        cy = (p0[1] + p1[1] + p2[1]) / 3
        total += cross / 2 * (g[0] * cx + g[1] * cy + b)
    return total


def ref_maxaffine_over_cell(pieces, corners):
    total = F(0)
    for i, (gi, bi) in enumerate(pieces):
        poly = corners
        for k, (gk, bk) in enumerate(pieces):
            if k == i:
                continue
            poly = ref_clip_polygon(poly, gi[0] - gk[0], gi[1] - gk[1], bk - bi)
            if len(poly) < 3:
                break
        total += ref_affine_over_polygon(gi, bi, poly)
    return total


def ref_eval_dual(phi, u):
    conj = u.fenchel_conjugate()
    total = 0.0
    if phi.n == 1:
        env = ref_envelope_1d(conj.pieces)
        for k, v in enumerate(phi.values):
            if v != 0.0:
                a = phi.lo[0] + k * phi.h
                total += float(v) * float(ref_integrate_envelope(env, a, a + phi.h))
        return total
    pieces = sorted(set(conj.pieces))
    it = np.nditer(phi.values, flags=["multi_index"])
    for v in it:
        if v == 0.0:
            continue
        kx, ky = it.multi_index
        x0 = phi.lo[0] + kx * phi.h
        y0 = phi.lo[1] + ky * phi.h
        x1, y1 = x0 + phi.h, y0 + phi.h
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        total += float(v) * float(ref_maxaffine_over_cell(pieces, corners))
    return total


def lattice_parabola(n, k):
    """|x|^2 interpolated on the lattice {-k/2, ..., k/2}^n: u* has a kink
    between each pair of neighbouring lattice points."""
    lattice = itertools.product(range(-k, k + 1), repeat=n)
    return PLConvexFunction.lower_envelope(
        [tuple(F(x, 2) for x in p) + (sum(F(x, 2) ** 2 for x in p),) for p in lattice])


rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4]))


@st.composite
def pairing_cases(draw, n):
    """A function u and a grid.  u comes from CaseGenerator, interpolates
    |x|^2 on a lattice, or is given by pieces on a point, a segment or a
    polygon.  The grid covers every kink of u*, straddles one, starts
    beyond the last, or lies anywhere; the kinks of u* pass through the
    gradients of u's pieces, so those serve as the anchors."""
    kind = draw(st.sampled_from(["case", "parabola", "point", "segment", "polygon"]))
    if kind == "case":
        u = CaseGenerator(7, n).pl_function(draw(st.integers(0, 7)))
    elif kind == "parabola":
        u = lattice_parabola(n, draw(st.sampled_from([2, 3, 4] if n == 1 else [1, 2])))
    else:
        count = {"point": 1, "segment": 2, "polygon": n + 1}[kind]
        pts = draw(st.lists(st.tuples(*[rationals] * n),
                            min_size=count, max_size=count, unique=True))
        pieces = draw(st.lists(st.tuples(st.tuples(*[rationals] * n), rationals),
                               min_size=1, max_size=4))
        u = PLConvexFunction.from_pieces(Polytope.construct(pts, n), pieces)
    grads = [g for g, _ in u.pieces]
    first = [min(g[a] for g in grads) for a in range(n)]
    last = [max(g[a] for g in grads) for a in range(n)]
    size = draw(st.integers(1, 12 if n == 1 else 4))
    h = draw(st.sampled_from([F(1, 8), F(1, 3), F(1, 2), F(1)]))
    where = draw(st.sampled_from(["kinks", "kink", "beyond", "anywhere"]))
    if where == "kinks":
        # half a unit of margin on each side
        h = (max(y - x for x, y in zip(first, last)) + 1) / size
        lo = tuple(x - F(1, 2) for x in first)
    elif where == "kink":
        frac = draw(st.sampled_from([0, F(1, 3), F(1, 2)]))
        lo = tuple(x - (draw(st.integers(0, size - 1)) + frac) * h
                   for x in draw(st.sampled_from(grads)))
    elif where == "beyond":
        lo = tuple(x + 1 for x in last)
    else:
        lo = draw(st.tuples(*[rationals] * n))
    values = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-4, 4), st.floats(1 / 4, 4)),
        min_size=size ** n, max_size=size ** n))
    return u, GridDensity(n, lo, h, np.reshape(values, (size,) * n))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(pairing_cases))
@example((lattice_parabola(1, 4), GridDensity(1, (F(-3),), F(1, 3), np.linspace(-1, 2, 18))))
@example((lattice_parabola(2, 2), GridDensity(2, (F(-2), F(-3, 2)), F(2, 3), np.ones((5, 5)))))
def test_eval_dual_matches_reference(case):
    u, phi = case
    assert eval_dual(phi, u) == ref_eval_dual(phi, u)


class TestSphereTransfer:
    def test_south_pole_value(self):
        phi = one_cell_grid(1, [F(-1, 8)], F(1, 16), (2,), 5.0)
        f = plane_to_sphere_density(phi)
        assert f(np.array([0.0, -1.0])) == pytest.approx(5.0, rel=1e-12)

    def test_zero_grid(self):
        phi = GridDensity(1, (F(0),), F(1, 8), np.zeros(4))
        f = plane_to_sphere_density(phi)
        for t in np.linspace(0, 2 * math.pi, 17):
            assert f(np.array([math.cos(t), math.sin(t)])) == 0.0

    def test_support_margin(self):
        phi = mollify(mu_second(), "smooth", 4)
        f = plane_to_sphere_density(phi)
        assert f.margin is not None and f.margin > 0
        near = np.array([math.sqrt(1 - 1e-8), -1e-4])
        assert f(near) == 0.0

    def test_matches_grid_integral(self):
        # same integral computed through the sphere parametrization and
        # through the grid; agreement pins down the transfer exponent.
        # cells are split at the conjugate's kinks so every Gauss panel
        # sees a smooth integrand
        kinks = (-1.0, 0.0, 1.0)
        for u in (interval_indicator(-1, 1), abs_on_interval()):
            phi = mollify(mu_second(), "smooth", 4)
            f = plane_to_sphere_density(phi)
            verts = u.body_of().float_vertices
            nodes, wts = np.polynomial.legendre.leggauss(24)
            total = 0.0
            lo0 = float(phi.lo[0])
            h = float(phi.h)
            for k in range(phi.values.shape[0]):
                if phi.values[k] == 0.0:
                    continue
                ya, yb = lo0 + k * h, lo0 + (k + 1) * h
                cuts = [ya] + [c for c in kinks if ya < c < yb] + [yb]
                for p in range(len(cuts) - 1):
                    a, b = math.atan(cuts[p]), math.atan(cuts[p + 1])
                    ang = 0.5 * (a + b) + 0.5 * (b - a) * nodes
                    for t, w in zip(ang, wts):
                        N = np.array([math.sin(t), -math.cos(t)])
                        h_val = float(np.max(verts @ N))
                        total += 0.5 * (b - a) * w * f(N) * h_val
            want = eval_dual(phi, u)
            assert abs(total - want) <= 1e-6 * max(1.0, abs(want))


class TestBalanceAndDiscretize:
    def test_four_axis_atoms(self):
        f = SphereDensity(2, ConstKernel(0.0), None)
        mu = balance_and_discretize(f, 4)
        pts = sorted(tuple(np.round(n, 12)) for n, _ in mu.atoms)
        assert pts == [(-1.0, -0.0), (-0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
        for _, w in mu.atoms:
            assert w == pytest.approx(math.pi / 2, rel=1e-12)

    def test_balanced_and_positive(self):
        phi = mollify(mu_second(), "smooth", 2)
        f = plane_to_sphere_density(phi)
        mu = balance_and_discretize(f, 512)
        assert mu.closedness_residual() <= 1e-12
        assert all(w > 0 for _, w in mu.atoms)

    def test_too_few_atoms(self):
        f = SphereDensity(2, ConstKernel(0.0), None)
        with pytest.raises(ValueError):
            balance_and_discretize(f, 2)

    def test_quadrature_consistency(self):
        phi = mollify(mu_second(), "smooth", 2)
        f = plane_to_sphere_density(phi)

        def eta(N):
            return (N[0] + 0.3) ** 2

        def total(m):
            mu = balance_and_discretize(f, m)
            return sum(w * eta(n) for n, w in mu.atoms)

        ref = total(1 << 16)
        errs = [abs(total(m) - ref) for m in (64, 256, 1024)]
        assert errs[2] < errs[0]
        assert errs[2] <= 1e-3 * max(1.0, abs(ref))

    def test_three_dim_rule(self):
        f = SphereDensity(3, ConstKernel(0.0), None)
        mu = balance_and_discretize(f, 60)
        assert len(mu.atoms) <= 60
        assert mu.total() == pytest.approx(4 * math.pi, rel=1e-9)
        assert mu.closedness_residual() <= 1e-12


@pytest.fixture(scope="module")
def pipeline_report():
    return gw_pipeline(mu_second(), "smooth", (2, 4, 8, 16), family3())


class TestPipeline:
    def test_sup_error_shrinks(self, pipeline_report):
        errs = [row.sup_error for row in pipeline_report.rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.05 * 4

    def test_moment_columns(self, pipeline_report):
        for row in pipeline_report.rows:
            assert row.moment_zero <= 1e-8 * 4
            assert row.moment_first <= 1e-8 * 4

    def test_support_radius_column(self, pipeline_report):
        for row in pipeline_report.rows:
            h = 1.0 / (32 * row.j)
            assert row.support_radius <= 1 + 1.0 / row.j + h

    def test_representation_residual(self, pipeline_report):
        for row in pipeline_report.rows:
            assert row.representation_residual <= 1e-5

    def test_csv_shape(self, pipeline_report):
        lines = pipeline_report.to_csv().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("j,")

    def test_json_artifacts(self, pipeline_report):
        data = json.loads(pipeline_report.to_json())
        assert [row["j"] for row in data["rows"]] == [2, 4, 8, 16]
        for art in data["bodies"].values():
            assert art["ball_gap"] <= 1e-6 * art["ball_radius"]

    def test_zero_measure_rows(self):
        rep = gw_pipeline(DualAtomMeasure(1, ()), "smooth", (2, 4),
                          family3(), m=256)
        for row in rep.rows:
            assert abs(row.sup_error) <= 1e-9
            assert row.representation_residual <= 1e-9

    def test_two_dim_not_wired(self):
        mu = DualAtomMeasure(2, (
            ((F(-1), F(0)), F(1)), ((F(1), F(0)), F(1)),
            ((F(0), F(0)), F(-2))))
        with pytest.raises(ValueError):
            gw_pipeline(mu, "smooth", (2,), family3())

    def test_exact_pairing_oracle(self):
        mu = mu_second()
        zs = [dual_pairing(mu, u) for u in family3()]
        assert zs == [2.0, 0.0, 2.0]

    def test_shipped_input_is_the_fixture(self):
        """data/gw_input.json, the refinement study's input, holds the
        measure and family this class runs on."""
        payload = json.loads((DATA / "gw_input.json").read_text())
        assert set(payload) == {"measure", "family", "bump"}
        assert DualAtomMeasure.from_dict(payload["measure"]) == mu_second()
        assert [PLConvexFunction.from_dict(d) for d in payload["family"]] == family3()
        assert payload["bump"] == "smooth"


# ---------------------------------------------------------------------------
# the shared builders against the copies they replaced


def ref_grid_branch(f, m):
    """balance_and_discretize on a grid transfer density, as it was
    written out before the closed measure had one builder."""
    N = _circle_nodes(m)
    w = 2.0 * math.pi / m * (1.0 + _sup_norm(f)) + _arc_masses(f.kernel.grid, m)
    w = project_closed(N, w)
    if np.any(w <= 0):
        raise ValueError("atom count too small to balance the density")
    return SphereMeasure(2, N, w)


def ref_inline_ball(m, sup):
    """The reference ball as gw_pipeline built it inline."""
    nodes = _circle_nodes(m)
    w_ball = project_closed(nodes, np.full(m, 2.0 * math.pi / m * (1.0 + sup)))
    assert np.all(w_ball > 0)
    return SphereMeasure(2, nodes, w_ball)


def assert_same_atoms(a, b):
    assert (a.dim, len(a.atoms)) == (b.dim, len(b.atoms))
    for (na, wa), (nb, wb) in zip(a.atoms, b.atoms):
        assert na.tobytes() == nb.tobytes()
        assert np.float64(wa).tobytes() == np.float64(wb).tobytes()


@pytest.mark.parametrize("m", [64, 4096])
@pytest.mark.parametrize("j", [2, 4])
def test_closed_measures_match_references(j, m):
    f = plane_to_sphere_density(mollify(mu_second(), "smooth", j))
    assert_same_atoms(balance_and_discretize(f, m), ref_grid_branch(f, m))
    sup = _sup_norm(f)
    ball = _closed_measure(_circle_nodes(m), np.full(m, 2.0 * math.pi / m * (1.0 + sup)))
    assert_same_atoms(ball, ref_inline_ball(m, sup))


def ref_points(phi):
    axes = phi.centers()
    if phi.n == 1:
        return axes[0][:, None]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def ref_radii(phi):
    """support_radius, outer_radius and the transfer kernel's sup_bound,
    each with its own mask over the cells."""
    mask = phi.values.ravel() != 0.0
    if not mask.any():
        return 0.0, 0.0, 0.0
    pts = ref_points(phi)[mask]
    vals = np.abs(phi.values.ravel()[mask])
    far = np.linalg.norm(np.abs(pts) + 0.5 * float(phi.h), axis=1)
    return (float(np.max(np.linalg.norm(pts, axis=1))), float(np.max(far)),
            float(np.max(vals * (1.0 + far ** 2) ** (phi.n / 2 + 1))))


def ref_moment_correction(phi):
    """mollify's moment correction with the moments written out, applied
    to a copy of the raw samples."""
    pts = ref_points(phi)
    vals = phi.values.ravel().copy()
    mask = vals != 0.0
    if mask.any():
        hn = float(phi.h) ** phi.n
        m0 = float(np.sum(vals)) * hn
        m1 = (vals[:, None] * pts).sum(axis=0) * hn
        C = np.vstack([np.ones(mask.sum()), pts[mask].T]) * hn
        resid = np.concatenate([[m0], m1])
        vals[mask] += -C.T @ np.linalg.solve(C @ C.T, resid)
    return vals.reshape(phi.values.shape)


def raw_mollified(mu, bump, j):
    """mollify with the moment correction switched off: the same grid,
    the raw kernel samples."""
    kernel = mollifier_kernel(bump, mu.n)
    grid = mollify(mu, bump, j)
    pts = ref_points(grid)
    vals = np.zeros(len(pts))
    for x, w in mu.atoms:
        center = np.array([float(c) for c in x])
        vals += float(w) * j ** mu.n * kernel(j * (center - pts))
    return GridDensity(grid.n, grid.lo, grid.h, vals.reshape(grid.values.shape))


def mu_plane():
    return DualAtomMeasure(2, (
        ((F(-1), F(0)), F(1)), ((F(1), F(0)), F(1)), ((F(0), F(0)), F(-2)),
        ((F(0), F(1, 2)), F(1, 2)), ((F(0), F(-1, 2)), F(1, 2)),
        ((F(0), F(0)), F(-1))))


@pytest.mark.parametrize("mu", [mu_second(), mu_plane(), DualAtomMeasure(1, ())])
@pytest.mark.parametrize("bump", sorted(_PROFILES))
def test_inhabited_cells_and_moments_keep_their_bits(mu, bump):
    for j in (1, 2, 4):
        raw = raw_mollified(mu, bump, j)
        phi = mollify(mu, bump, j)
        assert phi.values.tobytes() == ref_moment_correction(raw).tobytes()
        assert phi._points().tobytes() == ref_points(phi).tobytes()
        for grid in (raw, phi):
            kernel = plane_to_sphere_density(grid).kernel
            got = (grid.support_radius(), grid.outer_radius(), kernel.sup_bound())
            assert got == ref_radii(grid)
