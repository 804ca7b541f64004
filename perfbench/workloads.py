"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of cases (set-up, untimed)
and runs one case at a time through epival's public entry points, checking
its result at the tolerance the acceptance suite uses (timed).  Case data
is plain tuples of rationals, so every pass rebuilds its bodies and
functions from scratch and no cached property survives from one pass to
the next.

Seeds and cost.  Exact rational work varies several-fold between fresh
``CaseGenerator`` draws (eight R^3 split pairs took 14 s at one seed and
30 s at another), which would drown any regression bound.  So the case
structure is the acceptance suite's own family (``CaseGenerator`` at seed
7), and ``--seed`` picks, per case, the parts that leave the amount of
work unchanged: a signed permutation of the coordinates for lattice
bodies (graph axis kept) and for Minkowski bodies, fresh rational probe
points for the conjugate check, and a fresh balanced atom measure for gw.
The Steiner cases are the acceptance suite's own, Monte Carlo streams
included, so their 3-sigma gates hold.  Rational translations were tried
and dropped: they lengthen every coordinate and slowed the exact path by
up to a third, by an amount that depends on the seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from epival import bodies, cases, dual, functions, measures, minkowski, \
    report, valuations

FAMILY_SEED = 7  # the acceptance suite's seed

Polytope = bodies.Polytope
PL = functions.PLConvexFunction


class CheckFailed(Exception):
    """A case's result broke its identity or tolerance."""


@dataclass(frozen=True)
class Case:
    name: str
    data: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], list[Case]]
    run: Callable[[Case, dict], dict]
    warm: Callable[[Path], None]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _signed_permutation(seed: int, d: int, key: tuple[int, ...],
                        permuted: int):
    """A seeded signed permutation of the first `permuted` coordinates of
    R^d, an exact symmetry.  Lattice bodies keep their last (graph) axis
    out of it so that floors stay floors."""
    rng = _rng(seed, *key)
    perm = [int(k) for k in rng.permutation(permuted)] \
        + list(range(permuted, d))
    signs = [int(s) for s in rng.choice((-1, 1), size=permuted)] \
        + [1] * (d - permuted)

    def apply(points):
        return tuple(tuple(signs[k] * p[perm[k]] for k in range(d))
                     for p in points)
    return apply


def serialize(output: dict) -> str:
    return report.dumps_canonical(output)


# ---------------------------------------------------------------------------
# lattice: exact floor functions of split pairs

LATTICE_FAMILY = ((2, (1, 2)), (1, range(12)))  # (n, split pair indices)
LATTICE_PROBES = 6
VALUATION_TOL = 1e-9
_STREAM_SYMMETRY = 101


def _lattice_densities(n: int):
    zeta = valuations.PlaneDensity(n, valuations.BumpKernel((0.3,) * n, 1.2),
                                   2.0)
    eta = valuations.zeta_to_eta(zeta)
    return (
        lambda u: valuations.eval_gradient_valuation(u, zeta),
        lambda u: (0.0 if u.is_empty else
                   valuations.eval_sphere_valuation(u.body_of(), eta)),
    )


def lattice_build(seed: int, root: Path) -> list[Case]:
    out = []
    for n, indices in LATTICE_FAMILY:
        d = n + 1
        family = cases.CaseGenerator(FAMILY_SEED, d)
        probes = cases.CaseGenerator(seed, n)
        for i in indices:
            K, L = family.split_pair(i)
            move = _signed_permutation(seed, d, (_STREAM_SYMMETRY, d, i), n)
            out.append(Case(f"lattice/n{n}/{i}", (
                n, move(K.vertices), move(L.vertices),
                tuple(probes.rational_points(i, LATTICE_PROBES)))))
    return out


def lattice_run(case: Case, state: dict) -> dict:
    n, vk, vl, probes = case.data
    K = Polytope.construct(vk, n + 1)
    L = Polytope.construct(vl, n + 1)
    u, v = PL.floor_of(K), PL.floor_of(L)
    top = u.pointwise_max(v)
    if PL.floor_of(K.intersect(L)) != top:
        raise CheckFailed("floor of the intersection is not the maximum")
    residuals = []
    for Z in _lattice_densities(n):
        res = valuations.valuation_residual(Z, u, v)
        if not isinstance(res, float) or not abs(res) <= VALUATION_TOL:
            raise CheckFailed(f"valuation residual {res!r}")
        residuals.append(res)
    conj = u.fenchel_conjugate()
    values = []
    for y in probes:
        got = conj.evaluate(y)
        if got != K.support(tuple(y) + (-1,)):
            raise CheckFailed(f"conjugate differs from support at {y}")
        values.append(got)
    return {"max": top.to_dict(), "residuals": residuals,
            "conjugate": values}


def lattice_warm(root: Path) -> None:
    for n in (1, 2):
        cube = Polytope.construct(
            list(itertools.product((0, 1), repeat=n + 1)), n + 1)
        lo = cube.clip((0,) * n + (1,), Fraction(2, 3))
        hi = cube.clip((0,) * n + (-1,), Fraction(-1, 3))
        lattice_run(Case("warm", (n, lo.vertices, hi.vertices,
                                  ((Fraction(1, 2),) * n,))), {})


# ---------------------------------------------------------------------------
# gw: the atomic-measure pipeline at m = 4096

GW_LEVELS = (2, 4)
GW_SPHERE_ATOMS = 1 << 12  # atoms of each discretized sphere measure
GW_ATOMS = 4
GW_MIN_GAP = Fraction(3, 8)
_STREAM_ATOMS = 102


def balanced_atoms(seed: int, count: int = GW_ATOMS):
    """Atoms at 12-bit rationals in [-5/4, 5/4], at least GW_MIN_GAP
    apart; free weights are 12-bit rationals of size 1/2..3/2 and the two
    outermost weights are solved exactly for zero mass and first moment."""
    rng = _rng(seed, _STREAM_ATOMS)
    while True:
        xs = sorted(cases.snap(x) for x in rng.uniform(-1.25, 1.25, count))
        if all(b - a >= GW_MIN_GAP for a, b in zip(xs, xs[1:])):
            break
    free = [cases.snap(s * w) for s, w in zip(
        rng.choice((-1, 1), size=count - 2),
        rng.uniform(0.5, 1.5, size=count - 2))]
    inner = xs[1:-1]
    m0 = sum(free, Fraction(0))
    m1 = sum((w * x for w, x in zip(free, inner)), Fraction(0))
    a, b = xs[0], xs[-1]
    wb = (a * m0 - m1) / (b - a)
    wa = -m0 - wb
    weights = [wa] + free + [wb]
    return tuple(((x,), w) for x, w in zip(xs, weights))


def gw_build(seed: int, root: Path) -> list[Case]:
    with open(root / "data" / "gw_input.json") as fh:
        data = json.load(fh)
    atoms = balanced_atoms(seed)
    return [Case(f"gw/j{j}", (atoms, data["bump"], j, data["family"]))
            for j in GW_LEVELS]


def _gw_report(case: Case, m: int):
    atoms, bump, j, family = case.data
    mu = dual.DualAtomMeasure(1, atoms)
    fam = [PL.from_dict(d) for d in family]
    return mu, dual.gw_pipeline(mu, bump, (j,), fam, m)


def gw_run(case: Case, state: dict) -> dict:
    atoms, _, j, _ = case.data
    mu, rep = _gw_report(case, GW_SPHERE_ATOMS)
    row = rep.rows[0]
    norm = float(mu.total_variation())
    radius = max(abs(float(x[0])) for x, _ in atoms)
    if not (abs(row.moment_zero) <= 1e-8 * norm
            and abs(row.moment_first) <= 1e-8 * norm):
        raise CheckFailed(f"moments {row.moment_zero}, {row.moment_first}")
    if not row.representation_residual <= 1e-5:
        raise CheckFailed(
            f"representation residual {row.representation_residual}")
    if not row.support_radius <= radius + 1.0 / j + 1.0 / (32 * j) + 1e-12:
        raise CheckFailed(f"support radius {row.support_radius}")
    key = ("sup_error", atoms)
    if j != GW_LEVELS[0]:
        prev = state.get(key)
        if prev is None or not row.sup_error < prev:
            raise CheckFailed(f"sup error {row.sup_error} after {prev}")
    state[key] = row.sup_error
    return {"row": vars(row), "bodies": rep.bodies}


def gw_warm(root: Path) -> None:
    for case in gw_build(0, root):
        _gw_report(case, 64)


# ---------------------------------------------------------------------------
# numerics: Steiner formulas against Monte Carlo, 3D Minkowski round trips

STEINER_T = (0.25, 0.5, 1.0, 2.0)
MC_SAMPLES = 60_000
MC_SIGMA = 3.0
STEINER_BODIES = ((2, 3), (3, 3))      # (dimension, body index)
STEINER_FUNCTIONS = ((1, 3),)         # (variables, function index)
MINKOWSKI_BODIES = range(8)
MINKOWSKI_TOL = 1e-6
SUPPORT_TOL = 1e-9


def _mc_seed(stream: int, i: int) -> int:
    ss = np.random.SeedSequence(FAMILY_SEED, spawn_key=(stream, i))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (1 << 62))


def numerics_build(seed: int, root: Path) -> list[Case]:
    """Steiner cases are the acceptance suite's own, Monte Carlo streams
    included; the seed moves the Minkowski bodies."""
    out = []
    for d, i in STEINER_BODIES:
        P = cases.CaseGenerator(FAMILY_SEED, d).body(i)
        out.append(Case(f"steiner/body{d}/{i}", (
            "body", d, P.vertices, _mc_seed(20 + d, i))))
    for n, i in STEINER_FUNCTIONS:
        u = cases.CaseGenerator(FAMILY_SEED, n).pl_function(i)
        bound = max((abs(g) for p in u.pieces for g in p[0]),
                    default=Fraction(0)) + 1
        out.append(Case(f"steiner/fn{n}/{i}", (
            "function", n, u.to_dict(), bound, _mc_seed(30 + n, i))))
    family = cases.CaseGenerator(FAMILY_SEED, 3)
    for i in MINKOWSKI_BODIES:
        move = _signed_permutation(seed, 3, (_STREAM_SYMMETRY, 30, i), 3)
        out.append(Case(f"minkowski3/{i}", (
            "minkowski", 3, move(family.body(i).vertices))))
    return out


def _mc_gate(want: float, est: float, se: float, what: str) -> None:
    if not abs(est - want) <= MC_SIGMA * se + 1e-12:
        raise CheckFailed(f"{what}: exact {want}, estimate {est} +- {se}")


def numerics_run(case: Case, state: dict, samples: int = MC_SAMPLES) -> dict:
    kind = case.data[0]
    if kind == "body":
        _, d, verts, seed = case.data
        P = Polytope.construct(verts, d)
        rows = []
        for t in STEINER_T:
            want = measures.parallel_volume(P, t)
            est, se = measures.local_parallel_volume_mc(P, None, t, samples,
                                                        seed)
            _mc_gate(want, est, se, f"parallel volume t={t}")
            rows.append([t, want, est, se])
        # the vertex normal cones tile the sphere, so the order-0 support
        # measure integrates nu_1^2 to its total over d by quadrature
        moment = measures.integrate_support_measure(
            P, 0, lambda x, nu: float(nu[0] ** 2))
        total = measures.support_measure(P, 0).total
        if not abs(moment - total / d) <= SUPPORT_TOL:
            raise CheckFailed(f"support measure moment {moment} vs {total / d}")
        return {"steiner": rows, "support_moment": moment}
    if kind == "function":
        _, n, data, bound, seed = case.data
        u = PL.from_dict(data)
        rows = []
        for t in STEINER_T:
            want = float(measures.hessian_steiner(u, Fraction(t), bound))
            est, se = measures.p_t_volume_mc(u, None, t, samples, seed,
                                             gradient_bound=float(bound))
            _mc_gate(want, est, se, f"flow-out volume t={t}")
            rows.append([t, want, est, se])
        return {"steiner": rows}
    _, d, verts = case.data
    P = Polytope.construct(verts, d)
    mu = measures.surface_area_measure(P)
    Q = minkowski.minkowski_solve(mu)
    got = measures.surface_area_measure(Q)
    residuals = []
    for nrm, wt in mu.atoms:
        near = sum(wg for ng, wg in got.atoms
                   if np.linalg.norm(ng - nrm) < 1e-5)
        if not abs(near - wt) <= MINKOWSKI_TOL:
            raise CheckFailed(f"facet {nrm}: area {near} vs {wt}")
        residuals.append(near - wt)
    return {"facets": len(mu.atoms), "vertices": len(Q.vertices),
            "area_residuals": residuals}


def numerics_warm(root: Path) -> None:
    square = ((0, 0), (1, 0), (0, 1), (1, 1))
    cube = tuple(itertools.product((0, 1), repeat=3))
    vee = {"n": 1, "domain": {"dim": 1, "vertices": [["-1"], ["1"]]},
           "pieces": [{"a": ["1"], "b": "0"}, {"a": ["-1"], "b": "0"}]}
    numerics_run(Case("warm", ("body", 2, square, 0)), {}, samples=1000)
    numerics_run(Case("warm", ("function", 1, vee, Fraction(2), 0)), {},
                 samples=1000)
    numerics_run(Case("warm", ("minkowski", 3, cube)), {})


WORKLOADS = {
    "lattice": Workload("lattice", lattice_build, lattice_run, lattice_warm),
    "gw": Workload("gw", gw_build, gw_run, gw_warm),
    "numerics": Workload("numerics", numerics_build, numerics_run,
                         numerics_warm),
}
