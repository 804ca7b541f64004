"""Reconstruction oracles: hand-built measures with known bodies, then
round trips through the surface area measure of random polytopes.

    square side s : atoms (+-e1, s), (+-e2, s)
    equilateral triangle, edge w : three normals 120 degrees apart,
        equal weights w
    cube : six facet atoms of weight 1
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epival import minkowski
from epival.bodies import GeometryError, Polytope
from epival.cases import CaseGenerator
from epival.dual import (DualAtomMeasure, _closed_measure, balance_and_discretize,
                         mollify, plane_to_sphere_density)
from epival.linalg import primitive
from epival.measures import (MIN_NORMAL_LENGTH, SphereMeasure,
                             surface_area_measure)
from epival.minkowski import (
    DIRECTION_TOL,
    DegenerateNormals,
    UnbalancedInput,
    _areas_and_jacobian,
    _clip_chain,
    _edge_walk,
    _facet_frames,
    _facet_polygons_at,
    _merged_atoms,
    minkowski_solve,
)


def atoms_measure(dim, pairs):
    return SphereMeasure(dim, np.array([n for n, _ in pairs], dtype=float).reshape(-1, dim),
                         np.array([w for _, w in pairs], dtype=float))


def aligned_hausdorff(P, Q):
    shift = tuple(a - b for a, b in zip(Q.centroid, P.centroid))
    return P.translate(shift).hausdorff_distance(Q)


def random_polytope(rng, d, npts=10):
    while True:
        pts = [tuple(F(int(round(x * 8)), 8) for x in rng.normal(size=d))
               for _ in range(npts)]
        P = Polytope.construct(pts, d)
        if P.intrinsic_dim == d:
            return P


class TestDim2:
    def test_unit_square(self):
        mu = atoms_measure(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
        P = minkowski_solve(mu)
        want = Polytope.construct([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
        assert aligned_hausdorff(P, want) < 1e-12

    def test_equilateral_triangle(self):
        w = 2.5
        angs = [math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3]
        mu = atoms_measure(2, [((math.cos(a), math.sin(a)), w) for a in angs])
        P = minkowski_solve(mu)
        lengths = sorted(
            math.dist([float(x) for x in P.vertices[i]],
                      [float(x) for x in P.vertices[j]])
            for i, j in P.edge_list)
        assert len(lengths) == 3
        for ell in lengths:
            assert ell == pytest.approx(w, abs=1e-9)

    def test_round_trip_many(self):
        rng = np.random.default_rng(90)
        for _ in range(50):
            P = random_polytope(rng, 2)
            Q = minkowski_solve(surface_area_measure(P))
            assert aligned_hausdorff(Q, P) < 1e-9

    def test_duplicate_normals_merged(self):
        mu = atoms_measure(2, [((1, 0), 0.5), ((1, 0), 0.5), ((-1, 0), 1),
                               ((0, 1), 1), ((0, -1), 1)])
        P = minkowski_solve(mu)
        assert float(P.volume) == pytest.approx(1.0, abs=1e-12)

    def test_unbalanced_raises(self):
        mu = atoms_measure(2, [((1, 0), 2), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
        with pytest.raises(UnbalancedInput):
            minkowski_solve(mu)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateNormals):
            minkowski_solve(atoms_measure(2, [((1, 0), 1), ((-1, 0), 1)]))
        with pytest.raises(DegenerateNormals):
            minkowski_solve(atoms_measure(
                2, [((1, 0), -1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]))


# an atom: angle, log10 of its weight, and whether it has a twin 1e-7 rad on
atom = st.tuples(st.floats(0.0, 2 * math.pi), st.floats(-6.0, 3.0),
                 st.booleans())


def closed_measure(draw):
    """The atoms drawn, each with its twin if asked, and one atom against
    the resultant; None if the resultant vanishes."""
    pairs = []
    for angle, exponent, twin in draw:
        for a in (angle, angle + 1e-7)[:1 + twin]:
            pairs.append(((math.cos(a), math.sin(a)), 10.0 ** exponent))
    r = sum(w * np.array(n) for n, w in pairs)
    if np.linalg.norm(r) == 0:
        return None
    pairs.append((tuple(-r / np.linalg.norm(r)), float(np.linalg.norm(r))))
    return atoms_measure(2, pairs)


@settings(max_examples=60, deadline=None)
@given(st.lists(atom, min_size=2, max_size=12))
def test_polygon_is_the_strict_hull_of_the_walk(draw):
    """The body is exactly the strict hull of the edge walk: boundary_cycle
    starts at the lexicographically smallest walk point and turns strictly
    left at every vertex, every vertex is a walk point, every walk point is
    in the body, and each halfspace is a primitive edge line."""
    mu = closed_measure(draw)
    if mu is None:
        return
    try:
        P = minkowski_solve(mu)
    except DegenerateNormals:
        return
    walk = [tuple(map(F, p))
            for p in _edge_walk(*_merged_atoms(mu)).tolist()]
    cycle = [P.vertices[i] for i in P.boundary_cycle]
    assert cycle[0] == min(walk)
    assert set(cycle) <= set(walk)
    for o, a, b in zip(cycle, cycle[1:] + cycle[:1], cycle[2:] + cycle[:2]):
        assert (a[0] - o[0]) * (b[1] - o[1]) > (a[1] - o[1]) * (b[0] - o[0])
    assert all(P.contains(p) for p in walk)
    assert len(set(P.halfspaces)) == len(cycle)
    for m, c in P.halfspaces:
        assert primitive(m) == m
        assert sum(m[0] * v[0] + m[1] * v[1] == c for v in cycle) == 2


def merged_atoms_per_atom(mu):
    """_merged_atoms as it normalized one atom at a time: the reference
    for the whole-array normalization."""
    units, raw = [], []
    for n, w in mu.atoms:
        n = np.asarray(n, dtype=float)
        nn = math.sqrt(n @ n)
        if nn < MIN_NORMAL_LENGTH:
            raise DegenerateNormals("zero direction atom")
        units.append(n / nn)
        raw.append(float(w))
    keys = [tuple(u.tolist()) for u in units]
    order = sorted(range(len(units)), key=keys.__getitem__)
    normals, kept, weights = [], [], []
    for k in order:
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
            normals.append(units[k])
            kept.append(n)
            weights.append(w)
    keep = [k for k, w in enumerate(weights) if abs(w) > 1e-14]
    return np.reshape([normals[k] for k in keep], (-1, mu.dim)), [weights[k] for k in keep]


def edge_walk_per_edge(normals, weights):
    """_edge_walk as it laid one edge at a time: the reference for the
    cumsum walk."""
    if len(normals) < 3:
        raise DegenerateNormals("need at least three distinct edge normals")
    w = minkowski._balance(normals, weights)
    order = np.argsort([math.atan2(n[1], n[0]) for n in normals])
    pts = [np.zeros(2)]
    for k in order:
        n = normals[k]
        pts.append(pts[-1] + w[k] * np.array([-n[1], n[0]]))
    gap = pts[-1]
    m = len(pts) - 1
    return np.array([p - (i / m) * gap for i, p in enumerate(pts[:-1])])


def same_bits(a, b):
    """Equal shape and equal bytes: equal floats, signs of zero included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_merge_and_walk_match(mu):
    """_merged_atoms and, in the plane, _edge_walk give the references'
    bits, or both raise the same error."""
    try:
        want = merged_atoms_per_atom(mu)
    except DegenerateNormals:
        with pytest.raises(DegenerateNormals, match="zero direction"):
            _merged_atoms(mu)
        return
    got = _merged_atoms(mu)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    if mu.dim != 2:
        return
    try:
        walk = edge_walk_per_edge(*want)
    except (DegenerateNormals, UnbalancedInput) as exc:
        with pytest.raises(type(exc)):
            _edge_walk(*got)
        return
    assert same_bits(_edge_walk(*got), walk)


@st.composite
def sphere_measures(draw):
    """Atoms in R^2 or R^3 at one scale; an atom may have a twin within
    DIRECTION_TOL of equal or opposite weight, and a coordinate may be
    0, so zero and subnormal directions come up too.  The measure may be
    closed by one atom against the resultant."""
    dim = draw(st.sampled_from((2, 3)))
    scale = 10.0 ** draw(st.integers(-12, 8))
    coords = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    atoms = []
    for n, w, twin in draw(st.lists(st.tuples(
            coords, st.floats(1e-3, 1e3),
            st.sampled_from(("none", "equal", "cancel"))), max_size=12)):
        n = scale * np.array(n)
        atoms.append((n, w))
        if twin != "none":
            jitter = np.array(draw(coords))
            atoms.append((n + 1e-11 * np.linalg.norm(n) * jitter,
                          -w if twin == "cancel" else w))
    lengths = [np.linalg.norm(n) for n, _ in atoms]
    if draw(st.booleans()) and min(lengths, default=0) >= MIN_NORMAL_LENGTH:
        r = sum(w * n / ell for (n, w), ell in zip(atoms, lengths))
        if np.any(r):
            atoms.append((-r, float(np.linalg.norm(r))))
    return atoms_measure(dim, atoms)


@settings(max_examples=300, deadline=None)
@given(sphere_measures())
def test_merged_atoms_match_per_atom_reference(mu):
    assert_merge_and_walk_match(mu)


@settings(max_examples=100, deadline=None)
@given(st.lists(atom, min_size=2, max_size=12))
def test_edge_walk_matches_per_edge_reference(draw):
    mu = closed_measure(draw)
    if mu is not None:
        assert_merge_and_walk_match(mu)


def test_zero_direction_atom_raises():
    mu = atoms_measure(2, [((1, 0), 1), ((0, 0), 1), ((-1, 0), 1)])
    with pytest.raises(DegenerateNormals, match="zero direction"):
        _merged_atoms(mu)
    with pytest.raises(DegenerateNormals, match="zero direction"):
        merged_atoms_per_atom(mu)


@pytest.mark.parametrize("n, w", [((1e200, 1e200), 1.0), ((math.nan, 0.0), 1.0),
                                  ((math.inf, 0.0), 1.0), ((0.0, 1.0), math.nan),
                                  ((0.0, 1.0), math.inf)])
def test_non_finite_atom_raises(n, w):
    """A normal whose length overflows or is nan, or a weight that is not
    finite, is refused rather than normalized to a zero or nan row or
    dropped."""
    mu = atoms_measure(2, [((1, 0), 1), ((-1, 0), 1), ((0, -1), 1), (n, w)])
    with pytest.raises(DegenerateNormals, match="non-finite atom"):
        _merged_atoms(mu)


def gw_sphere_measures(m=64):
    """Measures like the two gw solves at each level, at m atoms: the
    discretized density for the measure of data/gw_input.json at j = 2
    and 4, and a ball of radius 2 on the same nodes."""
    mu = DualAtomMeasure(1, (((F(-1),), F(1)), ((F(0),), F(-2)),
                             ((F(1),), F(1))))
    out = []
    for j in (2, 4):
        f = plane_to_sphere_density(mollify(mu, "smooth", j))
        main = balance_and_discretize(f, m)
        nodes = np.array([n for n, _ in main.atoms])
        out += [main, _closed_measure(nodes, np.full(m, 2.0 * math.pi / m * 2.0))]
    return out


def test_merged_atoms_match_per_atom_reference_at_gw_size():
    """The merge (no twins: one sort, no scan) and the walk keep their
    bits on the gw measures at the benchmark's m = 4096, where mirrored
    nodes share their leading coordinate."""
    for mu in gw_sphere_measures(4096):
        assert_merge_and_walk_match(mu)


def test_gw_polygons_match_references():
    """On the gw Minkowski measures the merge and the walk keep their bits
    and the polygon carries the boundary cycle a fresh body derives."""
    for mu in gw_sphere_measures():
        assert_merge_and_walk_match(mu)
        P = minkowski_solve(mu)
        fresh = Polytope(2, P.q, P.images, P.planes)
        assert P.__dict__["boundary_cycle"] == fresh.boundary_cycle
        assert len(P.boundary_cycle) == len(P.vertices)


class TestDim3:
    def test_unit_cube(self):
        mu = atoms_measure(3, [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1),
                               ((0, -1, 0), 1), ((0, 0, 1), 1), ((0, 0, -1), 1)])
        P = minkowski_solve(mu)
        want = Polytope.construct(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], 3)
        assert aligned_hausdorff(P, want) < 1e-9

    def test_box(self):
        mu = atoms_measure(3, [((1, 0, 0), 2), ((-1, 0, 0), 2), ((0, 1, 0), 2),
                               ((0, -1, 0), 2), ((0, 0, 1), 1), ((0, 0, -1), 1)])
        # areas (2, 2, 1) pairwise: a 1 x 2 x 1 box has side areas 2, 2, 1? no:
        # box with edges (a, b, c): areas bc, ac, ab = 2, 2, 1 -> a = b = 1, c = 2
        P = minkowski_solve(mu)
        ext = P.float_vertices.max(axis=0) - P.float_vertices.min(axis=0)
        assert sorted(ext) == pytest.approx([1.0, 1.0, 2.0], abs=1e-9)

    def test_round_trip_many(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            P = random_polytope(rng, 3, npts=9)
            Q = minkowski_solve(surface_area_measure(P))
            assert aligned_hausdorff(Q, P) < 1e-6

    def test_areas_match_after_round_trip(self):
        rng = np.random.default_rng(92)
        P = random_polytope(rng, 3, npts=8)
        mu = surface_area_measure(P)
        Q = minkowski_solve(mu)
        got = surface_area_measure(Q)
        # group the reconstructed atoms by the nearest input normal
        for n, w in mu.atoms:
            near = [wg for ng, wg in got.atoms if np.linalg.norm(ng - n) < 1e-5]
            assert sum(near) == pytest.approx(w, abs=1e-8)

    def test_rank_deficient_raises(self):
        mu = atoms_measure(3, [((1, 0, 0), 1), ((-1, 0, 0), 1),
                               ((0, 1, 0), 1), ((0, -1, 0), 1)])
        with pytest.raises(DegenerateNormals):
            minkowski_solve(mu)

    def test_unbalanced_raises(self):
        mu = atoms_measure(3, [((1, 0, 0), 3), ((-1, 0, 0), 1), ((0, 1, 0), 1),
                               ((0, -1, 0), 1), ((0, 0, 1), 1), ((0, 0, -1), 1)])
        with pytest.raises(UnbalancedInput):
            minkowski_solve(mu)

    def test_evaluation_budget(self, monkeypatch):
        """The damped Newton loop solves the acceptance family in few
        facet-geometry evaluations."""
        calls = []
        geometry = minkowski._facet_geometry
        monkeypatch.setattr(minkowski, "_facet_geometry",
                            lambda *a: calls.append(1) or geometry(*a))
        gen = CaseGenerator(7, 3)
        per_body = []
        for i in range(20):
            del calls[:]
            minkowski_solve(surface_area_measure(gen.body(i)))
            per_body.append(len(calls))
        assert sum(per_body) <= 1000, per_body
        assert max(per_body) <= 150, per_body

    @pytest.mark.parametrize("index", [2, 6, 8, 9, 11, 12, 13, 19])
    def test_round_trip_hard_bodies(self, index):
        """Bodies of the acceptance family on which Newton's method
        without damping stalls, collapses or needs thousands of
        evaluations."""
        mu = surface_area_measure(CaseGenerator(7, 3).body(index))
        got = surface_area_measure(minkowski_solve(mu))
        for n, w in mu.atoms:
            near = sum(wg for ng, wg in got.atoms
                       if np.linalg.norm(ng - n) < 1e-5)
            assert abs(near - w) <= 1e-8

    def test_stall_names_steps_and_evaluations(self, monkeypatch):
        monkeypatch.setattr(minkowski, "MAX_ITER", 1)
        mu = surface_area_measure(CaseGenerator(7, 3).body(2))
        with pytest.raises(GeometryError, match=(
                r"stalled at residual .* after 1 Newton steps and 2 "
                r"facet-geometry evaluations")):
            minkowski_solve(mu)


def per_evaluation_polygons(normals, h, L):
    """The facet polygons as built before the frames were shared: each
    evaluation derives every facet's basis and cut coefficients anew."""
    m = len(normals)
    polys = []
    for i in range(m):
        ni = normals[i]
        e1 = np.cross(ni, [1.0, 0.0, 0.0])
        if np.linalg.norm(e1) < 0.1:
            e1 = np.cross(ni, [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(ni, e1)
        p0 = h[i] * ni
        corners = [(-L, -L), (L, -L), (L, L), (-L, L)]
        edges = [((corners[k], corners[(k + 1) % 4]), None) for k in range(4)]
        sins = {}
        for j in range(m):
            if j == i or edges is None:
                continue
            a = float(normals[j] @ e1)
            b = float(normals[j] @ e2)
            c = float(h[j] - normals[j] @ p0)
            s = math.hypot(a, b)
            if s < 1e-12:
                if c < -1e-9:
                    edges = None
                continue
            sins[j] = s
            edges = _clip_chain(edges, a / s, b / s, c / s, j)
        if edges is None:
            continue
        if any(et is None for _, et in edges):
            return None
        polys.append((i, p0, e1, e2, edges, sins))
    return polys


def test_shared_frames_match_per_evaluation_construction():
    """Areas and Jacobian from the per-solve frames are bit-identical to
    the per-evaluation construction, at random support vectors that
    leave some facets empty and some seed boxes too small."""
    rng = np.random.default_rng(93)
    cube = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
            (0, 0, -1)]
    normal_sets = [np.array(cube, dtype=float)]
    gen = CaseGenerator(7, 3)
    for i in range(6):
        normal_sets.append(np.array(
            _merged_atoms(surface_area_measure(gen.body(i)))[0]))
    for _ in range(4):
        N = rng.normal(size=(int(rng.integers(4, 16)), 3))
        normal_sets.append(N / np.linalg.norm(N, axis=1)[:, None])
    checked = 0
    for N in normal_sets:
        frames = _facet_frames(N)
        for _ in range(25):
            h = rng.uniform(0.2, 1.5, size=len(N)) * 10.0 ** rng.uniform(-3, 3)
            h[rng.random(len(N)) < 0.2] *= 30.0
            for L in (1.0, 100.0 * (1.0 + float(np.max(np.abs(h))))):
                want = per_evaluation_polygons(N, h, L)
                got = _facet_polygons_at(N, frames, h, L)
                assert (want is None) == (got is None)
                if want is None:
                    continue
                checked += 1
                assert [p[4] for p in got] == [p[4] for p in want]
                a_want, J_want = _areas_and_jacobian(N, want)
                a_got, J_got = _areas_and_jacobian(N, got)
                assert np.array_equal(a_got, a_want)
                assert np.array_equal(J_got, J_want)
    assert checked > 100
