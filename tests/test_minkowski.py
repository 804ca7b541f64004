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

from epival.bodies import Polytope
from epival.linalg import primitive
from epival.measures import SphereMeasure, surface_area_measure
from epival.minkowski import (
    DegenerateNormals,
    UnbalancedInput,
    _edge_walk,
    _merged_atoms,
    minkowski_solve,
)


def atoms_measure(dim, pairs, signed=False):
    return SphereMeasure(dim, tuple(
        (np.asarray(n, dtype=float), float(w)) for n, w in pairs), signed)


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


@settings(max_examples=60, deadline=None)
@given(st.lists(atom, min_size=2, max_size=12))
def test_polygon_is_the_strict_hull_of_the_walk(draw):
    """The body is exactly the strict hull of the edge walk: boundary_cycle
    starts at the lexicographically smallest walk point and turns strictly
    left at every vertex, every vertex is a walk point, every walk point is
    in the body, and each halfspace is a primitive edge line."""
    pairs = []
    for angle, exponent, twin in draw:
        for a in (angle, angle + 1e-7)[:1 + twin]:
            pairs.append(((math.cos(a), math.sin(a)), 10.0 ** exponent))
    # close the measure with one atom against the resultant
    r = sum(w * np.array(n) for n, w in pairs)
    if np.linalg.norm(r) == 0:
        return
    pairs.append((tuple(-r / np.linalg.norm(r)), float(np.linalg.norm(r))))
    mu = atoms_measure(2, pairs)
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
