"""The float work of the benchmark's numerics workload, pinned.

One numerics pass of ``perfbench/workloads.py`` at seed 1, cases built
and run, counting the calls of the triangle rule (``spherical._tri_rule``)
with the triangles they integrate, and the blocks of ``nearest_points``
(``bodies._nearest_block``).  The adaptive triangle quadrature splits
each level's open triangles in one call, so a pass integrates its 1,256
triangles in 39 calls; before, each triangle's four children had a call
of their own, 320 in all.  The Monte Carlo oracles project their samples
in blocks of ``NEAREST_BLOCK`` rows, 120 blocks a pass.  A change that
makes more calls fails here, and so does one that moves any bit of the
pass's output: the digest is the one the benchmark prints.  The lattice
and gw workloads reach neither kernel, nor the flow-out oracle.  The
normal cones, spherical patches, piece projections and gradient regions
read integer planes and images and use the integer Gram-Schmidt, so the
pass makes no Fraction dot product (linalg.dot; 308 when they ran the
Fraction Gram-Schmidt, 60 of them in its rejections and norms).  The
workloads module is imported, not changed.
"""

import hashlib
from collections import Counter
from pathlib import Path

import pytest

from epival import bodies, linalg, measures, spherical
from test_lattice_work import count_everywhere
from test_numerics_digest import DIGESTS, load_workloads

ROOT = Path(__file__).resolve().parent.parent
MAX_TRI_RULES = 39
TRIANGLES = 1256
MAX_BLOCKS = 120
MAX_DOTS = 0


def counted_pass(monkeypatch, name):
    """One pass of the named workload at seed 1: the SHA-256 of its
    outputs, and the calls of the triangle rule, the triangles they
    integrate, the nearest-point blocks, the flow-out oracle calls and the
    Fraction dot products."""
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name]
    counts = Counter()
    rule = spherical._tri_rule

    def tri_rule(tris, g_rows, n):
        counts["tri_rule"] += 1
        counts["triangles"] += len(tris)
        return rule(tris, g_rows, n)

    monkeypatch.setattr(spherical, "_tri_rule", tri_rule)
    count_everywhere(monkeypatch, counts, "block", bodies._nearest_block)
    count_everywhere(monkeypatch, counts, "flowout", measures.p_t_volume_mc)
    count_everywhere(monkeypatch, counts, "dot", linalg.dot)
    state: dict = {}
    sha = hashlib.sha256()
    for case in workload.build(1, ROOT):
        sha.update(workloads.serialize(workload.run(case, state)).encode())
    return sha.hexdigest(), counts


def test_numerics_pass_batches_its_triangles(monkeypatch):
    digest, counts = counted_pass(monkeypatch, "numerics")
    assert digest == DIGESTS[1]
    assert counts["tri_rule"] <= MAX_TRI_RULES
    assert counts["triangles"] == TRIANGLES
    assert counts["block"] <= MAX_BLOCKS
    assert counts["flowout"] > 0
    assert counts["dot"] <= MAX_DOTS


@pytest.mark.parametrize("name", ["lattice", "gw"])
def test_other_workloads_reach_no_numerics_kernel(monkeypatch, name):
    _, counts = counted_pass(monkeypatch, name)
    assert counts["tri_rule"] == counts["block"] == counts["flowout"] == 0
