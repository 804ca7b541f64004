"""The exact work of the benchmark's lattice workload, pinned.

One lattice pass of ``perfbench/workloads.py`` at seed 1, cases built
and run, counting the truncated epigraphs built from a prism
(``functions._epigraph``) and the halfspace clips (``Polytope.clip``).
The pointwise minimum reuses both operands' epigraphs with the lid
moved, and each operand keeps its lattice results, so a pass builds 42
epigraphs and makes 325 clips; before, it built 154 and made 765.  A
change that rebuilds them fails here, and so does one that moves any
bit of the pass's output: the digest is the one the benchmark prints.
The workloads module is imported, not changed.
"""

import hashlib
from pathlib import Path

from epival import functions
from epival.bodies import Polytope
from test_numerics_digest import load_workloads

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "9da3d71820c9642b79bda52649522fe3f70b8e96ba21cc2b6c7250fb6179c585"
MAX_EPIGRAPHS = 42
MAX_CLIPS = 325


def counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_lattice_pass_builds_each_epigraph_once(monkeypatch):
    workloads = load_workloads()
    workload = workloads.WORKLOADS["lattice"]
    counts = {"epigraph": 0, "clip": 0}
    monkeypatch.setattr(functions, "_epigraph",
                        counted(counts, "epigraph", functions._epigraph))
    monkeypatch.setattr(Polytope, "clip", counted(counts, "clip", Polytope.clip))
    state: dict = {}
    sha = hashlib.sha256()
    for case in workload.build(1, ROOT):
        sha.update(workloads.serialize(workload.run(case, state)).encode())
    assert sha.hexdigest() == DIGEST
    assert counts["epigraph"] <= MAX_EPIGRAPHS
    assert counts["clip"] <= MAX_CLIPS
