"""The exact work of the benchmark's lattice workload, pinned.

One lattice pass of ``perfbench/workloads.py`` at seed 1, cases built
and run, counting the truncated epigraphs built from a prism
(``functions._epigraph``) and the halfspace clips (``Polytope.clip``).
The pointwise minimum reuses both operands' epigraphs with the lid
moved, and each operand keeps its lattice results, so a pass builds 42
epigraphs and makes 325 clips; before, it built 154 and made 765.  A
change that rebuilds them fails here, and so does one that moves any
bit of the pass's output: the digest is the one the benchmark prints.

The exact readers (volume, facet areas, the piece tests, maxima, support,
evaluation and the rank tests) compute on the integer images the bodies
store, so the pass makes no Fraction Gauss-Jordan reduction
(linalg._reduce, which solve still uses; 510 rank tests by the Fraction
mat_rank before the readers moved to the image) and no Fraction dot
product (linalg.dot; 3,242 before, then 330 in
MaxAffine.evaluate at the conjugate probes until evaluation read the
pieces' integer rows).  Every body is built with its image, so the pass
never rebuilds one from Fraction vertices (bodies._integer_image; 591
calls when the bodies stored Fractions).  Each function is counted under
every name a module of the package binds it to.
The workloads module is imported, not changed.
"""

import hashlib
import sys
from pathlib import Path

from epival import bodies, functions, linalg
from epival.bodies import Polytope
from test_numerics_digest import load_workloads

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "9da3d71820c9642b79bda52649522fe3f70b8e96ba21cc2b6c7250fb6179c585"
MAX_EPIGRAPHS = 42
MAX_CLIPS = 325
MAX_REDUCES = 0
MAX_DOTS = 0
MAX_IMAGES = 0


def counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_everywhere(monkeypatch, counts, name, fn):
    """Count fn under each name bound to it in the package's modules."""
    wrapper = counted(counts, name, fn)
    for module in [m for k, m in list(sys.modules.items())
                   if k == "epival" or k.startswith("epival.")]:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, wrapper)


def test_lattice_pass_builds_each_epigraph_once(monkeypatch):
    workloads = load_workloads()
    workload = workloads.WORKLOADS["lattice"]
    counts = {"epigraph": 0, "clip": 0, "reduce": 0, "dot": 0, "image": 0}
    monkeypatch.setattr(functions, "_epigraph",
                        counted(counts, "epigraph", functions._epigraph))
    monkeypatch.setattr(Polytope, "clip", counted(counts, "clip", Polytope.clip))
    count_everywhere(monkeypatch, counts, "reduce", linalg._reduce)
    count_everywhere(monkeypatch, counts, "dot", linalg.dot)
    count_everywhere(monkeypatch, counts, "image", bodies._integer_image)
    state: dict = {}
    sha = hashlib.sha256()
    for case in workload.build(1, ROOT):
        sha.update(workloads.serialize(workload.run(case, state)).encode())
    assert sha.hexdigest() == DIGEST
    assert counts["epigraph"] <= MAX_EPIGRAPHS
    assert counts["clip"] <= MAX_CLIPS
    assert counts["reduce"] <= MAX_REDUCES
    assert counts["dot"] <= MAX_DOTS
    assert counts["image"] <= MAX_IMAGES
