"""The float bits of the benchmark's numerics workload, pinned.

One numerics pass of ``perfbench/workloads.py`` at seeds 1 and 3, hashed
as ``perfbench/run.py`` hashes a pass: the SHA-256 of the cases' outputs
serialized in case order.  The digests are the ones the benchmark printed
when this test was written; a change that moves any float of the Steiner
volumes, their Monte Carlo estimates, the support-measure moment or the
3D Minkowski round trips moves them.  The workloads module is imported,
not changed.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = {
    1: "65baf601a4b07862619882a1b66ce605213c6ec585c9c0986d013ab8592a666c",
    3: "b69afbc338932ac99945424ec2d3fbacae41e72b5ecdd9067b463b23ddaa1edb",
}


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_numerics_pass_keeps_its_bits(seed):
    workloads = load_workloads()
    workload = workloads.WORKLOADS["numerics"]
    state: dict = {}
    sha = hashlib.sha256()
    for case in workload.build(seed, ROOT):
        sha.update(workloads.serialize(workload.run(case, state)).encode())
    assert sha.hexdigest() == DIGESTS[seed]
