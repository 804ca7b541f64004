#!/usr/bin/env python3
"""Write the example input files used by the CLI walkthrough: a
reconstruction measure, a pipeline input, a valuation registry, and a
suite config file."""

from __future__ import annotations

import argparse
import os
from fractions import Fraction as F

import numpy as np

from epival.bodies import Polytope
from epival.dual import DualAtomMeasure
from epival.functions import PLConvexFunction
from epival.measures import SphereMeasure
from epival.report import dumps_canonical
from epival.valuations import (
    BumpKernel,
    PlaneDensity,
    ValuationSpec,
    save_registry,
)


def seg(a, b):
    return Polytope.construct([(F(a),), (F(b),)], 1)


def axis_square_measure() -> SphereMeasure:
    normals = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
    return SphereMeasure(2, normals, np.ones(4))


def pipeline_input() -> dict:
    mu = DualAtomMeasure(1, (
        ((F(-1),), F(1)), ((F(0),), F(-2)), ((F(1),), F(1))))
    family = [
        PLConvexFunction.constant(seg(-1, 1), 0),
        PLConvexFunction.from_pieces(
            seg(-1, 1), (((F(1),), F(0)), ((F(-1),), F(0)))),
        PLConvexFunction.constant(seg(0, 2), 0),
    ]
    return {
        "measure": mu.to_dict(),
        "family": [u.to_dict() for u in family],
        "bump": "smooth",
    }


def registry() -> dict[str, ValuationSpec]:
    zeta = PlaneDensity(1, BumpKernel((0.5,), 1.0), 1.5)
    return {
        "grad-bump": ValuationSpec("gradient", 1, plane=zeta,
                                   name="grad-bump"),
        "dual-atoms": ValuationSpec(
            "dual_density", 1,
            dual_atoms=(((-1.0,), 1.0), ((0.0,), -2.0), ((1.0,), 1.0)),
            name="dual-atoms"),
    }


CONFIG_TEXT = """\
# defaults for the verify subcommand; flags override these
suite=conjugate
n=1
cases=100
seed=7
tol-geom=1e-9
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="data")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    def path(name):
        return os.path.join(args.out_dir, name)

    with open(path("square_measure.json"), "w") as fh:
        fh.write(dumps_canonical(axis_square_measure().to_dict()))
    with open(path("gw_input.json"), "w") as fh:
        fh.write(dumps_canonical(pipeline_input()))
    save_registry(registry(), path("registry.json"))
    with open(path("suite.cfg"), "w") as fh:
        fh.write(CONFIG_TEXT)
    for name in ("square_measure.json", "gw_input.json", "registry.json",
                 "suite.cfg"):
        print("wrote", path(name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
