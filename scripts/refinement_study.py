#!/usr/bin/env python3
"""Refinement study for the atomic-measure pipeline: mollify the
second-difference measure at j = 2, 4, 8, 16, reconstruct a body pair
per level, and tabulate sup error, moment residuals, support radius,
and the representation residual."""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction as F

from epival.bodies import Polytope
from epival.dual import DualAtomMeasure, gw_pipeline
from epival.functions import PLConvexFunction


def second_difference() -> DualAtomMeasure:
    return DualAtomMeasure(1, (
        ((F(-1),), F(1)), ((F(0),), F(-2)), ((F(1),), F(1))))


def family() -> list[PLConvexFunction]:
    seg = lambda a, b: Polytope.construct([(F(a),), (F(b),)], 1)  # noqa: E731
    return [
        PLConvexFunction.constant(seg(-1, 1), 0),
        PLConvexFunction.from_pieces(
            seg(-1, 1), (((F(1),), F(0)), ((F(-1),), F(0)))),
        PLConvexFunction.constant(seg(0, 2), 0),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="refinement")
    ap.add_argument("--bump", default="smooth")
    ap.add_argument("--j-list", default="2,4,8,16")
    args = ap.parse_args()
    j_list = tuple(int(s) for s in args.j_list.split(","))
    t0 = time.monotonic()
    report = gw_pipeline(second_difference(), args.bump, j_list, family())
    dt = time.monotonic() - t0
    jpath, cpath = report.write(args.out)
    print(f"{'j':>4s} {'sup_error':>12s} {'support_r':>10s} {'repr_resid':>12s}")
    for row in report.rows:
        print(f"{row.j:4d} {row.sup_error:12.5e} "
              f"{row.support_radius:10.6f} "
              f"{row.representation_residual:12.5e}")
    print(f"total {dt:.1f}s -> {jpath} / {cpath}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
