#!/usr/bin/env python3
"""Profile one warm pass of a benchmark workload under cProfile.

    python3 scripts/profile_workload.py --workload gw --seed 1 --sort tottime
    python3 scripts/profile_workload.py --workload numerics --seed 1 --case steiner/body3/3
    python3 scripts/profile_workload.py --workload lattice --seed 1 --callers 'linalg.py.*\(on_integers\)'

Run from anywhere in a checkout: the package is imported from ``src/``
and the workloads from ``perfbench/``, which this script only reads.  The
workload's cases are built and its warm-up runs first, unprofiled, with
the BLAS thread pools capped at one thread as in the benchmark.  Then
every case runs once under cProfile, or only the case named by --case,
and the 40 heaviest functions by the chosen sort key are printed; with
--callers, the callers of every function whose "file:line(name)" matches
the regular expression are printed instead.  A case that fails its check
raises.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TOP = 40


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sort", choices=("cumulative", "tottime"), default="cumulative")
    ap.add_argument("--case", help="profile only the case of this name")
    ap.add_argument("--callers", metavar="REGEX",
                    help="print the callers of the matching functions")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    cases = workload.build(args.seed, ROOT)
    if args.case is not None:
        names = [case.name for case in cases]
        if args.case not in names:
            ap.error(f"no case {args.case!r} in workload {args.workload}; "
                     f"cases: {' '.join(names)}")
        cases = [cases[names.index(args.case)]]
    workload.warm(ROOT)
    state: dict = {}
    prof = cProfile.Profile()
    prof.enable()
    for case in cases:
        workload.run(case, state)
    prof.disable()
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} cases, "
          f"one pass under cProfile")
    stats = pstats.Stats(prof, stream=sys.stdout).sort_stats(args.sort)
    if args.callers is None:
        stats.print_stats(TOP)
    else:
        stats.print_callers(args.callers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
