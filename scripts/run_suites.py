#!/usr/bin/env python3
"""Run the three identity suites at their reference sizes for both
variable counts and write reports; exits nonzero if any case fails."""

from __future__ import annotations

import argparse
import os
import sys
import time

from epival.cli import SuiteConfig, run_suite

PLAN = (
    ("conjugate", 1, 100),
    ("conjugate", 2, 100),
    ("change-of-vars", 1, 100),
    ("change-of-vars", 2, 50),
    ("steiner", 1, 10),
    ("steiner", 2, 10),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    ok = True
    for suite, n, cases in PLAN:
        cfg = SuiteConfig(suite, n, cases, args.seed, 1e-9, 3.0, None)
        t0 = time.monotonic()
        rep = run_suite(cfg)
        dt = time.monotonic() - t0
        base = os.path.join(args.out_dir, f"{suite}-n{n}")
        rep.write(base)
        ok = ok and rep.all_passed
        print(f"{suite:16s} n={n} cases={cases:4d} pass={rep.passed:4d} "
              f"fail={rep.failed} worst={rep.worst_residual:.3e} "
              f"[{dt:.1f}s] -> {base}.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
