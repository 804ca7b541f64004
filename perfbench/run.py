#!/usr/bin/env python3
"""Benchmark harness for epival.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 34 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (import, case generation and a warm-up on tiny inputs) is timed
apart from the measured passes; case generation and warm-up run three
times and report their median.  A pass runs every case of the workload
once from freshly built inputs and checks every result.  Passes repeat
while another one fits in ``--seconds`` (at least one runs).

With ``--trace 0`` the last line carries the end-to-end metrics.  Every
time is calibrated: the host's cores run from 1.0 to 1.75 times slower,
for seconds to tens of minutes, as other tenants load them.  So after
each timed interval (import, a set-up repeat, a case) the run times a
fixed ``Fraction`` loop for a tenth of the interval, and scales the
interval by ``CAL_NOMINAL_S`` over the loop's mean time in the blocks
just before and just after it (see README.md).  A case's time is the
median over the passes of its calibrated times; ``wall_s`` and ``cpu_s``
add these over the case set and ``case_max_s`` is the largest.  Peak
resident memory comes with them, uncalibrated.

With ``--trace 1`` one pass runs plain, then one pass runs with every
layer wrapped; the last line carries the per-layer metrics (raw times)
and ``trace.overhead_s`` (traced minus plain pass wall time), and the
spans go to ``perfbench/out/``.  Lines before the last give every metric
by name and unit, the calibration and raw times, ``fail_frac`` and the
determinism digest: the SHA-256 of the case outputs serialized by
``report.dumps_canonical``, compared with the digest ``baseline.json``
records for the seed commit when it has one for this workload and seed.

Exit status is 0 when the run completes, failed cases included (they are
counted, never raised); 2 when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# calibration: seconds of calibration loop per second of measured work,
# and the loop time a calibrated second refers to (a round figure near
# the loop's mean on the 2-vCPU host the benchmark was built on)
CAL_SHARE = 0.1
CAL_NOMINAL_S = 3.5e-3
# one process, one compute thread: the numeric libraries get no pool
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calibration_loop() -> float:
    """Seconds taken by one run of a fixed loop of Fraction arithmetic,
    the kind of work the exact layers do."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 800):
        total += Fraction(k % 97 + 1, (k * 7919) % 4093 + 1)
    return time.perf_counter() - t0


class Calibration:
    """Blocks of calibration loops, each sized in proportion to the
    interval measured just before it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.block: list[float] = []   # the latest block

    def after(self, seconds: float) -> float:
        """Run the loop for about CAL_SHARE of `seconds` (at least once)
        and return the factor for that interval: CAL_NOMINAL_S over the
        mean loop time in the blocks just before and just after it."""
        block, spent = [], 0.0
        while True:
            block.append(calibration_loop())
            spent += block[-1]
            if spent >= CAL_SHARE * seconds:
                break
        before, self.block = self.block, block
        self.samples += block
        return CAL_NOMINAL_S / statistics.fmean(before + block)


@dataclass
class Pass:
    walls: list[float]   # wall seconds of each case, in case order
    cpus: list[float]    # user+sys CPU seconds of each case
    factors: list[float]  # calibration factor of each case (1 if none)
    digest: str
    failed: list[str]

    @property
    def wall(self) -> float:
        return sum(self.walls)


def run_pass(workload, cases, serialize, tracer=None, cal=None) -> Pass:
    """One pass over every case, each timed on its own and followed by
    calibration when `cal` is given.  A case that raises counts as failed
    and the pass goes on."""
    state: dict = {}
    sha = hashlib.sha256()
    out = Pass([], [], [], "", [])
    for case in cases:
        if tracer is not None:
            tracer.case = case.name
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            text = serialize(workload.run(case, state))
        except Exception as exc:  # a failed case, never an aborted run
            out.failed.append(f"{case.name}: {type(exc).__name__}: {exc}")
            text = f"failed {case.name}\n"
        out.walls.append(time.perf_counter() - wall0)
        out.cpus.append(time.process_time() - cpu0)
        sha.update(text.encode())
        out.factors.append(1.0 if cal is None else cal.after(out.walls[-1]))
    if tracer is not None:
        tracer.case = None
    out.digest = sha.hexdigest()
    return out


def set_up(workload, seed, cal):
    """Case generation plus warm-up, repeated and calibrated; returns the
    cases of the last repeat and the median raw and calibrated time of
    one repeat."""
    raw, calibrated = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = workload.build(seed, ROOT)
        workload.warm(ROOT)
        raw.append(time.perf_counter() - t0)
        calibrated.append(cal.after(raw[-1]) * raw[-1])
    return cases, statistics.median(raw), statistics.median(calibrated)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "epival" / "__init__.py").is_file():
        print(f"no epival package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    import_s = time.perf_counter() - t_import

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    cal = Calibration()
    import_factor = cal.after(import_s)
    cases, build_s, build_cal = set_up(workload, args.seed, cal)
    setup_s = import_s + build_s

    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, cases, workloads.serialize,
                               cal=None if args.trace else cal))
        now = time.perf_counter()
        if args.trace or (now - start) + (now - t0) > args.seconds:
            break

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cases = workload.build(args.seed, ROOT)
            passes.append(
                run_pass(workload, cases, workloads.serialize, tracer))
        finally:
            tracer.uninstall()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(
            out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tracer.metrics(passes[1].wall - passes[0].wall)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        def per_case(times):
            return [statistics.median(c) for c in zip(*times)]
        walls = per_case(p.walls for p in passes)
        cpus = per_case(p.cpus for p in passes)
        raw = {"wall_s": sum(walls), "cpu_s": sum(cpus),
               "case_max_s": max(walls), "setup_s": setup_s}
        walls = per_case([f * t for f, t in zip(p.factors, p.walls)]
                         for p in passes)
        cpus = per_case([f * t for f, t in zip(p.factors, p.cpus)]
                        for p in passes)
        metrics = {
            "wall_s": sum(walls),
            "cpu_s": sum(cpus),
            "case_max_s": max(walls),
            "setup_s": import_factor * import_s + build_cal,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "cpu_s": "s", "case_max_s": "s",
                 "setup_s": "s", "peak_rss_mb": "MB"}

    attempted = sum(len(p.walls) for p in passes)
    failures = [f for p in passes for f in p.failed]
    digests = {p.digest for p in passes}
    for f in failures:
        print(f"FAILED {f}")
    if len(digests) > 1:
        print("FAILED case outputs differ between passes")
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"cases {len(cases)} digest {passes[0].digest}")
    if not args.trace:
        print(f"  calibration: {len(cal.samples)} loops, mean "
              f"{statistics.fmean(cal.samples):.6g} s; raw "
              + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items()))
    recorded = json.loads((HERE / "baseline.json").read_text())["digests"]
    seed_commit = recorded.get(args.workload, {}).get(str(args.seed))
    if seed_commit is not None:
        print("  outputs " + ("match" if seed_commit == passes[0].digest
                              else "differ from") + " the seed commit's")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_frac = {len(failures) / attempted:.6g} ratio")
    print(json.dumps({
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
