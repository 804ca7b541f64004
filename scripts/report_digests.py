#!/usr/bin/env python3
"""Write the reports of the README's commands and print their digests.

    python3 scripts/report_digests.py OUT_DIR

Run from anywhere in a checkout: the package is imported from ``src/``,
and the commands run in the checkout's root, so that they read their
inputs as ``data/...`` as in the README (a report records the input path
it was given).  Each command of the README writes its report into
OUT_DIR (``BASE.json`` and ``BASE.csv``, or the one body file of
``minkowski``), 13 files in all, and its messages to stderr; then one
``sha256  file`` line is printed per file, in file name order.  Two
checkouts whose lines agree wrote byte-identical reports.  A command
that does not exit 0 raises.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (the command's arguments, its report files); each file name is
# the name with the extension
COMMANDS = {
    "verify": (["verify", "--config", "data/suite.cfg"], (".json", ".csv")),
    "change_of_vars": (["verify", "--suite", "change-of-vars", "--n", "2",
                        "--cases", "50", "--tol-geom", "1e-9"], (".json", ".csv")),
    "steiner_n1": (["verify", "--suite", "steiner", "--n", "1", "--cases", "10",
                    "--sigma", "3"], (".json", ".csv")),
    "steiner_n2": (["verify", "--suite", "steiner", "--n", "2", "--cases", "10",
                    "--sigma", "3"], (".json", ".csv")),
    "decompose": (["decompose", "--in", "data/registry.json", "--n", "1",
                   "--cases", "20", "--seed", "7"], (".json", ".csv")),
    "gw": (["gw", "--in", "data/gw_input.json", "--j-list", "2,4,8,16"],
           (".json", ".csv")),
    "minkowski": (["minkowski", "--in", "data/square_measure.json"], (".json",)),
}


def write_reports(out_dir: Path, names=tuple(COMMANDS)) -> list[str]:
    """Run the named commands with their reports in out_dir, and return
    one ``sha256  file`` line per report file, in file name order."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from epival import cli

    out_dir = Path(out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            for name in names:
                args, exts = COMMANDS[name]
                base = out_dir / name
                target = base.with_suffix(".json") if exts == (".json",) else base
                code = cli.main([*args, "--out", str(target)])
                if code != 0:
                    raise RuntimeError(f"{name} exited {code}")
                files += [base.with_suffix(ext) for ext in exts]
    finally:
        os.chdir(cwd)
    return [f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}"
            for f in sorted(files)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", type=Path)
    args = ap.parse_args(argv)
    print("\n".join(write_reports(args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
