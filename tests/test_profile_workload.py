"""Smoke test of scripts/profile_workload.py: one profiled lattice pass."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile_workload.py"


def test_profiles_one_lattice_pass():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "lattice", "--seed", "1",
         "--sort", "tottime"],
        capture_output=True, text=True, timeout=600, check=True).stdout
    assert out.startswith("workload lattice seed 1: 14 cases")
    assert "Ordered by: internal time" in out
    assert "bodies.py" in out


def test_profiles_only_the_named_case():
    run = [sys.executable, str(SCRIPT), "--workload", "numerics", "--seed", "1",
           "--case", "minkowski3/0"]
    out = subprocess.run(run, capture_output=True, text=True, timeout=600,
                         check=True).stdout
    assert out.startswith("workload numerics seed 1: 1 cases")
    assert "minkowski.py" in out and "spherical.py" not in out
    bad = subprocess.run(run[:-1] + ["steiner/none"], capture_output=True,
                         text=True, timeout=600)
    assert bad.returncode == 2
    assert "no case 'steiner/none'" in bad.stderr and "minkowski3/0" in bad.stderr


def test_prints_the_callers_of_the_matching_functions():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "lattice", "--seed", "1",
         "--callers", r"linalg.py.*\(on_integers\)"],
        capture_output=True, text=True, timeout=600, check=True).stdout
    assert out.startswith("workload lattice seed 1: 14 cases")
    assert "was called by..." in out
    assert "linalg.py" in out and "(on_integers)" in out and "functions.py" in out
    # the callers replace the list of the heaviest functions
    assert "filename:lineno(function)" not in out
