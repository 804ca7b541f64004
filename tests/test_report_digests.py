"""scripts/report_digests.py: its minkowski entry through write_reports."""

import hashlib
import importlib.util
import json
import os
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_minkowski_entry(tmp_path):
    script = load_script()
    assert sum(len(exts) for _, exts in script.COMMANDS.values()) == 13
    cwd = os.getcwd()
    lines = script.write_reports(tmp_path / "reports", ["minkowski"])
    assert os.getcwd() == cwd
    body = tmp_path / "reports" / "minkowski.json"
    assert lines == [f"{hashlib.sha256(body.read_bytes()).hexdigest()}  minkowski.json"]
    # the shipped measure reconstructs the unit square at (0,0)-(1,1)
    assert json.loads(body.read_text()) == {
        "dim": 2, "vertices": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]}
