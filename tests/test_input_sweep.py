"""Every single-field mutation of the shipped inputs exits 0 or 2.

Each field of data/square_measure.json, data/registry.json and
data/gw_input.json (every object key and array index, at any depth), and
each key of data/suite.cfg, takes each value of VALUES in turn; the
subcommand that reads the file runs on the result.  The work after the
read (the suites, the decomposition, the gw pipeline and the Minkowski
solver) is replaced by stubs, so the sweep checks the readers alone: no
exception escapes main, every run exits 0 (the value was accepted) or 2
(malformed input), and a run that exits 2 writes nothing to --out.
"""

import json
from pathlib import Path

import pytest

from epival import cli
from epival.bodies import Polytope
from epival.report import SuiteReport

DATA = Path(__file__).resolve().parent.parent / "data"

VALUES = (None, [], {}, "x", "1/0", "1e999", "nan", -1, 0, True, 1.5,
          [1, 2, 3], "1/3", 10 ** 400)


def field_paths(node, prefix=()):
    """The path of every object value and array item below node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def mutated(payload, path, value):
    out = json.loads(json.dumps(payload))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def config_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


class _GwStub:
    rows = ()

    def write(self, base):
        return base + ".json", base + ".csv"


@pytest.fixture
def stubbed(monkeypatch):
    """Replace the work after the read with stubs that accept anything."""
    monkeypatch.setattr(cli, "run_suite", lambda cfg: SuiteReport(
        cfg.suite, cli._cfg_dict(cfg), [{"case": 0, "residual": 0.0, "passed": True}]))
    monkeypatch.setattr(cli, "homogeneous_components",
                        lambda Z, u, n: [0.0] * (n + 1))
    monkeypatch.setattr(cli, "gw_pipeline", lambda *args: _GwStub())
    square = Polytope.construct([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    monkeypatch.setattr(cli, "minkowski_solve", lambda mu: square)


def _runs(tmp_path):
    """For each shipped input, the arguments of its subcommand before and
    after the input file; every report goes to tmp_path/out*."""
    out = str(tmp_path / "out")
    return {
        "square_measure.json": (["minkowski", "--in"], ["--out", out + ".json"]),
        "registry.json": (["decompose", "--in"], ["--cases", "1", "--out", out]),
        "gw_input.json": (["gw", "--in"], ["--j-list", "2", "--out", out]),
    }


def _check(argv, tmp_path, capsys, what):
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 2), f"{what}: exit {rc}: {err}"
    written = list(tmp_path.glob("out*"))
    if rc == 2:
        assert err.startswith("error: "), f"{what}: {err}"
        assert not written, f"{what} wrote a report"
    for f in written:
        f.unlink()
    return rc


@pytest.mark.parametrize("name", ["square_measure.json", "registry.json",
                                  "gw_input.json"])
def test_json_input_sweep(tmp_path, capsys, stubbed, name):
    head, tail = _runs(tmp_path)[name]
    payload = json.loads((DATA / name).read_text())
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    assert _check(head + [str(path)] + tail, tmp_path, capsys, name) == 0
    rejected = 0
    for fields in field_paths(payload):
        for value in VALUES:
            path.write_text(json.dumps(mutated(payload, fields, value)))
            what = f"{name} {list(fields)} = {value!r:.40}"
            rejected += _check(head + [str(path)] + tail, tmp_path, capsys, what) == 2
    assert rejected > 0


def test_config_sweep(tmp_path, capsys, stubbed):
    lines = [line for line in (DATA / "suite.cfg").read_text().splitlines()
             if line and not line.startswith("#")]
    cfg = tmp_path / "suite.cfg"
    argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]
    for i, line in enumerate(lines):
        key = line.partition("=")[0]
        for value in VALUES:
            cfg.write_text("\n".join(lines[:i] + [f"{key}={config_text(value)}"]
                                     + lines[i + 1:]) + "\n")
            _check(argv, tmp_path, capsys, f"suite.cfg {key}={value!r:.40}")
