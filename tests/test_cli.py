"""Command line harness: subcommands, config merging, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from epival.bodies import Polytope
from epival.cli import SuiteConfig, main, run_suite
from epival.dual import DualAtomMeasure
from epival.functions import PLConvexFunction
from epival.report import dumps_canonical

DATA = Path(__file__).resolve().parent.parent / "data"
SQUARE_MEASURE = DATA / "square_measure.json"
REGISTRY = DATA / "registry.json"


def run(*argv):
    return main(list(argv))


def square_measure_file(tmp_path, weights=(1.0, 1.0, 1.0, 1.0)):
    payload = {
        "dim": 2,
        "signed": False,
        "atoms": [
            {"n": [1.0, 0.0], "w": weights[0]},
            {"n": [-1.0, 0.0], "w": weights[1]},
            {"n": [0.0, 1.0], "w": weights[2]},
            {"n": [0.0, -1.0], "w": weights[3]},
        ],
    }
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(payload))
    return str(path)


def gw_input_file(tmp_path, atoms=None, bump="smooth", n=1):
    seg = Polytope.construct([(F(-1),), (F(1),)], 1)
    if atoms is None:
        atoms = [{"x": ["-1"], "w": "1"}, {"x": ["0"], "w": "-2"},
                 {"x": ["1"], "w": "1"}]
    payload = {
        "measure": {"n": n, "atoms": atoms},
        "family": [PLConvexFunction.constant(seg, 0).to_dict()],
        "bump": bump,
    }
    path = tmp_path / "gw.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestVerify:
    def test_conjugate_exact(self, tmp_path, capsys):
        out = str(tmp_path / "rep")
        assert run("verify", "--suite", "conjugate", "--cases", "4",
                   "--out", out) == 0
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert payload["pass"] == 4
        assert payload["fail"] == 0
        assert payload["worst_residual"] == 0
        assert (tmp_path / "rep.csv").exists()
        assert "pass=4" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run("verify", "--suite", "change-of-vars", "--cases", "3",
                       "--seed", "5", "--out", out) == 0
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("suite=conjugate\ncases=3\nseed=5\n# comment\n")
        out = str(tmp_path / "r")
        assert run("verify", "--config", str(cfg), "--out", out) == 0
        assert json.loads((tmp_path / "r.json").read_text())["cases"] == 3
        # flag beats the file
        assert run("verify", "--config", str(cfg), "--cases", "2",
                   "--out", out) == 0
        assert json.loads((tmp_path / "r.json").read_text())["cases"] == 2

    def test_steiner_runs(self):
        cfg = SuiteConfig("steiner", 1, 2, 7, 1e-9, 3.0, None)
        rep = run_suite(cfg)
        assert len(rep.rows) == 2
        assert {r["kind"] for r in rep.rows} == {"body", "function"}

    def test_usage_errors(self, tmp_path):
        assert run("verify", "--suite", "nope") == 2
        assert run("verify") == 2  # no suite anywhere
        bad = tmp_path / "bad.cfg"
        bad.write_text("this line has no equals sign\n")
        assert run("verify", "--config", str(bad)) == 2
        assert run("verify", "--suite", "conjugate", "--cases", "0") == 2


class TestMinkowski:
    def test_axis_square(self, tmp_path):
        out = tmp_path / "body.json"
        path = square_measure_file(tmp_path)
        assert run("minkowski", "--in", path, "--out", str(out)) == 0
        body = Polytope.from_dict(json.loads(out.read_text()))
        want = Polytope.construct([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
        assert body == want

    def test_canonical_output(self, tmp_path):
        out = tmp_path / "body.json"
        path = square_measure_file(tmp_path)
        run("minkowski", "--in", path, "--out", str(out))
        body = Polytope.from_dict(json.loads(out.read_text()))
        assert out.read_text() == dumps_canonical(body.to_dict())

    def test_unbalanced_fails(self, tmp_path):
        path = square_measure_file(tmp_path, weights=(2.0, 1.0, 1.0, 1.0))
        assert run("minkowski", "--in", path,
                   "--out", str(tmp_path / "x.json")) == 1

    def test_schema_violation(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"not": "a measure"}')
        assert run("minkowski", "--in", str(path),
                   "--out", str(tmp_path / "x.json")) == 2

    def test_non_finite_atom(self, tmp_path, capsys):
        for weights in ((float("nan"), 1.0, 1.0, 1.0),
                        (1.0, float("inf"), 1.0, 1.0)):
            path = square_measure_file(tmp_path, weights=weights)
            assert run("minkowski", "--in", path,
                       "--out", str(tmp_path / "x.json")) == 2
            assert "must be finite" in capsys.readouterr().err
        payload = json.loads((tmp_path / "measure.json").read_text())
        payload["atoms"][0]["n"] = [float("nan"), 0.0]
        (tmp_path / "measure.json").write_text(json.dumps(payload))
        assert run("minkowski", "--in", str(tmp_path / "measure.json"),
                   "--out", str(tmp_path / "x.json")) == 2
        assert not (tmp_path / "x.json").exists()

    def test_non_positive_weight(self, tmp_path, capsys):
        payload = json.loads(SQUARE_MEASURE.read_text())
        payload["atoms"][0]["w"] = payload["atoms"][2]["w"] = -1
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "x.json"
        assert run("minkowski", "--in", str(path), "--out", str(out)) == 2
        assert "surface area measure must be positive" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_weights_merge_before_the_positivity_check(self, tmp_path):
        # a zero weight, and -1 beside +1 on the normal e1, leave the
        # square's own measure once atoms of one normal are merged
        payload = json.loads(SQUARE_MEASURE.read_text())
        payload["atoms"] += [{"n": [1, 1], "w": 0}, {"n": [1, 0], "w": -1},
                             {"n": [1, 0], "w": 1}]
        path = tmp_path / "merged.json"
        path.write_text(json.dumps(payload))
        assert run("minkowski", "--in", str(path),
                   "--out", str(tmp_path / "merged_body.json")) == 0
        assert run("minkowski", "--in", str(SQUARE_MEASURE),
                   "--out", str(tmp_path / "square_body.json")) == 0
        assert (tmp_path / "merged_body.json").read_text() == \
            (tmp_path / "square_body.json").read_text()

    @pytest.mark.parametrize("key", ["n", "w"])
    def test_number_beyond_float_range(self, tmp_path, capsys, key):
        # an integer JSON number too large for a float, read exactly by json
        payload = json.loads(SQUARE_MEASURE.read_text())
        atom = payload["atoms"][0]
        atom[key] = [10 ** 400, 0] if key == "n" else 10 ** 400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "x.json"
        assert run("minkowski", "--in", str(path), "--out", str(out)) == 2
        assert "within float range" in capsys.readouterr().err
        assert not out.exists()

    def test_unsupported_dim(self, tmp_path, capsys):
        path = tmp_path / "measure4.json"
        atoms = [{"n": [float(s * (k == j)) for j in range(4)], "w": 1.0}
                 for k in range(4) for s in (1, -1)]
        path.write_text(json.dumps({"dim": 4, "atoms": atoms}))
        assert run("minkowski", "--in", str(path),
                   "--out", str(tmp_path / "x.json")) == 2
        assert "dimension 2 or 3" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_normals_of_wrong_length(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for dim, normals in ((2, [[1, 0, 0], [-1, 0, 0], [0, 1, 0]]),
                             (3, [[1, 0], [-1, 0], [0, 1], [0, -1]]),
                             (2, [[1, 0], [-1, 0, 0], [0, 1]])):
            path.write_text(json.dumps({
                "dim": dim, "atoms": [{"n": n, "w": 1.0} for n in normals]}))
            assert run("minkowski", "--in", str(path),
                       "--out", str(tmp_path / "x.json")) == 2
            assert f"dim = {dim} coordinates" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_zero_normal(self, tmp_path, capsys):
        payload = json.loads(SQUARE_MEASURE.read_text())
        payload["atoms"].append({"n": [0.0, 0.0], "w": 1.0})
        path = tmp_path / "zero_normal.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "x.json"
        assert run("minkowski", "--in", str(path), "--out", str(out)) == 2
        assert "atom normals must be nonzero" in capsys.readouterr().err
        assert not out.exists()

    def test_short_normal(self, tmp_path, capsys):
        # nonzero but too short to normalize: the solver's threshold
        payload = json.loads(SQUARE_MEASURE.read_text())
        payload["atoms"].append({"n": [1e-13, 0], "w": 1})
        path = tmp_path / "short_normal.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "x.json"
        assert run("minkowski", "--in", str(path), "--out", str(out)) == 2
        assert "of length at least 1e-12" in capsys.readouterr().err
        assert not out.exists()


class TestGw:
    def test_small_run(self, tmp_path):
        out = str(tmp_path / "gwrep")
        assert run("gw", "--in", gw_input_file(tmp_path),
                   "--j-list", "2", "--out", out) == 0
        payload = json.loads((tmp_path / "gwrep.json").read_text())
        assert [row["j"] for row in payload["rows"]] == [2]
        csv = (tmp_path / "gwrep.csv").read_text().splitlines()
        assert csv[0].startswith("j,sup_error")
        assert len(csv) == 2

    def test_zero_measure(self, tmp_path):
        out = str(tmp_path / "zero")
        assert run("gw", "--in", gw_input_file(tmp_path, atoms=[]),
                   "--j-list", "2,4", "--out", out) == 0
        payload = json.loads((tmp_path / "zero.json").read_text())
        assert all(row["sup_error"] == 0 for row in payload["rows"])

    def test_missing_out(self, tmp_path):
        assert run("gw", "--in", gw_input_file(tmp_path)) == 2

    def test_bad_j_list(self, tmp_path):
        assert run("gw", "--in", gw_input_file(tmp_path),
                   "--j-list", "0,2", "--out", "x") == 2
        assert run("gw", "--in", gw_input_file(tmp_path),
                   "--j-list", "a,b", "--out", "x") == 2

    def test_unknown_bump(self, tmp_path, capsys):
        out = tmp_path / "gwrep"
        assert run("gw", "--in", gw_input_file(tmp_path, bump="nope"),
                   "--j-list", "2", "--out", str(out)) == 2
        assert "unknown mollifier 'nope'" in capsys.readouterr().err
        assert not (tmp_path / "gwrep.json").exists()

    def test_two_variable_measure(self, tmp_path, capsys):
        atoms = [{"x": ["-1", "0"], "w": "1"}, {"x": ["0", "0"], "w": "-2"},
                 {"x": ["1", "0"], "w": "1"}]
        path = gw_input_file(tmp_path, atoms=atoms, n=2)
        assert run("gw", "--in", path, "--j-list", "2",
                   "--out", str(tmp_path / "gwrep")) == 2
        assert "one variable, got n=2" in capsys.readouterr().err
        assert not (tmp_path / "gwrep.json").exists()

    def test_family_entry_without_pieces(self, tmp_path, capsys):
        path = tmp_path / "gw.json"
        gw_input_file(tmp_path)
        payload = json.loads(path.read_text())
        payload["family"][0]["pieces"] = []
        path.write_text(json.dumps(payload))
        assert run("gw", "--in", str(path), "--j-list", "2",
                   "--out", str(tmp_path / "gwrep")) == 2
        assert "bad family entry" in capsys.readouterr().err
        assert not (tmp_path / "gwrep.json").exists()

    square = Polytope.construct([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
    empty_domain = {"domain": {"dim": 1, "vertices": []}, "n": 1,
                    "pieces": [{"a": ["0"], "b": "0"}]}

    @pytest.mark.parametrize("family, message", [
        ([PLConvexFunction.constant(square, 0).to_dict()],
         "family entry 0 has n=2, the measure has n=1"),
        ([empty_domain], "family entry 0 has an empty domain"),
        ([], "family needs at least one function"),
        ([{**empty_domain, "domain": {"dim": 1, "vertices": [["1/0"], ["1"]]}}],
         "bad family entry 0: a rational with a zero denominator"),
        ([PLConvexFunction.constant(square, 0).to_dict(),
          {**empty_domain, "domain": {"dim": 1, "vertices": [["-1"], ["1"]]},
           "pieces": [{"a": ["0"], "b": "1/0"}]}],
         "bad family entry 1: a rational with a zero denominator"),
    ], ids=["other_n", "empty_domain", "no_functions", "vertex_zero_denominator",
            "offset_zero_denominator"])
    def test_bad_family(self, tmp_path, capsys, family, message):
        path = tmp_path / "gw.json"
        gw_input_file(tmp_path)
        payload = json.loads(path.read_text())
        payload["family"] = family
        path.write_text(json.dumps(payload))
        assert run("gw", "--in", str(path), "--j-list", "2",
                   "--out", str(tmp_path / "gwrep")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "gwrep.json").exists()

    @pytest.mark.parametrize("where", [
        "weight", "family_vertex", "weight_rational", "coordinate_rational",
        "family_vertex_rational", "family_offset_rational"])
    def test_non_finite_number(self, tmp_path, capsys, where):
        # 1e400 is a valid JSON number that overflows to infinity; the
        # string "1e999" is an exact rational that no float can hold
        path = tmp_path / "gw.json"
        gw_input_file(tmp_path)
        payload = json.loads(path.read_text())
        atoms = payload["measure"]["atoms"]
        family = payload["family"][0]
        if where == "weight":
            atoms[0]["w"] = "HUGE"
        elif where == "family_vertex":
            family["domain"]["vertices"][0] = ["HUGE"]
        elif where == "weight_rational":
            # balanced, so only the size of the weights is wrong
            for atom, w in zip(atoms, ("1e999", "-2e999", "1e999")):
                atom["w"] = w
        elif where == "coordinate_rational":
            atoms[0]["x"], atoms[2]["x"] = ["-1e999"], ["1e999"]
        elif where == "family_vertex_rational":
            family["domain"]["vertices"][0] = ["-1e999"]
        else:
            family["pieces"][0]["b"] = "1e999"
        path.write_text(json.dumps(payload).replace('"HUGE"', "1e400"))
        assert run("gw", "--in", str(path), "--j-list", "2",
                   "--out", str(tmp_path / "gwrep")) == 2
        err = capsys.readouterr().err
        expect = "beyond float range" if where.endswith("_rational") else "Infinity"
        assert str(path) in err and expect in err
        assert not (tmp_path / "gwrep.json").exists()

    @pytest.mark.parametrize("n, key, value", [
        (1, "n", 1.7), (1, "n", True), (1, "n", "1"), (1, "atoms", {}),
        (2, "atom x", "10"), (1, "atom x", "1")],
        ids=["n_float", "n_bool", "n_string", "atoms_object", "x_string_n2",
             "x_string_n1"])
    def test_measure_schema(self, tmp_path, capsys, n, key, value):
        # each of these once read as n = 1, as the empty measure, or as
        # an atom with one coordinate per character: "10" as (1, 0)
        path = tmp_path / "gw.json"
        gw_input_file(tmp_path, n=n, atoms=[
            {"x": ["1"] + ["0"] * (n - 1), "w": "1"},
            {"x": ["0"] * n, "w": "-2"},
            {"x": ["-1"] + ["0"] * (n - 1), "w": "1"}])
        payload = json.loads(path.read_text())
        if key == "atom x":
            payload["measure"]["atoms"][0]["x"] = value
        else:
            payload["measure"][key] = value
        path.write_text(json.dumps(payload))
        assert run("gw", "--in", str(path), "--j-list", "2",
                   "--out", str(tmp_path / "gwrep")) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"measure {key} must be a JSON" in err
        assert not (tmp_path / "gwrep.json").exists()

    def test_missing_family_key(self, tmp_path):
        path = tmp_path / "nofam.json"
        path.write_text(json.dumps({"measure": {"n": 1, "atoms": []}}))
        assert run("gw", "--in", str(path), "--out", "x") == 2


class TestDecompose:
    def test_registry_round(self, tmp_path):
        from epival.valuations import (BumpKernel, PlaneDensity,
                                       ValuationSpec, save_registry)
        reg = {
            "g": ValuationSpec("gradient", 1,
                               plane=PlaneDensity(1, BumpKernel((0.0,), 1.0),
                                                  1.0)),
            "d": ValuationSpec("dual_density", 1,
                               dual_atoms=(((0.5,), 1.0),)),
        }
        path = tmp_path / "reg.json"
        save_registry(reg, str(path))
        out = str(tmp_path / "dec")
        assert run("decompose", "--in", str(path), "--cases", "2",
                   "--out", out) == 0
        payload = json.loads((tmp_path / "dec.json").read_text())
        names = {row["valuation"] for row in payload["per_case"]}
        assert names == {"g", "d", "combined"}

    def test_registry_of_another_n(self, tmp_path, capsys):
        from epival.valuations import ValuationSpec, save_registry
        path = tmp_path / "reg.json"
        save_registry({"d": ValuationSpec("dual_density", 1,
                                          dual_atoms=(((0.5,), 1.0),))},
                      str(path))
        assert run("decompose", "--in", str(path), "--n", "2") == 2
        assert "not defined for n=2" in capsys.readouterr().err

    def test_empty_registry(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text("{}")
        assert run("decompose", "--in", str(path)) == 2

    @pytest.mark.parametrize("path, value", [
        (("dual-atoms", "atoms", 0, "x"), ["1e999"]),
        (("dual-atoms", "atoms", 0, "w"), 10 ** 400),
        (("grad-bump", "plane", "kernel", "height"), "1e999"),
        (("grad-bump", "plane", "kernel", "height"), 10 ** 400),
        (("grad-bump", "plane", "kernel", "center"), [{}]),
    ], ids=["x-inf", "w-huge", "height-inf", "height-huge", "center-object"])
    def test_registry_number_not_a_finite_float(self, tmp_path, capsys, path, value):
        payload = json.loads(REGISTRY.read_text())
        entry = payload
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        reg = tmp_path / "reg.json"
        reg.write_text(json.dumps(payload))
        assert run("decompose", "--in", str(reg), "--cases", "1") == 2
        assert "bad registry" in capsys.readouterr().err

    def test_a_valuation_that_overflows(self, tmp_path, capsys):
        # the registry reads cleanly, but y ** 1000 overflows at |y| > 2
        payload = {"big": {"form": "gradient", "n": 1, "name": "big", "plane": {
            "n": 1, "support_radius": 10,
            "kernel": {"kind": "poly", "terms": [[[1000], 1.0]]}}}}
        reg = tmp_path / "reg.json"
        reg.write_text(json.dumps(payload))
        out = tmp_path / "dec"
        assert run("decompose", "--in", str(reg), "--cases", "3",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "error: the valuation at the scaling t = " in err
        assert "is not finite" in err and "Traceback" not in err
        assert not (tmp_path / "dec.json").exists()

    def test_non_positive_tolerance(self, tmp_path, capsys):
        from epival.valuations import ValuationSpec, save_registry
        path = tmp_path / "reg.json"
        save_registry({"d": ValuationSpec("dual_density", 1,
                                          dual_atoms=(((0.5,), 1.0),))},
                      str(path))
        out = tmp_path / "dec"
        assert run("decompose", "--in", str(path), "--tol-quad", "-1",
                   "--out", str(out)) == 2
        assert "tolerances must be positive" in capsys.readouterr().err
        assert not (tmp_path / "dec.json").exists()


@pytest.mark.parametrize("command, key", [
    ("verify", "tol-geom"), ("verify", "sigma"), ("decompose", "tol-quad")])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_tolerances_must_be_finite_and_positive(tmp_path, capsys, command,
                                                key, value, source):
    cfg = tmp_path / "run.cfg"
    lines = ["suite=conjugate", "cases=1", f"in={REGISTRY}", f"out={tmp_path / 'rep'}"]
    if command == "decompose":
        lines.remove("suite=conjugate")
    if source == "config":
        lines.append(f"{key}={value}")
    cfg.write_text("\n".join(lines) + "\n")
    argv = [command, "--config", str(cfg)]
    if source == "flag":
        argv.append(f"--{key}={value}")
    assert run(*argv) == 2
    assert "tolerances must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_each_subcommand_rejects_flags_it_does_not_read(capsys):
    unread = (("verify", ("--in", "x.json")), ("verify", ("--tol-quad", "1e-6")),
              ("decompose", ("--sigma", "3")), ("gw", ("--n", "1")),
              ("minkowski", ("--dim", "2")))
    for command, flag in unread:
        assert run(command, *flag) == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # scipy is a test reference only; the package never imports it
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import epival.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def data_with(tmp_path, name, path, value):
    """The shipped data/NAME with the field at path set to value."""
    payload = json.loads((DATA / name).read_text())
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    infile = tmp_path / name
    infile.write_text(json.dumps(payload))
    return str(infile)


_READERS = {"gw_input.json": ("gw", "--j-list", "2"),
            "registry.json": ("decompose", "--cases", "1"),
            "square_measure.json": ("minkowski",)}


def assert_rejected(tmp_path, capsys, name, path, value, says):
    """The mutated input exits 2 from main, with no exception, the file
    named and nothing written to --out."""
    infile = data_with(tmp_path, name, path, value)
    command, *flags = _READERS[name]
    assert run(command, "--in", infile, *flags, "--out", str(tmp_path / "rep")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {infile}: ") and says in err, err
    assert not list(tmp_path.glob("rep*"))


@pytest.mark.parametrize("key, value", [("x", ["1/0"]), ("w", "1/0")])
@pytest.mark.parametrize("atom", [0, 2])
def test_zero_denominator_in_a_measure_atom(tmp_path, capsys, atom, key, value):
    assert_rejected(tmp_path, capsys, "gw_input.json", ("measure", "atoms", atom, key),
                    value, "a rational with a zero denominator in measure atom")


@pytest.mark.parametrize("width", [0, -1, 0.0, "1e-999"])
def test_bump_width_must_be_positive(tmp_path, capsys, width):
    assert_rejected(tmp_path, capsys, "registry.json",
                    ("grad-bump", "plane", "kernel", "width"), width,
                    "plane kernel width must be positive")


@pytest.mark.parametrize("path", [("dual-atoms", "atoms", 0, "x"),
                                  ("grad-bump", "plane", "kernel", "center")],
                         ids=["dual_atom_x", "bump_center"])
@pytest.mark.parametrize("value", [[], [1, 2, 3]], ids=["empty", "three"])
def test_registry_vectors_have_n_coordinates(tmp_path, capsys, path, value):
    assert_rejected(tmp_path, capsys, "registry.json", path, value,
                    "must be a JSON array of n = 1 coordinates")


SPHERE_SPEC = {"form": "sphere", "n": 1, "sphere": {
    "d": 2, "margin": 0.5, "kernel": {"kind": "const", "value": 1.0}}}


@pytest.mark.parametrize("name, path, value, says", [
    *[("gw_input.json", ("family", 0, "n"), v, "function n must")
      for v in (None, "x", -1, 1.5, 10 ** 19)],
    ("gw_input.json", ("family", 0, "domain", "dim"), 1.5, "domain dim must"),
    ("gw_input.json", ("family", 0, "domain", "dim"), True, "domain dim must"),
    ("square_measure.json", ("dim",), 2.5, "measure dim must"),
    ("registry.json", ("grad-bump", "n"), 1.5, "'grad-bump' n must"),
    ("registry.json", ("grad-bump", "n"), True, "'grad-bump' n must"),
    ("registry.json", ("grad-bump", "plane", "n"), 1.5, "plane n must"),
    ("registry.json", ("grad-bump", "plane", "n"), True, "plane n must"),
    ("registry.json", ("grad-bump", "plane", "n"), 2, "plane n must equal 1"),
    ("registry.json", ("grad-bump",), {**SPHERE_SPEC, "sphere": {
        **SPHERE_SPEC["sphere"], "d": 2.5}}, "sphere d must"),
    ("registry.json", ("grad-bump",), {**SPHERE_SPEC, "sphere": {
        **SPHERE_SPEC["sphere"], "d": 3}}, "sphere d must equal 2"),
], ids=["family_n_null", "family_n_string", "family_n_negative", "family_n_float",
        "family_n_large", "domain_dim_float", "domain_dim_bool", "measure_dim_float",
        "spec_n_float", "spec_n_bool", "plane_n_float", "plane_n_bool", "plane_n_other",
        "sphere_d_float", "sphere_d_other"])
def test_integer_fields_are_json_integers_that_agree(tmp_path, capsys, name, path,
                                                     value, says):
    assert_rejected(tmp_path, capsys, name, path, value, says)


@pytest.mark.parametrize("margin", [None, 0, -0.5])
def test_sphere_form_needs_a_positive_margin(tmp_path, capsys, margin):
    # at evaluation, where a missing margin once exited 1
    spec = {**SPHERE_SPEC, "sphere": {**SPHERE_SPEC["sphere"], "margin": margin}}
    assert_rejected(tmp_path, capsys, "registry.json", ("grad-bump",), spec,
                    "sphere margin must be positive in the sphere form")


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "conjugate", "--cases", "1", "--seed", "-1"),
    ("decompose", "--in", str(REGISTRY), "--cases", "1", "--seed", "-1")])
def test_negative_seed(tmp_path, capsys, argv):
    assert run(*argv, "--out", str(tmp_path / "rep")) == 2
    assert "nonnegative seed" in capsys.readouterr().err
    assert not list(tmp_path.glob("rep*"))


@pytest.mark.parametrize("text, says", [
    (b'{"dim": 2, "atoms": [{"n": [1, 0], "w": "\xff"}]}', "is not text"),
    (b'{"dim": 2, "atoms": [{"n": ' + b"[" * 5000 + b"]" * 5000 + b', "w": 1}]}',
     "nests arrays or objects too deeply")], ids=["not_utf8", "deep"])
def test_unreadable_json(tmp_path, capsys, text, says):
    path = tmp_path / "measure.json"
    path.write_bytes(text)
    out = tmp_path / "body.json"
    assert run("minkowski", "--in", str(path), "--out", str(out)) == 2
    assert says in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e-1000", "1e-99999", "1e-1_0000"])
def test_decimal_exponent_has_at_most_three_digits(tmp_path, capsys, value):
    # Fraction would build 10**|exponent|: "1e-100000000" took minutes
    assert_rejected(tmp_path, capsys, "gw_input.json",
                    ("family", 0, "domain", "vertices", 0, 0), value,
                    "has a decimal exponent of four digits or more")


@pytest.mark.parametrize("argv", [
    ("minkowski", "--in", "MISSING", "--out", "OUT"),
    ("minkowski", "--in", str(SQUARE_MEASURE), "--out", "NODIR/body.json"),
    ("gw", "--in", "MISSING", "--out", "OUT"),
    ("gw", "--in", str(DATA / "gw_input.json"), "--j-list", "2", "--out", "NODIR/rep"),
    ("decompose", "--in", "MISSING"),
    ("decompose", "--in", str(REGISTRY), "--cases", "1", "--out", "NODIR/rep"),
    ("verify", "--config", "MISSING"),
    ("verify", "--suite", "conjugate", "--cases", "1", "--out", "NODIR/rep")],
    ids=["minkowski_in", "minkowski_out", "gw_in", "gw_out", "decompose_in",
         "decompose_out", "config", "verify_out"])
def test_a_file_that_cannot_be_read_or_written(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a in ("MISSING", "OUT") or a.startswith("NODIR")
            else a for a in argv]
    assert run(*argv) == 2
    assert "No such file or directory" in capsys.readouterr().err
