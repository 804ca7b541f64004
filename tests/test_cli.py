"""Command line harness: subcommands, config merging, exit codes."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from epival.bodies import Polytope
from epival.cli import SuiteConfig, main, run_suite
from epival.dual import DualAtomMeasure
from epival.functions import PLConvexFunction
from epival.report import dumps_canonical

SQUARE_MEASURE = Path(__file__).resolve().parent.parent / "data" / "square_measure.json"


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
    ], ids=["other_n", "empty_domain", "no_functions"])
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


def test_each_subcommand_rejects_flags_it_does_not_read(capsys):
    unread = (("verify", ("--in", "x.json")), ("verify", ("--tol-quad", "1e-6")),
              ("decompose", ("--sigma", "3")), ("gw", ("--n", "1")),
              ("minkowski", ("--dim", "2")))
    for command, flag in unread:
        assert run(command, *flag) == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
