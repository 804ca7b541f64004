"""Canonical report serialization."""

import json
import math
from fractions import Fraction as F

import pytest

from epival.dual import GwReport, GwRow
from epival.report import SuiteReport, dumps_canonical, format_float


class TestFormatFloat:
    def test_seventeen_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(-2.5e-9) == "-2.5000000000000001e-09"

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            format_float(math.nan)
        with pytest.raises(ValueError):
            format_float(math.inf)


class TestCanonicalJson:
    def test_sorted_and_parseable(self):
        text = dumps_canonical({"b": 1, "a": [1.5, None, True], "c": "x"})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert json.loads(text) == {"a": [1.5, None, True], "b": 1, "c": "x"}

    def test_floats_full_precision(self):
        text = dumps_canonical({"v": 0.1})
        assert "0.10000000000000001" in text
        assert json.loads(text)["v"] == 0.1

    def test_fraction_as_string(self):
        assert json.loads(dumps_canonical({"q": F(-3, 7)}))["q"] == "-3/7"

    def test_stable_bytes(self):
        obj = {"rows": [{"residual": 1 / 3, "case": k} for k in range(3)]}
        assert dumps_canonical(obj) == dumps_canonical(obj)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_canonical({"x": object()})
        with pytest.raises(TypeError):
            dumps_canonical({1: "non-string key"})

    def test_empty_containers(self):
        assert json.loads(dumps_canonical({"a": [], "b": {}})) == {
            "a": [], "b": {}}


def small_report():
    rows = [
        {"case": 0, "residual": 0.0, "passed": True},
        {"case": 1, "residual": 2e-3, "passed": False},
        {"case": 2, "residual": 1e-12, "passed": True},
    ]
    return SuiteReport("demo", {"seed": 7}, rows)


class TestSuiteReport:
    def test_counts(self):
        r = small_report()
        assert r.passed == 2
        assert r.failed == 1
        assert not r.all_passed
        assert r.worst_residual == 2e-3

    def test_json_shape(self):
        payload = json.loads(small_report().to_json())
        assert payload["suite"] == "demo"
        assert payload["cases"] == 3
        assert payload["pass"] == 2
        assert payload["fail"] == 1
        assert len(payload["per_case"]) == 3

    def test_csv(self):
        lines = small_report().to_csv().strip().split("\n")
        assert lines[0] == "case,residual,passed"
        assert lines[1] == "0,0,true"
        assert lines[2].endswith(",false")

    def test_write_strips_extension(self, tmp_path):
        base = str(tmp_path / "out.json")
        jpath, cpath = small_report().write(base)
        assert jpath == str(tmp_path / "out.json")
        assert cpath == str(tmp_path / "out.csv")
        assert json.loads(open(jpath).read())["cases"] == 3
        # every report type shares the writer
        report = gw_report()
        assert report.write(str(tmp_path / "gw.csv")) == (
            str(tmp_path / "gw.json"), str(tmp_path / "gw.csv"))
        assert (tmp_path / "gw.json").read_text() == report.to_json()
        assert (tmp_path / "gw.csv").read_text() == report.to_csv()

    def test_empty_report(self):
        r = SuiteReport("demo", {}, [])
        assert r.all_passed
        assert r.worst_residual == 0.0


def gw_report(sup_error=0.1):
    rows = (GwRow(2, sup_error, 1e-17, 0.0, 1.09375, 3e-9),
            GwRow(4, 0.05, 0.0, 2.5e-18, 1.0, 1 / 3))
    bodies = {"2": {"ball_radius": 6.3746070718706243, "main_edges": 12,
                    "grid": {"h": "1/64", "shape": [2], "values": [0.0, 0.5]}}}
    return GwReport(rows, bodies)


class TestGwReport:
    COLS = ("j", "sup_error", "moment_zero", "moment_first",
            "support_radius", "representation_residual")

    def test_json_parses_like_the_stdlib_encoding(self):
        rep = gw_report()
        plain = json.dumps({"rows": [{c: getattr(r, c) for c in self.COLS}
                                     for r in rep.rows],
                            "bodies": rep.bodies}, sort_keys=True, indent=2)
        assert json.loads(rep.to_json()) == json.loads(plain)
        assert rep.to_json() == dumps_canonical(json.loads(plain))

    def test_csv_cells(self):
        lines = gw_report().to_csv().splitlines()
        assert lines[0] == ",".join(self.COLS)
        for line, r in zip(lines[1:], gw_report().rows):
            assert line == ",".join([str(r.j)] + [
                format(getattr(r, c), ".17g") for c in self.COLS[1:]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            gw_report(math.nan).to_json()
        with pytest.raises(ValueError):
            gw_report(math.nan).to_csv()
