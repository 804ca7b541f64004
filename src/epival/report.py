"""Deterministic report serialization.

Reports must be byte-identical across runs for one config and seed, so
floats are rendered through one fixed 17-significant-digit format and
JSON objects are emitted with sorted keys by a local serializer (the
stdlib encoder does not expose float formatting).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    return format(float(x), ".17g")


def _emit(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = sorted(obj.items())
        for k, (key, val) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            out.append("  " * (indent + 1) + json.dumps(key) + ": ")
            _emit(val, out, indent + 1)
            out.append(",\n" if k + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for k, val in enumerate(obj):
            out.append("  " * (indent + 1))
            _emit(val, out, indent + 1)
            out.append(",\n" if k + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, Fraction):
        out.append(json.dumps(str(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, (int, Fraction)):
        return str(v)
    s = str(v)
    if any(c in s for c in ",\"\n"):
        raise ValueError(f"unquotable csv cell {s!r}")
    return s


def csv_text(cols: Sequence[str], rows: Sequence[dict]) -> str:
    """A header line of the columns, then one line per row; a column a
    row lacks is an empty cell."""
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_cell(row.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


class Report:
    """Base of the report types, which render themselves through to_json
    and to_csv."""

    def write(self, base_path: str) -> tuple[str, str]:
        """Write base.json and base.csv; a trailing .json or .csv on the
        base is stripped first."""
        for ext in (".json", ".csv"):
            if base_path.endswith(ext):
                base_path = base_path[: -len(ext)]
        jpath, cpath = base_path + ".json", base_path + ".csv"
        with open(jpath, "w") as fh:
            fh.write(self.to_json())
        with open(cpath, "w") as fh:
            fh.write(self.to_csv())
        return jpath, cpath


@dataclass
class SuiteReport(Report):
    """Per-case results of one suite run, with stable row order."""

    suite: str
    config: dict
    rows: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.rows if r["passed"])

    @property
    def failed(self) -> int:
        return len(self.rows) - self.passed

    @property
    def worst_residual(self) -> float:
        return max((float(r["residual"]) for r in self.rows), default=0.0)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def summary(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "cases": len(self.rows),
            "pass": self.passed,
            "fail": self.failed,
            "worst_residual": self.worst_residual,
            "per_case": self.rows,
        }

    def to_json(self) -> str:
        return dumps_canonical(self.summary())

    def to_csv(self) -> str:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return csv_text(cols, self.rows)
