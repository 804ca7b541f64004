"""Command line harness.

Subcommands: verify (identity suites), decompose (homogeneous component
extraction with rescaling checks), gw (atomic-measure pipeline), and
minkowski (body reconstruction from a surface measure).  All inputs and
reports are JSON; suite reports also get a CSV twin.  Exit codes: 0 all
cases pass, 1 failures or solver errors, 2 usage or schema errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bodies import GeometryError
from .cases import CaseGenerator
from .dual import DualAtomMeasure, gw_pipeline, mollifier_kernel
from .functions import PLConvexFunction
from .measures import (
    SphereMeasure,
    hessian_steiner,
    local_parallel_volume_mc,
    p_t_volume_mc,
    parallel_volume,
)
from .minkowski import NonPositiveMeasure, minkowski_solve
from .report import Report, SuiteReport, dumps_canonical
from .valuations import (
    eval_gradient_valuation,
    eval_sphere_valuation,
    homogeneous_components,
    load_registry,
    zeta_to_eta,
)

SUITES = ("conjugate", "change-of-vars", "steiner")
T_GRID = (0.25, 0.5, 1.0, 2.0)
MC_SAMPLES = 60_000
PROBES_PER_CASE = 100


class CliUsageError(Exception):
    pass


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    n: int
    cases: int
    seed: int
    tol_geom: float
    sigma: float
    out: str | None

    def __post_init__(self):
        if self.suite not in SUITES:
            raise CliUsageError(
                f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if self.n not in (1, 2):
            raise CliUsageError("n must be 1 or 2")
        if self.cases <= 0:
            raise CliUsageError("cases must be positive")
        if min(self.tol_geom, self.sigma) <= 0:
            raise CliUsageError("tolerances must be positive")


def _mc_seed(seed: int, stream: int, index: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(stream, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (1 << 62))


# ---------------------------------------------------------------------------
# suites


def _run_conjugate(cfg: SuiteConfig) -> SuiteReport:
    """Exact agreement of the lower envelope's conjugate with the body's
    support function restricted to the lower halfspace slice."""
    bodies = CaseGenerator(cfg.seed, cfg.n + 1)
    probes = CaseGenerator(cfg.seed, cfg.n)
    rows = []
    for i in range(cfg.cases):
        K = bodies.body(i)
        conj = PLConvexFunction.floor_of(K).fenchel_conjugate()
        worst = Fraction(0)
        for y in probes.rational_points(i, PROBES_PER_CASE):
            lhs = conj.evaluate(y)
            rhs = K.support(tuple(y) + (Fraction(-1),))
            worst = max(worst, abs(lhs - rhs))
        rows.append({"case": i, "residual": float(worst),
                     "passed": worst == 0})
    return SuiteReport("conjugate", _cfg_dict(cfg), rows)


def _run_change_of_vars(cfg: SuiteConfig) -> SuiteReport:
    """Gradient-cell sums against facet-measure pairings of the lifted
    body, for a shared panel of bump densities."""
    gen = CaseGenerator(cfg.seed, cfg.n)
    panel = [(gen.bump_density(k), zeta_to_eta(gen.bump_density(k)))
             for k in range(5)]
    rows = []
    for i in range(cfg.cases):
        u = gen.pl_function(i)
        K = u.body_of()
        worst = 0.0
        for zeta, eta in panel:
            a = eval_gradient_valuation(u, zeta)
            b = eval_sphere_valuation(K, eta)
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
        rows.append({"case": i, "residual": worst,
                     "passed": worst <= cfg.tol_geom})
    return SuiteReport("change-of-vars", _cfg_dict(cfg), rows)


def _steiner_z(err: float, se: float) -> float:
    if err <= 1e-12:
        return 0.0
    if se == 0.0:
        return float("inf")
    return err / se


def _run_steiner(cfg: SuiteConfig) -> SuiteReport:
    """Closed-form Steiner polynomials against seeded Monte Carlo, for
    parallel volumes of bodies and subgradient flow-outs of functions."""
    n = cfg.n
    bodies = CaseGenerator(cfg.seed, n + 1)
    funcs = CaseGenerator(cfg.seed, n)
    n_bodies = (cfg.cases + 1) // 2
    rows = []
    for i in range(cfg.cases):
        if i < n_bodies:
            P = bodies.body(i)
            kind = "body"
            worst = 0.0
            for t in T_GRID:
                want = parallel_volume(P, t)
                est, se = local_parallel_volume_mc(
                    P, None, t, MC_SAMPLES, _mc_seed(cfg.seed, 10, i))
                worst = max(worst, _steiner_z(abs(est - want), se))
        else:
            u = funcs.pl_function(i)
            kind = "function"
            bound = max(
                (abs(g) for piece in u.pieces for g in piece[0]),
                default=Fraction(0)) + 1
            worst = 0.0
            for t in T_GRID:
                want = float(hessian_steiner(u, Fraction(t), bound))
                est, se = p_t_volume_mc(
                    u, None, t, MC_SAMPLES, _mc_seed(cfg.seed, 11, i),
                    gradient_bound=float(bound))
                worst = max(worst, _steiner_z(abs(est - want), se))
        rows.append({"case": i, "kind": kind, "residual": worst,
                     "passed": worst <= cfg.sigma})
    return SuiteReport("steiner", _cfg_dict(cfg), rows)


_RUNNERS = {
    "conjugate": _run_conjugate,
    "change-of-vars": _run_change_of_vars,
    "steiner": _run_steiner,
}


def _cfg_dict(cfg: SuiteConfig) -> dict:
    return {"suite": cfg.suite, "n": cfg.n, "cases": cfg.cases,
            "seed": cfg.seed, "tol_geom": cfg.tol_geom, "sigma": cfg.sigma}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    return _RUNNERS[cfg.suite](cfg)


# ---------------------------------------------------------------------------
# config file and argument plumbing


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliUsageError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise CliUsageError(f"cannot read config {path}: {exc}")
    return out


def _effective(args, key: str, conv, default):
    """Flag wins over config file wins over the default."""
    cli = getattr(args, key.replace("-", "_"), None)
    if cli is not None:
        return cli
    cfgfile = getattr(args, "_config_values", {})
    if key in cfgfile:
        try:
            return conv(cfgfile[key])
        except ValueError as exc:
            raise CliUsageError(f"config key {key}: {exc}")
    return default


def _parse_j_list(text: str) -> tuple[int, ...]:
    try:
        js = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise CliUsageError(f"bad j list {text!r}")
    if not js or min(js) <= 0:
        raise CliUsageError(f"bad j list {text!r}")
    return js


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliUsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{path} is not valid JSON: {exc}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliUsageError(f"cannot write {path}: {exc}")


def _write_report(report: Report, base: str) -> None:
    try:
        jpath, cpath = report.write(base)
    except OSError as exc:
        raise CliUsageError(f"cannot write {base}: {exc}")
    print(f"wrote {jpath} and {cpath}")


# ---------------------------------------------------------------------------
# subcommands


_SUITE_CASE_DEFAULTS = {"conjugate": 100, "change-of-vars": 50, "steiner": 10}


def _cmd_verify(args) -> int:
    suite = _effective(args, "suite", str, None)
    if suite is None:
        raise CliUsageError("verify needs --suite (or a config file entry)")
    cfg = SuiteConfig(
        suite=suite,
        n=_effective(args, "n", int, 1),
        cases=_effective(args, "cases", int,
                         _SUITE_CASE_DEFAULTS.get(suite, 10)),
        seed=_effective(args, "seed", int, 7),
        tol_geom=_effective(args, "tol-geom", float, 1e-9),
        sigma=_effective(args, "sigma", float, 3.0),
        out=_effective(args, "out", str, None),
    )
    report = run_suite(cfg)
    print(f"suite={report.suite} cases={len(report.rows)} "
          f"pass={report.passed} fail={report.failed} "
          f"worst_residual={report.worst_residual:.17g}")
    if cfg.out:
        _write_report(report, cfg.out)
    return 0 if report.all_passed else 1


def _cmd_decompose(args) -> int:
    infile = _effective(args, "in", str, None)
    if infile is None:
        raise CliUsageError("decompose needs --in REGISTRY.json")
    n = _effective(args, "n", int, 1)
    cases = _effective(args, "cases", int, 5)
    seed = _effective(args, "seed", int, 7)
    tol = _effective(args, "tol-quad", float, 1e-6)
    out = _effective(args, "out", str, None)
    if n not in (1, 2) or cases <= 0:
        raise CliUsageError("need n in {1,2} and positive cases")
    if tol <= 0:
        raise CliUsageError("tolerances must be positive")
    try:
        registry = load_registry(infile)
    except OSError as exc:
        raise CliUsageError(f"cannot read {infile}: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CliUsageError(f"bad registry {infile}: {exc}")
    if not registry:
        raise CliUsageError(f"registry {infile} is empty")
    wrong_n = sorted(k for k, spec in registry.items() if spec.n != n)
    if wrong_n:
        raise CliUsageError(
            f"registry {infile}: {', '.join(wrong_n)} not defined for n={n}")
    targets: list[tuple[str, object]] = sorted(registry.items())
    if len(registry) > 1:
        members = tuple(registry[k] for k in sorted(registry))

        def combined(u, members=members):
            return sum(Z(u) for Z in members)

        targets.append(("combined", combined))

    gen = CaseGenerator(seed, n)
    rows = []
    for name, Z in targets:
        for i in range(cases):
            u = gen.pl_function(i)
            comps = homogeneous_components(Z, u, n)
            scaled = homogeneous_components(Z, u.epi_scale(3), n)
            worst = 0.0
            for deg, (c, s) in enumerate(zip(comps, scaled)):
                want = (3 ** deg) * c
                worst = max(worst, abs(s - want) / max(1.0, abs(want)))
            rows.append({
                "valuation": name, "case": i, "residual": worst,
                "passed": worst <= tol,
                "components": " ".join(format(c, ".17g") for c in comps),
            })
    report = SuiteReport("decompose",
                         {"in": infile, "n": n, "cases": cases,
                          "seed": seed, "tol_quad": tol}, rows)
    print(f"decompose valuations={len(targets)} cases={cases} "
          f"pass={report.passed} fail={report.failed} "
          f"worst_residual={report.worst_residual:.17g}")
    if out:
        _write_report(report, out)
    return 0 if report.all_passed else 1


def _parse_family(payload) -> list[PLConvexFunction]:
    if not isinstance(payload, list):
        raise CliUsageError("family must be a JSON array of functions")
    try:
        return [PLConvexFunction.from_dict(d) for d in payload]
    except (KeyError, TypeError, ValueError, GeometryError) as exc:
        raise CliUsageError(f"bad family entry: {exc}")


def _cmd_gw(args) -> int:
    infile = _effective(args, "in", str, None)
    out = _effective(args, "out", str, None)
    if infile is None or out is None:
        raise CliUsageError("gw needs --in INPUT.json and --out BASE")
    j_list = _parse_j_list(_effective(args, "j-list", str, "2,4,8,16"))
    payload = _load_json(infile)
    try:
        mu = DualAtomMeasure.from_dict(payload["measure"])
        if mu.n != 1:
            raise CliUsageError(
                f"{infile}: gw takes a measure in one variable, got n={mu.n}")
        family = _parse_family(payload["family"])
        if not family:
            raise CliUsageError(f"{infile}: family needs at least one function")
        for i, f in enumerate(family):
            if f.n != mu.n:
                raise CliUsageError(f"{infile}: family entry {i} has n={f.n}, "
                                    f"the measure has n={mu.n}")
            if f.is_empty:
                raise CliUsageError(f"{infile}: family entry {i} has an empty domain")
        bump = payload.get("bump", "smooth")
        mollifier_kernel(bump, mu.n)  # rejects an unknown bump here
    except (KeyError, TypeError) as exc:
        raise CliUsageError(f"{infile}: expected measure/family keys: {exc}")
    except ValueError as exc:
        raise CliUsageError(f"{infile}: {exc}")
    report = gw_pipeline(mu, bump, j_list, family)
    for row in report.rows:
        print(f"j={row.j} sup_error={row.sup_error:.17g} "
              f"representation_residual={row.representation_residual:.17g}")
    _write_report(report, out)
    return 0


def _cmd_minkowski(args) -> int:
    infile = _effective(args, "in", str, None)
    out = _effective(args, "out", str, None)
    if infile is None or out is None:
        raise CliUsageError("minkowski needs --in MEASURE.json and --out BODY.json")
    payload = _load_json(infile)
    try:
        mu = SphereMeasure.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliUsageError(f"{infile}: bad measure: {exc}")
    if mu.dim not in (2, 3):
        raise CliUsageError("minkowski reconstructs bodies in dimension 2 or 3")
    try:
        body = minkowski_solve(mu)
    except NonPositiveMeasure as exc:
        raise CliUsageError(f"{infile}: bad measure: {exc}")
    _write_text(out, dumps_canonical(body.to_dict()))
    print(f"solved dim={body.ambient_dim} vertices={len(body.vertices)}; "
          f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


# the flags each subcommand reads besides --config, and their arguments
_FLAGS = {"suite": {"choices": SUITES}, "n": {"type": int},
          "cases": {"type": int}, "seed": {"type": int},
          "tol-geom": {"type": float}, "tol-quad": {"type": float},
          "sigma": {"type": float}, "out": {}, "in": {}, "j-list": {}}
_SUBCOMMANDS = (
    ("verify", _cmd_verify, ("suite", "n", "cases", "seed", "tol-geom",
                             "sigma", "out")),
    ("decompose", _cmd_decompose, ("in", "n", "cases", "seed", "tol-quad",
                                   "out")),
    ("gw", _cmd_gw, ("in", "out", "j-list")),
    ("minkowski", _cmd_minkowski, ("in", "out")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epival",
        description="identity suites, valuation decomposition, the "
                    "atomic-measure pipeline, and body reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value defaults file")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.config:
        try:
            args._config_values = _read_config(args.config)
        except CliUsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        args._config_values = {}
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
