"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces epival's public functions with timing wrappers while
a traced pass runs and puts the originals back afterwards; nothing under
``src/`` is edited.  A name bound by ``from .x import f`` is replaced in
every module that holds it, so calls made inside the package are counted
too, and ``cached_property`` layers are wrapped on their class.

A span is open while a wrapped call runs.  Its self time is its duration
minus the durations of the spans opened inside it.  ``linalg`` spans run
millions of times, so they are only aggregated per name; every other span
is kept in memory and written out by ``write_spans`` at the end of a run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from functools import cached_property

# (span name, module, attribute) of every wrapped entry point; a span
# name shared by several entries adds their times together
TARGETS = (
    ("bodies.construct", "bodies", "Polytope.construct"),
    ("bodies.clip", "bodies", "Polytope.clip"),
    ("bodies.intersect", "bodies", "Polytope.intersect"),
    ("bodies.from_halfspaces", "bodies", "Polytope.from_halfspaces"),
    ("bodies.boundary_cycle", "bodies", "Polytope.boundary_cycle"),
    ("bodies.volume", "bodies", "Polytope.volume"),
    ("functions.floor_of", "functions", "PLConvexFunction.floor_of"),
    ("functions.from_pieces", "functions", "PLConvexFunction.from_pieces"),
    ("functions.cells", "functions", "PLConvexFunction.cells"),
    ("functions.fenchel_conjugate", "functions",
     "PLConvexFunction.fenchel_conjugate"),
    ("functions.pointwise_min", "functions", "PLConvexFunction.pointwise_min"),
    ("functions.pointwise_max", "functions", "PLConvexFunction.pointwise_max"),
    ("functions.evaluate", "functions", "PLConvexFunction.evaluate"),
    ("functions.evaluate", "functions", "MaxAffine.evaluate"),
    ("spherical.from_generators", "spherical",
     "SphericalPatch.from_generators"),
    ("spherical.integrate", "spherical", "SphericalPatch.integrate"),
    ("spherical.in_cone", "spherical", "in_cone"),
    ("measures.surface_area_measure", "measures", "surface_area_measure"),
    ("measures.support_measure", "measures", "support_measure"),
    ("measures.parallel_volume", "measures", "parallel_volume"),
    ("measures.hessian", "measures", "hessian_measure"),
    ("measures.hessian", "measures", "hessian_total"),
    ("measures.hessian", "measures", "hessian_steiner"),
    ("measures.nearest_points", "measures", "nearest_points"),
    ("measures.mc", "measures", "local_parallel_volume_mc"),
    ("measures.mc", "measures", "p_t_volume_mc"),
    ("valuations.eval", "valuations", "eval_gradient_valuation"),
    ("valuations.eval", "valuations", "eval_sphere_valuation"),
    ("valuations.residual", "valuations", "valuation_residual"),
    ("dual.mollify", "dual", "mollify"),
    ("dual.plane_to_sphere_density", "dual", "plane_to_sphere_density"),
    ("dual.eval_dual", "dual", "eval_dual"),
    ("dual.gw_pipeline", "dual", "gw_pipeline"),
    # named minkowski.solve2 or minkowski.solve3 by dimension at call time
    ("minkowski.solve", "minkowski", "minkowski_solve"),
    ("cases", "cases", "CaseGenerator.body"),
    ("cases", "cases", "CaseGenerator.pl_function"),
    ("cases", "cases", "CaseGenerator.split_pair"),
    ("cases", "cases", "CaseGenerator.rational_points"),
    ("report", "report", "dumps_canonical"),
)

# every per-layer metric a traced run reports, in BENCHMARK.json order:
# (name, unit, better)
LAYER_METRICS = (
    ("linalg.calls", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("bodies.construct.calls", "count", "lower"),
    ("bodies.construct.self_s", "s", "lower"),
    ("bodies.construct.points_in", "count", "lower"),
    ("bodies.construct.keep_ratio", "ratio", "higher"),
    ("bodies.clip.self_s", "s", "lower"),
    ("bodies.intersect.self_s", "s", "lower"),
    ("bodies.from_halfspaces.self_s", "s", "lower"),
    ("bodies.boundary_cycle.self_s", "s", "lower"),
    ("bodies.volume.self_s", "s", "lower"),
    ("functions.floor_of.self_s", "s", "lower"),
    ("functions.from_pieces.self_s", "s", "lower"),
    ("functions.cells.self_s", "s", "lower"),
    ("functions.fenchel_conjugate.self_s", "s", "lower"),
    ("functions.pointwise_min.self_s", "s", "lower"),
    ("functions.pointwise_max.self_s", "s", "lower"),
    ("functions.pointwise_min.calls", "count", "lower"),
    ("functions.evaluate.calls", "count", "lower"),
    ("functions.evaluate.self_s", "s", "lower"),
    ("spherical.from_generators.calls", "count", "lower"),
    ("spherical.from_generators.self_s", "s", "lower"),
    ("spherical.integrate.self_s", "s", "lower"),
    ("spherical.in_cone.calls", "count", "lower"),
    ("measures.surface_area_measure.self_s", "s", "lower"),
    ("measures.support_measure.self_s", "s", "lower"),
    ("measures.parallel_volume.self_s", "s", "lower"),
    ("measures.hessian.self_s", "s", "lower"),
    ("measures.nearest_points.self_s", "s", "lower"),
    ("measures.nearest_points.points", "count", "lower"),
    ("measures.mc.self_s", "s", "lower"),
    ("valuations.eval.self_s", "s", "lower"),
    ("valuations.residual.self_s", "s", "lower"),
    ("dual.mollify.self_s", "s", "lower"),
    ("dual.plane_to_sphere_density.self_s", "s", "lower"),
    ("dual.eval_dual.self_s", "s", "lower"),
    ("dual.gw_pipeline.self_s", "s", "lower"),
    ("minkowski.solve.calls", "count", "lower"),
    ("minkowski.solve.atoms_in", "count", "lower"),
    ("minkowski.solve2.self_s", "s", "lower"),
    ("minkowski.solve3.self_s", "s", "lower"),
    ("cases.self_s", "s", "lower"),
    ("report.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span recorder; ``install`` wraps the entry points, ``uninstall``
    restores them.  Spans opened while ``case`` is set carry its id."""

    def __init__(self):
        self.case: str | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # ---- span bookkeeping --------------------------------------------

    def _wrap(self, name, fn, *, keep=True, prepare=None, finish=None):
        """Timing wrapper around fn.  prepare(args, kwargs) may return a
        span name and new arguments; finish(args, result) records counts.
        With keep=False the span is only aggregated, never stored."""
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span = name
            if prepare is not None:
                span, args, kwargs = prepare(args, kwargs)
            sid = None
            if keep:
                self._next_id += 1
                sid = self._next_id
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                self.calls[span] += 1
                self.self_s[span] += dur - frame[1]
                if keep:
                    parent = stack[-1][2] if stack else None
                    self.spans.append(
                        (sid, parent, self.case, span, frame[0], end))
            if finish is not None:
                finish(args, result)
            return result

        return traced

    # ---- installation ------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, orig, new):
        for mod in [m for k, m in list(sys.modules.items())
                    if k == "epival" or k.startswith("epival.")]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, new)

    def install(self):
        linalg = importlib.import_module("epival.linalg")
        for attr, fn in list(vars(linalg).items()):
            if inspect.isfunction(fn) and fn.__module__ == linalg.__name__:
                self._replace_everywhere(
                    fn, self._wrap("linalg." + attr, fn, keep=False))
        hooks = {
            "bodies.construct": (_construct_prepare, self._construct_finish),
            "measures.nearest_points": (None, self._nearest_finish),
            "minkowski.solve": (self._solve_prepare, None),
        }
        for name, module, attr in TARGETS:
            mod = importlib.import_module("epival." + module)
            prepare, finish = hooks.get(name, (None, None))
            if "." not in attr:
                orig = getattr(mod, attr)
                self._replace_everywhere(orig, self._wrap(
                    name, orig, prepare=prepare, finish=finish))
                continue
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(
                    name, raw.__func__, prepare=prepare, finish=finish))
            elif isinstance(raw, cached_property):
                new = cached_property(self._wrap(name, raw.func))
                new.__set_name__(cls, meth)
            else:
                new = self._wrap(name, raw, prepare=prepare, finish=finish)
            self._set(cls, meth, new)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---- counters at the layer boundaries ----------------------------

    def _construct_finish(self, args, result):
        self.counts["bodies.construct.points_in"] += len(args[0])
        self.counts["bodies.construct.points_out"] += len(result.vertices)

    def _nearest_finish(self, args, result):
        self.counts["measures.nearest_points.points"] += len(result[0])

    def _solve_prepare(self, args, kwargs):
        mu = args[0] if args else kwargs["mu"]
        dim = kwargs.get("dim", args[1] if len(args) > 1 else None)
        if dim is None:
            dim = mu.dim
        self.calls["minkowski.solve"] += 1
        self.counts["minkowski.solve.atoms_in"] += len(mu.atoms)
        return f"minkowski.solve{dim}", args, kwargs

    # ---- results -----------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every LAYER_METRICS value; layers never entered read 0."""
        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if metric == "trace.overhead_s":
                out[metric] = overhead_s
            elif layer == "linalg":
                names = [k for k in self.calls if k.startswith("linalg.")]
                out[metric] = (sum(self.calls[k] for k in names)
                               if kind == "calls" else
                               sum(self.self_s[k] for k in names))
            elif kind == "calls":
                out[metric] = self.calls.get(layer, 0)
            elif kind == "self_s":
                out[metric] = self.self_s.get(layer, 0.0)
            elif kind == "keep_ratio":
                pts = self.counts.get("bodies.construct.points_in", 0)
                kept = self.counts.get("bodies.construct.points_out", 0)
                out[metric] = kept / pts if pts else 0.0
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def write_spans(self, path) -> None:
        """Spans as JSON lines, then one line of per-name aggregates."""
        with open(path, "w") as fh:
            for sid, parent, case, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "case": case, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"aggregate": {
                name: {"calls": self.calls[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)}}) + "\n")


def _construct_prepare(args, kwargs):
    # the point iterable may be a generator: count it once, pass a list
    points = list(args[0]) if args else list(kwargs.pop("points"))
    return "bodies.construct", (points,) + tuple(args[1:]), kwargs
