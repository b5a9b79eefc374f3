"""Layer spans recorded from outside the program.

`Tracer.install()` replaces public functions of lyapmetric's modules with
wrappers that record a span per call: a name, a start, an end and the
enclosing span.  Spans stay in flat in-memory arrays until `write()` saves
them; `layer_metrics()` folds them into the per-layer metrics.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute) of the wrapped callable; "Class.method"
# wraps a method on its class
SPANS = {
    "cli.main": ("lyapmetric.cli", "main"),
    "expressions.parse": ("lyapmetric.expressions", "parse_system"),
    "integrate.solve": ("lyapmetric.integrate", "solve"),
    "dynamics.flow": ("lyapmetric.dynamics", "flow"),
    "dynamics.variational_flow": ("lyapmetric.dynamics", "variational_flow"),
    "dynamics.transverse_flow": ("lyapmetric.dynamics", "transverse_flow"),
    "estimation.les": ("lyapmetric.estimation", "estimate_les"),
    "estimation.gain": ("lyapmetric.estimation", "estimate_gain_function"),
    "estimation.linearized": ("lyapmetric.estimation",
                              "estimate_linearized_decay"),
    "estimation.transverse": ("lyapmetric.estimation",
                              "estimate_transverse_decay"),
    "metric.P": ("lyapmetric.metric", "MetricField.__call__"),
    "metric.tabulate": ("lyapmetric.metric", "MetricField.tabulate"),
    "metric.residual": ("lyapmetric.metric", "lie_derivative_residual"),
    "metric.bounds": ("lyapmetric.metric", "metric_bounds"),
    "geometry.christoffel": ("lyapmetric.geometry", "christoffel"),
    "geometry.distance": ("lyapmetric.geometry", "distance_to_origin"),
    "geometry.dini": ("lyapmetric.geometry", "dini_derivative_V"),
    "stabilization.synthesize": ("lyapmetric.stabilization",
                                 "synthesize_controller"),
}

IMPORT_MODULES = (
    "lyapmetric", "lyapmetric.errors", "lyapmetric.expressions",
    "lyapmetric.systems", "lyapmetric.catalog", "lyapmetric.integrate",
    "lyapmetric.dynamics", "lyapmetric.sampling", "lyapmetric.estimation",
    "lyapmetric.metric", "lyapmetric.geometry", "lyapmetric.stabilization",
    "lyapmetric.cli",
)


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(
            ("integrate.steps", "integrate.rejected", "integrate.fev",
             "geometry.distance.newton_iters",
             "geometry.distance.multiple_shooting",
             "geometry.distance.flagged"), 0)

    # -- recording ----------------------------------------------------------

    def _wrap(self, span, fn):
        nid = self.names.index(span)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self.stack)
        clock = time.perf_counter
        on_result = {"integrate.solve": self._count_solve,
                     "geometry.distance": self._count_distance}.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _count_solve(self, sol):
        c = self.counts
        c["integrate.steps"] += sol.n_steps
        c["integrate.rejected"] += sol.n_rejected
        c["integrate.fev"] += sol.n_fev

    def _count_distance(self, dist):
        c = self.counts
        c["geometry.distance.newton_iters"] += dist.iterations
        c["geometry.distance.multiple_shooting"] += \
            dist.method == "multiple-shooting"
        c["geometry.distance.flagged"] += bool(dist.flagged)

    def install(self):
        """Wrap every SPANS target, including names other modules imported
        with `from ... import`."""
        loaded = [m for k, m in sorted(sys.modules.items())
                  if k == "lyapmetric" or k.startswith("lyapmetric.")]
        for span, (module, attr) in SPANS.items():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(span, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def write(self, path):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))

    @staticmethod
    def span_cost_us(calls=200_000):
        """Cost of one span: a wrapped no-op against the bare no-op."""
        def noop():
            return None

        wrapped = Tracer()._wrap("cli.main", noop)
        timings = []
        for fn in (noop, wrapped):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            timings.append(time.perf_counter() - t0)
        return 1e6 * (timings[1] - timings[0]) / calls

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self):
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        n = name.size
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        # bit k of above[i] is set when span i has an ancestor named names[k];
        # parents precede children, so one forward pass suffices
        above = [0] * n
        names_of = name.tolist()
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                above[i] = above[p] | (1 << names_of[p])
        above = np.array(above, dtype=np.int64)

        ids = {s: k for k, s in enumerate(self.names)}

        def is_(span):
            return name == ids[span]

        def under(*spans):
            mask = 0
            for s in spans:
                mask |= 1 << ids[s]
            return (above & mask) != 0

        def calls(*spans):
            return int(sum(np.count_nonzero(is_(s)) for s in spans))

        def total(*spans):
            # inclusive time; a span nested in another of the group counts once
            return float(sum(dur[is_(s) & ~under(*spans)].sum()
                             for s in spans))

        def own(*spans):
            return float(sum(self_time[is_(s)].sum() for s in spans))

        def ratio(a, b):
            return a / b if b else 0.0

        solve = is_("integrate.solve")
        p_call = is_("metric.P")
        dyn = [s for s in self.names if s.startswith("dynamics.")]
        est = [s for s in self.names if s.startswith("estimation.")]
        attempts = self.counts["integrate.steps"] + \
            self.counts["integrate.rejected"]
        p_solves = solve & (parent_name == ids["metric.P"])
        solved_p = np.unique(parent[p_solves]).size
        entries = calls("metric.residual")
        christoffels = calls("geometry.christoffel")
        distances = calls("geometry.distance")
        return {
            "integrate.solves": int(np.count_nonzero(solve)),
            "integrate.steps": self.counts["integrate.steps"],
            "integrate.rejected": self.counts["integrate.rejected"],
            "integrate.fev": self.counts["integrate.fev"],
            "integrate.self_s": own("integrate.solve"),
            "integrate.us_per_attempt":
                1e6 * ratio(own("integrate.solve"), attempts),
            "dynamics.calls": calls(*dyn),
            "dynamics.s": total(*dyn),
            "estimation.calls": calls(*est),
            "estimation.solves": int(np.count_nonzero(solve & under(*est))),
            "estimation.s": total(*est),
            "estimation.self_s": own(*est),
            "metric.P.calls": int(np.count_nonzero(p_call)),
            "metric.P.solves": int(np.count_nonzero(p_solves)),
            "metric.P.solved_share": ratio(solved_p, np.count_nonzero(p_call)),
            "metric.P.self_s": own("metric.P"),
            "metric.tabulate.s": total("metric.tabulate"),
            "metric.tabulate.solves":
                int(np.count_nonzero(solve & under("metric.tabulate"))),
            "metric.residual.entries": entries,
            "metric.residual.solves_per_entry": ratio(
                np.count_nonzero(solve & under("metric.residual")), entries),
            "metric.residual.s": total("metric.residual"),
            "metric.bounds.s": total("metric.bounds"),
            "metric.bounds.solves":
                int(np.count_nonzero(solve & under("metric.bounds"))),
            "geometry.christoffel.calls": christoffels,
            "geometry.christoffel.self_s": own("geometry.christoffel"),
            "geometry.christoffel.P_calls_per_call": ratio(np.count_nonzero(
                p_call & (parent_name == ids["geometry.christoffel"])),
                christoffels),
            "geometry.distance.solves": distances,
            "geometry.distance.s": total("geometry.distance"),
            "geometry.distance.newton_iters":
                self.counts["geometry.distance.newton_iters"],
            "geometry.distance.multiple_shooting":
                self.counts["geometry.distance.multiple_shooting"],
            "geometry.distance.flagged_share": ratio(
                self.counts["geometry.distance.flagged"], distances),
            "geometry.dini.calls": calls("geometry.dini"),
            "geometry.dini.s": total("geometry.dini"),
            "stabilization.synthesize.s": total("stabilization.synthesize"),
            "stabilization.synthesize.P_calls": int(np.count_nonzero(
                p_call & under("stabilization.synthesize"))),
            "cli.self_s": own("cli.main"),
            "trace.spans": n,
        }


def time_expressions(system_text, points, repeats=2000):
    """Direct timings of parse_system and the parsed model's f / jac at the
    workload's points: (parse_ms, f_us, jac_us), medians over rounds."""
    from lyapmetric import parse_system
    parse_system = getattr(parse_system, "__wrapped__", parse_system)

    def per_call(fn, args, count):
        rounds = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(count):
                for a in args:
                    fn(a)
            rounds.append((time.perf_counter() - t0) / (count * len(args)))
        return float(np.median(rounds))

    parse_s = per_call(parse_system, [system_text], 20)
    model = parse_system(system_text)
    model = getattr(model, "full", None) or getattr(model, "drift", model)
    pts = [np.asarray(p, dtype=float) for p in points]
    return (1e3 * parse_s, 1e6 * per_call(model.f, pts, repeats // len(pts)),
            1e6 * per_call(model.jac, pts, repeats // len(pts)))
