"""Span tracing of bottleneck_lab's public functions, installed from outside.

`Tracer.install` wraps every function a module lists in `__all__` (plus the
methods in `METHODS`) and patches each name wherever the package looks it
up, e.g. `optimize.output_for_levels` as well as `periodic.output_for_levels`.
Each call becomes a span (function, start, end, parent span, invocation),
kept in memory and written out at the end of the run. Leaf kernels called
about 1e5 times per run (`AGGREGATED`) are kept as a count and a total per
parent span instead, and are opaque: wrapped functions they call are not
traced separately.

Work counts (segments, steps, samples, evaluations) are derived from call
arguments and results, never from timings, so they repeat exactly. Counts
that need more than a length or an attribute are computed after the round
(`Tracer.finish_round`), outside every span.

A function that no longer exists is recorded as missing; the metrics built
on it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "suites", "optimize", "asymptotic", "periodic", "dynamics", "signals")
METHODS = {"optimize": ("EvaluationLog.to_csv",)}
# Functions the per-layer metrics are built on; wrapped even if dropped from __all__.
REQUIRED = {
    "cli": ("main",),
    "suites": ("run_verification", "check_periodic_case", "check_asymptotic_case"),
    "optimize": ("grid_search", "coordinate_descent", "project_to_mean"),
    "asymptotic": ("running_averages", "finite_horizon_certificates",
                   "longrun_bound_check", "solution_independence_check"),
    "periodic": ("output_for_levels", "gap_report", "poincare_map", "period_states"),
    "dynamics": ("exact_pass", "smooth_pass", "simulate"),
    "signals": ("evaluate_array", "mean_over_period", "signal_from_dict"),
}
AGGREGATED = {
    "periodic.output_for_levels",
    "optimize.project_to_mean",
    "optimize.family_mean",
    "signals.evaluate",
}


class Tracer:
    """Spans and work counts of one traced phase; `install` / `uninstall` patch."""

    def __init__(self, package: str = "bottleneck_lab"):
        self.package = package
        self.names: list[str] = []      # function index -> "module.qualname"
        self.missing: list[str] = []
        self.spans: list = []           # (name index, start, end, parent, invocation)
        self.agg: dict = {}             # (parent, name index) -> [calls, total, work]
        self.work: Counter = Counter()  # "<name>.<count>" -> exact count
        self.pending: list = []         # (name, span, args, kwargs) counted after the round
        self.errors: Counter = Counter()  # (name, exception class) -> raises
        self.invocation = -1
        self._stack = [-1]
        self._suppress = 0
        self._patches: list = []        # (namespace, attribute, original)
        self._originals: dict = {}      # "module.qualname" -> original function
        self._rounds: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{self.package}.{name}") for name in MODULES}
        targets = []
        for mod_name, module in modules.items():
            names = [n for n in getattr(module, "__all__", ())
                     if inspect.isfunction(getattr(module, n, None))
                     and getattr(module, n).__module__ == module.__name__]
            for required in REQUIRED.get(mod_name, ()):
                if required not in names:
                    if inspect.isfunction(getattr(module, required, None)):
                        names.append(required)
                    else:
                        self.missing.append(f"{mod_name}.{required}")
            for fn_name in names:
                targets.append((f"{mod_name}.{fn_name}", module, fn_name, None))
            for qualname in METHODS.get(mod_name, ()):
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or not inspect.isfunction(cls.__dict__.get(meth)):
                    self.missing.append(f"{mod_name}.{qualname}")
                    continue
                targets.append((f"{mod_name}.{qualname}", cls, meth, cls))

        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if n == self.package or n.startswith(self.package + ".")]
        for full_name, owner, attr, cls in targets:
            original = (cls.__dict__ if cls is not None else vars(owner))[attr]
            self._originals[full_name] = original
            wrapper = self._wrap(full_name, original)
            if cls is not None:
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapper)
                continue
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patches.append((namespace, key, original))
                        namespace[key] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def original(self, full_name: str):
        return self._originals[full_name]

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, full_name: str, fn):
        idx = len(self.names)
        self.names.append(full_name)
        inline = _INLINE_COUNTS.get(full_name)
        deferred = full_name in _DEFERRED_COUNTS
        tracer = self

        if full_name in AGGREGATED:
            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                if tracer._suppress:
                    return fn(*args, **kwargs)
                tracer._suppress += 1
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t0
                    tracer._suppress -= 1
                    key = (tracer._stack[-1], idx)
                    entry = tracer.agg.get(key)
                    if entry is None:
                        entry = tracer.agg[key] = [0, 0.0, 0]
                    entry[0] += 1
                    entry[1] += elapsed
                if inline is not None:
                    entry[2] += inline(args, kwargs, result)
                return result
            return aggregated

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._suppress:
                return fn(*args, **kwargs)
            spans = tracer.spans
            sid = len(spans)
            spans.append(None)
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[(full_name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                spans[sid] = (idx, t0, t1, parent, tracer.invocation)
            if inline is not None:
                for key, value in inline(args, kwargs, result).items():
                    tracer._count(f"{full_name}.{key}", value)
            if deferred:
                tracer.pending.append((full_name, sid, args, kwargs))
            return result
        return traced

    def _count(self, key: str, value) -> None:
        """Add to a work count; `worst_*` counts keep their maximum instead."""
        if key.rsplit(".", 1)[-1].startswith("worst_"):
            self.work[key] = max(self.work.get(key, value), value)
        else:
            self.work[key] += value

    # -- per-round aggregation ----------------------------------------------

    def finish_round(self, commands: dict[int, str]) -> dict:
        """Close the current round: per-function time, exact work counts.

        `commands` maps invocation index -> command name. Returns the round's
        statistics and starts a fresh span buffer for the next round.
        """
        smooth_simulate_s = 0.0
        self._suppress += 1  # counting below may call package code
        try:
            for full_name, sid, args, kwargs in self.pending:
                counts = _DEFERRED_COUNTS[full_name](self, args, kwargs)
                for key, value in counts.items():
                    self._count(f"{full_name}.{key}", value)
                if counts.get("smooth_calls"):
                    smooth_simulate_s += self.spans[sid][2] - self.spans[sid][1]
        finally:
            self._suppress -= 1

        n = len(self.spans)
        covered = np.zeros(n + 1)  # index n collects root-level children
        busy: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        passes: Counter = Counter()
        for idx, t0, t1, parent, _ in self.spans:
            covered[parent] += t1 - t0
        for (parent, idx), (count, total, work) in self.agg.items():
            covered[parent] += total
            name = self.names[idx]
            busy[name] += total
            self_time[name] += total
            calls[name] += count
            if name in _INLINE_COUNTS:
                self.work[f"{name}.{_AGG_WORK_NAME[name]}"] += work
        for sid, (idx, t0, t1, parent, inv) in enumerate(self.spans):
            name = self.names[idx]
            busy[name] += t1 - t0
            self_time[name] += (t1 - t0) - covered[sid]
            calls[name] += 1
            if name in ("dynamics.exact_pass", "dynamics.smooth_pass"):
                passes[commands.get(inv)] += 1
        stats = {
            "busy": dict(busy), "self": dict(self_time), "calls": dict(calls),
            "work": dict(self.work), "errors": dict(self.errors),
            "asymptotic_passes": passes.get("asymptotic", 0),
            "smooth_simulate_s": smooth_simulate_s,
            "spans": n, "aggregated": len(self.agg),
        }
        self._rounds.append((self.spans, self.agg))
        self.spans, self.agg, self.pending = [], {}, []
        self.work, self.errors = Counter(), Counter()
        return stats

    def write_spans(self, fh) -> None:
        """All rounds' spans as CSV rows. An aggregated kernel has one row per
        parent span, with its call count and total time in place of an end."""
        fh.write("round,span,name,start,end,parent,invocation,calls\n")
        for rnd, (spans, agg) in enumerate(self._rounds):
            for sid, (idx, t0, t1, parent, inv) in enumerate(spans):
                fh.write(f"{rnd},{sid},{self.names[idx]},{t0!r},{t1!r},{parent},{inv},1\n")
            for (parent, idx), (count, total, _) in agg.items():
                inv = spans[parent][4] if parent >= 0 else -1
                fh.write(f"{rnd},,{self.names[idx]},,{total!r},{parent},{inv},{count}\n")


# -- work counts from arguments and results -----------------------------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _level_deviation(family, point, mean: float) -> float:
    levels = point[:2] if type(family).__name__ == "BangBang" else point
    return max(abs(float(c) - mean) for c in levels)


def _count_grid(args, kwargs, result) -> dict:
    return {"evals": result.evaluations}


def _count_descent(args, kwargs, result) -> dict:
    family = _arg(args, kwargs, 0, "family")
    mean = _arg(args, kwargs, 1, "target_mean")
    return {"evals": result.evaluations, "descents": 1, "capped": int(result.capped),
            "worst_level_dev": _level_deviation(family, result.best_point, mean)}


_INLINE_COUNTS = {
    "periodic.output_for_levels": lambda a, k, r: len(_arg(a, k, 0, "levels")),
    "signals.evaluate_array": lambda a, k, r: {"samples": int(np.size(r))},
    "periodic.period_states": lambda a, k, r: {"periods": int(_arg(a, k, 3, "n_periods"))},
    "optimize.grid_search": _count_grid,
    "optimize.coordinate_descent": _count_descent,
    "cli.main": lambda a, k, r: {"failed": int(r != 0)},
}
_AGG_WORK_NAME = {"periodic.output_for_levels": "segments"}


def _schema(tracer: Tracer, signal) -> dict:
    return tracer.original("signals.signal_to_dict")(signal)


def _piecewise_boundaries(desc: dict) -> tuple[np.ndarray, bool]:
    """Segment breakpoints of one period and whether the pattern repeats."""
    kind = desc["kind"]
    if kind == "constant":
        return np.array([0.0, desc["period"]]), True
    if kind == "sampled":
        n = len(desc["values"])
        return desc["step"] * np.arange(n + 1), desc.get("periodic", True)
    return np.asarray(desc["breakpoints"], dtype=float), desc.get("periodic", True)


def _count_exact_pass(tracer: Tracer, args, kwargs) -> dict:
    """Segment boundaries crossed before the last record time, plus record splits."""
    times = np.asarray(_arg(args, kwargs, 3, "record_times"), dtype=float)
    if times.size == 0 or times[-1] <= 0.0:
        return {"segments": 0}
    last = float(times[-1])
    bps, periodic = _piecewise_boundaries(_schema(tracer, _arg(args, kwargs, 0, "signal")))
    if periodic:
        period = bps[-1]
        cycles = math.floor(last / period)
        crossed = cycles * (bps.size - 1) + int(np.count_nonzero(bps[1:] < last - cycles * period))
    else:
        crossed = int(np.count_nonzero(bps[1:-1] < last))
    splits = int(np.unique(times[times > 0.0]).size)
    return {"segments": crossed + splits}


def _count_smooth_pass(tracer: Tracer, args, kwargs) -> dict:
    """Sum over record gaps of max(1, ceil(gap / step))."""
    times = np.asarray(_arg(args, kwargs, 3, "record_times"), dtype=float)
    step = float(_arg(args, kwargs, 4, "step"))
    gaps = np.diff(np.concatenate(([0.0], times)))
    gaps = gaps[gaps > 0.0]
    return {"steps": int(np.maximum(1.0, np.ceil(gaps / step)).sum())}


def _count_simulate(tracer: Tracer, args, kwargs) -> dict:
    """ceil(horizon / step) on smooth input; exact input is counted by exact_pass."""
    signal = _arg(args, kwargs, 0, "signal")
    if _schema(tracer, signal)["kind"] != "clipped_sinusoid_sum":
        return {"steps": 0}
    params = _arg(args, kwargs, 1, "params")
    horizon = float(_arg(args, kwargs, 3, "horizon"))
    grid = args[4] if len(args) > 4 else kwargs.get("grid")
    step = grid.step if grid is not None and grid.step is not None else \
        tracer.original("dynamics.default_step")(signal, params)
    return {"steps": max(1, math.ceil(horizon / step)), "smooth_calls": 1}


_DEFERRED_COUNTS = {
    "dynamics.exact_pass": _count_exact_pass,
    "dynamics.smooth_pass": _count_smooth_pass,
    "dynamics.simulate": _count_simulate,
}


# -- per-layer metrics ----------------------------------------------------------

class RoundStats:
    """Accessors over the traced rounds: times averaged, counts from round one."""

    def __init__(self, rounds: list[dict], extra: dict):
        self.rounds = rounds
        self.extra = extra

    def busy(self, name: str) -> float:
        return sum(r["busy"].get(name, 0.0) for r in self.rounds) / len(self.rounds)

    def self_s(self, name: str) -> float:
        return sum(r["self"].get(name, 0.0) for r in self.rounds) / len(self.rounds)

    def module_self(self, module: str) -> float:
        return sum(v for r in self.rounds for k, v in r["self"].items()
                   if k.startswith(module + ".")) / len(self.rounds)

    def calls(self, name: str) -> int:
        return self.rounds[0]["calls"].get(name, 0)

    def work(self, key: str):
        return self.rounds[0]["work"].get(key, 0)

    def errors(self, name: str, exc: str) -> int:
        return self.rounds[0]["errors"].get((name, exc), 0)

    def smooth_steps(self) -> int:
        return self.work("dynamics.smooth_pass.steps") + self.work("dynamics.simulate.steps")

    def smooth_busy(self) -> float:
        return self.busy("dynamics.smooth_pass") + sum(
            r["smooth_simulate_s"] for r in self.rounds) / len(self.rounds)


def _per(a, b) -> float:
    return a / b if b else 0.0


_CPC, _CAC = "suites.check_periodic_case", "suites.check_asymptotic_case"
_GRID, _DESC = "optimize.grid_search", "optimize.coordinate_descent"
_OFL, _EXACT, _SMOOTH = "periodic.output_for_levels", "dynamics.exact_pass", "dynamics.smooth_pass"

# (metric, unit, functions it needs, value). Counts come from arguments and
# results; every ratio has its base among the other metrics.
PER_LAYER = [
    ("cli.calls", "count", ["cli.main"], lambda s: s.calls("cli.main")),
    ("cli.self_s", "s", ["cli.main"], lambda s: s.module_self("cli")),
    ("cli.bytes_out", "bytes", ["cli.main"], lambda s: s.extra["bytes_out"]),
    ("cli.failed", "count", ["cli.main"], lambda s: s.work("cli.main.failed")),
    ("suites.cases", "count", [_CPC, _CAC], lambda s: s.calls(_CPC) + s.calls(_CAC)),
    ("suites.check_periodic_case.busy_s", "s", [_CPC], lambda s: s.busy(_CPC)),
    ("suites.check_asymptotic_case.busy_s", "s", [_CAC], lambda s: s.busy(_CAC)),
    ("suites.self_s", "s", [], lambda s: s.module_self("suites")),
    ("optimize.grid_search.busy_s", "s", [_GRID], lambda s: s.busy(_GRID)),
    ("optimize.coordinate_descent.busy_s", "s", [_DESC], lambda s: s.busy(_DESC)),
    ("optimize.self_s", "s", [], lambda s: s.module_self("optimize")),
    ("optimize.project_to_mean.calls", "count", ["optimize.project_to_mean"],
     lambda s: s.calls("optimize.project_to_mean")),
    ("optimize.project_to_mean.busy_s", "s", ["optimize.project_to_mean"],
     lambda s: s.busy("optimize.project_to_mean")),
    ("optimize.evals", "count", [_GRID, _DESC],
     lambda s: s.work(f"{_GRID}.evals") + s.work(f"{_DESC}.evals")),
    ("optimize.evals_per_s", "1/s", [_GRID, _DESC],
     lambda s: _per(s.work(f"{_GRID}.evals") + s.work(f"{_DESC}.evals"),
                    s.busy(_GRID) + s.busy(_DESC))),
    ("optimize.grid_evals", "count", [_GRID], lambda s: s.work(f"{_GRID}.evals")),
    ("optimize.descent_evals", "count", [_DESC], lambda s: s.work(f"{_DESC}.evals")),
    ("optimize.descents", "count", [_DESC], lambda s: s.work(f"{_DESC}.descents")),
    ("optimize.evals_per_descent", "count", [_DESC],
     lambda s: _per(s.work(f"{_DESC}.evals"), s.work(f"{_DESC}.descents"))),
    ("optimize.capped", "count", [_DESC], lambda s: s.work(f"{_DESC}.capped")),
    ("optimize.worst_level_dev", "level", [_DESC], lambda s: s.work(f"{_DESC}.worst_level_dev")),
    ("optimize.EvaluationLog.to_csv.busy_s", "s", ["optimize.EvaluationLog.to_csv"],
     lambda s: s.busy("optimize.EvaluationLog.to_csv")),
    ("periodic.output_for_levels.calls", "count", [_OFL], lambda s: s.calls(_OFL)),
    ("periodic.output_for_levels.busy_s", "s", [_OFL], lambda s: s.busy(_OFL)),
    ("periodic.output_for_levels.segments", "count", [_OFL],
     lambda s: s.work(f"{_OFL}.segments")),
    ("periodic.output_for_levels.segments_per_s", "1/s", [_OFL],
     lambda s: _per(s.work(f"{_OFL}.segments"), s.busy(_OFL))),
    ("periodic.gap_report.calls", "count", ["periodic.gap_report"],
     lambda s: s.calls("periodic.gap_report")),
    ("periodic.gap_report.busy_s", "s", ["periodic.gap_report"],
     lambda s: s.busy("periodic.gap_report")),
    ("periodic.gap_report.self_s", "s", ["periodic.gap_report"],
     lambda s: s.self_s("periodic.gap_report")),
    ("periodic.poincare_map.busy_s", "s", ["periodic.poincare_map"],
     lambda s: s.busy("periodic.poincare_map")),
    ("periodic.period_states.busy_s", "s", ["periodic.period_states"],
     lambda s: s.busy("periodic.period_states")),
    ("periodic.period_states.periods", "count", ["periodic.period_states"],
     lambda s: s.work("periodic.period_states.periods")),
    ("periodic.self_s", "s", [], lambda s: s.module_self("periodic")),
    ("dynamics.exact_pass.calls", "count", [_EXACT], lambda s: s.calls(_EXACT)),
    ("dynamics.exact_pass.busy_s", "s", [_EXACT], lambda s: s.busy(_EXACT)),
    ("dynamics.exact_pass.segments", "count", [_EXACT], lambda s: s.work(f"{_EXACT}.segments")),
    ("dynamics.exact_pass.segments_per_s", "1/s", [_EXACT],
     lambda s: _per(s.work(f"{_EXACT}.segments"), s.busy(_EXACT))),
    ("dynamics.smooth_pass.calls", "count", [_SMOOTH], lambda s: s.calls(_SMOOTH)),
    ("dynamics.smooth_pass.busy_s", "s", [_SMOOTH], lambda s: s.busy(_SMOOTH)),
    ("dynamics.smooth_pass.steps", "count", [_SMOOTH], lambda s: s.work(f"{_SMOOTH}.steps")),
    ("dynamics.simulate.calls", "count", ["dynamics.simulate"],
     lambda s: s.calls("dynamics.simulate")),
    ("dynamics.simulate.busy_s", "s", ["dynamics.simulate"],
     lambda s: s.busy("dynamics.simulate")),
    ("dynamics.simulate.steps", "count", ["dynamics.simulate"],
     lambda s: s.work("dynamics.simulate.steps")),
    ("dynamics.smooth.steps_per_s", "1/s", [_SMOOTH, "dynamics.simulate"],
     lambda s: _per(s.smooth_steps(), s.smooth_busy())),
    ("dynamics.step_size_errors", "count", [_SMOOTH, "dynamics.simulate"],
     lambda s: s.errors(_SMOOTH, "StepSizeError") + s.errors("dynamics.simulate", "StepSizeError")),
    ("dynamics.self_s", "s", [], lambda s: s.module_self("dynamics")),
    ("signals.evaluate_array.calls", "count", ["signals.evaluate_array"],
     lambda s: s.calls("signals.evaluate_array")),
    ("signals.evaluate_array.busy_s", "s", ["signals.evaluate_array"],
     lambda s: s.busy("signals.evaluate_array")),
    ("signals.evaluate_array.samples", "count", ["signals.evaluate_array"],
     lambda s: s.work("signals.evaluate_array.samples")),
    ("signals.mean_over_period.busy_s", "s", ["signals.mean_over_period"],
     lambda s: s.busy("signals.mean_over_period")),
    ("signals.signal_from_dict.busy_s", "s", ["signals.signal_from_dict"],
     lambda s: s.busy("signals.signal_from_dict")),
    ("signals.self_s", "s", [], lambda s: s.module_self("signals")),
    ("asymptotic.running_averages.busy_s", "s", ["asymptotic.running_averages"],
     lambda s: s.busy("asymptotic.running_averages")),
    ("asymptotic.finite_horizon_certificates.busy_s", "s",
     ["asymptotic.finite_horizon_certificates"],
     lambda s: s.busy("asymptotic.finite_horizon_certificates")),
    ("asymptotic.longrun_bound_check.busy_s", "s", ["asymptotic.longrun_bound_check"],
     lambda s: s.busy("asymptotic.longrun_bound_check")),
    ("asymptotic.solution_independence_check.busy_s", "s",
     ["asymptotic.solution_independence_check"],
     lambda s: s.busy("asymptotic.solution_independence_check")),
    ("asymptotic.self_s", "s", [], lambda s: s.module_self("asymptotic")),
    ("asymptotic.ops", "count", [], lambda s: s.extra["asymptotic_ops"]),
    ("asymptotic.passes_per_op", "count", [_EXACT, _SMOOTH],
     lambda s: _per(s.rounds[0]["asymptotic_passes"], s.extra["asymptotic_ops"])),
    ("trace.untraced_wall_s", "s", [], lambda s: s.extra["untraced_wall_s"]),
    ("trace.traced_wall_s", "s", [], lambda s: s.extra["traced_wall_s"]),
    ("trace.overhead_s", "s", [],
     lambda s: s.extra["traced_wall_s"] - s.extra["untraced_wall_s"]),
    ("trace.overhead_ratio", "ratio", [],
     lambda s: _per(s.extra["traced_wall_s"] - s.extra["untraced_wall_s"],
                    s.extra["untraced_wall_s"])),
    ("trace.spans", "count", [], lambda s: s.rounds[0]["spans"]),
]


def per_layer_metrics(rounds: list[dict], missing: list[str], extra: dict) -> dict:
    """Metric name -> {"value", "unit"}; absent metrics carry value None."""
    stats = RoundStats(rounds, extra)
    metrics = {}
    for name, unit, needs, value in PER_LAYER:
        if any(fn in missing for fn in needs):
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            metrics[name] = {"value": value(stats), "unit": unit}
    return metrics


def count_signature(round_stats: dict) -> dict:
    """The exact counts of one round, for the repeat check across rounds."""
    return {"calls": round_stats["calls"], "work": round_stats["work"]}
