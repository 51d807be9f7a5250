"""Command line front end.

Subcommands: simulate, periodic, verify, asymptotic, optimize. Experiments
are driven by a JSON config file (reproducible, seeds recorded in output)
with flags for quick one-offs; flags override config values. Unknown config
keys are rejected before any computation runs.

Exit status contract: 0 success, 1 invariant violation (a residual out of
tolerance, a bound breached, a search beating the benchmark), 2 usage or
validation errors. Identical config and seed give byte-identical outputs on
one platform: all randomness flows from one seeded generator and floats are
formatted with round-trip repr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import asymptotic, dynamics, optimize, periodic, suites
from .signals import SignalError, SystemParams, period_of, signal_from_dict

__all__ = ["main", "ConfigError"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

BENCHMARK_EXCESS_TOL = 1e-9

_ALLOWED_KEYS = {
    "simulate": {"signal", "lambda", "x0", "horizon", "step", "out"},
    "periodic": {"signal", "lambda", "out", "format"},
    "verify": {"seed", "n_signals", "n_asymptotic", "tolerance", "out", "cases"},
    "asymptotic": {"signal", "lambda", "x0", "tau_max", "n_checkpoints", "out"},
    "optimize": {"family", "lambda", "mean", "resolution", "n_starts", "seed",
                 "max_evals", "out", "log"},
}


class ConfigError(ValueError):
    """Configuration could not be parsed or validated."""


def _read_json(path: str, where: str = ""):
    """The JSON value in the file at `path`. A ConfigError, prefixed by
    `where`, names the file and why it could not be read, with the line and
    column of a syntax error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{where}cannot read {path}: {exc}") from exc


def _load_config(path: str, command: str) -> dict:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    allowed = _ALLOWED_KEYS[command]
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) for '{command}': {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    return data


def _load_signal(source, where: str):
    """Signal from an inline dict or a path to a JSON description file."""
    if isinstance(source, str):
        source = _read_json(source, f"{where}: ")
    if not isinstance(source, dict):
        raise ConfigError(f"{where}: signal must be a mapping or a file path")
    return signal_from_dict(source)


def _require(cfg: dict, key: str, where: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return cfg[key]


def _number(kind, value, name: str):
    """`kind(value)` for a numeric config value; anything else is a ConfigError.
    int() and float() would read a bool as 0 or 1, and int() would truncate
    a fraction: both are errors."""
    if (isinstance(value, (bool, np.bool_))
            or kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}") from None


def _count(value, name: str) -> int:
    """A non-negative int config value: a seed or a count."""
    value = _number(int, value, name)
    if value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value}")
    return value


def _positive_float(value, name: str) -> float:
    value = _number(float, value, name)
    if not (0.0 < value < math.inf):
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def _require_fits(what: str, shape) -> None:
    """ConfigError "<what> do not fit in memory" if numpy refuses an array of shape `shape()`."""
    try:
        np.empty([max(0, math.ceil(n)) for n in shape()])
    except (ValueError, OverflowError, MemoryError):
        raise ConfigError(f"{what} do not fit in memory") from None


@contextlib.contextmanager
def _open_output(path: str | None):
    """The text stream for an `out` or `log` key: stdout for None or "-".

    A file is rewritten in place and cut at the end of the new text. Opening
    with O_TRUNC instead makes ext4 (auto_da_alloc) flush the old data, so
    rewrites of one path stall. Keeping the inode keeps links and modes.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):  # ftruncate fails on pipes and devices
                fh.truncate()


def _write_json(path: str | None, data) -> None:
    with _open_output(path) as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: dict) -> int:
    signal = _load_signal(_require(cfg, "signal", "simulate"), "simulate")
    params = SystemParams(lam=_positive_float(_require(cfg, "lambda", "simulate"), "lambda"))
    horizon = _positive_float(_require(cfg, "horizon", "simulate"), "horizon")
    x0 = _number(float, cfg.get("x0", 0.0), "x0")
    step = cfg.get("step")
    step = None if step is None else _positive_float(step, "step")
    # Rows recorded, at least; on smooth inflow the start and nodes of every step.
    default = dynamics.numeric_step(signal, params)
    cell = min(step or math.inf, default or period_of(signal) or math.inf)
    rows, what = ((7.0 * np.ceil(horizon / cell), "7 ceil(horizon / min(step, default_step))")
                  if default else (horizon / cell, "horizon / min(step, period)"))
    _require_fits(f"simulate: {what} = {rows:.3g} rows", lambda: (rows + 1, 4))
    traj = dynamics.simulate(signal, params, x0, horizon, step=step)
    with _open_output(cfg.get("out")) as fh:
        dynamics.trajectory_to_csv(traj, signal, fh)
    print(f"simulated to t={horizon!r}: final x = {traj.final_state!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_periodic(cfg: dict) -> int:
    signal = _load_signal(_require(cfg, "signal", "periodic"), "periodic")
    params = SystemParams(lam=_positive_float(_require(cfg, "lambda", "periodic"), "lambda"))
    fmt = cfg.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"periodic: unknown format {fmt!r} (expected json or csv)")
    report = periodic.gap_report(signal, params)
    if fmt == "json":
        _write_json(cfg.get("out"), periodic.report_to_json_dict(
            signal, params, report, dynamics.numeric_step(signal, params)))
    else:
        with _open_output(cfg.get("out")) as fh:
            periodic.reports_to_csv([(signal, params, report)], fh)
    return EXIT_OK


def _cmd_verify(cfg: dict) -> int:
    seed = _count(cfg.get("seed", 0), "seed")
    n_signals = _count(cfg.get("n_signals", 500), "n_signals")
    n_asymptotic = _count(cfg.get("n_asymptotic", 100), "n_asymptotic")
    for key, n in (("n_signals", n_signals), ("n_asymptotic", n_asymptotic)):
        _require_fits(f"verify: {key} = {n} cases", lambda: (n, 2 * suites.MAX_SEGMENTS + 1))
    tolerances = suites.SuiteTolerances()
    if cfg.get("tolerance") is not None:
        tolerances = suites.SuiteTolerances(
            identity_residual=_positive_float(cfg["tolerance"], "tolerance")
        )
    cases = None
    if cfg.get("cases") is not None:
        if not isinstance(cfg["cases"], list):
            raise ConfigError(f"verify: cases must be a list, got {cfg['cases']!r}")
        cases = []
        for i, case in enumerate(cfg["cases"]):
            if not isinstance(case, dict) or set(case) != {"signal", "lam"}:
                raise ConfigError(
                    f"verify: cases[{i}] must have exactly the keys 'signal' and 'lam'"
                )
            cases.append((
                _load_signal(case["signal"], f"verify: cases[{i}]"),
                SystemParams(lam=_positive_float(case["lam"], f"cases[{i}].lam")),
            ))
    report = suites.run_verification(
        n_periodic=n_signals,
        seed=seed,
        tolerances=tolerances,
        n_asymptotic=n_asymptotic,
        cases=cases,
    )
    _write_json(cfg.get("out"), report.to_json_dict())
    if not report.passed:
        print(
            f"verify: {len(report.failures)} case(s) out of tolerance "
            f"(serialized in the report for replay)",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_asymptotic(cfg: dict) -> int:
    signal = _load_signal(_require(cfg, "signal", "asymptotic"), "asymptotic")
    params = SystemParams(lam=_positive_float(_require(cfg, "lambda", "asymptotic"), "lambda"))
    x0 = _number(float, cfg.get("x0", 0.0), "x0")
    tau_max = cfg.get("tau_max")
    tau_max = (asymptotic.default_tau_max(signal, params) if tau_max is None
               else _positive_float(tau_max, "tau_max"))
    n_checkpoints = _number(int, cfg.get("n_checkpoints", asymptotic.DEFAULT_CHECKPOINTS),
                            "n_checkpoints")
    _require_fits(f"asymptotic: n_checkpoints = {n_checkpoints} checkpoints",
                  lambda: (n_checkpoints,))
    ra = asymptotic.running_averages(signal, params, x0, tau_max, n_checkpoints)
    certs = asymptotic.finite_horizon_certificates(params, ra)
    tolerance = asymptotic._allowance(certs.lhs, certs.rhs - certs.correction, certs.correction)
    check = asymptotic.longrun_bound_check(signal, params, ra)
    with _open_output(cfg.get("out")) as fh:
        asymptotic.averages_to_csv(ra, certs, fh)
    print(
        f"sigma_bar_est = {check.sigma_bar_est!r}, w_est = {check.w_est!r}, "
        f"bound = {check.bound!r}, margin = {check.margin!r} (slack {check.slack!r})",
        file=sys.stderr,
    )
    if check.violated or not np.all(certs.slack >= -tolerance):
        print("asymptotic: long-run bound or certificate violated", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _family_from_dict(data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: family must be a mapping")
    kind = data.get("kind")
    if kind == "bang_bang":
        unknown = set(data) - {"kind", "period"}
        if unknown:
            raise ConfigError(f"{where}: unknown family key(s): {sorted(unknown)}")
        return optimize.BangBang(period=_positive_float(data.get("period", 1.0), "period"))
    if kind == "piecewise_free":
        unknown = set(data) - {"kind", "period", "n_segments"}
        if unknown:
            raise ConfigError(f"{where}: unknown family key(s): {sorted(unknown)}")
        return optimize.PiecewiseConstantFree(
            period=_positive_float(data.get("period", 1.0), "period"),
            n_segments=_number(int, data.get("n_segments", 4), "n_segments"),
        )
    raise ConfigError(f"{where}: unknown family kind {kind!r} "
                      "(expected bang_bang or piecewise_free)")


def _random_start(family, mean: float, rng: np.random.Generator):
    if isinstance(family, optimize.BangBang):
        raw = (rng.uniform(0.0, 2.0 * mean), rng.uniform(0.0, 2.0 * mean),
               rng.uniform(0.05, 0.95))
    else:
        raw = tuple(rng.uniform(0.0, 2.0 * mean, size=family.n_segments))
    return optimize.project_to_mean(family, raw, mean)


def _beats_benchmark(log: optimize.EvaluationLog) -> bool:
    """Whether some evaluation beat the benchmark B by more than
    BENCHMARK_EXCESS_TOL, relative to a B below 1, or where larger by more
    than (4k + 8) u B, u = eps / 2, the rounding of w = lam I / T and B on k
    segments (sums I and T (k - 1) u each, a term of I 4 u and its orbit
    deviation (k + 1) u, lam I / T 2 u, the point's mean (k - 1) u, B 3 u);
    or NaN."""
    k = 2 if isinstance(log.family, optimize.BangBang) else log.family.n_segments
    rounding = (2 * k + 4) * sys.float_info.epsilon * log.benchmark
    return not log.max_excess <= max(BENCHMARK_EXCESS_TOL * min(1.0, log.benchmark), rounding)


def _cmd_optimize(cfg: dict) -> int:
    family = _family_from_dict(_require(cfg, "family", "optimize"), "optimize")
    params = SystemParams(lam=_positive_float(_require(cfg, "lambda", "optimize"), "lambda"))
    mean = _number(float, _require(cfg, "mean", "optimize"), "mean")
    if not (0.0 <= mean < math.inf):
        raise ConfigError(f"optimize: mean must be non-negative and finite, got {mean}")
    resolution = _number(int, cfg.get("resolution", 9), "resolution")
    n_starts = _count(cfg.get("n_starts", 5), "n_starts")
    seed = _count(cfg.get("seed", 0), "seed")
    max_evals = _number(int, cfg.get("max_evals", optimize.DEFAULT_MAX_EVALS), "max_evals")
    if max_evals < 1:
        raise ConfigError(f"optimize: max_evals must be at least 1, got {max_evals}")
    axes = 2 if isinstance(family, optimize.BangBang) else family.n_segments
    _require_fits(f"optimize: resolution**{axes} = {resolution}**{axes} grid points",
                  lambda: (float(resolution) ** axes, axes))
    _require_fits(f"optimize: n_starts = {n_starts} starts", lambda: (n_starts, axes))
    rng = np.random.default_rng(seed)

    benchmark = periodic.constant_benchmark(mean, params)
    log = optimize.EvaluationLog(family, mean, benchmark)
    grid_result = optimize.grid_search(family, mean, params, resolution, log=log)
    starts = [_random_start(family, mean, rng) for _ in range(n_starts)]
    descents = optimize.coordinate_descents(family, mean, params, starts,
                                            max_evals=max_evals, log=log)

    beats = _beats_benchmark(log)
    x_star = mean / (params.lam + mean)
    if beats and mean > 0.0 and x_star < sys.float_info.min:
        # A subnormal x* (or one rounded to 0) carries absolute, not relative,
        # rounding: the excess can reach many of its ulps, which no bound covers.
        raise dynamics.DomainError(
            f"optimize: an evaluation exceeds the constant benchmark by "
            f"{log.max_excess!r} where x* = mean / (lambda + mean) = {x_star!r} "
            "is below the least normal double: double precision cannot resolve "
            "the comparison there")
    candidates = [grid_result] + descents
    best = max(candidates, key=lambda r: r.best_w)
    payload = {
        "seed": seed,
        "lam": params.lam,
        "target_mean": mean,
        "benchmark_w": benchmark,
        "grid": grid_result.to_json_dict(),
        "descents": [r.to_json_dict() for r in descents],
        "best": best.to_json_dict(),
        "evaluations_total": len(log),
        "max_excess_over_benchmark": log.max_excess,
    }
    _write_json(cfg.get("out"), payload)
    if cfg.get("log") is not None:
        with _open_output(cfg["log"]) as fh:
            log.to_csv(fh)
    if beats:
        print(
            f"optimize: an evaluation beat the constant benchmark by "
            f"{log.max_excess!r}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "periodic": _cmd_periodic,
    "verify": _cmd_verify,
    "asymptotic": _cmd_asymptotic,
    "optimize": _cmd_optimize,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs about
    thirty times what parsing one command line does."""
    parser = argparse.ArgumentParser(
        prog="bottleneck-lab",
        description="Periodic steady states, averaged throughput, and "
                    "constant-inflow optimality checks for the bottleneck "
                    "entrance model x' = sigma(t)(1-x) - lambda x.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output path ('-' for stdout)")
        p.add_argument("--lambda", dest="lam", type=float, help="outflow rate constant")
        p.add_argument("--signal", help="path to a JSON signal description")
        p.add_argument("--horizon", type=float, help="simulation horizon")
        p.add_argument("--seed", type=int, help="seed for randomized suites")
        p.add_argument("--tolerance", type=float, help="identity residual tolerance")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = {}
    try:
        if args.config:
            cfg = _load_config(args.config, args.command)
        # Flags override config.
        for key, value in (("lambda", args.lam), ("signal", args.signal),
                           ("horizon", args.horizon), ("seed", args.seed),
                           ("tolerance", args.tolerance), ("out", args.out)):
            if value is not None:
                cfg[key] = value
        unknown = set(cfg) - _ALLOWED_KEYS[args.command]
        if unknown:
            raise ConfigError(
                f"key(s) not applicable to '{args.command}': {sorted(unknown)}"
            )
        return _COMMANDS[args.command](cfg)
    except (ConfigError, SignalError, dynamics.DomainError,
            optimize.InfeasibleMeanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except dynamics.StepSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
