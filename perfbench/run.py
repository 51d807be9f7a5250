"""Closed-loop benchmark of the bottleneck-lab command line.

    python3 perfbench/run.py --workload {search,verify,longrun} --seed N \
        --seconds S --trace {0,1}

One client in one process on one thread calls `bottleneck_lab.cli.main`
back to back on the workload's generated configs (see workloads.py), in
rounds of the whole invocation list, until S seconds have passed. Every
output is checked (checks.py) and must be byte-identical in every round.

An invocation does the same work in every round, so its latency is its
median over the rounds. A shared machine's speed can drift by tens of
percent within minutes, so a fixed reference kernel (`reference_kernel`,
code of this file that no change to the package alters) is timed between
invocations throughout the run, and every time below is scaled by
REFERENCE_NOMINAL_S / (the kernel's median time in this run): it is the time
the run would have taken at the speed where the kernel takes
REFERENCE_NOMINAL_S. The unscaled times and the kernel's statistics are in
the `detail` line. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end ones, measured with no tracing code
imported:

    setup_s      median over fresh processes, started between the rounds, of
                 the time from process start until the package is imported
                 and the configs are written
    wall_s       time of one round (the whole invocation list): the sum of
                 the invocations' latencies
    op_p50_ms    median latency of one invocation, output writing included
    op_tail_ms   latency percentile 100 (1 - 10/N) over the N invocations of
                 the list: the highest with ten invocations beyond it
    peak_rss_mb  peak resident memory of this process (ru_maxrss)

With `--trace 1` the untraced rounds run first, then two traced rounds
(tracing.py), all within S seconds. They give the per-layer metrics, the
tracing overhead, and a check that the work counts of the two rounds are
identical. The line before the result, `detail {...}`, holds the error
rate, gate margins, the environment and replay paths of failed invocations;
`perfbench/out/` keeps it as `result.json` next to the spans and the
failing configs.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
TRACED_ROUNDS = 2
TRACED_ROUND_COST = 1.5  # traced round time, in untraced rounds, reserved when tracing
SETUP_PROBES = {"full": 12, "tiny": 2}
REFERENCE_EVERY = 4         # invocations between two reference-kernel samples
REFERENCE_NOMINAL_S = 6e-3  # reference-kernel median time that defines nominal speed

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class PackageMissing(RuntimeError):
    """The checkout has no importable bottleneck_lab source tree."""


def _import_cli():
    init = SRC / "bottleneck_lab" / "__init__.py"
    if not init.is_file():
        raise PackageMissing(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    from bottleneck_lab import cli
    if Path(cli.__file__).resolve().parent != init.parent.resolve():
        raise PackageMissing(f"imported {cli.__file__}, not the checkout's source")
    return cli


def _setup(args, work_dir: Path) -> list:
    work_dir.mkdir(parents=True, exist_ok=True)
    invocations = workloads.generate(args.workload, args.seed, args.size, str(work_dir),
                                     inject_failure=args.inject_failure)
    workloads.write_configs(invocations)
    return invocations


def _probe_setup(args, probe_dir: Path) -> float:
    """Seconds from starting a fresh process until it has finished set-up."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
           "--setup-probe", str(probe_dir)]
    if args.inject_failure:
        cmd.append("--inject-failure")
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


_REFERENCE_ARRAY = np.linspace(0.0, 1.0, 512)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter loops and small numpy calls.

    The mix resembles the package's own hot loops. Its median time in a run
    measures how fast this machine runs such code during that run.
    """
    t0 = perf_counter()
    x = 0.5
    for _ in range(16000):
        x = 0.999 * x + math.exp(-x) * 1e-3
    a = _REFERENCE_ARRAY
    for _ in range(800):
        a = np.minimum(a * 0.999 + np.exp(-a) * 1e-3, 1.0)
    return perf_counter() - t0


def _typical(per_round: list[list[float]]) -> np.ndarray:
    """Each invocation's median latency across rounds."""
    return np.median(np.asarray(per_round), axis=0)


def _digest(inv, rc, stderr: str) -> str:
    h = hashlib.sha256(f"{rc!r}\n{stderr}".encode())
    for path in inv.outputs:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


class Runner:
    """Runs rounds of the invocation list and compares every round to the first."""

    def __init__(self, cli, invocations):
        self.cli = cli
        self.invocations = invocations
        self.first = None          # per invocation: (rc, stderr, digest) of round one
        self.mismatched = set()    # (round, index) whose outputs differ from round one
        self.rounds = 0
        self.reference = []        # reference-kernel times taken between invocations

    def run_round(self, tracer=None) -> tuple[float, list[float]]:
        latencies = []
        outcomes = []
        start = perf_counter()
        for inv in self.invocations:
            if inv.index % REFERENCE_EVERY == 0:
                self.reference.append(reference_kernel())
            if tracer is not None:
                tracer.invocation = inv.index
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                t0 = perf_counter()
                try:
                    rc = self.cli.main(inv.argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # a crash is a failed invocation; keep measuring
                    rc = None
                    err.write(traceback.format_exc())
                latencies.append(perf_counter() - t0)
            outcomes.append((rc, err.getvalue()))
        wall = perf_counter() - start

        digests = [_digest(inv, rc, text) for inv, (rc, text) in zip(self.invocations, outcomes)]
        if self.first is None:
            self.first = [(rc, text, d) for (rc, text), d in zip(outcomes, digests)]
        else:
            for inv, d in zip(self.invocations, digests):
                if d != self.first[inv.index][2]:
                    self.mismatched.add((self.rounds, inv.index))
        self.rounds += 1
        return wall, latencies

    def measure(self, seconds: float, reserve: float = 0.0, probe=None,
                n_probes: int = 0) -> tuple[list[float], list[list[float]], list[float]]:
        """Untraced rounds for about `seconds`: round times, latencies, probe times.

        A round starts only if it is expected to end within `seconds` with
        `reserve` more rounds' time left over; the first always runs. The
        `n_probes` calls of `probe` are spread between the rounds, so that
        they meet the same machine speed as the rounds and the reference kernel.
        """
        walls, latencies, probes = [], [], []
        start = perf_counter()
        while not walls or \
                perf_counter() - start + (1.0 + reserve) * statistics.fmean(walls) <= seconds:
            elapsed = perf_counter() - start
            due = n_probes if elapsed >= seconds else \
                min(n_probes, 1 + int(n_probes * elapsed / seconds))
            while len(probes) < due:
                probes.append(probe())
            wall, lat = self.run_round()
            walls.append(wall)
            latencies.append(lat)
        while len(probes) < n_probes:
            probes.append(probe())
        return walls, latencies, probes


def _check_all(runner: Runner) -> list:
    """Gate results of every invocation, on the outputs left by the last round."""
    return [checks.check(inv, rc, text)
            for inv, (rc, text, _) in zip(runner.invocations, runner.first)]


def _write_replays(args, runner: Runner, results, failed_ops, run_dir: Path) -> list:
    """Configs of failing invocations, rewritten to write next to themselves."""
    replays = []
    if not failed_ops:
        return replays
    fail_dir = run_dir / "failures"
    fail_dir.mkdir(exist_ok=True)
    for index in sorted(failed_ops):
        inv = runner.invocations[index]
        stem = fail_dir / f"{args.workload}-seed{args.seed}-op{index:03d}"
        config = dict(inv.config)
        for key, path in inv.config.items():
            if key in ("out", "log"):
                config[key] = f"{stem}.{Path(path).name.split('.', 1)[1]}"
        config_path = f"{stem}.config.json"
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
        reasons = list(results[index].failures)
        if any(idx == index for _, idx in runner.mismatched):
            reasons.append("output differs between rounds of identical invocations")
        replays.append({
            "workload": args.workload, "seed": args.seed, "index": index,
            "command": inv.command, "kind": inv.kind, "config": config,
            "config_path": config_path, "failures": reasons,
            "replay": f"bottleneck-lab {inv.command} --config {config_path}",
        })
    return replays


def _environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
    }


def _traced_phase(runner: Runner, untraced_wall: float, run_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics and trace details from TRACED_ROUNDS traced rounds."""
    import tracing  # only the traced phase loads wrapper code

    commands = {inv.index: inv.command for inv in runner.invocations}
    tracer = tracing.Tracer()
    tracer.install()
    rounds, walls, per_round = [], [], []
    try:
        for _ in range(TRACED_ROUNDS):
            wall, latencies = runner.run_round(tracer)
            walls.append(wall)
            per_round.append(latencies)
            rounds.append(tracer.finish_round(commands))
    finally:
        tracer.uninstall()
    with gzip.open(run_dir / "spans.csv.gz", "wt", encoding="utf-8", newline="") as fh:
        tracer.write_spans(fh)

    signatures = [tracing.count_signature(r) for r in rounds]
    repeat = all(sig == signatures[0] for sig in signatures[1:])
    extra = {
        "bytes_out": sum(os.path.getsize(p) for inv in runner.invocations
                         for p in inv.outputs if os.path.exists(p)),
        "asymptotic_ops": sum(1 for c in commands.values() if c == "asymptotic"),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": float(_typical(per_round).sum()),
    }
    metrics = tracing.per_layer_metrics(rounds, tracer.missing, extra)
    stats = tracing.RoundStats(rounds, extra)
    module_self = {m: stats.module_self(m) for m in tracing.MODULES}
    total_self = sum(module_self.values())
    shares = {m: v / total_self for m, v in module_self.items()} if total_self else {}
    detail = {
        "counts_repeat": repeat, "traced_rounds": len(rounds), "traced_walls_s": walls,
        "missing_functions": tracer.missing, "self_share": shares,
        "spans_file": str((run_dir / "spans.csv.gz").relative_to(BENCH_DIR.parent)),
    }
    return metrics, detail


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every invocation, for the smoke test")
    parser.add_argument("--inject-failure", action="store_true",
                        help="append an invocation documented to exit 1")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cli = _import_cli()
    except PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup(args, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    invocations = _setup(args, run_dir / "work")

    runner = Runner(cli, invocations)
    reserve = TRACED_ROUNDS * TRACED_ROUND_COST if args.trace else 0.0
    probe_dirs = iter([run_dir / f"probe{i}" for i in range(SETUP_PROBES[args.size])])
    walls, per_round, setup_samples = runner.measure(
        args.seconds, reserve, lambda: _probe_setup(args, next(probe_dirs)),
        SETUP_PROBES[args.size])
    typical = _typical(per_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced_rounds = runner.rounds
    reference = list(runner.reference)
    speed = REFERENCE_NOMINAL_S / statistics.median(reference)
    results = _check_all(runner)

    n_ops = len(invocations)
    tail_pct = max(50.0, 100.0 * (1.0 - 10.0 / n_ops))
    measured = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": float(typical.sum()),
        "op_p50_ms": 1e3 * float(np.percentile(typical, 50.0)),
        "op_tail_ms": 1e3 * float(np.percentile(typical, tail_pct)),
    }
    values = {**{k: v * speed for k, v in measured.items()}, "peak_rss_mb": peak_rss_mb}
    end_to_end = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    metrics, trace_detail = end_to_end, {}
    if args.trace:
        metrics, trace_detail = _traced_phase(runner, measured["wall_s"], run_dir)

    bad_first = {i for i, r in enumerate(results) if not r.ok}
    failed = sum(1 for rnd in range(runner.rounds) for i in range(n_ops)
                 if i in bad_first or (rnd, i) in runner.mismatched)
    attempted = runner.rounds * n_ops
    failed_ops = bad_first | {i for _, i in runner.mismatched}
    replays = _write_replays(args, runner, results, failed_ops, run_dir)
    margins = {}
    for r in results:
        for gate, margin in r.margins.items():
            margins[gate] = min(margin, margins.get(gate, margin))
    correct = failed == 0 and trace_detail.get("counts_repeat", True)
    error_rate = {"value": failed / attempted, "unit": "fraction"}

    detail = {
        "environment": _environment(args),
        "end_to_end": {**end_to_end, "error_rate": error_rate},
        "invocations_per_round": n_ops, "untraced_rounds": untraced_rounds,
        "attempted": attempted, "failed": failed,
        "op_tail_percentile": tail_pct, "op_latency_samples": n_ops,
        "kind_p50_ms": {kind: 1e3 * statistics.median(
            lat for inv, lat in zip(invocations, typical) if inv.kind == kind)
            for kind in sorted({inv.kind for inv in invocations})},
        "round_walls_s": walls, "setup_samples_s": setup_samples,
        "measured_times": measured, "reference": {
            "min_s": min(reference), "median_s": statistics.median(reference),
            "samples": len(reference), "nominal_s": REFERENCE_NOMINAL_S, "speed": speed},
        "peak_rss_mb": peak_rss_mb, "worst_margins": margins, "failures": replays,
        **({"trace": trace_detail} if args.trace else {}),
    }
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics, "latencies_s": per_round,
                   "reference_s": reference,
                   "kinds": [inv.kind for inv in invocations]}, fh, indent=1, sort_keys=True)
    shutil.rmtree(run_dir / "work", ignore_errors=True)
    for i in range(SETUP_PROBES[args.size]):
        shutil.rmtree(run_dir / f"probe{i}", ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed}: {untraced_rounds} untraced rounds of "
          f"{n_ops} invocations, error_rate {failed}/{attempted}")
    if args.trace:
        print(f"counts repeat across traced rounds: {trace_detail['counts_repeat']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
