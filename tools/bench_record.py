"""Record the benchmark of a parent checkout against a change checkout.

    python3 tools/bench_record.py --parent DIR --change DIR --workload search \
        --pairs 10 --seed 7711 --out BENCH_7.json [--trace] [--name KEY]

Runs each checkout's own `perfbench/run.py --trace 0`, for the `run_seconds`
of the change's BENCHMARK.json, in alternating pairs: pair i runs both sides
on seed `seed + i`, the parent first when i is even and the change first
when i is odd. Every run's five end-to-end metrics are
kept, with each side's median and quartiles, and, per metric, the pairs the
change won and lost (ties count for neither). The directions and regression
bounds come from the change's BENCHMARK.json. A gain counts as shown when the
change wins at least nine tenths of the pairs and the medians differ by more
than the parent's quartile spread. `--trace` adds one `--trace 1` run per side
on seed `seed + pairs`, whose per-layer metrics are stored as they come.

Results are merged into `--out` under `workloads.<KEY>`, the workload's name
unless `--name` gives another, so one file can hold several workloads (and,
say, an A/A series run with one checkout on both sides) recorded one at a
time. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("detail "):])["environment"]
                for line in lines if line.startswith("detail ")), {})
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "environment": {k: env.get(k) for k in ("python", "numpy", "nproc", "cpu_model")},
    }


def _summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def _compare(spec: dict, parent_runs: list[dict], change_runs: list[dict]) -> dict:
    name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
    before = [r["metrics"][name] for r in parent_runs]
    after = [r["metrics"][name] for r in change_runs]
    wins = sum(sign * (b - a) > 0.0 for b, a in zip(before, after))
    losses = sum(sign * (b - a) < 0.0 for b, a in zip(before, after))
    p, c = _summary(before), _summary(after)
    relative = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": {**p, "runs": before}, "change": {**c, "runs": after},
        "relative_change": relative,
        "within_bound": sign * relative <= spec["bound"],
        "change_wins": wins, "change_losses": losses,
        "gain_shown": (wins >= 0.9 * len(before)
                       and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--name", help="key under `workloads` (default: the workload)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    specs, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = _run(getattr(args, side), args.workload, seed, seconds, 0)
            runs[side].append({**run, "first": side == order[0]})
            print(f"{args.workload} pair {i} {side}: wall_s {run['metrics']['wall_s']:.4f} "
                  f"correct {run['correct']} failed {run['failed']}", file=sys.stderr)

    record = {
        "seconds": seconds,
        "pairs": args.pairs,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "environment": runs["parent"][0]["environment"],
        "all_correct": all(r["correct"] and r["failed"] == 0
                           for side in runs.values() for r in side),
        "end_to_end": {spec["name"]: _compare(spec, runs["parent"], runs["change"])
                       for spec in specs},
        "runs": runs,
    }
    if args.trace:
        seed = args.seed + args.pairs
        record["traced"] = {"seed": seed, **{
            side: _run(getattr(args, side), args.workload, seed, seconds, 1)["metrics"]
            for side in ("parent", "change")}}

    data = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    data["workloads"][args.name or args.workload] = record
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
