#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python3 scripts/bench_pairs.py --parent ../emrkg-parent --change . \\
        --workload kb-scale --seed 47 --pairs 10

Each pair runs the command that ``BENCHMARK.json`` declares
(``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0``,
``S`` its ``run_seconds``) once in each checkout, one run at a time; the
parent runs first in even pairs and the change first in odd ones, so that
drift in the host's speed falls on both sides alike. For each workload and end-to-end metric it
prints each side's median and quartiles, the change against the parent's
median, in how many pairs the change was better (by the metric's
``better`` direction), and whether the medians differ by more than the
parent's interquartile range. It also prints each side's failed-operation
count and the number of rounds each run fitted, against which to read
``peak_rss_mb``. Standard library only; nothing under ``perfbench/`` is
changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its metrics, operation counts and rounds."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 900)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((checkout / ".perfbench" / f"result-{workload}-seed{seed}-trace0.json")
                         .read_text(encoding="utf-8"))["details"]
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "rounds": details["samples"]["rounds"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, runs: dict[str, list[dict]], better: dict[str, str]) -> list[str]:
    pairs = len(runs["change"])
    lines = [f"== {workload}: {pairs} pairs",
             f"{'metric':18s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
             f" {'change':>8s} {'won':>6s} {'>IQR':>5s}"]
    for name, direction in better.items():
        values = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
        (p1, p2, p3), (c1, c2, c3) = (quartiles(values[side]) for side in SIDES)
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        delta = (c2 - p2) / p2 * 100 if p2 else float("nan")
        lines.append(f"{name:18s} {p2:12.5g} [{p1:9.5g}, {p3:9.5g}] {c2:12.5g} [{c1:9.5g}, {c3:9.5g}]"
                     f" {delta:+7.1f}% {won:3d}/{pairs:<2d} {'yes' if abs(c2 - p2) > p3 - p1 else 'no':>5s}")
    for side in SIDES:
        failed = [run["failed"] for run in runs[side]]
        attempted = [run["attempted"] for run in runs[side]]
        rounds = [run["rounds"] for run in runs[side]]
        lines.append(f"{side}: failed {sum(failed)} of {sum(attempted)} operations "
                     f"(per run {failed}); rounds per run {rounds}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workload:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(checkouts[side], spec["command"], workload,
                                           args.seed, spec["run_seconds"]))
                print(f"{workload} pair {i + 1}/{args.pairs} {side} done", file=sys.stderr, flush=True)
        print("\n".join(report(workload, runs, better)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
