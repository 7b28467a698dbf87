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
``peak_rss_mb``. With ``--json PATH`` it also writes those figures, with
the seed, the pair count and the machine, to ``PATH``. Standard library
only; nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
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


def summary(workload: str, runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """What ``report`` prints, as data: per end-to-end metric each side's
    median and quartiles, the change in percent, the pairs the change won
    and the >IQR flag; per side its failed operations and rounds per run."""
    pairs = len(runs["change"])
    metrics = {}
    for name, direction in better.items():
        values = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
        (p1, p2, p3), (c1, c2, c3) = (quartiles(values[side]) for side in SIDES)
        sign = 1 if direction == "higher" else -1
        metrics[name] = {
            "better": direction,
            "parent": {"median": p2, "q1": p1, "q3": p3},
            "change": {"median": c2, "q1": c1, "q3": c3},
            "change_pct": (c2 - p2) / p2 * 100 if p2 else None,
            "won": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "beyond_iqr": abs(c2 - p2) > p3 - p1,
        }
    sides = {side: {"failed": [run["failed"] for run in runs[side]],
                    "attempted": [run["attempted"] for run in runs[side]],
                    "rounds": [run["rounds"] for run in runs[side]]} for side in SIDES}
    return {"workload": workload, "pairs": pairs, "metrics": metrics, "sides": sides}


def report(result: dict) -> list[str]:
    """``summary``'s result as the table the script prints."""
    pairs = result["pairs"]
    lines = [f"== {result['workload']}: {pairs} pairs",
             f"{'metric':18s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
             f" {'change':>8s} {'won':>6s} {'>IQR':>5s}"]
    for name, m in result["metrics"].items():
        p, c = m["parent"], m["change"]
        delta = float("nan") if m["change_pct"] is None else m["change_pct"]
        lines.append(f"{name:18s} {p['median']:12.5g} [{p['q1']:9.5g}, {p['q3']:9.5g}]"
                     f" {c['median']:12.5g} [{c['q1']:9.5g}, {c['q3']:9.5g}]"
                     f" {delta:+7.1f}% {m['won']:3d}/{pairs:<2d}"
                     f" {'yes' if m['beyond_iqr'] else 'no':>5s}")
    for side, counts in result["sides"].items():
        failed = counts["failed"]
        lines.append(f"{side}: failed {sum(failed)} of {sum(counts['attempted'])} operations "
                     f"(per run {failed}); rounds per run {counts['rounds']}")
    return lines


def machine() -> dict:
    """The host the pairs ran on, read without importing numpy."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version}


def write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="also write the reports to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = []
    for workload in args.workload:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(checkouts[side], spec["command"], workload,
                                           args.seed, spec["run_seconds"]))
                print(f"{workload} pair {i + 1}/{args.pairs} {side} done", file=sys.stderr, flush=True)
        results.append(summary(workload, runs, better))
        print("\n".join(report(results[-1])), flush=True)
        if args.json:  # rewritten after each workload, so a cut run keeps what it finished
            write_json(args.json, {"seed": args.seed, "pairs": args.pairs,
                                   "machine": machine(), "workloads": results})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
