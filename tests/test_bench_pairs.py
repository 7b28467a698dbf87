"""The pure functions of ``scripts/bench_pairs.py``, which every paired
benchmark comparison in CHANGES.md is read from."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _quartiles_by_rank(values: list[float]) -> tuple[float, float, float]:
    """Each quartile interpolated between the sorted values around rank
    (n - 1) * q, as NumPy's and R's default (type 7) quantile takes it."""
    ordered = sorted(values)
    out = []
    for q in (0.25, 0.5, 0.75):
        rank = (len(ordered) - 1) * q
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        out.append(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))
    return tuple(out)


@pytest.mark.parametrize("values", [
    [5.0], [2.0, 1.0], [1.0, 2.0, 3.0, 4.0], [3.0, 1.0, 4.0, 1.0, 5.0],
    [0.0899, 0.0912, 0.0871, 0.0905, 0.0880, 0.0893, 0.0917, 0.0868, 0.0901, 0.0886],
])
def test_quartiles_interpolate_between_ranks(values):
    assert bench_pairs.quartiles(values) == pytest.approx(_quartiles_by_rank(values), abs=1e-15)


def test_quartiles_of_four_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)


def _runs(values: list[float], metric: str = "fuse_s", failed: int = 0, rounds: int = 7) -> list[dict]:
    return [{"metrics": {metric: v}, "attempted": 100, "failed": failed, "rounds": rounds}
            for v in values]


def _row(lines: list[str], metric: str) -> tuple[float, int, int, bool]:
    """A metric row's change in percent, pairs won, pairs and >IQR flag."""
    (line,) = [line for line in lines if line.startswith(metric + " ")]
    found = re.search(r" ([+-]\d+\.\d)% +(\d+)/(\d+) +(yes|no)$", line)
    assert found, line
    return float(found[1]), int(found[2]), int(found[3]), found[4] == "yes"


@pytest.mark.parametrize("better, won", [("lower", 3), ("higher", 1)])
def test_report_counts_the_pairs_the_change_won_in_the_metrics_direction(better, won):
    """Pairs are compared run by run; a tie counts for neither side."""
    parent = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    change = [9.0, 9.5, 11.0, 10.0, 10.0, 8.0]  # lower in 3 pairs, higher in 1, tied in 2
    lines = bench_pairs.report(bench_pairs.summary(
        "kb-scale", {"parent": _runs(parent), "change": _runs(change)}, {"fuse_s": better}))
    assert lines[0] == "== kb-scale: 6 pairs"
    delta, got, pairs, _ = _row(lines, "fuse_s")
    assert (got, pairs) == (won, 6)
    assert delta == pytest.approx(-2.5)  # median 9.75 against 10


@pytest.mark.parametrize("change, beyond", [
    ([9.0] * 5, True),   # medians 1.0 apart, parent IQR 0.5
    ([9.6] * 5, False),  # 0.4 apart
    ([10.5] * 5, False),  # 0.5 apart: not more than the IQR
    ([11.0] * 5, True),  # worse by more than the IQR is flagged too
])
def test_report_flags_medians_further_apart_than_the_parents_iqr(change, beyond):
    parent = [9.5, 9.75, 10.0, 10.25, 10.5]  # q1 9.75, median 10, q3 10.25
    lines = bench_pairs.report(bench_pairs.summary(
        "emr-scale", {"parent": _runs(parent, "run_s"), "change": _runs(change, "run_s")},
        {"run_s": "lower"}))
    assert _row(lines, "run_s")[3] is beyond


def test_report_totals_failed_operations_and_lists_rounds():
    lines = bench_pairs.report(bench_pairs.summary(
        "kb-scale", {"parent": _runs([1.0, 1.0], rounds=6), "change": _runs([1.0, 1.0], failed=2)},
        {"fuse_s": "lower"}))
    assert lines[-2:] == [
        "parent: failed 0 of 200 operations (per run [0, 0]); rounds per run [6, 6]",
        "change: failed 4 of 200 operations (per run [2, 2]); rounds per run [7, 7]",
    ]


def test_json_record_holds_what_the_report_prints(tmp_path, monkeypatch, capsys):
    """``--json`` writes each workload's figures, which read back to the
    printed table, with the seed, the pair count and the machine."""
    root = _SCRIPT.parent.parent
    metrics = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    values = iter(range(1, 1000))

    def run_once(checkout, command, workload, seed, seconds):
        return {"metrics": {name: float(next(values)) for name in metrics}, "attempted": 50,
                "failed": 1 if checkout == tmp_path else 0, "rounds": 4}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    path = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(root), "--workload",
                             "kb-scale", "--workload", "emr-scale", "--seed", "83",
                             "--pairs", "3", "--json", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    record = json.loads(path.read_text(encoding="utf-8"))
    assert (record["seed"], record["pairs"]) == (83, 3)
    assert set(record["machine"]) == {"cpus", "python", "numpy"}
    assert [w["workload"] for w in record["workloads"]] == ["kb-scale", "emr-scale"]
    assert [line for w in record["workloads"] for line in bench_pairs.report(w)] == printed
    kb = record["workloads"][0]
    assert list(kb["metrics"]) == metrics
    assert kb["sides"]["parent"] == {"failed": [1, 1, 1], "attempted": [50] * 3, "rounds": [4] * 3}
    assert kb["sides"]["change"]["failed"] == [0, 0, 0]
    # each run reads larger figures than the one before, and only in the
    # second pair does the change run first: it wins that pair alone
    setup = kb["metrics"]["setup_s"]
    assert (setup["won"], setup["better"]) == (1, "lower")


def test_summary_round_trips_through_json(tmp_path):
    runs = {"parent": _runs([9.5, 9.75, 10.0, 10.25, 10.5]), "change": _runs([9.0] * 5, failed=1)}
    result = bench_pairs.summary("kb-scale", runs, {"fuse_s": "lower"})
    path = tmp_path / "bench.json"
    bench_pairs.write_json(path, result)
    assert json.loads(path.read_text(encoding="utf-8")) == result
    assert result["metrics"]["fuse_s"] == {
        "better": "lower", "parent": {"median": 10.0, "q1": 9.75, "q3": 10.25},
        "change": {"median": 9.0, "q1": 9.0, "q3": 9.0}, "change_pct": -10.0, "won": 5,
        "beyond_iqr": True}
