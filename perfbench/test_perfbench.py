"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

Every run here uses ``--size tiny`` and a one-second budget, so each
workload finishes in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload: str, trace: int, capsys) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_lists_the_metrics_the_code_reports():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload, capsys):
    result = tiny(workload, 0, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "test_f1")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(workload, capsys):
    result = tiny(workload, 1, capsys)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    tagger = result["metrics"]["tagger.self_s"]["value"]
    assert (tagger == 0.0) == (workload == "kb-scale")


def _tree(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def test_generator_is_deterministic(tmp_path):
    names = ["肝癌", "原发性肝细胞癌", "肝硬化"]
    for tag in ("a", "b"):
        gen.write_emr_corpus(tmp_path / tag / "emr", 7, [200, 400], names)
        gen.write_kb_scale(tmp_path / tag / "kb", 7, 50, 10, 40)
    gen.write_kb_scale(tmp_path / "c" / "kb", 8, 50, 10, 40)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a" / "kb") != _tree(tmp_path / "c" / "kb")


def test_pacer_removes_calibration_time_and_scales_by_host_speed():
    pacer = pace.Pacer(interval=1.0, window=1.0)
    ref = pace.REFERENCE_S["interp"]
    # calibrations that took twice the reference time: the host ran at half
    # speed; those at 10.5 and 11.5 fell inside the timed interval
    pacer.starts = [9.5, 10.5, 11.5]
    pacer.ends = [start + 2 * ref for start in pacer.starts]
    pacer.took["interp"] = [2 * ref] * 3
    corrected = pacer.corrected(10.0, 12.0)
    assert abs(corrected - (2.0 - 4 * ref) / 2) < 1e-12
    assert pacer.disturbed(10.0, 10.6) and pacer.disturbed(9.5 + 2 * ref, 9.6)
    assert not pacer.disturbed(9.7, 10.4)


def test_windowed_p99_follows_the_usual_state_not_one_stalled_stretch():
    values = [1.0] * 3000
    values[100:140] = [9.0] * 40  # the host stalled often in one window
    assert run.percentile(values, 0.99) == 9.0
    assert run.windowed_percentile(values, 0.99, 1000) == 1.0


def test_wrong_alignment_is_counted_as_failed(monkeypatch, capsys):
    import emrkg.fusion

    def wrong(query, index, threshold=emrkg.fusion.DEFAULT_THRESHOLD):
        return emrkg.fusion.Alignment(query, "不存在的病", 1.0, threshold)

    monkeypatch.setattr(emrkg.fusion, "align", wrong)
    result = tiny("kb-scale", 0, capsys)
    assert not result["correct"] and result["failed"] > 0


def test_wrong_query_result_is_counted_as_failed(monkeypatch, capsys):
    import emrkg.graph

    monkeypatch.setattr(emrkg.graph.KnowledgeGraph, "pattern_query", lambda self, *args: [])
    result = tiny("emr-scale", 0, capsys)
    assert not result["correct"] and result["failed"] > 0


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "emr-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
