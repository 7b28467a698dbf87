#!/usr/bin/env python3
"""emrkg benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload emr-scale --seed 1 --seconds 55 --trace 0

Workloads (BENCHMARK.json gives the reason for each):

* ``emr-scale``: ``pipeline`` over long synthetic admission notes with the
  fixture knowledge base.
* ``kb-scale``: ``kb-load`` -> ``align --entities`` -> ``fuse --entities``
  -> ``export`` over a large synthetic knowledge base and thousands of
  patient records. It never calls the tagger in its pass.

Every call goes through ``emrkg.cli.main``. The measured phase repeats
rounds until ``--seconds`` is used up. A round is one pass, an alignment
loop (``fusion.build_index`` once, then ``fusion.align`` over the
extracted disease names in a seeded order, timed one by one or in small
batches), then
a few ``emrkg query`` calls on seeded heads of the fused graph. An untraced round then
repeats the stages that are short on its workload (``fuse`` and ``export``
on emr-scale, ``export`` on kb-scale). On kb-scale it also runs a tagger
probe outside the pass (``train`` and ``tag`` on a few seeded notes; its
``test_f1`` is the README quick start's, run once before timing), because
every workload must report the tagger metrics.

``--trace 0`` prints the end-to-end metrics. Only the CLI stage functions
are wrapped (nine timers per pass), which is how the stage metrics are
read. Every time it reports is corrected for the host's speed drift by
``pace.Pacer``. ``--trace 1`` alternates untraced passes with traced
rounds, in which every layer function in ``spans.LAYER_TABLE`` is wrapped,
and prints the per-layer metrics (uncorrected) plus the tracing overhead.

Inputs come from ``--seed`` alone; the program's own seed is fixed. Each
round's outputs are checked (byte-identical across rounds, graph
validation, alignment and query oracles from ``tests/oracles.py``), and
every stage call, alignment query, query call and check is an operation
in ``attempted``/``failed``. The last stdout line is the result object.
Scratch files live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import logging
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
FIXTURE_CONFIG = FIXTURES / "pipeline.json"
FIXTURE_KB = FIXTURES / "kb_small.jsonl"
STATE_DIR = ROOT / ".perfbench"

import gen  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("emr-scale", "kb-scale")
PROGRAM_SEED = 20240811  # the quick-start seed; the workload seed only shapes inputs

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "train_chars_per_s": "chars/s",
    "tag_chars_per_s": "chars/s",
    "test_f1": "ratio",
    "align_ms_p50": "ms",
    "align_ms_p99": "ms",
    "fuse_s": "s",
    "export_s": "s",
    "query_s": "s",
    "peak_rss_mb": "MB",
}

SIZES = {
    "full": {
        "emr_notes": 10, "emr_min_chars": 300, "emr_max_chars": 1900, "emr_epochs": 4,
        "kb_names": 1000, "kb_varied": 200, "kb_patients": 3000,
        "probe_notes": 3, "probe_min_chars": 600, "probe_max_chars": 1400, "probe_epochs": 2,
        "probe_tags": 3,
        "setup_repeats": 9, "oracle_samples": 3,
        # per workload: alignment queries per round and per timed batch,
        # query calls per round, and extra calls per untraced round of the
        # stages that are short on that workload
        "align_queries": {"emr-scale": 40000, "kb-scale": 2100},
        "align_batch": {"emr-scale": 1, "kb-scale": 3},
        "queries": {"emr-scale": 10, "kb-scale": 4},
        "repeats": {"emr-scale": {"fuse": 5, "export": 5}, "kb-scale": {"export": 1}},
    },
    "tiny": {
        "emr_notes": 3, "emr_min_chars": 150, "emr_max_chars": 300, "emr_epochs": 1,
        "kb_names": 60, "kb_varied": 15, "kb_patients": 80,
        "probe_notes": 2, "probe_min_chars": 200, "probe_max_chars": 300, "probe_epochs": 1,
        "probe_tags": 1,
        "setup_repeats": 1, "oracle_samples": 2,
        "align_queries": {"emr-scale": 20, "kb-scale": 20},
        "align_batch": {"emr-scale": 1, "kb-scale": 3},
        "queries": {"emr-scale": 2, "kb-scale": 2},
        "repeats": {"emr-scale": {"fuse": 1, "export": 1}, "kb-scale": {"export": 1}},
    },
}


def spread_lengths(n: int, lo: int, hi: int) -> list[int]:
    return [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]


SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import emrkg.cli as cli\n"
    "cli.load_config(cli.build_parser().parse_args(sys.argv[2:]))\n"
)


class Ops:
    """Attempted and failed operations, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check_many(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.extend(failures)


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def windowed_percentile(values, q: float, window: int) -> float:
    """Median over consecutive windows of ``window`` samples (the last one
    absorbs the remainder) of each window's percentile ``q``. A tail
    percentile then follows the run's usual state rather than a stretch in
    which the host stalled often."""
    count = max(1, len(values) // window)
    bounds = [len(values) * i // count for i in range(count + 1)]
    return statistics.median(percentile(values[a:b], q) for a, b in zip(bounds, bounds[1:]))


def bio_chars(path: Path) -> int:
    """Characters in a BIO file: one non-blank line each."""
    return sum(1 for line in path.read_text(encoding="utf-8").split("\n") if line)


def micro_f1(out: Path) -> float:
    return json.loads((out / "eval.json").read_text(encoding="utf-8"))["micro"]["f1"]


def tree_digest(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def graph_digest(graph) -> str:
    """Digest of a graph's nodes and triples, as a save/load round trip
    keeps them."""
    h = hashlib.sha256()
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        h.update(json.dumps([node.id, node.label, node.name, node.attributes],
                            ensure_ascii=False, sort_keys=True).encode("utf-8"))
    for triple in graph.triples:
        h.update(repr(tuple(triple)).encode("utf-8"))
    return h.hexdigest()


def valid(graph) -> bool:
    try:
        graph.validate()
    except Exception:
        return False
    return True


def disease_surfaces(entities_path: Path) -> list[str]:
    """Distinct Disease surfaces of an entities file, as ``align --entities``
    collects them."""
    lines = entities_path.read_text(encoding="utf-8").splitlines()[1:]
    return sorted({
        surface
        for line in lines if line.strip()
        for label, surface in json.loads(line)["entities"]
        if label == "Disease"
    })


def thread_settings() -> dict:
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "env": {name: os.environ.get(name) for name in names},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "note": "numpy's default BLAS pool; the benchmark starts no threads",
    }


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: str, work: Path):
        import emrkg.cli
        import emrkg.fusion
        import emrkg.graph
        import emrkg.kb
        from tests import oracles

        self.cli, self.fusion, self.graph, self.kb, self.oracles = (
            emrkg.cli, emrkg.fusion, emrkg.graph, emrkg.kb, oracles,
        )
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.sizes = SIZES[size]
        self.work = work
        self.out = work / "out"
        self.rec = spans.Recorder()
        # the dense index of kb-scale's large KB makes its align queries
        # memory-bound; everything else runs at the interpreter's pace
        self.align_pace = "memory" if workload == "kb-scale" else "interp"
        self.pace = pace.Pacer(tuple(dict.fromkeys(("interp", self.align_pace))))
        self.ops = Ops()
        self.inputs: dict = {}
        self.rounds: list[dict] = []
        self.align_ms: list[float] = []
        self.query_s: list[float] = []
        self.pass_wall_s: list[float] = []
        self.first_digest: dict[str, str] | None = None
        self.fused: tuple[bool, str] | None = None
        self.checking: list[tuple[float, float]] = []
        self.fixture_config = json.loads(FIXTURE_CONFIG.read_text(encoding="utf-8"))
        fusion = self.fixture_config["fusion"]
        self.orders, self.threshold = tuple(fusion["ngram_orders"]), fusion["threshold"]

    def seconds_between(self, start: float, end: float, kind: str = "interp") -> float:
        """Seconds from ``start`` to ``end``, corrected for host speed (by
        the ``kind`` kernel) in an untraced run; wall time in a traced one."""
        return end - start if self.trace else self.pace.corrected(start, end, kind)

    # -- set-up ------------------------------------------------------------

    def notes_config(self, name: str, lengths: list[int], epochs: int, output_dir: Path):
        """Seeded notes under ``work/name`` and a quick-start config that
        trains on them for ``epochs``; returns (input statistics, --config
        arguments)."""
        _, catalogs = self.kb.load_kb(FIXTURE_KB)
        corpus = self.work / name / "corpus"
        stats = gen.write_emr_corpus(corpus, self.seed, lengths, list(catalogs.disease))
        config = json.loads(json.dumps(self.fixture_config))
        config["train"]["epochs"] = epochs
        config.update(corpus_dir=str(corpus), kb_file=str(FIXTURE_KB), output_dir=str(output_dir))
        config_path = self.work / name / "config.json"
        config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        return stats, ["--config", str(config_path)]

    def prepare(self) -> None:
        sizes = self.sizes
        if self.workload == "emr-scale":
            self.kb_file = FIXTURE_KB
            lengths = spread_lengths(sizes["emr_notes"], sizes["emr_min_chars"], sizes["emr_max_chars"])
            self.inputs, self.pass_args = self.notes_config("emr", lengths, sizes["emr_epochs"], self.out)
        else:
            kb_dir = self.work / "kb"
            self.inputs = gen.write_kb_scale(
                kb_dir, self.seed, sizes["kb_names"], sizes["kb_varied"], sizes["kb_patients"]
            )
            self.kb_file = kb_dir / "kb.jsonl"
            self.entities = kb_dir / "entities.jsonl"
            self.pass_args = [
                "--seed", str(PROGRAM_SEED), "--kb-file", str(self.kb_file), "--output-dir", str(self.out),
            ]
            self.probe_out = self.work / "probe" / "out"
            lengths = spread_lengths(sizes["probe_notes"], sizes["probe_min_chars"], sizes["probe_max_chars"])
            self.inputs["probe"], self.probe_args = self.notes_config(
                "probe", lengths, sizes["probe_epochs"], self.probe_out
            )
            for sub in ("convert", "split"):
                self._call([sub] + self.probe_args)
            # two epochs on three notes teach the tagger too little to find
            # an entity, so test_f1 comes from the README quick start, once
            quick_start = self.work / "quick-start"
            quick_args = [
                "--config", str(FIXTURE_CONFIG), "--corpus-dir", str(FIXTURES / "corpus"),
                "--kb-file", str(FIXTURE_KB), "--output-dir", str(quick_start),
            ]
            for sub in ("convert", "split", "train", "evaluate"):
                self._call([sub] + quick_args)
            self.quick_start_f1 = micro_f1(quick_start)
        _, catalogs = self.kb.load_kb(self.kb_file)
        self.kb_names = list(catalogs.disease)

    def measure_setup(self) -> list[float]:
        """Fresh interpreters, each timed between two calibrations."""
        sub = "kb-load" if self.workload == "kb-scale" else "pipeline"
        command = [sys.executable, "-c", SETUP_CODE, str(SRC), sub] + self.pass_args
        times = []
        for _ in range(self.sizes["setup_repeats"]):
            self.pace.calibrate()
            start = time.perf_counter()
            done = subprocess.run(command, capture_output=True, timeout=120)
            end = time.perf_counter()
            self.pace.calibrate()
            times.append(self.pace.corrected(start, end))
            self.ops.check(done.returncode == 0, f"setup exit code {done.returncode}")
        return times

    # -- one pass ----------------------------------------------------------

    def _call(self, argv: list[str]) -> None:
        code = self.cli.main(argv)
        self.ops.check(code == 0, f"{argv[0]} exit code {code}")

    def _check_fused(self, original):
        """``fusion.fuse`` that validates and digests the fused graph while
        the program still holds it; the check's interval is left out of the
        pass and stage times."""
        def fuse(graph, *args, **kwargs):
            report = original(graph, *args, **kwargs)
            start = time.perf_counter()
            self.fused = (valid(graph), graph_digest(graph))
            self.checking.append((start, time.perf_counter()))
            return report
        return fuse

    def _checked_out(self, start: float, end: float) -> float:
        """Corrected seconds of the fused-graph checks within ``[start, end]``."""
        return sum(self.seconds_between(a, b) for a, b in self.checking if start <= a and b <= end)

    def stage_kind(self, stage: str) -> str:
        return self.align_pace if stage == "align" else "interp"

    def run_pass(self, run_id: str, layers: bool) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        self.rec.run_id = run_id
        extra = [] if layers else [("emrkg.cli", "fuse", self._check_fused)]
        with spans.patched(self.rec, layers, extra), self.rec.span("bench.pass"):
            start = time.perf_counter()
            if self.workload == "kb-scale":
                self._call(["kb-load"] + self.pass_args)
                self._call(["align", "--entities", str(self.entities)] + self.pass_args)
                self._call(["fuse", "--entities", str(self.entities)] + self.pass_args)
                self._call(["export"] + self.pass_args)
            else:
                self._call(["pipeline"] + self.pass_args)
            end = time.perf_counter()
        if not layers:
            self.pass_wall_s.append(end - start - sum(b - a for a, b in self.checking if start <= a))
        seconds = self.seconds_between(start, end) - self._checked_out(start, end)
        for name, a, b, _, rid in self.rec.spans:  # stages that run at another kernel's pace
            if rid == run_id and name.startswith("cli.") and self.stage_kind(name[4:]) != "interp":
                seconds += self.seconds_between(a, b, self.stage_kind(name[4:])) - self.seconds_between(a, b)
        return seconds

    def stage_seconds(self, run_id: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _, rid in self.rec.spans:
            if rid == run_id and name.startswith("cli.") and name[4:] in spans.STAGES:
                seconds = self.seconds_between(start, end, self.stage_kind(name[4:]))
                out[name[4:]] = out.get(name[4:], 0.0) + seconds - self._checked_out(start, end)
        return out

    def check_outputs(self, k: int, layers: bool):
        """Byte-identity with the first round, and graph validation after
        reload and (in an untraced pass, whose spans it would otherwise
        inflate) after fuse. Returns this round's seeded query heads and
        the answers the query oracle gives for them on the reloaded graph."""
        digest = tree_digest(self.out)
        if self.first_digest is None:
            self.first_digest = digest
        else:
            self.ops.check(digest == self.first_digest, f"round {k}: outputs differ from round 0")
        graph = self.graph.load_graph(self.out / "graph.jsonl")
        self.ops.check(valid(graph), f"round {k}: reloaded graph invalid")
        if not layers:
            fused, self.fused = self.fused, None
            self.ops.check(fused is not None and fused[0], f"round {k}: fused graph invalid")
            self.ops.check(
                fused is not None and graph_digest(graph) == fused[1],
                f"round {k}: reloaded graph differs from the fused one",
            )
        rng = random.Random(f"query:{self.seed}:{k}")
        triples = graph.triples
        picks = [triples[rng.randrange(len(triples))] for _ in range(self.sizes["queries"][self.workload])]
        heads = [(graph.nodes[t.head].label, graph.nodes[t.head].name, t.relation) for t in picks]
        expected = [
            [node.name for node in self.oracles.pattern_scan(graph, label, name, relation)]
            for label, name, relation in heads
        ]
        return heads, expected

    # -- loops after the pass ----------------------------------------------

    def query_loop(self, k: int, run_id: str, layers: bool, heads, expected) -> None:
        self.rec.run_id = run_id
        qdir = self.work / "query"
        qdir.mkdir(exist_ok=True)
        with spans.patched(self.rec, layers):
            for i, ((label, name, relation), want) in enumerate(zip(heads, expected)):
                out = qdir / f"q{i}.txt"
                argv = [
                    "query", "--seed", str(PROGRAM_SEED), "--output-dir", str(qdir),
                    "--graph", str(self.out / "graph.jsonl"), "--label", label, "--name", name,
                    "--relation", relation, "--out", str(out),
                ]
                with self.rec.span("bench.query"):
                    start = time.perf_counter()
                    code = self.cli.main(argv)
                    end = time.perf_counter()
                if not layers:
                    self.query_s.append(self.seconds_between(start, end))
                if self.ops.check(code == 0, f"query exit code {code}"):
                    answer = out.read_text(encoding="utf-8").splitlines()
                    self.ops.check(answer == want, f"round {k}: query {(label, name, relation)} != oracle")

    def align_loop(self, run_id: str, layers: bool) -> dict[str, object]:
        if self.workload == "kb-scale":
            names = disease_surfaces(self.entities)
        else:
            names = disease_surfaces(self.out / "entities.jsonl")
        self.rec.run_id = run_id
        repeats = max(1, math.ceil(self.sizes["align_queries"][self.workload] / max(1, len(names))))
        batch = self.sizes["align_batch"][self.workload]
        # a seeded order, so that a timed batch mixes short and long names
        queue = names * repeats
        random.Random(f"align:{self.seed}").shuffle(queue)
        results: dict[str, object] = {}
        raised: list[str] = []
        intervals = []
        with spans.patched(self.rec, layers), self.rec.span("bench.align_loop"):
            index = self.fusion.build_index(list(self.kb_names), self.orders)
            for at in range(0, len(queue), batch):
                chunk = queue[at : at + batch]
                start = time.perf_counter()
                for name in chunk:
                    try:
                        results.setdefault(name, self.fusion.align(name, index, self.threshold))
                    except Exception:  # a failed query is counted, not fatal
                        raised.append(f"align {name!r} raised")
                intervals.append((start, time.perf_counter(), len(chunk)))
            del index
        self.ops.check_many(len(queue), raised)
        if not layers:
            # per-query latency of each timed batch; a batch the calibration
            # interrupted, or ran just before, is dropped: its caches were cold
            self.align_ms.extend(
                self.seconds_between(a, b, self.align_pace) * 1000 / n
                for a, b, n in intervals if not self.pace.disturbed(a, b)
            )
        matched = sum(1 for r in results.values() if r.target)
        self.inputs.setdefault("align_queries", len(names))
        self.inputs.setdefault("align_matched_share", matched / max(1, len(names)))
        return {"names": names, "results": results}

    def check_alignments(self, k: int, loop: dict) -> None:
        names = loop["names"]
        if not names:
            return
        rng = random.Random(f"oracle:{self.seed}:{k}")
        for name in rng.sample(names, min(self.sizes["oracle_samples"], len(names))):
            result = loop["results"].get(name)
            target, similarity = self.oracles.cosine_align(
                name, self.kb_names, self.orders, self.threshold
            )
            self.ops.check(
                result is not None
                and result.target == target and abs(result.similarity - similarity) <= 1e-12,
                f"round {k}: align {name!r} != oracle ({target!r}, {similarity!r})",
            )

    def tagger_row(self, out: Path, train_s: float, tag_s: list[float], epochs: int) -> dict:
        return {
            "train_char_steps": bio_chars(out / "train.bio") * epochs,
            "train_s": train_s,
            "tag_chars": bio_chars(out / "predicted.bio"),
            "tag_s": tag_s,
        }

    def probe(self, run_id: str) -> dict:
        """Tagger throughputs for kb-scale: train, then tag (repeated), a
        few seeded notes."""
        self.rec.run_id = run_id
        with spans.patched(self.rec, False):
            self._call(["train"] + self.probe_args)
            for _ in range(self.sizes["probe_tags"]):
                self._call(["tag"] + self.probe_args)
        tag_s = [
            self.seconds_between(start, end)
            for name, start, end, _, rid in self.rec.spans if rid == run_id and name == "cli.tag"
        ]
        return self.tagger_row(
            self.probe_out, self.stage_seconds(run_id)["train"], tag_s, self.sizes["probe_epochs"]
        )

    # -- rounds ------------------------------------------------------------

    def round_steps(self, k: int, layers: bool, row: dict):
        """One round as steps: a pass with its checks, the alignment loop,
        the query loop and, untraced, the repeated stages and the kb-scale
        probe. Yields each step's name before running it and fills ``row``.
        Nothing the benchmark holds outlives the check after the pass, so
        the process's peak memory is the program's."""
        yield "pass"
        row["run_s"] = self.run_pass(f"{k}:pass", layers)
        stages = row["stages"] = self.stage_seconds(f"{k}:pass")
        if self.workload == "emr-scale":
            row.update(self.tagger_row(self.out, stages["train"], [stages["tag"]], self.sizes["emr_epochs"]))
            row["test_f1"] = micro_f1(self.out)
        row["fuse_s"], row["export_s"] = [stages["fuse"]], [stages["export"]]
        heads, expected = self.check_outputs(k, layers)
        yield "align"
        self.check_alignments(k, self.align_loop(f"{k}:align", layers))
        yield "query"
        self.query_loop(k, f"{k}:query", layers, heads, expected)
        if not layers:
            yield "repeat"
            self.repeat_stages(k, row)
            if self.workload == "kb-scale":
                yield "probe"
                row.update(self.probe(f"{k}:probe"))

    def repeat_stages(self, k: int, row: dict) -> None:
        """Run ``fuse`` and ``export`` again on the pass's outputs."""
        entities = self.entities if self.workload == "kb-scale" else self.out / "entities.jsonl"
        repeats = self.sizes["repeats"][self.workload]
        for i in range(max(repeats.values())):
            run_id = f"{k}:repeat{i}"
            self.rec.run_id = run_id
            with spans.patched(self.rec, False):
                if i < repeats.get("fuse", 0):
                    self._call(["fuse", "--entities", str(entities)] + self.pass_args)
                if i < repeats.get("export", 0):
                    self._call(["export"] + self.pass_args)
            for stage, seconds in self.stage_seconds(run_id).items():
                row[f"{stage}_s"].append(seconds)

    def measure(self) -> None:
        """Rounds until ``--seconds`` is used up. Untraced, the pacer
        calibrates throughout, and the run stops before the first step
        after round 0 that would overrun, going by the longest time that
        step has taken. Traced, untraced passes alternate with traced
        rounds, and only whole rounds run."""
        start = time.perf_counter()
        longest: dict[str, float] = {}
        with contextlib.ExitStack() as stack:
            if not self.trace:
                stack.enter_context(self.pace.running())
            for k in itertools.count():
                traced = self.trace and k % 2 == 1
                row = {"round": k, "traced": traced}
                self.rounds.append(row)
                round_start = step_start = time.perf_counter()
                if self.trace and not traced:
                    row["run_s"] = self.run_pass(f"{k}:pass", False)
                else:
                    step = None
                    for next_step in self.round_steps(k, traced, row):
                        now = time.perf_counter()
                        if step is not None:
                            longest[step] = max(longest.get(step, 0.0), now - step_start)
                        if not self.trace and k > 0 and now - start + longest[next_step] > self.seconds:
                            return
                        step, step_start = next_step, now
                    longest[step] = max(longest.get(step, 0.0), time.perf_counter() - step_start)
                row["round_s"] = time.perf_counter() - round_start
                slowest = max(r["round_s"] for r in self.rounds)
                if self.trace and k >= 1 and time.perf_counter() - start + slowest > self.seconds:
                    return

    # -- results -----------------------------------------------------------

    def end_to_end(self, setup: list[float]) -> dict[str, float]:
        """Medians over the run's samples, each corrected for host speed.
        The last round may have stopped part-way; it adds the samples of
        the steps it ran."""
        rows = [r for r in self.rounds if not r["traced"]]

        def every(key):
            return [r[key] for r in rows if key in r]

        return {
            "setup_s": median(setup),
            "run_s": median(every("run_s")),
            "train_chars_per_s": median([r["train_char_steps"] / r["train_s"] for r in rows if "train_s" in r]),
            "tag_chars_per_s": median([r["tag_chars"] / t for r in rows if "tag_s" in r for t in r["tag_s"]]),
            "test_f1": median(every("test_f1")) if self.workload == "emr-scale" else self.quick_start_f1,
            "align_ms_p50": percentile(self.align_ms, 0.50),
            "align_ms_p99": windowed_percentile(self.align_ms, 0.99, 1000),
            "fuse_s": median([t for ts in every("fuse_s") for t in ts]),
            "export_s": median([t for ts in every("export_s") for t in ts]),
            "query_s": median(self.query_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def pace_summary(self) -> dict:
        return {
            kind: {
                "calibrations": len(took),
                "reference_s": pace.REFERENCE_S[kind],
                "kernel_s_min": min(took, default=float("nan")),
                "kernel_s_median": median(took),
                "kernel_s_max": max(took, default=float("nan")),
            }
            for kind, took in self.pace.took.items()
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        traced = [r for r in self.rounds if r["traced"]]
        plain = [r for r in self.rounds if not r["traced"]]
        run_ids = [f"{r['round']}:{part}" for r in traced for part in ("pass", "align", "query")]
        overhead = median([r["run_s"] for r in traced]) / median([r["run_s"] for r in plain])
        return layer_metrics(self.rec, run_ids, len(traced), overhead)


LAYERS = ("corpus", "derm", "tagger", "metrics", "kb", "fusion", "graph", "cli")
GAUGES = {"tagger.vocab_size", "fusion.index_bytes", "fusion.vocab_size", "graph.bytes"}


def layer_metrics(rec: spans.Recorder, run_ids, n_rounds: int, overhead: float):
    """Per-layer metrics, each a mean per traced round."""
    busy, self_s, layer_busy = rec.totals(run_ids)
    counts: dict[str, float] = {}
    for rid in run_ids:
        for name, value in rec.counts.get(rid, {}).items():
            if name in GAUGES:
                counts[name] = max(counts.get(name, 0.0), value)
            else:
                counts[name] = counts.get(name, 0.0) + value / n_rounds
    b = {name: value / n_rounds for name, value in busy.items()}
    s = {name: value / n_rounds for name, value in self_s.items()}

    def c(name):
        return counts.get(name, 0.0)

    def ratio(num, den):
        return c(num) / c(den) if c(den) else 0.0

    out: dict[str, tuple[float, str]] = {
        "corpus.load_corpus_dir.s": (b.get("corpus.load_corpus_dir", 0.0), "s"),
        "corpus.segment.s": (b.get("corpus.segment", 0.0), "s"),
        "corpus.segment.calls": (c("corpus.segment.calls"), "count"),
        "corpus.bio_io.s": (b.get("corpus.read_bio_file", 0.0) + b.get("corpus.write_bio_file", 0.0), "s"),
        "derm.augment_epoch.s": (b.get("derm.augment_epoch", 0.0), "s"),
        "derm.replaced_ratio": (ratio("derm.replaced", "derm.sentences"), "ratio"),
        "tagger.lstm_forward.s": (b.get("tagger.lstm_forward", 0.0), "s"),
        "tagger.lstm_forward.calls": (c("tagger.lstm_forward.calls"), "count"),
        "tagger.lstm_backward.s": (b.get("tagger.lstm_backward", 0.0), "s"),
        "tagger.crf_nll_with_grad.s": (b.get("tagger.crf_nll_with_grad", 0.0), "s"),
        "tagger.sentence_loss_and_grads.self_s": (s.get("tagger.sentence_loss_and_grads", 0.0), "s"),
        "tagger.train.self_s": (s.get("tagger.train", 0.0), "s"),
        "tagger.train.validate_s": (b.get("tagger.train.validate", 0.0), "s"),
        "tagger.train.epoch_s": (
            b.get("tagger.train", 0.0) / c("tagger.train.epochs") if c("tagger.train.epochs") else 0.0, "s"),
        "tagger.predict.s": (b.get("tagger.predict", 0.0), "s"),
        "tagger.predict.chars": (c("tagger.predict.chars"), "chars"),
        "tagger.crf_viterbi.s": (b.get("tagger.crf_viterbi", 0.0), "s"),
        "tagger.vocab_size": (c("tagger.vocab_size"), "count"),
        "tagger.save_model.s": (b.get("tagger.save_model", 0.0), "s"),
        "tagger.load_model.s": (b.get("tagger.load_model", 0.0), "s"),
        "metrics.count_matches.s": (b.get("metrics.count_matches", 0.0), "s"),
        "kb.load_kb.s": (b.get("kb.load_kb", 0.0), "s"),
        "kb.load_kb.calls": (c("kb.load_kb.calls"), "count"),
        "kb.kb_into_graph.s": (b.get("kb.kb_into_graph", 0.0), "s"),
        "fusion.build_index.s": (b.get("fusion.build_index", 0.0), "s"),
        "fusion.index_bytes": (c("fusion.index_bytes"), "bytes"),
        "fusion.vocab_size": (c("fusion.vocab_size"), "count"),
        "fusion.align.s": (b.get("fusion.align", 0.0), "s"),
        "fusion.align.calls": (c("fusion.align.calls"), "count"),
        "fusion.align.matched_ratio": (ratio("fusion.align.matched", "fusion.align.calls"), "ratio"),
        "fusion.fuse.self_s": (s.get("fusion.fuse", 0.0), "s"),
        "graph.add_patient_record.s": (b.get("graph.add_patient_record", 0.0), "s"),
        "graph.merge_node_into.s": (b.get("graph.merge_node_into", 0.0), "s"),
        "graph.merge_node_into.calls": (c("graph.merge_node_into.calls"), "count"),
        "graph.merge_node_into.repointed": (c("graph.merge_node_into.repointed"), "count"),
        "graph.save_graph.s": (b.get("graph.save_graph", 0.0), "s"),
        "graph.load_graph.s": (b.get("graph.load_graph", 0.0), "s"),
        "graph.bytes": (c("graph.bytes"), "bytes"),
        "graph.pattern_query.s": (b.get("graph.pattern_query", 0.0), "s"),
        "graph.pattern_query.calls": (c("graph.pattern_query.calls"), "count"),
        "graph.export_cypher.s": (b.get("graph.export_cypher", 0.0), "s"),
        "graph.export_csv.s": (b.get("graph.export_csv", 0.0), "s"),
        "graph.export_statements": (c("graph.export_statements"), "count"),
    }
    for stage in spans.STAGES:
        out[f"cli.{stage}.s"] = (b.get(f"cli.{stage}", 0.0), "s")
        out[f"cli.{stage}.self_s"] = (s.get(f"cli.{stage}", 0.0), "s")
    out["cli.write_manifest.s"] = (b.get("cli.write_manifest", 0.0), "s")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in s.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += value
    total = sum(layer_self.values())
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (layer_busy.get(layer, 0.0) / n_rounds, "s")
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out[f"{layer}.share"] = (layer_self[layer] / total if total else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out["trace.spans"] = (len(rec.select(run_ids)) / n_rounds, "count")
    return out



def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "emrkg" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: no emrkg checkout around {HERE}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(1, path)
    root_logger = logging.getLogger()
    if not root_logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root_logger.addHandler(handler)
    root_logger.setLevel(logging.WARNING)

    STATE_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE_DIR))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), args.size, work)
        started = time.perf_counter()
        bench.prepare()
        setup = bench.measure_setup()
        bench.measure()
        if args.trace:
            metrics = bench.per_layer()
            bench.rec.dump(STATE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = {name: (value, END_TO_END[name]) for name, value in bench.end_to_end(setup).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "inputs": bench.inputs,
        "threads": thread_settings(),
        "pace": bench.pace_summary(),
        "uncorrected_run_s": median(bench.pass_wall_s),
        "rounds": bench.rounds,
        "samples": {"setup": len(setup), "rounds": len(bench.rounds),
                    "align_queries": len(bench.align_ms), "query_calls": len(bench.query_s)},
        "error_rate": bench.ops.failed / max(1, bench.ops.attempted),
        "failures": bench.ops.failures[:20],
        "wall_s": time.perf_counter() - started,
    }
    (STATE_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "metrics": metrics}, indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:16.6g} {unit}")
    print(f"error_rate {details['error_rate']:.6g} ({bench.ops.failed}/{bench.ops.attempted} operations)")
    print(json.dumps({
        "correct": bench.ops.failed == 0,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
