"""In-memory span recorder and the patch table that feeds it.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index
of the enclosing span (or -1) and ``run_id`` names the benchmark operation
it belongs to. Spans stay in memory; :meth:`Recorder.dump` writes them out
once the run is over.

Spans come from wrappers installed by :func:`patched`. Each wrapper
replaces a name in the module that *calls* it (``emrkg.tagger.model.
lstm_forward`` rather than ``emrkg.tagger.lstm.lstm_forward``), because
that is the binding the caller looks up at call time. Counts are recorded
by the same wrappers, so they are taken at the span boundaries.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.run_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.run_id][name] += value

    def gauge(self, name: str, value: float) -> None:
        self.counts[self.run_id][name] = value

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span named ``name``; ``on_result(recorder, result,
        args, kwargs)`` records counts after each successful call."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.count(name + ".calls")
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return wrapper

    # -- derived numbers ---------------------------------------------------

    def select(self, run_ids) -> list[int]:
        wanted = set(run_ids)
        return [i for i, s in enumerate(self.spans) if s[4] in wanted]

    def self_times(self, indices: list[int]) -> dict[int, float]:
        """Duration minus the union of child-span intervals, per span."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for i in indices:
            parent = self.spans[i][3]
            if parent >= 0:
                children[parent].append(self.spans[i][1:3])
        out = {}
        for i in indices:
            _, start, end, _, _ = self.spans[i]
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[i] = (end - start) - covered
        return out

    def totals(self, run_ids) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """Per span name: busy seconds, self seconds; per layer (the name's
        first dotted part): busy seconds, counted once where spans of the
        layer nest."""
        indices = self.select(run_ids)
        own = self.self_times(indices)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        layer_busy: dict[str, float] = defaultdict(float)
        for i in indices:
            name, start, end, parent, _ = self.spans[i]
            busy[name] += end - start
            self_s[name] += own[i]
            layer = name.split(".", 1)[0]
            outer = parent
            while outer >= 0 and self.spans[outer][0].split(".", 1)[0] != layer:
                outer = self.spans[outer][3]
            if outer < 0:
                layer_busy[layer] += end - start
        return busy, self_s, layer_busy

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run_id in self.spans:
                handle.write(json.dumps([name, start, end, parent, run_id]) + "\n")


# -- what gets wrapped -----------------------------------------------------


def _predict_chars(rec, result, args, kwargs):
    rec.count("tagger.predict.chars", sum(len(s.chars) for s in result))


def _augment(rec, result, args, kwargs):
    rec.count("derm.sentences", len(result))
    rec.count("derm.replaced", sum(1 for o in result if o.action == "Replace"))


def _train(rec, result, args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    rec.count("tagger.train.epochs", config.epochs)
    rec.gauge("tagger.vocab_size", len(result.model.vocab))


def _index(rec, result, args, kwargs):
    rec.gauge("fusion.index_bytes", result.doc_vectors.nbytes + result.idf.nbytes)
    rec.gauge("fusion.vocab_size", len(result.vocabulary))


def _align(rec, result, args, kwargs):
    if result.target is not None:
        rec.count("fusion.align.matched")


def _merge(rec, result, args, kwargs):
    rec.count("graph.merge_node_into.repointed", result)


def _saved(rec, result, args, kwargs):
    rec.gauge("graph.bytes", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


def _exported(rec, result, args, kwargs):
    rec.count("graph.export_statements", result)


# Stage functions of the CLI: timed in every run, traced or not.
STAGES = {
    "convert": "run_convert",
    "split": "run_split",
    "train": "run_train",
    "tag": "run_tag_corpus",
    "evaluate": "run_evaluate",
    "kb_load": "run_kb_load",
    "align": "run_align",
    "fuse": "run_fuse",
    "export": "run_export",
}

# (module or module:Class, attribute, span name, counter) for the traced run.
LAYER_TABLE = [
    ("emrkg.cli", "write_manifest", "cli.write_manifest", None),
    ("emrkg.cli", "load_corpus_dir", "corpus.load_corpus_dir", None),
    ("emrkg.cli", "segment", "corpus.segment", None),
    ("emrkg.cli", "read_bio_file", "corpus.read_bio_file", None),
    ("emrkg.cli", "write_bio_file", "corpus.write_bio_file", None),
    ("emrkg.tagger.train", "augment_epoch", "derm.augment_epoch", _augment),
    ("emrkg.cli", "train", "tagger.train", _train),
    ("emrkg.tagger.train", "_evaluate", "tagger.train.validate", None),
    ("emrkg.tagger.train", "sentence_loss_and_grads", "tagger.sentence_loss_and_grads", None),
    ("emrkg.tagger.model", "lstm_forward", "tagger.lstm_forward", None),
    ("emrkg.tagger.model", "lstm_backward", "tagger.lstm_backward", None),
    ("emrkg.tagger.model", "nll_with_grad", "tagger.crf_nll_with_grad", None),
    ("emrkg.tagger.model", "viterbi", "tagger.crf_viterbi", None),
    ("emrkg.cli", "predict", "tagger.predict", _predict_chars),
    ("emrkg.cli", "save_model", "tagger.save_model", None),
    ("emrkg.cli", "load_model", "tagger.load_model", None),
    ("emrkg.cli", "count_matches", "metrics.count_matches", None),
    ("emrkg.tagger.train", "count_matches", "metrics.count_matches", None),
    ("emrkg.cli", "load_kb", "kb.load_kb", None),
    ("emrkg.cli", "kb_into_graph", "kb.kb_into_graph", None),
    ("emrkg.cli", "build_index", "fusion.build_index", _index),
    ("emrkg.fusion", "build_index", "fusion.build_index", _index),
    ("emrkg.cli", "align", "fusion.align", _align),
    ("emrkg.fusion", "align", "fusion.align", _align),
    ("emrkg.cli", "fuse", "fusion.fuse", None),
    ("emrkg.cli", "add_patient_record", "graph.add_patient_record", None),
    ("emrkg.graph:KnowledgeGraph", "merge_node_into", "graph.merge_node_into", _merge),
    ("emrkg.graph:KnowledgeGraph", "pattern_query", "graph.pattern_query", None),
    ("emrkg.cli", "save_graph", "graph.save_graph", _saved),
    ("emrkg.cli", "load_graph", "graph.load_graph", None),
    ("emrkg.cli", "export_cypher", "graph.export_cypher", _exported),
    ("emrkg.cli", "export_csv", "graph.export_csv", None),
]


def _owner(target: str):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@contextmanager
def patched(recorder: Recorder, layers: bool, extra=()):
    """Install the stage wrappers (always), the layer wrappers (when
    ``layers``) and ``extra`` ``(target, attribute, replacement_factory)``
    entries; restore every original on exit."""
    table = [("emrkg.cli", fn, f"cli.{stage}", None) for stage, fn in STAGES.items()]
    if layers:
        table += LAYER_TABLE
    saved = []
    try:
        for target, attribute, name, on_result in table:
            owner = _owner(target)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original, on_result))
        for target, attribute, factory in extra:
            owner = _owner(target)
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, factory(original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
