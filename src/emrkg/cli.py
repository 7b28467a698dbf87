"""Command-line pipeline orchestration.

Every run resolves one configuration (defaults, then config file, then
command-line flags, flags winning), derives all stage seeds from the
single configured seed, and writes a ``manifest.json`` next to its
outputs recording the resolved configuration, its hash, input digests
and library versions. No output file embeds a timestamp, so reruns with
identical inputs and seed are byte-identical.

Exit codes: 0 success, 1 usage, 2 configuration, 3 data, 4 internal.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import logging
import platform
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import Iterator

import emrkg
from emrkg._np import np
from emrkg.corpus import (
    AnnotatedDocument,
    BioSentence,
    DatasetSplit,
    ValidationReport,
    corpus_files,
    from_bio,
    load_corpus_dir,
    read_bio_file,
    segment,
    split_dataset,
    write_bio_file,
)
from emrkg.derm import (
    DermConfig,
    augment_epoch,
    build_dictionary,
    read_dictionary_file,
    write_dictionary_file,
)
from emrkg.errors import (
    ConfigError,
    DataError,
    EmrkgError,
    find_lone_surrogate,
    read_lines,
    read_records,
    require_utf8_name,
    write_file,
    write_records,
)
from emrkg.fusion import Alignment, FusionConfig, align, build_index, fuse
from emrkg.graph import (
    KnowledgeGraph,
    add_patient_record,
    canonical_order,
    export_csv,
    export_cypher,
    load_graph,
    load_nodes_and_triples,
    save_graph,
)
from emrkg.kb import kb_into_graph, load_kb
from emrkg.metrics import count_matches, precision_recall_f1, report_dict, report_table
from emrkg.schema import ALIGNED_LABEL, KB_ENTITY_TYPES, SPAN_TYPE_TO_RELATION, EntitySchema
from emrkg.tagger import TagSet, TrainConfig, load_model, predict, save_model, train

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

ENTITIES_SCHEMA_TAG = "entities/1"


def derive_seed(seed: int, stage: str) -> int:
    """Per-stage seed: first eight bytes of sha256 over ``seed:stage``.
    Stages stay independent and reproducible from the one configured seed."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**32)


@dataclass(frozen=True)
class PipelineConfig:
    """The resolved configuration; each section's dataclass checks its own values."""

    seed: int
    output_dir: Path
    train: TrainConfig
    corpus_dir: Path | None = None
    kb_file: Path | None = None
    model_file: Path | None = None
    max_len: int = 50
    schema: EntitySchema = field(default_factory=EntitySchema)
    fusion: FusionConfig = field(default_factory=FusionConfig)

    def __post_init__(self) -> None:
        if type(self.seed) is not int:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if type(self.max_len) is not int or self.max_len < 2:
            raise ConfigError(f"max_len must be an integer of at least 2, got {self.max_len!r}")

    def resolved_model_file(self) -> Path:
        return self.model_file if self.model_file else self.output_dir / "model.bin"

    def require_corpus_dir(self) -> Path:
        if self.corpus_dir is None:
            raise ConfigError("corpus_dir is required (config key or --corpus-dir)")
        if not self.corpus_dir.is_dir():
            raise ConfigError(f"corpus_dir {self.corpus_dir} is not a directory")
        return self.corpus_dir

    def require_kb_file(self) -> Path:
        if self.kb_file is None:
            raise ConfigError("kb_file is required (config key or --kb-file)")
        if not self.kb_file.is_file():
            raise ConfigError(f"kb_file {self.kb_file} does not exist")
        return self.kb_file

    def as_dict(self) -> dict:
        """Every resolved value, in the layout of the config file."""
        train = asdict(self.train)
        del train["seed"], train["derm"]
        return {
            "seed": self.seed,
            "output_dir": str(self.output_dir),
            "corpus_dir": str(self.corpus_dir) if self.corpus_dir else None,
            "kb_file": str(self.kb_file) if self.kb_file else None,
            "model_file": str(self.resolved_model_file()),
            "max_len": self.max_len,
            "entity_types": list(self.schema),
            "derm": asdict(self.train.derm),
            "train": train,
            "fusion": asdict(self.fusion),
        }


# the file spells schema as entity_types and keeps train.derm as its own section
_FILE_KEYS = {f.name for f in fields(PipelineConfig)} - {"schema"} | {"entity_types", "derm"}


def _section(raw: dict, name: str, cls, **fixed):
    """The file's ``name`` object as a ``cls``; ``fixed`` sets the fields
    the file does not. The dataclass checks the values."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {section!r}")
    unknown = set(section) - ({f.name for f in fields(cls)} - set(fixed))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return cls(**section, **fixed)


def load_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge defaults, config file and flags (flags win), and check every
    section, whichever subcommand runs."""
    raw: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist")
        try:
            text = path.read_text(encoding="utf-8")
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also not UTF-8, or too long an int
            raise ConfigError(f"config file {path}: invalid JSON: {exc}") from exc
        bad = find_lone_surrogate(text, raw)
        if bad is not None:
            raise ConfigError(f"config file {path}: lone surrogate in the string {bad[:40]!r}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
        unknown = set(raw) - _FILE_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def pick(key: str, default=None):
        value = getattr(args, key, None)
        return value if value is not None else raw.get(key, default)

    def as_path(key: str) -> Path | None:
        value = pick(key)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{key} must be a path string, got {value!r}")
        if not value:
            return None
        require_utf8_name(Path(value), ConfigError)  # the manifest records every path
        return Path(value)

    seed, output_dir, entity_types = pick("seed"), as_path("output_dir"), raw.get("entity_types")
    if seed is None:
        raise ConfigError("seed is mandatory (config key 'seed' or --seed)")
    if output_dir is None:
        raise ConfigError("output_dir is required (config key or --output-dir)")
    return PipelineConfig(
        seed=seed,
        output_dir=output_dir,
        corpus_dir=as_path("corpus_dir"),
        kb_file=as_path("kb_file"),
        model_file=as_path("model_file"),
        max_len=pick("max_len", PipelineConfig.max_len),
        schema=EntitySchema() if entity_types is None else EntitySchema(entity_types),
        train=_section(raw, "train", TrainConfig, seed=derive_seed(seed, "train"),
                       derm=_section(raw, "derm", DermConfig)),
        fusion=_section(raw, "fusion", FusionConfig),
    )


# -- manifest --------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(cfg: PipelineConfig, subcommand: str, inputs: list[Path]) -> Path:
    # numpy's version comes from its install metadata, so that writing a
    # manifest does not load numpy. The import costs about 15 ms, so only
    # runs that write a manifest pay it.
    import importlib.metadata

    resolved = cfg.as_dict()
    manifest = {
        "subcommand": subcommand,
        "config": resolved,
        "config_sha256": hashlib.sha256(
            json.dumps(resolved, sort_keys=True, ensure_ascii=False).encode("utf-8")
        ).hexdigest(),
        "inputs": {str(p): _sha256_file(p) for p in sorted(set(inputs))},
        "versions": {
            "emrkg": emrkg.__version__,
            "numpy": importlib.metadata.version("numpy"),
            "python": platform.python_version(),
        },
    }
    path = cfg.output_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def _write_json(path: Path, payload) -> None:
    write_file(path, [json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"])


def _mkdir(path: Path) -> None:
    """Create ``path`` and its parents; a path that cannot be a directory
    (it, or a parent, is a regular file) is a configuration error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc}") from exc


def _corpus_inputs(corpus_dir: Path) -> list[Path]:
    texts, annotations = corpus_files(corpus_dir)
    return texts + annotations


# -- subcommands -----------------------------------------------------------
#
# Each subcommand is one ``run_<name>(cfg, args)`` function: it resolves its
# input files through ``_input``, does its stage's work and returns the
# inputs its manifest records; None writes no manifest.


def _input(args: argparse.Namespace, flag: str, default: Path | None = None) -> Path | None:
    """The file ``--flag`` names, else ``default``; None when neither is
    given. A file that does not exist, or whose name is not UTF-8, is a
    data error."""
    value = getattr(args, flag, None)
    path = Path(value) if value else default
    if path is not None:
        if not path.is_file():
            raise DataError(f"input file {path} (--{flag.replace('_', '-')}) does not exist")
        require_utf8_name(path)
    return path


def run_convert(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    """Standoff corpus to one BIO file plus a conversion report."""
    corpus_dir = cfg.require_corpus_dir()
    report = ValidationReport()
    docs = load_corpus_dir(corpus_dir, cfg.schema, report)
    sentences: list[BioSentence] = []
    for doc in docs:
        sentences.extend(segment(doc, cfg.max_len))
    write_bio_file(sentences, cfg.output_dir / "corpus.bio")
    _write_json(cfg.output_dir / "conversion_report.json", {
        "documents": len(docs),
        "sentences": len(sentences),
        "dropped_spans": [
            {"doc_id": doc_id, "span_id": span.id, "start": span.start,
             "end": span.end, "label": span.label, "reason": reason}
            for doc_id, span, reason in report.dropped
        ],
    })
    log.info("converted %d documents to %d sentences", len(docs), len(sentences))
    return _corpus_inputs(corpus_dir)


def run_split(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    bio_path = _input(args, "bio", cfg.output_dir / "corpus.bio")
    sentences = read_bio_file(bio_path, TagSet(cfg.schema).tags)
    try:
        parts = split_dataset(sentences, derive_seed(cfg.seed, "split"))
    except DataError as exc:  # too few sentences
        raise DataError(f"{bio_path}: {exc}") from exc
    for name, part in (("train", parts.train), ("validation", parts.validation), ("test", parts.test)):
        write_bio_file(list(part), cfg.output_dir / f"{name}.bio")
    log.info(
        "split %d sentences into %d/%d/%d",
        len(sentences), len(parts.train), len(parts.validation), len(parts.test),
    )
    return [bio_path]


def run_augment(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    bio_path = _input(args, "bio")
    dict_path = _input(args, "dictionary")
    sentences = read_bio_file(bio_path, TagSet(cfg.schema).tags)
    dictionary = read_dictionary_file(dict_path)
    rng = np.random.default_rng(derive_seed(cfg.seed, "augment"))
    outcomes = augment_epoch(sentences, dictionary, cfg.train.derm, rng)
    out = Path(args.out) if args.out else cfg.output_dir / "augmented.bio"
    _mkdir(out.parent)
    write_bio_file([o.sentence for o in outcomes], out)
    actions = Counter(outcome.action for outcome in outcomes)
    _write_json(cfg.output_dir / "augment_report.json", {"actions": actions})
    return [bio_path, dict_path]


def run_train(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    train_path = _input(args, "train", cfg.output_dir / "train.bio")
    validation_path = _input(args, "validation", cfg.output_dir / "validation.bio")
    dict_path = _input(args, "dictionary")
    model_path = cfg.resolved_model_file()
    _mkdir(model_path.parent)
    if model_path.is_dir():  # refused before training, not after every epoch
        raise DataError(f"cannot write {model_path}: it is a directory")
    # refused here, before the dictionary is built and written
    tags = TagSet(cfg.schema).tags
    train_sentences = read_bio_file(train_path, tags)
    if not train_sentences:
        raise DataError(f"{train_path}: empty training set")
    validation_sentences = read_bio_file(validation_path, tags)
    inputs = [train_path, validation_path]
    if dict_path is not None:
        dictionary = read_dictionary_file(dict_path)
        inputs.append(dict_path)
    else:
        # the catalogs of the KB types that are also span types
        kb_names = {}
        if cfg.kb_file is not None:
            kb_file = cfg.require_kb_file()
            _, catalogs = load_kb(kb_file)
            inputs.append(kb_file)
            kb_names = {label: catalogs.names(label) for label in KB_ENTITY_TYPES
                        if label in SPAN_TYPE_TO_RELATION}
        dictionary = build_dictionary(train_sentences, kb_names)
        write_dictionary_file(dictionary, cfg.output_dir / "dictionary.tsv")
    split = DatasetSplit(tuple(train_sentences), tuple(validation_sentences), ())
    result = train(split, dictionary, cfg.train, cfg.schema)
    save_model(result.model, model_path)
    log_lines = ["epoch,loss,precision,recall,f1"]
    log_lines += [
        f"{r.epoch},{r.loss:.10g},{r.precision:.10g},{r.recall:.10g},{r.f1:.10g}"
        for r in result.log
    ]
    write_file(cfg.output_dir / "train_log.csv", (line + "\n" for line in log_lines))
    _write_json(cfg.output_dir / "train_summary.json", {
        "best_epoch": result.best_epoch,
        "epochs": len(result.log),
        "best_f1": result.log[result.best_epoch - 1].f1,
        "final_loss": result.log[-1].loss,
    })
    log.info("trained %d epochs; best validation F1 %.4f at epoch %d",
             len(result.log), result.log[result.best_epoch - 1].f1, result.best_epoch)
    return inputs


def run_tag(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    """With ``--text``, tag plain text, one sentence per line, wrapped at
    max_len; without it, tag the corpus."""
    text_path = _input(args, "text")
    if text_path is None:
        return run_tag_corpus(cfg, args)
    model_path = _input(args, "model_file", cfg.resolved_model_file())
    model = load_model(model_path)
    sentences: list[BioSentence] = []
    for i, line in enumerate(read_lines(text_path)):
        if not line.strip():
            continue
        doc = AnnotatedDocument(doc_id=f"line{i + 1}", text=line, spans=[])
        sentences.extend(segment(doc, cfg.max_len))
    if not sentences:
        raise DataError(f"{text_path} contains no sentences")
    write_bio_file(predict(model, sentences), cfg.output_dir / "predicted.bio")
    return [model_path, text_path]


def run_tag_corpus(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    """Tag every corpus document with the trained model; emit the predicted
    BIO file and a per-document extracted-entities file."""
    model_path = _input(args, "model_file", cfg.resolved_model_file())
    corpus_dir = cfg.require_corpus_dir()
    model = load_model(model_path)
    docs = load_corpus_dir(corpus_dir, cfg.schema)
    per_doc = [segment(doc, cfg.max_len) for doc in docs]
    all_predicted = predict(model, [sentence for gold in per_doc for sentence in gold])
    predicted = iter(all_predicted)
    write_records(cfg.output_dir / "entities.jsonl", ENTITIES_SCHEMA_TAG, (
        {"doc_id": doc.doc_id, "entities": [
            [label, sentence.chars[start:end]]
            for sentence in islice(predicted, len(gold))
            for label, start, end in from_bio(sentence)
        ]}
        for doc, gold in zip(docs, per_doc)
    ))
    write_bio_file(all_predicted, cfg.output_dir / "predicted.bio")
    log.info("tagged %d documents", len(docs))
    return [model_path] + _corpus_inputs(corpus_dir)


def run_evaluate(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    gold_path = _input(args, "gold", cfg.output_dir / "test.bio")
    model_path = _input(args, "model_file", cfg.resolved_model_file())
    model = load_model(model_path)
    gold = read_bio_file(gold_path, TagSet(cfg.schema).tags)
    predicted = predict(model, gold)
    report = precision_recall_f1(count_matches(gold, predicted))
    _write_json(cfg.output_dir / "eval.json", {
        "dataset": str(gold_path),
        "sentences": len(gold),
        **report_dict(report),
    })
    write_file(cfg.output_dir / "eval.txt", [report_table(report) + "\n"])
    log.info("evaluated %s: micro F1 %.4f", gold_path, report.micro.f1)
    return [model_path, gold_path]


def run_kb_load(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    kb_file = cfg.require_kb_file()
    entries, catalogs = load_kb(kb_file)
    graph = KnowledgeGraph()
    triples = kb_into_graph(graph, entries)
    save_graph(graph, cfg.output_dir / "kb_graph.jsonl")
    _write_json(cfg.output_dir / "catalogs.json", asdict(catalogs))
    log.info("loaded %d diseases, %d triples, %d nodes",
             len(entries), triples, len(graph.nodes))
    return [kb_file]


_MALFORMED_ENTITIES = ("malformed record: expected a string doc_id and entities a list of "
                       "[label, surface] string pairs")


def _record_pairs(doc_id, entities) -> list[tuple[str, str]]:
    """A record's ``entities`` as (label, surface) tuples, refused unless ``doc_id`` is
    non-blank and each pair is two strings: a patient relation's label, a non-blank surface."""
    if not isinstance(doc_id, str) or not isinstance(entities, list):
        raise DataError(_MALFORMED_ENTITIES)
    if not doc_id.strip():  # add_patient_record refuses a blank node name
        raise DataError("blank doc_id")
    pairs = []
    for pair in entities:
        if type(pair) is not list or len(pair) != 2:
            raise DataError(_MALFORMED_ENTITIES)
        label, surface = pair
        if type(label) is not str or type(surface) is not str:
            raise DataError(_MALFORMED_ENTITIES)
        if label not in SPAN_TYPE_TO_RELATION:
            raise DataError(f"no patient relation for entity type {label!r}")
        if not surface.strip():
            raise DataError(f"blank surface for entity type {label!r}")
        pairs.append((label, surface))
    return pairs


def _read_entities_file(path: Path) -> Iterator[tuple[str, list[tuple[str, str]]]]:
    """Each ``(doc_id, pairs)`` record of an entities/1 file, checked as it is read."""
    for lineno, obj in read_records(path, ENTITIES_SCHEMA_TAG):
        try:
            pairs = _record_pairs(obj.get("doc_id"), obj.get("entities"))
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        yield obj["doc_id"], pairs


# what would split a field of alignments.tsv, or its line, when read back
_FIELD_BREAK = re.compile("[\t\n\r]")


def _report_field(path: Path, name: str) -> str:
    """``name``, unless it holds a tab or a line break: that is a data
    error naming ``path``, the file the name came from."""
    if _FIELD_BREAK.search(name):
        raise DataError(f"{path}: the name {name!r} holds a tab or a line break, "
                        "which a field of alignments.tsv cannot hold")
    return name


def run_align(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    """Align source names (``--names``, else the Disease surfaces of
    ``--entities``) against the KB disease catalog; write a TSV report of
    source, matched target (empty if none) and similarity. A name that a
    field of the report cannot hold stops the stage before it writes."""
    source_path = _input(args, "names")
    if source_path is not None:
        sources = [line.strip() for line in read_lines(source_path) if line.strip()]
    else:
        source_path = _input(args, "entities")
        if source_path is None:
            raise ConfigError("align requires --names or --entities")
        sources = sorted({surface for _, entities in _read_entities_file(source_path)
                          for label, surface in entities if label == ALIGNED_LABEL})
    for source in sources:
        _report_field(source_path, source)
    kb_file = cfg.require_kb_file()
    _, catalogs = load_kb(kb_file)
    kb_names = catalogs.names(ALIGNED_LABEL)
    if not kb_names:
        raise DataError(f"{kb_file}: KB has no disease names to align against")
    index = build_index(list(kb_names), cfg.fusion.ngram_orders)
    rows = ["source\ttarget\tsimilarity"]
    for source in sources:
        result = align(source, index, cfg.fusion.threshold)
        target = "" if result.target is None else _report_field(kb_file, result.target)
        rows.append(f"{result.source}\t{target}\t{result.similarity:.12g}")
    write_file(cfg.output_dir / "alignments.tsv", (row + "\n" for row in rows))
    log.info("aligned %d names against %d KB diseases", len(sources), len(kb_names))
    return [source_path, kb_file]


def read_alignment_file(path: Path, threshold: float) -> list[Alignment]:
    lines = read_lines(path)
    if next(lines, None) != "source\ttarget\tsimilarity":
        raise DataError(f"{path}: missing alignment header row")
    alignments = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}: line {lineno}: expected 3 tab-separated fields")
        source, target, similarity = parts
        try:
            similarity = float(similarity)
            if not 0.0 <= similarity <= 1.0:  # also rejects nan
                raise ValueError(f"similarity {similarity} is not in [0, 1]")
            alignments.append(Alignment(source, target or None, similarity, threshold,
                                        f"{path}: line {lineno}"))
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return alignments


def run_fuse(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    """Insert extracted patient records into the KB graph, then merge
    aligned disease nodes into their canonical KB nodes."""
    graph_path = _input(args, "graph", cfg.output_dir / "kb_graph.jsonl")
    entities_path = _input(args, "entities")
    alignments_path = _input(args, "alignments", cfg.output_dir / "alignments.tsv")
    graph = load_graph(graph_path)
    if entities_path is not None:
        for doc_id, entities in _read_entities_file(entities_path):
            add_patient_record(graph, doc_id, entities)
    report = fuse(graph, read_alignment_file(alignments_path, cfg.fusion.threshold))
    save_graph(graph, cfg.output_dir / "graph.jsonl")
    _write_json(cfg.output_dir / "fusion_report.json", {
        "merged": [list(row) for row in report.merged],
        "unmatched": list(report.unmatched),
        "skipped": list(report.skipped),
    })
    log.info("fused graph: %d merged, %d unmatched, %d skipped",
             len(report.merged), len(report.unmatched), len(report.skipped))
    return [graph_path, alignments_path] + ([entities_path] if entities_path else [])


def run_export(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    graph_path = _input(args, "graph", cfg.output_dir / "graph.jsonl")
    order = canonical_order(*load_nodes_and_triples(graph_path))
    count = export_cypher(order, cfg.output_dir / "graph.cypher", graph_path)
    export_csv(order, cfg.output_dir / "nodes.csv", cfg.output_dir / "rels.csv")
    log.info("exported %d statements", count)
    return [graph_path]


def run_query(cfg: PipelineConfig, args: argparse.Namespace) -> None:
    """Read-only: writes no manifest. The graph file is read and checked
    whole, but only the queried head's triples are kept."""
    graph_path = _input(args, "graph", cfg.output_dir / "graph.jsonl")
    graph = load_graph(graph_path, head=(args.label, args.name))
    nodes = graph.pattern_query(args.label, args.name, args.relation)
    output = "".join(node.name + "\n" for node in nodes)
    if args.out:
        out = Path(args.out)
        _mkdir(out.parent)
        write_file(out, [output])
    else:
        sys.stdout.write(output)


def run_pipeline(cfg: PipelineConfig, args: argparse.Namespace) -> list[Path]:
    """Every stage in order, each on its default inputs under output_dir;
    align and fuse take their names and records from the tag stage. The
    stages are looked up on this module at call time, so a wrapper
    installed on ``emrkg.cli`` sees each of them."""
    stage_args = argparse.Namespace(entities=str(cfg.output_dir / "entities.jsonl"))
    for stage in (run_convert, run_split, run_train, run_tag_corpus, run_evaluate,
                  run_kb_load, run_align, run_fuse, run_export):
        stage(cfg, stage_args)
    return _corpus_inputs(cfg.require_corpus_dir()) + [cfg.require_kb_file()]


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``emrkg`` argument parser. ``main`` runs subcommand ``x-y`` as
    this module's ``run_x_y``, looked up when it runs, so a wrapper
    installed after the parser is built still runs."""
    parser = argparse.ArgumentParser(
        prog="emrkg",
        description="Clinical-text knowledge-graph pipeline: annotation "
        "conversion, tagger training, entity alignment, graph fusion and export.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--seed", type=int, help="master random seed (overrides config)")
    common.add_argument("--corpus-dir", dest="corpus_dir", help="directory of .txt/.ann pairs")
    common.add_argument("--kb-file", dest="kb_file", help="knowledge base JSONL file")
    common.add_argument("--output-dir", dest="output_dir", help="directory for all outputs")
    common.add_argument("--model-file", dest="model_file", help="tagger model path")
    common.add_argument("--max-len", dest="max_len", type=int, help="sentence wrap length")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("convert", parents=[common],
                   help="standoff corpus to BIO sentences")

    p = sub.add_parser("split", parents=[common], help="8:1:1 dataset split")
    p.add_argument("--bio", help="input BIO file (default: <output-dir>/corpus.bio)")

    p = sub.add_parser("augment", parents=[common],
                       help="one replace/mask augmentation pass over a BIO file")
    p.add_argument("--bio", required=True, help="input BIO file")
    p.add_argument("--dictionary", required=True, help="entity dictionary TSV")
    p.add_argument("--out", help="output BIO file")

    p = sub.add_parser("train", parents=[common], help="train the sequence tagger")
    p.add_argument("--train", help="training BIO file (default: <output-dir>/train.bio)")
    p.add_argument("--validation", help="validation BIO file (default: <output-dir>/validation.bio)")
    p.add_argument("--dictionary", help="entity dictionary TSV (default: built from data)")

    p = sub.add_parser("tag", parents=[common], help="tag a corpus or plain text")
    p.add_argument("--text", help="plain text file, one sentence per line")

    p = sub.add_parser("evaluate", parents=[common], help="entity-level P/R/F1")
    p.add_argument("--gold", help="gold BIO file (default: <output-dir>/test.bio)")

    sub.add_parser("kb-load", parents=[common],
                   help="load the KB into a graph file")

    p = sub.add_parser("align", parents=[common],
                       help="TF-IDF-align entity names to KB diseases")
    p.add_argument("--names", help="file of names, one per line")
    p.add_argument("--entities", help="extracted-entities JSONL from the tag step")

    p = sub.add_parser("fuse", parents=[common],
                       help="insert patient records and merge aligned nodes")
    p.add_argument("--graph", help="input graph file (default: <output-dir>/kb_graph.jsonl)")
    p.add_argument("--entities", help="extracted-entities JSONL to insert")
    p.add_argument("--alignments", help="alignment TSV (default: <output-dir>/alignments.tsv)")

    p = sub.add_parser("export", parents=[common], help="Cypher and CSV export")
    p.add_argument("--graph", help="input graph file (default: <output-dir>/graph.jsonl)")

    p = sub.add_parser("query", parents=[common], help="pattern query over a graph file")
    p.add_argument("--graph", help="graph file (default: <output-dir>/graph.jsonl)")
    p.add_argument("--label", required=True, help="head node label")
    p.add_argument("--name", required=True, help="head node name")
    p.add_argument("--relation", required=True, help="relation type")
    p.add_argument("--out", help="write results here instead of stdout")

    sub.add_parser("pipeline", parents=[common],
                   help="run every stage end to end")
    return parser


# built once per process, which may call ``main`` once per stage and query
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    Python's cyclic garbage collector is paused for the run and put back
    as the caller had it. A stage builds tens of thousands of nodes,
    triples and index dicts that live until it returns, and every full
    collection would walk them all again; none of them can be part of a
    cycle, so reference counting frees them as before. The little cyclic
    garbage a run makes does not grow with its inputs
    (``test_a_stage_leaves_the_same_cyclic_garbage_at_any_size``) and
    waits for the caller's next collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        cfg = load_config(args)
        _mkdir(cfg.output_dir)
        inputs = globals()["run_" + args.subcommand.replace("-", "_")](cfg, args)
        if inputs is not None:
            write_manifest(cfg, args.subcommand, inputs)
        return EXIT_OK
    except ConfigError as exc:
        log.error("%s: %s", args.subcommand, exc)
        return EXIT_CONFIG
    except DataError as exc:
        log.error("%s: %s", args.subcommand, exc)
        return EXIT_DATA
    except EmrkgError as exc:
        log.error("%s: internal error: %s", args.subcommand, exc)
        return EXIT_INTERNAL
    except Exception as exc:  # final safety net so scripts always get a code
        log.exception("%s: unexpected error: %s", args.subcommand, exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
