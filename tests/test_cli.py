"""Command-line interface: exit codes, stage outputs, config precedence."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import shutil
import struct
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emrkg.cli
import emrkg.graph
from emrkg.cli import build_parser, derive_seed, load_config, main
from emrkg.corpus import read_bio_file
from emrkg.derm import DermConfig, read_dictionary_file, write_dictionary_file
from emrkg.errors import DataError, InternalError, encode_record
from emrkg.fusion import FusionConfig
from emrkg.graph import load_graph, save_graph
from emrkg.schema import DEFAULT_ENTITY_TYPES, EntitySchema
from emrkg.tagger import TrainConfig
from emrkg.tagger.model import FORMAT_VERSION, MAGIC, TaggerModel, init_model, save_model
from emrkg.tagger.vocab import TagSet, Vocabulary
from tests.support import SEPARATOR_NAMES


_ROOT = Path(__file__).resolve().parents[1]


def _write_config(path, **overrides):
    config = {"seed": 7, "output_dir": str(path.parent / "out")}
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# -- exit codes --------------------------------------------------------------

_QUERY = ["--label", "Disease", "--name", "肝癌", "--relation", "RecommendedFood"]
_ALIGN = ["align", "--names", "{present}"]
_CONVERT = ["convert"]
# valid training files, so that only the config can be at fault
_TRAIN = ["train", "--train", "{bio}", "--validation", "{bio}"]

_NODE = '{"kind": "node", "id": 1, "label": "Disease", "name": "肝癌"}'
_SAVED_NODE = '{"attributes": {}, "id": 1, "kind": "node", "label": "Disease", "name": "肝癌"}'
_SAVED_TRIPLE = '{"head": 1, "kind": "triple", "relation": "Complication", "tail": 1}'
# a JSON integer longer than Python's int-string limit (4,300 digits), which
# json.dumps cannot write: files are given it as text
_TOO_LONG_INT = "1" * 5000
# one bad record each, after a valid header; ids and endpoints are JSON integers
_BAD_GRAPH_RECORDS = {
    "graph_node_id_overflows": _NODE.replace('"id": 1', '"id": 1e400'),
    "graph_node_id_fraction": _NODE.replace('"id": 1', '"id": 1.9'),
    "graph_node_id_bool": _NODE.replace('"id": 1', '"id": true'),
    "graph_node_id_string": _NODE.replace('"id": 1', '"id": "12"'),
    "graph_triple_head_overflows":
        _NODE + '\n{"kind": "triple", "head": 1e400, "relation": "Complication", "tail": 1}',
    # save_graph's own line shape, which a block of triples is scanned for
    "graph_triple_head_too_long":
        f'{{"head": {_TOO_LONG_INT}, "kind": "triple", "relation": "Complication", "tail": 1}}',
    # save_graph's own line shapes, with text before the second line of a
    # block led by a node line, or of one led by a triple line
    "graph_text_before_a_node_line": _SAVED_NODE + "\nJUNK"
        + _SAVED_NODE.replace('"id": 1', '"id": 2').replace("肝癌", "肝炎"),
    "graph_text_before_a_triple_line":
        _SAVED_NODE + "\n" + _SAVED_TRIPLE + "\nJUNK" + _SAVED_TRIPLE,
}
# doc_id is a string and entities a list of [label, surface] string pairs
_BAD_ENTITY_RECORDS = {
    "entities_doc_id_number": '{"doc_id": 5, "entities": []}',
    # a doc_id names the patient node, which add_patient_record refuses blank
    "entities_doc_id_space": '{"doc_id": " ", "entities": [["Disease", "肝癌"]]}',
    "entities_doc_id_ideographic_space": '{"doc_id": "\\u3000", "entities": [["Disease", "肝癌"]]}',
    "entities_surface_number": '{"doc_id": "d1", "entities": [["Disease", 5]]}',
    "entities_label_list": '{"doc_id": "d1", "entities": [[["Disease"], "肝癌"]]}',
    "entities_object": '{"doc_id": "d1", "entities": {"ab": 1}}',
    "entities_surface_lone_surrogate": '{"doc_id": "d1", "entities": [["Disease", "\\ud800"]]}',
    # and each pair a label with a patient relation and a non-blank surface
    "entities_label_no_patient_relation": '{"doc_id": "d1", "entities": [["Gene", "x"]]}',
    "entities_label_kb_only": '{"doc_id": "d1", "entities": [["Food", "鸡蛋"]]}',
    "entities_surface_empty": '{"doc_id": "d1", "entities": [["Disease", ""]]}',
    "entities_surface_space":
        '{"doc_id": "d1", "entities": [["Disease", "肝癌"], ["Symptom", " "]]}',
    "entities_surface_ideographic_space": '{"doc_id": "d1", "entities": [["Disease", "\\u3000"]]}',
}
# a valid graph, and the alignments that are read after the entities
_FUSE_ENTITIES = ["fuse", "--graph", "{graph_valid}", "--alignments", "{present}"]
# the similarity is finite and in [0, 1]
_BAD_SIMILARITIES = {
    "similarity_overflows": "肝癌\t肝癌\t1e400",
    "similarity_nan": "肝癌\t\tnan",
    "similarity_above_one": "肝癌\t肝癌\t1.5",
}

# one bad value each, and the subcommand that meets it; every subcommand
# checks the whole file at load
_BAD_CONFIGS = {
    "fusion_threshold_zero": (_ALIGN, {"fusion": {"threshold": 0}}),
    "fusion_threshold_above_one": (_ALIGN, {"fusion": {"threshold": 1.5}}),
    "fusion_ngram_orders_zero": (_ALIGN, {"fusion": {"ngram_orders": [0]}}),
    "fusion_ngram_orders_empty": (_ALIGN, {"fusion": {"ngram_orders": []}}),
    "fusion_ngram_orders_repeated": (_ALIGN, {"fusion": {"ngram_orders": [1, 2, 1]}}),
    "train_hidden_float": (_TRAIN, {"train": {"hidden": 2.5}}),
    "train_epochs_float": (_TRAIN, {"train": {"epochs": 1.5}}),
    "train_batch_size_float": (_TRAIN, {"train": {"batch_size": 2.5}}),
    "train_gradient_clip_string": (_TRAIN, {"train": {"gradient_clip": "5"}}),
    "train_gradient_clip_negative": (_TRAIN, {"train": {"gradient_clip": -1.0}}),
    "train_not_object": (_CONVERT, {"train": [1]}),
    "train_derm_enabled_string": (_CONVERT, {"train": {"derm_enabled": "no"}}),
    "entity_types_not_strings": (_CONVERT, {"entity_types": [1, 2]}),
    "entity_types_string": (_CONVERT, {"entity_types": "Disease"}),
    "entity_types_not_a_span_type": (_CONVERT, {"entity_types": ["Disease", "Gene"]}),
    "entity_types_repeated_in_another_case": (_CONVERT, {"entity_types": ["Disease", "disease"]}),
    "seed_float": (_CONVERT, {"seed": 1.7}),
    "max_len_float": (_CONVERT, {"max_len": 20.9}),
    # json.dumps writes each lone surrogate as a \ud800 escape
    "entity_types_lone_surrogate": (["kb-load"], {"entity_types": ["Disease", "\ud800"]}),
    "output_dir_lone_surrogate": (["kb-load"], {"output_dir": "out\ud800"}),
}



def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_missing_required_flag_is_a_usage_error(tmp_path, capsys):
    # query demands --label/--name/--relation
    assert main(["query", "--seed", "1", "--output-dir", str(tmp_path)]) == 1
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert main(["train", "--help"]) == 0
    capsys.readouterr()


def test_missing_seed_is_a_config_error(tmp_path, corpus_dir):
    code = main([
        "convert", "--corpus-dir", str(corpus_dir), "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 2


def test_unknown_config_key_is_a_config_error(tmp_path, corpus_dir):
    config = _write_config(tmp_path / "cfg.json", corpus_dir=str(corpus_dir), typo_key=1)
    assert main(["convert", "--config", str(config)]) == 2


def test_unreadable_config_file_is_a_config_error(tmp_path):
    missing = tmp_path / "absent.json"
    assert main(["convert", "--config", str(missing)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["convert", "--config", str(broken)]) == 2


def test_missing_corpus_dir_is_a_config_error(tmp_path):
    code = main([
        "convert", "--seed", "1",
        "--corpus-dir", str(tmp_path / "nowhere"),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 2


def test_malformed_kb_file_is_a_data_error(tmp_path):
    kb = tmp_path / "kb.jsonl"
    kb.write_text('{"name": "no header"}\n', encoding="utf-8")
    code = main([
        "kb-load", "--seed", "1", "--kb-file", str(kb),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 3


def test_kb_file_that_is_not_utf8_is_a_data_error(tmp_path):
    kb = tmp_path / "kb.jsonl"
    kb.write_bytes('{"schema": "kb/1"}\n{"name": "肝癌"}\n'.encode("gbk"))
    code = main([
        "kb-load", "--seed", "1", "--kb-file", str(kb),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 3


def test_unversioned_graph_file_is_a_data_error(tmp_path):
    graph = tmp_path / "graph.jsonl"
    graph.write_text('{"kind": "node"}\n', encoding="utf-8")
    code = main([
        "query", "--seed", "1", "--output-dir", str(tmp_path / "out"),
        "--graph", str(graph),
        "--label", "Disease", "--name", "肝癌", "--relation", "RecommendedFood",
    ])
    assert code == 3


@pytest.mark.parametrize(
    "argv, code, culprit",
    [
        pytest.param(["split", "--bio", "{missing}"], 3, "missing", id="split-bio"),
        pytest.param(["train", "--train", "{missing}"], 3, "missing", id="train-train"),
        pytest.param(["evaluate", "--gold", "{missing}"], 3, "missing", id="evaluate-gold"),
        pytest.param(["tag", "--model-file", "{missing}"], 3, "missing", id="tag-model-file"),
        pytest.param(["tag", "--text", "{missing}"], 3, "missing", id="tag-text"),
        pytest.param(["fuse", "--graph", "{present}", "--alignments", "{missing}"], 3, "missing",
                     id="fuse-alignments"),
        pytest.param(["align", "--names", "{missing}"], 3, "missing", id="align-names"),
        pytest.param(["augment", "--bio", "{present}", "--dictionary", "{missing}"], 3, "missing",
                     id="augment-dictionary"),
        pytest.param(["align", "--entities", "{bad_header}"], 3, "bad_header",
                     id="entities-header"),
        pytest.param(["convert", "--max-len", "1"], 2, None, id="max-len"),
        pytest.param(["split", "--bio", "{gbk}"], 3, "gbk", id="split-bio-not-utf8"),
        pytest.param(["split", "--bio", "{bio_bad_tags}"], 3, "bio_bad_tags",
                     id="split-bio-malformed-tags"),
        pytest.param(["align", "--names", "{gbk}"], 3, "gbk", id="align-names-not-utf8"),
        pytest.param(["augment", "--bio", "{present}", "--dictionary", "{gbk}"], 3, "gbk",
                     id="augment-dictionary-not-utf8"),
        pytest.param(["query", "--graph", "{gbk}", "--label", "Disease", "--name", "肝癌",
                      "--relation", "RecommendedFood"], 3, "gbk", id="query-graph-not-utf8"),
        pytest.param(["convert", "--config", "{gbk}"], 2, "gbk", id="config-not-utf8"),
        pytest.param(["tag", "--model-file", "{meta_not_utf8}"], 3, "meta_not_utf8",
                     id="model-metadata-not-utf8"),
        pytest.param(["tag", "--model-file", "{meta_no_vocab}"], 3, "meta_no_vocab",
                     id="model-metadata-missing-key"),
        pytest.param(["tag", "--model-file", "{meta_gene_type}"], 3, "meta_gene_type",
                     id="model-metadata-entity-type-not-a-span-type"),
        pytest.param(["tag", "--model-file", "{array_name_not_utf8}"], 3, "array_name_not_utf8",
                     id="model-array-name-not-utf8"),
        pytest.param(["tag", "--model-file", "{array_dim_huge}"], 3, "array_dim_huge",
                     id="model-array-dim-huge"),
        pytest.param(["train", "--train", "{present}", "--validation", "{missing}"], 3, "missing",
                     id="train-validation"),
        pytest.param(["train", "--train", "{present}", "--validation", "{present}",
                      "--dictionary", "{missing}"], 3, "missing", id="train-dictionary"),
        pytest.param(["evaluate", "--gold", "{present}", "--model-file", "{missing}"], 3,
                     "missing", id="evaluate-model-file"),
        pytest.param(["fuse", "--graph", "{missing}"], 3, "missing", id="fuse-graph"),
        pytest.param(["fuse", "--graph", "{present}", "--entities", "{missing}"], 3, "missing",
                     id="fuse-entities"),
        pytest.param(["export", "--graph", "{missing}"], 3, "missing", id="export-graph"),
        pytest.param(["query", "--graph", "{missing}", "--label", "Disease", "--name", "肝癌",
                      "--relation", "RecommendedFood"], 3, "missing", id="query-graph"),
        pytest.param(["align", "--entities", "{missing}"], 3, "missing", id="align-entities"),
        pytest.param(["augment", "--bio", "{missing}", "--dictionary", "{present}"], 3, "missing",
                     id="augment-bio"),
        pytest.param(["query", "--graph", "{graph_not_object}", *_QUERY], 3,
                     "graph_not_object", id="graph-record-not-object"),
        pytest.param(["query", "--graph", "{graph_attributes_not_object}", *_QUERY], 3,
                     "graph_attributes_not_object", id="graph-node-attributes-not-object"),
        pytest.param(["query", "--graph", "{graph_name_not_string}", *_QUERY], 3,
                     "graph_name_not_string", id="graph-node-name-not-string"),
        pytest.param(["query", "--graph", "{graph_name_blank}", *_QUERY], 3,
                     "graph_name_blank", id="graph-node-name-blank"),
        pytest.param(["query", "--graph", "{graph_relation_list}", *_QUERY], 3,
                     "graph_relation_list", id="graph-triple-relation-list"),
        pytest.param(["tag", "--model-file", "{meta_no_pad}"], 3, "meta_no_pad",
                     id="model-vocab-without-pad"),
        pytest.param(["tag", "--model-file", "{proj_w_flat}"], 3, "proj_w_flat",
                     id="model-proj-w-one-dimensional"),
        pytest.param(["tag", "--model-file", "{fw_u_short}"], 3, "fw_u_short",
                     id="model-fw-u-wrong-shape"),
        pytest.param(["tag", "--model-file", "{hidden_wrong}"], 3, "hidden_wrong",
                     id="model-hidden-not-the-arrays"),
        pytest.param(["evaluate", "--gold", "{bio}", "--model-file", "{trailing_byte}"], 3,
                     "trailing_byte", id="model-byte-after-the-last-array"),
        *[pytest.param([*stage, "--config", f"{{{name}}}"], 2, None, id=name.replace("_", "-"))
          for name, (stage, _) in _BAD_CONFIGS.items()],
        *[pytest.param(["query", "--graph", f"{{{name}}}", *_QUERY], 3, name,
                       id=name.replace("_", "-"))
          for name in _BAD_GRAPH_RECORDS],
        *[pytest.param([*stage, "--entities", f"{{{name}}}"], 3, name,
                       id=f"{stage[0]}-{name}".replace("_", "-"))
          for name in _BAD_ENTITY_RECORDS
          for stage in (_FUSE_ENTITIES, ["align"])],
        *[pytest.param(["fuse", "--graph", "{graph_valid}", "--alignments", f"{{{name}}}"], 3,
                       name, id=name.replace("_", "-"))
          for name in _BAD_SIMILARITIES],
        pytest.param(["export", "--graph", "{graph_name_lone_surrogate}"], 3,
                     "graph_name_lone_surrogate", id="export-graph-name-lone-surrogate"),
        # loads (the record decoder reads NaN and Infinity) but has no Cypher literal
        pytest.param(["export", "--graph", "{graph_attributes_non_finite}"], 3,
                     "graph_attributes_non_finite", id="export-graph-attributes-non-finite"),
        # loads, but its MERGE would name the node by the attribute
        pytest.param(["export", "--graph", "{graph_attribute_name}"], 3, "graph_attribute_name",
                     id="export-graph-attribute-name"),
        pytest.param(["fuse", "--graph", "{graph_aliases_string}", "--alignments",
                      "{aligned_to_aliases_string}"], 3, None, id="fuse-aliases-not-a-list"),
        pytest.param(["fuse", "--graph", "{graph_valid}", "--alignments",
                      "{aligned_to_no_node}"], 3, "aligned_to_no_node",
                     id="fuse-target-not-in-graph"),
        pytest.param(["split", "--bio", "{bio}"], 3, "bio", id="split-too-few-sentences"),
        pytest.param(["convert", "--config", "{deep_config}"], 2, "deep_config",
                     id="config-nested-too-deeply"),
        pytest.param(["convert", "--config", "{config_int_too_long}"], 2, "config_int_too_long",
                     id="config-int-too-long"),
        pytest.param(["kb-load", "--kb-file", "{kb_int_too_long}"], 3, "kb_int_too_long",
                     id="kb-record-int-too-long"),
        pytest.param(["kb-load", "--kb-file", "{kb_target_blank}"], 3, "kb_target_blank",
                     id="kb-record-target-blank"),
        pytest.param(["align", "--entities", "{header_int_too_long}"], 3, "header_int_too_long",
                     id="entities-header-int-too-long"),
        pytest.param(["tag", "--model-file", "{meta_deep}"], 3, "meta_deep",
                     id="model-metadata-nested-too-deeply"),
        pytest.param(["tag", "--model-file", "{meta_lone_surrogate}"], 3, "meta_lone_surrogate",
                     id="model-metadata-lone-surrogate"),
        pytest.param(["convert", "--output-dir", "{afile}"], 2, "afile",
                     id="output-dir-is-a-file"),
        pytest.param(["convert", "--output-dir", "{afile}/sub"], 2, "afile",
                     id="output-dir-under-a-file"),
        pytest.param([*_TRAIN, "--model-file", "{afile}/model.bin"], 2, "afile",
                     id="model-file-under-a-file"),
        pytest.param(["query", "--graph", "{graph_valid}", *_QUERY, "--out", "{afile}/q.txt"], 2,
                     "afile", id="query-out-under-a-file"),
        pytest.param(["augment", "--bio", "{bio}", "--dictionary", "{dictionary}",
                      "--out", "{afile}/a.bio"], 2, "afile", id="augment-out-under-a-file"),
        pytest.param([*_TRAIN, "--kb-file", "{missing}"], 2, "missing", id="train-kb-file"),
        pytest.param(["convert", "--corpus-dir", "{name_not_utf8_dir}"], 3, "name_not_utf8",
                     id="corpus-file-name-not-utf8"),
        pytest.param(["export", "--graph", "{graph_name_not_utf8}"], 3, "graph_name_not_utf8",
                     id="export-graph-name-not-utf8"),
        pytest.param(["train", "--train", "{bio_name_not_utf8}", "--validation", "{bio}"], 3,
                     "bio_name_not_utf8", id="train-train-name-not-utf8"),
        pytest.param(["train", "--train", "{bio_empty}", "--validation", "{bio}"], 3,
                     "bio_empty", id="train-train-empty"),
        pytest.param(["train", "--train", "{bio_gene}", "--validation", "{bio}"], 3,
                     "bio_gene", id="train-train-tag-not-in-schema"),
        pytest.param(["kb-load", "--kb-file", "{kb_name_not_utf8}"], 2, "kb_name_not_utf8",
                     id="kb-file-name-not-utf8"),
        pytest.param(["convert", "--output-dir", "{dir_name_not_utf8}"], 2, "dir_name_not_utf8",
                     id="output-dir-name-not-utf8"),
    ],
)
def test_bad_inputs_exit_with_their_code_and_no_traceback(
    argv, code, culprit, tmp_path, corpus_dir, kb_file, capsys, caplog
):
    """Each case has one bad input, and the log names it. ``{present}`` is
    a file that exists but is never read: the bad input is rejected first."""
    paths = {
        "missing": tmp_path / "missing.txt",
        "present": tmp_path / "present.txt",
        "bad_header": tmp_path / "bad_header.jsonl",
        "gbk": tmp_path / "gbk.txt",
        "meta_not_utf8": tmp_path / "meta_not_utf8.bin",
        "meta_no_vocab": tmp_path / "meta_no_vocab.bin",
        "meta_no_pad": tmp_path / "meta_no_pad.bin",
        "meta_deep": tmp_path / "meta_deep.bin",
        "meta_lone_surrogate": tmp_path / "meta_lone_surrogate.bin",
        "array_name_not_utf8": tmp_path / "array_name_not_utf8.bin",
        "array_dim_huge": tmp_path / "array_dim_huge.bin",
        "meta_gene_type": tmp_path / "meta_gene_type.bin",
    }
    paths["present"].write_text("", encoding="utf-8")
    paths["gbk"].write_bytes("肝\tB-Disease\n癌\tI-Disease\n".encode("gbk"))
    paths["bio_bad_tags"] = tmp_path / "bio_bad_tags.bio"
    paths["bio_bad_tags"].write_text("肝\tO\n癌\tI-Disease\n", encoding="utf-8")
    no_pad = [t for t in Vocabulary.build(["肝"]).tokens if t != "<pad>"]
    for name, meta in [("meta_not_utf8", '{"vocab": ["肝"]}'.encode("gbk")),
                       ("meta_no_vocab", b'{"entity_types": ["Disease"]}'),
                       ("meta_no_pad", json.dumps({"vocab": no_pad, "entity_types": ["Disease"]})
                        .encode("utf-8")),
                       ("meta_deep", b"[" * 100000)]:
        header = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(meta))
        paths[name].write_bytes(header + meta + struct.pack("<I", 0))
    # valid metadata, then one array table entry with a bad name or a bad dim
    meta = json.dumps({"vocab": list(Vocabulary.build(["肝"]).tokens),
                       "entity_types": ["Disease"]}).encode("utf-8")
    header = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(meta)) + meta
    for name, array_name, dim in [("array_name_not_utf8", "转移".encode("gbk"), 1),
                                  ("array_dim_huge", b"embedding", 2**62)]:
        table = struct.pack("<I", 1) + struct.pack("<H", len(array_name)) + array_name
        table += struct.pack("<B", 1) + struct.pack("<Q", dim) + struct.pack("<d", 0.0)
        paths[name].write_bytes(header + table)
    # a valid model but for one array's shape, or for the hidden size its
    # metadata states
    base = init_model(Vocabulary.build(["肝"]), TagSet(EntitySchema()), d_emb=2, hidden=2,
                      rng=np.random.default_rng(0))
    for name, change in [("proj_w_flat", {"proj_w": base.params["proj_w"].ravel()}),
                         ("fw_u_short", {"fw.u": base.params["fw.u"][:-1]}),
                         ("hidden_wrong", {})]:
        paths[name] = tmp_path / f"{name}.bin"
        save_model(TaggerModel(base.vocab, base.tagset, {**base.params, **change}), paths[name])
    raw = paths["hidden_wrong"].read_bytes()
    paths["trailing_byte"] = tmp_path / "trailing_byte.bin"
    paths["trailing_byte"].write_bytes(raw + b"\0")  # a valid model, then one more byte
    assert raw.count(b'"hidden": 2') == 1
    paths["hidden_wrong"].write_bytes(raw.replace(b'"hidden": 2', b'"hidden": 3'))
    # a valid model whose vocabulary token 肝 is the escape of a lone
    # surrogate, or whose last entity type is not a span type
    at = len(MAGIC) + 4
    (meta_len,) = struct.unpack("<Q", raw[at:at + 8])
    meta = raw[at + 8:at + 8 + meta_len]
    for name, old, new in [("meta_lone_surrogate", '"肝"'.encode("utf-8"), b'"\\ud800"'),
                           ("meta_gene_type", b'"Operation"', b'"Gene"')]:
        assert meta.count(old) == 1
        edited = meta.replace(old, new)
        paths[name].write_bytes(
            raw[:at] + struct.pack("<Q", len(edited)) + edited + raw[at + 8 + meta_len:]
        )
    for name, (_, overrides) in _BAD_CONFIGS.items():
        paths[name] = _write_config(tmp_path / f"{name}.json", **overrides)
    paths["bio"] = tmp_path / "sentences.bio"
    paths["bio"].write_text("肝\tB-Disease\n癌\tI-Disease\n", encoding="utf-8")
    paths["bio_empty"] = tmp_path / "empty.bio"
    paths["bio_empty"].write_text("", encoding="utf-8")
    paths["bio_gene"] = tmp_path / "gene.bio"
    paths["bio_gene"].write_text("肝\tB-Disease\n癌\tI-Disease\n\n基\tB-Gene\n因\tI-Gene\n",
                                 encoding="utf-8")
    for name, record in [
        ("graph_not_object", "[1]"),
        ("graph_attributes_not_object", _NODE[:-1] + ', "attributes": 5}'),
        ("graph_name_not_string", _NODE.replace('"肝癌"', "5")),
        ("graph_name_blank", _NODE.replace('"肝癌"', '" "')),
        ("graph_relation_list",
         _NODE + '\n{"kind": "triple", "head": 1, "relation": ["Complication"], "tail": 1}'),
        ("graph_valid", _NODE),
        ("graph_name_lone_surrogate", _NODE.replace('"肝癌"', '"\\ud800x"')),
        ("graph_attributes_non_finite",
         _NODE[:-1] + ', "attributes": {"x": NaN, "y": Infinity}}'),
        ("graph_attribute_name", _NODE[:-1] + ', "attributes": {"name": "别名"}}'),
        ("graph_aliases_string",
         _NODE.replace('"肝癌"', '"原发性肝细胞癌", "attributes": {"aliases": "x"}') + "\n"
         + _NODE.replace('"id": 1', '"id": 2').replace('"肝癌"', '"原发性肝细胞癌。"')),
        *_BAD_GRAPH_RECORDS.items(),
    ]:
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(f'{{"schema": "graph/1"}}\n{record}\n', encoding="utf-8")
    for name, record in _BAD_ENTITY_RECORDS.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(f'{{"schema": "entities/1"}}\n{record}\n', encoding="utf-8")
    for name, row in _BAD_SIMILARITIES.items():
        paths[name] = tmp_path / f"{name}.tsv"
        paths[name].write_text(f"source\ttarget\tsimilarity\n{row}\n", encoding="utf-8")
    paths["aligned_to_aliases_string"] = tmp_path / "aligned_to_aliases_string.tsv"
    paths["aligned_to_aliases_string"].write_text(
        "source\ttarget\tsimilarity\n原发性肝细胞癌。\t原发性肝细胞癌\t0.9\n", encoding="utf-8"
    )
    paths["aligned_to_no_node"] = tmp_path / "aligned_to_no_node.tsv"
    paths["aligned_to_no_node"].write_text(
        "source\ttarget\tsimilarity\n肝癌\t肝癌\t1\n某病\t不在图中\t0.9\n", encoding="utf-8"
    )
    paths["deep_config"] = tmp_path / "deep_config.json"
    paths["deep_config"].write_text("[" * 100000, encoding="utf-8")
    for name, text in [
        ("config_int_too_long", f'{{"seed": {_TOO_LONG_INT}}}\n'),
        ("kb_int_too_long",
         f'{{"schema": "kb/1"}}\n{{"name": "肝癌", "cure_time": {_TOO_LONG_INT}}}\n'),
        ("kb_target_blank",
         '{"schema": "kb/1"}\n{"name": "肝炎", "relations": {"RecommendedFood": [" "]}}\n'),
        ("header_int_too_long", f'{{"schema": {_TOO_LONG_INT}}}\n'),
    ]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    paths["afile"] = tmp_path / "afile"
    paths["afile"].write_text("a regular file\n", encoding="utf-8")
    paths["dictionary"] = tmp_path / "dictionary.tsv"
    paths["dictionary"].write_text("Disease\t肝癌\n", encoding="utf-8")
    # a valid pair whose name starts with a byte that is not UTF-8
    paths["name_not_utf8_dir"] = tmp_path / "name_not_utf8"
    paths["name_not_utf8_dir"].mkdir()
    paths["name_not_utf8"] = paths["name_not_utf8_dir"] / os.fsdecode(b"\xffdoc.txt")
    paths["name_not_utf8"].write_text("肝癌", encoding="utf-8")
    paths["name_not_utf8"].with_suffix(".ann").write_text("T1\tDisease 0 2\t肝癌\n",
                                                          encoding="utf-8")
    # valid input files given by a flag, each named with a byte that is not UTF-8
    paths["graph_name_not_utf8"] = tmp_path / os.fsdecode(b"\xffg.jsonl")
    paths["graph_name_not_utf8"].write_bytes(paths["graph_valid"].read_bytes())
    paths["bio_name_not_utf8"] = tmp_path / os.fsdecode(b"\xffs.bio")
    paths["bio_name_not_utf8"].write_bytes(paths["bio"].read_bytes())
    paths["kb_name_not_utf8"] = tmp_path / os.fsdecode(b"\xffkb.jsonl")
    paths["kb_name_not_utf8"].write_bytes(kb_file.read_bytes())
    paths["dir_name_not_utf8"] = tmp_path / os.fsdecode(b"out\xff")
    paths["bad_header"].write_text(
        'schema: entities/1\n{"doc_id": "d1", "entities": []}\n', encoding="utf-8"
    )
    defaults = {"--corpus-dir": corpus_dir, "--kb-file": kb_file, "--output-dir": tmp_path / "out"}
    flags = [arg for flag, path in defaults.items() if flag not in argv for arg in (flag, str(path))]
    if "--config" not in argv:  # a config file gives its own seed, which --seed would override
        flags += ["--seed", "1"]
    argv = [arg.format(**paths) for arg in argv] + flags
    assert main(argv) == code
    if culprit is not None:
        assert str(paths[culprit]) in caplog.text
    assert not (tmp_path / "out" / "dictionary.tsv").exists()  # train refuses it before writing
    assert "Traceback" not in capsys.readouterr().err
    assert "Traceback" not in caplog.text


# each writer, a run that reaches it, and its output, which the test makes a
# directory; paths are under the test's directory, out/ the output directory
_UNWRITABLE = {
    "json": (["kb-load"], "out/catalogs.json"),
    "manifest": (["kb-load"], "out/manifest.json"),
    "dictionary": (_TRAIN, "out/dictionary.tsv"),
    "model": ([*_TRAIN, "--model-file", "{target}"], "model.bin"),  # before any epoch
    "train-log": (_TRAIN, "out/train_log.csv"),
    "eval-txt": (["evaluate", "--gold", "{bio}", "--model-file", "{model}"], "out/eval.txt"),
    "alignments": (["align", "--names", "{names}"], "out/alignments.tsv"),
    "query-out": (["query", "--graph", "{graph}", *_QUERY, "--out", "{target}"], "answer.txt"),
    "augment-out": (["augment", "--bio", "{bio}", "--dictionary", "{dictionary}",
                     "--out", "{target}"], "augmented.bio"),
    "cypher": (["export", "--graph", "{graph}"], "out/graph.cypher"),
    "csv": (["export", "--graph", "{graph}"], "out/nodes.csv"),
}


@pytest.mark.parametrize("argv, target", _UNWRITABLE.values(), ids=_UNWRITABLE.keys())
def test_an_output_that_cannot_be_written_exits_3_naming_it(
    argv, target, tmp_path, corpus_dir, kb_file, capsys, caplog, monkeypatch
):
    """Every output file goes through one writer, which maps a failed
    write to exit 3 and ``cannot write <path>: <reason>``, naming no input.
    A model file that is a directory is refused before training."""
    trained = []
    train = emrkg.cli.train
    monkeypatch.setattr(emrkg.cli, "train", lambda *args: trained.append(1) or train(*args))
    paths = {name: tmp_path / name for name in ("bio", "dictionary", "graph", "model", "names")}
    paths["names"].write_text("肝癌\n", encoding="utf-8")
    paths["bio"].write_text("肝\tB-Disease\n癌\tI-Disease\n", encoding="utf-8")
    paths["dictionary"].write_text("Disease\t肝癌\n", encoding="utf-8")
    paths["graph"].write_text(f'{{"schema": "graph/1"}}\n{_NODE}\n', encoding="utf-8")
    save_model(init_model(Vocabulary.build(["肝癌"]), TagSet(EntitySchema()), d_emb=2, hidden=2,
                          rng=np.random.default_rng(0)), paths["model"])
    paths["target"] = tmp_path / target
    paths["target"].mkdir(parents=True)
    argv = [arg.format(**paths) for arg in argv] + [
        "--seed", "1", "--corpus-dir", str(corpus_dir), "--kb-file", str(kb_file),
        "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    assert f"cannot write {paths['target']}: " in caplog.text
    assert f"{paths['graph']}: " not in caplog.text
    assert bool(trained) == (target == "out/train_log.csv")
    assert not (tmp_path / "out" / "train_log.csv").is_file()
    assert "Traceback" not in capsys.readouterr().err
    assert "Traceback" not in caplog.text


# -- configuration -----------------------------------------------------------

# each config key, by section (None: top level), and the values it takes
_KINDS = {
    "train": {"batch_size": "int", "epochs": "int", "learning_rate": "real", "hidden": "int",
              "d_emb": "int", "derm_enabled": "bool", "gradient_clip": "real or null",
              "momentum": "real"},
    "derm": {"p_replace": "real", "p_mask": "real", "p_noop": "real", "short_threshold": "int",
             "mask_fraction": "real"},
    "fusion": {"threshold": "real", "ngram_orders": "list of ints"},
    None: {"seed": "int", "max_len": "int", "output_dir": "path", "corpus_dir": "path or null",
           "kb_file": "path or null", "model_file": "path or null",
           "entity_types": "list of strs or null", "train": "object", "derm": "object",
           "fusion": "object"},
}
_JSON = {
    "str": st.text(max_size=4),
    "bool": st.booleans(),
    "int": st.integers(-3, 3),
    "float": st.floats(-3, 3),
    "list": st.lists(st.integers(-3, 3), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    "null": st.none(),
}
_WRONG = {  # the JSON types each kind rejects
    "int": ("str", "bool", "float", "list", "object", "null"),
    "real": ("str", "bool", "list", "object", "null"),
    "real or null": ("str", "bool", "list", "object"),
    "bool": ("str", "int", "float", "list", "object", "null"),
    "list of ints": ("str", "bool", "int", "float", "object", "null"),
    "path": ("bool", "int", "float", "list", "object", "null"),
    "path or null": ("bool", "int", "float", "list", "object"),
    "list of strs or null": ("str", "bool", "int", "float", "list", "object"),
    "object": ("str", "bool", "int", "float", "list", "null"),
}


def _resolved(tmp_path, config: dict) -> dict:
    """``config`` written to a file and loaded, as a manifest records it."""
    path = tmp_path / "resolved.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    cfg = load_config(build_parser().parse_args(["convert", "--config", str(path)]))
    return json.loads(json.dumps(cfg.as_dict()))


def test_the_fuzzed_kinds_cover_every_config_key(tmp_path):
    assert set(_KINDS["train"]) == {f.name for f in fields(TrainConfig)} - {"seed", "derm"}
    assert set(_KINDS["derm"]) == {f.name for f in fields(DermConfig)}
    assert set(_KINDS["fusion"]) == {f.name for f in fields(FusionConfig)}
    assert set(_KINDS[None]) == set(_resolved(tmp_path, {"seed": 1, "output_dir": "out"}))


@st.composite
def _one_wrong_value(draw):
    section = draw(st.sampled_from(list(_KINDS)))
    key = draw(st.sampled_from(sorted(_KINDS[section])))
    value = draw(_JSON[draw(st.sampled_from(_WRONG[_KINDS[section][key]]))])
    return {section: {key: value}} if section else {key: value}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=_one_wrong_value())
def test_a_config_value_of_the_wrong_json_type_exits_2(
    overrides, tmp_path, corpus_dir, capsys, caplog
):
    config = _write_config(tmp_path / "cfg.json", **{"corpus_dir": str(corpus_dir), **overrides})
    caplog.clear()
    assert main(["convert", "--config", str(config)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert "Traceback" not in caplog.text


# -- file readers --------------------------------------------------------------

# each reader, the valid file it is fed, and the subcommand that reads it;
# ``{broken}`` is that file with one change
_READERS = {
    "kb-load --kb-file": ("kb", ["kb-load", "--kb-file", "{broken}"]),
    "export --graph": ("graph", ["export", "--graph", "{broken}"]),
    "query --graph": ("graph", ["query", "--graph", "{broken}", *_QUERY]),
    "fuse --entities": ("entities", ["fuse", "--graph", "{graph}", "--entities", "{broken}",
                                     "--alignments", "{alignments}"]),
    "align --entities": ("entities", ["align", "--entities", "{broken}", "--kb-file", "{kb}"]),
    "fuse --alignments": ("alignments", ["fuse", "--graph", "{graph}", "--entities",
                                         "{entities}", "--alignments", "{broken}"]),
}
_NOT_UTF8 = (b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", "肝".encode("gbk"))
_TYPE_NAMES = {type(None): "null", bool: "bool", int: "int", float: "float", str: "str",
               list: "list", dict: "object"}
_RECORD_VALUES = {**_JSON, "int": st.integers(-2, 2) | st.just(10**400) | st.just(_TOO_LONG_INT),
                  "float": st.floats()}  # inf and nan too, which json writes and reads


def _dumps(value, **kwargs) -> str:
    """``json.dumps``, with each ``_TOO_LONG_INT`` string written as the
    integer it stands for."""
    return json.dumps(value, **kwargs).replace(f'"{_TOO_LONG_INT}"', _TOO_LONG_INT)


@pytest.fixture(scope="module")
def record_files(tmp_path_factory, kb_file) -> dict[str, Path]:
    """One valid file of each format the readers take."""
    out = tmp_path_factory.mktemp("records")
    assert main(["kb-load", "--seed", "1", "--kb-file", str(kb_file),
                 "--output-dir", str(out)]) == 0
    entities, alignments = out / "entities.jsonl", out / "alignments.tsv"
    entities.write_text(
        '{"schema": "entities/1"}\n'
        '{"doc_id": "p1", "entities": [["Disease", "原发性肝细胞"], ["Symptom", "腹痛"]]}\n'
        '{"doc_id": "p2", "entities": [["Disease", "肝癌"], ["Treatment", "手术"]]}\n'
        '{"doc_id": "p3", "entities": []}\n', encoding="utf-8")
    alignments.write_text("source\ttarget\tsimilarity\n原发性肝细胞\t原发性肝细胞癌\t0.9\n"
                          "糖尿病\t\t0.1\n", encoding="utf-8")
    files = {"kb": kb_file, "graph": out / "kb_graph.jsonl", "entities": entities,
             "alignments": alignments}
    for kind, argv in _READERS.values():  # each reader takes them all as they are
        argv = [arg.format(broken=files[kind], **files) for arg in argv]
        assert main(argv + ["--seed", "1", "--output-dir", str(out / "check")]) == 0
    return files


def _value_paths(value, path=()):
    """The key path to every value inside a JSON object or array."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _value_paths(child, path + (key,))


@st.composite
def _broken(draw, valid: bytes, tsv: bool) -> bytes:
    """``valid`` truncated at a byte, with bytes that are not UTF-8 spliced
    in, or with one field of one record given a value of another JSON type."""
    change = draw(st.sampled_from(["truncate", "not utf-8", "retype"]))
    if change == "truncate":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if change == "not utf-8":
        at = draw(st.integers(0, len(valid)))
        return valid[:at] + draw(st.sampled_from(_NOT_UTF8)) + valid[at:]
    lines = valid.decode("utf-8").split("\n")
    i = draw(st.integers(0, len(lines) - 2))  # the last line is the empty one after "\n"
    if tsv:
        fields = lines[i].split("\t")
        fields[draw(st.integers(0, len(fields) - 1))] = _dumps(
            draw(_RECORD_VALUES[draw(st.sampled_from(sorted(_RECORD_VALUES)))]))
        lines[i] = "\t".join(fields)
    else:
        record = json.loads(lines[i])
        *parents, key = draw(st.sampled_from(list(_value_paths(record))))
        owner = record
        for parent in parents:
            owner = owner[parent]
        other = sorted(set(_RECORD_VALUES) - {_TYPE_NAMES[type(owner[key])]})
        owner[key] = draw(_RECORD_VALUES[draw(st.sampled_from(other))])
        lines[i] = _dumps(record, ensure_ascii=False)
    return "\n".join(lines).encode("utf-8")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_broken_record_file_exits_0_or_3(data, record_files, tmp_path, capsys, caplog):
    kind, argv = _READERS[data.draw(st.sampled_from(sorted(_READERS)))]
    valid = record_files[kind].read_bytes()
    broken = tmp_path / "broken"
    broken.write_bytes(data.draw(_broken(valid, tsv=kind == "alignments")))
    argv = [arg.format(broken=broken, **record_files) for arg in argv]
    caplog.clear()
    assert main(argv + ["--seed", "1", "--output-dir", str(tmp_path / "out")]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert "Traceback" not in caplog.text


def test_manifest_config_loads_back_to_itself(tmp_path, corpus_dir):
    """A config that sets only seed and output_dir records every default,
    and a recorded config, as a config file, resolves to itself."""
    out = tmp_path / "out"
    config = _write_config(tmp_path / "cfg.json", output_dir=str(out))
    assert main(["convert", "--config", str(config), "--corpus-dir", str(corpus_dir)]) == 0
    recorded = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert recorded["train"] == {
        f.name: f.default for f in fields(TrainConfig) if f.name not in ("seed", "derm")
    }
    assert recorded["derm"] == asdict(DermConfig())
    assert recorded["fusion"] == {"threshold": 0.8, "ngram_orders": [1, 2]}
    assert recorded["entity_types"] == list(DEFAULT_ENTITY_TYPES)
    assert _resolved(tmp_path, recorded) == recorded
    fixture_file = _ROOT / "fixtures" / "pipeline.json"
    fixture = _resolved(tmp_path, json.loads(fixture_file.read_text(encoding="utf-8")))
    assert _resolved(tmp_path, fixture) == fixture


def test_readme_configuration_example_loads(tmp_path):
    """The JSON block under the README's Configuration heading is a valid
    config that sets every section key."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    resolved = _resolved(tmp_path, example)
    for name in ("train", "derm", "fusion"):
        assert set(example[name]) == set(resolved[name]), name


# -- seed derivation --------------------------------------------------------


def test_derive_seed_is_stable_and_stage_specific():
    assert derive_seed(7, "split") == derive_seed(7, "split")
    stages = ["split", "augment", "train"]
    values = {derive_seed(7, stage) for stage in stages}
    assert len(values) == len(stages)
    assert derive_seed(7, "split") != derive_seed(8, "split")
    for stage in stages:
        assert 0 <= derive_seed(7, stage) < 2**32


# -- stage outputs ------------------------------------------------------


def test_convert_writes_bio_report_and_manifest(tmp_path, corpus_dir):
    out = tmp_path / "out"
    code = main([
        "convert", "--seed", "11",
        "--corpus-dir", str(corpus_dir), "--output-dir", str(out),
    ])
    assert code == 0
    report = json.loads((out / "conversion_report.json").read_text(encoding="utf-8"))
    assert report["documents"] == 50
    assert report["dropped_spans"] == []
    assert len(read_bio_file(out / "corpus.bio")) == report["sentences"]

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["subcommand"] == "convert"
    assert manifest["config"]["seed"] == 11
    assert len(manifest["inputs"]) == 100  # 50 .txt + 50 .ann
    assert set(manifest["versions"]) == {"emrkg", "numpy", "python"}
    recomputed = hashlib.sha256(
        json.dumps(manifest["config"], sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()
    assert manifest["config_sha256"] == recomputed


def test_manifest_input_digests_match_file_contents(tmp_path, kb_file):
    out = tmp_path / "out"
    assert main([
        "kb-load", "--seed", "3", "--kb-file", str(kb_file), "--output-dir", str(out),
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(kb_file.read_bytes()).hexdigest()
    assert manifest["inputs"] == {str(kb_file): digest}


def test_the_manifest_records_the_numpy_that_runs(tmp_path, kb_file):
    """Once a stage has loaded numpy, the manifest reads numpy's version
    from it; ``tests/test_startup.py`` checks the version that a process
    without numpy reads from the install metadata."""
    out = tmp_path / "out"
    assert main(["kb-load", "--seed", "3", "--kb-file", str(kb_file), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["versions"]["numpy"] == np.__version__


def test_split_produces_the_three_partitions(tmp_path, corpus_dir):
    out = tmp_path / "out"
    main(["convert", "--seed", "11", "--corpus-dir", str(corpus_dir), "--output-dir", str(out)])
    assert main(["split", "--seed", "11", "--output-dir", str(out)]) == 0
    sizes = {name: len(read_bio_file(out / f"{name}.bio"))
             for name in ("train", "validation", "test")}
    total = len(read_bio_file(out / "corpus.bio"))
    assert sum(sizes.values()) == total
    assert sizes["train"] == 40 and sizes["validation"] == 5 and sizes["test"] == 5


def test_augment_reports_action_counts(tmp_path, derm_dir):
    out = tmp_path / "out"
    bio = derm_dir / "train.bio"
    code = main([
        "augment", "--seed", "5", "--output-dir", str(out),
        "--bio", str(bio), "--dictionary", str(derm_dir / "dictionary.tsv"),
        "--out", str(out / "augmented.bio"),
    ])
    assert code == 0
    originals = read_bio_file(bio)
    augmented = read_bio_file(out / "augmented.bio")
    assert len(augmented) == len(originals)
    report = json.loads((out / "augment_report.json").read_text(encoding="utf-8"))
    assert sum(report["actions"].values()) == len(originals)
    assert set(report["actions"]) <= {"Replace", "Mask", "Noop"}


def test_out_under_a_missing_directory_creates_it(tmp_path, derm_dir, kb_file):
    out = tmp_path / "out"
    assert main(["kb-load", "--seed", "5", "--kb-file", str(kb_file), "--output-dir", str(out)]) == 0
    assert main(["query", "--seed", "5", "--graph", str(out / "kb_graph.jsonl"), *_QUERY,
                 "--output-dir", str(out), "--out", str(tmp_path / "new" / "q.txt")]) == 0
    assert (tmp_path / "new" / "q.txt").read_text(encoding="utf-8")
    assert main(["augment", "--seed", "5", "--output-dir", str(out),
                 "--bio", str(derm_dir / "train.bio"),
                 "--dictionary", str(derm_dir / "dictionary.tsv"),
                 "--out", str(tmp_path / "new" / "sub" / "a.bio")]) == 0
    assert read_bio_file(tmp_path / "new" / "sub" / "a.bio")


def test_train_manifest_lists_the_kb_it_reads(tmp_path, kb_file):
    bio = tmp_path / "sentences.bio"
    bio.write_text("肝\tB-Disease\n癌\tI-Disease\n", encoding="utf-8")
    config = _write_config(tmp_path / "cfg.json", kb_file=str(kb_file),
                           train={"epochs": 1, "hidden": 2, "d_emb": 2})
    assert main(["train", "--config", str(config), "--train", str(bio),
                 "--validation", str(bio)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["inputs"]) == {str(bio), str(kb_file)}


def test_a_corpus_file_name_that_is_not_utf8_stops_convert_before_any_output(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in (b"doc.txt", b"\xffdoc.txt"):
        (corpus / os.fsdecode(name)).write_text("肝癌", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["convert", "--seed", "5", "--corpus-dir", str(corpus),
                 "--output-dir", str(out)]) == 3
    assert list(out.iterdir()) == []


def test_a_model_file_under_a_file_stops_train_before_any_output(tmp_path):
    bio = tmp_path / "sentences.bio"
    bio.write_text("肝\tB-Disease\n癌\tI-Disease\n", encoding="utf-8")
    afile = tmp_path / "afile"
    afile.write_text("a regular file\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train", "--seed", "5", "--train", str(bio), "--validation", str(bio),
                 "--model-file", str(afile / "model.bin"), "--output-dir", str(out)]) == 2
    assert list(out.iterdir()) == []  # no train_log.csv, dictionary.tsv or manifest


def test_train_names_the_line_of_a_sentence_with_a_tag_outside_the_schema(tmp_path, caplog):
    bio = tmp_path / "train.bio"
    bio.write_text("肝\tB-Disease\n癌\tI-Disease\n\n\n基\tB-Gene\n因\tI-Gene\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train", "--seed", "5", "--train", str(bio), "--validation", str(bio),
                 "--output-dir", str(out)]) == 3
    assert f"train: {bio} line 5: tag 'B-Gene' not in tag set" in caplog.text
    assert list(out.iterdir()) == []  # no dictionary.tsv


@pytest.mark.parametrize("stage, flag", [
    (["split"], "--bio"),
    (["augment", "--dictionary", "{dictionary}"], "--bio"),
    (["train", "--train", "{ok}"], "--validation"),
    (["evaluate", "--model-file", "{model}"], "--gold"),
], ids=["split-bio", "augment-bio", "train-validation", "evaluate-gold"])
def test_each_bio_input_names_the_line_of_a_tag_outside_the_schema(stage, flag, tmp_path, caplog):
    paths = {name: tmp_path / name for name in ("ok", "gene", "dictionary", "model")}
    paths["ok"].write_text("肝\tB-Disease\n癌\tI-Disease\n", encoding="utf-8")
    paths["gene"].write_text("肝\tB-Disease\n癌\tI-Disease\n\n基\tB-Gene\n因\tI-Gene\n",
                             encoding="utf-8")
    paths["dictionary"].write_text("Disease\t肝癌\n", encoding="utf-8")
    save_model(init_model(Vocabulary.build(["肝癌"]), TagSet(EntitySchema()), d_emb=2, hidden=2,
                          rng=np.random.default_rng(0)), paths["model"])
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in stage] + [flag, str(paths["gene"])]
    assert main(argv + ["--seed", "5", "--output-dir", str(out)]) == 3
    assert f"{stage[0]}: {paths['gene']} line 4: tag 'B-Gene' not in tag set" in caplog.text
    assert list(out.iterdir()) == []


def _augment_actions(tmp_path, name, dictionary_text, derm_dir):
    dictionary = tmp_path / f"{name}.tsv"
    dictionary.write_text(dictionary_text, encoding="utf-8")
    out = tmp_path / name
    assert main(["augment", "--seed", "3", "--output-dir", str(out), "--bio",
                 str(derm_dir / "train.bio"), "--dictionary", str(dictionary)]) == 0
    return (json.loads((out / "augment_report.json").read_text(encoding="utf-8")),
            (out / "augmented.bio").read_bytes())


def test_augment_reads_dictionary_types_in_any_case(tmp_path, derm_dir):
    text = (derm_dir / "dictionary.tsv").read_text(encoding="utf-8")
    lowered = "".join(f"{line.split(chr(9))[0].lower()}\t{line.split(chr(9))[1]}"
                      for line in text.splitlines(keepends=True))
    assert lowered != text
    report, augmented = _augment_actions(tmp_path, "table", text, derm_dir)
    assert report["actions"]["Replace"] > 0
    assert _augment_actions(tmp_path, "lowered", lowered, derm_dir) == (report, augmented)


def test_augment_refuses_a_dictionary_type_that_is_not_a_span_type(tmp_path, derm_dir, caplog):
    dictionary = tmp_path / "dictionary.tsv"
    dictionary.write_text("Disease\t肝癌\nGene\tBRCA1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["augment", "--seed", "3", "--output-dir", str(out), "--bio",
                 str(derm_dir / "train.bio"), "--dictionary", str(dictionary)]) == 3
    assert f"{dictionary} line 2: type 'Gene' is not a span type" in caplog.text
    assert list(out.iterdir()) == []


def test_the_dictionary_that_train_writes_reads_back_unchanged(tmp_path, kb_file, derm_dir):
    config = _write_config(tmp_path / "cfg.json", kb_file=str(kb_file),
                           train={"epochs": 1, "hidden": 2, "d_emb": 2})
    assert main(["train", "--config", str(config), "--train", str(derm_dir / "train.bio"),
                 "--validation", str(derm_dir / "validation.bio")]) == 0
    written = tmp_path / "out" / "dictionary.tsv"
    dictionary = read_dictionary_file(written)
    assert set(dictionary.by_type) == {"Disease", "Symptom"}
    write_dictionary_file(dictionary, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == written.read_bytes()


def test_main_runs_a_stage_function_patched_after_an_earlier_call(tmp_path, kb_file, monkeypatch):
    """``main`` builds its parser once, but looks each subcommand's
    function up on ``emrkg.cli`` when it runs, so a wrapper installed after
    an earlier call is the one that runs."""
    out = tmp_path / "out"
    argv = ["kb-load", "--seed", "5", "--kb-file", str(kb_file), "--output-dir", str(out)]
    assert main(argv) == 0
    calls = []

    def wrapped(cfg, args, _run=emrkg.cli.run_kb_load):
        calls.append(args.subcommand)
        return _run(cfg, args)

    monkeypatch.setattr(emrkg.cli, "run_kb_load", wrapped)
    assert main(argv) == 0
    assert calls == ["kb-load"]
    assert emrkg.cli._parser() is emrkg.cli._parser()


def test_export_sorts_the_graph_once(tmp_path, kb_file, monkeypatch):
    out = tmp_path / "out"
    assert main(["kb-load", "--seed", "5", "--kb-file", str(kb_file), "--output-dir", str(out)]) == 0
    calls = []

    def counted(*args, _sort=emrkg.cli.canonical_order):
        calls.append(args)
        return _sort(*args)

    monkeypatch.setattr(emrkg.cli, "canonical_order", counted)
    monkeypatch.setattr(emrkg.graph, "canonical_order", counted)
    assert main(["export", "--seed", "5", "--graph", str(out / "kb_graph.jsonl"),
                 "--output-dir", str(out)]) == 0
    assert len(calls) == 1



def test_a_repeated_triple_is_exported_once(tmp_path, kb_file, caplog):
    """``export`` ranks the file's triples, repeats included, and drops a
    repeat after the sort: Cypher and CSV are those of the file without it."""
    out = tmp_path / "out"
    assert main(["kb-load", "--seed", "5", "--kb-file", str(kb_file), "--output-dir", str(out)]) == 0
    graph = out / "kb_graph.jsonl"
    lines = graph.read_text(encoding="utf-8").splitlines(keepends=True)
    triples = [i for i, line in enumerate(lines) if line.startswith('{"head": ')]
    assert len(triples) >= 3
    # one triple written twice in a row, and another again at the end
    repeated = lines[:triples[1]] + [lines[triples[1]]] + lines[triples[1]:] + [lines[triples[0]]]
    (tmp_path / "repeated.jsonl").write_text("".join(repeated), encoding="utf-8")
    exported = {}
    for name, path in (("once", graph), ("repeated", tmp_path / "repeated.jsonl")):
        caplog.clear()
        assert main(["export", "--seed", "5", "--graph", str(path),
                     "--output-dir", str(tmp_path / name)]) == 0
        exported[name] = [(tmp_path / name / f).read_bytes()
                          for f in ("graph.cypher", "nodes.csv", "rels.csv")]
        exported[name].append(re.findall(r"exported \d+ statements", caplog.text))
    assert exported["repeated"] == exported["once"]
    assert exported["once"][2].count(b"\r\n") == len(triples) + 1  # a header and each triple


_PAIRS_MESSAGE = ("malformed record: expected a string doc_id and entities a list of "
                  "[label, surface] string pairs")


@pytest.mark.parametrize("entities, expected", [
    pytest.param([], [], id="no-entities"),
    pytest.param([["Disease", "肝癌"], ["Symptom", "腹痛"]],
                 [("Disease", "肝癌"), ("Symptom", "腹痛")], id="string-pairs"),
    pytest.param([["Disease", ""]], "blank surface for entity type 'Disease'", id="empty-surface"),
    pytest.param([["Disease", "肝癌"], ["Symptom", " \u3000"]],
                 "blank surface for entity type 'Symptom'", id="blank-surface"),
    pytest.param([["Gene", "x"]], "no patient relation for entity type 'Gene'",
                 id="label-with-no-patient-relation"),
    pytest.param([["disease", "肝癌"]], "no patient relation for entity type 'disease'",
                 id="label-in-another-case"),
    pytest.param(["肝癌"], _PAIRS_MESSAGE, id="two-character-string"),
    pytest.param([{"Disease": 1, "肝癌": 2}], _PAIRS_MESSAGE, id="two-key-object"),
    pytest.param([["Disease"]], _PAIRS_MESSAGE, id="one-element"),
    pytest.param([["Disease", "肝癌", "腹痛"]], _PAIRS_MESSAGE, id="three-elements"),
    pytest.param([["Disease", 5]], _PAIRS_MESSAGE, id="number-surface"),
    pytest.param([[1, "肝癌"]], _PAIRS_MESSAGE, id="int-label"),
    pytest.param([["Disease", True]], _PAIRS_MESSAGE, id="bool-surface"),
    pytest.param([["Disease", None]], _PAIRS_MESSAGE, id="null-surface"),
    pytest.param([[["Disease"], "肝癌"]], _PAIRS_MESSAGE, id="nested-label"),
    pytest.param([[["Disease", "肝癌"]]], _PAIRS_MESSAGE, id="nested-pair"),
    pytest.param([["Disease", "肝癌"], ["Disease"]], _PAIRS_MESSAGE, id="bad-after-good"),
    pytest.param("肝癌", _PAIRS_MESSAGE, id="entities-string"),
    pytest.param({"Disease": "肝癌"}, _PAIRS_MESSAGE, id="entities-object"),
    pytest.param(None, _PAIRS_MESSAGE, id="entities-null"),
])
def test_entities_file_accepts_only_lists_of_two_strings(entities, expected, tmp_path):
    """A record's pairs are read when each is two strings, a label with a
    patient relation and a non-blank surface; ``expected`` is those pairs,
    or the message that the record's line is refused with."""
    path = tmp_path / "entities.jsonl"
    path.write_text(
        json.dumps({"schema": emrkg.cli.ENTITIES_SCHEMA_TAG}) + "\n"
        + json.dumps({"doc_id": "d1", "entities": entities}, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    if isinstance(expected, list):
        assert list(emrkg.cli._read_entities_file(path)) == [("d1", expected)]
    else:
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: line 2: {expected}')}$"):
            list(emrkg.cli._read_entities_file(path))


@pytest.mark.parametrize("doc_id", [5, None, ["d1"]], ids=["number", "null", "list"])
def test_entities_file_needs_a_string_doc_id(doc_id, tmp_path):
    path = tmp_path / "entities.jsonl"
    path.write_text(
        json.dumps({"schema": emrkg.cli.ENTITIES_SCHEMA_TAG}) + "\n"
        + json.dumps({"doc_id": doc_id, "entities": []}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=re.escape(f"{path}: line 2: {_PAIRS_MESSAGE}")):
        list(emrkg.cli._read_entities_file(path))


@pytest.mark.parametrize("doc_id", ["", " ", "\u3000", " \t\u3000"],
                         ids=["empty", "space", "ideographic-space", "mixed"])
def test_entities_file_needs_a_non_blank_doc_id(doc_id, tmp_path):
    path = tmp_path / "entities.jsonl"
    path.write_text(
        json.dumps({"schema": emrkg.cli.ENTITIES_SCHEMA_TAG}) + "\n"
        + json.dumps({"doc_id": "d1", "entities": [["Disease", "肝癌"]]}) + "\n"
        + json.dumps({"doc_id": doc_id, "entities": [["Disease", "肝癌"]]}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: line 3: blank doc_id')}$"):
        list(emrkg.cli._read_entities_file(path))


def _records_file(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(record, ensure_ascii=False) + "\n" for record in
                            [{"schema": emrkg.cli.ENTITIES_SCHEMA_TAG}] + records),
                    encoding="utf-8")
    return path


def test_fuse_inserts_each_record_before_it_reads_the_next(tmp_path, kb_file, monkeypatch):
    """``fuse`` holds the graph and one record: the reader hands each record
    on as it reads it."""
    out = tmp_path / "out"
    assert main(["kb-load", "--seed", "1", "--kb-file", str(kb_file), "--output-dir", str(out)]) == 0
    entities = _records_file(tmp_path / "entities.jsonl", [
        {"doc_id": f"p{i}", "entities": [["Disease", "肝癌"], ["Symptom", f"症状{i}"]]}
        for i in range(4)])
    (out / "alignments.tsv").write_text("source\ttarget\tsimilarity\n", encoding="utf-8")
    events = []

    def reading(path, schema, read=emrkg.cli.read_records):
        for lineno, obj in read(path, schema):
            events.append(("read", lineno))
            yield lineno, obj

    def adding(graph, doc_id, entities, add=emrkg.cli.add_patient_record):
        events.append(("add", doc_id))
        return add(graph, doc_id, entities)

    monkeypatch.setattr(emrkg.cli, "read_records", reading)
    monkeypatch.setattr(emrkg.cli, "add_patient_record", adding)
    assert main(["fuse", "--seed", "1", "--output-dir", str(out), "--entities", str(entities)]) == 0
    assert events == [e for i in range(4) for e in (("read", i + 2), ("add", f"p{i}"))]


@pytest.mark.parametrize("last", [
    '{"doc_id": "p9", "entities": [["Gene", "x"]]}',
    '{"doc_id": " ", "entities": [["Disease", "肝癌"]]}',
    '{"doc_id": "p9", "entities": [["Disease", "\\u3000"]]}',
    '{"doc_id": "p9", "entities": [["Disease"]]}',
], ids=["label", "doc-id", "surface", "pair"])
def test_a_bad_last_entities_record_stops_fuse_and_align_before_any_output(
    last, tmp_path, kb_file, caplog
):
    """Records before the bad one are already in the graph when it is
    read: the stage still exits 3 naming its line, and writes nothing."""
    kb_out, out = tmp_path / "kb", tmp_path / "out"
    assert main(["kb-load", "--seed", "1", "--kb-file", str(kb_file), "--output-dir", str(kb_out)]) == 0
    entities = _records_file(tmp_path / "entities.jsonl", [
        {"doc_id": f"p{i}", "entities": [["Disease", "肝癌"], ["Symptom", "腹痛"]]} for i in range(5)])
    entities.write_text(entities.read_text(encoding="utf-8") + last + "\n", encoding="utf-8")
    alignments = tmp_path / "alignments.tsv"
    alignments.write_text("source\ttarget\tsimilarity\n", encoding="utf-8")
    caplog.clear()
    assert main(["fuse", "--seed", "1", "--output-dir", str(out), "--entities", str(entities),
                 "--graph", str(kb_out / "kb_graph.jsonl"), "--alignments", str(alignments)]) == 3
    assert f"fuse: {entities}: line 7: " in caplog.text
    assert not (out / "graph.jsonl").exists() and not (out / "fusion_report.json").exists()
    caplog.clear()
    assert main(["align", "--seed", "1", "--output-dir", str(out), "--entities", str(entities),
                 "--kb-file", str(kb_file)]) == 3
    assert f"align: {entities}: line 7: " in caplog.text
    assert not (out / "alignments.tsv").exists()


# -- the cyclic collector --------------------------------------------------


def _failing(exc: Exception):
    def stage(cfg, args):
        raise exc
    return stage


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, code, failure", [
    pytest.param(["kb-load", "--seed", "5", "--kb-file", "{kb}"], 0, None, id="ok"),
    pytest.param(["--help"], 0, None, id="help"),
    pytest.param([], 1, None, id="usage"),
    pytest.param(["kb-load", "--kb-file", "{kb}"], 2, None, id="config"),
    pytest.param(["export", "--seed", "5", "--graph", "{missing}"], 3, None, id="data"),
    pytest.param(["kb-load", "--seed", "5", "--kb-file", "{kb}"], 4, InternalError("boom"),
                 id="internal"),
    pytest.param(["kb-load", "--seed", "5", "--kb-file", "{kb}"], 4, RuntimeError("boom"),
                 id="unexpected"),
])
def test_main_leaves_the_collector_as_it_found_it(
    argv, code, failure, enabled, tmp_path, kb_file, monkeypatch, capsys
):
    """``main`` pauses the cyclic collector for its run; on every exit it
    puts back the caller's setting, on or off."""
    if failure is not None:
        monkeypatch.setattr(emrkg.cli, "run_kb_load", _failing(failure))
    argv = [arg.format(kb=kb_file, missing=tmp_path / "missing") for arg in argv]
    if len(argv) > 1:
        argv += ["--output-dir", str(tmp_path / "out")]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def _write_kb_and_entities(directory: Path, n_names: int) -> None:
    """``kb.jsonl`` with ``n_names`` diseases, each linked to a symptom, a
    food and the next disease, and ``entities.jsonl`` with one patient per
    disease naming it without its last character, which aligns back to it,
    so fuse merges every patient's disease node into a KB node."""
    names = [f"{chr(0x4E00 + 37 * i % 20000)}{chr(0x4E00 + 101 * i % 20000)}综合征"
             for i in range(n_names)]
    kb = [{"schema": "kb/1"}] + [{
        "name": name,
        "description": f"{name}是一种疾病",
        "relations": {"HasSymptom": [f"症状{i % 40}"], "RecommendedFood": [f"食物{i % 25}"],
                      "Complication": [names[(i + 1) % n_names]]},
    } for i, name in enumerate(names)]
    entities = [{"schema": "entities/1"}] + [
        {"doc_id": f"p{i}", "entities": [["Disease", name[:-1]], ["Symptom", f"症状{i % 40}"]]}
        for i, name in enumerate(names)
    ]
    directory.mkdir()
    for file_name, records in (("kb.jsonl", kb), ("entities.jsonl", entities)):
        (directory / file_name).write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
        )


def _stage_garbage(directory: Path) -> dict[str, int]:
    """Run kb-load, align, fuse and export on ``directory`` with the
    collector off; each stage's cyclic garbage, counted by the collection
    after it."""
    out = directory / "out"
    common = ["--seed", "5", "--output-dir", str(out), "--kb-file", str(directory / "kb.jsonl")]
    entities = ["--entities", str(directory / "entities.jsonl")]
    stages = {"kb-load": [], "align": entities, "fuse": entities, "export": []}
    garbage = {}
    was_enabled = gc.isenabled()
    try:
        for stage, flags in stages.items():
            gc.collect()
            gc.disable()
            assert main([stage, *common, *flags]) == 0
            garbage[stage] = gc.collect()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    report = json.loads((out / "fusion_report.json").read_text(encoding="utf-8"))
    assert report["merged"] and not report["unmatched"]
    return garbage


def test_a_stage_leaves_the_same_cyclic_garbage_at_any_size(tmp_path, caplog):
    """What ``main`` pausing the collector rests on: the graph, KB and
    index records a stage builds form no cycles, so the garbage only the
    collector can free does not grow with the input."""
    _write_kb_and_entities(tmp_path / "small", 30)
    _write_kb_and_entities(tmp_path / "large", 300)
    _stage_garbage(tmp_path / "small")  # first runs fill lazy caches
    assert _stage_garbage(tmp_path / "large") == _stage_garbage(tmp_path / "small")


def test_flags_override_config_file(tmp_path, corpus_dir):
    flag_out = tmp_path / "flag_out"
    config = _write_config(
        tmp_path / "cfg.json", seed=7, corpus_dir=str(corpus_dir),
        output_dir=str(tmp_path / "config_out"),
    )
    code = main([
        "convert", "--config", str(config),
        "--seed", "99", "--output-dir", str(flag_out),
    ])
    assert code == 0
    assert not (tmp_path / "config_out").exists()
    manifest = json.loads((flag_out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["seed"] == 99
    assert manifest["config"]["output_dir"] == str(flag_out)


def test_kb_load_then_query_lists_recommended_foods(tmp_path, kb_file, capsys):
    out = tmp_path / "out"
    assert main([
        "kb-load", "--seed", "2", "--kb-file", str(kb_file), "--output-dir", str(out),
    ]) == 0
    catalogs = json.loads((out / "catalogs.json").read_text(encoding="utf-8"))
    assert "肝癌" in catalogs["disease"]

    code = main([
        "query", "--seed", "2", "--output-dir", str(out),
        "--graph", str(out / "kb_graph.jsonl"),
        "--label", "Disease", "--name", "肝癌", "--relation", "RecommendedFood",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == sorted(["鸡蛋", "鱼类"])

    result_file = tmp_path / "foods.txt"
    main([
        "query", "--seed", "2", "--output-dir", str(out),
        "--graph", str(out / "kb_graph.jsonl"),
        "--label", "Disease", "--name", "肝癌", "--relation", "RecommendedFood",
        "--out", str(result_file),
    ])
    assert result_file.read_text(encoding="utf-8").splitlines() == sorted(["鸡蛋", "鱼类"])


def test_align_names_writes_a_tsv_with_matches_and_misses(tmp_path, kb_file):
    out = tmp_path / "out"
    names = tmp_path / "names.txt"
    names.write_text("原发性肝细胞\n糖尿病\n肝癌\n", encoding="utf-8")
    code = main([
        "align", "--seed", "4", "--kb-file", str(kb_file),
        "--output-dir", str(out), "--names", str(names),
    ])
    assert code == 0
    lines = (out / "alignments.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "source\ttarget\tsimilarity"
    rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
    assert rows["原发性肝细胞"][1] == "原发性肝细胞癌"
    assert float(rows["原发性肝细胞"][2]) >= 0.8
    assert rows["糖尿病"][1] == ""  # below threshold: no target
    assert rows["肝癌"][1] == "肝癌"
    assert float(rows["肝癌"][2]) == pytest.approx(1.0)


def test_entity_and_alignment_names_holding_line_separators_load_back(tmp_path, kb_file):
    """Entities written as ``tag`` writes them feed ``align``, whose report
    reads back with every such name whole."""
    entities = tmp_path / "entities.jsonl"
    records = [(f"d{i}", [("Disease", name)]) for i, name in enumerate(SEPARATOR_NAMES)]
    entities.write_text("".join(
        json.dumps(record, ensure_ascii=False) + "\n"
        for record in [{"schema": emrkg.cli.ENTITIES_SCHEMA_TAG}]
        + [{"doc_id": doc_id, "entities": [list(e) for e in found]} for doc_id, found in records]
    ), encoding="utf-8")
    assert list(emrkg.cli._read_entities_file(entities)) == records
    out = tmp_path / "out"
    assert main(["align", "--seed", "4", "--kb-file", str(kb_file), "--output-dir", str(out),
                 "--entities", str(entities)]) == 0
    alignments = emrkg.cli.read_alignment_file(out / "alignments.tsv", 0.8)
    assert [a.source for a in alignments] == sorted(SEPARATOR_NAMES)


def test_align_names_and_tag_text_split_at_line_ends_only(tmp_path, kb_file, workdir):
    """A name holding U+2028 and the like is one name, one sentence."""
    names = tmp_path / "names.txt"
    names.write_text("".join(name + "\n" for name in SEPARATOR_NAMES), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["align", "--seed", "4", "--kb-file", str(kb_file), "--output-dir", str(out),
                 "--names", str(names)]) == 0
    alignments = emrkg.cli.read_alignment_file(out / "alignments.tsv", 0.8)
    assert [a.source for a in alignments] == list(SEPARATOR_NAMES)
    assert main(["tag", "--seed", "4", "--output-dir", str(out), "--text", str(names),
                 "--model-file", str(workdir / "model.bin")]) == 0
    predicted = read_bio_file(out / "predicted.bio")
    assert ["".join(s.chars) for s in predicted] == list(SEPARATOR_NAMES)


def _entities_file(path: Path, surface: str) -> Path:
    path.write_text(encode_record({"schema": emrkg.cli.ENTITIES_SCHEMA_TAG}) + "\n"
                    + encode_record({"doc_id": "d1", "entities": [["Disease", surface]]}) + "\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("source, name", [
    *[pytest.param("entities", f"肝{c}癌", id=f"entities-{n}")
      for c, n in [("\t", "tab"), ("\n", "lf"), ("\r", "cr")]],
    pytest.param("names", "肝\t癌", id="names-tab"),
    pytest.param("kb", "原发性肝细胞癌\t", id="kb-target-tab"),
])
def test_align_stops_before_writing_a_name_the_report_cannot_hold(
        source, name, tmp_path, kb_file, caplog):
    """A tab or a line break in a source or a matched KB name would split
    its alignments.tsv line; ``fuse`` could not read it back."""
    if source == "kb":  # a name that aligns to it above the threshold
        kb_file = tmp_path / "kb.jsonl"
        kb_file.write_text("".join(encode_record(r) + "\n" for r in [
            {"schema": "kb/1"}, {"name": name}, {"name": "糖尿病"}]), encoding="utf-8")
    if source == "entities":
        flags = ["--entities", str(_entities_file(tmp_path / "entities.jsonl", name))]
    else:
        names = tmp_path / "names.txt"
        names.write_text(f"{name if source == 'names' else '原发性肝细胞'}\n", encoding="utf-8")
        flags = ["--names", str(names)]
    named = kb_file if source == "kb" else flags[1]
    out = tmp_path / "out"
    assert main(["align", "--seed", "4", "--output-dir", str(out), "--kb-file", str(kb_file)]
                + flags) == 3
    assert f"{named}: the name {name!r} holds a tab or a line break" in caplog.text
    assert not (out / "alignments.tsv").exists()


def test_align_without_a_source_flag_is_a_config_error(tmp_path, kb_file):
    code = main([
        "align", "--seed", "4", "--kb-file", str(kb_file),
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 2


# -- chained stages ------------------------------------------------------


def _tiny_config(out, corpus_dir, kb_file, **overrides):
    """Fixture paths and a deliberately tiny model so a whole run stays fast."""
    config_path = out.parent / "config.json"
    config_path.write_text(json.dumps({
        "seed": 20240811,
        "corpus_dir": str(corpus_dir),
        "kb_file": str(kb_file),
        "output_dir": str(out),
        "train": {
            "batch_size": 10, "epochs": 2, "learning_rate": 0.2,
            "hidden": 8, "d_emb": 8,
        },
        **overrides,
    }), encoding="utf-8")
    return config_path


def test_entity_types_in_lower_case_run_as_the_default_types(tmp_path, corpus_dir, kb_file):
    """A config's types are stored in the span table's spelling, so the
    seven types in lower case write the default config's bytes."""
    out = tmp_path / "out"
    outputs = []
    for overrides in ({}, {"entity_types": [t.lower() for t in DEFAULT_ENTITY_TYPES]}):
        config_path = _tiny_config(out, corpus_dir, kb_file, **overrides)
        assert main(["pipeline", "--config", str(config_path)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        shutil.rmtree(out)
    assert outputs[0] == outputs[1]


def test_a_type_that_is_not_a_span_type_stops_the_pipeline_before_any_output(
    tmp_path, corpus_dir, kb_file, caplog
):
    out = tmp_path / "out"
    config_path = _tiny_config(out, corpus_dir, kb_file, entity_types=["Disease", "Gene"])
    assert main(["pipeline", "--config", str(config_path)]) == 2
    assert "entity type 'Gene' is not a span type" in caplog.text
    assert not out.exists()


STAGE_FUNCTIONS = (
    "run_convert", "run_split", "run_train", "run_tag_corpus", "run_evaluate",
    "run_kb_load", "run_align", "run_fuse", "run_export",
)


def test_pipeline_calls_each_stage_once_through_the_module(
    tmp_path, corpus_dir, kb_file, monkeypatch
):
    """The pipeline looks each stage function up on ``emrkg.cli`` at call
    time, so a wrapper installed there sees every stage exactly once."""
    calls = Counter()
    for name in STAGE_FUNCTIONS:
        def counted(*args, _name=name, _run=getattr(emrkg.cli, name), **kwargs):
            calls[_name] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(emrkg.cli, name, counted)
    config_path = _tiny_config(tmp_path / "out", corpus_dir, kb_file)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    assert calls == Counter(STAGE_FUNCTIONS)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, corpus_dir, kb_file):
    """Run convert/split/train/tag/evaluate/kb-load/align/fuse/export in
    sequence."""
    out = tmp_path_factory.mktemp("cli_chain") / "out"
    base = ["--config", str(_tiny_config(out, corpus_dir, kb_file))]
    for step in (
        ["convert"],
        ["split"],
        ["train"],
        ["tag"],
        ["evaluate"],
        ["kb-load"],
        ["align", "--entities", str(out / "entities.jsonl")],
        ["fuse", "--entities", str(out / "entities.jsonl")],
        ["export"],
    ):
        assert main(step + base) == 0, f"step {step[0]} failed"
    return out


def test_chain_produces_every_artifact(workdir):
    for name in (
        "corpus.bio", "train.bio", "validation.bio", "test.bio",
        "model.bin", "train_log.csv", "train_summary.json", "dictionary.tsv",
        "predicted.bio", "entities.jsonl", "eval.json", "eval.txt",
        "kb_graph.jsonl", "catalogs.json", "alignments.tsv",
        "graph.jsonl", "fusion_report.json",
        "graph.cypher", "nodes.csv", "rels.csv", "manifest.json",
    ):
        assert (workdir / name).exists(), name


def test_chain_entities_file_covers_every_document(workdir):
    lines = (workdir / "entities.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"schema": "entities/1"}
    assert len(lines) == 51  # header plus one record per document
    record = json.loads(lines[1])
    assert set(record) == {"doc_id", "entities"}


def test_chain_graph_saves_back_to_its_own_bytes(workdir, tmp_path):
    """Every line of the fused graph is what the record encoder writes, and
    loading and saving it gives the same file."""
    path = workdir / "graph.jsonl"
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == "" and any('"kind": "triple"' in line for line in lines)
    assert all(encode_record(json.loads(line)) == line for line in lines)
    again = tmp_path / "graph.jsonl"
    save_graph(load_graph(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_chain_eval_report_has_the_metric_fields(workdir):
    eval_report = json.loads((workdir / "eval.json").read_text(encoding="utf-8"))
    assert eval_report["sentences"] == 5
    assert "micro" in eval_report and set(eval_report["micro"]) >= {
        "precision", "recall", "f1",
    }


def test_chain_fused_graph_answers_kb_queries(workdir, capsys):
    code = main([
        "query", "--seed", "1", "--output-dir", str(workdir),
        "--label", "Disease", "--name", "肝癌", "--relation", "RecommendedFood",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == sorted(["鸡蛋", "鱼类"])
