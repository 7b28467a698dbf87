"""TF-IDF weighting, cosine alignment and graph-level entity fusion."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from emrkg.errors import ConfigError, DataError
from emrkg.fusion import (
    Alignment,
    FusionConfig,
    align,
    build_index,
    fuse,
    ngrams,
)
from emrkg.graph import KnowledgeGraph, add_patient_record
from emrkg.kb import kb_into_graph, load_kb
from tests.oracles import char_ngrams, cosine_align, tfidf_vectors
from tests.support import (
    dense_doc_vectors,
    inverse_document_frequency,
    term_frequency,
    triples_from,
    triples_to,
    zero_rows,
)


# -- n-grams and weights ----------------------------------------------------


def test_ngrams_cover_every_order_with_multiplicity():
    assert ngrams("肝癌", (1, 2)) == ["肝", "癌", "肝癌"]
    assert ngrams("aaa", (1, 2)) == ["a", "a", "a", "aa", "aa"]
    assert ngrams("肝", (1, 2)) == ["肝"]  # too short for a bigram
    assert ngrams("肝癌", (2,)) == ["肝癌"]


def test_term_frequency_is_count_over_length():
    assert term_frequency("肝", ["肝", "癌", "肝", "炎"]) == pytest.approx(0.5)
    assert term_frequency("无", ["肝", "癌"]) == 0.0
    with pytest.raises(DataError, match="^term frequency over an empty document$"):
        term_frequency("肝", [])


def test_idf_of_term_in_every_document_is_zero():
    corpus = [["肝", "癌"], ["肝", "炎"], ["肝"]]
    assert inverse_document_frequency("肝", corpus) == 0.0


def test_idf_follows_log_ratio():
    corpus = [["肝"]] + [["x"]] * 9
    assert inverse_document_frequency("肝", corpus) == pytest.approx(math.log(10))
    assert inverse_document_frequency("癌", corpus) == pytest.approx(math.log(10) + 1.0)
    with pytest.raises(DataError, match="^IDF over an empty corpus$"):
        inverse_document_frequency("肝", [])


# -- index ----------------------------------------------------------


def test_index_rows_are_unit_vectors():
    index = build_index(["肝癌", "肝硬化", "乙型肝炎"])
    norms = np.linalg.norm(dense_doc_vectors(index), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    assert np.any(index.idf != 0.0)


def test_index_matches_oracle_vectors(kb_file):
    _, catalogs = load_kb(kb_file)
    names = list(catalogs.disease)
    index = build_index(names)
    doc_vectors = dense_doc_vectors(index)
    for row, vec in enumerate(tfidf_vectors(names)):
        dense = np.zeros(len(index.vocabulary))
        for term, value in vec.items():
            dense[index.vocabulary[term]] = value
        np.testing.assert_allclose(doc_vectors[row], dense, atol=1e-12)


def test_single_name_catalog_falls_back_to_uniform_weights():
    index = build_index(["肝癌"])
    assert np.all(index.idf == 0.0)
    result = align("肝癌", index)
    assert result.target == "肝癌"
    assert result.similarity == pytest.approx(1.0, abs=1e-12)
    partial = align("肝", index)
    assert partial.target is None
    assert partial.similarity == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_name_composed_of_shared_terms_has_a_zero_row():
    index = build_index(["肝癌", "肝癌旁路"])  # every term of 肝癌 appears in both
    assert zero_rows(index) == ["肝癌"]
    result = align("肝癌", index)
    assert result.target is None
    assert result.similarity == 0.0


def test_empty_catalog_and_empty_name_are_rejected():
    with pytest.raises(DataError, match="^cannot build an index over zero names$"):
        build_index([])
    with pytest.raises(DataError, match=r"^name '' yields no terms for orders \(1, 2\)$"):
        build_index([""])


# -- alignment ----------------------------------------------------------


def test_exact_name_aligns_with_similarity_one(kb_file):
    _, catalogs = load_kb(kb_file)
    index = build_index(list(catalogs.disease))
    for name in catalogs.disease:
        result = align(name, index)
        assert result.target == name
        assert result.similarity == pytest.approx(1.0, abs=1e-12)
        assert result.similarity <= 1.0  # clipped against rounding overshoot


def test_disjoint_query_gets_no_target(kb_file):
    _, catalogs = load_kb(kb_file)
    index = build_index(list(catalogs.disease))
    result = align("糖尿病", index)
    assert result.target is None
    assert result.similarity == 0.0


def test_truncated_disease_name_aligns_to_its_canonical_form(kb_file):
    _, catalogs = load_kb(kb_file)
    index = build_index(list(catalogs.disease))
    result = align("原发性肝细胞", index)
    assert result.target == "原发性肝细胞癌"
    assert result.similarity >= 0.8
    oracle_target, oracle_sim = cosine_align("原发性肝细胞", list(catalogs.disease))
    assert result.target == oracle_target
    assert result.similarity == pytest.approx(oracle_sim, abs=1e-12)


def test_align_matches_oracle_on_fixture_queries(kb_file):
    _, catalogs = load_kb(kb_file)
    names = list(catalogs.disease)
    index = build_index(names)
    queries = list(names) + [
        "原发性肝细胞", "肝细胞癌", "胆管癌", "乙肝", "上消化道大出血",
        "肝", "硬化", "癌", "完全无关词", "肝癌晚期伴转移",
    ]
    for query in queries:
        result = align(query, index)
        oracle_target, oracle_sim = cosine_align(query, names)
        assert result.similarity == pytest.approx(oracle_sim, abs=1e-12), query
        assert result.target == oracle_target, query


def test_threshold_boundary_accepts_at_equality():
    index = build_index(["肝癌", "胃溃疡"])
    probe = align("肝癌旁", index, threshold=0.0)
    similarity = probe.similarity
    assert 0.0 < similarity < 1.0
    at = align("肝癌旁", index, threshold=similarity)
    assert at.target == "肝癌"  # >= comparison accepts exact equality
    above = align("肝癌旁", index, threshold=math.nextafter(similarity, 1.0))
    assert above.target is None


def test_exact_tie_resolves_to_lexicographically_smallest():
    # 甲乙 comes before 甲丙 here; 甲 is a zero row (its one term is in every name)
    names = random.Random(2).sample(["甲乙", "甲丙", "甲", "甲丁"], 4)
    assert names.index("甲乙") < names.index("甲丙") and names[0] != "甲"
    index = build_index(names)
    assert index.names == tuple(sorted(names))
    assert zero_rows(index) == ["甲"]
    result = align("甲乙甲丙", index, threshold=0.1)
    oracle_target, oracle_sim = cosine_align("甲乙甲丙", names, threshold=0.1)
    assert result.target == "甲丙"  # 丙 (U+4E19) sorts before 乙 (U+4E59)
    assert result.target == oracle_target
    assert result.similarity == pytest.approx(oracle_sim, abs=1e-12)


def _seeded_kb(rng: random.Random, n_names: int = 300) -> tuple[list[str], list[str]]:
    """KB names drawn from a 120-char pool, every one ending in 病 (a term
    of every name, so its IDF is 0), plus 病 itself (a zero-norm row) and
    a pair that ties exactly; with two noisy variants of every third name."""
    pool = [chr(0x4E00 + 37 * i) for i in range(120)]
    names = {"病", "鑫淼病", "鑫焱病"}
    while len(names) < n_names:
        names.add("".join(rng.choice(pool) for _ in range(rng.randint(1, 7))) + "病")
    names = sorted(names)
    variants = []
    for name in names[::3]:
        chars = list(name)
        at = rng.randrange(len(chars))
        kind = rng.choice(["drop", "swap", "insert"])
        if kind == "drop" and len(chars) > 1:
            del chars[at]
        elif kind == "swap":
            chars[at] = rng.choice(pool)
        else:
            chars.insert(at, rng.choice(pool))
        variants += ["".join(chars), name[: max(1, len(name) // 2)]]
    return names, variants


def test_align_matches_oracle_at_scale_and_on_edge_cases():
    names, variants = _seeded_kb(random.Random(17))
    names = random.Random(18).sample(names, len(names))  # build_index sorts them
    assert names.index("鑫焱病") < names.index("鑫淼病")  # the tied pair, out of order
    index = build_index(names)
    assert index.names == tuple(sorted(names))
    nnz = sum(len(set(ngrams(name))) for name in names)
    assert index.doc_vectors.nbytes == 8 * nnz != 8 * len(names) * len(index.vocabulary)
    assert index.idf[index.vocabulary["病"]] == 0.0  # a term of every name
    assert zero_rows(index) == ["病"]

    unseen = "ＡＢＣ"  # only n-grams outside the vocabulary
    tie = "鑫淼鑫焱"  # shares exactly as much with 鑫淼病 as with 鑫焱病
    queries = names + variants + [unseen, tie, "鑫", "病病"]
    for threshold in (0.8, 0.0):
        for query in queries:
            if threshold == 0.0 and set(ngrams(query)) <= {"病"}:
                continue  # no weight at all: no alignment can meet threshold 0
            got = align(query, index, threshold)
            want_target, want_similarity = cosine_align(query, names, threshold=threshold)
            assert got.target == want_target, (query, threshold)
            assert abs(got.similarity - want_similarity) <= 1e-12, (query, threshold)

    zero = align("病", index)  # only the IDF-0 term: the query has no weight
    assert (zero.target, zero.similarity) == (None, 0.0)
    none_shared = align(unseen, index, threshold=0.0)  # every name ties at 0
    assert (none_shared.target, none_shared.similarity) == (min(names), 0.0)
    tied = align(tie, index, threshold=0.0)
    assert tied.target == "鑫淼病" < "鑫焱病" and 0.0 < tied.similarity < 1.0

    single = build_index(["肝癌"])  # one name: uniform weights
    assert np.all(single.idf == 0.0)
    for query in ["肝癌", "肝", "癌症", "肝癌肝癌", unseen]:
        for threshold in (0.8, 0.0):
            got = align(query, single, threshold)
            want_target, want_similarity = cosine_align(query, ["肝癌"], threshold=threshold)
            assert got.target == want_target, (query, threshold)
            assert abs(got.similarity - want_similarity) <= 1e-12, (query, threshold)


def test_align_rejects_a_threshold_outside_the_unit_interval():
    index = build_index(["肝癌", "肝炎"])
    for threshold in (-0.1, 1.5, math.nan):
        with pytest.raises(DataError, match=r"threshold must be in \[0, 1\]"):
            align("肝癌", index, threshold)


def test_fusion_config_keeps_the_orders_as_a_tuple():
    assert FusionConfig(0.5, [1, 3]) == FusionConfig(0.5, (1, 3))


@pytest.mark.parametrize(
    "threshold, orders",
    [(0, (1,)), (1.5, (1,)), (True, (1,)), ("0.8", (1,)), (None, (1,)), (math.nan, (1,)),
     (0.8, ()), (0.8, (0,)), (0.8, (1.0,)), (0.8, (True,)), (0.8, "12"), (0.8, None),
     (0.8, (1, 2, 1))],
)
def test_fusion_config_rejects_bad_values(threshold, orders):
    with pytest.raises(ConfigError):
        FusionConfig(threshold, orders)


def test_a_query_without_weight_ties_every_name_at_zero():
    """As a query that shares no n-gram with any name does: at threshold 0
    it aligns to the smallest name (肝炎 < 肝癌), else to none."""
    index = build_index(["肝癌", "肝炎"])
    # no terms at all; only 肝, a term of every name (IDF 0); no shared term
    for query in ("", "肝", "ＡＢ"):
        assert align(query, index, 0.0) == Alignment(query, "肝炎", 0.0, 0.0)
        assert align(query, index) == Alignment(query, None, 0.0)


def test_alignment_invariant_ties_target_to_threshold():
    Alignment("a", "b", 0.9, threshold=0.8)
    Alignment("a", None, 0.5, threshold=0.8)
    with pytest.raises(DataError):
        Alignment("a", "b", 0.5, threshold=0.8)
    with pytest.raises(DataError):
        Alignment("a", None, 0.9, threshold=0.8)


def test_query_ngrams_match_oracle_helper():
    for name in ["肝癌", "原发性肝细胞癌", "x"]:
        assert ngrams(name) == char_ngrams(name)


# -- fusion ----------------------------------------------------------


@pytest.fixture()
def fused_graph_setup(kb_file):
    entries, catalogs = load_kb(kb_file)
    graph = KnowledgeGraph()
    kb_into_graph(graph, entries)
    patient_id = add_patient_record(
        graph,
        "patient_01",
        [("Disease", "原发性肝细胞"), ("Symptom", "腹痛"), ("Disease", "不明疾病")],
    )
    index = build_index(list(catalogs.disease))
    alignments = [align("原发性肝细胞", index), align("不明疾病", index)]
    return graph, patient_id, alignments


def test_fuse_replaces_matched_source_with_canonical_node(fused_graph_setup):
    graph, patient_id, alignments = fused_graph_setup
    report = fuse(graph, alignments)
    assert [m[0] for m in report.merged] == ["原发性肝细胞"]
    assert report.merged[0][1] == "原发性肝细胞癌"
    assert graph.find_node("Disease", "原发性肝细胞") is None
    canonical = graph.find_node("Disease", "原发性肝细胞癌")
    assert canonical.attributes["aliases"] == ["原发性肝细胞"]
    diseases = graph.pattern_query("Patient", "patient_01", "HasDisease")
    assert "原发性肝细胞癌" in [n.name for n in diseases]


def test_fuse_preserves_patient_incident_triple_count(fused_graph_setup):
    graph, patient_id, alignments = fused_graph_setup
    before = len(triples_from(graph, patient_id)) + len(triples_to(graph, patient_id))
    fuse(graph, alignments)
    after = len(triples_from(graph, patient_id)) + len(triples_to(graph, patient_id))
    assert after == before


def test_fuse_retains_unmatched_nodes(fused_graph_setup):
    graph, patient_id, alignments = fused_graph_setup
    report = fuse(graph, alignments)
    assert report.unmatched == ("不明疾病",)
    assert graph.find_node("Disease", "不明疾病") is not None
    assert ("不明疾病") in [n.name for n in graph.pattern_query("Patient", "patient_01", "HasDisease")]


def test_fuse_is_idempotent(fused_graph_setup):
    graph, _, alignments = fused_graph_setup
    fuse(graph, alignments)
    nodes = dict(graph.nodes)
    triples = list(graph.triples)
    report = fuse(graph, alignments)
    assert report.merged == ()
    assert report.skipped == ("原发性肝细胞",)
    assert graph.nodes == nodes
    assert graph.triples == triples


def test_fuse_with_exact_match_is_a_recorded_noop(kb_file):
    entries, catalogs = load_kb(kb_file)
    graph = KnowledgeGraph()
    kb_into_graph(graph, entries)
    add_patient_record(graph, "p", [("Disease", "肝癌")])
    index = build_index(list(catalogs.disease))
    nodes = len(graph.nodes)
    report = fuse(graph, [align("肝癌", index)])
    assert report.merged == (("肝癌", "肝癌", pytest.approx(1.0)),)
    assert len(graph.nodes) == nodes
    assert graph.find_node("Disease", "肝癌").attributes.get("aliases", []) == []


def test_fuse_requires_canonical_node_in_graph():
    graph = KnowledgeGraph()
    graph.upsert_node("Disease", "某病")
    with pytest.raises(DataError, match=r"^target '不在图中' \(Disease\) not in graph$"):
        fuse(graph, [Alignment("某病", "不在图中", 0.95)])
    # an alignment as read_alignment_file makes it, which compares as before
    read = Alignment("某病", "不在图中", 0.95, origin="a.tsv: line 3")
    assert read == Alignment("某病", "不在图中", 0.95)
    with pytest.raises(DataError, match=r"^a\.tsv: line 3: target '不在图中' \(Disease\) not in"):
        fuse(graph, [read])


def test_fuse_merges_node_attributes_and_sorts_aliases(kb_file):
    entries, catalogs = load_kb(kb_file)
    graph = KnowledgeGraph()
    kb_into_graph(graph, entries)
    add_patient_record(graph, "p", [("Disease", "原发性肝细胞"), ("Disease", "原发性肝细胞癌变")])
    index = build_index(list(catalogs.disease))
    alignments = [align("原发性肝细胞", index), align("原发性肝细胞癌变", index)]
    assert all(a.target == "原发性肝细胞癌" for a in alignments)
    fuse(graph, alignments)
    canonical = graph.find_node("Disease", "原发性肝细胞癌")
    assert canonical.attributes["aliases"] == sorted(["原发性肝细胞", "原发性肝细胞癌变"])
