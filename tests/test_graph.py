"""Triple store: identity, typing, merge, queries, export, persistence."""

from __future__ import annotations

import csv
import gc
import io
import json
import random
import re
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emrkg.errors
import emrkg.graph
from emrkg.cli import main
from emrkg.errors import DataError, InternalError, encode_record
from emrkg.graph import (
    KnowledgeGraph,
    Node,
    add_patient_record,
    canonical_order,
    export_csv,
    export_cypher,
    load_graph,
    load_nodes_and_triples,
    normalize_name,
    relation_identifier,
    save_graph,
    Triple,
    _rels_row,
    _triple_line,
)
from emrkg.kb import Catalogs
from emrkg.schema import GRAPH_LABELS, KB_ENTITY_TYPES, RELATION_ENDPOINTS, SPAN_TYPE_TO_RELATION
from tests.oracles import (
    add_patient_record_by_upserts,
    canonical_order_by_key,
    csv_by_rank,
    csv_by_sort,
    cypher_by_rank,
    cypher_by_sort,
    graph_file_by_records,
    graph_records_by_line,
    normalize_name_by_loop,
    pattern_scan,
)
from tests.support import (
    SEPARATOR_NAMES,
    add_triple,
    graph_state,
    triples_from,
    triples_to,
)


# -- name normalization ----------------------------------------------------


def test_normalize_name_folds_width_and_trims():
    assert normalize_name("  肝癌  ") == "肝癌"
    assert normalize_name("ＣＴ") == "CT"
    assert normalize_name("Ｂ超１２") == "B超12"
    assert normalize_name("甲　乙") == "甲 乙"
    assert normalize_name("肝癌") == "肝癌"


# the ends of the folded block and their neighbours, the ideographic space,
# and whitespace that str.strip removes (so that trimming meets folding)
_FOLD_EDGES = "\uff00\uff01\uff5e\uff5f\u3000 \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u2029"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from(_FOLD_EDGES), st.characters()), max_size=12))
def test_normalize_name_matches_the_character_loop(name):
    assert normalize_name(name) == normalize_name_by_loop(name)


def test_normalize_name_folds_each_foldable_character_alone():
    """A name is folded only when its one foldable-character search finds
    something, so each character of the fold table, and its neighbours,
    is tried as the only one in its name."""
    for code in [*range(0x2FF0, 0x3010), *range(0xFF00, 0xFF70)]:
        name = f"甲{chr(code)}乙"
        assert normalize_name(name) == normalize_name_by_loop(name), f"U+{code:04X}"


# -- node identity ----------------------------------------------------------


def test_upsert_assigns_ids_and_merges_attributes():
    graph = KnowledgeGraph()
    first = graph.upsert_node("Disease", "肝癌", {"description": "旧"})
    second = graph.upsert_node("Disease", "肝癌", {"description": "新", "cause": "病毒"})
    assert first == second
    assert graph.nodes[first].attributes == {"description": "新", "cause": "病毒"}
    assert len(graph.nodes) == 1


def test_same_name_under_two_labels_makes_two_nodes():
    graph = KnowledgeGraph()
    a = graph.upsert_node("Disease", "水肿")
    b = graph.upsert_node("Symptom", "水肿")
    assert a != b
    assert len(graph.nodes) == 2


def test_width_variants_are_one_node():
    graph = KnowledgeGraph()
    a = graph.upsert_node("Check", "ＣＴ")
    b = graph.upsert_node("Check", "CT")
    assert a == b
    assert graph.find_node("Check", "ＣＴ").id == a
    assert graph.nodes[a].name == "ＣＴ"  # first spelling is kept for display


def test_upsert_rejects_unknown_label_and_blank_name():
    graph = KnowledgeGraph()
    with pytest.raises(DataError, match="^unknown node label 'Gene'$"):
        graph.upsert_node("Gene", "BRCA1")
    with pytest.raises(DataError):
        graph.upsert_node("Disease", "   ")


def test_random_upserts_count_distinct_label_name_pairs():
    rng = random.Random(3)
    graph = KnowledgeGraph()
    seen = set()
    for _ in range(500):
        label = rng.choice(GRAPH_LABELS)
        name = rng.choice(["肝癌", "腹痛", "CT", "甲", "乙"])
        graph.upsert_node(label, name)
        seen.add((label, name))
    assert len(graph.nodes) == len(seen)
    graph.validate()


# -- triples ----------------------------------------------------------


def test_add_triple_deduplicates():
    graph = KnowledgeGraph()
    disease = graph.upsert_node("Disease", "肝癌")
    food = graph.upsert_node("Food", "鸡蛋")
    assert add_triple(graph, disease, "RecommendedFood", food) is True
    assert add_triple(graph, disease, "RecommendedFood", food) is False
    assert len(graph.triples) == 1


def test_add_triple_rejects_missing_endpoints_and_bad_types():
    graph = KnowledgeGraph()
    disease = graph.upsert_node("Disease", "肝癌")
    food = graph.upsert_node("Food", "鸡蛋")
    with pytest.raises(DataError, match="^triple endpoint id 999 not in graph$"):
        add_triple(graph, disease, "RecommendedFood", 999)
    with pytest.raises(DataError, match="^RecommendedFood does not admit Food -> Disease$"):
        add_triple(graph, food, "RecommendedFood", disease)  # reversed endpoints
    with pytest.raises(DataError, match="^unknown relation type 'Causes'$"):
        add_triple(graph, disease, "Causes", food)  # unknown relation


def test_every_declared_endpoint_pair_is_accepted():
    for relation, pairs in RELATION_ENDPOINTS.items():
        for head_label, tail_label in pairs:
            graph = KnowledgeGraph()
            head = graph.upsert_node(head_label, "甲")
            tail = graph.upsert_node(tail_label, "乙")
            assert add_triple(graph, head, relation, tail)
            graph.validate()


def test_has_symptom_links_both_diseases_and_patients():
    graph = KnowledgeGraph()
    symptom = graph.upsert_node("Symptom", "腹痛")
    disease = graph.upsert_node("Disease", "肝癌")
    patient = graph.upsert_node("Patient", "p1")
    assert add_triple(graph, disease, "HasSymptom", symptom)
    assert add_triple(graph, patient, "HasSymptom", symptom)
    with pytest.raises(DataError, match="^HasSymptom does not admit Symptom -> Disease$"):
        add_triple(graph, symptom, "HasSymptom", disease)


# -- merge ----------------------------------------------------------


def test_merge_repoints_incident_triples_and_drops_source():
    graph = KnowledgeGraph()
    patient = graph.upsert_node("Patient", "p1")
    source = graph.upsert_node("Disease", "原发肝癌")
    target = graph.upsert_node("Disease", "肝癌")
    complication = graph.upsert_node("Disease", "肝硬化")
    add_triple(graph, patient, "HasDisease", source)
    add_triple(graph, source, "Complication", complication)
    moved = graph.merge_node_into(source, target)
    assert moved == 2
    assert graph.find_node("Disease", "原发肝癌") is None
    assert [n.name for n in graph.pattern_query("Patient", "p1", "HasDisease")] == ["肝癌"]
    assert [n.name for n in graph.pattern_query("Disease", "肝癌", "Complication")] == ["肝硬化"]
    graph.validate()


def test_merge_collapses_duplicates_created_by_repointing():
    graph = KnowledgeGraph()
    patient = graph.upsert_node("Patient", "p1")
    source = graph.upsert_node("Disease", "原发肝癌")
    target = graph.upsert_node("Disease", "肝癌")
    add_triple(graph, patient, "HasDisease", source)
    add_triple(graph, patient, "HasDisease", target)  # already points at target
    moved = graph.merge_node_into(source, target)
    assert moved == 0  # the re-pointed triple already existed
    assert len(graph.triples) == 1
    graph.validate()


def test_merge_handles_self_loops_between_source_and_target():
    graph = KnowledgeGraph()
    source = graph.upsert_node("Disease", "甲")
    target = graph.upsert_node("Disease", "乙")
    add_triple(graph, source, "Complication", target)
    graph.merge_node_into(source, target)
    # The edge became target->target, which the type system allows here.
    assert graph.triples[0].head == target
    assert graph.triples[0].tail == target
    graph.validate()


def test_failed_merge_leaves_the_graph_unchanged():
    graph = KnowledgeGraph()
    patient = graph.upsert_node("Patient", "p1")
    disease = graph.upsert_node("Disease", "肝癌")
    food = graph.upsert_node("Food", "辣椒")
    symptom = graph.upsert_node("Symptom", "腹痛")
    add_triple(graph, disease, "AvoidFood", food)  # a Symptom may not avoid food
    add_triple(graph, disease, "HasSymptom", symptom)
    add_triple(graph, patient, "HasSymptom", symptom)
    before = (graph.triples, dict(graph.nodes), triples_from(graph, disease),
              triples_to(graph, symptom))
    with pytest.raises(DataError, match="^AvoidFood does not admit Symptom -> Food$"):
        graph.merge_node_into(disease, symptom)
    assert (graph.triples, dict(graph.nodes), triples_from(graph, disease),
            triples_to(graph, symptom)) == before
    graph.validate()


def test_merge_of_identical_ids_is_a_noop():
    graph = KnowledgeGraph()
    node = graph.upsert_node("Disease", "肝癌")
    assert graph.merge_node_into(node, node) == 0
    assert node in graph.nodes


def test_merge_requires_both_endpoints():
    graph = KnowledgeGraph()
    node = graph.upsert_node("Disease", "肝癌")
    with pytest.raises(DataError, match="^merge endpoints must exist$"):
        graph.merge_node_into(node, 42)


# -- queries ----------------------------------------------------------


def test_pattern_query_returns_sorted_tails_or_empty():
    graph = KnowledgeGraph()
    disease = graph.upsert_node("Disease", "肝癌")
    for food in ["鸡蛋", "鱼类", "豆腐"]:
        add_triple(graph, disease, "RecommendedFood", graph.upsert_node("Food", food))
    names = [n.name for n in graph.pattern_query("Disease", "肝癌", "RecommendedFood")]
    assert names == sorted(["鸡蛋", "鱼类", "豆腐"])
    assert graph.pattern_query("Disease", "不存在", "RecommendedFood") == []
    assert graph.pattern_query("Disease", "肝癌", "AvoidFood") == []


def _random_graph(rng: random.Random) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    names = ["甲", "乙", "丙", "丁", "戊"]
    for _ in range(rng.randint(1, 8)):
        graph.upsert_node(rng.choice(GRAPH_LABELS), rng.choice(names))
    relations = list(RELATION_ENDPOINTS)
    for _ in range(rng.randint(0, 12)):
        relation = rng.choice(relations)
        head_label, tail_label = rng.choice(RELATION_ENDPOINTS[relation])
        head = graph.upsert_node(head_label, rng.choice(names))
        tail = graph.upsert_node(tail_label, rng.choice(names))
        add_triple(graph, head, relation, tail)
    return graph


def test_pattern_query_matches_brute_force_scan_on_random_graphs():
    rng = random.Random(99)
    relations = list(RELATION_ENDPOINTS)
    for _ in range(150):
        graph = _random_graph(rng)
        graph.validate()
        for _ in range(5):
            label = rng.choice(GRAPH_LABELS)
            name = rng.choice(["甲", "乙", "丙", "丁", "戊", "无"])
            relation = rng.choice(relations)
            got = graph.pattern_query(label, name, relation)
            want = pattern_scan(graph, label, name, relation)
            assert [(n.id, n.name) for n in got] == [(n.id, n.name) for n in want]


def test_triples_from_and_to_list_incident_edges():
    graph = KnowledgeGraph()
    patient = graph.upsert_node("Patient", "p1")
    disease = graph.upsert_node("Disease", "肝癌")
    add_triple(graph, patient, "HasDisease", disease)
    assert [t.relation for t in triples_from(graph, patient)] == ["HasDisease"]
    assert triples_from(graph, disease) == []
    assert [t.head for t in triples_to(graph, disease)] == [patient]


def test_validate_detects_index_corruption():
    graph = KnowledgeGraph()
    graph.upsert_node("Disease", "肝癌")
    graph._by_key[("Disease", "幽灵")] = 77
    with pytest.raises(InternalError):
        graph.validate()


# -- patient records ----------------------------------------------------------


def test_add_patient_record_links_each_entity_with_its_relation():
    graph = KnowledgeGraph()
    patient = add_patient_record(
        graph,
        "patient_01",
        [("Disease", "肝癌"), ("Symptom", "腹痛"), ("Operation", "切除术")],
    )
    assert graph.nodes[patient].label == "Patient"
    assert [n.name for n in graph.pattern_query("Patient", "patient_01", "HasDisease")] == ["肝癌"]
    assert [n.name for n in graph.pattern_query("Patient", "patient_01", "HasSymptom")] == ["腹痛"]
    assert [n.name for n in graph.pattern_query("Patient", "patient_01", "Underwent")] == ["切除术"]


def test_the_schema_derives_the_endpoints_kb_types_labels_and_catalogs_it_wrote_out():
    """``schema.py`` derives these tables from its two source tables; they
    keep the values they had when each was written out, in the order of
    the source tables (the patient relations in tag order)."""
    assert list(RELATION_ENDPOINTS.items()) == [
        ("RecommendedFood", (("Disease", "Food"),)),
        ("AvoidFood", (("Disease", "Food"),)),
        ("BelongsToDepartment", (("Disease", "Department"),)),
        ("CommonDrug", (("Disease", "Drug"),)),
        ("DiagnosticCheck", (("Disease", "Examination"),)),
        ("HasSymptom", (("Disease", "Symptom"), ("Patient", "Symptom"))),
        ("Complication", (("Disease", "Disease"),)),
        ("RelatedDepartment", (("Disease", "Department"),)),
        ("HasDisease", (("Patient", "Disease"),)),
        ("HasBodyCheck", (("Patient", "BodyCheck"),)),
        ("HasCondition", (("Patient", "Condition"),)),
        ("HasCheck", (("Patient", "Check"),)),
        ("ReceivedTreatment", (("Patient", "Treatment"),)),
        ("Underwent", (("Patient", "Operation"),)),
    ]
    assert KB_ENTITY_TYPES == ("Disease", "Food", "Department", "Drug", "Examination", "Symptom")
    assert GRAPH_LABELS == ("Patient", "Disease", "BodyCheck", "Symptom", "Condition", "Check",
                            "Treatment", "Operation", "Food", "Department", "Drug", "Examination")
    assert [f.name for f in fields(Catalogs)] == [
        "disease", "food", "department", "drug", "examination", "symptom"]


def test_add_patient_record_rejects_untyped_entities():
    graph = KnowledgeGraph()
    with pytest.raises(DataError, match="^no patient relation for entity type 'Food'$"):
        add_patient_record(graph, "p", [("Food", "鸡蛋")])  # no patient relation


def test_repeated_entity_mentions_collapse_to_one_triple():
    graph = KnowledgeGraph()
    add_patient_record(graph, "p", [("Symptom", "腹痛"), ("Symptom", "腹痛")])
    assert len(graph.triples) == 1


# Characters a name or value may hold that a writer has to get right: JSON
# and Cypher escapes, control and line-separator characters, non-BMP and
# full-width forms, and whitespace that normalization trims.
_ODD_CHARS = "\"\\'\x00\x1f\n\t\x7f\x85\u2028\u2029 \u3000ＣＴ１ａ𠀀😀肝癌aB"
_odd_names = st.text(alphabet=st.one_of(st.sampled_from(_ODD_CHARS),
                                        st.characters(exclude_categories=("Cs",))), max_size=5)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_add_patient_record_matches_the_upsert_and_add_triple_loop(data):
    """The tuned ``upsert_node`` and ``add_triple`` give the ids, graph and
    messages of the versions they replaced, and leave the graph as those
    leave it when a mention is refused part way: repeated and width-variant
    mentions, labels with no patient relation, blank names."""
    pool = data.draw(st.lists(_odd_names, min_size=1, max_size=4))
    surfaces = st.one_of(st.sampled_from(pool), st.sampled_from(pool).map(_other_width),
                         st.sampled_from(pool).map(lambda name: f" {name}\u3000"), _odd_names)
    labels = st.sampled_from(sorted(SPAN_TYPE_TO_RELATION) + ["Food", "Patient", "disease"])
    records = st.lists(st.tuples(st.one_of(st.sampled_from(["p1", "ｐ1 ", "p2"]), _odd_names),
                                 st.lists(st.tuples(labels, surfaces), max_size=6),
                                 st.none() | st.dictionaries(st.sampled_from(["age", "name"]),
                                                             st.integers(0, 99), max_size=2)),
                       min_size=1, max_size=4)
    tuned, reference = KnowledgeGraph(), KnowledgeGraph()
    for graph in (tuned, reference):  # mentions may reuse a node that is already in
        graph.upsert_node("Disease", pool[0] if pool[0].strip() else "肝癌", {"description": "x"})
    for patient, entities, attributes in data.draw(records):
        outcomes = []
        for graph, insert in ((tuned, add_patient_record), (reference, add_patient_record_by_upserts)):
            try:
                outcomes.append(insert(graph, patient, entities, attributes))
            except DataError as exc:
                outcomes.append(("raised", str(exc)))
        assert outcomes[0] == outcomes[1]
        assert graph_state(tuned) == graph_state(reference)
    tuned.validate()


# -- export ----------------------------------------------------------


def _order(graph: KnowledgeGraph):
    return canonical_order(graph.nodes.values(), graph.triples)


def test_relation_identifier_renders_upper_snake_case():
    assert relation_identifier("RecommendedFood") == "RECOMMENDED_FOOD"
    assert relation_identifier("HasSymptom") == "HAS_SYMPTOM"
    assert relation_identifier("BelongsToDepartment") == "BELONGS_TO_DEPARTMENT"


def test_export_cypher_emits_one_statement_per_node_and_triple(tmp_path):
    graph = KnowledgeGraph()
    disease = graph.upsert_node("Disease", "肝癌", {"description": "恶性"})
    food = graph.upsert_node("Food", "鸡蛋")
    add_triple(graph, disease, "RecommendedFood", food)
    path = tmp_path / "graph.cypher"
    assert export_cypher(_order(graph), path, "g.jsonl") == 3
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "MERGE (n:Disease {name: '肝癌', description: '恶性'});"
    assert lines[1] == "MERGE (n:Food {name: '鸡蛋'});"
    assert lines[2] == (
        "MATCH (a:Disease {name: '肝癌'}), (b:Food {name: '鸡蛋'}) "
        "MERGE (a)-[:RECOMMENDED_FOOD]->(b);"
    )


def test_export_cypher_escapes_quotes_and_backslashes(tmp_path):
    graph = KnowledgeGraph()
    graph.upsert_node("Drug", "5'-核苷酸", {"note": "a\\b"})
    path = tmp_path / "graph.cypher"
    export_cypher(_order(graph), path, "g.jsonl")
    text = path.read_text(encoding="utf-8")
    assert "5\\'-核苷酸" in text
    assert "a\\\\b" in text


def test_export_is_canonical_across_insertion_orders(tmp_path):
    def build(order):
        graph = KnowledgeGraph()
        ids = {}
        for label, name in order:
            ids[(label, name)] = graph.upsert_node(label, name)
        add_triple(graph, ids[("Disease", "肝癌")], "RecommendedFood", ids[("Food", "鸡蛋")])
        return graph

    nodes = [("Disease", "肝癌"), ("Food", "鸡蛋"), ("Food", "鱼类")]
    first, second = build(nodes), build(list(reversed(nodes)))
    a, b = tmp_path / "a.cypher", tmp_path / "b.cypher"
    export_cypher(_order(first), a, "g.jsonl")
    export_cypher(_order(second), b, "g.jsonl")
    assert a.read_bytes() == b.read_bytes()

    export_csv(_order(first), tmp_path / "an.csv", tmp_path / "ar.csv")
    export_csv(_order(second), tmp_path / "bn.csv", tmp_path / "br.csv")
    assert (tmp_path / "an.csv").read_bytes() == (tmp_path / "bn.csv").read_bytes()
    assert (tmp_path / "ar.csv").read_bytes() == (tmp_path / "br.csv").read_bytes()


def test_export_csv_renumbers_ids_canonically(tmp_path):
    graph = KnowledgeGraph()
    food = graph.upsert_node("Food", "鸡蛋")  # inserted first, sorts after Disease
    disease = graph.upsert_node("Disease", "肝癌", {"cause": "病毒"})
    add_triple(graph, disease, "RecommendedFood", food)
    nodes_path, rels_path = tmp_path / "nodes.csv", tmp_path / "rels.csv"
    export_csv(_order(graph), nodes_path, rels_path)

    with open(nodes_path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["id", "label", "name", "attributes"]
    assert rows[1][:3] == ["1", "Disease", "肝癌"]
    assert json.loads(rows[1][3]) == {"cause": "病毒"}
    assert rows[2][:3] == ["2", "Food", "鸡蛋"]

    with open(rels_path, encoding="utf-8", newline="") as handle:
        rel_rows = list(csv.reader(handle))
    assert rel_rows == [["head", "relation", "tail"], ["1", "RecommendedFood", "2"]]


# A spec is nodes (label, name, attributes), one spelling per node key, and
# admitted triples between them as (head index, relation, tail index). The
# names mix widths, quotes and backslashes, so the export has to fold and
# escape them.
_NAME_CHARS = "肝癌腹痛甲乙CTab'\\ＣＴ１　 "


def _random_spec(rng: random.Random, n_nodes: int = 40, n_triples: int = 80):
    nodes, seen = [], set()
    while len(nodes) < n_nodes:
        label = rng.choice(GRAPH_LABELS + ("Patient", "Disease") * 3)
        name = "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(1, 4)))
        key = (label, normalize_name_by_loop(name))
        if not key[1] or key in seen:
            continue
        seen.add(key)
        fields = rng.sample(["cause", "description", "aliases"], rng.randint(0, 2))
        nodes.append((label, name, {f: rng.choice(["值", "a'b", "c\\d", 3, ["x", "y"]])
                                    for f in fields}))
    by_label: dict[str, list[int]] = {}
    for i, (label, _, _) in enumerate(nodes):
        by_label.setdefault(label, []).append(i)
    kinds = [(relation, head, tail) for relation, pairs in RELATION_ENDPOINTS.items()
             for head, tail in pairs if head in by_label and tail in by_label]
    triples = set()
    for _ in range(n_triples):
        relation, head, tail = rng.choice(kinds)
        triples.add((rng.choice(by_label[head]), relation, rng.choice(by_label[tail])))
    return nodes, sorted(triples)


def _build(spec, rng: random.Random) -> KnowledgeGraph:
    """The spec's graph, nodes and triples inserted in a shuffled order."""
    nodes, triples = spec
    graph = KnowledgeGraph()
    ids = {i: graph.upsert_node(*nodes[i]) for i in rng.sample(range(len(nodes)), len(nodes))}
    for head, relation, tail in rng.sample(triples, len(triples)):
        add_triple(graph, ids[head], relation, ids[tail])
    return graph


def test_export_equals_the_sorted_oracle_for_every_insertion_order(tmp_path):
    rng = random.Random(29)
    for _ in range(15):
        spec = _random_spec(rng)
        outputs = set()
        for _ in range(3):
            graph = _build(spec, rng)
            order = _order(graph)
            count = export_cypher(order, tmp_path / "graph.cypher", "g.jsonl")
            export_csv(order, tmp_path / "nodes.csv", tmp_path / "rels.csv")
            got = tuple((tmp_path / name).read_bytes().decode("utf-8")
                        for name in ("graph.cypher", "nodes.csv", "rels.csv"))
            assert got == (cypher_by_sort(graph), *csv_by_sort(graph))
            assert count == len(graph.nodes) + len(graph.triples)
            outputs.add(got)
        assert len(outputs) == 1


# attribute values a node may hold: Cypher renders strings, numbers,
# booleans and lists of them, and refuses null and objects
_cypher_values = st.recursive(
    st.one_of(st.booleans(), st.integers(-2**70, 2**70),
              st.floats(allow_nan=False, allow_infinity=False), _odd_names),
    lambda inner: st.lists(inner, max_size=3), max_leaves=5)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
              st.floats(allow_nan=False, allow_infinity=False), _odd_names),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_odd_names, inner, max_size=2),
    max_leaves=5)


def _odd_graph(data, values, first_id: int = 1) -> KnowledgeGraph:
    """A graph of nodes with odd names and attributes drawn from ``values``,
    among them attributes called name, and admitted triples between them,
    often two or more between the same two nodes. Node ids count up from
    ``first_id``."""
    graph = KnowledgeGraph()
    graph._next_id = first_id
    keys = st.one_of(st.sampled_from(["name", "aliases", "description"]), _odd_names)
    for label, name, attributes in data.draw(st.lists(st.tuples(
            st.sampled_from(["Patient", "Disease", "Symptom", "Food", "Department"]), _odd_names,
            st.dictionaries(keys, values, max_size=3)), max_size=8)):
        if name.strip():
            graph.upsert_node(label, name, attributes)
    ids = list(graph.nodes)
    if ids:
        for head, tail in data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                                             max_size=12)):
            pair = (graph.nodes[head].label, graph.nodes[tail].label)
            admitted = sorted(r for r, pairs in RELATION_ENDPOINTS.items() if pair in pairs)
            if admitted:  # Disease -> Food, say, admits two relations, which sort by name
                for relation in data.draw(st.lists(st.sampled_from(admitted), min_size=1,
                                                   max_size=2)):
                    add_triple(graph, head, relation, tail)
    return graph


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_export_matches_the_exporters_that_looked_up_ranks_by_id(data, tmp_path):
    """The rank tuples sort as the triples sorted by ranks looked up by id,
    and both exports write what the dict-and-lookup exporters wrote, or
    raise their message and write no Cypher file."""
    graph = _odd_graph(data, st.one_of(_cypher_values, _cypher_values, _json_values))
    order = canonical_order(graph.nodes.values(), graph.triples)
    nodes, rank, triples = canonical_order_by_key(graph.nodes.values(), graph.triples)
    assert order.nodes == nodes
    assert order.triples == [(rank[head], relation, rank[tail]) for head, relation, tail in triples]
    cypher = tmp_path / "graph.cypher"
    cypher.unlink(missing_ok=True)
    try:
        expected = cypher_by_rank(nodes, triples)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            export_cypher(order, cypher, "g.jsonl")
        assert str(raised.value) == f"g.jsonl: {exc}"
        assert not cypher.exists()
    else:
        assert export_cypher(order, cypher, "g.jsonl") == len(nodes) + len(triples)
        assert cypher.read_bytes().decode("utf-8") == expected
    export_csv(order, tmp_path / "nodes.csv", tmp_path / "rels.csv")
    got = tuple((tmp_path / name).read_bytes().decode("utf-8") for name in ("nodes.csv", "rels.csv"))
    assert got == csv_by_rank(nodes, rank, triples)


# -- persistence ----------------------------------------------------------


def _sample_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph()
    disease = graph.upsert_node("Disease", "肝癌", {"description": "恶性", "aliases": ["肝恶性肿瘤"]})
    food = graph.upsert_node("Food", "鸡蛋")
    patient = graph.upsert_node("Patient", "p1")
    add_triple(graph, disease, "RecommendedFood", food)
    add_triple(graph, patient, "HasDisease", disease)
    return graph


def test_triple_lines_are_what_the_encoder_writes():
    for relation in RELATION_ENDPOINTS:
        for head, tail in [(1, 1), (1, 10**12), (10**12, 2)]:
            record = {"kind": "triple", "head": head, "relation": relation, "tail": tail}
            assert _triple_line(head, relation, tail) == encode_record(record) + "\n"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), first_id=st.integers(-3, 10**19))
def test_save_graph_writes_what_the_record_encoder_writes(data, first_id, tmp_path):
    """Each node line is the record dict encoded whole, whatever its name
    (quotes, backslashes, control, line-separator, non-BMP and full-width
    characters, surrounding whitespace), its nested attributes or its id,
    and the file reads back as the graph."""
    graph = _odd_graph(data, _json_values, first_id)
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    assert path.read_bytes().decode("utf-8") == graph_file_by_records(graph)
    loaded = load_graph(path)
    assert loaded.nodes == graph.nodes
    assert loaded.triples == graph.triples


def test_rels_rows_are_what_the_csv_writer_writes():
    for relation in RELATION_ENDPOINTS:
        for head, tail in [(1, 1), (1, 10**12), (10**12, 2)]:
            buffer = io.StringIO(newline="")
            csv.writer(buffer).writerow([head, relation, tail])
            assert _rels_row(head, relation, tail) == buffer.getvalue()


def test_save_load_round_trip_preserves_everything(tmp_path):
    graph = _sample_graph()
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    loaded = load_graph(path)
    loaded.validate()
    assert {(n.label, n.name) for n in loaded.nodes.values()} == {
        (n.label, n.name) for n in graph.nodes.values()
    }
    assert sorted(loaded.triples) == sorted(graph.triples)
    assert loaded.find_node("Disease", "肝癌").attributes == {
        "description": "恶性",
        "aliases": ["肝恶性肿瘤"],
    }
    second = tmp_path / "again.jsonl"
    save_graph(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_names_holding_line_separators_round_trip(tmp_path):
    graph = KnowledgeGraph()
    patient = graph.upsert_node("Patient", "p\u20281")
    for name in SEPARATOR_NAMES:
        add_triple(graph, patient, "HasDisease", graph.upsert_node("Disease", name))
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    loaded = load_graph(path)
    assert loaded.nodes == graph.nodes
    assert loaded.triples == graph.triples


def test_save_load_round_trip_on_random_graphs(tmp_path):
    rng = random.Random(31)
    path, again = tmp_path / "graph.jsonl", tmp_path / "again.jsonl"
    for _ in range(15):
        graph = _build(_random_spec(rng), rng)
        diseases = [n.id for n in graph.nodes.values() if n.label == "Disease"]
        graph.merge_node_into(diseases[0], diseases[-1])  # leaves a gap in the ids
        save_graph(graph, path)
        loaded = load_graph(path)
        loaded.validate()
        assert loaded.nodes == graph.nodes
        assert loaded.triples == graph.triples
        save_graph(loaded, again)
        assert again.read_bytes() == path.read_bytes()


_NODE = '{"kind": "node", "id": 1, "label": "Disease", "name": "肝癌"}'


def _node_line(node_id: int, label: str, name: str) -> str:
    """A node's line as ``save_graph`` writes it, with no attributes."""
    return encode_record({"kind": "node", "id": node_id, "label": label, "name": name,
                          "attributes": {}}) + "\n"


# node lines in save_graph's shape, which a load scans a block at a time
_SAVED = [_node_line(1, "Disease", "肝癌")[:-1], _node_line(2, "Food", "苹果")[:-1],
          _node_line(3, "Disease", "HBV")[:-1]]


def _triple(head, relation, tail) -> str:
    return json.dumps({"kind": "triple", "head": head, "relation": relation, "tail": tail})


# the records after the header of a graph file that load_graph rejects, and
# the message it gives after the file's name
_MALFORMED = [
    ([_NODE + " " + _NODE], "line 2: truncated or invalid record: Extra data"),
    ([_NODE[:30], _NODE[30:]], "line 2: truncated or invalid record"),  # one record, two lines
    (["[1]"], "line 2: record is not a JSON object"),
    ([_NODE.replace('"肝癌"', '" "')], "line 2: malformed node record"),
    ([_NODE.replace('"肝癌"', "5")], "line 2: malformed node record"),
    ([_NODE[:-1] + ', "attributes": 5}'], "line 2: malformed node record"),
    ([_NODE, _triple(1, ["Complication"], 1)], "line 3: malformed triple record"),
    # a triple is type-checked where it is read, so the first bad record is reported
    ([_triple(1, 5, 1), _NODE.replace('"肝癌"', "5")], "line 2: malformed triple record"),
    ([_NODE.replace('"肝癌"', '"\\ud800x"')], "line 2: lone surrogate"),
    ([_NODE, '{"kind": "edge"}'], "line 3: unknown record kind 'edge'"),
    ([_NODE.replace("Disease", "Organ")], "line 2: unknown label 'Organ'"),
    ([_NODE, _NODE.replace('"id": 1', '"id": 2')], "line 3: duplicate node ('Disease', '肝癌')"),
    ([_NODE, _NODE.replace("肝癌", "肝炎")], "line 3: duplicate node ('Disease', '肝炎')"),
    # the same faults in scanned blocks: each is named at its own line
    (_SAVED + [_node_line(4, "Organ", "肝")[:-1]], "line 5: unknown label 'Organ'"),
    (_SAVED + [_node_line(2, "Food", "梨")[:-1]], "line 5: duplicate node ('Food', '梨')"),
    (_SAVED + [_node_line(4, "Disease", "\u3000ＨＢＶ")[:-1]],
     "line 5: duplicate node ('Disease', 'HBV')"),
    # text before a record of a block led by a node line, or by a triple line
    (_SAVED + ["JUNK" + _node_line(4, "Food", "梨")[:-1]],
     "line 5: truncated or invalid record: Expecting value"),
    (_SAVED + [_triple_line(1, "RecommendedFood", 2)[:-1],
               "JUNK" + _triple_line(3, "RecommendedFood", 2)[:-1]],
     "line 6: truncated or invalid record: Expecting value"),
    ([_NODE, _triple(1, "RecommendedFood", 9)], "line 3: triple endpoint id 9 not in graph"),
    ([_NODE, _triple(1, "Cures", 1)], "line 3: unknown relation type 'Cures'"),
    ([_NODE, _triple(1, "RecommendedFood", 1)],
     "line 3: RecommendedFood does not admit Disease -> Disease"),
    # a triple is checked against the nodes of the lines before it, so the
    # first bad line in file order is reported
    ([_triple(1, "RecommendedFood", 9), _NODE.replace('"肝癌"', "5")],
     "line 2: triple endpoint id 1 not in graph"),
    ([_triple(1, "Cures", 1), _triple(7, "HasSymptom", 1), _NODE],
     "line 2: triple endpoint id 1 not in graph"),
    ([_triple(7, "HasSymptom", 1), _NODE], "line 2: triple endpoint id 7 not in graph"),
    ([_NODE, _triple(1, "Cures", 1), _NODE.replace('"肝癌"', "5")],
     "line 3: unknown relation type 'Cures'"),
]


def _graph_text(lines: list[str]) -> str:
    return "\n".join(['{"schema": "graph/1"}'] + lines) + "\n"


def test_load_graph_reads_each_line_as_json_loads_does(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text(f'{{"schema": "graph/1"}}\n \t{_NODE} \n\n', encoding="utf-8")
    assert load_graph(path).find_node("Disease", "肝癌").id == 1
    paired = _NODE.replace("肝癌", "\\ud83d\\ude00")  # one escaped astral character
    path.write_text(f'{{"schema": "graph/1"}}\n{paired}\n', encoding="utf-8")
    assert load_graph(path).find_node("Disease", "\U0001F600").id == 1
    for lines, message in _MALFORMED:
        path.write_text(_graph_text(lines), encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_graph(path)


def _malformed_texts(tmp_path) -> list[str]:
    """Graph files that fail to load: empty, headerless, cut mid-record,
    and each of ``_MALFORMED``."""
    saved = tmp_path / "saved.jsonl"
    save_graph(_sample_graph(), saved)
    lines = saved.read_text(encoding="utf-8").splitlines()
    texts = ["", '{"kind": "node"}\n', "\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]])]
    return texts + [_graph_text(lines) for lines, _ in _MALFORMED]


@pytest.mark.parametrize("name", ["肝癌", "不存在"], ids=["head-in-the-file", "head-with-no-node"])
def test_query_rejects_each_malformed_file_as_load_graph_does(name, tmp_path, caplog):
    """``query`` keeps only the queried head's triples, but checks every
    record as ``load_graph`` does, whether or not the head has a node."""
    for i, text in enumerate(_malformed_texts(tmp_path)):
        path = tmp_path / f"graph{i}.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as raised:
            load_graph(path)
        caplog.clear()
        assert main(["query", "--seed", "1", "--output-dir", str(tmp_path / "out"),
                     "--graph", str(path), "--label", "Disease", "--name", name,
                     "--relation", "RecommendedFood"]) == 3
        assert f"query: {raised.value}\n" in caplog.text


def test_export_rejects_each_malformed_file_as_load_graph_does(tmp_path, caplog):
    """``export`` sorts the records without building the graph, but checks
    every one of them as ``load_graph`` does."""
    for i, text in enumerate(_malformed_texts(tmp_path)):
        path = tmp_path / f"graph{i}.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as raised:
            load_graph(path)
        caplog.clear()
        out = tmp_path / f"out{i}"
        assert main(["export", "--seed", "1", "--output-dir", str(out), "--graph", str(path)]) == 3
        assert f"export: {raised.value}\n" in caplog.text
        assert not (out / "graph.cypher").exists()


def test_export_of_a_file_equals_the_export_of_its_loaded_graph(tmp_path):
    """A repeated triple line is exported once, as ``load_graph`` keeps it."""
    path = tmp_path / "graph.jsonl"
    save_graph(_sample_graph(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    triple = next(line for line in lines if '"kind": "triple"' in line)
    path.write_text("\n".join(lines + [triple]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["export", "--seed", "1", "--output-dir", str(out), "--graph", str(path)]) == 0
    order = _order(load_graph(path))
    export_cypher(order, tmp_path / "graph.cypher", path)
    export_csv(order, tmp_path / "nodes.csv", tmp_path / "rels.csv")
    for name in ("graph.cypher", "nodes.csv", "rels.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_load_graph_rejects_empty_and_unversioned_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match=f'^{re.escape(str(empty))}: line 1: expected the header '
                                        '{"schema": "graph/1"}, got an empty file$'):
        load_graph(empty)

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"kind": "node"}\n', encoding="utf-8")
    with pytest.raises(DataError, match=f'^{re.escape(str(headerless))}: line 1: expected the '
                                        'header {"schema": "graph/1"}, got \'{"kind": "node"}\'$'):
        load_graph(headerless)


def test_load_graph_reports_truncated_records_with_position(tmp_path):
    graph = _sample_graph()
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(cut))}: line 3: truncated or invalid "
                                        "record: Unterminated string starting at$"):
        load_graph(cut)


def test_load_graph_rejects_dangling_triples(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text(
        "\n".join([
            '{"schema": "graph/1"}',
            '{"kind": "node", "id": 1, "label": "Disease", "name": "肝癌", "attributes": {}}',
            '{"kind": "triple", "head": 1, "relation": "RecommendedFood", "tail": 9}',
        ]) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 3: triple endpoint id 9 "
                                        "not in graph$"):
        load_graph(path)


def _large_graph() -> KnowledgeGraph:
    """22,000 triples over 3,600 nodes, shaped like a fused KB graph."""
    rng = random.Random(5)
    graph = KnowledgeGraph()
    diseases = [graph.upsert_node("Disease", f"疾病{i}", {"description": f"疾病{i}是一种常见疾病"})
                for i in range(1000)]
    foods = [graph.upsert_node("Food", f"食物{i}") for i in range(100)]
    symptoms = [graph.upsert_node("Symptom", f"症状{i}") for i in range(500)]
    for disease in diseases:
        for food in rng.sample(foods, 4):
            add_triple(graph, disease, "RecommendedFood", food)
        for symptom in rng.sample(symptoms, 4):
            add_triple(graph, disease, "HasSymptom", symptom)
    for i in range(2000):
        patient = graph.upsert_node("Patient", f"patient-{i:04d}")
        for disease in rng.sample(diseases, 4):
            add_triple(graph, patient, "HasDisease", disease)
        for symptom in rng.sample(symptoms, 3):
            add_triple(graph, patient, "HasSymptom", symptom)
    return graph


# rewrites of one triple line that a load must read as json.loads does,
# each giving the rewritten line with its line end; some make the file bad
_TRIPLE_REWRITES = {
    "keys-reordered": lambda r, line: json.dumps({k: r[k] for k in ("tail", "relation", "kind",
                                                                    "head")}) + "\n",
    "compact": lambda r, line: json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n",
    "spaced": lambda r, line: " " + line.replace(": ", " :  ").replace(", ", " , ") + "\t\n",
    "escaped-relation": lambda r, line: line.replace(
        f'"{r["relation"]}"', '"\\u%04x%s"' % (ord(r["relation"][0]), r["relation"][1:])) + "\n",
    "head-minus-zero": lambda r, line: line.replace(f'{{"head": {r["head"]},', '{"head": -0,') + "\n",
    "head-leading-zero": lambda r, line: line.replace('{"head": ', '{"head": 0') + "\n",
    "tail-float": lambda r, line: line.replace(f'"tail": {r["tail"]}}}', f'"tail": {r["tail"]}.0}}')
    + "\n",
    "trailing-garbage": lambda r, line: line + " x\n",
    # in save_graph's shape, but failing the endpoint check made where it is read
    "dangling-tail": lambda r, line: _triple_line(r["head"], r["relation"], 10**6),
    "unknown-relation": lambda r, line: _triple_line(r["head"], "Cures", r["tail"]),
    "crlf": lambda r, line: line + "\r\n",
    "blank-after": lambda r, line: line + "\n \t\n\n",
}


def _other_width(name: str) -> str:
    """``name`` with each ASCII character in its full-width form and each
    full-width one in its ASCII form: the same name after normalization."""
    return "".join(chr(ord(c) + 0xFEE0) if "!" <= c <= "~" else
                   chr(ord(c) - 0xFEE0) if "\uff01" <= c <= "\uff5e" else c for c in name)


def _with(record: dict, **changes) -> str:
    return encode_record({**record, **changes}) + "\n"


# rewrites of one node line that a load must read as json.loads does, each
# giving the rewritten line with its line end; some make the file bad
_NODE_REWRITES = {
    "keys-reordered": lambda r, line: json.dumps(dict(reversed(r.items())), ensure_ascii=False)
    + "\n",
    "compact": lambda r, line: json.dumps(r, ensure_ascii=False, sort_keys=True,
                                          separators=(",", ":")) + "\n",
    "name-quote": lambda r, line: _with(r, name=r["name"] + '"'),
    "name-backslash": lambda r, line: _with(r, name="\\" + r["name"]),
    "name-escape": lambda r, line: line.replace(f'"name": {encode_record(r["name"])}',
                                                f'"name": {encode_record(r["name"])[:-1]}\\u00e9"')
    + "\n",
    "attribute-lone-surrogate": lambda r, line: _with(
        r, attributes={**r["attributes"], "note": "SURROGATE"}).replace("SURROGATE", "\\ud800"),
    # an attribute that holds the end of another node line
    "attribute-holds-a-line-end": lambda r, line: _with(r, attributes={
        **r["attributes"], "note": '}, "id": 9, "kind": "node", "label": "Food", "name": "x"}'}),
    "id-minus-zero": lambda r, line: line.replace(f'"id": {r["id"]},', '"id": -0,') + "\n",
    "id-leading-zero": lambda r, line: line.replace('"id": ', '"id": 0') + "\n",
    "id-float": lambda r, line: line.replace(f'"id": {r["id"]},', f'"id": {r["id"]}.0,') + "\n",
    "id-19-digits": lambda r, line: _with(r, id=r["id"] + 10**18),
    "name-blank": lambda r, line: _with(r, name=" \u3000"),
    # a second node line, its name the first one's in the other width
    "width-folded-duplicate": lambda r, line: line + "\n" + _with(
        r, id=r["id"] + 10**6, name="\u3000" + _other_width(r["name"])),
    "crlf": lambda r, line: line + "\r\n",
    "trailing-garbage": lambda r, line: line + " x\n",
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), block=st.integers(1, 2000), data=st.data())
def test_graph_readers_agree_with_the_line_by_line_reference(seed, block, data, tmp_path, caplog):
    """``load_graph``, ``load_nodes_and_triples`` and ``query`` give the
    records, or the message, of a reader that decodes each line with
    ``json.loads``, whether a node or triple line is in ``save_graph``'s
    shape (scanned a block at a time) or in any other form, and wherever
    the blocks end."""
    rng = random.Random(seed)
    graph = _build(_random_spec(rng, n_nodes=24, n_triples=40), rng)
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    header, *lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    n_nodes = len(graph.nodes)
    texts = [line + "\n" for line in lines]
    edits = data.draw(st.lists(st.tuples(st.integers(n_nodes, len(lines) - 1),
                                         st.sampled_from(sorted(_TRIPLE_REWRITES))), max_size=4))
    for i, how in edits:
        texts[i] = _TRIPLE_REWRITES[how](json.loads(lines[i]), lines[i])
    edits = data.draw(st.lists(st.tuples(st.integers(0, n_nodes - 1),
                                         st.sampled_from(sorted(_NODE_REWRITES))), max_size=3))
    for i, how in edits:
        texts[i] = _NODE_REWRITES[how](json.loads(lines[i]), lines[i])
    if data.draw(st.booleans()):  # a node line after the triples, or among them
        moved = texts.pop(data.draw(st.integers(0, n_nodes - 1)))
        at = data.draw(st.one_of(st.just(len(texts)), st.integers(n_nodes - 1, len(texts))))
        texts.insert(at, moved)
    text = header + "\n" + "".join(texts)
    if data.draw(st.booleans()):
        text = text[:-1]
    path.write_text(text, encoding="utf-8", newline="")
    try:
        expected = graph_records_by_line(path)
    except DataError as exc:
        expected = exc
    node = data.draw(st.sampled_from(list(graph.nodes.values())))
    relation = data.draw(st.sampled_from(sorted(RELATION_ENDPOINTS)))
    answer = tmp_path / "answer.txt"
    caplog.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(emrkg.errors, "_BLOCK_CHARS", block)
        code = main(["query", "--seed", "1", "--output-dir", str(tmp_path / "out"),
                     "--graph", str(path), "--label", node.label, "--name", node.name,
                     "--relation", relation, "--out", str(answer)])
        if isinstance(expected, DataError):
            for read in (load_graph, load_nodes_and_triples):
                with pytest.raises(DataError) as raised:
                    read(path)
                assert (type(raised.value), str(raised.value)) == (type(expected), str(expected))
            assert code == 3
            assert f"query: {expected}\n" in caplog.text
            return
        loaded = load_graph(path)
        nodes, triples = load_nodes_and_triples(path)
    expected_nodes = [r for r in expected if type(r) is Node]
    expected_triples = list(dict.fromkeys(r for r in expected if type(r) is Triple))
    assert list(loaded.nodes.values()) == nodes == expected_nodes
    assert loaded.triples == list(triples) == expected_triples
    loaded.validate()
    reference = SimpleNamespace(nodes={n.id: n for n in expected_nodes}, triples=expected_triples)
    assert code == 0
    assert answer.read_text(encoding="utf-8") == "".join(
        n.name + "\n" for n in pattern_scan(reference, node.label, node.name, relation))


def _assert_reads_as_the_reference(path) -> None:
    """Every reader, and a head-filtered load for each node, gives the
    line-by-line reference's nodes and triples, in its order."""
    expected = graph_records_by_line(path)
    expected_nodes = [r for r in expected if type(r) is Node]
    expected_triples = [r for r in expected if type(r) is Triple]
    loaded = load_graph(path)
    nodes, triples = load_nodes_and_triples(path)
    assert list(loaded.nodes.values()) == nodes == expected_nodes
    assert loaded.triples == list(triples) == expected_triples
    for node in expected_nodes:
        kept = load_graph(path, head=(node.label, node.name))
        assert list(kept.nodes.values()) == expected_nodes
        assert kept.triples == [t for t in expected_triples if t.head == node.id]


@pytest.mark.parametrize("block", [1, 150, 1 << 16])
def test_a_triple_read_before_its_tails_node_is_held_in_file_order(block, tmp_path, monkeypatch):
    """Triples, scanned or decoded, load in the file's order once every
    node line they name has been read; moving a tail's node line after its
    triple does not hold that triple to the end but refuses it at its line."""
    triples = [
        _triple_line(1, "RecommendedFood", 3),
        _triple_line(1, "RecommendedFood", 2),
        _triple_line(1, "AvoidFood", 3),
        _triple(1, "AvoidFood", 4) + "\n",  # decoded, not scanned
        _triple_line(1, "AvoidFood", 2),
    ]
    nodes = [_node_line(1, "Disease", "肝癌"), _node_line(3, "Food", "苹果"),
             _node_line(4, "Food", "桃")]
    path = tmp_path / "graph.jsonl"
    monkeypatch.setattr(emrkg.errors, "_BLOCK_CHARS", block)
    path.write_text('{"schema": "graph/1"}\n' + "".join(
        nodes + [_node_line(2, "Food", "梨")] + triples), encoding="utf-8")
    _assert_reads_as_the_reference(path)
    assert load_graph(path).triples == [
        (1, "RecommendedFood", 3), (1, "RecommendedFood", 2), (1, "AvoidFood", 3),
        (1, "AvoidFood", 4), (1, "AvoidFood", 2)]
    path.write_text('{"schema": "graph/1"}\n' + "".join(
        nodes + triples[:4] + [_node_line(2, "Food", "梨")] + triples[4:]), encoding="utf-8")
    message = f"{path}: line 6: triple endpoint id 2 not in graph"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        graph_records_by_line(path)
    for read in (load_graph, load_nodes_and_triples):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read(path)


@pytest.mark.parametrize("block", [1, 150, 1 << 16])
@pytest.mark.parametrize("line", [_triple_line(1, "RecommendedFood", 2),
                                  _triple(1, "RecommendedFood", 2) + "\n"],
                         ids=["scanned", "decoded"])
def test_a_triple_read_before_its_endpoints_node_line_is_refused_at_its_line(
        block, line, tmp_path, monkeypatch, caplog):
    """A triple is checked where it is read, so one whose tail's node line
    comes later is refused at its own line, as ``save_graph`` never writes
    it; in save_graph's shape it is scanned when its block holds only
    triple lines, else decoded."""
    path = tmp_path / "graph.jsonl"
    path.write_text('{"schema": "graph/1"}\n' + "".join([
        _node_line(1, "Disease", "肝癌"),
        _node_line(3, "Food", "苹果"),
        _triple_line(1, "RecommendedFood", 3),
        line,  # node 2 comes later
        _triple_line(1, "AvoidFood", 3),
        _node_line(2, "Food", "梨"),
    ]), encoding="utf-8")
    monkeypatch.setattr(emrkg.errors, "_BLOCK_CHARS", block)
    message = f"{path}: line 5: triple endpoint id 2 not in graph"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        graph_records_by_line(path)
    for read in (load_graph, load_nodes_and_triples):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read(path)
    caplog.clear()
    assert main(["query", "--seed", "1", "--output-dir", str(tmp_path / "out"), "--graph",
                 str(path), "--label", "Disease", "--name", "肝癌",
                 "--relation", "RecommendedFood"]) == 3
    assert f"query: {message}\n" in caplog.text


@pytest.mark.parametrize("block", [1, 150, 1 << 16])
def test_node_ids_zero_and_negative_load_as_the_reference_loads_them(block, tmp_path, monkeypatch):
    """Scanned triples are checked by the text of their ids: ``-1`` and
    ``1``, ``0`` and ``10`` must stay different nodes, whichever is read
    last."""
    nodes = [_node_line(1, "Food", "苹果"), _node_line(10, "Food", "梨"),
             _node_line(2, "Food", "桃"), _node_line(0, "Disease", "肝癌"),
             _node_line(-1, "Disease", "肝炎"), _node_line(-10, "Symptom", "腹痛"),
             _node_line(-123, "Patient", "p1")]
    triples = [_triple_line(0, "RecommendedFood", 1), _triple_line(-1, "RecommendedFood", 10),
               _triple_line(-1, "HasSymptom", -10), _triple_line(0, "Complication", -1),
               _triple_line(-123, "HasDisease", 0), _triple_line(-123, "HasDisease", -1),
               _triple_line(-123, "HasSymptom", -10), _triple_line(0, "AvoidFood", 10)]
    path = tmp_path / "graph.jsonl"
    monkeypatch.setattr(emrkg.errors, "_BLOCK_CHARS", block)
    path.write_text('{"schema": "graph/1"}\n' + "".join(nodes + triples), encoding="utf-8")
    _assert_reads_as_the_reference(path)
    for bad in (_triple_line(1, "RecommendedFood", -1), _triple_line(1, "RecommendedFood", 2),
                _triple_line(-10, "HasSymptom", 0), _triple_line(0, "RecommendedFood", -100)):
        path.write_text('{"schema": "graph/1"}\n' + "".join(nodes + [bad] + triples[:3]),
                        encoding="utf-8")
        with pytest.raises(DataError) as expected:
            graph_records_by_line(path)
        for read in (load_graph, load_nodes_and_triples):
            with pytest.raises(DataError, match=f"^{re.escape(str(expected.value))}$"):
                read(path)


def test_query_builds_a_triple_only_for_its_heads_triples(tmp_path, monkeypatch):
    """``query`` checks every triple of the file but makes a ``Triple``
    only for those whose head it was asked about."""
    graph = _large_graph()
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    disease = graph.find_node("Disease", "疾病7")
    built = []

    def counting(values, new=emrkg.graph._new_triple):
        built.append(values)
        return new(values)

    monkeypatch.setattr(emrkg.graph, "_new_triple", counting)
    assert load_graph(path).triples == graph.triples
    assert len(built) == len(graph.triples)  # the count sees every triple a load makes
    built.clear()
    answer = tmp_path / "answer.txt"
    assert main(["query", "--seed", "1", "--output-dir", str(tmp_path / "out"), "--graph",
                 str(path), "--label", "Disease", "--name", "疾病7", "--relation",
                 "RecommendedFood", "--out", str(answer)]) == 0
    assert built == [t for t in graph.triples if t.head == disease.id]
    assert len(built) == 8
    assert answer.read_text(encoding="utf-8") == "".join(
        n.name + "\n" for n in graph.pattern_query("Disease", "疾病7", "RecommendedFood"))


@pytest.mark.parametrize("block", [1, 150, 1 << 16])
def test_every_line_save_graph_writes_is_read_without_a_json_decode(block, tmp_path, monkeypatch):
    """Node and triple lines in ``save_graph``'s shape are all scanned,
    wherever the blocks end, so a slip in either regex cannot send them
    quietly back to the line-by-line decode."""
    graph = _large_graph()
    graph.upsert_node("Disease", "肝癌", {"aliases": ['原发性"肝癌"', "c\\d", "a b"], "n": 1.5})
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    decoded = []

    def counting(path, lineno, line, decode=emrkg.graph.decode_record):
        decoded.append(lineno)
        return decode(path, lineno, line)

    monkeypatch.setattr(emrkg.graph, "decode_record", counting)
    monkeypatch.setattr(emrkg.errors, "_BLOCK_CHARS", block)
    loaded = load_graph(path)
    assert (loaded.nodes, loaded.triples) == (graph.nodes, graph.triples)
    nodes, triples = load_nodes_and_triples(path)
    assert (nodes, list(triples)) == (list(graph.nodes.values()), graph.triples)
    answer = tmp_path / "answer.txt"
    assert main(["query", "--seed", "1", "--output-dir", str(tmp_path / "out"), "--graph",
                 str(path), "--label", "Disease", "--name", "疾病7", "--relation",
                 "HasSymptom", "--out", str(answer)]) == 0
    assert answer.read_text(encoding="utf-8") == "".join(
        n.name + "\n" for n in graph.pattern_query("Disease", "疾病7", "HasSymptom"))
    assert decoded == []


def test_a_bad_byte_after_scanned_blocks_is_reported_as_unreadable(tmp_path, monkeypatch, caplog):
    """A byte that is not UTF-8, after blocks of triple lines that were
    scanned, still fails every read with "cannot read"."""
    graph = KnowledgeGraph()
    disease = graph.upsert_node("Disease", "肝癌")
    for i in range(400):
        add_triple(graph, disease, "RecommendedFood", graph.upsert_node("Food", f"食物{i}"))
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    path.write_bytes(path.read_bytes() + b'{"kind": "node", "id": 999, "label": "Food", '
                     b'"name": "\xff"}\n')
    found = []

    class CountingScan:
        def findall(self, text, scan=emrkg.graph._TRIPLE_LINES.findall):
            found.append(len(scan(text)))
            return scan(text)

    monkeypatch.setattr(emrkg.errors, "_BLOCK_CHARS", 1024)
    monkeypatch.setattr(emrkg.graph, "_TRIPLE_LINES", CountingScan())
    for read in (load_graph, load_nodes_and_triples):
        found.clear()
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: "):
            read(path)
        assert sum(found) >= 100  # scanned triples before the fault was met
    out = tmp_path / "out"
    assert main(["query", "--seed", "1", "--output-dir", str(out), "--graph", str(path),
                 "--label", "Disease", "--name", "肝癌", "--relation", "RecommendedFood"]) == 3
    assert f"query: cannot read {path}: " in caplog.text
    assert main(["export", "--seed", "1", "--output-dir", str(out), "--graph", str(path)]) == 3
    assert not (out / "graph.cypher").exists()


def test_load_and_export_need_the_graph_plus_one_record(tmp_path):
    """Neither path holds a whole file: load keeps no decoded-record
    backlog beyond one block of lines, and export writes its triple
    statements as a stream."""
    path = tmp_path / "graph.jsonl"
    graph = _large_graph()
    assert len(graph.triples) >= 20_000
    save_graph(graph, path)
    del graph
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_graph(path)
        after_load, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        export_cypher(_order(loaded), tmp_path / "graph.cypher", path)
        export_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = after_load - base
    assert load_peak - base < 1.5 * kept
    assert export_peak - after_load < 0.5 * kept


def test_an_export_that_fails_writes_no_cypher_file(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text("\n".join([
        '{"schema": "graph/1"}',
        '{"kind": "node", "id": 1, "label": "Disease", "name": "肝癌"}',
        '{"kind": "node", "id": 2, "label": "Symptom", "name": "腹痛", "attributes": {"x": null}}',
        '{"kind": "triple", "head": 1, "relation": "HasSymptom", "tail": 2}',
    ]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["export", "--seed", "1", "--graph", str(path), "--output-dir", str(out)]) == 3
    assert not (out / "graph.cypher").exists()


# The record decoder reads JSON's NaN and Infinity as floats, which Cypher
# has no literal for.
@pytest.mark.parametrize("value", ["NaN", "Infinity", "[1.5, -Infinity]"])
def test_an_export_of_a_non_finite_attribute_value_writes_no_cypher_file(value, tmp_path, caplog):
    path = tmp_path / "graph.jsonl"
    path.write_text('{"schema": "graph/1"}\n{"kind": "node", "id": 1, "label": "Disease", '
                    f'"name": "肝癌", "attributes": {{"x": {value}}}}}\n', encoding="utf-8")
    out = tmp_path / "out"
    assert main(["export", "--seed", "1", "--graph", str(path), "--output-dir", str(out)]) == 3
    assert re.search(f"export: {re.escape(str(path))}: node Disease '肝癌': "
                     r"non-finite attribute value -?(nan|inf)\n", caplog.text)
    assert not (out / "graph.cypher").exists()


def test_an_export_of_a_node_with_an_attribute_called_name_writes_no_file(tmp_path, caplog):
    """Its MERGE would name the node by the attribute's value, so that no
    MATCH of its triples would find it and a Neo4j import would drop them."""
    path = tmp_path / "graph.jsonl"
    path.write_text(_graph_text([
        _NODE[:-1] + ', "attributes": {"description": "x", "name": "别名"}}',
        '{"kind": "node", "id": 2, "label": "Food", "name": "鸡蛋"}',
        _triple(1, "RecommendedFood", 2),
    ]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["export", "--seed", "1", "--graph", str(path), "--output-dir", str(out)]) == 3
    assert (f"export: {path}: node Disease '肝癌': attribute 'name' clashes with the node's name\n"
            in caplog.text)
    assert not any((out / name).exists() for name in ("graph.cypher", "nodes.csv", "rels.csv"))
