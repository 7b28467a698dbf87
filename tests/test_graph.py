"""Triple store: identity, typing, merge, queries, export, persistence."""

from __future__ import annotations

import csv
import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emrkg.cli import main
from emrkg.errors import DataError, InternalError
from emrkg.graph import (
    DanglingEndpoint,
    IoError,
    KnowledgeGraph,
    LabelUnknown,
    RelationTypeMismatch,
    SchemaVersionMismatch,
    add_patient_record,
    export_csv,
    export_cypher,
    load_graph,
    normalize_name,
    relation_identifier,
    save_graph,
)
from emrkg.schema import GRAPH_LABELS, RELATION_ENDPOINTS
from tests.oracles import (
    csv_by_sort,
    cypher_by_sort,
    normalize_name_by_loop,
    pattern_scan,
)
from tests.support import SEPARATOR_NAMES, triples_from, triples_to


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
    with pytest.raises(LabelUnknown):
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
    assert graph.add_triple(disease, "RecommendedFood", food) is True
    assert graph.add_triple(disease, "RecommendedFood", food) is False
    assert len(graph.triples) == 1


def test_add_triple_rejects_missing_endpoints_and_bad_types():
    graph = KnowledgeGraph()
    disease = graph.upsert_node("Disease", "肝癌")
    food = graph.upsert_node("Food", "鸡蛋")
    with pytest.raises(DanglingEndpoint):
        graph.add_triple(disease, "RecommendedFood", 999)
    with pytest.raises(RelationTypeMismatch):
        graph.add_triple(food, "RecommendedFood", disease)  # reversed endpoints
    with pytest.raises(RelationTypeMismatch):
        graph.add_triple(disease, "Causes", food)  # unknown relation


def test_every_declared_endpoint_pair_is_accepted():
    for relation, pairs in RELATION_ENDPOINTS.items():
        for head_label, tail_label in pairs:
            graph = KnowledgeGraph()
            head = graph.upsert_node(head_label, "甲")
            tail = graph.upsert_node(tail_label, "乙")
            assert graph.add_triple(head, relation, tail)
            graph.validate()


def test_has_symptom_links_both_diseases_and_patients():
    graph = KnowledgeGraph()
    symptom = graph.upsert_node("Symptom", "腹痛")
    disease = graph.upsert_node("Disease", "肝癌")
    patient = graph.upsert_node("Patient", "p1")
    assert graph.add_triple(disease, "HasSymptom", symptom)
    assert graph.add_triple(patient, "HasSymptom", symptom)
    with pytest.raises(RelationTypeMismatch):
        graph.add_triple(symptom, "HasSymptom", disease)


# -- merge ----------------------------------------------------------


def test_merge_repoints_incident_triples_and_drops_source():
    graph = KnowledgeGraph()
    patient = graph.upsert_node("Patient", "p1")
    source = graph.upsert_node("Disease", "原发肝癌")
    target = graph.upsert_node("Disease", "肝癌")
    complication = graph.upsert_node("Disease", "肝硬化")
    graph.add_triple(patient, "HasDisease", source)
    graph.add_triple(source, "Complication", complication)
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
    graph.add_triple(patient, "HasDisease", source)
    graph.add_triple(patient, "HasDisease", target)  # already points at target
    moved = graph.merge_node_into(source, target)
    assert moved == 0  # the re-pointed triple already existed
    assert len(graph.triples) == 1
    graph.validate()


def test_merge_handles_self_loops_between_source_and_target():
    graph = KnowledgeGraph()
    source = graph.upsert_node("Disease", "甲")
    target = graph.upsert_node("Disease", "乙")
    graph.add_triple(source, "Complication", target)
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
    graph.add_triple(disease, "AvoidFood", food)  # a Symptom may not avoid food
    graph.add_triple(disease, "HasSymptom", symptom)
    graph.add_triple(patient, "HasSymptom", symptom)
    before = (graph.triples, dict(graph.nodes), triples_from(graph, disease),
              triples_to(graph, symptom))
    with pytest.raises(RelationTypeMismatch, match="AvoidFood"):
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
    with pytest.raises(DanglingEndpoint):
        graph.merge_node_into(node, 42)


# -- queries ----------------------------------------------------------


def test_pattern_query_returns_sorted_tails_or_empty():
    graph = KnowledgeGraph()
    disease = graph.upsert_node("Disease", "肝癌")
    for food in ["鸡蛋", "鱼类", "豆腐"]:
        graph.add_triple(disease, "RecommendedFood", graph.upsert_node("Food", food))
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
        graph.add_triple(head, relation, tail)
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
    graph.add_triple(patient, "HasDisease", disease)
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


def test_add_patient_record_rejects_untyped_entities():
    graph = KnowledgeGraph()
    with pytest.raises(LabelUnknown):
        add_patient_record(graph, "p", [("Food", "鸡蛋")])  # no patient relation


def test_repeated_entity_mentions_collapse_to_one_triple():
    graph = KnowledgeGraph()
    add_patient_record(graph, "p", [("Symptom", "腹痛"), ("Symptom", "腹痛")])
    assert len(graph.triples) == 1


# -- export ----------------------------------------------------------


def test_relation_identifier_renders_upper_snake_case():
    assert relation_identifier("RecommendedFood") == "RECOMMENDED_FOOD"
    assert relation_identifier("HasSymptom") == "HAS_SYMPTOM"
    assert relation_identifier("BelongsToDepartment") == "BELONGS_TO_DEPARTMENT"


def test_export_cypher_emits_one_statement_per_node_and_triple(tmp_path):
    graph = KnowledgeGraph()
    disease = graph.upsert_node("Disease", "肝癌", {"description": "恶性"})
    food = graph.upsert_node("Food", "鸡蛋")
    graph.add_triple(disease, "RecommendedFood", food)
    path = tmp_path / "graph.cypher"
    assert export_cypher(graph, path) == 3
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
    export_cypher(graph, path)
    text = path.read_text(encoding="utf-8")
    assert "5\\'-核苷酸" in text
    assert "a\\\\b" in text


def test_export_is_canonical_across_insertion_orders(tmp_path):
    def build(order):
        graph = KnowledgeGraph()
        ids = {}
        for label, name in order:
            ids[(label, name)] = graph.upsert_node(label, name)
        graph.add_triple(ids[("Disease", "肝癌")], "RecommendedFood", ids[("Food", "鸡蛋")])
        return graph

    nodes = [("Disease", "肝癌"), ("Food", "鸡蛋"), ("Food", "鱼类")]
    first, second = build(nodes), build(list(reversed(nodes)))
    a, b = tmp_path / "a.cypher", tmp_path / "b.cypher"
    export_cypher(first, a)
    export_cypher(second, b)
    assert a.read_bytes() == b.read_bytes()

    export_csv(first, tmp_path / "an.csv", tmp_path / "ar.csv")
    export_csv(second, tmp_path / "bn.csv", tmp_path / "br.csv")
    assert (tmp_path / "an.csv").read_bytes() == (tmp_path / "bn.csv").read_bytes()
    assert (tmp_path / "ar.csv").read_bytes() == (tmp_path / "br.csv").read_bytes()


def test_export_csv_renumbers_ids_canonically(tmp_path):
    graph = KnowledgeGraph()
    food = graph.upsert_node("Food", "鸡蛋")  # inserted first, sorts after Disease
    disease = graph.upsert_node("Disease", "肝癌", {"cause": "病毒"})
    graph.add_triple(disease, "RecommendedFood", food)
    nodes_path, rels_path = tmp_path / "nodes.csv", tmp_path / "rels.csv"
    export_csv(graph, nodes_path, rels_path)

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
        graph.add_triple(ids[head], relation, ids[tail])
    return graph


def test_export_equals_the_sorted_oracle_for_every_insertion_order(tmp_path):
    rng = random.Random(29)
    for _ in range(15):
        spec = _random_spec(rng)
        outputs = set()
        for _ in range(3):
            graph = _build(spec, rng)
            count = export_cypher(graph, tmp_path / "graph.cypher")
            export_csv(graph, tmp_path / "nodes.csv", tmp_path / "rels.csv")
            got = tuple((tmp_path / name).read_bytes().decode("utf-8")
                        for name in ("graph.cypher", "nodes.csv", "rels.csv"))
            assert got == (cypher_by_sort(graph), *csv_by_sort(graph))
            assert count == len(graph.nodes) + len(graph.triples)
            outputs.add(got)
        assert len(outputs) == 1


# -- persistence ----------------------------------------------------------


def _sample_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph()
    disease = graph.upsert_node("Disease", "肝癌", {"description": "恶性", "aliases": ["肝恶性肿瘤"]})
    food = graph.upsert_node("Food", "鸡蛋")
    patient = graph.upsert_node("Patient", "p1")
    graph.add_triple(disease, "RecommendedFood", food)
    graph.add_triple(patient, "HasDisease", disease)
    return graph


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
        graph.add_triple(patient, "HasDisease", graph.upsert_node("Disease", name))
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


def test_load_graph_reads_each_line_as_json_loads_does(tmp_path):
    node = '{"kind": "node", "id": 1, "label": "Disease", "name": "肝癌"}'
    path = tmp_path / "graph.jsonl"
    path.write_text(f'{{"schema": "graph/1"}}\n \t{node} \n\n', encoding="utf-8")
    assert load_graph(path).find_node("Disease", "肝癌").id == 1
    paired = node.replace("肝癌", "\\ud83d\\ude00")  # one escaped astral character
    path.write_text(f'{{"schema": "graph/1"}}\n{paired}\n', encoding="utf-8")
    assert load_graph(path).find_node("Disease", "\U0001F600").id == 1
    for lines, message in [
        ([node + " " + node], "line 2: truncated or invalid record: Extra data"),
        ([node[:30], node[30:]], "line 2: truncated or invalid record"),  # one record, two lines
        (["[1]"], "line 2: record is not a JSON object"),
        ([node.replace('"肝癌"', '" "')], "line 2: malformed node record"),
        ([node.replace('"肝癌"', "5")], "line 2: malformed node record"),
        ([node[:-1] + ', "attributes": 5}'], "line 2: malformed node record"),
        ([node, '{"kind": "triple", "head": 1, "relation": ["Complication"], "tail": 1}'],
         "line 3: malformed triple record"),
        # a triple is type-checked where it is read, so the first bad record is reported
        (['{"kind": "triple", "head": 1, "relation": 5, "tail": 1}', node.replace('"肝癌"', "5")],
         "line 2: malformed triple record"),
        ([node.replace('"肝癌"', '"\\ud800x"')], "line 2: lone surrogate"),
    ]:
        path.write_text("\n".join(['{"schema": "graph/1"}'] + lines) + "\n", encoding="utf-8")
        with pytest.raises(IoError, match=f"{path}: {message}"):
            load_graph(path)


def test_load_graph_rejects_empty_and_unversioned_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        load_graph(empty)

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"kind": "node"}\n', encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        load_graph(headerless)


def test_load_graph_reports_truncated_records_with_position(tmp_path):
    graph = _sample_graph()
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]]) + "\n", encoding="utf-8")
    with pytest.raises(IoError, match="line 3"):
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
    with pytest.raises(IoError):
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
            graph.add_triple(disease, "RecommendedFood", food)
        for symptom in rng.sample(symptoms, 4):
            graph.add_triple(disease, "HasSymptom", symptom)
    for i in range(2000):
        patient = graph.upsert_node("Patient", f"patient-{i:04d}")
        for disease in rng.sample(diseases, 4):
            graph.add_triple(patient, "HasDisease", disease)
        for symptom in rng.sample(symptoms, 3):
            graph.add_triple(patient, "HasSymptom", symptom)
    return graph


def test_load_and_export_need_the_graph_plus_one_record(tmp_path):
    """Neither path holds a whole file: load keeps no decoded-record
    backlog, and export writes its triple statements as a stream."""
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
        export_cypher(loaded, tmp_path / "graph.cypher")
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
