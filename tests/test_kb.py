"""Knowledge-base file loading, merging, catalogs and triple extraction."""

from __future__ import annotations

import json
import random
import re

import pytest

from emrkg.errors import DataError
from emrkg.graph import KnowledgeGraph
from emrkg.kb import (
    SCHEMA_TAG,
    DiseaseEntry,
    kb_into_graph,
    load_kb,
)
from emrkg.schema import KB_RELATIONS
from tests.oracles import kb_into_graph_by_upserts
from tests.support import graph_state, kb_to_triples


def write_kb(path, records) -> None:
    lines = [json.dumps({"schema": SCHEMA_TAG}, ensure_ascii=False)]
    lines += [json.dumps(r, ensure_ascii=False) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- fixture file ----------------------------------------------------------


def test_fixture_kb_loads_five_diseases(kb_file):
    entries, catalogs = load_kb(kb_file)
    assert [e.name for e in entries] == [
        "肝癌", "原发性肝细胞癌", "肝硬化", "胆管细胞癌", "乙型肝炎",
    ]
    assert catalogs.disease == tuple(sorted({
        "肝癌", "原发性肝细胞癌", "肝硬化", "胆管细胞癌", "乙型肝炎",
        "上消化道出血",  # complication targets are diseases too
    }))
    assert "鸡蛋" in catalogs.food
    assert "肿瘤科" in catalogs.department
    assert "索拉非尼" in catalogs.drug
    assert "甲胎蛋白" in catalogs.examination
    assert "腹痛" in catalogs.symptom


def test_fixture_kb_triples_cover_every_relation_instance(kb_file):
    entries, _ = load_kb(kb_file)
    triples = kb_to_triples(entries)
    assert ("肝癌", "RecommendedFood", "鸡蛋") in triples
    assert ("肝癌", "Complication", "上消化道出血") in triples
    assert ("乙型肝炎", "CommonDrug", "恩替卡韦") in triples
    assert len(triples) == sum(len(e.relations) for e in entries)


# -- parsing ----------------------------------------------------------


def test_load_kb_parses_all_fields(tmp_path):
    path = tmp_path / "kb.jsonl"
    write_kb(path, [{
        "name": "肝癌",
        "description": "恶性肿瘤",
        "prevention": "接种疫苗",
        "cure_time": "视分期而定",
        "treatments": ["手术", "化疗"],
        "cause": "病毒感染",
        "relations": {"HasSymptom": ["腹痛"]},
    }])
    (entry,), catalogs = load_kb(path)
    assert entry.description == "恶性肿瘤"
    assert entry.treatments == ("手术", "化疗")
    assert entry.relations == (("HasSymptom", "腹痛"),)
    assert catalogs.symptom == ("腹痛",)


def test_load_kb_requires_schema_header(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text('{"name": "肝癌"}\n', encoding="utf-8")
    with pytest.raises(DataError, match=f'^{re.escape(str(path))}: line 1: expected the header '
                                        f'{{"schema": "kb/1"}}, got \'{{"name": "肝癌"}}\'$'):
        load_kb(path)


def test_load_kb_zero_byte_file_is_an_error_and_header_only_is_empty(tmp_path, caplog):
    """The header is required, as in every versioned JSON-lines file."""
    path = tmp_path / "kb.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match=f'^{re.escape(str(path))}: line 1: expected the header '
                                        f'{{"schema": "kb/1"}}, got an empty file$'):
        load_kb(path)
    write_kb(path, [])
    entries, catalogs = load_kb(path)
    assert entries == []
    assert catalogs.disease == ()
    assert "contains no disease records" in caplog.text


@pytest.mark.parametrize(
    "record, reason",
    [
        ({"description": "x"}, "missing or empty disease name"),
        ({"name": "肝癌", "treatments": "手术"}, "'treatments' must be a list of strings"),
        ({"name": "肝癌", "relations": []}, "'relations' must be an object"),
        ({"name": "肝癌", "relations": {"Causes": ["x"]}}, "unknown relation type 'Causes'"),
        ({"name": "肝癌", "relations": {"HasSymptom": [""]}},
         "targets of 'HasSymptom' must be non-empty strings"),
        ({"name": "肝癌", "description": 3}, "field 'description' must be a string"),
        ({"name": ""}, "missing or empty disease name"),
        ({"name": " "}, "missing or empty disease name"),
        ({"name": "\u3000"}, "missing or empty disease name"),
        ({"name": "肝癌", "relations": {"RecommendedFood": ["鸡蛋", " "]}},
         "targets of 'RecommendedFood' must be non-empty strings"),
        ({"name": "肝癌", "relations": {"HasSymptom": ["\u3000"]}},
         "targets of 'HasSymptom' must be non-empty strings"),
    ],
    # the case names the suite has always reported, then the blank names
    # and targets that reach no graph node
    ids=["record0-ParseError-line 2", "record1-ParseError-treatments",
         "record2-ParseError-relations", "record3-UnknownRelationType-Causes",
         "record4-ParseError-HasSymptom", "record5-ParseError-description",
         "empty-name", "space-name", "ideographic-space-name", "space-target",
         "ideographic-space-target"],
)
def test_load_kb_rejects_malformed_records(tmp_path, record, reason):
    path = tmp_path / "kb.jsonl"
    write_kb(path, [record])
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: line 2: {reason}')}$"):
        load_kb(path)


def test_load_kb_reports_invalid_json_with_line_number(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text('{"schema": "kb/1"}\n{broken\n', encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 2: truncated or invalid "
                                        "record: Expecting property name enclosed in double "
                                        "quotes$"):
        load_kb(path)


def test_duplicate_names_merge_scalars_last_and_union_lists(tmp_path):
    path = tmp_path / "kb.jsonl"
    write_kb(path, [
        {
            "name": "肝癌",
            "description": "旧描述",
            "treatments": ["手术"],
            "relations": {"HasSymptom": ["腹痛"]},
        },
        {
            "name": "肝癌",
            "description": "新描述",
            "treatments": ["手术", "化疗"],
            "relations": {"HasSymptom": ["腹痛", "乏力"]},
        },
    ])
    entries, _ = load_kb(path)
    assert len(entries) == 1
    entry = entries[0]
    assert entry.description == "新描述"
    assert entry.treatments == ("手术", "化疗")  # order-preserving union
    assert entry.relations == (("HasSymptom", "腹痛"), ("HasSymptom", "乏力"))


def test_merge_keeps_earlier_scalar_when_later_is_empty(tmp_path):
    path = tmp_path / "kb.jsonl"
    write_kb(path, [
        {"name": "肝癌", "description": "描述"},
        {"name": "肝癌", "cause": "病因"},
    ])
    (entry,), _ = load_kb(path)
    assert entry.description == "描述"
    assert entry.cause == "病因"


def test_shared_target_lands_once_per_catalog(tmp_path):
    path = tmp_path / "kb.jsonl"
    write_kb(path, [
        {"name": "肝癌", "relations": {"BelongsToDepartment": ["肿瘤科"], "RelatedDepartment": ["肿瘤科"]}},
        {"name": "肝硬化", "relations": {"BelongsToDepartment": ["肿瘤科"]}},
    ])
    _, catalogs = load_kb(path)
    assert catalogs.department == ("肿瘤科",)


# -- graph loading ----------------------------------------------------------


def test_kb_into_graph_creates_typed_nodes_and_triples(kb_file):
    entries, _ = load_kb(kb_file)
    graph = KnowledgeGraph()
    added = kb_into_graph(graph, entries)
    assert added == len(kb_to_triples(entries))
    assert len(graph.triples) == added

    liver = graph.find_node("Disease", "肝癌")
    assert liver is not None
    assert liver.attributes["description"] == "起源于肝脏的恶性肿瘤"
    assert liver.attributes["treatments"] == ["手术切除", "介入治疗", "靶向治疗"]

    foods = graph.pattern_query("Disease", "肝癌", "RecommendedFood")
    assert [n.name for n in foods] == sorted(["鸡蛋", "鱼类"])
    assert all(n.label == "Food" for n in foods)

    complications = graph.pattern_query("Disease", "肝癌", "Complication")
    assert all(n.label == "Disease" for n in complications)


def test_kb_into_graph_is_idempotent(kb_file):
    entries, _ = load_kb(kb_file)
    graph = KnowledgeGraph()
    kb_into_graph(graph, entries)
    nodes, triples = len(graph.nodes), len(graph.triples)
    assert kb_into_graph(graph, entries) == 0  # every triple already present
    assert (len(graph.nodes), len(graph.triples)) == (nodes, triples)


def test_kb_into_graph_matches_the_upsert_and_add_triple_loop():
    """Seeded KBs whose names repeat, differ in width only, or name a
    disease as another's complication give the ids, triples, their order
    and the count of the checked loop, and a whitespace-only target raises
    its message and leaves the graph as that loop leaves it."""
    names = ["肝癌", "ＨＢＶ", "HBV", " 肝炎", "腹痛", "鸡蛋", "内科", "CT"]
    outcomes = []
    for seed in range(60):
        rng = random.Random(seed)
        targets = names + ["\u3000", " \t"] * (seed % 2)
        entries = [DiseaseEntry(
            name=rng.choice(names), description=rng.choice(["", "恶性"]),
            treatments=tuple(rng.sample(["手术", "化疗"], rng.randint(0, 2))),
            relations=tuple((rng.choice(tuple(KB_RELATIONS)), rng.choice(targets))
                            for _ in range(rng.randint(0, 6))))
            for _ in range(rng.randint(1, 8))]
        tuned, reference = KnowledgeGraph(), KnowledgeGraph()
        for graph in (tuned, reference):  # an entry may reuse a node that is already in
            graph.upsert_node("Food", "鸡蛋")
        outcome = []
        for graph, insert in ((tuned, kb_into_graph), (reference, kb_into_graph_by_upserts)):
            try:
                outcome.append(insert(graph, entries))
            except DataError as exc:
                outcome.append(("raised", str(exc)))
        assert outcome[0] == outcome[1]
        assert graph_state(tuned) == graph_state(reference)
        tuned.validate()
        outcomes.append(outcome[0])
    raised = [o for o in outcomes if isinstance(o, tuple)]
    assert raised and set(raised) == {("raised", "node name must be non-empty")}
    assert len(raised) < len(outcomes)
