#!/usr/bin/env python3
"""Regenerate the bundled test fixtures.

Outputs (all deterministic, no timestamps):
  fixtures/corpus/          50 one-sentence annotated documents (.txt/.ann)
  fixtures/derm/            train/validation BIO files with disjoint entity
                            surfaces plus the union dictionary
  fixtures/kb_small.jsonl   five-disease knowledge base
  fixtures/pipeline.json    configuration for the end-to-end pipeline

The corpus templates cover all seven span types. The derm corpus holds
every validation surface out of the training text while keeping it in the
dictionary, so replacement augmentation is the only way the tagger can
see those surfaces during training.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from emrkg.corpus import AnnotatedDocument, BioSentence, EntitySpan, segment, write_bio_file
from emrkg.derm import EntityDictionary, write_dictionary_file
from emrkg.schema import EntitySchema

FIXTURES = ROOT / "fixtures"


def build_sentence(parts: list[tuple[str, str | None]]) -> tuple[str, list[tuple[str, str, int, int]]]:
    """Assemble text from (chunk, label-or-None) parts, tracking offsets."""
    text = ""
    spans = []
    for chunk, label in parts:
        if label is not None:
            spans.append((label, chunk, len(text), len(text) + len(chunk)))
        text += chunk
    return text, spans


# -- annotated corpus ------------------------------------------------------

DISEASES = ["肝癌", "肝硬化", "乙型肝炎", "原发性肝细胞癌", "胆管细胞癌", "脂肪肝"]
SYMPTOMS = ["腹痛", "乏力", "恶心", "黄疸", "腹胀", "食欲不振"]
CHECKS = ["甲胎蛋白", "肝功能", "血常规", "彩超"]
BODY_CHECKS = ["腹部压痛", "巩膜黄染", "肝区叩击痛"]
CONDITIONS = ["神志清楚", "精神可", "睡眠差"]
TREATMENTS = ["保肝治疗", "抗病毒治疗", "化疗"]
OPERATIONS = ["肝叶切除术", "射频消融术", "介入手术"]


def corpus_sentences() -> list[list[tuple[str, str | None]]]:
    sentences: list[list[tuple[str, str | None]]] = []
    for disease in DISEASES:
        sentences.append([("患者诊断为", None), (disease, "Disease"), ("。", None)])
        sentences.append([("既往有", None), (disease, "Disease"), ("病史。", None)])
    for symptom in SYMPTOMS:
        sentences.append([("入院前出现", None), (symptom, "Symptom"), ("。", None)])
        sentences.append([("自述", None), (symptom, "Symptom"), ("逐渐加重。", None)])
    for check in CHECKS:
        sentences.append([("辅助检查示", None), (check, "Check"), ("异常。", None)])
        sentences.append([("复查", None), (check, "Check"), ("未见异常。", None)])
    for body_check in BODY_CHECKS:
        sentences.append([("查体见", None), (body_check, "BodyCheck"), ("。", None)])
    for condition in CONDITIONS:
        sentences.append([("入院时", None), (condition, "Condition"), ("。", None)])
    for treatment in TREATMENTS:
        sentences.append([("给予", None), (treatment, "Treatment"), ("。", None)])
    for operation in OPERATIONS:
        sentences.append([("行", None), (operation, "Operation"), ("治疗。", None)])
    for operation in OPERATIONS[:2]:
        sentences.append([("术式为", None), (operation, "Operation"), ("。", None)])
    # two-entity sentences to round out fifty
    sentences.append([
        ("患者因", None), ("腹痛", "Symptom"), ("就诊，发现", None), ("肝癌", "Disease"), ("。", None),
    ])
    sentences.append([
        ("确诊", None), ("肝硬化", "Disease"), ("后行", None), ("介入手术", "Operation"), ("。", None),
    ])
    sentences.append([
        ("伴", None), ("乏力", "Symptom"), ("及", None), ("黄疸", "Symptom"), ("。", None),
    ])
    sentences.append([
        ("复查", None), ("甲胎蛋白", "Check"), ("提示", None), ("肝癌", "Disease"), ("复发。", None),
    ])
    return sentences


def write_corpus() -> None:
    corpus_dir = FIXTURES / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for stale in list(corpus_dir.glob("*.txt")) + list(corpus_dir.glob("*.ann")):
        stale.unlink()
    sentences = corpus_sentences()
    assert len(sentences) == 50, f"expected 50 sentences, built {len(sentences)}"
    schema = EntitySchema()
    for i, parts in enumerate(sentences, start=1):
        text, spans = build_sentence(parts)
        assert len(text) <= 50, f"sentence {i} exceeds the wrap length: {text}"
        doc = f"doc{i:02d}"
        (corpus_dir / f"{doc}.txt").write_text(text, encoding="utf-8")
        ann_lines = [
            f"T{j}\t{label} {start} {end}\t{surface}"
            for j, (label, surface, start, end) in enumerate(spans, start=1)
        ]
        (corpus_dir / f"{doc}.ann").write_text(
            "".join(line + "\n" for line in ann_lines), encoding="utf-8"
        )
        for label, surface, start, end in spans:
            assert text[start:end] == surface
            assert label in schema.entity_types


# -- derm benefit corpus ---------------------------------------------------

TRAIN_DISEASES = ["肝癌", "肺炎", "胃溃疡", "糖尿病", "高血压", "冠心病", "脑梗死", "肾结石"]
HELD_OUT_DISEASES = ["白血病", "哮喘", "肠息肉", "甲亢", "贫血", "胰腺炎", "抑郁症", "骨质疏松"]
TRAIN_SYMPTOMS = ["腹痛", "乏力", "恶心", "呕吐", "头晕", "咳嗽", "发热", "水肿"]
HELD_OUT_SYMPTOMS = ["心悸", "盗汗", "耳鸣", "失眠", "便血", "胸闷", "麻木", "瘙痒"]

DISEASE_TEMPLATES = [
    ("入院后诊断为", "。"),
    ("既往有", "病史。"),
    ("复查提示", "复发。"),
    ("初步考虑", "可能。"),
]
SYMPTOM_TEMPLATES = [
    ("患者因", "入院。"),
    ("主诉", "三天。"),
    ("近日出现", "。"),
    ("伴有明显", "。"),
]


def derm_sentence(prefix: str, surface: str, label: str, suffix: str) -> BioSentence:
    text, spans = build_sentence([(prefix, None), (surface, label), (suffix, None)])
    doc = AnnotatedDocument("d", text, [
        EntitySpan("T1", label, start, end, surf) for label, surf, start, end in spans
    ])
    sentences = segment(doc)
    assert len(sentences) == 1
    return sentences[0]


def write_derm_corpus() -> None:
    derm_dir = FIXTURES / "derm"
    derm_dir.mkdir(parents=True, exist_ok=True)
    train: list[BioSentence] = []
    validation: list[BioSentence] = []
    for i, name in enumerate(TRAIN_DISEASES):
        for j in (0, 1, 2):
            prefix, suffix = DISEASE_TEMPLATES[(i + j) % len(DISEASE_TEMPLATES)]
            train.append(derm_sentence(prefix, name, "Disease", suffix))
    for i, name in enumerate(TRAIN_SYMPTOMS):
        for j in (0, 1, 2):
            prefix, suffix = SYMPTOM_TEMPLATES[(i + j) % len(SYMPTOM_TEMPLATES)]
            train.append(derm_sentence(prefix, name, "Symptom", suffix))
    for i, name in enumerate(HELD_OUT_DISEASES):
        prefix, suffix = DISEASE_TEMPLATES[i % len(DISEASE_TEMPLATES)]
        validation.append(derm_sentence(prefix, name, "Disease", suffix))
    for i, name in enumerate(HELD_OUT_SYMPTOMS):
        prefix, suffix = SYMPTOM_TEMPLATES[i % len(SYMPTOM_TEMPLATES)]
        validation.append(derm_sentence(prefix, name, "Symptom", suffix))

    write_bio_file(train, derm_dir / "train.bio")
    write_bio_file(validation, derm_dir / "validation.bio")
    dictionary = EntityDictionary({
        "Disease": tuple(TRAIN_DISEASES + HELD_OUT_DISEASES),
        "Symptom": tuple(TRAIN_SYMPTOMS + HELD_OUT_SYMPTOMS),
    })
    write_dictionary_file(dictionary, derm_dir / "dictionary.tsv")


# -- knowledge base --------------------------------------------------------


def write_kb() -> None:
    entries = [
        {
            "name": "肝癌",
            "description": "起源于肝脏的恶性肿瘤",
            "prevention": "接种乙肝疫苗，避免霉变食物",
            "cure_time": "视分期而定",
            "treatments": ["手术切除", "介入治疗", "靶向治疗"],
            "cause": "乙型肝炎病毒感染、肝硬化等",
            "relations": {
                "RecommendedFood": ["鸡蛋", "鱼类"],
                "AvoidFood": ["辣椒", "酒"],
                "BelongsToDepartment": ["肿瘤科"],
                "CommonDrug": ["索拉非尼"],
                "DiagnosticCheck": ["甲胎蛋白", "腹部CT"],
                "HasSymptom": ["腹痛", "乏力"],
                "Complication": ["肝硬化", "上消化道出血"],
                "RelatedDepartment": ["肝胆外科"],
            },
        },
        {
            "name": "原发性肝细胞癌",
            "description": "最常见的原发性肝脏恶性肿瘤",
            "relations": {
                "RecommendedFood": ["鱼类"],
                "BelongsToDepartment": ["肿瘤科"],
                "DiagnosticCheck": ["甲胎蛋白"],
                "Complication": ["肝硬化"],
            },
        },
        {
            "name": "肝硬化",
            "description": "慢性进行性肝病",
            "relations": {
                "BelongsToDepartment": ["消化内科"],
                "HasSymptom": ["腹水", "乏力"],
                "Complication": ["上消化道出血"],
                "CommonDrug": ["呋塞米"],
            },
        },
        {
            "name": "胆管细胞癌",
            "description": "起源于胆管上皮的恶性肿瘤",
            "relations": {
                "BelongsToDepartment": ["肝胆外科"],
                "DiagnosticCheck": ["腹部CT"],
            },
        },
        {
            "name": "乙型肝炎",
            "description": "乙型肝炎病毒引起的传染病",
            "relations": {
                "BelongsToDepartment": ["感染科"],
                "CommonDrug": ["恩替卡韦"],
                "HasSymptom": ["乏力", "食欲不振"],
                "Complication": ["肝硬化"],
            },
        },
    ]
    lines = [json.dumps({"schema": "kb/1"})]
    lines += [json.dumps(entry, ensure_ascii=False) for entry in entries]
    (FIXTURES / "kb_small.jsonl").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )


def write_pipeline_config() -> None:
    config = {
        "seed": 20240811,
        "corpus_dir": "fixtures/corpus",
        "kb_file": "fixtures/kb_small.jsonl",
        "output_dir": "out",
        "max_len": 50,
        "derm": {"p_replace": 0.3, "p_mask": 0.3, "p_noop": 0.4},
        "train": {
            "batch_size": 10,
            "epochs": 15,
            "learning_rate": 0.2,
            "hidden": 24,
            "d_emb": 16,
            "momentum": 0.9,
            "derm_enabled": True,
            "gradient_clip": 5.0,
        },
        "fusion": {"threshold": 0.8, "ngram_orders": [1, 2]},
    }
    (FIXTURES / "pipeline.json").write_text(
        json.dumps(config, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    write_corpus()
    write_derm_corpus()
    write_kb()
    write_pipeline_config()
    print(f"fixtures written under {FIXTURES}")


if __name__ == "__main__":
    main()
