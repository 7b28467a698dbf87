"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the seed and the size arguments:
the same seed writes byte-identical files. Nothing generated is committed;
the benchmark writes into a scratch directory it removes afterwards.

Two generators:

* ``write_emr_corpus``: long admission notes as standoff ``.txt``/``.ann``
  pairs, with spans from all seven entity types.
* ``write_kb_scale``: a large ``kb/1`` knowledge base whose disease names
  are composed from clinical morphemes (so n-grams are shared the way real
  names share them), plus an ``entities/1`` file of patient records whose
  Disease mentions are noisy surface variants of those names.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

# -- morpheme pools ----------------------------------------------------

MODIFIERS = (
    "急性", "慢性", "原发性", "继发性", "复发性", "先天性", "获得性", "特发性",
    "遗传性", "感染性", "过敏性", "病毒性", "细菌性", "真菌性", "结核性", "化脓性",
    "出血性", "缺血性", "梗阻性", "萎缩性", "增生性", "糜烂性", "反流性", "溃疡性",
    "酒精性", "药物性", "自身免疫性", "良性", "恶性", "弥漫性", "局限性", "多发性",
    "单纯性", "重症", "老年性", "小儿", "妊娠期", "产后", "术后", "外伤性",
    "放射性", "间质性", "阻塞性", "非典型", "家族性", "结节性", "囊性", "钙化性",
    "坏死性", "硬化性", "中毒性", "代谢性", "营养性", "退行性", "神经源性", "血管性",
)
BODY_PARTS = (
    "肝", "肺", "胃", "肾", "心", "脑", "肠", "胆", "胰", "脾", "甲状腺", "乳腺",
    "前列腺", "食管", "十二指肠", "结肠", "直肠", "膀胱", "子宫", "卵巢", "骨",
    "关节", "皮肤", "眼", "耳", "鼻", "咽", "喉", "支气管", "血管", "冠状动脉",
    "颈椎", "腰椎", "神经", "淋巴结", "口腔", "牙周", "角膜", "视网膜", "鼻窦",
    "扁桃体", "盆腔", "腹膜", "心肌", "心包", "胸膜", "气管", "输尿管", "尿道",
    "睾丸", "宫颈", "肾上腺", "垂体", "骨髓", "滑膜", "肌腱", "韧带", "脊髓",
    "三叉神经", "面神经", "坐骨神经", "主动脉", "门静脉", "胆管", "胆囊", "阑尾",
    "腮腺", "声带", "会厌", "结膜", "虹膜", "晶状体", "中耳", "内耳", "股骨头",
)
DISEASE_HEADS = (
    "炎", "癌", "肿瘤", "囊肿", "结石", "息肉", "硬化", "纤维化", "功能不全",
    "功能衰竭", "出血", "梗死", "栓塞", "狭窄", "扩张症", "增生", "萎缩", "溃疡",
    "脓肿", "结核", "损伤", "骨折", "畸形", "病", "综合征", "动脉瘤", "腺瘤",
    "淋巴瘤", "肉瘤", "积液", "水肿", "穿孔", "破裂", "脱垂", "疝", "瘘", "感染",
    "神经痛", "麻痹", "痉挛", "功能亢进", "功能减退", "钙化", "坏死", "黏连",
)
# ASCII-bearing prefixes, so full-width surface variants have something to fold.
ASCII_PREFIXES = (
    "2型", "1型", "IgA", "HIV", "HPV", "EB病毒", "I型", "II型", "III型", "B族",
    "ANCA相关", "HBV相关", "COPD", "ST段抬高型", "T细胞", "NK细胞",
)
SYMPTOMS = (
    "腹痛", "乏力", "发热", "咳嗽", "咳痰", "胸闷", "气促", "头晕", "头痛", "恶心",
    "呕吐", "腹胀", "腹泻", "便秘", "纳差", "消瘦", "盗汗", "心悸", "黄疸", "皮疹",
    "关节痛", "腰痛", "尿频", "尿急", "尿痛", "血尿", "黑便", "呕血", "咯血", "声音嘶哑",
    "吞咽困难", "视物模糊", "耳鸣", "失眠", "肢体麻木", "抽搐", "胸痛", "背痛", "食欲不振",
)
SYMPTOM_SUFFIXES = ("疼痛", "不适", "肿胀", "麻木", "隐痛", "胀痛", "刺痛", "酸痛")
BODY_CHECKS = (
    "腹部压痛", "肝区叩击痛", "双肺呼吸音粗", "心律齐", "肠鸣音活跃", "巩膜黄染",
    "浅表淋巴结肿大", "颈软", "双下肢水肿", "反跳痛", "墨菲征阳性", "移动性浊音",
    "桶状胸", "杵状指", "肾区叩击痛", "甲状腺肿大", "眼睑水肿", "口唇发绀",
)
CHECK_HEADS = (
    "血常规", "尿常规", "便常规", "肝功能", "肾功能", "心电图", "甲胎蛋白", "癌胚抗原",
    "胃镜", "肠镜", "血糖", "糖化血红蛋白", "血脂", "凝血功能", "肿瘤标志物", "骨密度",
    "电解质", "心肌酶", "血气分析", "降钙素原",
)
CHECK_MODALITIES = ("CT", "MRI", "B超", "增强CT", "造影", "活检", "彩超", "X线")
CONDITIONS = (
    "神志清楚", "精神可", "睡眠差", "饮食可", "二便正常", "体重下降", "精神萎靡",
    "吸烟史", "饮酒史", "过敏史", "家族史", "高血压病史", "糖尿病史", "手术史",
)
TREATMENTS = (
    "抗感染治疗", "补液治疗", "化疗", "放疗", "靶向治疗", "介入治疗", "抗凝治疗",
    "降压治疗", "胰岛素治疗", "保肝治疗", "抑酸治疗", "营养支持", "抗病毒治疗",
    "免疫治疗", "止痛治疗", "利尿治疗", "激素治疗", "雾化治疗", "输血治疗", "抗凝治疗",
)
OPERATION_HEADS = (
    "切除术", "修补术", "置换术", "引流术", "成形术", "移植术", "活检术", "造瘘术",
    "吻合术", "支架植入术", "消融术", "部分切除术",
)
FOODS = (
    "鸡蛋", "鱼类", "牛奶", "豆腐", "菠菜", "胡萝卜", "苹果", "香蕉", "燕麦", "小米",
    "瘦肉", "鸡肉", "虾", "海带", "木耳", "山药", "南瓜", "西红柿", "黄瓜", "芹菜",
    "辣椒", "酒", "咖啡", "浓茶", "肥肉", "油炸食品", "腌制食品", "烧烤", "甜食", "海鲜",
    "羊肉", "狗肉", "生蒜", "韭菜", "花生", "核桃", "红枣", "枸杞", "绿豆", "薏米",
)
DEPARTMENTS = (
    "内科", "外科", "消化内科", "呼吸内科", "心内科", "神经内科", "肾内科", "内分泌科",
    "肿瘤科", "肝胆外科", "胃肠外科", "骨科", "泌尿外科", "妇科", "产科", "儿科",
    "眼科", "耳鼻喉科", "口腔科", "皮肤科", "感染科", "血液科", "风湿免疫科", "急诊科",
    "心胸外科", "神经外科", "康复科", "中医科", "老年科", "精神科",
)
DRUG_STEMS = (
    "阿莫西", "头孢", "左氧氟", "奥美", "兰索", "硝苯", "氨氯", "美托", "阿托伐",
    "二甲", "格列", "胰岛", "地塞", "泼尼", "布洛", "对乙酰", "索拉", "吉非", "顺铂",
    "紫杉", "利巴", "恩替", "替诺", "甲氨", "环磷", "华法", "氯吡", "呋塞", "螺内",
)
DRUG_ENDINGS = ("林", "沙星", "拉唑", "地平", "洛尔", "他汀", "双胍", "尼", "松", "芬", "韦", "素", "片", "胶囊")
EXAMS = (
    "甲胎蛋白", "腹部CT", "胸部CT", "头颅MRI", "心电图", "胃镜", "肠镜", "肝功能",
    "肾功能", "血常规", "尿常规", "骨扫描", "PET-CT", "B超", "彩色多普勒", "肺功能",
    "血气分析", "骨髓穿刺", "腰椎穿刺", "病理活检", "冠脉造影", "动态心电图", "内镜超声",
)
# Characters used to substitute one character of a name.
SUBSTITUTES = "性症病炎变损伤热寒急慢发复原继部区位状型期级度重轻先后中外内上下左右前"
SUFFIX_NOISE = ("待查", "可能", "病史", "复发", "术后", "（待排）", "？", "待排")
FULLWIDTH_OFFSET = 0xFEE0

ENTITY_TYPES = ("Disease", "BodyCheck", "Symptom", "Condition", "Check", "Treatment", "Operation")


def to_fullwidth(text: str) -> str:
    """Fold printable ASCII to its full-width form (the reverse of the
    graph's name normalization)."""
    return "".join(chr(ord(c) + FULLWIDTH_OFFSET) if "!" <= c <= "~" else c for c in text)


def wide_pool(rng: random.Random, size: int = 1500) -> str:
    """``size`` distinct characters from the CJK Unified Ideographs block."""
    return "".join(chr(c) for c in rng.sample(range(0x4E00, 0x9FA6), size))


def disease_names(rng: random.Random, count: int, pool: str) -> list[str]:
    """``count`` distinct disease names. Most carry a two- or three-character
    qualifier from ``pool`` (an eponym or pathogen, say), which is what
    spreads the n-gram vocabulary; about one in eight is ASCII-prefixed."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = rng.choice(BODY_PARTS) + rng.choice(DISEASE_HEADS)
        if rng.random() < 0.6:
            name = "".join(rng.choice(pool) for _ in range(rng.randint(2, 3))) + name
        roll = rng.random()
        if roll < 0.45:
            name = rng.choice(MODIFIERS) + name
        elif roll < 0.58:
            name = rng.choice(ASCII_PREFIXES) + name
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def variant(rng: random.Random, name: str, kind: str) -> str:
    """One noisy surface of ``name``: ``drop`` a character, ``substitute``
    one, add a ``suffix``, or write its ASCII ``fullwidth``."""
    if kind == "drop":
        i = rng.randrange(len(name))
        return name[:i] + name[i + 1 :]
    if kind == "substitute":
        i = rng.randrange(len(name))
        return name[:i] + rng.choice(SUBSTITUTES.replace(name[i], "")) + name[i + 1 :]
    if kind == "suffix":
        return name + rng.choice(SUFFIX_NOISE)
    if kind == "fullwidth":
        return to_fullwidth(name)
    raise ValueError(f"unknown variant kind {kind!r}")


def _has_ascii(name: str) -> bool:
    return any("!" <= c <= "~" for c in name)


def surface_pools(rng: random.Random, diseases: list[str]) -> dict[str, list[str]]:
    """Per-type surface pools for the clinical notes."""
    return {
        "Disease": diseases,
        "Symptom": list(SYMPTOMS) + sorted({
            rng.choice(BODY_PARTS) + rng.choice(SYMPTOM_SUFFIXES) for _ in range(40)
        }),
        "BodyCheck": list(BODY_CHECKS),
        "Check": list(CHECK_HEADS) + sorted({
            rng.choice(BODY_PARTS) + rng.choice(CHECK_MODALITIES) for _ in range(30)
        }),
        "Condition": list(CONDITIONS),
        "Treatment": list(TREATMENTS),
        "Operation": sorted({
            rng.choice(BODY_PARTS) + rng.choice(OPERATION_HEADS) for _ in range(40)
        }),
    }


# Sentence templates: literal text with ``{Type}`` slots; ``{n}`` is a number.
NOTE_TEMPLATES = (
    "患者因{Symptom}{n}天入院。",
    "患者{n}天前无明显诱因出现{Symptom}，伴{Symptom}。",
    "既往有{Condition}，否认{Disease}病史。",
    "查体：{BodyCheck}，{BodyCheck}。",
    "入院后行{Check}示{Disease}可能；",
    "{Check}提示{Disease}。",
    "诊断为{Disease}，予{Treatment}。",
    "于入院第{n}天行{Operation}，术后予{Treatment}。",
    "复查{Check}，结果较前好转。",
    "患者{Condition}，{Condition}。",
    "考虑{Disease}合并{Disease}，请{n}科会诊。",
    "出院诊断：{Disease}；{Disease}。",
    "予{Treatment}及{Treatment}后{Symptom}缓解。",
    "门诊{Check}及{Check}未见明显异常。",
)


def _fill(rng: random.Random, template: str, pools: dict[str, list[str]]) -> tuple[str, list[tuple[str, int, int]]]:
    text = ""
    spans: list[tuple[str, int, int]] = []
    rest = template
    while rest:
        open_at = rest.find("{")
        if open_at < 0:
            text += rest
            break
        text += rest[:open_at]
        close_at = rest.index("}", open_at)
        slot = rest[open_at + 1 : close_at]
        rest = rest[close_at + 1 :]
        if slot == "n":
            text += str(rng.randint(1, 30))
        else:
            surface = rng.choice(pools[slot])
            spans.append((slot, len(text), len(text) + len(surface)))
            text += surface
    return text, spans


def write_emr_corpus(out_dir: Path, seed: int, lengths: list[int], kb_names: list[str]) -> dict:
    """One standoff document per entry of ``lengths`` (target chars, in a
    seeded order). Disease mentions draw on ``kb_names``, their noisy
    variants and composed names. Returns the input statistics."""
    rng = random.Random(f"emr:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    diseases = list(kb_names) + disease_names(rng, 60, wide_pool(rng, 60))
    diseases += [variant(rng, name, rng.choice(("drop", "suffix", "substitute"))) for name in kb_names]
    pools = surface_pools(rng, diseases)
    order = list(lengths)
    rng.shuffle(order)
    chars = 0
    spans_per_doc = []
    for number, target in enumerate(order, start=1):
        text = ""
        spans: list[tuple[str, int, int]] = []
        while len(text) < target:
            sentence, local = _fill(rng, rng.choice(NOTE_TEMPLATES), pools)
            spans.extend((label, len(text) + s, len(text) + e) for label, s, e in local)
            text += sentence
            if rng.random() < 0.15:
                text += "\n"
        doc_id = f"note{number:04d}"
        (out_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        lines = [
            f"T{i}\t{label} {start} {end}\t{text[start:end]}"
            for i, (label, start, end) in enumerate(spans, start=1)
        ]
        (out_dir / f"{doc_id}.ann").write_text("\n".join(lines) + "\n", encoding="utf-8")
        chars += len(text)
        spans_per_doc.append(len(spans))
    return {
        "docs": len(order),
        "chars": chars,
        "spans_per_doc_mean": sum(spans_per_doc) / len(spans_per_doc),
        "spans_per_doc_min": min(spans_per_doc),
        "spans_per_doc_max": max(spans_per_doc),
        "span_types": len(ENTITY_TYPES),
    }


def _drugs(rng: random.Random, count: int) -> list[str]:
    return sorted({rng.choice(DRUG_STEMS) + rng.choice(DRUG_ENDINGS) for _ in range(count)})


def write_kb_scale(
    out_dir: Path, seed: int, n_names: int, n_varied: int, n_patients: int
) -> dict:
    """Write ``kb.jsonl`` (``n_names`` diseases), ``entities.jsonl``
    (``n_patients`` records) and return the input statistics.

    ``n_varied`` diseases get two noisy surface variants each; patient
    Disease mentions are mostly those variants, the rest exact names."""
    rng = random.Random(f"kb:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    names = disease_names(rng, n_names, wide_pool(rng))
    name_set = set(names)
    drugs = _drugs(rng, 300)
    pools = surface_pools(rng, names)

    lines = [json.dumps({"schema": "kb/1"})]
    triples = 0
    for name in names:
        relations = {
            "RecommendedFood": rng.sample(FOODS, rng.randint(1, 3)),
            "AvoidFood": rng.sample(FOODS, rng.randint(1, 2)),
            "BelongsToDepartment": rng.sample(DEPARTMENTS, 1),
            "CommonDrug": rng.sample(drugs, rng.randint(1, 3)),
            "DiagnosticCheck": rng.sample(EXAMS, rng.randint(1, 3)),
            "HasSymptom": rng.sample(pools["Symptom"], rng.randint(2, 4)),
            "Complication": [c for c in rng.sample(names, rng.randint(0, 2)) if c != name],
            "RelatedDepartment": rng.sample(DEPARTMENTS, rng.randint(0, 1)),
        }
        relations = {rel: sorted(set(targets)) for rel, targets in relations.items() if targets}
        triples += sum(len(t) for t in relations.values())
        lines.append(json.dumps({
            "name": name,
            "description": f"{name}是一种常见疾病",
            "cure_time": f"{rng.randint(1, 12)}个月",
            "treatments": rng.sample(TREATMENTS, rng.randint(1, 2)),
            "relations": relations,
        }, ensure_ascii=False, sort_keys=True))
    (out_dir / "kb.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    varied = rng.sample(names, n_varied)
    surfaces: list[str] = []
    seen = set(name_set)
    for name in varied:
        kinds = ["drop", "substitute", "suffix"]
        if _has_ascii(name):
            kinds.append("fullwidth")
        for kind in rng.sample(kinds, 2):
            surface = variant(rng, name, kind)
            if len(surface) >= 2 and surface not in seen:
                seen.add(surface)
                surfaces.append(surface)

    other_types = [t for t in ENTITY_TYPES if t != "Disease"]
    lines = [json.dumps({"schema": "entities/1"})]
    mentions: Counter[str] = Counter()
    patient_triples = 0
    for number in range(1, n_patients + 1):
        entities = []
        for _ in range(rng.randint(1, 3)):
            disease = rng.choice(surfaces) if rng.random() < 0.8 else rng.choice(varied)
            entities.append(["Disease", disease])
        for _ in range(rng.randint(2, 5)):
            label = rng.choice(other_types)
            entities.append([label, rng.choice(pools[label])])
        unique = {tuple(e) for e in entities}
        patient_triples += len(unique)
        mentions.update({surface for label, surface in unique if label == "Disease" and surface not in name_set})
        lines.append(json.dumps({"doc_id": f"P{number:06d}", "entities": entities}, ensure_ascii=False))
    (out_dir / "entities.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    ngram_vocab = {name[i : i + n] for name in names for n in (1, 2) for i in range(len(name) - n + 1)}
    return {
        "kb_names": n_names,
        "ngram_vocab": len(ngram_vocab),
        "kb_triples": triples,
        "variant_surfaces": len(surfaces),
        "patients": n_patients,
        "patient_triples": patient_triples,
        "mean_patients_per_variant_surface": sum(mentions.values()) / max(1, len(mentions)),
    }
