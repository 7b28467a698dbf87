"""Entity-level precision/recall/F1 with per-type breakdown.

Matching is strict: a predicted span counts as a true positive only when
its (type, start, end) triple is identical to a gold span in the same
sentence. Overall scores are micro-averaged over the summed counts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from emrkg.corpus import BioSentence, from_bio
from emrkg.errors import DataError


@dataclass
class EvalCounts:
    per_type: dict[str, list[int]] = field(default_factory=dict)  # type -> [TP, FP, FN]

    def bucket(self, etype: str) -> list[int]:
        return self.per_type.setdefault(etype, [0, 0, 0])

    @property
    def totals(self) -> tuple[int, int, int]:
        tp = sum(c[0] for c in self.per_type.values())
        fp = sum(c[1] for c in self.per_type.values())
        fn = sum(c[2] for c in self.per_type.values())
        return tp, fp, fn


@dataclass(frozen=True)
class TypeScores:
    precision: float
    recall: float
    f1: float
    undefined: bool = False  # set when TP+FP and TP+FN are both zero


@dataclass
class EvalReport:
    per_type: dict[str, TypeScores]
    micro: TypeScores


def count_matches(gold: list[BioSentence], predicted: list[BioSentence]) -> EvalCounts:
    """Strict span counting: TP identical triples, FP extra, FN missed."""
    if len(gold) != len(predicted):
        raise DataError(f"{len(gold)} gold vs {len(predicted)} predicted sentences")
    counts = EvalCounts()
    for i, (g, p) in enumerate(zip(gold, predicted)):
        if len(g) != len(p):
            raise DataError(f"sentence {i}: {len(g)} gold chars vs {len(p)} predicted")
        gold_spans = set(from_bio(g))
        pred_spans = set(from_bio(p))
        for etype, _, _ in gold_spans & pred_spans:
            counts.bucket(etype)[0] += 1
        for etype, _, _ in pred_spans - gold_spans:
            counts.bucket(etype)[1] += 1
        for etype, _, _ in gold_spans - pred_spans:
            counts.bucket(etype)[2] += 1
    return counts


def _scores(tp: int, fp: int, fn: int) -> TypeScores:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return TypeScores(precision, recall, f1, undefined=(tp + fp == 0 and tp + fn == 0))


def precision_recall_f1(counts: EvalCounts) -> EvalReport:
    per_type = {t: _scores(*c) for t, c in sorted(counts.per_type.items())}
    return EvalReport(per_type=per_type, micro=_scores(*counts.totals))


def _percent(value: float) -> str:
    scaled = value * 100.0
    if abs(scaled - round(scaled)) < 1e-9:
        return f"{round(scaled):d}%"
    return f"{scaled:.2f}%"


def report_table(report: EvalReport) -> str:
    """Aligned text table, one row per entity type plus a micro-average row."""
    rows = [("Entity Type", "Precision", "Recall", "F1")]
    for etype, s in report.per_type.items():
        rows.append((etype, _percent(s.precision), _percent(s.recall), _percent(s.f1)))
    if report.per_type:
        m = report.micro
        rows.append(("Overall", _percent(m.precision), _percent(m.recall), _percent(m.f1)))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows
    )


def report_dict(report: EvalReport) -> dict:
    """JSON-ready structure mirroring the table."""
    return asdict(report)
