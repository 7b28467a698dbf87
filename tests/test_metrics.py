"""Entity-level precision/recall/F1: counting, degenerate cases, formatting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emrkg.corpus import BioSentence
from emrkg.errors import DataError
from emrkg.metrics import (
    EvalCounts,
    count_matches,
    precision_recall_f1,
    report_dict,
    report_table,
)


def _counts(**per_type) -> EvalCounts:
    counts = EvalCounts()
    for etype, (tp, fp, fn) in per_type.items():
        counts.per_type[etype] = [tp, fp, fn]
    return counts


# -- counting ----------------------------------------------------------


def test_exact_span_match_counts_as_true_positive():
    gold = [BioSentence("肝癌伴腹痛", ("B-Disease", "I-Disease", "O", "B-Symptom", "I-Symptom"))]
    counts = count_matches(gold, gold)
    assert counts.per_type == {"Disease": [1, 0, 0], "Symptom": [1, 0, 0]}


def test_boundary_error_counts_false_positive_and_negative():
    gold = [BioSentence("肝癌晚期", ("B-Disease", "I-Disease", "O", "O"))]
    predicted = [BioSentence("肝癌晚期", ("B-Disease", "I-Disease", "I-Disease", "O"))]
    counts = count_matches(gold, predicted)
    assert counts.per_type == {"Disease": [0, 1, 1]}


def test_type_error_counts_against_both_types():
    gold = [BioSentence("腹痛", ("B-Symptom", "I-Symptom"))]
    predicted = [BioSentence("腹痛", ("B-Disease", "I-Disease"))]
    counts = count_matches(gold, predicted)
    assert counts.per_type == {"Disease": [0, 1, 0], "Symptom": [0, 0, 1]}


def test_count_matches_requires_parallel_corpora():
    sentence = BioSentence("无", ("O",))
    with pytest.raises(DataError, match="^1 gold vs 0 predicted sentences$"):
        count_matches([sentence], [])
    with pytest.raises(DataError, match="^sentence 0: 1 gold chars vs 2 predicted$"):
        count_matches([sentence], [BioSentence("无无", ("O", "O"))])


# -- scores ----------------------------------------------------------


def test_scores_follow_the_standard_definitions():
    report = precision_recall_f1(_counts(Disease=(3, 1, 0)))
    scores = report.per_type["Disease"]
    assert scores.precision == pytest.approx(0.75)
    assert scores.recall == pytest.approx(1.0)
    assert scores.f1 == pytest.approx(6 / 7)


def test_micro_average_pools_counts_across_types():
    report = precision_recall_f1(_counts(Disease=(3, 1, 0), Symptom=(1, 1, 2)))
    assert report.micro.precision == pytest.approx(4 / 6)
    assert report.micro.recall == pytest.approx(4 / 6)
    assert report.micro.f1 == pytest.approx(4 / 6)


def test_zero_over_zero_cases_score_zero():
    report = precision_recall_f1(_counts(Disease=(0, 0, 0)))
    scores = report.per_type["Disease"]
    assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)
    assert scores.undefined

    nothing_predicted = precision_recall_f1(_counts(Disease=(0, 0, 5))).per_type["Disease"]
    assert nothing_predicted.precision == 0.0
    assert nothing_predicted.recall == 0.0
    assert not nothing_predicted.undefined

    nothing_gold = precision_recall_f1(_counts(Disease=(0, 4, 0))).per_type["Disease"]
    assert nothing_gold.precision == 0.0
    assert not nothing_gold.undefined


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 500),
    st.integers(0, 500),
    st.integers(0, 500),
)
def test_f1_is_the_harmonic_mean_between_precision_and_recall(tp, fp, fn):
    scores = precision_recall_f1(_counts(T=(tp, fp, fn))).per_type["T"]
    p, r, f1 = scores.precision, scores.recall, scores.f1
    assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0
    if p + r == 0:
        assert f1 == 0.0
    else:
        assert f1 == pytest.approx(2 * p * r / (p + r))
        assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12
        assert f1 <= (p + r) / 2 + 1e-12  # harmonic <= arithmetic
        assert f1 <= np.sqrt(p * r) + 1e-12  # harmonic <= geometric


# -- reporting ----------------------------------------------------------


def test_report_table_formats_percentages():
    report = precision_recall_f1(_counts(Disease=(3, 1, 0), Symptom=(9249, 0, 751)))
    table = report_table(report)
    lines = table.splitlines()
    assert lines[0].split() == ["Entity", "Type", "Precision", "Recall", "F1"]
    assert "75%" in lines[1] and "100%" in lines[1]
    assert "92.49%" in lines[2]  # recall 9249/10000
    assert lines[-1].startswith("Overall")


def test_report_dict_mirrors_the_table():
    report = precision_recall_f1(_counts(Disease=(3, 1, 0)))
    payload = report_dict(report)
    assert payload["per_type"]["Disease"]["precision"] == pytest.approx(0.75)
    assert payload["micro"]["f1"] == pytest.approx(6 / 7)
    assert payload["per_type"]["Disease"]["undefined"] is False
