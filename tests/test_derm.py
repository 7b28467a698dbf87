"""Replacement/masking augmentation: action sampling, tag realignment."""

from __future__ import annotations

import re

import numpy as np
import pytest

from emrkg.corpus import BioSentence, from_bio
from emrkg.derm import (
    MASK,
    MASK_SYMBOL,
    NOOP,
    REPLACE,
    DermConfig,
    EntityDictionary,
    augment_epoch,
    build_dictionary,
    derm_transform,
    mask_count,
    read_dictionary_file,
    write_dictionary_file,
)
from emrkg.errors import ConfigError, DataError
from tests.support import SEPARATOR_NAMES


class ScriptedRng:
    """numpy Generator stand-in returning predetermined draws, so a single
    transform can be steered onto a known action/entity/replacement."""

    def __init__(self, rolls=(), picks=(), choices=()):
        self._rolls = list(rolls)
        self._picks = list(picks)
        self._choices = list(choices)

    def random(self):
        return self._rolls.pop(0)

    def integers(self, n):
        return self._picks.pop(0)

    def choice(self, n, size, replace=False):
        return np.asarray(self._choices.pop(0))


SENTENCE = BioSentence(
    "伴左上腹隐痛、呕吐、腹泻等",
    (
        "O",
        "B-Symptom", "I-Symptom", "I-Symptom", "I-Symptom", "I-Symptom",
        "O",
        "B-Symptom", "I-Symptom",
        "O",
        "B-Symptom", "I-Symptom",
        "O",
    ),
)

DICTIONARY = EntityDictionary({"Symptom": ("左上腹隐痛", "呕吐", "腹泻", "头痛")})
CONFIG = DermConfig()


# -- mask_count ----------------------------------------------------------


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_mask_count_is_one_for_short_entities(length):
    assert mask_count(length, CONFIG) == 1


@pytest.mark.parametrize(
    "length, expected",
    [(6, 1), (7, 1), (8, 2), (10, 2), (12, 2), (13, 3), (17, 3), (18, 4)],
)
def test_mask_count_rounds_a_fifth_half_up(length, expected):
    assert mask_count(length, CONFIG) == expected
    assert mask_count(length, CONFIG) == max(1, int(0.2 * length + 0.5))


def test_mask_count_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        mask_count(0, CONFIG)


# -- single transforms ----------------------------------------------------


def test_replacement_swaps_one_entity_surface():
    # Alternatives for 腹泻 sort as [呕吐, 头痛, 左上腹隐痛]; pick index 1.
    rng = ScriptedRng(rolls=[0.0], picks=[2, 1])
    outcome = derm_transform(SENTENCE, DICTIONARY, CONFIG, rng)
    assert outcome.action == REPLACE
    assert outcome.sentence.chars == "伴左上腹隐痛、呕吐、头痛等"
    assert outcome.sentence.tags == SENTENCE.tags
    label, start, end = from_bio(outcome.sentence)[2]  # the replaced entity
    assert (label, outcome.sentence.chars[start:end]) == ("Symptom", "头痛")


def test_replacement_realigns_tags_when_length_changes():
    dictionary = EntityDictionary({"Symptom": ("腹泻", "上消化道出血")})
    rng = ScriptedRng(rolls=[0.0], picks=[2, 0])
    outcome = derm_transform(SENTENCE, dictionary, CONFIG, rng)
    assert outcome.sentence.chars == "伴左上腹隐痛、呕吐、上消化道出血等"
    assert from_bio(outcome.sentence) == [
        ("Symptom", 1, 6),
        ("Symptom", 7, 9),
        ("Symptom", 10, 16),
    ]


def test_replacement_shifts_spans_after_the_replaced_entity():
    dictionary = EntityDictionary({"Symptom": ("左上腹隐痛", "头痛")})
    rng = ScriptedRng(rolls=[0.0], picks=[0, 0])
    outcome = derm_transform(SENTENCE, dictionary, CONFIG, rng)
    assert outcome.sentence.chars == "伴头痛、呕吐、腹泻等"
    assert from_bio(outcome.sentence) == [
        ("Symptom", 1, 3),
        ("Symptom", 4, 6),
        ("Symptom", 7, 9),
    ]


def test_masking_overwrites_one_character_of_a_short_entity():
    rng = ScriptedRng(rolls=[0.35], picks=[0], choices=[[2]])
    outcome = derm_transform(SENTENCE, DICTIONARY, CONFIG, rng)
    assert outcome.action == MASK
    assert outcome.sentence.chars == "伴左上□隐痛、呕吐、腹泻等"
    assert outcome.sentence.tags == SENTENCE.tags  # tags untouched
    label, start, end = from_bio(outcome.sentence)[0]  # the masked entity
    assert (label, outcome.sentence.chars[start:end]) == ("Symptom", "左上□隐痛")


def test_masking_long_entity_hits_the_rounded_fraction():
    chars = "乙状结肠冗长粘膜脱垂红斑" + "。"
    tags = ("B-Disease",) + ("I-Disease",) * 11 + ("O",)
    sentence = BioSentence(chars, tags)
    rng = ScriptedRng(rolls=[0.31], picks=[0], choices=[[0, 7]])
    outcome = derm_transform(sentence, EntityDictionary({}), CONFIG, rng)
    assert outcome.sentence.chars.count(MASK_SYMBOL) == 2  # round(0.2 * 12)
    assert outcome.sentence.chars == "□状结肠冗长粘□脱垂红斑。"
    assert outcome.sentence.tags == tags


def test_noop_returns_the_sentence_unchanged():
    rng = ScriptedRng(rolls=[0.95])
    outcome = derm_transform(SENTENCE, DICTIONARY, CONFIG, rng)
    assert outcome.action == NOOP
    assert outcome.sentence is SENTENCE


def test_sentence_without_entities_degrades_to_noop():
    plain = BioSentence("无特殊不适。", ("O",) * 6)
    rng = ScriptedRng(rolls=[0.0])
    outcome = derm_transform(plain, DICTIONARY, CONFIG, rng)
    assert outcome.action == NOOP
    assert outcome.sentence is plain


def test_replacement_without_alternatives_degrades_to_noop():
    dictionary = EntityDictionary({"Symptom": ("腹泻",)})
    rng = ScriptedRng(rolls=[0.0], picks=[2])
    outcome = derm_transform(SENTENCE, dictionary, CONFIG, rng)
    assert outcome.action == NOOP
    assert outcome.sentence is SENTENCE


def test_transform_outputs_stay_well_formed_under_random_sampling():
    rng = np.random.default_rng(5)
    sentence = SENTENCE
    for _ in range(500):
        outcome = derm_transform(sentence, DICTIONARY, CONFIG, rng)
        # BioSentence construction re-validates; count is preserved too.
        assert len(from_bio(outcome.sentence)) == 3
        if outcome.action == MASK:
            assert outcome.sentence.tags == SENTENCE.tags


def test_augmentation_is_resampled_not_compounded():
    rng = np.random.default_rng(9)
    outcomes = augment_epoch([SENTENCE] * 200, DICTIONARY, CONFIG, rng)
    masked = [o.sentence.chars for o in outcomes if o.action == MASK]
    assert masked, "expected some masked sentences"
    assert all(chars.count(MASK_SYMBOL) == 1 for chars in masked)


def test_augment_epoch_is_seed_deterministic():
    sentences = [SENTENCE] * 50
    first = augment_epoch(sentences, DICTIONARY, CONFIG, np.random.default_rng(3))
    second = augment_epoch(sentences, DICTIONARY, CONFIG, np.random.default_rng(3))
    assert [o.sentence for o in first] == [o.sentence for o in second]
    assert [o.action for o in first] == [o.action for o in second]


def test_action_frequencies_track_the_configured_mixture():
    rng = np.random.default_rng(17)
    outcomes = augment_epoch([SENTENCE] * 4000, DICTIONARY, CONFIG, rng)
    freq = {a: sum(o.action == a for o in outcomes) / 4000 for a in (REPLACE, MASK, NOOP)}
    assert abs(freq[REPLACE] - 0.30) < 0.02
    assert abs(freq[MASK] - 0.30) < 0.02
    assert abs(freq[NOOP] - 0.40) < 0.02


# -- configuration ----------------------------------------------------------


def test_config_rejects_probabilities_not_summing_to_one():
    with pytest.raises(ConfigError):
        DermConfig(p_replace=0.5, p_mask=0.5, p_noop=0.5)


def test_config_rejects_out_of_range_mask_fraction():
    with pytest.raises(ConfigError):
        DermConfig(mask_fraction=0.0)


@pytest.mark.parametrize(
    "overrides",
    [{"p_replace": "0.3"}, {"p_mask": True}, {"short_threshold": 5.0}, {"mask_fraction": None}],
)
def test_config_rejects_values_of_the_wrong_type(overrides):
    with pytest.raises(ConfigError):
        DermConfig(**overrides)


# -- dictionary ----------------------------------------------------------


def test_dictionary_sorts_and_deduplicates_surfaces():
    dictionary = EntityDictionary({"Symptom": ("腹泻", "头痛", "腹泻")})
    assert dictionary.surfaces("Symptom") == ("头痛", "腹泻")
    assert dictionary.surfaces("Disease") == ()


def test_dictionary_rejects_empty_surfaces():
    with pytest.raises(DataError):
        EntityDictionary({"Symptom": ("",)})


def test_build_dictionary_merges_corpus_and_kb_names():
    sentence = BioSentence("肝癌伴腹痛", ("B-Disease", "I-Disease", "O", "B-Symptom", "I-Symptom"))
    dictionary = build_dictionary([sentence], {"Disease": ("肝硬化",)})
    assert dictionary.surfaces("Disease") == ("肝癌", "肝硬化")
    assert dictionary.surfaces("Symptom") == ("腹痛",)


def test_dictionary_file_round_trip(tmp_path):
    path = tmp_path / "dict.tsv"
    write_dictionary_file(DICTIONARY, path)
    assert read_dictionary_file(path) == DICTIONARY
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == "Symptom\t呕吐"


def test_dictionary_surfaces_holding_line_separators_round_trip(tmp_path):
    path = tmp_path / "dict.tsv"
    dictionary = EntityDictionary({"Disease": SEPARATOR_NAMES})
    write_dictionary_file(dictionary, path)
    assert read_dictionary_file(path) == dictionary


def test_read_dictionary_drops_the_carriage_return_of_crlf_lines(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_bytes("Symptom\t头痛\r\nSymptom\t腹\u2028泻\r\n".encode("utf-8"))
    assert read_dictionary_file(path) == EntityDictionary({"Symptom": ("头痛", "腹\u2028泻")})


def test_read_dictionary_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("Symptom 腹泻\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_dictionary_file(path)


def test_read_dictionary_spells_each_type_as_the_span_type_table(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("disease\t肝癌\nSYMPTOM\t头痛\nDisease\t肝硬化\n", encoding="utf-8")
    assert read_dictionary_file(path) == EntityDictionary(
        {"Disease": ("肝癌", "肝硬化"), "Symptom": ("头痛",)}
    )


def test_read_dictionary_refuses_a_type_that_is_not_a_span_type(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("Disease\t肝癌\n\nGene\tBRCA1\n", encoding="utf-8")
    message = f"{path} line 3: type 'Gene' is not a span type"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        read_dictionary_file(path)
