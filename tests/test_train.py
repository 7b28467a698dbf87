"""Training loop: determinism, best-epoch selection, failure modes."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from emrkg.corpus import BioSentence, DatasetSplit
from emrkg.derm import EntityDictionary
from emrkg.errors import ConfigError, DataError
from emrkg.metrics import count_matches, precision_recall_f1
from emrkg.schema import EntitySchema
from emrkg.tagger import TrainConfig, predict, train

SCHEMA = EntitySchema(("Disease", "Symptom"))

SENTENCES = [
    BioSentence("肝癌伴腹痛。", ("B-Disease", "I-Disease", "O", "B-Symptom", "I-Symptom", "O")),
    BioSentence("确诊肺炎。", ("O", "O", "B-Disease", "I-Disease", "O")),
    BioSentence("头晕两周。", ("B-Symptom", "I-Symptom", "O", "O", "O")),
    BioSentence("胃溃疡复发。", ("B-Disease", "I-Disease", "I-Disease", "O", "O", "O")),
    BioSentence("偶发乏力。", ("O", "O", "B-Symptom", "I-Symptom", "O")),
    BioSentence("无异常。", ("O", "O", "O", "O")),
]

DICTIONARY = EntityDictionary(
    {"Disease": ("肝癌", "肺炎", "胃溃疡"), "Symptom": ("腹痛", "头晕", "乏力")}
)


def _split(train_sents=None, validation=None) -> DatasetSplit:
    return DatasetSplit(
        train=tuple(train_sents if train_sents is not None else SENTENCES),
        validation=tuple(validation if validation is not None else SENTENCES[:3]),
        test=(),
    )


def _config(**overrides) -> TrainConfig:
    base = dict(
        batch_size=3, epochs=4, learning_rate=0.2, hidden=8, d_emb=8, seed=5, momentum=0.9
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_returns_one_record_per_epoch():
    result = train(_split(), DICTIONARY, _config(), SCHEMA)
    assert [r.epoch for r in result.log] == [1, 2, 3, 4]
    assert all(np.isfinite(r.loss) for r in result.log)
    assert 1 <= result.best_epoch <= 4
    best = result.log[result.best_epoch - 1]
    assert best.f1 == max(r.f1 for r in result.log)


def test_train_is_seed_deterministic():
    first = train(_split(), DICTIONARY, _config(), SCHEMA)
    second = train(_split(), DICTIONARY, _config(), SCHEMA)
    assert first.log == second.log
    for name, left in first.model.params.items():
        np.testing.assert_array_equal(left, second.model.params[name], err_msg=name)


def test_different_seeds_give_different_models():
    first = train(_split(), DICTIONARY, _config(seed=5), SCHEMA)
    second = train(_split(), DICTIONARY, _config(seed=6), SCHEMA)
    assert any(
        not np.array_equal(left, second.model.params[name])
        for name, left in first.model.params.items()
    )


def test_training_memorizes_a_tiny_corpus():
    config = _config(epochs=60, learning_rate=0.3, hidden=16, d_emb=12)
    result = train(_split(validation=SENTENCES), DICTIONARY, config, SCHEMA)
    report = precision_recall_f1(
        count_matches(SENTENCES, predict(result.model, SENTENCES))
    )
    assert report.micro.f1 >= 0.99


def test_tied_validation_f1_keeps_the_latest_epoch():
    # A vanishing learning rate freezes the model, so every epoch scores
    # the same validation F1 and the tie rule must pick the last epoch.
    config = _config(learning_rate=1e-12, epochs=3)
    result = train(_split(), DICTIONARY, config, SCHEMA)
    assert len({r.f1 for r in result.log}) == 1
    assert result.best_epoch == 3


def test_derm_augmented_training_is_deterministic():
    config = _config(derm_enabled=True)
    first = train(_split(), DICTIONARY, config, SCHEMA)
    second = train(_split(), DICTIONARY, config, SCHEMA)
    assert first.log == second.log


def test_vocabulary_covers_dictionary_surfaces():
    dictionary = EntityDictionary({"Disease": ("罕见病",)})
    result = train(_split(), dictionary, _config(epochs=1), SCHEMA)
    for char in "罕见病":
        assert char in result.model.vocab.index


def test_empty_train_set_is_rejected():
    with pytest.raises(DataError, match="^empty training set$"):
        train(_split(train_sents=[]), DICTIONARY, _config(), SCHEMA)


def test_non_finite_loss_raises_diverged_loss(monkeypatch):
    # Saturation keeps this architecture finite under any realistic learning
    # rate, so the guard is exercised by injecting the overflow it protects
    # against.
    train_module = importlib.import_module("emrkg.tagger.train")
    real = train_module.sentence_loss_and_grads

    def overflowing(model, indices, tags):
        _, grads = real(model, indices, tags)
        return float("inf"), grads

    monkeypatch.setattr(train_module, "sentence_loss_and_grads", overflowing)
    with pytest.raises(DataError, match=r"^non-finite loss inf at epoch 1; reduce learning_rate "
                                         r"\(currently 0\.2\)$"):
        train(_split(), DICTIONARY, _config(), SCHEMA)


def test_gradient_clip_keeps_huge_rate_finite_longer():
    # The same runaway rate with a tight clip must not explode on epoch 1.
    config = _config(learning_rate=1.0, epochs=1, gradient_clip=0.5)
    result = train(_split(), DICTIONARY, config, SCHEMA)
    assert np.isfinite(result.log[0].loss)


@pytest.mark.parametrize(
    "overrides",
    [
        {"batch_size": 0},
        {"epochs": 0},
        {"learning_rate": 0.0},
        {"momentum": 1.0},
        {"d_emb": 0},
        {"hidden": 2.5},
        {"epochs": True},
        {"learning_rate": "0.1"},
        {"learning_rate": math.inf},
        {"gradient_clip": -1.0},
        {"gradient_clip": 0},
        {"momentum": None},
        {"derm_enabled": "no"},
    ],
)
def test_config_validation_rejects_bad_values(overrides):
    with pytest.raises(ConfigError):
        _config(**overrides)
