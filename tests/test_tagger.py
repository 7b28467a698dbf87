"""Vocabulary, tag set, BiLSTM encoder, prediction and model persistence."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from emrkg.corpus import BioSentence
from emrkg.derm import MASK_SYMBOL
from emrkg.errors import DataError
from emrkg.schema import EntitySchema
from emrkg.tagger import TaggerModel, TagSet, Vocabulary, load_model, predict, save_model
from emrkg.tagger.model import (
    _PREDICT_CHUNK,
    init_model,
    param_shapes,
    sentence_loss_and_grads,
)
from emrkg.tagger import model as model_module
from emrkg.tagger.crf import nll_with_grad
from emrkg.tagger.vocab import PAD_TOKEN, UNK_TOKEN
from tests.oracles import emissions_by_sentence, predict_by_sentence
from tests.support import encode, gradient_check, sentence_loss


@pytest.fixture(scope="module")
def small_schema() -> EntitySchema:
    return EntitySchema(("Disease", "Symptom"))


@pytest.fixture(scope="module")
def vocab() -> Vocabulary:
    return Vocabulary.build(["肝癌伴腹痛", "头晕乏力。"])


@pytest.fixture()
def model(small_schema, vocab) -> TaggerModel:
    return init_model(
        vocab, TagSet(small_schema), d_emb=6, hidden=5, rng=np.random.default_rng(0)
    )


# -- vocabulary ----------------------------------------------------------


def test_vocabulary_reserves_pad_unk_mask_first(vocab):
    assert vocab.tokens[:3] == (PAD_TOKEN, UNK_TOKEN, MASK_SYMBOL)
    assert list(vocab.tokens[3:]) == sorted(vocab.tokens[3:])
    assert "肝" in vocab.tokens


def test_vocabulary_encodes_unknown_chars_as_unk(vocab):
    indices = vocab.encode("肝X")
    assert indices[0] == vocab.index["肝"]
    assert indices[1] == vocab.index[UNK_TOKEN]


def test_vocabulary_build_includes_extra_surfaces():
    vocab = Vocabulary.build(["肝癌"], extra=["心悸"])
    assert "心" in vocab.index
    assert "悸" in vocab.index


def test_vocabulary_rejects_duplicates_and_missing_reserved():
    with pytest.raises(DataError):
        Vocabulary((PAD_TOKEN, UNK_TOKEN, MASK_SYMBOL, "肝", "肝"))
    with pytest.raises(DataError):
        Vocabulary((PAD_TOKEN, UNK_TOKEN, "肝"))


# -- tag set ----------------------------------------------------------


def test_tagset_orders_o_then_b_i_pairs(small_schema):
    tagset = TagSet(small_schema)
    assert tagset.tags == ("O", "B-Disease", "I-Disease", "B-Symptom", "I-Symptom")
    assert tagset.start == 5
    assert tagset.stop == 6


def test_tagset_encode_decode_round_trip(small_schema):
    tagset = TagSet(small_schema)
    tags = ("O", "B-Disease", "I-Disease", "O")
    assert tagset.decode(tagset.encode(tags)) == tags
    with pytest.raises(DataError):
        tagset.encode(("B-Gene",))


def test_allowed_transitions_enforce_bio_structure(small_schema):
    tagset = TagSet(small_schema)
    allowed = tagset.allowed_transitions()
    idx = tagset.index
    assert allowed[idx["B-Disease"], idx["I-Disease"]]
    assert allowed[idx["I-Disease"], idx["I-Disease"]]
    assert not allowed[idx["O"], idx["I-Disease"]]
    assert not allowed[idx["B-Symptom"], idx["I-Disease"]]
    assert not allowed[tagset.start, idx["I-Disease"]]
    assert allowed[tagset.start, idx["B-Disease"]]
    assert not allowed[:, tagset.start].any()
    assert not allowed[tagset.stop, :].any()
    assert allowed[idx["O"], tagset.stop]


# -- encoder ----------------------------------------------------------


def test_init_model_shapes_and_masked_transitions(model, vocab):
    assert list(model.params) == list(param_shapes(len(vocab), 5, 6, 5))
    assert model.params["embedding"].shape == (len(vocab), 6)
    assert model.params["proj_w"].shape == (10, 5)
    transitions = model.params["transitions"]
    assert transitions.shape == (7, 7)
    assert np.all(np.isneginf(transitions[~model.allowed]))
    assert np.all(np.isfinite(transitions[model.allowed]))


def test_init_model_is_rng_deterministic(small_schema, vocab):
    tagset = TagSet(small_schema)
    a = init_model(vocab, tagset, 6, 5, np.random.default_rng(1))
    b = init_model(vocab, tagset, 6, 5, np.random.default_rng(1))
    for name, left in a.params.items():
        np.testing.assert_array_equal(left, b.params[name], err_msg=name)


def test_encode_emits_one_score_row_per_character(model):
    emissions = encode(model, "肝癌伴")
    assert emissions.shape == (3, 5)
    np.testing.assert_array_equal(emissions, encode(model, "肝癌伴"))


def test_encode_with_zero_projection_returns_bias(model):
    model.params["proj_w"][:] = 0.0
    model.params["proj_b"][:] = np.arange(5.0)
    emissions = encode(model, "肝癌")
    np.testing.assert_array_equal(emissions, np.tile(np.arange(5.0), (2, 1)))


def test_predict_returns_well_formed_sentences(model):
    sentences = [
        BioSentence("肝癌伴腹痛。", ("O",) * 6),
        BioSentence("头晕X乏力", ("O",) * 5),  # X is out of vocabulary
    ]
    predicted = predict(model, sentences)
    assert [p.chars for p in predicted] == [s.chars for s in sentences]
    # BioSentence construction validates the tag structure itself.
    assert all(isinstance(p, BioSentence) for p in predicted)
    assert predicted == predict(model, sentences)


def test_predict_of_nothing_is_nothing(model):
    assert predict(model, []) == []


def test_predict_rejects_a_zero_length_sentence(model):
    with pytest.raises(DataError, match="^emission matrix has zero rows$"):
        predict(model, [BioSentence("", ())])
    with pytest.raises(DataError, match="^a row of the emission batch has zero length$"):
        predict(model, [BioSentence("肝癌", ("O", "O")), BioSentence("", ())])


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_batched_predict_equals_the_per_sentence_oracle(small_schema, seed):
    """More than one chunk of sentences in shuffled lengths, with
    out-of-vocabulary characters, through a model with large random
    weights so that the tags vary."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.build(["肝癌伴腹痛头晕乏力发热咳嗽。"])
    model = init_model(vocab, TagSet(small_schema), d_emb=5, hidden=6, rng=rng)
    for array in model.params.values():
        finite = np.isfinite(array)
        array[finite] = rng.normal(scale=2.0, size=int(finite.sum()))
    pool = list("肝癌伴腹痛头晕乏力发热咳嗽。") + list("XY血")  # the last three are unknown
    max_len = 50
    lengths = rng.permutation(np.arange(2 * _PREDICT_CHUNK + 7) % max_len + 1)
    texts = ["".join(rng.choice(pool, size=n)) for n in lengths]

    predicted = predict(model, [BioSentence(t, ("O",) * len(t)) for t in texts])
    assert [p.chars for p in predicted] == texts
    assert [p.tags for p in predicted] == predict_by_sentence(model, texts)
    assert len({tag for p in predicted for tag in p.tags}) > 2
    for text in texts[:: _PREDICT_CHUNK // 4]:
        np.testing.assert_allclose(
            encode(model, text), emissions_by_sentence(model, text), rtol=0, atol=1e-10
        )


@pytest.mark.parametrize("hidden", [6, 128])
def test_chunk_size_does_not_change_predictions(small_schema, hidden, monkeypatch):
    """One sentence per batch, a chunk that divides nothing, the module's
    chunk, and one batch of every sentence all give the oracle's tags."""
    rng = np.random.default_rng(hidden)
    vocab = Vocabulary.build(["肝癌伴腹痛头晕乏力发热咳嗽。"])
    model = init_model(vocab, TagSet(small_schema), d_emb=5, hidden=hidden, rng=rng)
    for array in model.params.values():
        finite = np.isfinite(array)
        array[finite] = rng.normal(scale=2.0 / np.sqrt(hidden), size=int(finite.sum()))
    pool = list("肝癌伴腹痛头晕乏力发热咳嗽。") + list("XY血")
    texts = ["".join(rng.choice(pool, size=n)) for n in rng.integers(1, 30, size=40)]
    sentences = [BioSentence(t, ("O",) * len(t)) for t in texts]

    expected = predict_by_sentence(model, texts)
    assert len({tag for tags in expected for tag in tags}) > 2
    for chunk in (1, 7, _PREDICT_CHUNK, len(texts) + 1):
        monkeypatch.setattr(model_module, "_PREDICT_CHUNK", chunk)
        assert [p.tags for p in predict(model, sentences)] == expected, chunk


def test_sentence_loss_equals_crf_nll_of_encoded_emissions(model):
    chars = "肝癌伴腹痛"
    tags = ("B-Disease", "I-Disease", "O", "B-Symptom", "I-Symptom")
    indices = model.vocab.encode(chars)
    tag_indices = model.tagset.encode(tags)
    expected, _, _ = nll_with_grad(encode(model, chars), model.params["transitions"], tag_indices)
    assert sentence_loss(model, indices, tag_indices) == pytest.approx(expected, abs=1e-12)
    loss, grads = sentence_loss_and_grads(model, indices, tag_indices)
    assert loss == pytest.approx(expected, abs=1e-12)
    assert set(model.params) == set(grads)


def test_unused_embedding_rows_get_zero_gradient(model):
    indices = model.vocab.encode("肝癌")
    tag_indices = model.tagset.encode(("B-Disease", "I-Disease"))
    _, grads = sentence_loss_and_grads(model, indices, tag_indices)
    used = set(int(i) for i in indices)
    for row in range(len(model.vocab)):
        if row not in used:
            assert np.all(grads["embedding"][row] == 0.0)
    assert any(np.any(grads["embedding"][row] != 0.0) for row in used)


def test_gradient_check_on_a_toy_model(small_schema):
    vocab = Vocabulary.build(["肝癌痛"])
    model = init_model(
        vocab, TagSet(small_schema), d_emb=4, hidden=4, rng=np.random.default_rng(7)
    )
    encoded = [
        (vocab.encode("肝癌"), model.tagset.encode(("B-Disease", "I-Disease"))),
        (vocab.encode("痛"), model.tagset.encode(("O",))),
    ]
    assert gradient_check(model, encoded, epsilon=1e-4) < 1e-4


# -- persistence ----------------------------------------------------------


def test_save_load_round_trip_is_bit_exact(model, tmp_path):
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocab == model.vocab
    assert loaded.tagset.schema == model.tagset.schema
    assert list(loaded.params) == list(model.params)
    for name, left in model.params.items():
        np.testing.assert_array_equal(left, loaded.params[name], err_msg=name)
    sentences = [BioSentence("肝癌伴腹痛。", ("O",) * 6)]
    assert predict(loaded, sentences) == predict(model, sentences)


def test_save_is_byte_deterministic(model, tmp_path):
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    save_model(model, first)
    save_model(model, second)
    assert first.read_bytes() == second.read_bytes()


def test_init_model_file_is_pinned(model, tmp_path):
    """The file of the seed-0 ``model`` fixture: a change to the order in
    which init_model draws the arrays, or saves them, changes it."""
    path = tmp_path / "model.bin"
    save_model(model, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c22e32c4324b4de88c738ef2041adc0b6419877c051dc173805fc86dc6755bed"


@pytest.mark.parametrize("name", list(param_shapes(vocab_size=1, num_tags=1, d_emb=1, hidden=1)))
def test_load_rejects_an_array_of_the_wrong_shape(model, name, tmp_path):
    """One extra row in one array, under metadata that still states the
    sizes of the others."""
    array = model.params[name]
    params = {**model.params, name: np.concatenate([array, array[:1]])}
    path = tmp_path / "model.bin"
    save_model(TaggerModel(model.vocab, model.tagset, params), path)
    stated = (len(array) + 1, *array.shape[1:])
    message = f"{path}: array {name} has shape {stated}, expected {array.shape}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_model(path)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"not a model file at all")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} is not a tagger model file$"):
        load_model(path)


def test_load_rejects_truncated_file(model, tmp_path):
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    truncated = tmp_path / "cut.bin"
    truncated.write_bytes(data[: len(data) // 2])
    with pytest.raises(DataError, match=f"^{re.escape(str(truncated))}: truncated model file "
                                        r"while reading array bw\.w data$"):
        load_model(truncated)
