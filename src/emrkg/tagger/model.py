"""Character-embedding BiLSTM-CRF tagger model.

The model owns a character embedding table, one LSTM per direction, a
linear projection to per-tag emission scores, and a CRF transition matrix
whose structurally illegal entries (I-t after anything but B-t/I-t) are
pinned to -inf so decoded sequences are always well-formed BIO.

Training scores one sentence at a time through the cached per-sentence
LSTM passes that backpropagation needs. Inference (:func:`predict`,
:func:`encode`) sorts sentences by length and runs each chunk of
``_PREDICT_CHUNK`` as one right-padded batch: one cache-free
:func:`lstm_states` call per direction, one projection and one batched
Viterbi.

Serialization is a flat little-endian binary container (magic, format
version, JSON metadata, raw float64 arrays). Writing the same model twice
produces byte-identical files, and a load/save round trip is bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emrkg.corpus import BioSentence
from emrkg.errors import ConfigError, DataError, find_lone_surrogate
from emrkg.schema import EntitySchema
from emrkg.tagger.crf import EmptySentence, nll_with_grad, viterbi
from emrkg.tagger.lstm import LstmCache, LstmParams, lstm_backward, lstm_forward, lstm_states
from emrkg.tagger.vocab import PAD_TOKEN, TagSet, Vocabulary

MAGIC = b"EMRKGMD1"
FORMAT_VERSION = 1

# Sentences per inference batch. Throughput is flat from 64 to 256 rows;
# one batch of every sentence is slower, as BLAS threads the small
# per-step products, and chunks bound the padded arrays' memory.
_PREDICT_CHUNK = 64


class ModelFormatError(DataError):
    """Model file is truncated, corrupt, or has an unsupported version."""


# Names of the learnable arrays, in the order they are saved.
PARAM_NAMES: tuple[str, ...] = (
    "embedding", "fw.w", "fw.u", "fw.b", "bw.w", "bw.u", "bw.b", "proj_w", "proj_b", "transitions",
)


@dataclass
class TaggerModel:
    vocab: Vocabulary
    tagset: TagSet
    embedding: np.ndarray  # (V, d_emb)
    fw: LstmParams
    bw: LstmParams
    proj_w: np.ndarray  # (2h, K)
    proj_b: np.ndarray  # (K,)
    transitions: np.ndarray  # (K+2, K+2), -inf at forbidden entries
    allowed: np.ndarray  # bool (K+2, K+2)

    @classmethod
    def from_arrays(
        cls, vocab: Vocabulary, tagset: TagSet, arrays: dict[str, np.ndarray]
    ) -> "TaggerModel":
        """Assemble a model from its learnable arrays keyed by PARAM_NAMES."""
        return cls(
            vocab=vocab,
            tagset=tagset,
            embedding=arrays["embedding"],
            fw=LstmParams(arrays["fw.w"], arrays["fw.u"], arrays["fw.b"]),
            bw=LstmParams(arrays["bw.w"], arrays["bw.u"], arrays["bw.b"]),
            proj_w=arrays["proj_w"],
            proj_b=arrays["proj_b"],
            transitions=arrays["transitions"],
            allowed=tagset.allowed_transitions(),
        )

    @property
    def d_emb(self) -> int:
        return self.embedding.shape[1]

    @property
    def hidden(self) -> int:
        return self.fw.hidden


def init_model(
    vocab: Vocabulary,
    tagset: TagSet,
    d_emb: int,
    hidden: int,
    rng: np.random.Generator,
) -> TaggerModel:
    """Uniform(-0.1, 0.1) weights, zero biases except forget gate at 1."""

    def uniform(*shape: int) -> np.ndarray:
        return rng.uniform(-0.1, 0.1, size=shape)

    def lstm(d_in: int) -> LstmParams:
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0
        return LstmParams(uniform(4 * hidden, d_in), uniform(4 * hidden, hidden), b)

    k = len(tagset)
    allowed = tagset.allowed_transitions()
    transitions = uniform(k + 2, k + 2)
    transitions[~allowed] = -np.inf
    return TaggerModel(
        vocab=vocab,
        tagset=tagset,
        embedding=uniform(len(vocab), d_emb),
        fw=lstm(d_emb),
        bw=lstm(d_emb),
        proj_w=uniform(2 * hidden, k),
        proj_b=np.zeros(k),
        transitions=transitions,
        allowed=allowed,
    )


def param_arrays(model: TaggerModel) -> list[tuple[str, np.ndarray]]:
    """Named learnable arrays, in PARAM_NAMES order."""
    return list(zip(PARAM_NAMES, (
        model.embedding,
        model.fw.w, model.fw.u, model.fw.b,
        model.bw.w, model.bw.u, model.bw.b,
        model.proj_w, model.proj_b, model.transitions,
    )))


def _bilstm_states(model: TaggerModel, indices: np.ndarray) -> tuple[LstmCache, LstmCache, np.ndarray]:
    inputs = model.embedding[indices]
    fw_cache = lstm_forward(model.fw, inputs)
    bw_cache = lstm_forward(model.bw, inputs[::-1])
    states = np.concatenate([fw_cache.hidden_states, bw_cache.hidden_states[::-1]], axis=1)
    return fw_cache, bw_cache, states


def _input_tables(model: TaggerModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-character gate inputs ``embedding @ w.T + b``, (V, 4h), per direction."""
    return tuple(model.embedding @ p.w.T + p.b for p in (model.fw, model.bw))


def _batch_emissions(
    model: TaggerModel, tables: tuple[np.ndarray, np.ndarray], texts: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Emission scores (B, L, K) of ``texts`` padded on the right to the
    longest, and their lengths."""
    lengths = np.array([len(text) for text in texts], dtype=np.intp)
    width = int(lengths.max())
    indices = np.full((len(texts), width), model.vocab.index[PAD_TOKEN], dtype=np.intp)
    for row, text in enumerate(texts):
        indices[row, : len(text)] = model.vocab.encode(text)
    # Reverses each row within its own length (an involution), so the
    # backward direction also sees its padding last.
    steps = np.arange(width)
    flip = np.where(steps < lengths[:, None], lengths[:, None] - 1 - steps, steps)
    rows = np.arange(len(texts))[:, None]
    forward = lstm_states(model.fw, tables[0], indices)
    backward = lstm_states(model.bw, tables[1], indices[rows, flip])[rows, flip]
    states = np.concatenate([forward, backward], axis=2)
    return states @ model.proj_w + model.proj_b, lengths


def encode(model: TaggerModel, chars: str) -> np.ndarray:
    """Per-character emission scores, shape (len(chars), |tags|)."""
    if len(chars) == 0:
        raise EmptySentence("cannot encode an empty sentence")
    emissions, _ = _batch_emissions(model, _input_tables(model), [chars])
    return emissions[0]


def sentence_loss_and_grads(
    model: TaggerModel, indices: np.ndarray, tag_indices: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """CRF negative log-likelihood of one sentence plus gradients for every
    parameter array (forbidden transition entries get zero gradient)."""
    if len(indices) == 0:
        raise EmptySentence("cannot score an empty sentence")
    fw_cache, bw_cache, states = _bilstm_states(model, indices)
    emissions = states @ model.proj_w + model.proj_b

    loss, d_emissions, d_transitions = nll_with_grad(emissions, model.transitions, tag_indices)
    d_transitions[~model.allowed] = 0.0

    d_proj_w = states.T @ d_emissions
    d_proj_b = d_emissions.sum(axis=0)
    d_states = d_emissions @ model.proj_w.T

    h = model.hidden
    d_fw, d_in_fw = lstm_backward(model.fw, fw_cache, d_states[:, :h])
    d_bw, d_in_bw = lstm_backward(model.bw, bw_cache, d_states[::-1, h:])
    d_inputs = d_in_fw + d_in_bw[::-1]

    d_embedding = np.zeros_like(model.embedding)
    np.add.at(d_embedding, indices, d_inputs)

    grads = dict(zip(PARAM_NAMES, (
        d_embedding,
        d_fw.w, d_fw.u, d_fw.b,
        d_bw.w, d_bw.u, d_bw.b,
        d_proj_w, d_proj_b, d_transitions,
    )))
    return loss, grads


def predict(model: TaggerModel, sentences: list[BioSentence]) -> list[BioSentence]:
    """Tag sentences with constrained Viterbi; output is well-formed BIO, in
    input order."""
    tables = _input_tables(model)
    order = sorted(range(len(sentences)), key=lambda i: len(sentences[i].chars))
    paths: dict[int, np.ndarray] = {}
    for start in range(0, len(order), _PREDICT_CHUNK):
        chunk = order[start : start + _PREDICT_CHUNK]
        emissions, lengths = _batch_emissions(model, tables, [sentences[i].chars for i in chunk])
        paths.update(zip(chunk, viterbi(emissions, model.transitions, lengths)))
    return [BioSentence(s.chars, model.tagset.decode(paths[i])) for i, s in enumerate(sentences)]


def _write_array(handle, name: str, array: np.ndarray) -> None:
    data = np.ascontiguousarray(array, dtype="<f8")
    name_b = name.encode("utf-8")
    handle.write(struct.pack("<H", len(name_b)))
    handle.write(name_b)
    handle.write(struct.pack("<B", data.ndim))
    for dim in data.shape:
        handle.write(struct.pack("<Q", dim))
    handle.write(data.tobytes())


def save_model(model: TaggerModel, path: str | Path) -> None:
    meta = {
        "entity_types": list(model.tagset.schema.entity_types),
        "vocab": list(model.vocab.tokens),
        "d_emb": model.d_emb,
        "hidden": model.hidden,
    }
    meta_b = json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8")
    arrays = param_arrays(model)
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", FORMAT_VERSION))
        handle.write(struct.pack("<Q", len(meta_b)))
        handle.write(meta_b)
        handle.write(struct.pack("<I", len(arrays)))
        for name, array in arrays:
            _write_array(handle, name, array)


def _read_exact(handle, n: int, what: str) -> bytes:
    """Checks ``n`` against the bytes left before reading, so that a corrupt
    length is a format error, not an oversized read."""
    if n > os.fstat(handle.fileno()).st_size - handle.tell():
        raise ModelFormatError(f"{handle.name}: truncated model file while reading {what}")
    return handle.read(n)


def load_model(path: str | Path) -> TaggerModel:
    with open(path, "rb") as handle:
        if _read_exact(handle, len(MAGIC), "magic") != MAGIC:
            raise ModelFormatError(f"{path} is not a tagger model file")
        (version,) = struct.unpack("<I", _read_exact(handle, 4, "version"))
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"{path}: unsupported model format version {version}")
        (meta_len,) = struct.unpack("<Q", _read_exact(handle, 8, "metadata length"))
        raw_meta = _read_exact(handle, meta_len, "metadata")
        try:
            meta_text = raw_meta.decode("utf-8")
            meta = json.loads(meta_text)
            vocab = Vocabulary(tuple(meta["vocab"]))
            schema = EntitySchema(tuple(meta["entity_types"]))
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError, DataError,
                ConfigError) as exc:
            raise ModelFormatError(f"{path}: bad model metadata: {exc!r}") from exc
        bad = find_lone_surrogate(meta_text, meta)
        if bad is not None:
            raise ModelFormatError(
                f"{path}: bad model metadata: lone surrogate in the string {bad[:40]!r}"
            )
        (count,) = struct.unpack("<I", _read_exact(handle, 4, "array count"))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(handle, 2, "array name length"))
            try:
                name = _read_exact(handle, name_len, "array name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ModelFormatError(f"{path}: array name is not UTF-8: {exc}") from exc
            (ndim,) = struct.unpack("<B", _read_exact(handle, 1, "array rank"))
            shape = tuple(
                struct.unpack("<Q", _read_exact(handle, 8, "array dim"))[0] for _ in range(ndim)
            )
            raw = _read_exact(handle, 8 * math.prod(shape), f"array {name} data")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()

    tagset = TagSet(schema)
    if set(arrays) != set(PARAM_NAMES):
        raise ModelFormatError(f"{path}: model file arrays {sorted(arrays)} != expected set")
    d_emb, hidden = meta.get("d_emb"), meta.get("hidden")
    if not all(type(n) is int and n > 0 for n in (d_emb, hidden)):
        raise ModelFormatError(f"{path}: d_emb and hidden must be positive integers")
    v, k, gates = len(vocab), len(tagset), 4 * hidden
    lstm = {"w": (gates, d_emb), "u": (gates, hidden), "b": (gates,)}
    expected = {
        "embedding": (v, d_emb),
        **{f"{side}.{part}": shape for side in ("fw", "bw") for part, shape in lstm.items()},
        "proj_w": (2 * hidden, k),
        "proj_b": (k,),
        "transitions": (k + 2, k + 2),
    }
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ModelFormatError(
                f"{path}: array {name} has shape {arrays[name].shape}, expected {shape}"
            )
    return TaggerModel.from_arrays(vocab, tagset, arrays)
