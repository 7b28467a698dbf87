"""Character-embedding BiLSTM-CRF tagger model.

The model owns a character embedding table, one LSTM per direction, a
linear projection to per-tag emission scores, and a CRF transition matrix
whose structurally illegal entries (I-t after anything but B-t/I-t) are
pinned to -inf so decoded sequences are always well-formed BIO. The
model holds these arrays in one dict that :func:`param_shapes` names,
shapes and orders; initialization, saving, loading, gradients and
training updates all follow it.

Training scores one sentence at a time through the cached per-sentence
LSTM passes that backpropagation needs. Inference (:func:`predict`) sorts
sentences by length and runs each chunk of ``_PREDICT_CHUNK`` as one
right-padded batch: one cache-free :func:`lstm_states` call per
direction, one projection and one batched Viterbi.

Serialization is a flat little-endian binary container (magic, format
version, JSON metadata, raw float64 arrays). Writing the same model twice
produces byte-identical files, and a load/save round trip is bit-exact.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from emrkg._np import np
from emrkg.corpus import BioSentence
from emrkg.errors import ConfigError, DataError, find_lone_surrogate, write_file
from emrkg.schema import EntitySchema
from emrkg.tagger.crf import nll_with_grad, viterbi
from emrkg.tagger.lstm import LstmParams, lstm_backward, lstm_forward, lstm_states
from emrkg.tagger.vocab import PAD_TOKEN, TagSet, Vocabulary

MAGIC = b"EMRKGMD1"
FORMAT_VERSION = 1

# Sentences per inference batch. Tagging 673 sentences (10,966 chars, the
# longest 35) on 2 CPUs, chunk sizes interleaved in one process, median of
# 40 rounds: hidden 24 took 37.2 ms at 64 rows, 35.7 ms at 128 (faster in
# 30 of 40 rounds) and 39.0 ms at 256; hidden 128 took 153 ms at 64 and at
# 128 and 198 ms at 256. One batch of all 673 took 67 ms at hidden 24, as
# BLAS threads the per-step products; chunks also bound the padded arrays.
_PREDICT_CHUNK = 128


def param_shapes(
    vocab_size: int, num_tags: int, d_emb: int, hidden: int
) -> dict[str, tuple[int, ...]]:
    """Name and shape of each learnable array, in model-file order."""
    lstm = {"w": (4 * hidden, d_emb), "u": (4 * hidden, hidden), "b": (4 * hidden,)}
    return {
        "embedding": (vocab_size, d_emb),
        **{f"{side}.{part}": shape for side in ("fw", "bw") for part, shape in lstm.items()},
        "proj_w": (2 * hidden, num_tags),
        "proj_b": (num_tags,),
        "transitions": (num_tags + 2, num_tags + 2),
    }


@dataclass
class TaggerModel:
    vocab: Vocabulary
    tagset: TagSet
    params: dict[str, np.ndarray]  # the keys and order of param_shapes
    allowed: np.ndarray = field(init=False)  # bool (K+2, K+2); transitions is -inf elsewhere

    def __post_init__(self) -> None:
        self.allowed = self.tagset.allowed_transitions()

    @property
    def fw(self) -> LstmParams:
        return LstmParams(self.params["fw.w"], self.params["fw.u"], self.params["fw.b"])

    @property
    def bw(self) -> LstmParams:
        return LstmParams(self.params["bw.w"], self.params["bw.u"], self.params["bw.b"])


def init_model(
    vocab: Vocabulary,
    tagset: TagSet,
    d_emb: int,
    hidden: int,
    rng: np.random.Generator,
) -> TaggerModel:
    """Uniform(-0.1, 0.1) weights, zero biases except forget gate at 1."""
    shapes = param_shapes(len(vocab), len(tagset), d_emb, hidden)
    params = {name: np.zeros(shape) for name, shape in shapes.items()}
    # Model files depend on this draw order: transitions, then every other
    # weight matrix in file order. Biases, the 1-D arrays, are not drawn.
    weights = [name for name, shape in shapes.items() if len(shape) == 2]
    for name in sorted(weights, key=lambda name: name != "transitions"):
        params[name] = rng.uniform(-0.1, 0.1, size=shapes[name])
    for side in ("fw", "bw"):
        params[f"{side}.b"][hidden : 2 * hidden] = 1.0
    model = TaggerModel(vocab, tagset, params)
    params["transitions"][~model.allowed] = -np.inf
    return model


def _input_tables(model: TaggerModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-character gate inputs ``embedding @ w.T + b``, (V, 4h), per direction."""
    return tuple(model.params["embedding"] @ p.w.T + p.b for p in (model.fw, model.bw))


def _batch_emissions(
    model: TaggerModel, tables: tuple[np.ndarray, np.ndarray], texts: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Emission scores (B, L, K) of ``texts`` padded on the right to the
    longest, and their lengths."""
    lengths = np.array([len(text) for text in texts], dtype=np.intp)
    steps = np.arange(int(lengths.max()))
    inside = steps < lengths[:, None]
    indices = np.full(inside.shape, model.vocab.index[PAD_TOKEN], dtype=np.intp)
    indices[inside] = model.vocab.encode("".join(texts))
    # Reverses each row within its own length (an involution), so the
    # backward direction also sees its padding last.
    flip = np.where(inside, lengths[:, None] - 1 - steps, steps)
    rows = np.arange(len(texts))[:, None]
    forward = lstm_states(model.fw, tables[0], indices).transpose(1, 0, 2)
    backward = lstm_states(model.bw, tables[1], indices[rows, flip])[flip, rows]
    states = np.concatenate([forward, backward], axis=2)
    return states @ model.params["proj_w"] + model.params["proj_b"], lengths


def sentence_loss_and_grads(
    model: TaggerModel, indices: np.ndarray, tag_indices: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """CRF negative log-likelihood of one sentence plus gradients for every
    parameter array (forbidden transition entries get zero gradient)."""
    if len(indices) == 0:
        raise DataError("cannot score an empty sentence")
    params, fw, bw = model.params, model.fw, model.bw
    inputs = params["embedding"][indices]
    fw_cache = lstm_forward(fw, inputs)
    bw_cache = lstm_forward(bw, inputs[::-1])
    states = np.concatenate([fw_cache.hidden_states, bw_cache.hidden_states[::-1]], axis=1)
    emissions = states @ params["proj_w"] + params["proj_b"]

    loss, d_emissions, d_transitions = nll_with_grad(emissions, params["transitions"], tag_indices)
    d_transitions[~model.allowed] = 0.0
    d_states = d_emissions @ params["proj_w"].T

    h = fw.hidden
    d_fw, d_in_fw = lstm_backward(fw, fw_cache, d_states[:, :h])
    d_bw, d_in_bw = lstm_backward(bw, bw_cache, d_states[::-1, h:])
    d_inputs = d_in_fw + d_in_bw[::-1]

    d_embedding = np.zeros_like(params["embedding"])
    np.add.at(d_embedding, indices, d_inputs)

    grads = {
        "embedding": d_embedding,
        **{f"fw.{part}": grad for part, grad in vars(d_fw).items()},
        **{f"bw.{part}": grad for part, grad in vars(d_bw).items()},
        "proj_w": states.T @ d_emissions,
        "proj_b": d_emissions.sum(axis=0),
        "transitions": d_transitions,
    }
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
        paths.update(zip(chunk, viterbi(emissions, model.params["transitions"], lengths)))
    return [BioSentence(s.chars, model.tagset.decode(paths[i])) for i, s in enumerate(sentences)]


def _array_chunks(name: str, array: np.ndarray) -> Iterator[bytes]:
    data = np.ascontiguousarray(array, dtype="<f8")
    name_b = name.encode("utf-8")
    yield struct.pack("<H", len(name_b))
    yield name_b
    yield struct.pack("<B", data.ndim)
    for dim in data.shape:
        yield struct.pack("<Q", dim)
    yield data.tobytes()


def save_model(model: TaggerModel, path: str | Path) -> None:
    meta = {
        "entity_types": list(model.tagset.schema.entity_types),
        "vocab": list(model.vocab.tokens),
        "d_emb": model.params["embedding"].shape[1],
        "hidden": model.fw.hidden,
    }
    meta_b = json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8")
    header = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(meta_b)), meta_b,
              struct.pack("<I", len(model.params))]
    arrays = itertools.chain.from_iterable(itertools.starmap(_array_chunks, model.params.items()))
    write_file(path, itertools.chain(header, arrays), binary=True)


def _read_exact(handle, n: int, what: str) -> bytes:
    """Checks ``n`` against the bytes left before reading, so that a corrupt
    length is a format error, not an oversized read."""
    if n > os.fstat(handle.fileno()).st_size - handle.tell():
        raise DataError(f"{handle.name}: truncated model file while reading {what}")
    return handle.read(n)


def load_model(path: str | Path) -> TaggerModel:
    with open(path, "rb") as handle:
        if _read_exact(handle, len(MAGIC), "magic") != MAGIC:
            raise DataError(f"{path} is not a tagger model file")
        (version,) = struct.unpack("<I", _read_exact(handle, 4, "version"))
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported model format version {version}")
        (meta_len,) = struct.unpack("<Q", _read_exact(handle, 8, "metadata length"))
        raw_meta = _read_exact(handle, meta_len, "metadata")
        try:
            meta_text = raw_meta.decode("utf-8")
            meta = json.loads(meta_text)
            vocab = Vocabulary(tuple(meta["vocab"]))
            schema = EntitySchema(tuple(meta["entity_types"]))
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError, DataError,
                ConfigError) as exc:
            raise DataError(f"{path}: bad model metadata: {exc!r}") from exc
        bad = find_lone_surrogate(meta_text, meta)
        if bad is not None:
            raise DataError(
                f"{path}: bad model metadata: lone surrogate in the string {bad[:40]!r}"
            )
        (count,) = struct.unpack("<I", _read_exact(handle, 4, "array count"))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(handle, 2, "array name length"))
            try:
                name = _read_exact(handle, name_len, "array name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: array name is not UTF-8: {exc}") from exc
            (ndim,) = struct.unpack("<B", _read_exact(handle, 1, "array rank"))
            shape = tuple(
                struct.unpack("<Q", _read_exact(handle, 8, "array dim"))[0] for _ in range(ndim)
            )
            raw = _read_exact(handle, 8 * math.prod(shape), f"array {name} data")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if handle.read(1):
            raise DataError(f"{path}: trailing bytes after the last array")

    tagset = TagSet(schema)
    d_emb, hidden = meta.get("d_emb"), meta.get("hidden")
    if not all(type(n) is int and n > 0 for n in (d_emb, hidden)):
        raise DataError(f"{path}: d_emb and hidden must be positive integers")
    shapes = param_shapes(len(vocab), len(tagset), d_emb, hidden)
    if set(arrays) != set(shapes):
        raise DataError(f"{path}: model file arrays {sorted(arrays)} != {list(shapes)}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise DataError(
                f"{path}: array {name} has shape {arrays[name].shape}, expected {shape}"
            )
    return TaggerModel(vocab, tagset, {name: arrays[name] for name in shapes})
