"""Training loop: SGD with momentum over per-sentence CRF losses.

All randomness derives from the single config seed through three spawned
streams (parameter init, epoch shuffling, augmentation), so toggling
augmentation never perturbs initialization or shuffle order and two runs
with the same config produce bit-identical logs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from emrkg._np import np
from emrkg.corpus import BioSentence, DatasetSplit
from emrkg.derm import DermConfig, EntityDictionary, augment_epoch
from emrkg.errors import ConfigError, DataError, is_real
from emrkg.metrics import count_matches, precision_recall_f1
from emrkg.schema import EntitySchema
from emrkg.tagger.model import TaggerModel, init_model, predict, sentence_loss_and_grads
from emrkg.tagger.vocab import TagSet, Vocabulary

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 40
    epochs: int = 20
    learning_rate: float = 1e-2
    hidden: int = 128
    d_emb: int = 32
    seed: int = 0
    derm_enabled: bool = False
    gradient_clip: float | None = None
    momentum: float = 0.9
    derm: DermConfig = field(default_factory=DermConfig)

    def __post_init__(self) -> None:
        sizes = (self.batch_size, self.epochs, self.hidden, self.d_emb)
        if not all(type(n) is int and n >= 1 for n in sizes):
            raise ConfigError(f"batch_size, epochs, hidden and d_emb must be positive ints: {sizes}")
        if not (is_real(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be a positive number, got {self.learning_rate!r}")
        clip = self.gradient_clip
        if clip is not None and not (is_real(clip) and clip > 0):
            raise ConfigError(f"gradient_clip must be a positive number or null, got {clip!r}")
        if not (is_real(self.momentum) and 0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must be a number in [0,1), got {self.momentum!r}")
        if type(self.derm_enabled) is not bool:
            raise ConfigError(f"derm_enabled must be true or false, got {self.derm_enabled!r}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    precision: float
    recall: float
    f1: float


@dataclass
class TrainResult:
    model: TaggerModel  # parameters from the best-validation-F1 epoch
    log: list[EpochRecord]
    best_epoch: int


def _evaluate(model: TaggerModel, sentences: tuple[BioSentence, ...]) -> tuple[float, float, float]:
    if not sentences:
        return 0.0, 0.0, 0.0
    report = precision_recall_f1(count_matches(list(sentences), predict(model, list(sentences))))
    return report.micro.precision, report.micro.recall, report.micro.f1


def train(
    split: DatasetSplit,
    dictionary: EntityDictionary,
    config: TrainConfig,
    schema: EntitySchema | None = None,
) -> TrainResult:
    """Train a tagger on ``split.train``, validating each epoch.

    The vocabulary covers the training characters plus every dictionary
    surface (so replacement never introduces out-of-vocabulary characters),
    regardless of whether augmentation is enabled. Returns the parameters
    of the epoch with the best validation F1 (ties go to the later epoch).
    """
    if not split.train:
        raise DataError("empty training set")
    schema = schema or EntitySchema()

    root = np.random.SeedSequence(config.seed)
    init_seq, shuffle_seq, derm_seq = root.spawn(3)
    init_rng = np.random.default_rng(init_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    derm_rng = np.random.default_rng(derm_seq)

    vocab = Vocabulary.build(
        (s.chars for s in split.train), extra=dictionary.all_surfaces()
    )
    tagset = TagSet(schema)
    model = init_model(vocab, tagset, config.d_emb, config.hidden, init_rng)

    params = model.params
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}

    records: list[EpochRecord] = []
    best_f1 = -1.0
    best_epoch = 0
    best_params: dict[str, np.ndarray] = {}

    pristine = list(split.train)
    for epoch in range(1, config.epochs + 1):
        if config.derm_enabled:
            sentences = [o.sentence for o in augment_epoch(pristine, dictionary, config.derm, derm_rng)]
        else:
            sentences = pristine
        encoded = [
            (vocab.encode(s.chars), tagset.encode(s.tags)) for s in sentences
        ]

        order = shuffle_rng.permutation(len(encoded))
        total_loss = 0.0
        for batch_start in range(0, len(order), config.batch_size):
            batch = order[batch_start : batch_start + config.batch_size]
            grads = {name: np.zeros_like(arr) for name, arr in params.items()}
            for idx in batch:
                chars_idx, tags_idx = encoded[idx]
                loss, sent_grads = sentence_loss_and_grads(model, chars_idx, tags_idx)
                total_loss += loss
                for name in grads:
                    grads[name] += sent_grads[name]
            scale = 1.0 / len(batch)
            for name in grads:
                grads[name] *= scale

            if config.gradient_clip is not None:
                norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                if norm > config.gradient_clip:
                    ratio = config.gradient_clip / norm
                    for name in grads:
                        grads[name] *= ratio

            # Forbidden transitions stay -inf: their gradient, and so
            # their velocity, is always 0.
            for name, arr in params.items():
                velocity[name] = config.momentum * velocity[name] + grads[name]
                arr -= config.learning_rate * velocity[name]

        mean_loss = total_loss / len(encoded)
        if not np.isfinite(mean_loss):
            raise DataError(
                f"non-finite loss {mean_loss} at epoch {epoch}; "
                f"reduce learning_rate (currently {config.learning_rate})"
            )

        precision, recall, f1 = _evaluate(model, split.validation)
        records.append(EpochRecord(epoch, mean_loss, precision, recall, f1))
        log.info("epoch %d loss %.4f val P %.3f R %.3f F1 %.3f", epoch, mean_loss, precision, recall, f1)

        if f1 >= best_f1:
            best_f1 = f1
            best_epoch = epoch
            best_params = {name: arr.copy() for name, arr in params.items()}

    best_model = TaggerModel(model.vocab, model.tagset, best_params)
    return TrainResult(model=best_model, log=records, best_epoch=best_epoch)
