"""Dynamic entity replacement and masking for BIO training sentences.

Each application touches at most one entity per sentence. The action is
sampled as replace / mask / no-op with probabilities 0.30 / 0.30 / 0.40:

- replace: swap one entity's surface for a same-type dictionary surface,
  realigning tags to the new length (the sentence may grow or shrink);
- mask: overwrite a few characters inside one entity with ``MASK_SYMBOL``,
  which the tagger vocabulary reserves, leaving all tags untouched (one
  character for entities up to 5 chars, 20% of the length above that);
- no-op: return the sentence unchanged.

Augmentation is re-sampled every epoch from the pristine corpus, never
compounded. When a sentence has no entities, or no alternative surface
exists for the drawn entity's type, the action degrades to a no-op.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from emrkg._np import np
from emrkg.corpus import BioSentence, from_bio
from emrkg.errors import ConfigError, DataError, is_real, read_lines, write_file
from emrkg.schema import span_type

log = logging.getLogger(__name__)

MASK_SYMBOL = "□"

REPLACE = "Replace"
MASK = "Mask"
NOOP = "Noop"


@dataclass(frozen=True)
class EntityDictionary:
    """Type-keyed surface forms, each stored sorted for deterministic sampling."""

    by_type: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        clean = {}
        for etype, surfaces in self.by_type.items():
            if any(not s for s in surfaces):
                raise DataError(f"empty surface form under type {etype!r}")
            clean[etype] = tuple(sorted(set(surfaces)))
        object.__setattr__(self, "by_type", clean)

    def surfaces(self, etype: str) -> tuple[str, ...]:
        return self.by_type.get(etype, ())

    def all_surfaces(self) -> list[str]:
        return [s for surfaces in self.by_type.values() for s in surfaces]


@dataclass(frozen=True)
class DermConfig:
    p_replace: float = 0.30
    p_mask: float = 0.30
    p_noop: float = 0.40
    short_threshold: int = 5
    mask_fraction: float = 0.20

    def __post_init__(self) -> None:
        probs = (self.p_replace, self.p_mask, self.p_noop)
        if not all(is_real(p) and 0.0 <= p <= 1.0 for p in probs):
            raise ConfigError(f"action probabilities must be numbers in [0,1]: {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError(f"action probabilities must sum to 1: {probs}")
        if type(self.short_threshold) is not int or self.short_threshold < 1:
            raise ConfigError(f"short_threshold must be an int >= 1, got {self.short_threshold!r}")
        if not (is_real(self.mask_fraction) and 0.0 < self.mask_fraction <= 1.0):
            raise ConfigError(f"mask_fraction must lie in (0,1], got {self.mask_fraction!r}")


@dataclass(frozen=True)
class DermOutcome:
    sentence: BioSentence
    action: str


def build_dictionary(
    sentences: list[BioSentence], kb_names: dict[str, tuple[str, ...]] | None = None
) -> EntityDictionary:
    """Collect per-type surface sets from the entities of BIO sentences,
    merging in knowledge-base name lists keyed by canonical entity type."""
    by_type: dict[str, set[str]] = {}
    for sentence in sentences:
        for label, start, end in from_bio(sentence):
            by_type.setdefault(label, set()).add(sentence.chars[start:end])
    for etype, names in (kb_names or {}).items():
        by_type.setdefault(etype, set()).update(names)
    if not by_type:
        log.warning("entity dictionary is empty")
    return EntityDictionary({t: tuple(s) for t, s in by_type.items()})


def mask_count(entity_length: int, config: DermConfig) -> int:
    """Positions to mask: 1 for short entities, otherwise a rounded fraction.

    Rounding is half-up, floored at 1 so masking always does something.
    """
    if entity_length < 1:
        raise ValueError(f"entity_length must be >= 1, got {entity_length}")
    if entity_length <= config.short_threshold:
        return 1
    return max(1, int(config.mask_fraction * entity_length + 0.5))


def derm_transform(
    sentence: BioSentence,
    dictionary: EntityDictionary,
    config: DermConfig,
    rng: np.random.Generator,
) -> DermOutcome:
    """Apply one sampled replace/mask/no-op action to a sentence."""
    roll = rng.random()
    if roll < config.p_replace:
        action = REPLACE
    elif roll < config.p_replace + config.p_mask:
        action = MASK
    else:
        action = NOOP

    entities = from_bio(sentence)
    if action == NOOP or not entities:
        return DermOutcome(sentence, NOOP)

    etype, start, end = entities[int(rng.integers(len(entities)))]

    if action == REPLACE:
        alternatives = [s for s in dictionary.surfaces(etype) if s != sentence.chars[start:end]]
        if not alternatives:
            return DermOutcome(sentence, NOOP)
        replacement = alternatives[int(rng.integers(len(alternatives)))]
        chars = sentence.chars[:start] + replacement + sentence.chars[end:]
        tags = (sentence.tags[:start] + ("B-" + etype,) + ("I-" + etype,) * (len(replacement) - 1)
                + sentence.tags[end:])
        return DermOutcome(BioSentence(chars, tags), REPLACE)

    count = min(mask_count(end - start, config), end - start)
    positions = rng.choice(end - start, size=count, replace=False)
    chars = list(sentence.chars)
    for offset in positions:
        chars[start + int(offset)] = MASK_SYMBOL
    return DermOutcome(BioSentence("".join(chars), sentence.tags), MASK)


def augment_epoch(
    sentences: list[BioSentence],
    dictionary: EntityDictionary,
    config: DermConfig,
    rng: np.random.Generator,
) -> list[DermOutcome]:
    """Apply :func:`derm_transform` independently to every sentence."""
    return [derm_transform(s, dictionary, config, rng) for s in sentences]


def write_dictionary_file(dictionary: EntityDictionary, path: str | Path) -> None:
    """One `type\\tsurface` pair per line, sorted, UTF-8."""
    lines = [
        f"{etype}\t{surface}"
        for etype in sorted(dictionary.by_type)
        for surface in dictionary.by_type[etype]
    ]
    write_file(path, ["\n".join(lines) + "\n"])


def read_dictionary_file(path: str | Path) -> EntityDictionary:
    """The `type\\tsurface` lines of ``path``; each type names a span type in
    any case and is stored in the table's spelling."""
    by_type: dict[str, list[str]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1]:
            raise DataError(f"{path} line {lineno}: expected `type\\tsurface`")
        etype = span_type(parts[0])
        if etype is None:
            raise DataError(f"{path} line {lineno}: type {parts[0]!r} is not a span type")
        by_type.setdefault(etype, []).append(parts[1])
    return EntityDictionary({t: tuple(s) for t, s in by_type.items()})
