"""Character vocabulary and BIO tag set for the tagger."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from emrkg._np import np
from emrkg.derm import MASK_SYMBOL
from emrkg.errors import DataError
from emrkg.schema import EntitySchema

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


@dataclass(frozen=True)
class Vocabulary:
    """Dense char-to-index map with reserved padding/unknown/mask entries."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.tokens)) != len(self.tokens):
            raise DataError("vocabulary tokens must be unique")
        for reserved in (PAD_TOKEN, UNK_TOKEN, MASK_SYMBOL):
            if reserved not in self.tokens:
                raise DataError(f"vocabulary is missing reserved token {reserved!r}")
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})

    @classmethod
    def build(cls, texts: Iterable[str], extra: Iterable[str] = ()) -> "Vocabulary":
        """Reserved tokens first, then every distinct character sorted by codepoint."""
        chars = {ch for text in texts for ch in text}
        chars.update(ch for text in extra for ch in text)
        chars -= {PAD_TOKEN, UNK_TOKEN, MASK_SYMBOL}
        return cls((PAD_TOKEN, UNK_TOKEN, MASK_SYMBOL) + tuple(sorted(chars)))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, text: str) -> np.ndarray:
        unk = self.index[UNK_TOKEN]
        return np.array([self.index.get(ch, unk) for ch in text], dtype=np.intp)


@dataclass(frozen=True)
class TagSet:
    """Ordered tags {O} ∪ {B-t, I-t} plus virtual START/STOP transition slots."""

    schema: EntitySchema
    tags: tuple[str, ...] = field(init=False, compare=False)
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tags = ["O"]
        for etype in self.schema:
            tags.append("B-" + etype)
            tags.append("I-" + etype)
        object.__setattr__(self, "tags", tuple(tags))
        object.__setattr__(self, "index", {t: i for i, t in enumerate(tags)})

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def start(self) -> int:
        return len(self.tags)

    @property
    def stop(self) -> int:
        return len(self.tags) + 1

    def encode(self, tags: Iterable[str]) -> np.ndarray:
        try:
            return np.array([self.index[t] for t in tags], dtype=np.intp)
        except KeyError as err:
            raise DataError(f"tag {err.args[0]!r} not in tag set") from None

    def decode(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(map(self.tags.__getitem__, indices))

    def allowed_transitions(self) -> np.ndarray:
        """Boolean (K+2)x(K+2) mask of structurally legal transitions.

        I-t may only follow B-t or I-t of the same type; nothing transitions
        out of STOP or into START. Everything else is legal.
        """
        k = len(self.tags)
        allowed = np.ones((k + 2, k + 2), dtype=bool)
        for j, tag in enumerate(self.tags):
            if not tag.startswith("I-"):
                continue
            for i, prev in enumerate(self.tags):
                if prev not in ("B-" + tag[2:], "I-" + tag[2:]):
                    allowed[i, j] = False
            allowed[self.start, j] = False
        allowed[:, self.start] = False
        allowed[self.stop, :] = False
        return allowed
