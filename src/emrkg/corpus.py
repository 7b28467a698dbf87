"""Standoff-annotated clinical text: parsing, segmentation and BIO conversion.

Input documents are pairs of `<name>.txt` (UTF-8 text) and `<name>.ann`
(tab-separated standoff records, one entity per line):

    T1<TAB>Disease 280 291<TAB>右侧肩背部隐痛不适两周

Offsets are Unicode character offsets (not bytes); the end offset is
exclusive. Each document is tagged B-t/I-t/O once per character, then
cut at sentence-final punctuation and hard-wrapped to ``max_len``
characters into BIO sentences.
"""

from __future__ import annotations

import logging
from collections.abc import Collection
from dataclasses import dataclass, field
from pathlib import Path

from emrkg._np import np
from emrkg.errors import DataError, read_text, require_utf8_name, write_file
from emrkg.schema import EntitySchema

log = logging.getLogger(__name__)

SENTENCE_DELIMITERS = "。！？；"

# Delimiters that terminate a sentence but are dropped from the output
# sentence (a raw newline inside a sentence would corrupt the one-token-per-line
# BIO file format).
DROPPED_DELIMITERS = "\n"


@dataclass(frozen=True)
class EntitySpan:
    """One standoff annotation anchored to the document text."""

    id: str
    label: str
    start: int
    end: int
    surface: str

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class AnnotatedDocument:
    doc_id: str
    text: str
    spans: list[EntitySpan]


@dataclass
class ValidationReport:
    """Spans rejected during parsing, with the reason."""

    dropped: list[tuple[str, EntitySpan, str]] = field(default_factory=list)

    def record(self, doc_id: str, span: EntitySpan, reason: str) -> None:
        self.dropped.append((doc_id, span, reason))
        log.warning("%s: dropped span %s [%d,%d): %s", doc_id, span.id, span.start, span.end, reason)


@dataclass(frozen=True)
class BioSentence:
    """Parallel character / BIO tag sequences.

    Tags are drawn from {O} ∪ {B-t, I-t}. Construction validates length
    parity and BIO well-formedness (an I-t may only follow B-t or I-t of the
    same type). The segmentation length limit is a postcondition of
    :func:`segment`, not of this container: augmentation may legitimately
    lengthen a sentence past it.
    """

    chars: str
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.chars) != len(self.tags):
            raise DataError(f"{len(self.chars)} chars vs {len(self.tags)} tags")
        prev = "O"
        for i, tag in enumerate(self.tags):
            # an O, or a repeat of the tag before it (checked already), is legal
            if tag != "O" and tag != prev:
                if tag.startswith("I-"):
                    if prev != "B-" + tag[2:]:
                        raise DataError(f"tag {tag!r} at position {i} follows {prev!r}")
                elif not tag.startswith("B-"):
                    raise DataError(f"unrecognized tag {tag!r} at position {i}")
            prev = tag

    def __len__(self) -> int:
        return len(self.chars)


@dataclass(frozen=True)
class DatasetSplit:
    """Train/validation/test partition of a sentence list.

    :func:`split_dataset` produces 8:1:1 proportions; instances built
    directly (e.g. from pre-split corpora on disk) only guarantee the parts
    are disjoint lists of sentences.
    """

    train: tuple[BioSentence, ...]
    validation: tuple[BioSentence, ...]
    test: tuple[BioSentence, ...]


def parse_ann(
    ann_content: str,
    txt_content: str,
    schema: EntitySchema,
    doc_id: str = "",
    report: ValidationReport | None = None,
) -> AnnotatedDocument:
    r"""Parse standoff annotation lines against their source text.

    Every span is validated: offsets in bounds, surface equal to the text
    slice, label resolvable in the schema (case-insensitive). Overlapping
    spans keep the earlier-listed one; the later one is dropped and
    recorded, with a warning, in ``report`` (a fresh one if none is
    given). Lines end at "\n" only, as in :func:`emrkg.errors.read_lines`,
    so a surface may hold U+2028.
    """
    spans: list[EntitySpan] = []
    for lineno, raw in enumerate(ann_content.split("\n"), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t", 2)
        if len(parts) != 3:
            raise DataError(f"{doc_id} line {lineno}: expected 3 tab-separated fields")
        span_id, mid, surface = parts
        mid_parts = mid.split()
        if len(mid_parts) != 3:
            raise DataError(
                f"{doc_id} line {lineno}: expected `<label> <start> <end>`, got {mid!r}"
            )
        label_raw, start_s, end_s = mid_parts
        try:
            start, end = int(start_s), int(end_s)
        except ValueError:
            raise DataError(f"{doc_id} line {lineno}: non-integer offsets {mid!r}") from None
        label = schema.canonical(label_raw)
        if label is None:
            raise DataError(f"{doc_id} line {lineno}: label {label_raw!r} not in schema")
        if not (0 <= start < end <= len(txt_content)):
            raise DataError(
                f"{doc_id} line {lineno}: span [{start},{end}) outside text of length {len(txt_content)}"
            )
        if txt_content[start:end] != surface:
            raise DataError(
                f"{doc_id} line {lineno}: text slice {txt_content[start:end]!r} != surface {surface!r}"
            )
        spans.append(EntitySpan(span_id, label, start, end, surface))

    if report is None:
        report = ValidationReport()
    accepted, dropped = _first_fit(spans, len(txt_content))
    for span, clash in dropped:
        report.record(doc_id, span, f"overlaps accepted span {clash.id}")
    return AnnotatedDocument(doc_id=doc_id, text=txt_content, spans=accepted)


def _first_fit(
    spans: list[EntitySpan], length: int
) -> tuple[list[EntitySpan], list[tuple[EntitySpan, EntitySpan]]]:
    """Keep each span of a text of ``length`` chars unless it overlaps one
    kept before it; returns the kept spans and a ``(span, clash)`` pair for
    each other span, ``clash`` being the first kept span it overlaps."""
    taken = bytearray(length)  # 1 at each char a kept span covers
    kept: list[EntitySpan] = []
    dropped: list[tuple[EntitySpan, EntitySpan]] = []
    for span in spans:
        if taken.find(1, span.start, span.end) < 0:
            taken[span.start : span.end] = b"\x01" * len(span)
            kept.append(span)
        else:  # rare, so the clash is found by a scan
            clash = next(k for k in kept if span.start < k.end and k.start < span.end)
            dropped.append((span, clash))
    return kept, dropped


def segment(doc: AnnotatedDocument, max_len: int = 50) -> list[BioSentence]:
    """Split a document into BIO sentences of at most ``max_len`` chars,
    tagged B-t at a span's start, I-t inside it and O elsewhere.

    Split points fall after sentence-final punctuation (。！？；, kept with
    the preceding sentence) and at newlines (dropped). A delimiter strictly
    inside an entity span, at an I- position, never splits. Sentences still
    longer than ``max_len`` are hard-wrapped; a wrap point landing inside a
    span moves back to the span's B- position so entities are never cut.
    Overlapping spans, an entity longer than ``max_len`` and a span dropped
    with its newline raise ``DataError``.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    text, spans = doc.text, doc.spans
    _, overlaps = _first_fit(spans, len(text))
    if overlaps:
        span, clash = overlaps[0]
        raise DataError(f"{doc.doc_id}: spans {clash.id} and {span.id} overlap")
    tags = tags_for_spans(len(text), [(s.label, s.start, s.end) for s in spans])

    def inside(pos: int) -> bool:
        """Whether ``pos`` lies strictly inside a span."""
        return pos < len(tags) and tags[pos][0] == "I"

    # Sentence pass: [start, end) slices between delimiter-induced cuts.
    bounds: list[tuple[int, int]] = []
    start = 0
    for i, ch in enumerate(text):
        if ch in DROPPED_DELIMITERS and not inside(i) and not inside(i + 1):
            bounds.append((start, i))
            start = i + 1
        elif ch in SENTENCE_DELIMITERS and not inside(i + 1):
            bounds.append((start, i + 1))
            start = i + 1
    bounds.append((start, len(text)))

    sentences: list[BioSentence] = []
    for sent_start, sent_end in bounds:
        pos = sent_start
        while pos < sent_end:
            cut = min(pos + max_len, sent_end)
            if inside(cut):
                while tags[cut][0] != "B":
                    cut -= 1
                if cut == pos:
                    blocker = next(s for s in spans if s.start == cut)
                    raise DataError(
                        f"{doc.doc_id}: entity {blocker.id} ({blocker.end - blocker.start} chars) "
                        f"exceeds max_len {max_len}"
                    )
            sentences.append(BioSentence(text[pos:cut], tags[pos:cut]))
            pos = cut

    emitted = sum(1 for sentence in sentences for tag in sentence.tags if tag[0] == "B")
    if emitted != len(spans):
        raise DataError(
            f"{doc.doc_id}: {len(spans) - emitted} span(s) lost during segmentation"
        )
    return sentences


def from_bio(sentence: BioSentence) -> list[tuple[str, int, int]]:
    """Recover (type, start, end) spans from a well-formed BIO sentence."""
    spans: list[tuple[str, int, int]] = []
    open_type: str | None = None
    open_start = 0
    for i, tag in enumerate(sentence.tags):
        if tag.startswith("B-"):
            if open_type is not None:
                spans.append((open_type, open_start, i))
            open_type, open_start = tag[2:], i
        elif tag.startswith("I-"):
            if open_type != tag[2:]:
                raise DataError(f"I-{tag[2:]} at position {i} without matching B-")
        else:
            if open_type is not None:
                spans.append((open_type, open_start, i))
                open_type = None
    if open_type is not None:
        spans.append((open_type, open_start, len(sentence.tags)))
    return spans


def tags_for_spans(length: int, spans: list[tuple[str, int, int]]) -> tuple[str, ...]:
    """Inverse helper of :func:`from_bio` for span lists without surfaces."""
    tags = ["O"] * length
    for label, start, end in spans:
        tags[start] = "B-" + label
        for pos in range(start + 1, end):
            tags[pos] = "I-" + label
    return tuple(tags)


def split_dataset(sentences: list[BioSentence], seed: int) -> DatasetSplit:
    """Deterministic shuffled 8:1:1 split (half-up rounding, remainder to train)."""
    n = len(sentences)
    if n < 10:
        raise DataError(f"need at least 10 sentences, got {n}")
    n_val = int(n * 0.1 + 0.5)
    n_test = n_val
    n_train = n - n_val - n_test
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [sentences[i] for i in order]
    return DatasetSplit(
        train=tuple(shuffled[:n_train]),
        validation=tuple(shuffled[n_train : n_train + n_val]),
        test=tuple(shuffled[n_train + n_val :]),
    )


def write_bio_file(sentences: list[BioSentence], path: str | Path) -> None:
    """One `<char>\\t<tag>` line per character, blank line between sentences."""
    lines = []
    for sent in sentences:
        for ch, tag in zip(sent.chars, sent.tags):
            lines.append(f"{ch}\t{tag}")
        lines.append("")
    write_file(path, ["\n".join(lines)])


def read_bio_file(path: str | Path, tagset: Collection[str] | None = None) -> list[BioSentence]:
    """The sentences of a BIO file, one `<char>\\t<tag>` line per character
    and a blank line after each sentence. A malformed line, or a sentence
    whose tags are not well-formed BIO or, given ``tagset``, not all in it,
    raises ``DataError`` naming the file and the line (for a sentence, the
    line of its first character)."""
    allowed = None if tagset is None else frozenset(tagset)
    sentences: list[BioSentence] = []
    chars: list[str] = []
    tags: list[str] = []
    # a blank line after the last, so that every sentence ends at one
    for lineno, line in enumerate(read_text(path).split("\n") + [""], start=1):
        if line == "":
            if chars:
                try:
                    sentences.append(BioSentence("".join(chars), tuple(tags)))
                    if allowed is not None and not allowed.issuperset(tags):
                        stray = next(t for t in tags if t not in allowed)
                        raise DataError(f"tag {stray!r} not in tag set")
                except DataError as exc:
                    raise DataError(f"{path} line {lineno - len(chars)}: {exc}") from exc
                chars, tags = [], []
            continue
        parts = line.split("\t")
        if len(parts) != 2 or len(parts[0]) != 1:
            raise DataError(f"{path} line {lineno}: expected `<char>\\t<tag>`")
        chars.append(parts[0])
        tags.append(parts[1])
    return sentences


def load_document_pair(
    txt_path: str | Path,
    schema: EntitySchema,
    report: ValidationReport | None = None,
) -> AnnotatedDocument:
    """Load a `<name>.txt` / `<name>.ann` pair; doc_id is the stem."""
    txt_path = Path(txt_path)
    ann_path = txt_path.with_suffix(".ann")
    text = read_text(txt_path)
    ann = read_text(ann_path) if ann_path.exists() else ""
    return parse_ann(ann, text, schema, doc_id=txt_path.stem, report=report)


def corpus_files(corpus_dir: str | Path) -> tuple[list[Path], list[Path]]:
    """A corpus directory's .txt files and its .ann files, each sorted by
    name. A path that does not encode as UTF-8 is a data error, since no
    output file could record it."""
    corpus_dir = Path(corpus_dir)
    texts, annotations = sorted(corpus_dir.glob("*.txt")), sorted(corpus_dir.glob("*.ann"))
    for path in texts + annotations:
        require_utf8_name(path)
    return texts, annotations


def load_corpus_dir(
    corpus_dir: str | Path,
    schema: EntitySchema,
    report: ValidationReport | None = None,
) -> list[AnnotatedDocument]:
    """Load every .txt/.ann pair in a directory, sorted by name."""
    texts, _ = corpus_files(corpus_dir)
    if not texts:
        raise DataError(f"no .txt files under {corpus_dir}")
    return [load_document_pair(p, schema, report) for p in texts]
