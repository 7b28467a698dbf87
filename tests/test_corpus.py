"""Standoff parsing, segmentation, BIO conversion and dataset splitting."""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emrkg.corpus import (
    AnnotatedDocument,
    BioSentence,
    DatasetSplit,
    EntitySpan,
    ValidationReport,
    from_bio,
    load_corpus_dir,
    load_document_pair,
    parse_ann,
    read_bio_file,
    segment,
    split_dataset,
    tags_for_spans,
    write_bio_file,
)
from emrkg.errors import DataError
from emrkg.schema import DEFAULT_ENTITY_TYPES, EntitySchema
from tests.oracles import first_fit_spans, segment_by_scan
from tests.support import SEPARATOR_NAMES


# -- standoff parsing ----------------------------------------------------

SURFACE = "右侧肩背部隐痛不适两周"
TEXT = "前" * 280 + SURFACE + "后" * 20
ANN = f"T1\tdisease 280 291\t{SURFACE}"


def test_parse_ann_reference_line(schema):
    doc = parse_ann(ANN, TEXT, schema, doc_id="doc1")
    assert len(doc.spans) == 1
    span = doc.spans[0]
    assert span.id == "T1"
    assert span.label == "Disease"  # case-insensitive label resolution
    assert (span.start, span.end) == (280, 291)
    assert span.surface == SURFACE
    assert TEXT[span.start : span.end] == SURFACE


def test_parse_ann_multiple_lines_keep_file_order(schema):
    text = "头痛发热咳嗽"
    ann = "T2\tSymptom 2 4\t发热\nT1\tsymptom 0 2\t头痛\n"
    doc = parse_ann(ann, text, schema)
    assert [s.id for s in doc.spans] == ["T2", "T1"]
    assert [s.surface for s in doc.spans] == ["发热", "头痛"]


def test_parse_ann_skips_blank_lines(schema):
    doc = parse_ann("\n" + ANN + "\n\n", TEXT, schema)
    assert len(doc.spans) == 1


# each malformed .ann line, and the message it raises
_MALFORMED_ANN = {
    "T1 disease 280 291 " + SURFACE:  # spaces, no tabs
        "^doc1 line 1: expected 3 tab-separated fields$",
    f"T1\tdisease 280\t{SURFACE}":  # missing end offset
        "^doc1 line 1: expected `<label> <start> <end>`, got 'disease 280'$",
    f"T1\tdisease 280 291 x\t{SURFACE}":  # extra mid field
        "^doc1 line 1: expected `<label> <start> <end>`, got 'disease 280 291 x'$",
    f"T1\tdisease a b\t{SURFACE}":  # non-integer offsets
        "^doc1 line 1: non-integer offsets 'disease a b'$",
    f"T1\tgene 280 291\t{SURFACE}": "^doc1 line 1: label 'gene' not in schema$",
    f"T1\tdisease 280 405\t{SURFACE}":
        rf"^doc1 line 1: span \[280,405\) outside text of length {len(TEXT)}$",
    f"T1\tdisease 291 280\t{SURFACE}":  # inverted
        rf"^doc1 line 1: span \[291,280\) outside text of length {len(TEXT)}$",
    f"T1\tdisease 279 290\t{SURFACE}":  # shifted slice
        f"^doc1 line 1: text slice '{TEXT[279:290]}' != surface '{SURFACE}'$",
}


@pytest.mark.parametrize("ann", list(_MALFORMED_ANN))
def test_parse_ann_rejects_malformed_lines(schema, ann):
    with pytest.raises(DataError, match=_MALFORMED_ANN[ann]):
        parse_ann(ann, TEXT, schema, doc_id="doc1")


def test_parse_ann_error_names_the_line(schema):
    ann = ANN + "\nT2\tdisease x y\t" + SURFACE
    with pytest.raises(DataError, match="^ line 2: non-integer offsets 'disease x y'$"):
        parse_ann(ann, TEXT, schema)


def test_parse_ann_drops_overlapping_span_and_reports(schema, caplog):
    text = "肝癌伴腹痛"
    ann = "T1\tDisease 0 2\t肝癌\nT2\tSymptom 1 4\t癌伴腹\nT3\tSymptom 3 5\t腹痛"
    report = ValidationReport()
    doc = parse_ann(ann, text, schema, doc_id="d", report=report)
    assert [s.id for s in doc.spans] == ["T1", "T3"]
    assert len(report.dropped) == 1
    doc_id, dropped_span, reason = report.dropped[0]
    assert (doc_id, dropped_span.id) == ("d", "T2")
    assert "T1" in reason
    # without a report, the drop is logged as a report records it
    caplog.clear()
    assert parse_ann(ann, text, schema, doc_id="d").spans == doc.spans
    assert caplog.messages == ["d: dropped span T2 [1,4): overlaps accepted span T1"]


@pytest.mark.parametrize("name", SEPARATOR_NAMES)
def test_parse_ann_keeps_a_surface_holding_a_line_separator(schema, name):
    doc = parse_ann(f"T1\tDisease 0 3\t{name}\n", name + "伴腹痛", schema)
    assert [(s.label, s.start, s.end, s.surface) for s in doc.spans] == [("Disease", 0, 3, name)]


@pytest.mark.parametrize("name", SEPARATOR_NAMES)
def test_standoff_pair_holding_a_line_separator_converts_to_bio(tmp_path, schema, name):
    (tmp_path / "d1.txt").write_text(name + "伴腹痛。", encoding="utf-8")
    (tmp_path / "d1.ann").write_text(
        f"T1\tDisease 0 3\t{name}\nT2\tSymptom 4 6\t腹痛\n", encoding="utf-8"
    )
    (doc,) = load_corpus_dir(tmp_path, schema)
    (sentence,) = segment(doc)
    assert sentence.chars == name + "伴腹痛。"
    assert from_bio(sentence) == [("Disease", 0, 3), ("Symptom", 4, 6)]


# -- segmentation ----------------------------------------------------------


def _doc(text: str, spans: list[tuple[str, int, int]]) -> AnnotatedDocument:
    entity_spans = [
        EntitySpan(f"T{i}", label, start, end, text[start:end])
        for i, (label, start, end) in enumerate(spans, start=1)
    ]
    return AnnotatedDocument("doc", text, entity_spans)


def test_segment_splits_on_sentence_punctuation_keeping_it():
    doc = _doc("头痛。发热！咳嗽？乏力；结束", [])
    assert [s.chars for s in segment(doc)] == ["头痛。", "发热！", "咳嗽？", "乏力；", "结束"]


def test_segment_drops_newlines():
    doc = _doc("第一行\n第二行", [])
    assert [s.chars for s in segment(doc)] == ["第一行", "第二行"]


def test_segment_never_splits_inside_an_entity():
    text = "主诉腹痛。呕吐数日"
    doc = _doc(text, [("Symptom", 3, 6)])  # 痛。呕 straddles the delimiter
    (sentence,) = segment(doc)
    assert sentence.chars == text
    assert from_bio(sentence) == [("Symptom", 3, 6)]


def test_segment_remaps_spans_to_local_coordinates():
    text = "头痛。腹痛加重"
    doc = _doc(text, [("Symptom", 0, 2), ("Symptom", 3, 5)])
    first, second = segment(doc)
    assert from_bio(first) == from_bio(second) == [("Symptom", 0, 2)]
    assert second.chars[0:2] == "腹痛"


def test_segment_hard_wraps_long_sentences():
    doc = _doc("字" * 120, [])
    lengths = [len(s) for s in segment(doc, max_len=50)]
    assert lengths == [50, 50, 20]


def test_segment_wrap_point_moves_back_to_entity_start():
    text = "字" * 48 + "腹腔积液"
    doc = _doc(text, [("Symptom", 48, 52)])
    first, second = segment(doc, max_len=50)
    assert (len(first), second.chars) == (48, "腹腔积液")
    assert from_bio(second) == [("Symptom", 0, 4)]


def test_segment_rejects_entity_longer_than_max_len():
    text = "长" * 60
    doc = _doc(text, [("Disease", 0, 55)])
    with pytest.raises(DataError, match=r"^doc: entity T1 \(55 chars\) exceeds max_len 50$"):
        segment(doc, max_len=50)


# hand-built documents that parse_ann never yields, and the message each raises
_UNTAGGABLE = {
    # T3 overlaps T1 and T2; the first span kept before it is named
    "overlap": (_doc("肝癌伴腹痛", [("Disease", 0, 2), ("Symptom", 3, 5), ("Symptom", 1, 4)]),
                r"^doc: spans T1 and T3 overlap$"),
    # a one-character span on a newline is dropped with it
    "newline-span": (_doc("头痛\n发热", [("Symptom", 0, 2), ("Symptom", 2, 3)]),
                     r"^doc: 1 span\(s\) lost during segmentation$"),
}


@pytest.mark.parametrize("doc, message", _UNTAGGABLE.values(), ids=_UNTAGGABLE.keys())
def test_segment_refuses_a_document_it_cannot_tag(doc, message):
    with pytest.raises(DataError, match=message):
        segment(doc)


def test_segment_conserves_every_span():
    text = "甲状腺结节。乏力两周，复查CT未见异常。\n随访"
    doc = _doc(text, [("Disease", 0, 5), ("Symptom", 6, 8), ("Check", 13, 15)])
    surfaces = [(label, sentence.chars[start:end])
                for sentence in segment(doc) for label, start, end in from_bio(sentence)]
    assert surfaces == [("Disease", "甲状腺结节"), ("Symptom", "乏力"), ("Check", "CT")]


# -- against the scanning reference ----------------------------------------


def _long_note(rng: random.Random, overlaps: bool) -> AnnotatedDocument:
    """A seeded note of 2k-6k chars, dense with spans of up to 30 chars;
    with ``overlaps`` about one span in five overlaps its predecessor, as a
    hand-built document may."""
    alphabet = "肝癌症状腹痛头晕恶心治疗检查手术，、a1" * 4 + "。！？；\n"
    text = "".join(rng.choice(alphabet) for _ in range(rng.randint(2000, 6000)))
    spans: list[EntitySpan] = []
    cursor = rng.randint(0, 5)
    while cursor < len(text):
        end = min(len(text), cursor + rng.randint(1, 30))
        spans.append(EntitySpan(f"T{len(spans) + 1}", rng.choice(DEFAULT_ENTITY_TYPES),
                                cursor, end, text[cursor:end]))
        if overlaps and rng.random() < 0.2:
            cursor = rng.randint(max(0, cursor - 10), end)
        else:
            cursor = end + rng.randint(0, 12)
    rng.shuffle(spans)  # file order need not be text order
    return AnnotatedDocument(f"note{rng.randint(0, 999)}", text, spans)


def _segment_outcome(segmenter, doc: AnnotatedDocument, max_len: int):
    """Each sentence's chars and tags, or the type and message of the error
    raised."""
    try:
        if segmenter is segment:
            return [(sentence.chars, sentence.tags) for sentence in segment(doc, max_len)]
        return segment_by_scan(doc.doc_id, doc.text, doc.spans, max_len)
    except DataError as exc:
        return type(exc), str(exc)


def test_segment_matches_scanning_reference_on_fixtures(corpus_dir, schema):
    for doc in load_corpus_dir(corpus_dir, schema):
        for max_len in (2, 8, 20, 50, 200):
            want = _segment_outcome(segment_by_scan, doc, max_len)
            assert _segment_outcome(segment, doc, max_len) == want, (doc.doc_id, max_len)


# the three faults a segmentation can meet
_SEGMENT_FAULT = re.compile(r"overlap|exceeds max_len|lost during segmentation")


def test_segment_matches_scanning_reference_on_long_notes():
    rng = random.Random(29)
    outcomes = Counter()
    for n in range(24):
        doc = _long_note(rng, overlaps=n % 3 == 0)
        for max_len in (16, 40, 120):
            want = _segment_outcome(segment_by_scan, doc, max_len)
            assert _segment_outcome(segment, doc, max_len) == want, (n, max_len)
            outcomes[_SEGMENT_FAULT.search(want[1])[0] if isinstance(want, tuple)
                     else "segments"] += 1
    # the comparison covers both errors and successful segmentations
    assert set(outcomes) == {"segments", "overlap", "exceeds max_len",
                             "lost during segmentation"}, outcomes


def test_parse_ann_overlap_check_matches_first_fit_reference(schema):
    rng = random.Random(31)
    for _ in range(20):
        doc = _long_note(rng, overlaps=True)
        ann = "\n".join(f"{s.id}\t{s.label} {s.start} {s.end}\t{s.surface}"
                        for s in doc.spans if "\n" not in s.surface)
        report = ValidationReport()
        got = parse_ann(ann, doc.text, schema, doc_id=doc.doc_id, report=report)
        written = [s for s in doc.spans if "\n" not in s.surface]
        want, dropped = first_fit_spans(written)
        assert got.spans == want
        assert report.dropped == [
            (doc.doc_id, span, f"overlaps accepted span {clash.id}") for span, clash in dropped
        ]
        assert dropped


# -- BIO conversion ----------------------------------------------------------


def test_segment_tags_exactly():
    doc = _doc("伴腹痛明显", [("Symptom", 1, 3)])
    (sentence,) = segment(doc)
    assert sentence.chars == "伴腹痛明显"
    assert sentence.tags == ("O", "B-Symptom", "I-Symptom", "O", "O")


def test_from_bio_recovers_spans_in_positional_order():
    sentence = BioSentence(
        "肝癌伴腹痛",
        ("B-Disease", "I-Disease", "O", "B-Symptom", "I-Symptom"),
    )
    assert from_bio(sentence) == [("Disease", 0, 2), ("Symptom", 3, 5)]


def test_from_bio_handles_adjacent_entities_and_sentence_end():
    sentence = BioSentence("腹痛水肿", ("B-Symptom", "I-Symptom", "B-Symptom", "I-Symptom"))
    assert from_bio(sentence) == [("Symptom", 0, 2), ("Symptom", 2, 4)]


def test_tags_for_spans_inverts_from_bio():
    tags = ("O", "B-Disease", "I-Disease", "O", "B-Check")
    sentence = BioSentence("术后肝癌查", tags)
    assert tags_for_spans(len(sentence), from_bio(sentence)) == tags


# each malformed tag sequence for 肝癌, and the message it raises
_MALFORMED_TAGS = {
    ("B-Disease",): "^2 chars vs 1 tags$",  # length mismatch
    ("O", "I-Disease"): "^tag 'I-Disease' at position 1 follows 'O'$",  # I- without B-
    ("B-Disease", "I-Symptom"):  # type switch inside entity
        "^tag 'I-Symptom' at position 1 follows 'B-Disease'$",
    ("B-Disease", "X-Disease"): "^unrecognized tag 'X-Disease' at position 1$",  # unknown prefix
}


@pytest.mark.parametrize("chars, tags", [("肝癌", tags) for tags in _MALFORMED_TAGS])
def test_bio_sentence_rejects_malformed_sequences(chars, tags):
    with pytest.raises(DataError, match=_MALFORMED_TAGS[tags]):
        BioSentence(chars, tags)


# -- round trip ----------------------------------------------------------


def _random_document(rng: random.Random) -> AnnotatedDocument:
    alphabet = "肝癌症状腹痛头晕恶心治疗检查手术，、a1"
    delimiters = "。！？；\n"
    chars = [
        rng.choice(alphabet if rng.random() < 0.8 else delimiters)
        for _ in range(rng.randint(1, 120))
    ]
    text = "".join(chars)
    spans: list[EntitySpan] = []
    cursor = rng.randint(0, 3)
    sid = 1
    while cursor < len(text):
        span_len = rng.randint(1, min(8, len(text) - cursor))
        label = rng.choice(DEFAULT_ENTITY_TYPES)
        end = cursor + span_len
        # A lone dropped-delimiter character is not an annotatable entity.
        if text[cursor:end] != "\n":
            spans.append(EntitySpan(f"T{sid}", label, cursor, end, text[cursor:end]))
            sid += 1
        cursor = end + rng.randint(1, 6)
    return AnnotatedDocument("rand", text, spans)


def assert_round_trip(doc: AnnotatedDocument) -> None:
    recovered = [(label, sentence.chars[start:end])
                 for sentence in segment(doc) for label, start, end in from_bio(sentence)]
    assert recovered == [(s.label, s.surface) for s in sorted(doc.spans, key=lambda s: s.start)]


def test_round_trip_on_random_documents():
    rng = random.Random(13)
    for _ in range(300):
        assert_round_trip(_random_document(rng))


@st.composite
def _documents(draw) -> AnnotatedDocument:
    filler = st.text(alphabet=list("，。！\n肝痛查a1"), max_size=5)
    surface = st.text(alphabet=list("肝癌腹痛。x"), min_size=1, max_size=6)
    parts: list[str] = []
    spans: list[EntitySpan] = []
    cursor = 0
    for i in range(draw(st.integers(0, 6))):
        gap = draw(filler)
        parts.append(gap)
        cursor += len(gap)
        if draw(st.booleans()):
            text = draw(surface)
            label = draw(st.sampled_from(DEFAULT_ENTITY_TYPES))
            spans.append(EntitySpan(f"T{i}", label, cursor, cursor + len(text), text))
            parts.append(text)
            cursor += len(text)
    parts.append(draw(filler))
    return AnnotatedDocument("hyp", "".join(parts), spans)


@settings(max_examples=200, deadline=None)
@given(_documents())
def test_round_trip_property(doc):
    assert_round_trip(doc)


# -- dataset split ----------------------------------------------------------


def _sentences(n: int) -> list[BioSentence]:
    return [BioSentence(f"{i:04d}", ("O",) * 4) for i in range(n)]


def test_split_dataset_811_proportions():
    split = split_dataset(_sentences(50), seed=7)
    assert (len(split.train), len(split.validation), len(split.test)) == (40, 5, 5)


@pytest.mark.parametrize("n, val", [(10, 1), (14, 1), (15, 2), (99, 10), (100, 10)])
def test_split_dataset_rounds_half_up(n, val):
    split = split_dataset(_sentences(n), seed=0)
    assert len(split.validation) == val
    assert len(split.test) == val
    assert len(split.train) == n - 2 * val


def test_split_dataset_partitions_without_loss():
    sentences = _sentences(37)
    split = split_dataset(sentences, seed=3)
    combined = list(split.train) + list(split.validation) + list(split.test)
    assert Counter(combined) == Counter(sentences)


def test_split_dataset_is_seed_deterministic():
    sentences = _sentences(23)
    first = split_dataset(sentences, seed=11)
    second = split_dataset(sentences, seed=11)
    other = split_dataset(sentences, seed=12)
    assert first == second
    assert first != other


def test_split_dataset_requires_ten_sentences():
    with pytest.raises(DataError, match="^need at least 10 sentences, got 9$"):
        split_dataset(_sentences(9), seed=0)


# -- BIO file IO ----------------------------------------------------------


def test_bio_file_round_trip(tmp_path):
    sentences = [
        BioSentence("肝癌", ("B-Disease", "I-Disease")),
        BioSentence("伴腹痛", ("O", "B-Symptom", "I-Symptom")),
    ]
    path = tmp_path / "sents.bio"
    write_bio_file(sentences, path)
    assert read_bio_file(path) == sentences


def test_bio_file_format_is_char_tab_tag(tmp_path):
    path = tmp_path / "one.bio"
    write_bio_file([BioSentence("肝癌", ("B-Disease", "I-Disease"))], path)
    assert path.read_text(encoding="utf-8") == "肝\tB-Disease\n癌\tI-Disease\n"


def test_read_bio_file_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.bio"
    path.write_text("肝癌\tB-Disease\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} line 1: expected "
                                        r"`<char>\\t<tag>`$"):
        read_bio_file(path)


@pytest.mark.parametrize("end", ["\n", ""], ids=["line-feed-at-end", "no-line-feed-at-end"])
@pytest.mark.parametrize("tags", [tags for tags in _MALFORMED_TAGS if len(tags) == 2])
def test_read_bio_file_names_the_first_line_of_a_malformed_sentence(tags, end, tmp_path):
    """A sentence whose tags ``BioSentence`` rejects is named by the line
    of its first character, after the file, whether or not a blank line
    ends it."""
    path = tmp_path / "bad.bio"
    path.write_text(f"腹\tO\n\n\n肝\t{tags[0]}\n癌\t{tags[1]}{end}", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} line 4: {_MALFORMED_TAGS[tags][1:]}"):
        read_bio_file(path)


def test_readers_name_a_file_that_is_not_utf8(tmp_path, schema):
    bio = tmp_path / "gbk.bio"
    bio.write_bytes("肝\tB-Disease\n".encode("gbk"))
    with pytest.raises(DataError, match="gbk.bio"):
        read_bio_file(bio)
    txt = tmp_path / "doc.txt"
    txt.write_bytes("肝癌".encode("gbk"))
    with pytest.raises(DataError, match="doc.txt"):
        load_document_pair(txt, schema)
    txt.write_text("肝癌", encoding="utf-8")
    txt.with_suffix(".ann").write_bytes("T1\tDisease 0 2\t肝癌".encode("gbk"))
    with pytest.raises(DataError, match="doc.ann"):
        load_document_pair(txt, schema)


# -- fixture corpus ----------------------------------------------------------


def test_fixture_corpus_loads_cleanly(corpus_dir, schema):
    report = ValidationReport()
    docs = load_corpus_dir(corpus_dir, schema, report)
    assert len(docs) == 50
    assert report.dropped == []
    assert all(doc.spans for doc in docs)
    sentences = [sentence for doc in docs for sentence in segment(doc)]
    assert len(sentences) == 50
    split = split_dataset(sentences, seed=1)
    assert isinstance(split, DatasetSplit)
