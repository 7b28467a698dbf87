"""In-memory typed property graph with deterministic export.

Node identity is (label, normalized name) where normalization trims
whitespace and unifies full-width ASCII forms with their half-width
equivalents; clinical text mixes both widths freely. Triples are unique
per (head, relation, tail) and every relation constrains its endpoint
labels, so a malformed edge fails fast instead of surfacing as a bad
query result later.

Exports follow one canonical order, defined once in ``canonical_order``:
nodes by (label, normalized name), triples by (head, relation, tail) with
each endpoint ranked by that node order. Node keys are unique, so the order
depends only on the graph's content, never on its insertion history.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
import math
import operator
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, NamedTuple

from emrkg.errors import (
    DataError,
    InternalError,
    decode_record,
    encode_record,
    parse_object,
    read_blocks,
    write_file,
    write_lines,
)
from emrkg.schema import GRAPH_LABELS, PATIENT_LABEL, RELATION_ENDPOINTS, SPAN_TYPE_TO_RELATION

log = logging.getLogger(__name__)

SCHEMA_TAG = "graph/1"


_WIDTH_FOLD = {code: code - 0xFEE0 for code in range(0xFF01, 0xFF5F)} | {0x3000: " "}
# finds a character that _WIDTH_FOLD folds; a name without one folds to itself
_FOLDABLE = re.compile("[" + re.escape("".join(map(chr, sorted(_WIDTH_FOLD)))) + "]").search

_LABELS = frozenset(GRAPH_LABELS)

# every admitted (head label, relation, tail label)
_ENDPOINTS = frozenset((h, r, t) for r, pairs in RELATION_ENDPOINTS.items() for h, t in pairs)
# each relation name to one shared copy, so loaded triples do not each keep their own
_RELATION_NAMES = {relation: relation for relation in RELATION_ENDPOINTS}


def normalize_name(name: str) -> str:
    """Trim and fold full-width ASCII (U+FF01..U+FF5E, ideographic space)
    to half-width so width variants of the same name share one node."""
    name = name.strip()
    return name.translate(_WIDTH_FOLD) if _FOLDABLE(name) else name


@dataclass
class Node:
    id: int
    label: str
    name: str
    attributes: dict = field(default_factory=dict)


class Triple(NamedTuple):
    head: int
    relation: str
    tail: int


def _check_endpoints(nodes: dict[int, Node], head: int, relation: str, tail: int) -> None:
    """Raise unless both endpoints are in ``nodes`` and ``relation``
    admits their labels."""
    if head not in nodes or tail not in nodes:
        missing = head if head not in nodes else tail
        raise DataError(f"triple endpoint id {missing} not in graph")
    head_label, tail_label = nodes[head].label, nodes[tail].label
    if (head_label, relation, tail_label) in _ENDPOINTS:
        return
    if relation not in RELATION_ENDPOINTS:
        raise DataError(f"unknown relation type {relation!r}")
    raise DataError(f"{relation} does not admit {head_label} -> {tail_label}")


# Triple((head, relation, tail)) built in C: NamedTuple's own __new__ is a
# Python function, and a graph-file load spent as long in it as in its checks
_new_triple = functools.partial(tuple.__new__, Triple)


class KnowledgeGraph:
    """Nodes plus unique triples with (label+name), head and tail indexes.

    The triple store and both endpoint indexes are dicts used as
    insertion-ordered sets, so removing a triple costs O(1) and export
    order follows insertion order; an endpoint index makes a node's dict
    when it is first indexed, so read one with ``get``.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, Node] = {}
        self._triples: dict[Triple, None] = {}
        self._by_key: dict[tuple[str, str], int] = {}
        self._by_head: defaultdict[int, dict[Triple, None]] = defaultdict(dict)
        self._by_tail: defaultdict[int, dict[Triple, None]] = defaultdict(dict)
        self._next_id = 1

    @property
    def triples(self) -> list[Triple]:
        """Every triple, in insertion order."""
        return list(self._triples)

    # -- nodes ---------------------------------------------------------

    def upsert_node(self, label: str, name: str, attributes: dict | None = None) -> int:
        """Insert or update the node identified by (label, normalized name);
        on update, incoming attributes overwrite same-named keys."""
        if label not in _LABELS:
            raise DataError(f"unknown node label {label!r}")
        normalized = normalize_name(name)
        if not normalized:
            raise DataError("node name must be non-empty")
        key = (label, normalized)
        node_id = self._by_key.get(key)
        if node_id is None:
            node_id = self._next_id
            self._next_id += 1
            self.nodes[node_id] = Node(node_id, label, name, dict(attributes or {}))
            self._by_key[key] = node_id
        elif attributes:
            self.nodes[node_id].attributes.update(attributes)
        return node_id

    def find_node(self, label: str, name: str) -> Node | None:
        node_id = self._by_key.get((label, normalize_name(name)))
        return self.nodes[node_id] if node_id is not None else None

    # -- triples -------------------------------------------------------

    def _insert_triple(self, head: int, relation: str, tail: int) -> bool:
        """Add one edge, unchecked: the caller's edge is one the schema
        admits between nodes of the graph (see ``_check_endpoints``).
        Re-adding an existing triple is a no-op; returns True if the
        triple was new."""
        triple = _new_triple((head, relation, tail))
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._by_head[head][triple] = None
        self._by_tail[tail][triple] = None
        return True

    def _remove_triple(self, triple: Triple) -> None:
        del self._triples[triple]
        del self._by_head[triple.head][triple]
        del self._by_tail[triple.tail][triple]

    def merge_node_into(self, source_id: int, target_id: int) -> int:
        """Re-point every triple incident to source onto target, then drop
        the source node. Duplicates created by re-pointing collapse.
        Returns the number of re-pointed triples. Every re-pointed triple
        is checked before any is moved, so a merge that fails leaves the
        graph as it was."""
        if source_id not in self.nodes or target_id not in self.nodes:
            raise DataError("merge endpoints must exist")
        if source_id == target_id:
            return 0
        incident = list(self._by_head.get(source_id, {})) + [
            t for t in self._by_tail.get(source_id, {}) if t.head != source_id
        ]
        repointed = [
            (target_id if t.head == source_id else t.head, t.relation,
             target_id if t.tail == source_id else t.tail)
            for t in incident
        ]
        for triple in repointed:
            _check_endpoints(self.nodes, *triple)
        for triple in incident:
            self._remove_triple(triple)
        moved = sum(self._insert_triple(*triple) for triple in repointed)
        node = self.nodes.pop(source_id)
        del self._by_key[(node.label, normalize_name(node.name))]
        self._by_head.pop(source_id, None)
        self._by_tail.pop(source_id, None)
        return moved

    # -- queries -------------------------------------------------------

    def pattern_query(self, head_label: str, head_name: str, relation: str) -> list[Node]:
        """All tail nodes of (head_label {head_name}) -[relation]-> (*),
        sorted by name. Absent head yields an empty list."""
        head = self.find_node(head_label, head_name)
        if head is None:
            return []
        tails = [
            self.nodes[t.tail]
            for t in self._by_head.get(head.id, {})
            if t.relation == relation
        ]
        return sorted(tails, key=lambda n: (n.name, n.id))

    def validate(self) -> None:
        """Check referential integrity and index consistency; raises on
        the first violation found."""
        for key, node_id in self._by_key.items():
            node = self.nodes.get(node_id)
            if node is None or (node.label, normalize_name(node.name)) != key:
                raise InternalError(f"stale name index entry {key!r}")
        if len(self._by_key) != len(self.nodes):
            raise InternalError("name index and node store disagree")
        indexed = [t for ts in self._by_head.values() for t in ts]
        if sorted(indexed) != sorted(self._triples):
            raise InternalError("head index out of sync")
        indexed = [t for ts in self._by_tail.values() for t in ts]
        if sorted(indexed) != sorted(self._triples):
            raise InternalError("tail index out of sync")
        for triple in self._triples:
            _check_endpoints(self.nodes, *triple)


def add_patient_record(
    graph: KnowledgeGraph,
    patient_name: str,
    entities: list[tuple[str, str]],
    attributes: dict | None = None,
) -> int:
    """Insert one patient node plus its extracted (entity type, surface)
    pairs, linked by the per-type patient relation. Returns the patient id."""
    upsert, insert = graph.upsert_node, graph._insert_triple
    patient_id = upsert(PATIENT_LABEL, patient_name, attributes)
    for label, surface in entities:
        relation = SPAN_TYPE_TO_RELATION.get(label)
        if relation is None:
            raise DataError(f"no patient relation for entity type {label!r}")
        insert(patient_id, relation, upsert(label, surface))
    return patient_id


# -- export --------------------------------------------------------------


class CanonicalOrder(NamedTuple):
    """A graph's export order: its nodes sorted by (label, normalized name),
    and its triples as sorted ``(rank of head, relation, rank of tail)``
    tuples, a rank being a node's 1-based place in ``nodes``."""

    nodes: list[Node]
    triples: list[tuple[int, str, int]]


def canonical_order(nodes: Iterable[Node], triples: list[Triple]) -> CanonicalOrder:
    """The export order of a graph's nodes and distinct triples, which both exporters take.
    It consumes ``triples``: each is ranked in place, then sorted, and repeats dropped."""
    nodes = sorted(nodes, key=lambda n: (n.label, normalize_name(n.name)))
    rank = {node.id: i for i, node in enumerate(nodes, start=1)}.__getitem__
    for i, (head, relation, tail) in enumerate(triples):
        triples[i] = (rank(head), relation, rank(tail))
    triples.sort()
    if any(map(operator.eq, triples, itertools.islice(triples, 1, None))):
        triples[:] = [triple for triple, _ in itertools.groupby(triples)]
    return CanonicalOrder(nodes, triples)


@functools.cache
def relation_identifier(relation: str) -> str:
    """CamelCase relation name to the upper snake case used in Cypher,
    e.g. RecommendedFood -> RECOMMENDED_FOOD."""
    out = []
    for i, ch in enumerate(relation):
        if ch.isupper() and i > 0:
            out.append("_")
        out.append(ch.upper())
    return "".join(out)


def _cypher_value(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if not math.isfinite(value):  # a graph file's NaN or Infinity: no Cypher literal
            raise DataError(f"non-finite attribute value {value!r}")
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_cypher_value(v) for v in value) + "]"
    raise DataError(f"unsupported attribute value type {type(value).__name__}")


def export_cypher(order: CanonicalOrder, path: str | Path, source: str | Path) -> int:
    """Write MERGE statements (one per node, one per triple) in the
    canonical order of the graph read from ``source``; structurally
    identical graphs export byte-identically.

    The node statements are rendered before the file is opened: they are
    the only ones that can be refused, so an export that fails writes no
    file. A message naming ``source`` and the node's label and name
    refuses a node with an attribute value ``_cypher_value`` rejects, or
    with an attribute called name, since its MERGE would name the node by
    that value and no MATCH of its triples would find it. The triple
    statements are then written as a stream."""
    statements = []
    match = [""]  # at each node's rank, its "Label {name: ...}" pattern
    for node in order.nodes:
        name = f"name: {_cypher_value(node.name)}"
        pattern = f"{node.label} {{{name}}}"
        if node.attributes:
            try:
                if "name" in node.attributes:
                    raise DataError("attribute 'name' clashes with the node's name")
                rendered = "".join(f", {k}: {_cypher_value(v)}"
                                   for k, v in sorted(node.attributes.items()))
            except DataError as exc:
                raise DataError(f"{source}: node {node.label} {node.name!r}: {exc}") from exc
            statements.append(f"MERGE (n:{node.label} {{{name}{rendered}}});\n")
        else:
            statements.append(f"MERGE (n:{pattern});\n")
        match.append(pattern)
    edges = (
        f"MATCH (a:{match[head]}), (b:{match[tail]}) "
        f"MERGE (a)-[:{relation_identifier(relation)}]->(b);\n"
        for head, relation, tail in order.triples
    )
    write_file(path, itertools.chain(statements, edges))
    return len(statements) + len(order.triples)


# The row ``csv.writer`` writes for a rels.csv row: its excel dialect
# quotes no field that holds only digits or letters, as the ranks and the
# relation names (see RELATION_ENDPOINTS) do, and ends each row in CRLF.
_rels_row = "{},{},{}\r\n".format

# the text ``csv.writer`` writes for a row: ``writerow`` returns what its
# file's ``write`` returns, here the text it was given
_csv_row = csv.writer(SimpleNamespace(write=str)).writerow

# ``json.dumps(value, ensure_ascii=False)``, which builds an encoder per call
_encode_attributes = json.JSONEncoder(ensure_ascii=False).encode


def export_csv(order: CanonicalOrder, nodes_path: str | Path, rels_path: str | Path) -> None:
    """Bulk-import companion to the Cypher export: nodes.csv carries
    canonical re-numbered ids (the ranks) so identical graphs yield
    identical files."""
    rows = (
        (rank, node.label, node.name,
         _encode_attributes(dict(sorted(node.attributes.items()))) if node.attributes else "{}")
        for rank, node in enumerate(order.nodes, start=1)
    )
    write_file(nodes_path, map(_csv_row, itertools.chain([("id", "label", "name", "attributes")],
                                                         rows)))
    write_file(rels_path, itertools.chain([_rels_row("head", "relation", "tail")],
                                          itertools.starmap(_rels_row, order.triples)))


# -- persistence ----------------------------------------------------------

# The line ``encode_record`` writes for a stored triple's record: its keys
# sorted, and values that need no escaping, since a graph's triples hold
# only int node ids and relations named in RELATION_ENDPOINTS.
_triple_line = '{{"head": {}, "kind": "triple", "relation": "{}", "tail": {}}}\n'.format

# The line ``encode_record`` writes for a node's record, in ``_NODE_LINES``'
# shape: its attributes' JSON, then its name's JSON string unquoted, which
# is the name itself unless it holds a character in ``_JSON_ESCAPED``
# (labels are letters: see GRAPH_LABELS).
_node_line = ('{{"attributes": {}, "id": {}, "kind": "node", '
              '"label": "{}", "name": "{}"}}\n').format
_JSON_ESCAPED = re.compile(r'["\\\x00-\x1f]')


def save_graph(graph: KnowledgeGraph, path: str | Path) -> None:
    """Lossless line-delimited JSON snapshot (internal ids preserved)."""
    nodes = (_node_line(encode_record(node.attributes) if node.attributes else "{}", node.id,
                        node.label, encode_record(node.name)[1:-1]
                        if _JSON_ESCAPED.search(node.name) else node.name)
             for _, node in sorted(graph.nodes.items()))
    triples = itertools.starmap(_triple_line, graph._triples)
    write_lines(path, SCHEMA_TAG, itertools.chain(nodes, triples))


# A whole line in ``_triple_line``'s shape, so a match decodes to what
# ``json.loads`` gives for it; ``_graph_triples`` scans a block of such lines
# at once. An id of more than 18 digits does not match, so that a line too
# long for ``int`` meets ``decode_record``'s checks.
_TRIPLE_LINES = re.compile(
    r'^\{"head": (0|-?[1-9][0-9]{0,17}), "kind": "triple", '
    r'"relation": "([A-Za-z]+)", "tail": (0|-?[1-9][0-9]{0,17})\}\n',
    re.M,
)

# A whole line in the shape ``save_graph`` writes a node's record in, its
# ids as in ``_TRIPLE_LINES``. A name with no quote, backslash or control
# character is its own decoded value. The name admits no quote, so only
# one end of the attributes group lets the rest match up to the line feed:
# a match decodes to what ``json.loads`` gives for it whenever that group
# is one JSON object on its own (see ``parse_object``).
_NODE_LINES = re.compile(
    r'^\{"attributes": (.*?), "id": (0|-?[1-9][0-9]{0,17}), "kind": "node", '
    r'"label": "([A-Za-z]+)", "name": "([^"\\\x00-\x1f]*)"\}\n',
    re.M,
)


def _graph_blocks(path: str | Path) -> Iterator[tuple[int, list[str], str]]:
    """``(line number of the first line, lines, their text)`` for each block
    ``read_blocks`` reads from a ``graph/1`` file. A block led by a node line
    is cut before its first triple line, so that each part can be scanned
    whole."""
    for first, lines in read_blocks(path, SCHEMA_TAG):
        text = "".join(lines)
        cut = text.find('\n{"head": ') + 1 if text.startswith('{"attributes": ') else 0
        if cut:
            count = text.count("\n", 0, cut)
            yield first, lines[:count], text[:cut]
            first, lines, text = first + count, lines[count:], text[cut:]
        yield first, lines, text


def _graph_triples(
    path: str | Path,
    nodes: dict[int, Node],
    by_key: dict[tuple[str, str], int],
    head_key: tuple[str, str] | None = None,
) -> Iterator[Triple]:
    """The checked triples of a ``graph/1`` file, in file order. ``nodes``
    receives each node by id and ``by_key`` its (label, normalized name) ->
    id, where the node is read. With ``head_key``, only the triples whose
    head is that node come out, though every record is checked. Each record
    is checked at its own line, so a triple's endpoint nodes must come
    before it, as in every file ``save_graph`` writes; the first bad line
    raises DataError naming it.

    A block led by a triple line is scanned whole with ``_TRIPLE_LINES``;
    if every line matches, its triples come from the match groups and are
    checked with one set test keyed on id text (the regex admits only
    canonical decimal ids). A block led by a node line is scanned whole
    with ``_NODE_LINES``; if every line matches, its nodes are checked with
    set tests before any is kept. Any other block, or one that fails a
    check, is decoded line by line, which raises the first fault's
    message."""
    label_of: dict[str, str] = {}  # str(node id) -> label
    head_id = None  # the id of head_key's node, once it is read
    relation_of = _RELATION_NAMES.get
    for first, lines, text in _graph_blocks(path):
        if text.startswith('{"head": '):
            found = _TRIPLE_LINES.findall(text)
            if len(found) == len(lines):
                heads, relations, tails = zip(*found)
                if set(zip(map(label_of.get, heads), relations,
                           map(label_of.get, tails))) <= _ENDPOINTS:
                    if head_key is None:
                        triples = zip(map(int, heads), map(relation_of, relations), map(int, tails))
                        yield from map(_new_triple, triples)
                    elif head_id is not None:
                        head_text = str(head_id)
                        yield from (_new_triple((head_id, relation_of(r), int(t)))
                                    for h, r, t in found if h == head_text)
                    continue
        elif text.startswith('{"attributes": '):
            found = _NODE_LINES.findall(text)
            if len(found) == len(lines):
                attributes, id_texts, labels, names = zip(*found)
                ids = list(map(int, id_texts))
                keys = list(zip(labels, map(normalize_name, names)))
                attributes = list(map(parse_object, attributes))
                if (None not in attributes and all(map(str.strip, names))
                        and set(labels).issubset(GRAPH_LABELS)
                        and len(set(keys)) == len(keys) and by_key.keys().isdisjoint(keys)
                        and len(set(ids)) == len(ids) and nodes.keys().isdisjoint(ids)):
                    by_key.update(zip(keys, ids))
                    label_of.update(zip(id_texts, labels))
                    nodes.update(zip(ids, map(Node, ids, labels, names, attributes)))
                    if head_id is None:
                        head_id = by_key.get(head_key)
                    continue
        for lineno, line in enumerate(lines, start=first):
            obj = decode_record(path, lineno, line)
            if obj is None:
                continue
            kind = obj.get("kind")
            if kind == "triple":
                head, relation, tail = obj.get("head"), obj.get("relation"), obj.get("tail")
                if type(head) is not int or type(tail) is not int or not isinstance(relation, str):
                    raise DataError(f"{path}: line {lineno}: malformed triple record")
                relation = relation_of(relation, relation)
                try:
                    _check_endpoints(nodes, head, relation, tail)
                except DataError as exc:
                    raise DataError(f"{path}: line {lineno}: {exc}") from exc
                if head_key is None or head == head_id:
                    yield _new_triple((head, relation, tail))
            elif kind == "node":
                node_id, label, name = obj.get("id"), obj.get("label"), obj.get("name")
                attributes = obj.get("attributes", {})
                if (type(node_id) is not int or not isinstance(name, str) or not name.strip()
                        or not isinstance(attributes, dict)):
                    raise DataError(f"{path}: line {lineno}: malformed node record")
                if label not in GRAPH_LABELS:
                    raise DataError(f"{path}: line {lineno}: unknown label {label!r}")
                key = (label, normalize_name(name))
                if key in by_key or node_id in nodes:
                    raise DataError(f"{path}: line {lineno}: duplicate node {key!r}")
                by_key[key] = node_id
                label_of[str(node_id)] = label
                if key == head_key:
                    head_id = node_id
                nodes[node_id] = Node(node_id, label, name, attributes)
            else:
                raise DataError(f"{path}: line {lineno}: unknown record kind {kind!r}")


def load_graph(path: str | Path, head: tuple[str, str] | None = None) -> KnowledgeGraph:
    """Read a ``graph/1`` file, every record checked by ``_graph_triples``. With
    ``head``, a (label, name), keep every node but only the triples whose
    head is that node: all that ``pattern_query`` on it reads. A repeated
    triple keeps its first position."""
    graph = KnowledgeGraph()
    triples, by_head, by_tail = graph._triples, graph._by_head, graph._by_tail
    head_key = None if head is None else (head[0], normalize_name(head[1]))
    for triple in _graph_triples(path, graph.nodes, graph._by_key, head_key):
        triples[triple] = None
        by_head[triple[0]][triple] = None
        by_tail[triple[2]][triple] = None
    graph._next_id = max(graph._next_id, max(graph.nodes, default=0) + 1)
    return graph


def load_nodes_and_triples(path: str | Path) -> tuple[list[Node], list[Triple]]:
    """The nodes and the triples of a ``graph/1`` file in file order, a
    repeat included, checked as ``load_graph`` checks them, without the
    graph's name and endpoint indexes: all that ``canonical_order`` reads."""
    nodes: dict[int, Node] = {}
    triples = list(_graph_triples(path, nodes, {}))
    return list(nodes.values()), triples
