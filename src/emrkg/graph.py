"""In-memory typed property graph with deterministic export.

Node identity is (label, normalized name) where normalization trims
whitespace and unifies full-width ASCII forms with their half-width
equivalents; clinical text mixes both widths freely. Triples are unique
per (head, relation, tail) and every relation constrains its endpoint
labels, so a malformed edge fails fast instead of surfacing as a bad
query result later.

Exports follow one canonical order, defined once in ``_canonical``: nodes
by (label, normalized name), triples by (head, relation, tail) with each
endpoint ranked by that node order. Node keys are unique, so the order
depends only on the graph's content, never on its insertion history.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from emrkg.errors import DataError, InternalError, read_records, write_records
from emrkg.schema import GRAPH_LABELS, RELATION_ENDPOINTS, SPAN_TYPE_TO_RELATION

log = logging.getLogger(__name__)

SCHEMA_TAG = "graph/1"


class LabelUnknown(DataError):
    """Node label outside the graph label universe."""


class DanglingEndpoint(DataError):
    """Triple references a node id that is not in the graph."""


class RelationTypeMismatch(DataError):
    """Endpoint labels violate the relation's (head, tail) constraint."""


class SchemaVersionMismatch(DataError):
    """Graph file missing or carrying an unsupported schema header."""


class IoError(DataError):
    """Unreadable or truncated graph file; message carries the position."""


_WIDTH_FOLD = {code: code - 0xFEE0 for code in range(0xFF01, 0xFF5F)} | {0x3000: " "}

# every admitted (head label, relation, tail label)
_ENDPOINTS = frozenset((h, r, t) for r, pairs in RELATION_ENDPOINTS.items() for h, t in pairs)
# each relation name to one shared copy, so loaded triples do not each keep their own
_RELATION_NAMES = {relation: relation for relation in RELATION_ENDPOINTS}


def normalize_name(name: str) -> str:
    """Trim and fold full-width ASCII (U+FF01..U+FF5E, ideographic space)
    to half-width so width variants of the same name share one node."""
    return name.strip().translate(_WIDTH_FOLD)


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


class KnowledgeGraph:
    """Nodes plus unique triples with (label+name), head and tail indexes.

    The triple store and both endpoint indexes are dicts used as
    insertion-ordered sets, so removing a triple costs O(1) and export
    order follows insertion order.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, Node] = {}
        self._triples: dict[Triple, None] = {}
        self._by_key: dict[tuple[str, str], int] = {}
        self._by_head: dict[int, dict[Triple, None]] = {}
        self._by_tail: dict[int, dict[Triple, None]] = {}
        self._next_id = 1

    @property
    def triples(self) -> list[Triple]:
        """Every triple, in insertion order."""
        return list(self._triples)

    # -- nodes ---------------------------------------------------------

    def upsert_node(self, label: str, name: str, attributes: dict | None = None) -> int:
        """Insert or update the node identified by (label, normalized name);
        on update, incoming attributes overwrite same-named keys."""
        if label not in GRAPH_LABELS:
            raise LabelUnknown(f"unknown node label {label!r}")
        if not name.strip():
            raise DataError("node name must be non-empty")
        key = (label, normalize_name(name))
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

    def _check_triple(self, head: int, relation: str, tail: int) -> None:
        nodes = self.nodes
        if head not in nodes or tail not in nodes:
            missing = head if head not in nodes else tail
            raise DanglingEndpoint(f"triple endpoint id {missing} not in graph")
        head_label, tail_label = nodes[head].label, nodes[tail].label
        if (head_label, relation, tail_label) in _ENDPOINTS:
            return
        if relation not in RELATION_ENDPOINTS:
            raise RelationTypeMismatch(f"unknown relation type {relation!r}")
        raise RelationTypeMismatch(f"{relation} does not admit {head_label} -> {tail_label}")

    def add_triple(self, head: int, relation: str, tail: int) -> bool:
        """Add one typed edge; re-adding an existing triple is a no-op.
        Returns True if the triple was new."""
        self._check_triple(head, relation, tail)
        triple = Triple(head, relation, tail)
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._by_head.setdefault(head, {})[triple] = None
        self._by_tail.setdefault(tail, {})[triple] = None
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
            raise DanglingEndpoint("merge endpoints must exist")
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
            self._check_triple(*triple)
        for triple in incident:
            self._remove_triple(triple)
        moved = sum(self.add_triple(*triple) for triple in repointed)
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
            self._check_triple(*triple)


def add_patient_record(
    graph: KnowledgeGraph,
    patient_name: str,
    entities: list[tuple[str, str]],
    attributes: dict | None = None,
) -> int:
    """Insert one patient node plus its extracted (entity type, surface)
    pairs, linked by the per-type patient relation. Returns the patient id."""
    patient_id = graph.upsert_node("Patient", patient_name, attributes)
    for label, surface in entities:
        relation = SPAN_TYPE_TO_RELATION.get(label)
        if relation is None:
            raise LabelUnknown(f"no patient relation for entity type {label!r}")
        entity_id = graph.upsert_node(label, surface)
        graph.add_triple(patient_id, relation, entity_id)
    return patient_id


# -- export --------------------------------------------------------------


def _canonical(graph: KnowledgeGraph) -> tuple[list[Node], dict[int, int], list[Triple]]:
    """The canonical export order: the nodes sorted by (label, normalized
    name), each node's 1-based rank in that order, and the triples sorted
    by (rank of head, relation, rank of tail)."""
    nodes = sorted(graph.nodes.values(), key=lambda n: (n.label, normalize_name(n.name)))
    rank = {node.id: i for i, node in enumerate(nodes, start=1)}
    triples = sorted(graph._triples, key=lambda t: (rank[t.head], t.relation, rank[t.tail]))
    return nodes, rank, triples


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
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_cypher_value(v) for v in value) + "]"
    raise DataError(f"unsupported attribute value type {type(value).__name__}")


def export_cypher(graph: KnowledgeGraph, path: str | Path) -> int:
    """Write MERGE statements (one per node, one per triple) in canonical
    order; structurally identical graphs export byte-identically.

    The node statements are rendered before the file is opened: they are
    the only ones ``_cypher_value`` can reject, so an export that fails
    writes no file. The triple statements are then written as a stream."""
    nodes, _, triples = _canonical(graph)
    statements = []
    match = {}  # node id -> its "Label {name: ...}" pattern
    for node in nodes:
        props = {"name": node.name, **dict(sorted(node.attributes.items()))}
        rendered = ", ".join(f"{k}: {_cypher_value(v)}" for k, v in props.items())
        statements.append(f"MERGE (n:{node.label} {{{rendered}}});\n")
        match[node.id] = f"{node.label} {{name: {_cypher_value(node.name)}}}"
    edges = (
        f"MATCH (a:{match[head]}), (b:{match[tail]}) "
        f"MERGE (a)-[:{relation_identifier(relation)}]->(b);\n"
        for head, relation, tail in triples
    )
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(statements)
            handle.writelines(edges)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return len(statements) + len(triples)


def export_csv(graph: KnowledgeGraph, nodes_path: str | Path, rels_path: str | Path) -> None:
    """Bulk-import companion to the Cypher export: nodes.csv carries
    canonical re-numbered ids so identical graphs yield identical files."""
    ordered, export_id, triples = _canonical(graph)
    try:
        with open(nodes_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "label", "name", "attributes"])
            for node in ordered:
                writer.writerow([
                    export_id[node.id],
                    node.label,
                    node.name,
                    json.dumps(dict(sorted(node.attributes.items())), ensure_ascii=False),
                ])
        with open(rels_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["head", "relation", "tail"])
            writer.writerows([export_id[head], relation, export_id[tail]]
                             for head, relation, tail in triples)
    except OSError as exc:
        raise IoError(f"cannot write CSV export: {exc}") from exc


# -- persistence ----------------------------------------------------------


def save_graph(graph: KnowledgeGraph, path: str | Path) -> None:
    """Lossless line-delimited JSON snapshot (internal ids preserved)."""
    nodes = ({"kind": "node", "id": node.id, "label": node.label, "name": node.name,
              "attributes": node.attributes} for _, node in sorted(graph.nodes.items()))
    triples = ({"kind": "triple", "head": head, "relation": relation, "tail": tail}
               for head, relation, tail in graph._triples)
    write_records(path, SCHEMA_TAG, itertools.chain(nodes, triples))


def load_graph(path: str | Path) -> KnowledgeGraph:
    """Read a ``graph/1`` file. Nodes are inserted as they are read; each
    triple is type-checked where it is read and held until every node is
    in, then checked against its endpoints and inserted in file order."""
    graph = KnowledgeGraph()
    pending: list[tuple[int, Triple]] = []
    for lineno, obj in read_records(path, SCHEMA_TAG, IoError, SchemaVersionMismatch):
        kind = obj.get("kind")
        if kind == "triple":
            head, relation, tail = obj.get("head"), obj.get("relation"), obj.get("tail")
            if type(head) is not int or type(tail) is not int or not isinstance(relation, str):
                raise IoError(f"{path}: line {lineno}: malformed triple record")
            relation = _RELATION_NAMES.get(relation, relation)
            pending.append((lineno, Triple(head, relation, tail)))
        elif kind == "node":
            node_id, label, name = obj.get("id"), obj.get("label"), obj.get("name")
            attributes = obj.get("attributes", {})
            if (type(node_id) is not int or not isinstance(name, str) or not name.strip()
                    or not isinstance(attributes, dict)):
                raise IoError(f"{path}: line {lineno}: malformed node record")
            if label not in GRAPH_LABELS:
                raise IoError(f"{path}: line {lineno}: unknown label {label!r}")
            key = (label, normalize_name(name))
            if key in graph._by_key or node_id in graph.nodes:
                raise IoError(f"{path}: line {lineno}: duplicate node {key!r}")
            graph.nodes[node_id] = Node(node_id, label, name, attributes)
            graph._by_key[key] = node_id
            graph._next_id = max(graph._next_id, node_id + 1)
        else:
            raise IoError(f"{path}: line {lineno}: unknown record kind {kind!r}")
    triples, by_head, by_tail = graph._triples, graph._by_head, graph._by_tail
    for lineno, triple in pending:
        head, relation, tail = triple
        try:
            graph._check_triple(head, relation, tail)
        except DataError as exc:
            raise IoError(f"{path}: line {lineno}: {exc}") from exc
        triples[triple] = None  # a repeated triple keeps its first position
        by_head.setdefault(head, {})[triple] = None
        by_tail.setdefault(tail, {})[triple] = None
    return graph
