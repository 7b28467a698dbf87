"""File-based disease knowledge base.

The KB ships as line-delimited JSON: a header line ``{"schema": "kb/1"}``
followed by one disease record per line. Records carry scalar attributes
(description, prevention, cure time, cause), a treatments list, and a
``relations`` map from relation type to target-name list. This replaces
live crawling of the source site so runs are reproducible offline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, make_dataclass
from pathlib import Path

from emrkg.errors import DataError, read_records
from emrkg.schema import KB_ENTITY_TYPES, KB_HEAD_LABEL, KB_RELATIONS

log = logging.getLogger(__name__)

SCHEMA_TAG = "kb/1"

# The string attributes of a disease record, in the order graph nodes store them.
_SCALAR_FIELDS = ("description", "prevention", "cure_time", "cause")


@dataclass(frozen=True)
class DiseaseEntry:
    """One disease record: a non-blank name, and relations that the
    schema knows, each to a non-blank target (``_parse_record`` checks)."""

    name: str
    description: str = ""
    prevention: str = ""
    cure_time: str = ""
    treatments: tuple[str, ...] = ()
    cause: str = ""
    relations: tuple[tuple[str, str], ...] = ()  # (relation type, target name)


def _names(self, label: str) -> tuple[str, ...]:
    """The catalog of the KB entity label ``label``."""
    return getattr(self, label.lower())


# Per-type entity name catalogs, each sorted and duplicate-free: one field
# per KB entity label (``KB_ENTITY_TYPES``), named after it in lower case.
Catalogs = make_dataclass(
    "Catalogs", [(label.lower(), tuple, ()) for label in KB_ENTITY_TYPES],
    namespace={"__module__": __name__, "names": _names}, frozen=True,
)


def _parse_record(obj: dict, where: str) -> DiseaseEntry:
    name = obj.get("name", "")
    if not isinstance(name, str) or not name.strip():
        raise DataError(f"{where}: missing or empty disease name")

    def scalar(key: str) -> str:
        value = obj.get(key, "")
        if not isinstance(value, str):
            raise DataError(f"{where}: field {key!r} must be a string")
        return value

    treatments = obj.get("treatments", [])
    if not isinstance(treatments, list) or not all(isinstance(t, str) for t in treatments):
        raise DataError(f"{where}: 'treatments' must be a list of strings")

    raw_relations = obj.get("relations", {})
    if not isinstance(raw_relations, dict):
        raise DataError(f"{where}: 'relations' must be an object")
    relations: list[tuple[str, str]] = []
    for rel, targets in raw_relations.items():
        if rel not in KB_RELATIONS:
            raise DataError(f"{where}: unknown relation type {rel!r}")
        if not isinstance(targets, list) or not all(
                isinstance(t, str) and t.strip() for t in targets):
            raise DataError(f"{where}: targets of {rel!r} must be non-empty strings")
        relations.extend((rel, t) for t in targets)

    return DiseaseEntry(
        name=name,
        treatments=tuple(treatments),
        relations=tuple(relations),
        **{key: scalar(key) for key in _SCALAR_FIELDS},
    )


def _merge(earlier: DiseaseEntry, later: DiseaseEntry) -> DiseaseEntry:
    # Scalars: the later non-empty value wins; an absent field never erases
    # earlier data. Lists: order-preserving union.
    return DiseaseEntry(
        name=earlier.name,
        treatments=tuple(dict.fromkeys(earlier.treatments + later.treatments)),
        relations=tuple(dict.fromkeys(earlier.relations + later.relations)),
        **{key: getattr(later, key) or getattr(earlier, key) for key in _SCALAR_FIELDS},
    )


def load_kb(path: str | Path) -> tuple[list[DiseaseEntry], Catalogs]:
    """Load disease entries and build the six per-type name catalogs.

    Duplicate disease names merge field-wise (scalars last-writer-wins,
    lists unioned) with a warning. Pure function of the file contents, so
    repeated loads are identical.
    """
    path = Path(path)
    by_name: dict[str, DiseaseEntry] = {}  # a merged entry keeps its first position
    for lineno, obj in read_records(path, SCHEMA_TAG):
        entry = _parse_record(obj, f"{path}: line {lineno}")
        if entry.name in by_name:
            log.warning("%s: line %d: duplicate disease %r merged", path, lineno, entry.name)
            entry = _merge(by_name[entry.name], entry)
        by_name[entry.name] = entry

    entries = list(by_name.values())
    if not entries:
        log.warning("knowledge base %s contains no disease records", path)

    buckets: dict[str, set[str]] = {label: set() for label in KB_ENTITY_TYPES}
    for entry in entries:
        buckets[KB_HEAD_LABEL].add(entry.name)
        for rel, target in entry.relations:
            buckets[KB_RELATIONS[rel]].add(target)
    catalogs = Catalogs(**{label.lower(): tuple(sorted(names)) for label, names in buckets.items()})
    return entries, catalogs


def kb_into_graph(graph, entries: list[DiseaseEntry]) -> int:
    """Insert KB entries into a knowledge graph: disease nodes carry the
    scalar attributes, relation targets become typed nodes. Returns the
    number of triples added."""
    upsert, insert = graph.upsert_node, graph._insert_triple
    added = 0
    for entry in entries:
        attributes = {key: getattr(entry, key) for key in _SCALAR_FIELDS if getattr(entry, key)}
        if entry.treatments:
            attributes["treatments"] = list(entry.treatments)
        head = upsert(KB_HEAD_LABEL, entry.name, attributes)
        for rel, target in entry.relations:
            added += insert(head, rel, upsert(KB_RELATIONS[rel], target))
    return added
