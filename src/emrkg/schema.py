"""Entity-type schema shared by the corpus, tagger and graph layers."""

from __future__ import annotations

from dataclasses import dataclass

from emrkg.errors import ConfigError

# The graph's design is two source tables; every table after them derives
# from them. First, each KB relation, headed by a disease, and its tail label.
KB_RELATIONS: dict[str, str] = {
    "RecommendedFood": "Food",
    "AvoidFood": "Food",
    "BelongsToDepartment": "Department",
    "CommonDrug": "Drug",
    "DiagnosticCheck": "Examination",
    "HasSymptom": "Symptom",
    "Complication": "Disease",
    "RelatedDepartment": "Department",
}

# Second, each of the seven span types and its patient relation, which links
# a patient record to its tagged spans. The table's order is the tag order:
# the tagger's tags, and so a model file's arrays, follow it.
SPAN_TYPE_TO_RELATION: dict[str, str] = {
    "Disease": "HasDisease",
    "BodyCheck": "HasBodyCheck",
    "Symptom": "HasSymptom",
    "Condition": "HasCondition",
    "Check": "HasCheck",
    "Treatment": "ReceivedTreatment",
    "Operation": "Underwent",
}

DEFAULT_ENTITY_TYPES: tuple[str, ...] = tuple(SPAN_TYPE_TO_RELATION)
_SPAN_TYPES_BY_LOWER = {t.lower(): t for t in DEFAULT_ENTITY_TYPES}


def span_type(name: str) -> str | None:
    """The span type that ``name`` spells in any case, in the table's
    spelling, or None if it names none."""
    return _SPAN_TYPES_BY_LOWER.get(name.lower())


KB_HEAD_LABEL = "Disease"  # the head of every KB relation
PATIENT_LABEL = "Patient"  # one node per record, never a tagged span
ALIGNED_LABEL = "Disease"  # the one label whose surfaces align to the KB's names

# The KB's entity types: its head label, then its relations' tails in first
# appearance. Disease and Symptom are also span types.
KB_ENTITY_TYPES: tuple[str, ...] = tuple(dict.fromkeys((KB_HEAD_LABEL, *KB_RELATIONS.values())))

# Full node-label universe: the patient label, the seven span types, and the
# KB-only types. Twelve labels total.
GRAPH_LABELS: tuple[str, ...] = (PATIENT_LABEL,) + DEFAULT_ENTITY_TYPES + tuple(
    t for t in KB_ENTITY_TYPES if t not in DEFAULT_ENTITY_TYPES
)

# Allowed (head label, tail label) pairs per relation: KB edges, then patient
# edges. So every edge that kb_into_graph and add_patient_record insert is
# admitted by construction.
_EDGES = [(r, KB_HEAD_LABEL, t) for r, t in KB_RELATIONS.items()] + [
    (r, PATIENT_LABEL, s) for s, r in SPAN_TYPE_TO_RELATION.items()
]
RELATION_ENDPOINTS: dict[str, tuple[tuple[str, str], ...]] = {
    relation: tuple((h, t) for r, h, t in _EDGES if r == relation) for relation, _, _ in _EDGES
}


@dataclass(frozen=True)
class EntitySchema:
    """The span types a run tags, in the order that indexes its tags.

    Each configured type names one of ``SPAN_TYPE_TO_RELATION``'s types, in
    any case, and none is repeated; it is stored in the table's spelling.
    Lookups are case-insensitive.
    """

    entity_types: tuple[str, ...] = DEFAULT_ENTITY_TYPES

    def __post_init__(self) -> None:
        if not isinstance(self.entity_types, (list, tuple)) or not self.entity_types:
            raise ConfigError(f"entity_types must be a non-empty list, got {self.entity_types!r}")
        spelled: list[str] = []
        for name in self.entity_types:
            spelling = span_type(name) if isinstance(name, str) else None
            if spelling is None or spelling in spelled:
                why = "repeats a type" if spelling else "is not a span type"
                raise ConfigError(f"entity type {name!r} {why}: entity_types take the span types "
                                  f"{', '.join(DEFAULT_ENTITY_TYPES)}, in any case, none repeated")
            spelled.append(spelling)
        object.__setattr__(self, "entity_types", tuple(spelled))

    def canonical(self, label: str) -> str | None:
        """``label``'s type in the table's spelling, or None if this schema
        does not hold it."""
        spelling = span_type(label)
        return spelling if spelling in self.entity_types else None

    def __iter__(self):
        return iter(self.entity_types)
