"""Entity-type schema shared by the corpus, tagger and graph layers."""

from __future__ import annotations

from dataclasses import dataclass, field

from emrkg.errors import ConfigError

# The seven span-bearing clinical entity types. Patient is record metadata
# (one node per document), never a tagged span.
DEFAULT_ENTITY_TYPES: tuple[str, ...] = (
    "Disease",
    "BodyCheck",
    "Symptom",
    "Condition",
    "Check",
    "Treatment",
    "Operation",
)


@dataclass(frozen=True)
class EntitySchema:
    """Ordered set of entity type names.

    The order is fixed so tag indexing stays reproducible across runs.
    Lookups are case-insensitive; the canonical casing is whatever the
    schema was constructed with.
    """

    entity_types: tuple[str, ...] = DEFAULT_ENTITY_TYPES
    _by_lower: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.entity_types, (list, tuple)) or not self.entity_types:
            raise ConfigError(f"entity_types must be a non-empty list, got {self.entity_types!r}")
        if not all(isinstance(t, str) and t for t in self.entity_types):
            raise ConfigError(f"entity types must be non-empty strings: {self.entity_types!r}")
        lowered = [t.lower() for t in self.entity_types]
        if len(set(lowered)) != len(lowered):
            raise ConfigError(f"duplicate entity type names: {self.entity_types}")
        object.__setattr__(self, "entity_types", tuple(self.entity_types))
        object.__setattr__(self, "_by_lower", {t.lower(): t for t in self.entity_types})

    def canonical(self, label: str) -> str | None:
        """Resolve a label to its canonical casing, or None if unknown."""
        return self._by_lower.get(label.lower())

    def __contains__(self, label: str) -> bool:
        return label.lower() in self._by_lower

    def __iter__(self):
        return iter(self.entity_types)

    def __len__(self) -> int:
        return len(self.entity_types)


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

# Second, each span type's patient relation, which links a patient record to
# its tagged spans.
SPAN_TYPE_TO_RELATION: dict[str, str] = {
    "Disease": "HasDisease",
    "Symptom": "HasSymptom",
    "Operation": "Underwent",
    "Treatment": "ReceivedTreatment",
    "Condition": "HasCondition",
    "Check": "HasCheck",
    "BodyCheck": "HasBodyCheck",
}

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
