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


# The six entity types contributed by the external disease knowledge base.
# Disease and Symptom overlap with the clinical span types above.
KB_ENTITY_TYPES: tuple[str, ...] = (
    "Disease",
    "Food",
    "Department",
    "Drug",
    "Examination",
    "Symptom",
)

# Full node-label universe: one Patient node per record, the seven span
# types, and the KB-only types. Twelve labels total.
GRAPH_LABELS: tuple[str, ...] = ("Patient",) + DEFAULT_ENTITY_TYPES + tuple(
    t for t in KB_ENTITY_TYPES if t not in DEFAULT_ENTITY_TYPES
)

# Knowledge-base relations, all headed by a disease.
KB_RELATIONS: tuple[str, ...] = (
    "RecommendedFood",
    "AvoidFood",
    "BelongsToDepartment",
    "CommonDrug",
    "DiagnosticCheck",
    "HasSymptom",
    "Complication",
    "RelatedDepartment",
)

# Allowed (head label, tail label) pairs per relation.
RELATION_ENDPOINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "RecommendedFood": (("Disease", "Food"),),
    "AvoidFood": (("Disease", "Food"),),
    "BelongsToDepartment": (("Disease", "Department"),),
    "CommonDrug": (("Disease", "Drug"),),
    "DiagnosticCheck": (("Disease", "Examination"),),
    "HasSymptom": (("Disease", "Symptom"), ("Patient", "Symptom")),
    "Complication": (("Disease", "Disease"),),
    "RelatedDepartment": (("Disease", "Department"),),
    "HasDisease": (("Patient", "Disease"),),
    "Underwent": (("Patient", "Operation"),),
    "ReceivedTreatment": (("Patient", "Treatment"),),
    "HasCondition": (("Patient", "Condition"),),
    "HasCheck": (("Patient", "Check"),),
    "HasBodyCheck": (("Patient", "BodyCheck"),),
}

# Patient edge per span type, used when building a graph from tagged records.
SPAN_TYPE_TO_RELATION: dict[str, str] = {
    "Disease": "HasDisease",
    "Symptom": "HasSymptom",
    "Operation": "Underwent",
    "Treatment": "ReceivedTreatment",
    "Condition": "HasCondition",
    "Check": "HasCheck",
    "BodyCheck": "HasBodyCheck",
}
