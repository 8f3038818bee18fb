"""The raw relation vocabulary and its normalization table.

The land registers use 42 distinct Latin formulas to relate two spatial
objects. This module is the single source of truth for that vocabulary:
each raw type maps to one of seven normalized relation types, sometimes
depending on what the *target* object is (a street, a surface object, or
anything else). One raw type, ``Egal``, asserts that two records denote
the same real-world object; it never becomes an edge and is resolved by
merging vertices upstream.

Keep this table in sync with TABLE_VERSION: any edit to a row is a new
version, because cached graphs record which table produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

TABLE_VERSION = "1.0"

#: Raw type expressing record identity. Handled by vertex merging, not mapping.
EGAL = "Egal"


class NormalizedType(Enum):
    RELATED_TO = "RelatedTo"
    INSIDE_OF = "InsideOf"
    OUTSIDE_OF = "OutsideOf"
    NORTH_OF = "NorthOf"
    SOUTH_OF = "SouthOf"
    EAST_OF = "EastOf"
    WEST_OF = "WestOf"
    # Not produced by normalization: links consecutive segments of a split object.
    ARTIFICIAL_ADJACENCY = "ArtificialAdjacency"


class HierarchyClass(Enum):
    FLAT = "flat"
    HIERARCHICAL = "hierarchical"


_HIERARCHICAL = frozenset({NormalizedType.INSIDE_OF, NormalizedType.OUTSIDE_OF})


def hierarchy_class(normalized: NormalizedType) -> HierarchyClass:
    """Containment relations are hierarchical; everything else is flat."""
    if normalized in _HIERARCHICAL:
        return HierarchyClass.HIERARCHICAL
    return HierarchyClass.FLAT


@dataclass(frozen=True)
class NormalizationRule:
    """Mapping for one raw type: its Latin spelling (``raw_type``), an
    English ``translation``, and the normalized type towards a street
    (``street``, or ``None`` when streets map like any other target), a
    surface (``surface``) and any other target (``other``).
    """

    raw_type: str
    translation: str
    other: NormalizedType
    surface: NormalizedType
    street: NormalizedType | None = None


def _uniform(raw: str, translation: str, t: NormalizedType) -> NormalizationRule:
    return NormalizationRule(raw, translation, other=t, surface=t)


_R = NormalizedType.RELATED_TO
_I = NormalizedType.INSIDE_OF

NORMALIZATION_TABLE: tuple[NormalizationRule, ...] = (
    # Proximity formulas.
    _uniform("Iuxta", "Near", _R),
    _uniform("Juxta", "Near", _R),
    _uniform("Prope", "Near", _R),
    _uniform("Proxime", "Near", _R),
    # Corner of a street or block.
    NormalizationRule("In Angulo", "At the corner of", other=_R, surface=_I, street=_R),
    NormalizationRule("In Cantono", "At the corner of", other=_R, surface=_I, street=_R),
    NormalizationRule("In Compito Sive Cantono", "At the corner of",
                      other=_R, surface=_I, street=_R),
    # Entrance: on a street this is adjacency, in anything else containment.
    NormalizationRule("In Introytu", "At the entrance of", other=_I, surface=_I, street=_R),
    _uniform("Extra", "Outside of", NormalizedType.OUTSIDE_OF),
    # Plain containment only makes sense towards a surface.
    NormalizationRule("In", "Inside of", other=_R, surface=_I),
    NormalizationRule("Intra", "Inside of", other=_R, surface=_I),
    _uniform("Ab Opposito", "Opposite to", _R),
    _uniform("Ex Opposit", "Opposite to", _R),
    NormalizationRule("In Capite", "At the head of", other=_R, surface=_I),
    _uniform("Super", "Above", _R),
    _uniform("Supra", "Above", _R),
    # Cardinal formulas name the side of the *target* the source sits on,
    # so the normalized direction is the source's position: east side -> west of.
    _uniform("A Orient", "On the east side of", NormalizedType.WEST_OF),
    _uniform("A Occident", "On the west side of", NormalizedType.EAST_OF),
    _uniform("A Circio", "On the north side of", NormalizedType.SOUTH_OF),
    _uniform("Ab Aura Recta", "On the north side of", NormalizedType.SOUTH_OF),
    _uniform("A Meridie", "On the south side of", NormalizedType.NORTH_OF),
    # Side-count formulas: which facade faces the target.
    _uniform("A Una Part", "On one side of", _R),
    _uniform("Ab Una Part", "On one side of", _R),
    _uniform("A Duabus Part", "On two sides of", _R),
    _uniform("A Tribus Part", "On three sides of", _R),
    _uniform("A Parte Retro", "On the rear side of", _R),
    _uniform("A Part Ante", "On the front side of", _R),
    _uniform("A Part Inferiori", "On the lower side of", _R),
    _uniform("A Parte Lateris", "On the lateral side of", _R),
    _uniform("A Part Posteriori", "On the back side of", _R),
    _uniform("Sive Ab Una Part", "Possibly on one side of", _R),
    _uniform("Conjuncto", "Adjoining", _R),
    _uniform("Contigu", "Adjoining", _R),
    _uniform("Contiguo", "Adjoining", _R),
    _uniform("Retro", "Behind", _R),
    _uniform("Ante", "In front of", _R),
    # Identity between two records of the same object; merged, never an edge.
    NormalizationRule(EGAL, "Same as", other=_R, surface=_R),
    _uniform("Infra", "Below", _R),
    _uniform("Subtus", "Below", _R),
    _uniform("Ad", "Towards", _R),
    _uniform("Apud", "Towards", _R),
    _uniform("Versus", "Towards", _R),
)

RULES: dict[str, NormalizationRule] = {r.raw_type: r for r in NORMALIZATION_TABLE}

#: All recognizable raw spellings, Egal included.
RAW_RELATION_TYPES: frozenset[str] = frozenset(RULES)

assert len(NORMALIZATION_TABLE) == 42, "vocabulary must stay exhaustive"
