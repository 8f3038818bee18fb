"""Spatial confrontation-network extraction and analysis.

Builds directed spatial graphs from land-register style databases
(objects + raw relations), normalizes the 42-entry relation vocabulary,
applies the 16 extraction method variants, and measures the results:
coverage, distances, spatial correlation, Louvain communities.
"""

__version__ = "0.1.0"

from .data_model import (Database, Dimensionality, ObjectKind,
                         RelationOrigin, RelationRecord, Segment,
                         SpatialObject, load_database, validate_database)
from .errors import ConfrontNetError
from .extract import (METHOD_CODES, ExtractionMethod, Scope,
                      build_full_graph, extract)
from .graph import ConfrontGraph, Edge, EdgeOrigin, Vertex
from .metrics import GraphSummary, summarize
from .normalize import merge_equal_objects, normalize_relation_type
from .relation_types import NormalizedType
from .community import CommunityPartition, louvain, modularity

__all__ = [
    "__version__",
    "ConfrontNetError", "Database", "SpatialObject", "Segment",
    "RelationRecord", "ObjectKind", "Dimensionality", "RelationOrigin",
    "load_database", "validate_database",
    "merge_equal_objects", "normalize_relation_type", "NormalizedType",
    "ConfrontGraph", "Vertex", "Edge", "EdgeOrigin",
    "ExtractionMethod", "Scope", "METHOD_CODES", "extract",
    "build_full_graph", "GraphSummary", "summarize",
    "CommunityPartition", "louvain", "modularity",
]
