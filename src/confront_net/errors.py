"""Exception hierarchy.

Everything user-facing derives from ConfrontNetError so the CLI can map
any data problem to a single exit code. An error given its input file
(and line) ends its message in ``[path]`` or ``[path:line]``.
"""

from __future__ import annotations


class ConfrontNetError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None) -> None:
        self.path, self.line = path, line
        if path is not None:
            message += f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message)


class MalformedRecord(ConfrontNetError):
    """A record violates the schema (bad enum value, bad number, missing field)."""


class DuplicateId(ConfrontNetError):
    """Two records share an identifier that must be unique."""


class TakenVertexId(DuplicateId):
    """A segment's vertex id (`object#segment`) is another vertex's id."""


class DanglingEndpoint(ConfrontNetError):
    """A relation or segment references an object id that does not exist."""


class UnknownRawType(ConfrontNetError):
    """A relation's raw type is not in the 42-entry vocabulary."""


class UnmappableType(ConfrontNetError):
    """A raw type has no normalized form (it denotes a merge, not an edge)."""


class ConflictingMerge(ConfrontNetError):
    """Equality-linked objects disagree on their kind."""


class MissingLength(ConfrontNetError):
    """A street must be ranked by length but has none recorded."""


class MissingSegments(ConfrontNetError):
    """A street must be split but has no segment decomposition."""


class EmptyResult(ConfrontNetError):
    """A single --method's variant or a graph to partition is empty."""


class UncoveredVertex(ConfrontNetError):
    """A partition is missing an assignment for some graph vertex."""
