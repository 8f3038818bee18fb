"""k-sweep over longest-street removal/splitting and Pareto selection.

Coverage (surviving property count) and spatial distance correlation
pull in opposite directions as k grows; the sweep enumerates k, keeps
the non-dominated points, and picks the correlation-maximizing one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .data_model import Database
from .errors import MalformedRecord
from .extract import ExtractionMethod, Scope, extract_each
from .metrics import GraphSummary, summarize


@dataclass(frozen=True)
class SweepPoint:
    k: int
    coverage: int  # surviving property count
    rho: float
    summary: GraphSummary


def default_k_range(db: Database) -> range:
    """0 up to 10% of the rankable (non-punctual) streets, inclusive."""
    streets = sum(1 for o in db.objects.values() if o.is_rankable_street)
    return range(0, math.ceil(streets / 10) + 1)


def sweep_k(db: Database, base_method: ExtractionMethod,
            k_values: Sequence[int]) -> list[SweepPoint]:
    if base_method.scope is not Scope.TOP_K:
        raise MalformedRecord(
            f"sweep requires a TopK-scope method, got "
            f"{base_method.code!r}")
    if len(set(k_values)) != len(k_values):
        raise MalformedRecord("duplicate k in sweep range")
    graphs = extract_each(db, [replace(base_method, k=k) for k in k_values])
    baseline = next(graphs).property_count()
    points = []
    # A k that leaves no component is an empty point (coverage 0, NaN
    # rho), which dominates no other point.
    for k, g in zip(k_values, graphs):
        summary = summarize(g, baseline)
        points.append(SweepPoint(k=k, coverage=summary.property_count,
                                 rho=summary.rho_d, summary=summary))
    return points


def _rho_key(p: SweepPoint) -> float:
    # NaN rho (degenerate graph) never wins a dominance comparison.
    return -math.inf if math.isnan(p.rho) else p.rho


def pareto_front(points: Sequence[SweepPoint]) -> list[SweepPoint]:
    """Non-dominated points, by descending coverage, then rho, then k.

    A point dominates another when it is at least as good on coverage
    and on rho and better on one of them; exact ties on both are all
    kept.
    """
    if not points:
        raise MalformedRecord("pareto_front needs at least one point")
    scores = [(p.coverage, _rho_key(p)) for p in points]
    front = [p for p, (c, r) in zip(points, scores)
             if not any(qc >= c and qr >= r and (qc, qr) != (c, r)
                        for qc, qr in scores)]
    return sorted(front, key=lambda p: (-p.coverage, -_rho_key(p), p.k))


def select_best(points: Sequence[SweepPoint]) -> SweepPoint:
    """Pick a sweep point: max rho on the Pareto front, smallest k on
    ties."""
    return max(pareto_front(points), key=lambda p: (_rho_key(p), -p.k))
