"""Hop, byte, and latency accounting plus report assembly.

Interest traversal counts for the flooding scheme include every link
crossing the flood consumed (duplicates and dead branches included),
because that is the network resource the search actually burned.  The
top-5% rule averages the largest ceil(n/20) values (at least one) and
rounds the mean up.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterable

from .topology import NS_PER_US

CSV_COLUMNS = (
    "scenario", "case", "distance", "scheme", "requests",
    "interest_traversals_mean", "interest_traversals_top5",
    "path_hops_mean", "data_traversals_mean", "bytes_total",
    "latency_mean_us",
)


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One measured request, either scheme."""

    consumer: int
    producer: int
    distance: int
    scheme: str
    interest_traversals: int
    data_traversals: int
    path_hops: int
    latency_ns: int
    satisfied: bool
    bytes_moved: int = 0

    def __post_init__(self) -> None:
        if self.satisfied and self.path_hops < self.distance:
            raise ValueError("a satisfied request cannot beat the shortest path")
        if self.satisfied and self.interest_traversals < self.path_hops:
            raise ValueError("interest traversals cannot undercut the data path")


@dataclass(frozen=True, slots=True)
class ProbeStat:
    """Measured lookup timing (thread CPU ms) for one shard (skew experiments)."""

    shard_index: int
    lookups: int
    mean_lookup_ms: float


def top5_avg(values: Iterable[int]) -> int:
    """Average of the top 5% of values (>= 1 value), rounded up."""
    ordered = sorted(values, reverse=True)
    if not ordered:
        raise ValueError("top5_avg needs at least one value")
    k = (len(ordered) + 19) // 20  # ceil(n / 20), exact
    return -(-sum(ordered[:k]) // k)


@dataclass(slots=True)
class BinStats:
    requests: int
    interest_mean: float
    interest_top5: int
    path_hops_mean: float
    data_mean: float
    bytes_total: int
    latency_mean_us: float


def bin_by_distance(records: Iterable[RequestRecord]) -> dict[int, dict[str, BinStats]]:
    """Group records by exact distance, then scheme, with aggregates."""
    groups: dict[int, dict[str, list[RequestRecord]]] = {}
    for rec in records:
        groups.setdefault(rec.distance, {}).setdefault(rec.scheme, []).append(rec)
    out: dict[int, dict[str, BinStats]] = {}
    for distance, by_scheme in groups.items():
        out[distance] = {}
        for scheme, recs in by_scheme.items():
            n = len(recs)
            interests = [r.interest_traversals for r in recs]
            out[distance][scheme] = BinStats(
                requests=n,
                interest_mean=sum(interests) / n,
                interest_top5=top5_avg(interests),
                path_hops_mean=sum(r.path_hops for r in recs) / n,
                data_mean=sum(r.data_traversals for r in recs) / n,
                bytes_total=sum(r.bytes_moved for r in recs),
                latency_mean_us=sum(r.latency_ns for r in recs) / n / NS_PER_US,
            )
    return out


@dataclass(slots=True)
class ScenarioReport:
    """Per-request records plus recomputable per-bin aggregates.

    ``shard_loads`` carries the authoritative record count per shard
    index after registration (summed over sites), for balance checks.
    ``rows_written`` is the number of rows, header aside, of the CSV
    ``run_scenario`` wrote from the report.
    """

    scenario: str
    records: list[RequestRecord] = field(default_factory=list)
    probes: list[ProbeStat] = field(default_factory=list)
    shard_loads: dict[int, int] = field(default_factory=dict)
    rows_written: int = 0

    def add(self, record: RequestRecord) -> None:
        self.records.append(record)

    def bins(self) -> dict[int, dict[str, BinStats]]:
        return bin_by_distance(self.records)

    def rows(self) -> list[dict[str, object]]:
        """CSV rows ordered by (scenario, distance, scheme, case)."""
        rows: list[dict[str, object]] = []
        bins = self.bins()
        for case, distance in enumerate(sorted(bins), start=1):
            for scheme in sorted(bins[distance]):
                stats = bins[distance][scheme]
                rows.append({
                    "scenario": self.scenario,
                    "case": case,
                    "distance": distance,
                    "scheme": scheme,
                    "requests": stats.requests,
                    "interest_traversals_mean": f"{stats.interest_mean:.6f}",
                    "interest_traversals_top5": stats.interest_top5,
                    "path_hops_mean": f"{stats.path_hops_mean:.6f}",
                    "data_traversals_mean": f"{stats.data_mean:.6f}",
                    "bytes_total": stats.bytes_total,
                    "latency_mean_us": f"{stats.latency_mean_us:.3f}",
                })
        for probe in self.probes:
            rows.append({
                "scenario": self.scenario,
                "case": probe.shard_index + 1,
                "distance": 0,
                "scheme": "balancedn",
                "requests": probe.lookups,
                "interest_traversals_mean": f"{0:.6f}",
                "interest_traversals_top5": 0,
                "path_hops_mean": f"{0:.6f}",
                "data_traversals_mean": f"{0:.6f}",
                "bytes_total": 0,
                "latency_mean_us": f"{probe.mean_lookup_ms * 1000.0:.3f}",
            })
        return rows


def emit_csv(report: ScenarioReport) -> str:
    """Render the report as CSV text under the fixed schema."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in report.rows():
        writer.writerow(row)
    return buf.getvalue()
