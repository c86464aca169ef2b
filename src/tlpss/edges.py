"""Timestamped edge lists: parsing, normalization, snapshots and time splits.

Input is the KONECT-style whitespace-separated format, one edge per line:
``src dst [weight] timestamp`` with ``%`` comment lines.  The weight column
is ignored; all edge weighting in this toolkit comes from time decay.
Node ids are remapped to dense 0-based integers (sorted by original id) and
the original ids are kept so files can be written back out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import EmptyDatasetError, ParseError, SplitError

__all__ = [
    "TemporalEdge",
    "TemporalEdgeList",
    "DropReport",
    "SnapshotConfig",
    "TrainTestSplit",
    "parse_edge_list",
    "normalize",
    "serialize",
    "load_edge_list",
    "snapshot_index",
    "split_by_time",
]


class TemporalEdge(NamedTuple):
    u: int
    v: int
    ts: int


class TemporalEdgeList:
    """Immutable sequence of timestamped undirected edges, sorted by time.

    Multi-edges (repeated pairs, equal or distinct timestamps) are allowed.
    The node set is fixed as every id seen when the list was created, even
    if normalization later leaves some of them without edges.
    """

    def __init__(
        self,
        edges: Iterable[TemporalEdge],
        node_count: int,
        node_ids: Sequence[int] | None = None,
    ):
        edges = [TemporalEdge(*e) for e in edges]
        edges.sort(key=lambda e: e.ts)  # stable: input order preserved on ties
        if node_ids is None:
            node_ids = range(node_count)
        node_ids = tuple(node_ids)
        if len(node_ids) != node_count:
            raise ValueError("node_ids length must equal node_count")
        for e in edges:
            if not (0 <= e.u < node_count and 0 <= e.v < node_count):
                raise ValueError(f"edge {e} has a node id outside [0, {node_count})")
        self.edges: tuple[TemporalEdge, ...] = tuple(edges)
        self.node_count = node_count
        self.node_ids = node_ids
        self.t_min = self.edges[0].ts if self.edges else None
        self.t_max = self.edges[-1].ts if self.edges else None

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[TemporalEdge]:
        return iter(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemporalEdgeList):
            return NotImplemented
        return (
            self.edges == other.edges
            and self.node_count == other.node_count
            and self.node_ids == other.node_ids
        )

    def with_edges(self, edges: Iterable[TemporalEdge]) -> "TemporalEdgeList":
        """New list over the same fixed node set."""
        return TemporalEdgeList(edges, self.node_count, self.node_ids)

    @cached_property
    def pair_counts(self) -> Counter:
        """Multiplicity of every canonical (min, max) pair."""
        return Counter((e.u, e.v) if e.u < e.v else (e.v, e.u) for e in self.edges)

    def linked_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.pair_counts)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, ts) as int64 arrays, in stored (time) order."""
        if not self.edges:
            z = np.empty(0, dtype=np.int64)
            return z, z.copy(), z.copy()
        a = np.asarray(self.edges, dtype=np.int64)
        return a[:, 0], a[:, 1], a[:, 2]


@dataclass
class DropReport:
    """What ingestion kept and dropped; serialized next to normalized output."""

    lines_read: int = 0
    edges_kept: int = 0
    missing_ts_dropped: int = 0
    self_loops_dropped: int = 0

    def to_dict(self) -> dict:
        return {
            "lines_read": self.lines_read,
            "edges_kept": self.edges_kept,
            "missing_ts_dropped": self.missing_ts_dropped,
            "self_loops_dropped": self.self_loops_dropped,
        }


@dataclass(frozen=True)
class SnapshotConfig:
    """Maps raw timestamps to real-valued snapshot indices.

    ``period`` is in raw timestamp units (e.g. 3600 for hourly snapshots on
    Unix-second data); ``origin`` is the raw timestamp of index 0, which is 1
    for normalized lists.
    """

    period: float
    origin: float = 1.0

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError(f"snapshot period must be > 0, got {self.period!r}")


@dataclass(frozen=True)
class TrainTestSplit:
    """Time-ordered split: train holds everything up to and including
    ``t_split``, test everything after.  ``positives`` are the canonical
    pairs linked in test but not in train — the prediction targets."""

    train: TemporalEdgeList
    test: TemporalEdgeList
    t_split: int
    positives: frozenset[tuple[int, int]]


def _parse_ts(token: str) -> int | None:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        f = float(token)
    except ValueError:
        return None
    if np.isfinite(f) and f == int(f):
        return int(f)
    return None


def parse_edge_list(stream: TextIO) -> tuple[TemporalEdgeList, DropReport]:
    """Read a KONECT-style stream into an edge list with dense node ids.

    Records without a parseable timestamp are dropped and counted in the
    report; lines that are not ``src dst [weight] timestamp`` shaped at all
    raise :class:`ParseError` with the offending line number.  Self-loops
    are kept here and removed by :func:`normalize`.
    """
    records: list[tuple[int, int, int]] = []
    report = DropReport()
    for lineno, raw in enumerate(stream, start=1):
        report.lines_read += 1
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        fields = line.split()
        if len(fields) < 2 or len(fields) > 4:
            raise ParseError(lineno, f"expected 2-4 columns, got {len(fields)}: {line!r}")
        try:
            u = int(fields[0])
            v = int(fields[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer node id in {line!r}") from None
        if len(fields) == 2:
            report.missing_ts_dropped += 1
            continue
        ts = _parse_ts(fields[-1])
        if ts is None:
            report.missing_ts_dropped += 1
            continue
        records.append((u, v, ts))
    if not records:
        raise EmptyDatasetError("no edges with usable timestamps")

    ids = sorted({u for u, _, _ in records} | {v for _, v, _ in records})
    index = {orig: i for i, orig in enumerate(ids)}
    edges = [TemporalEdge(index[u], index[v], ts) for u, v, ts in records]
    result = TemporalEdgeList(edges, len(ids), ids)
    report.edges_kept = len(result)
    return result, report


def normalize(lst: TemporalEdgeList) -> TemporalEdgeList:
    """Drop self-loops, orient every edge as (min, max), and shift timestamps
    so the earliest remaining edge sits at 1.  Idempotent; the node set is
    left untouched."""
    kept = [e for e in lst.edges if e.u != e.v]
    if not kept:
        return lst.with_edges([])
    shift = 1 - min(e.ts for e in kept)
    edges = [
        TemporalEdge(min(e.u, e.v), max(e.u, e.v), e.ts + shift) for e in kept
    ]
    return lst.with_edges(edges)


def serialize(lst: TemporalEdgeList, out: TextIO) -> None:
    """Write ``src dst timestamp`` lines (original node ids, stored order)."""
    ids = lst.node_ids
    for e in lst.edges:
        out.write(f"{ids[e.u]} {ids[e.v]} {e.ts}\n")


def load_edge_list(path) -> tuple[TemporalEdgeList, DropReport]:
    """Parse and normalize a file, returning the final drop report."""
    with open(path, "r", encoding="utf-8") as fh:
        parsed, report = parse_edge_list(fh)
    cleaned = normalize(parsed)
    report.self_loops_dropped = len(parsed) - len(cleaned)
    report.edges_kept = len(cleaned)
    return cleaned, report


def snapshot_index(ts: float, cfg: SnapshotConfig) -> float:
    """Real-valued snapshot index ``(ts - origin) / period`` of a raw time."""
    if ts < cfg.origin:
        raise ValueError(f"timestamp {ts} precedes snapshot origin {cfg.origin}")
    return (ts - cfg.origin) / cfg.period


def split_by_time(lst: TemporalEdgeList, ratio: float) -> TrainTestSplit:
    """Split at the smallest timestamp whose cumulative edge fraction reaches
    ``ratio``; ties at the boundary all land in train so that test stays
    strictly in the future."""
    if not 0 < ratio < 1:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio!r}")
    if not lst.edges:
        raise ValueError("cannot split an empty edge list")
    ts = np.array([e.ts for e in lst.edges], dtype=np.int64)  # already sorted
    target = ratio * len(ts)
    uniq, counts = np.unique(ts, return_counts=True)
    cum = np.cumsum(counts)
    t_split = int(uniq[np.searchsorted(cum, target)])
    if t_split == lst.t_max:
        raise SplitError(
            f"all edges fall at or before t={t_split}; no test period remains"
        )
    n_train = int(np.searchsorted(ts, t_split, side="right"))
    train = lst.with_edges(lst.edges[:n_train])
    test = lst.with_edges(lst.edges[n_train:])
    positives = frozenset(test.pair_counts) - frozenset(train.pair_counts)
    return TrainTestSplit(train=train, test=test, t_split=t_split, positives=positives)

