"""Timestamped edge lists: parsing, normalization, snapshots and time splits.

Input is the KONECT-style whitespace-separated format, one edge per line:
``src dst [weight] timestamp`` with ``%`` comment lines.  The weight column
is ignored; all edge weighting in this toolkit comes from time decay.
Node ids are remapped to dense 0-based integers (sorted by original id) and
the original ids are kept so files can be written back out.

A stream's lines are read in runs of about ``_READ_CHARS`` characters.  A
run of plain integer rows, as KONECT files hold, is parsed in one C-level
pass (:func:`_read_bulk`): its leading blank and ``%`` comment lines, then
rows of 3 or 4 integer fields, the same count in every row, made of ASCII
digits, signs, spaces and tabs, CR only at a line's end, timestamps inside
+-2**62.  Every other run is read line by line (:func:`_read_lines`), the
one place that raises :class:`ParseError`; a line that both readers take
reads the same in both.

An edge list is three int64 columns.  Every layer names an unordered pair
by one int64 key, :func:`pair_key` ``= i*n + j`` with ``i < j``; this module
is the only place that builds keys.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np

from .errors import EmptyDatasetError, ParseError, SplitError

__all__ = [
    "TemporalEdgeList",
    "DropReport",
    "SnapshotConfig",
    "TrainTestSplit",
    "pair_key",
    "distinct",
    "parse_edge_list",
    "normalize",
    "serialize",
    "load_edge_list",
    "snapshot_index",
    "split_by_time",
]


def pair_key(i, j, n: int) -> np.ndarray:
    """Key ``min*n + max`` of each unordered pair of nodes among ``n``: the
    flat index of the pair's upper-triangle cell in an n x n matrix, so
    sorting keys gives canonical (i, j) order and ``divmod(key, n)`` gives
    the pair back."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return np.minimum(i, j) * n + np.maximum(i, j)


def distinct(keys: np.ndarray, without: np.ndarray | None = None) -> np.ndarray:
    """The distinct values of ``keys``, ascending, less any in ``without``:
    ``np.unique`` (so ``np.union1d`` of a concatenation) and, with
    ``without``, ``np.setdiff1d``, by sorts, where numpy's ``unique`` may
    hash: on the pair keys of a 1M-edge, 100k-node graph ``np.union1d``
    and ``np.setdiff1d`` each took about 0.6 s and this 0.02 s (2-vCPU
    host)."""
    keys = np.sort(keys)
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    if without is None or not len(without):
        return keys
    without = np.sort(without)
    return keys[without.take(np.searchsorted(without, keys), mode="clip") != keys]


class TemporalEdgeList:
    """Immutable columns ``u``, ``v``, ``ts`` (int64) of timestamped
    undirected edges, sorted by time.

    Multi-edges (repeated pairs, equal or distinct timestamps) are allowed.
    The node set is fixed as every id seen when the list was created, even
    if normalization later leaves some of them without edges; ``node_ids``
    holds each dense id's original id.
    """

    def __init__(self, u, v, ts, node_count: int, node_ids=None):
        u, v, ts = (np.asarray(c, dtype=np.int64) for c in (u, v, ts))
        if not (u.ndim == v.ndim == ts.ndim == 1 and len(u) == len(v) == len(ts)):
            shapes = f"{u.shape}, {v.shape}, {ts.shape}"
            raise ValueError(f"columns u, v, ts must be 1-D of one length, not of shapes {shapes}")
        order = np.argsort(ts, kind="stable")  # input order preserved on ties
        self.u = u[order]
        self.v = v[order]
        self.ts = ts[order]
        if node_ids is None:
            node_ids = np.arange(node_count)
        self.node_ids = np.array(node_ids, dtype=np.int64)
        if len(self.node_ids) != node_count:
            raise ValueError("node_ids length must equal node_count")
        ends = np.concatenate([self.u, self.v])
        if len(ends) and not (0 <= ends.min() and ends.max() < node_count):
            raise ValueError(f"an edge has a node id outside [0, {node_count})")
        for column in (self.u, self.v, self.ts, self.node_ids):
            column.flags.writeable = False
        self.node_count = node_count
        self.t_min = int(self.ts[0]) if len(self.ts) else None
        self.t_max = int(self.ts[-1]) if len(self.ts) else None

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, index) -> "TemporalEdgeList":
        """The edges at ``index`` (a slice, mask or index array) over the
        same fixed node set."""
        return TemporalEdgeList(
            self.u[index], self.v[index], self.ts[index], self.node_count, self.node_ids
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemporalEdgeList):
            return NotImplemented
        return self.node_count == other.node_count and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("u", "v", "ts", "node_ids")
        )

    def pair_keys(self) -> np.ndarray:
        """:func:`pair_key` of every edge, in stored (time) order."""
        return pair_key(self.u, self.v, self.node_count)


@dataclass
class DropReport:
    """What ingestion kept and dropped; serialized next to normalized output."""

    lines_read: int = 0
    edges_kept: int = 0
    missing_ts_dropped: int = 0
    self_loops_dropped: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


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
    pairs linked in test but not in train — the prediction targets — as
    sorted :func:`pair_key` keys."""

    train: TemporalEdgeList
    test: TemporalEdgeList
    t_split: int
    positives: np.ndarray


_TS_LIMIT = 2**62
_ID_LIMIT = 2**63  # node ids are held as int64
_READ_CHARS = 2**20  # bounds the lines parse_edge_list holds at once
_SERIALIZE_ROWS = 2**14  # and the text serialize does


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

    Runs of lines of plain integer rows are parsed in bulk, any other line
    by line, with the same results (see :func:`_read_columns`).
    """
    report = DropReport()
    us, vs, stamps = _read_columns(stream, report)
    if not len(stamps):
        raise EmptyDatasetError("no edges with usable timestamps")

    ids, dense = np.unique(np.concatenate([us, vs]), return_inverse=True)
    m = len(stamps)
    result = TemporalEdgeList(dense[:m], dense[m:], stamps, len(ids), ids)
    report.edges_kept = len(result)
    return result, report


def _read_columns(stream: TextIO, report: DropReport) -> list[np.ndarray]:
    """The ``u``, ``v`` and timestamp columns of the stream's records, from
    its lines (as iterating it gives them) read ``_READ_CHARS`` characters
    at a time: each run by :func:`_read_bulk` where it can, else by
    :func:`_read_lines`.  Counts the lines in ``report``."""
    empty = np.zeros(0, dtype=np.int64)
    parts = [(empty, empty, empty)]
    while lines := stream.readlines(_READ_CHARS):
        columns = _read_bulk(lines)
        if columns is None:
            columns = _read_lines(lines, report.lines_read + 1, report)
        report.lines_read += len(lines)
        parts.append(columns)
    return [np.concatenate(c) for c in zip(*parts)]


# the characters of a data line that _read_bulk reads (any other, a
# non-ASCII one encoded as "?", sends its run line by line, where str.split
# and int() take more whitespace and digits)
_BULK_CHARS = b"0123456789+- \t\r\n"


def _read_bulk(lines: list[str]):
    """The ``u``, ``v`` and timestamp columns of ``lines`` in one C-level
    parse, or None where a line may read otherwise than in
    :func:`_read_lines`.  Read here: leading blank and ``%`` comment lines,
    then rows of 3 or 4 integer fields (the same count in every row) made
    of ASCII digits, signs, spaces and tabs, blank lines among them, with
    timestamps inside +-2**62.  ``np.loadtxt`` takes each line as one row
    and rejects a line with a line break before its end, as a stream read
    with ``newline="\r"`` can give."""
    start = 0
    for line in lines:
        head = line.strip()
        if head and not head.startswith("%"):
            break
        start += 1
    body = lines[start:]
    if "".join(body).encode("ascii", "replace").translate(None, _BULK_CHARS):
        return None
    with warnings.catch_warnings():
        # numpy 1.x parses a field that is no int64, such as one beyond its
        # range, through a float with a DeprecationWarning; every version
        # warns on input without rows
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    ts = table[:, -1]
    if table.shape[1] not in (3, 4) or not np.all((-_TS_LIMIT < ts) & (ts < _TS_LIMIT)):
        return None
    return table[:, 0], table[:, 1], ts


def _read_lines(lines: list[str], first: int, report: DropReport):
    """The ``u``, ``v`` and timestamp columns of ``lines``, numbered from
    ``first``, one line at a time, counting records without a timestamp in
    ``report``."""
    us: list[int] = []
    vs: list[int] = []
    stamps: list[int] = []
    for lineno, raw in enumerate(lines, start=first):
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
        if not -_TS_LIMIT < ts < _TS_LIMIT:
            # so that normalized times, and spans between any two, fit int64
            raise ParseError(lineno, f"timestamp out of range (|t| < 2**62): {line!r}")
        if not (-_ID_LIMIT <= u < _ID_LIMIT and -_ID_LIMIT <= v < _ID_LIMIT):
            raise ParseError(lineno, f"node id out of range (int64): {line!r}")
        us.append(u)
        vs.append(v)
        stamps.append(ts)
    return tuple(np.array(c, dtype=np.int64) for c in (us, vs, stamps))


def normalize(lst: TemporalEdgeList) -> TemporalEdgeList:
    """Drop self-loops, orient every edge as (min, max), and shift timestamps
    so the earliest remaining edge sits at 1.  Idempotent; the node set is
    left untouched."""
    kept = lst[lst.u != lst.v]
    if not len(kept):
        return kept
    return TemporalEdgeList(
        np.minimum(kept.u, kept.v),
        np.maximum(kept.u, kept.v),
        kept.ts + (1 - kept.t_min),
        lst.node_count,
        lst.node_ids,
    )


def serialize(lst: TemporalEdgeList, out: TextIO) -> None:
    """Write ``src dst timestamp`` lines (original node ids, stored order),
    ``_SERIALIZE_ROWS`` rows to each ``%``-format call."""
    ids = lst.node_ids
    for start in range(0, len(lst), _SERIALIZE_ROWS):
        part = slice(start, start + _SERIALIZE_ROWS)
        rows = np.column_stack([ids[lst.u[part]], ids[lst.v[part]], lst.ts[part]])
        out.write("%d %d %d\n" * len(rows) % tuple(rows.ravel().tolist()))


def load_edge_list(path) -> tuple[TemporalEdgeList, DropReport]:
    """Parse and normalize a UTF-8 file (a leading byte-order mark is
    skipped), returning the final drop report."""
    with open(path, "r", encoding="utf-8-sig") as fh:
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
    if not len(lst):
        raise SplitError("cannot split an empty edge list")
    ts = lst.ts
    target = ratio * len(ts)
    uniq, counts = np.unique(ts, return_counts=True)
    cum = np.cumsum(counts)
    t_split = int(uniq[np.searchsorted(cum, target)])
    if t_split == lst.t_max:
        raise SplitError(
            f"all edges fall at or before t={t_split}; no test period remains"
        )
    n_train = int(np.searchsorted(ts, t_split, side="right"))
    train = lst[:n_train]
    test = lst[n_train:]
    positives = distinct(test.pair_keys(), train.pair_keys())
    return TrainTestSplit(train=train, test=test, t_split=t_split, positives=positives)
