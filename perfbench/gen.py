"""Seeded synthetic temporal multigraphs in the KONECT raw format.

Each file has a ``%`` header and ``src dst weight ts`` rows with Unix-second
timestamps at minute resolution over ``days`` days, so timestamps tie.
Node activity is heavy-tailed (proportional to rank^-0.8), each row's second
endpoint is either a partner from the first endpoint's community or another
activity-weighted draw, ``repeat`` of the rows repeat an earlier pair at a
later time (multi-edges), and ``self_loop`` of the rows are self-loops.

The same seed and parameters give the same bytes.  Generation happens
before any timing, and the program under test receives only the file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

T0 = 1_577_836_800  # 2020-01-01T00:00:00Z, a whole minute
ACTIVITY_EXPONENT = 0.8


@dataclass(frozen=True)
class GraphSpec:
    nodes: int
    rows: int
    hubs: int = 1  # the top-ranked `hubs` nodes all get the top activity
    community: int = 40  # mean community size
    community_mix: float = 0.5  # share of second endpoints from the community
    repeat: float = 0.3
    self_loop: float = 0.01
    days: int = 90


@dataclass(frozen=True)
class Generated:
    src: np.ndarray  # original node ids, rows in file order
    dst: np.ndarray
    ts: np.ndarray
    self_loops: int
    header_lines: int
    sha256: str


def _draw(rng, cdf, size):
    return np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")


def generate(spec: GraphSpec, seed: int) -> tuple[bytes, Generated]:
    """File bytes and the rows they hold, for one spec and seed."""
    rng = np.random.default_rng(seed)
    n = spec.nodes
    rank = rng.permutation(n) + 1
    activity = np.maximum(rank, spec.hubs).astype(np.float64) ** -ACTIVITY_EXPONENT
    cdf = np.cumsum(activity)

    n_repeat = int(round(spec.repeat * spec.rows))
    n_fresh = spec.rows - n_repeat
    src = _draw(rng, cdf, n_fresh)
    dst = _draw(rng, cdf, n_fresh)

    # community partners: members of src's community, uniformly
    n_comm = max(1, n // spec.community)
    comm = rng.integers(0, n_comm, size=n)
    members = np.argsort(comm, kind="stable")
    sizes = np.bincount(comm, minlength=n_comm)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    local = rng.random(n_fresh) < spec.community_mix
    c = comm[src[local]]
    dst[local] = members[starts[c] + (rng.random(local.sum()) * sizes[c]).astype(np.int64)]
    accidental = src == dst
    dst[accidental] = (dst[accidental] + 1) % n

    minutes = spec.days * 24 * 60
    t_fresh = rng.integers(0, minutes, size=n_fresh)
    pick = rng.integers(0, n_fresh, size=n_repeat)
    later = t_fresh[pick] + 1 + (rng.random(n_repeat) * (minutes - t_fresh[pick])).astype(np.int64)
    swap = rng.random(n_repeat) < 0.5
    r_src = np.where(swap, dst[pick], src[pick])
    r_dst = np.where(swap, src[pick], dst[pick])

    src = np.concatenate([src, r_src])
    dst = np.concatenate([dst, r_dst])
    t = np.concatenate([t_fresh, later])
    loops = rng.choice(spec.rows, size=int(round(spec.self_loop * spec.rows)), replace=False)
    dst[loops] = src[loops]

    order = np.argsort(t, kind="stable")
    src = src[order] + 1  # KONECT ids are 1-based
    dst = dst[order] + 1
    ts = T0 + 60 * t[order]

    header = f"% sym unweighted\n% {spec.rows} {n} {n}\n"
    body = format_rows(src, dst, np.ones_like(src), ts)
    data = header.encode() + body
    return data, Generated(
        src=src,
        dst=dst,
        ts=ts,
        self_loops=int(np.count_nonzero(src == dst)),
        header_lines=header.count("\n"),
        sha256=hashlib.sha256(data).hexdigest(),
    )


def format_rows(*columns: np.ndarray) -> bytes:
    """Space-separated integer columns, one newline-terminated line per row."""
    lines = map(" ".join, zip(*(map(str, c.tolist()) for c in columns)))
    return "".join(line + "\n" for line in lines).encode()
