"""Decayed weighted adjacency and latent-edge weights.

The adjacency at reference snapshot ``T`` weights every linked pair by the
summed decay values of its multi-edges.  On top of it sit the *latent
edges* used by TLPSS: a pair at graph distance two is weighted by the decay
floor times a scale factor built from the pair's common neighbors, so a
latent edge always weighs less than the floor, hence less than any single
surviving edge weight.  For a target pair (x, y), the latent edges that
TLPSS uses run from x to its *hidden nodes*: neighbors of y that are not
neighbors of x but share a neighbor with x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .decay import DecayParams, ExpDecayParams, decay_floor, decay_weights
from .edges import SnapshotConfig, TemporalEdgeList, pair_key
from .errors import ConfigError

__all__ = [
    "WeightedAdjacency",
    "DegreeVector",
    "build_adjacency",
    "degree_vector",
    "latent_matrix",
]

# COO buffer flush threshold for the bulk latent builder (entries).
_CHUNK = 4_000_000


class WeightedAdjacency:
    """Sparse symmetric positive-weight adjacency at one reference snapshot.

    One CSR matrix, :attr:`weight_csr`, stores both orientations of every
    linked pair with sorted column indices in each row; :attr:`mult` holds
    the multi-edge count of each stored entry, aligned with its ``data``.
    Immutable after construction.
    """

    def __init__(
        self,
        n: int,
        reference_time: float,
        lo: np.ndarray,
        hi: np.ndarray,
        weight: np.ndarray,
        mult: np.ndarray,
    ):
        """From canonical pairs ``lo[k] < hi[k]`` with their weights and
        multiplicities, each pair given once."""
        if np.any(lo < 0) or np.any(lo >= hi) or np.any(hi >= n):
            raise ValueError(f"pairs must be canonical (0 <= i < j < {n})")
        if not np.all(np.isfinite(weight) & (weight > 0)):
            raise ValueError("pair weights must be finite and positive")
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        order = np.lexsort((cols, rows))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self.n = n
        self.reference_time = reference_time
        self.weight_csr = sp.csr_matrix(
            (np.concatenate([weight, weight])[order], cols[order], indptr),
            shape=(n, n),
        )
        self.mult = np.concatenate([mult, mult])[order]

    @classmethod
    def from_pair_weights(
        cls,
        n: int,
        weights: dict[tuple[int, int], float],
        mults: dict[tuple[int, int], int] | None = None,
        reference_time: float = 0.0,
    ) -> "WeightedAdjacency":
        """Build directly from pair weights in either orientation (tests,
        diagnostics); multiplicities default to 1."""
        canon = {}
        for (i, j), w in weights.items():
            if i == j:
                raise ValueError("diagonal entries are not allowed")
            canon[(min(i, j), max(i, j))] = float(w)
        mult = {(min(i, j), max(i, j)): int(m) for (i, j), m in (mults or {}).items()}
        keys = sorted(canon)
        pairs = np.array(keys, dtype=np.int64).reshape(-1, 2)
        return cls(
            n,
            reference_time,
            pairs[:, 0],
            pairs[:, 1],
            np.array([canon[k] for k in keys], dtype=np.float64),
            np.array([mult.get(k, 1) for k in keys], dtype=np.int64),
        )

    def __len__(self) -> int:
        """Number of linked pairs."""
        return self.weight_csr.nnz // 2

    @cached_property
    def indicator_csr(self) -> sp.csr_matrix:
        """0/1 adjacency with the same sparsity pattern as :attr:`weight_csr`."""
        m = self.weight_csr.copy()
        m.data = np.ones_like(m.data)
        return m


@dataclass(frozen=True)
class DegreeVector:
    """Per-node weighted degree ``w`` (sum of incident decayed weights) and
    plain distinct-neighbor count ``d``."""

    w: np.ndarray
    d: np.ndarray


def build_adjacency(
    train: TemporalEdgeList,
    T: float,
    params: DecayParams | ExpDecayParams,
    cfg: SnapshotConfig,
    agg: str = "sum",
) -> WeightedAdjacency:
    """Decayed adjacency at reference snapshot ``T``.

    Every multi-edge contributes its own decay weight and the pair weight is
    the sum (``agg="sum"``, the default); ``agg="latest"`` instead keeps only
    the decay weight of the most recent edge on each pair, for sensitivity
    checks of the aggregation choice.  Multiplicities always count all
    multi-edges regardless of ``agg``.
    """
    if agg not in ("sum", "latest"):
        raise ValueError(f"unknown aggregation mode {agg!r}")
    n = train.node_count
    if np.any(train.u == train.v):
        raise ValueError("train list contains self-loops; normalize it first")
    ts = train.ts
    elapsed = T - (ts.astype(np.float64) - cfg.origin) / cfg.period
    if np.any(elapsed < 0):
        raise ValueError("train contains edges later than the reference snapshot")

    uniq, inverse, counts = np.unique(
        train.pair_keys(), return_inverse=True, return_counts=True
    )
    if agg == "sum":
        w_edge = decay_weights(elapsed, params)
        w_pair = np.bincount(inverse, weights=w_edge, minlength=len(uniq))
    else:
        latest = np.full(len(uniq), -np.inf)
        np.maximum.at(latest, inverse, ts.astype(np.float64))
        w_pair = decay_weights(T - (latest - cfg.origin) / cfg.period, params)
    if not np.all(w_pair > 0):
        raise ConfigError(
            f"decay weights of the oldest train links underflow to 0 under {params} "
            f"with period {cfg.period!r}; use a longer period, larger p or q, or "
            "smaller theta"
        )
    return WeightedAdjacency(n, T, uniq // n, uniq % n, w_pair, counts)


def degree_vector(A: WeightedAdjacency) -> DegreeVector:
    W = A.weight_csr
    # one sum per row slice, so each degree rounds like a plain array sum
    w = np.array(
        [W.data[s:e].sum() for s, e in zip(W.indptr[:-1], W.indptr[1:])],
        dtype=np.float64,
    )
    return DegreeVector(w=w, d=np.diff(W.indptr).astype(np.int64))


def latent_matrix(
    A: WeightedAdjacency, params: DecayParams | ExpDecayParams
) -> sp.csr_matrix:
    """All latent-edge weights as a symmetric sparse matrix.

    Cell (i, j) is ``floor * scale`` with ``floor`` the decay lower bound
    and ``scale = (1/min(d(i), d(j))) * sum over common neighbors z of
    (A(i,z) + A(z,j)) / (m(i,z) + m(z,j))``, where ``d`` counts distinct
    neighbors and ``m`` multi-edges.  The scale lies in [0, 1], so every
    cell is strictly below the floor.  Supported exactly on pairs at graph
    distance two, via one pass over two-hop paths.
    """
    n = A.n
    floor = decay_floor(params)
    acc = sp.csr_matrix((n, n), dtype=np.float64)
    if floor == 0.0:
        return acc
    buf_i: list[np.ndarray] = []
    buf_j: list[np.ndarray] = []
    buf_v: list[np.ndarray] = []
    buffered = 0

    def flush():
        nonlocal acc, buffered
        if not buffered:
            return
        block = sp.coo_matrix(
            (np.concatenate(buf_v), (np.concatenate(buf_i), np.concatenate(buf_j))),
            shape=(n, n),
        )
        acc = acc + block.tocsr()
        buf_i.clear()
        buf_j.clear()
        buf_v.clear()
        buffered = 0

    W = A.weight_csr
    deg = np.diff(W.indptr)
    for z in range(n):
        d = int(deg[z])
        if d < 2:
            continue
        row = slice(W.indptr[z], W.indptr[z + 1])
        nb = W.indices[row]
        wt = W.data[row]
        mu = A.mult[row].astype(np.float64)
        contrib = (wt[:, None] + wt[None, :]) / (mu[:, None] + mu[None, :])
        np.fill_diagonal(contrib, 0.0)
        buf_i.append(np.repeat(nb, d))
        buf_j.append(np.tile(nb, d))
        buf_v.append(contrib.ravel())
        buffered += d * d
        if buffered >= _CHUNK:
            flush()
    flush()

    coo = acc.tocoo()
    if coo.nnz == 0:
        return acc
    # Two-hop paths also land on adjacent pairs (triangles); drop those,
    # latent edges exist only where A does not.
    adj = W.tocoo()
    keep = ~np.isin(pair_key(coo.row, coo.col, n), pair_key(adj.row, adj.col, n))
    row, col = coo.row[keep], coo.col[keep]
    vals = floor * coo.data[keep] / np.minimum(deg[row], deg[col]).astype(np.float64)
    return sp.csr_matrix((vals, (row, col)), shape=(n, n))
