"""Decayed weighted adjacency and latent-edge weights.

The adjacency at reference snapshot ``T`` weights every linked pair by the
summed decay values of its multi-edges.  On top of it sit the *latent
edges* used by TLPSS: a pair at graph distance two is weighted by the decay
floor times a scale factor built from the pair's common neighbors, so a
latent edge always weighs less than the floor, hence less than any single
surviving edge weight.  For a target pair (x, y), the latent edges that
TLPSS uses run from x to its *hidden nodes*: neighbors of y that are not
neighbors of x but share a neighbor with x.

What depends only on which pairs are linked, not on their weights, is
built once per train list and shared by every decay parameter set: the
:class:`PairLayout` of the pairs, which builds on first use the
:class:`LatentPlan` of the two-hop pass behind the latent weights.  A
layout made for one adjacency alone (``keep_plan=False``, as evaluation
under one decay setting makes it) keeps no plan: each latent pass finds
the plan's row sets, each with its own latent cells, weighs them and drops
them.  The caller makes the layout, which keeps the plan as long as it lives:
``A = build_adjacency(train, T, params, cfg, pair_layout(train, keep_plan))``.
``A`` keeps its decay as ``A.params``, and ``latent_matrix(A)`` takes its
floor from it, so edge weights and latent floor come from one ``q``.

:func:`pool_map` runs kernels that release the GIL on one thread per CPU
the process may use.  The latent plan's row sets and :mod:`tlpss.scoring`'s
row and pair parts are its tasks, all cut one way by :func:`parts`: runs of
consecutive rows or pairs of at most ``_PART`` work each.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from .decay import DecayParams, ExpDecayParams, decay_floor, decay_weights
from .edges import SnapshotConfig, TemporalEdgeList
from .errors import ConfigError

__all__ = [
    "WeightedAdjacency",
    "DegreeVector",
    "build_adjacency",
    "degree_vector",
    "latent_matrix",
    "PairLayout",
    "pair_layout",
]

# Two-hop terms per chunk of the latent pass; chunks fix the order in which
# each latent cell's terms are added, and so its bits.
_CHUNK = 4_000_000
# The most work one task of pool_map holds (see parts): a latent row set's
# two-hop terms, a row part's cells, those its rows write, a pair part's
# looked-up terms, and the column indices scoring counts at once.  Memory a
# worker thread frees stays in that thread's glibc arena, so tasks must be
# small for it to be reused: products cut in halves took the sweep-q-hubs
# peak RSS from 237 to 267 MB, and latent blocks of 2**20 terms left it
# about 40 MB higher.  Each task also costs about 0.1 ms of Python, so tasks
# are not cut smaller than this.  On the eval-all-4k seed-0 input,
# `evaluate --method tlpss` peaked at 145 MB counting 2**16 or 2**18 column
# indices at once (149 MB with 2**20).
_PART = 2**16


def _workers() -> int:
    """The CPUs in the process's affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        return os.cpu_count() or 1


@cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="tlpss")


def pool_map(fn, items: list):
    """``map(fn, items)`` with the calls spread over one thread per CPU the
    process may use, from one pool per process; the results come in the
    order of the items.  With one CPU, or one item, the calls run in the
    calling thread.  For kernels that spend their time in native code that
    releases the GIL (SciPy's sparsetools, numpy's gathers and
    ``bincount``).
    """
    workers = _workers()
    if workers == 1 or len(items) < 2:
        return map(fn, items)
    # Executor.map submits every call at once; when a call raises, or the
    # caller stops waiting (a KeyboardInterrupt), it cancels the calls not
    # started yet.
    return _executor(workers).map(fn, items)


def parts(before: np.ndarray) -> list[range]:
    """Runs of consecutive items, the tasks of :func:`pool_map`, each
    costing at most ``_PART`` in all or holding one item: ``before[t]`` is
    the summed cost of the items before item t, and ``before[-1]`` that of
    all.  A run takes as many items as fit; the runs cover the items once,
    in order, and no items make one empty run."""
    m, runs, a = len(before) - 1, [], 0
    while a < m or not runs:
        b = max(a + 1, int(np.searchsorted(before, before[a] + _PART, side="right")) - 1)
        runs.append(range(a, min(b, m)))
        a = b
    return runs


class PairLayout:
    """Where each of a set of canonical pairs sits in a symmetric CSR
    adjacency, independent of the pairs' weights.

    ``keys`` are the pairs' sorted :func:`~tlpss.edges.pair_key` keys;
    ``order`` maps each stored entry to its pair (an index into the pairs
    concatenated with themselves, one copy per orientation); ``indptr`` and
    ``indices`` are the CSR structure with sorted column indices in each
    row; ``mult`` is the multi-edge count of each stored entry.  For a layout
    built from a train list, ``inverse`` gives each train edge's pair.
    ``keep_plan`` says whether :func:`latent_matrix` keeps the layout's
    :attr:`latent_plan` for the next adjacency, or streams a plan of its
    own for each call.
    """

    def __init__(
        self,
        n: int,
        lo: np.ndarray,
        hi: np.ndarray,
        mult: np.ndarray,
        inverse: np.ndarray | None = None,
        keep_plan: bool = True,
    ):
        """From canonical pairs ``lo[k] < hi[k]`` in ascending order, each
        given once."""
        if np.any(lo < 0) or np.any(lo >= hi) or np.any(hi >= n):
            raise ValueError(f"pairs must be canonical (0 <= i < j < {n})")
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        self.n = n
        self.keys = lo * n + hi
        self.order = np.lexsort((cols, rows))
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.indices = cols[self.order]
        self.mult = np.concatenate([mult, mult])[self.order]
        self.inverse = inverse
        self.keep_plan = keep_plan

    @cached_property
    def latent_plan(self) -> "LatentPlan":
        """The two-hop plan of :func:`latent_matrix` for adjacencies of this
        layout, built on first use and kept with the layout."""
        return LatentPlan(self)


def pair_layout(train: TemporalEdgeList, keep_plan: bool = True) -> PairLayout:
    """The layout of a train list's linked pairs: the part of
    :func:`build_adjacency` that no decay parameter changes.  With
    ``keep_plan=False`` it keeps no latent plan (see :class:`PairLayout`)."""
    n = train.node_count
    uniq, inverse, counts = np.unique(
        train.pair_keys(), return_inverse=True, return_counts=True
    )
    return PairLayout(n, uniq // n, uniq % n, counts, inverse, keep_plan)


class WeightedAdjacency:
    """Sparse symmetric positive-weight adjacency at one reference snapshot.

    One CSR matrix, :attr:`weight_csr`, stores both orientations of every
    linked pair with sorted column indices in each row; :attr:`mult` holds
    the multi-edge count of each stored entry, aligned with its ``data``;
    :attr:`params` is the decay the weights were made under.  Adjacencies
    decayed from one train list share one :attr:`layout`, and with it one
    latent plan.  Immutable after construction, apart from
    :attr:`operands`, where :func:`~tlpss.scoring.score_matrix` keeps what
    it reuses from one row block to the next.
    """

    def __init__(
        self, layout: PairLayout, weight: np.ndarray, params: DecayParams | ExpDecayParams
    ):
        """From the weight of each of the layout's pairs under ``params``."""
        if not np.all(np.isfinite(weight) & (weight > 0)):
            raise ValueError("pair weights must be finite and positive")
        n = layout.n
        self.n = n
        self.layout = layout
        self.params = params
        data = np.concatenate([weight, weight])[layout.order]
        self.weight_csr = sp.csr_matrix(
            (data, layout.indices, layout.indptr), shape=(n, n)
        )
        self.mult = layout.mult
        self.operands: dict = {}

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
    layout: PairLayout,
    agg: str = "sum",
) -> WeightedAdjacency:
    """Decayed adjacency at reference snapshot ``T`` under ``params``, which
    it keeps (:attr:`WeightedAdjacency.params`), on the caller's ``layout``,
    ``pair_layout(train, keep_plan)``; a layout of another train list raises
    ``ValueError``.

    Every multi-edge contributes its own decay weight and the pair weight is
    the sum (``agg="sum"``, the default); ``agg="latest"`` instead keeps only
    the decay weight of the most recent edge on each pair, for sensitivity
    checks of the aggregation choice.  Multiplicities always count all
    multi-edges regardless of ``agg``.
    """
    if agg not in ("sum", "latest"):
        raise ValueError(f"unknown aggregation mode {agg!r}")
    if np.any(train.u == train.v):
        raise ValueError("train list contains self-loops; normalize it first")
    ts = train.ts
    elapsed = T - (ts.astype(np.float64) - cfg.origin) / cfg.period
    if np.any(elapsed < 0):
        raise ValueError("train contains edges later than the reference snapshot")
    inverse = layout.inverse
    if layout.n != train.node_count or inverse is None or len(inverse) != len(train):
        raise ValueError("layout was built from another train list")

    n_pairs = len(layout.keys)
    if agg == "sum":
        w_edge = decay_weights(elapsed, params)
        w_pair = np.bincount(inverse, weights=w_edge, minlength=n_pairs)
    else:
        latest = np.full(n_pairs, -np.inf)
        np.maximum.at(latest, inverse, ts.astype(np.float64))
        w_pair = decay_weights(T - (latest - cfg.origin) / cfg.period, params)
    if not np.all(w_pair > 0):
        raise ConfigError(
            f"decay weights of the oldest train links underflow to 0 under {params} "
            f"with period {cfg.period!r}; use a longer period, larger p or q, or "
            "smaller theta"
        )
    return WeightedAdjacency(layout, w_pair, params)


def degree_vector(A: WeightedAdjacency) -> DegreeVector:
    """Each node's weighted degree (its row sum of ``weight_csr``) and
    distinct-neighbor count."""
    W = A.weight_csr
    # one sum per row slice, so each degree rounds like a plain array sum
    w = np.array(
        [W.data[s:e].sum() for s, e in zip(W.indptr[:-1], W.indptr[1:])],
        dtype=np.float64,
    )
    return DegreeVector(w=w, d=np.diff(W.indptr).astype(np.int64))


class LatentPlan:
    """The part of :func:`latent_matrix` that no edge weight changes, for
    adjacencies of one :class:`PairLayout` (its :attr:`~PairLayout.latent_plan`).

    The latent cells are summed from *terms*, one per two-hop path x-z-h
    with x != h: the value of the term is ``(A(z,x) + A(z,h)) / (m(z,x) +
    m(z,h))``.  The pass over the centres z adds them in chunks of about
    ``_CHUNK`` terms, each converted from COO to CSR with its rows sorted by
    column, so a cell's terms within a chunk are consecutive, a *run*.  The
    plan cuts the rows by :func:`parts` into *row sets*, ranges of rows of
    at most ``_PART`` terms over all chunks or of one row, and each set
    finds its own cells, the union of its runs that fall on neither the
    diagonal nor a linked pair.  A set's block stores each kept term, chunk
    by chunk in each chunk's order, as the two positions of its links in
    ``weight_csr.data``, and each run's cell and length: about 8 bytes per
    kept term and 8 per run.  A set adds its cells' chunk sums in chunk
    order and weighs them; the sets are found and weighed on the threads of
    :func:`pool_map` and joined in row order, so the bits do not depend on
    the number of threads.

    :attr:`rows` holds the sets' row ranges.  A plan of a layout that keeps
    it (:attr:`PairLayout.keep_plan`) finds its :attr:`sets` at once and
    weighs them under every adjacency it serves.  In any other plan
    ``sets`` is ``rows``, and :meth:`cells` finds a set, weighs it and
    drops it in one task: the same kernels, the same bits, and no more than
    one set per thread in memory.
    """

    def __init__(self, layout: PairLayout):
        n = layout.n
        ptr, idx = layout.indptr, layout.indices
        deg = np.diff(ptr)
        entry_row = np.repeat(np.arange(n), deg)
        entry_key = entry_row * n + idx  # ascending: rows sorted, columns sorted
        mirror = np.searchsorted(entry_key, idx * n + entry_row)

        # the pass takes the centres z = 0, 1, ... with d(z) >= 2 and flushes
        # its buffer once it holds _CHUNK terms or more
        size = np.where(deg >= 2, deg * deg, 0)
        total = np.cumsum(size)
        chunk_of = np.full(n, -1)
        start = chunks = 0
        while start < n and total[-1] > total[start] - size[start]:
            done = total[start] - size[start]
            end = min(int(np.searchsorted(total, done + _CHUNK)) + 1, n)
            chunk_of[start:end] = chunks
            start, chunks = end, chunks + 1
        chunk_of[deg < 2] = -1

        # row x has d(z) terms for each centre z in N(x)
        ranges = parts(np.r_[0, np.cumsum(np.where(deg >= 2, deg, 0)[idx])][ptr])

        def find(rows):
            """The set of rows ``rows``, a range: each row's count of cells,
            the cells' columns, and the set's block: both link positions of
            each kept term, and each run's cell and length, chunk by chunk."""
            r0, r1 = rows.start, rows.stop
            e0, e1 = ptr[r0], ptr[r1]
            # the rows' entries (x, z) of W with a centre z, chunk by chunk
            chunk = chunk_of[idx[e0:e1]]
            sel = e0 + np.argsort(chunk, kind="stable")[np.count_nonzero(chunk < 0) :]
            pa, pb, keys, runs = _plan_block(
                sel, ptr, idx, chunk_of, entry_row, mirror, entry_key[e0:e1]
            )
            # the sorted union of the runs' cells (np.unique may hash)
            cells = np.sort(keys)
            cells = cells[np.diff(cells, prepend=-1) != 0]
            counts = np.bincount(cells // n - r0, minlength=r1 - r0)
            block = (pa, pb, np.searchsorted(cells, keys).astype(np.int32), runs)
            return counts, (cells % n).astype(np.int32), block

        # a kept plan drops find, which holds three int64 arrays per link entry
        self._find = None if layout.keep_plan else find
        self.rows = ranges
        self.sets = list(pool_map(find, ranges)) if layout.keep_plan else ranges

    def cells(self, A: WeightedAdjacency) -> tuple[np.ndarray, ...]:
        """The latent cells as a CSR structure, ``indptr`` and ``indices``,
        and each cell's weight under ``A`` (see :func:`latent_matrix`), its
        terms added in the pass's order: term by term within a chunk, then
        chunk by chunk."""
        wt = A.weight_csr.data
        mu = A.mult.astype(np.float64)
        floor = decay_floor(A.params)
        deg = np.diff(A.weight_csr.indptr)

        def set_weights(task):
            # a plan that keeps no sets gets a row range, and drops the set's
            # block once it is summed; bincount adds each cell's run sums to
            # 0.0 one after another, in chunk order (and is int64 if empty)
            rows, item = task
            counts, cols, block = self._find(item) if isinstance(item, range) else item
            sums = np.bincount(block[2], _run_sums(wt, mu, block), len(cols))
            sums = sums.astype(np.float64, copy=False)
            # in place, each cell rounded as floor * sum / float(min_degree)
            sums *= floor
            sums /= np.minimum(np.repeat(deg[rows.start : rows.stop], counts), deg[cols])
            return counts, cols, sums

        # each set copied here as it comes: memory a worker thread frees
        # stays in its allocator arena, and worker-made arrays held to the
        # end raised the 4k-node evaluate's peak RSS
        tasks = list(zip(self.rows, self.sets))
        parts = [[a.copy() for a in part] for part in pool_map(set_weights, tasks)]
        counts, cols, sums = (np.concatenate(p) for p in zip(*parts))
        return np.r_[0, np.cumsum(counts)], cols, sums


def _run_sums(wt, mu, block):
    """Each run's sum of terms in one plan block, under the link weights
    ``wt`` and multiplicities ``mu``; ``bincount`` adds a run's terms one
    after another."""
    pa, pb, cells, runs = block
    pa, pb = pa.astype(np.intp), pb.astype(np.intp)
    value = wt[pa]
    value += wt[pb]
    denom = mu[pa]
    denom += mu[pb]
    value /= denom
    run_of_term = np.repeat(np.arange(len(cells)), runs)
    return np.bincount(run_of_term, weights=value, minlength=len(cells))


def _plan_block(sel, ptr, idx, chunk_of, entry_row, mirror, entry_key):
    """Kept terms of the rows whose entries ``(x, z)`` of W are ``sel``
    (ordered by the chunk of z, then as in W), chunk by chunk in the order
    each chunk's COO-to-CSR conversion leaves them, and their runs' cell
    keys and lengths; ``entry_key`` holds the sorted keys of those rows'
    links."""
    n = len(ptr) - 1
    rows = entry_row[sel]
    centre = idx[sel]
    d = ptr[centre + 1] - ptr[centre]
    first = np.cumsum(d) - d
    pa = np.repeat(mirror[sel], d)  # the link z-x
    pb = np.repeat(ptr[centre] - first, d) + np.arange(d.sum())  # z-h
    # one CSR row per chunk and row x, each holding N(z) for each centre z
    # of the chunk in N(x), ascending z, as the chunk's CSR row x does
    row_first = np.flatnonzero(np.diff(chunk_of[centre] * n + rows, prepend=-1))
    indptr = np.r_[0, np.cumsum(d)][np.r_[row_first, len(d)]]
    # csr_sort_indices sorts each row alone and compares columns only, so
    # sorting term ids with the columns permutes them exactly as it permutes
    # the values.  (A row that is already sorted repeats no column but its
    # own, and those diagonal terms are dropped, so skipping its sort
    # changes nothing.)
    ids = np.arange(len(pb), dtype=np.int32)
    order = sp.csr_matrix((ids, idx[pb], indptr), shape=(len(row_first), n))
    order.sort_indices()
    # a cell's terms are consecutive; runs on the diagonal or a link are dropped
    col = order.indices
    new_run = np.diff(col, prepend=-1) != 0
    new_run[indptr[:-1]] = True
    run_first = np.flatnonzero(new_run)
    runs = np.diff(np.r_[run_first, len(col)])
    run_row = rows[row_first][np.searchsorted(indptr, run_first, side="right") - 1]
    col = col[run_first]
    keys = run_row * n + col
    linked = entry_key.take(np.searchsorted(entry_key, keys), mode="clip") == keys
    keep = (run_row != col) & ~linked
    term = order.data[np.repeat(keep, runs)]
    return (
        pa[term].astype(np.int32),
        pb[term].astype(np.int32),
        keys[keep],
        runs[keep].astype(np.int32),
    )


def latent_matrix(A: WeightedAdjacency) -> sp.csr_matrix:
    """All latent-edge weights of ``A`` as a symmetric sparse matrix.

    Cell (i, j) is ``floor * scale`` with ``floor`` the lower bound of
    ``A``'s decay ``A.params``, the one its edge weights were made under,
    and ``scale = (1/min(d(i), d(j))) * sum over common neighbors z of (A(i,z)
    + A(z,j)) / (m(i,z) + m(z,j))``, where ``d`` counts distinct neighbors
    and ``m`` multi-edges.  The scale lies in [0, 1], so every
    cell is strictly below the floor.  Supported exactly on pairs at graph
    distance two.  The two-hop bookkeeping is ``A.layout.latent_plan``, done
    once for every adjacency of a train list, or for a layout that keeps no
    plan a :class:`LatentPlan` streamed for this call alone, whose row sets
    weigh their own cells (:meth:`LatentPlan.cells`).
    """
    n = A.n
    if decay_floor(A.params) == 0.0:
        return sp.csr_matrix((n, n), dtype=np.float64)
    layout = A.layout
    plan = layout.latent_plan if layout.keep_plan else LatentPlan(layout)
    indptr, indices, data = plan.cells(A)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))
