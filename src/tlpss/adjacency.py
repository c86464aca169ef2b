"""Decayed weighted adjacency and latent-edge weights.

The adjacency at reference snapshot ``T`` weights every linked pair by the
summed decay values of its multi-edges.  On top of it sit the *latent
edges* used by TLPSS: a pair at graph distance two is weighted by the decay
floor times a scale factor built from the pair's common neighbors, so a
latent edge always weighs less than the floor, hence less than any single
surviving edge weight; the scale's sum over the common neighbors is added
one neighbor after another, in ascending order, as the oracle adds it.  For
a target pair (x, y), the latent edges that TLPSS uses run from x to its
*hidden nodes*: neighbors of y that are not neighbors of x but share a
neighbor with x.

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
floor from it, so edge weights and latent floor come from one ``q``;
``latent_matrix(A, w)`` gives TLPSS's operand ``(W + B)/w`` from the same
row sets, each making its rows' entries above the diagonal and their
mirrors, so ``B`` is never built whole.

:func:`pool_map` runs kernels that release the GIL on one thread per CPU
the process may use.  The latent plan's row sets and :mod:`tlpss.scoring`'s
row and pair parts are its tasks, all cut one way by :func:`parts`: runs of
consecutive rows or pairs of at most ``_PART`` work each; the latent pass's
mirror fill takes runs of row sets.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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


def parts(before: np.ndarray, limit: int | None = None) -> list[range]:
    """Runs of consecutive items, the tasks of :func:`pool_map`, each
    costing at most ``limit`` (by default ``_PART``) in all or holding one
    item: ``before[t]`` is the summed cost of the items before item t, and
    ``before[-1]`` that of all.  A run takes as many items as fit; the runs
    cover the items once, in order, and no items make one empty run."""
    limit = _PART if limit is None else limit
    m, runs, a = len(before) - 1, [], 0
    while a < m or not runs:
        b = max(a + 1, int(np.searchsorted(before, before[a] + limit, side="right")) - 1)
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
    m(z,h))``, the same for x-z-h as for h-z-x.  So the plan sums each
    unordered pair once, as its cell (x, h) with x < h, from the paths x-z-h
    with h > x alone, and the cell's weight is written to (h, x) too.  A
    cell is one sum, its terms added one after another to 0.0 in ascending
    order of their centres, an order (h, x) shares, so ``B`` is bit-symmetric.
    The plan cuts the rows by :func:`parts` into *row sets*, ranges of rows
    of at most ``_PART`` such paths or of one row, and each set finds its
    own cells, those of its paths that fall on no linked pair.  A set's
    block stores the mirror (z, x) of each of its links (x, z) with a path,
    as int32 positions in ``weight_csr``; its paths are the entries of z's
    row past (z, x).  It stores each kept term, cell by cell, by its path's
    index among the set's paths, and each cell's count of terms, both in
    the narrowest unsigned type that holds them (:func:`_narrow`): a kept
    term costs at most 2 bytes in a set of more than one row.  A set values
    its paths, sums its cells and weighs them; the sets are found and
    weighed on the threads of :func:`pool_map` and written in row order, so
    the bits do not depend on the number of threads.

    :attr:`rows` holds the sets' row ranges.  A plan of a layout that keeps
    it (:attr:`PairLayout.keep_plan`) finds its :attr:`sets` at once and
    weighs them under every adjacency it serves.  In any other plan
    ``sets`` is ``rows``, and :meth:`cells` finds a set, weighs it and
    drops it in one task: the same kernels, the same writer, the same bits,
    and no more than one set per thread in memory.
    """

    def __init__(self, layout: PairLayout):
        n = layout.n
        ptr, idx = layout.indptr, layout.indices
        deg = np.diff(ptr)
        entry_row = np.repeat(np.arange(n), deg)
        # link (x, z)'s paths x-z-h with h > x are the entries of z's row
        # past its mirror entry (z, x), found among the ascending keys
        mirror = np.searchsorted(entry_row * n + idx, idx * n + entry_row).astype(np.int32)
        ranges = parts(np.r_[0, np.cumsum(ptr[idx + 1] - mirror - 1)][ptr])

        def find(rows):
            """The set of rows ``rows``, a range: each row's count of cells,
            the cells' columns, and the set's block: the mirrors of its
            links (x, z) with a path, each kept term's path index, and each
            cell's count of terms."""
            r0, r1 = rows.start, rows.stop
            e0, e1 = ptr[r0], ptr[r1]
            row = np.repeat(np.arange(r0, r1), deg[r0:r1])
            m = mirror[e0:e1]
            e = np.flatnonzero(ptr[idx[e0:e1] + 1] - m - 1)  # links with a path
            links = row * n + idx[e0:e1]  # the rows' links' keys, ascending
            path, keys, terms = _plan_block(row[e], idx[e0 + e], m[e], ptr, idx, links)
            counts = np.bincount(keys // n - r0, minlength=r1 - r0)
            return counts, (keys % n).astype(np.int32), (m[e], path, terms)

        # a kept plan drops find, which holds an int32 per link entry
        self._find = None if layout.keep_plan else find
        self.rows = ranges
        self.sets = list(pool_map(find, ranges)) if layout.keep_plan else ranges

    def cells(self, A: WeightedAdjacency, w: np.ndarray) -> tuple[np.ndarray, ...]:
        """TLPSS's operand ``(W + B)/w`` (see :func:`latent_matrix`) as a CSR
        structure, ``indptr`` and ``indices``, and its values.  Each set's
        task makes its rows' entries above the diagonal: its links (x, c) of
        ``W = A.weight_csr`` with c > x merged with its latent cells
        (:func:`_with_links`), each cell one sum of its terms.  An entry
        (x, c) over ``w[c]`` is also its mirror (c, x) over ``w[x]``.

        The calling thread writes each finished set, in set order, into
        arrays it allocates once, of twice the entries above the diagonal:
        a kept plan's, and for a streamed plan a bound on them
        (:func:`_cell_bound`), whose unwritten tail is trimmed in place.
        Row x's own entries follow its mirrored ones, (x, y) for the
        entries (y, x) of the rows before it, which are all written by then,
        so each row is written where it ends up; :func:`_mirror` then
        fills in the mirrors and divides every value by ``w``."""
        W = A.weight_csr
        # each link's weight and multiplicity, added at once by complex adds
        link = np.empty(W.nnz, dtype=np.complex128)
        link.real, link.imag = W.data, A.mult
        floor = decay_floor(A.params)
        n, deg = A.n, np.diff(W.indptr)

        def triangle(task):
            # a plan that keeps no sets gets a row range, and drops the set's
            # block once it is summed
            rows, item = task
            counts, cols, block = self._find(item) if isinstance(item, range) else item
            sums = _run_sums(W, link, block)
            row = np.repeat(np.arange(rows.start, rows.stop), counts)
            # in place, each cell rounded as floor * sum / float(min_degree)
            sums *= floor
            sums /= np.minimum(deg[row], deg[cols])
            counts, cols, values = _with_links(W, rows, counts, row, cols, sums)
            # the mirrored entries the set gives each column c > rows.start
            return counts, cols, values, np.bincount(cols - rows.start, minlength=n - rows.start)

        # twice the entries above the diagonal: a kept plan's, or for a
        # streamed plan a bound on them (the pages past the end that the
        # rows leave unwritten are never touched)
        cells = sum(len(s[1]) for s in self.sets) if self._find is None else _cell_bound(W) // 2
        size = 2 * (cells + W.nnz // 2)
        itype = np.int32 if size < 2**31 else np.int64
        indptr = np.zeros(n + 1, dtype=itype)
        below = np.zeros(n, dtype=itype)  # each row's mirrored entries so far
        indices = np.empty(size, dtype=itype)
        data = np.empty(size)
        # the tasks of _mirror: runs of about as many sets each, and the
        # mirrored entries that the rows before a run give each column
        runs = 4 * _workers()
        firsts = {len(self.rows) * t // runs for t in range(runs)}
        starts = []
        for i, (rows, (counts, cols, values, mirrored)) in enumerate(
            zip(self.rows, pool_map(triangle, list(zip(self.rows, self.sets))))
        ):
            r0, r1 = rows.start, rows.stop
            if i in firsts:
                starts.append((r0, below.copy()))
            below[r0:] += mirrored
            # each row's mirrored entries, then its own
            sizes = np.stack((below[r0:r1], counts), axis=1)
            ends = indptr[r0 + 1 : r1 + 1]
            np.cumsum(sizes.sum(axis=1), out=ends)
            ends += indptr[r0]
            own = np.repeat(np.tile([False, True], r1 - r0), sizes.ravel())
            indices[indptr[r0] : indptr[r1]][own] = cols
            data[indptr[r0] : indptr[r1]][own] = values
        del link  # mirroring reads none of it
        # realloc: a large array shrinks where it is
        indices.resize(indptr[-1], refcheck=False)
        data.resize(indptr[-1], refcheck=False)
        stops = [r0 for r0, _ in starts[1:]] + [n]
        tasks = [(range(r0, r1), done) for (r0, done), r1 in zip(starts, stops)]
        _mirror(indptr, below, indices, data, w, tasks)
        return indptr, indices, data


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a``, never negative, as the first of uint8, uint16 and int32 that
    holds its largest value (int32 holds every path index and term count
    of a plan, each less than one row's two-hop paths)."""
    hi = int(a.max()) if len(a) else 0
    for t in (np.uint8, np.uint16):
        if hi <= np.iinfo(t).max:
            return a.astype(t)
    return a.astype(np.int32)


def _cell_bound(W: sp.csr_matrix) -> int:
    """At least the number of latent cells of ``W``'s graph: the nonzeros
    of ``P @ P``, counted by SciPy's first product pass, which builds
    nothing, less the diagonal cell of each node with a link."""
    n = W.shape[0]
    pairs = _sparsetools.csr_matmat_maxnnz(n, n, W.indptr, W.indices, W.indptr, W.indices)
    return int(pairs) - int(np.count_nonzero(np.diff(W.indptr)))


def _with_links(W, rows, counts, row, cols, sums):
    """The rows ``rows`` of the upper triangle of ``W + B``, as a set's row
    counts, columns and values: the set's links (x, c) in ``W`` with c > x
    and its latent cells (in row ``row``, column ``cols``, weight ``sums``),
    which never share a cell, merged in column order within each row.  A
    value is its link's weight or its cell's, as ``W + B`` adds it to 0.0."""
    n = W.shape[1]
    e = slice(W.indptr[rows.start], W.indptr[rows.stop])
    deg = np.diff(W.indptr[rows.start : rows.stop + 1])
    link_row, link_col = np.repeat(np.arange(rows.start, rows.stop), deg), W.indices[e]
    up = link_col > link_row
    link_row, link_col = link_row[up], link_col[up]
    # each link's place: the cells before it, and the links before it
    at = np.searchsorted(row * n + cols, link_row * n + link_col) + np.arange(len(link_col))
    latent = np.ones(len(cols) + len(link_col), dtype=bool)
    latent[at] = False
    out_cols = np.empty(len(latent), dtype=cols.dtype)
    out_cols[at] = link_col
    out_cols[latent] = cols
    out = np.empty(len(latent))
    out[at] = W.data[e][up]
    out[latent] = sums
    return counts + np.bincount(link_row - rows.start, minlength=len(rows)), out_cols, out


def _mirror(indptr, below, indices, data, w, tasks):
    """Fill in, in place, the mirrored entries of a symmetric matrix with
    row pointers ``indptr`` whose entries above the diagonal are written,
    each row's after room for its ``below`` mirrored ones; then divide every
    value by ``w`` of its column, as ``data /= w[indices]`` divides it.

    Each task is a range of rows and, for each column, the mirrored entries
    that the rows before them give it.  The tasks run on the threads of
    :func:`pool_map` and write disjoint slots.  A task takes its rows a
    block at a time: SciPy's CSR-to-CSC counting sort orders a block's
    entries by column, each column's in row order, and each column's run is
    written to the column's next free slots."""
    n = len(indptr) - 1
    first = indptr[:-1] + below  # where each row's own entries start
    size = indptr[1:] - first
    # a block holds at least four entries per column pointer of its sort
    step = max(_PART, 4 * n)

    def fill(task):
        rows, done = task
        free = indptr[:-1] + done  # each column's next free slot
        for block in parts(np.r_[0, np.cumsum(size[rows.start : rows.stop])], step):
            a, b = rows.start + block.start, rows.start + block.stop
            ptr = np.zeros(b - a + 1, dtype=indptr.dtype)
            np.cumsum(size[a:b], out=ptr[1:])
            cols, vals = _slices(first[a:b], indptr[a + 1 : b + 1], indices, data)
            col_ptr = np.empty(n + 1, dtype=indptr.dtype)
            row, val = np.empty_like(cols), np.empty_like(vals)
            _sparsetools.csr_tocsc(b - a, n, ptr, cols, vals, col_ptr, row, val)
            count = np.diff(col_ptr)
            at = np.arange(len(row))
            at += np.repeat(free - col_ptr[:-1], count)
            free += count
            indices[at] = row + a
            data[at] = val

    def divide(task):
        rows, end = task[0], indptr[task[0].stop]
        for start in range(indptr[rows.start], end, step):
            part = slice(start, min(start + step, end))
            data[part] /= w[indices[part]]

    list(pool_map(fill, tasks))
    list(pool_map(divide, tasks))


def _slices(start, stop, indices, values):
    """The slices ``[start, stop)`` of ``indices`` and of ``values``, one
    after another: SciPy's C copy of rows, each slice given as a row."""
    bounds = np.empty(2 * len(start), dtype=indices.dtype)
    bounds[0::2], bounds[1::2] = start, stop
    every_other = np.arange(0, len(bounds), 2, dtype=indices.dtype)
    size = int((stop - start).sum())
    out = np.empty(size, dtype=indices.dtype), np.empty(size, dtype=values.dtype)
    _sparsetools.csr_row_index(len(start), every_other, bounds, indices, values, *out)
    return out


def _run_sums(W, link, block):
    """Each cell's sum of terms in one plan block, under ``W``'s links, each
    its weight plus its multiplicity times 1j in ``link``: its terms added
    one after another to 0.0, in the block's order."""
    mirror, path, terms = block
    ptr, idx = W.indptr, W.indices
    start = mirror + 1
    stop = ptr[np.searchsorted(ptr, mirror, side="right")]
    # every path x-z-h in path order: z's row past (z, x), plus the link's
    # values at (z, x)
    value = _slices(start, stop, idx, link)[1]
    value += np.repeat(link[mirror], stop - start)
    term = value.real / value.imag
    del value
    # a CSR row per cell, its terms' paths as columns of weight 1.0: SciPy's
    # product with the values gathers and adds them in one C loop
    first = np.zeros(len(terms) + 1, dtype=idx.dtype)
    np.cumsum(terms, dtype=idx.dtype, out=first[1:])
    sums = np.zeros(len(terms))
    args = first, path.astype(idx.dtype), np.ones(len(path)), term, sums
    _sparsetools.csr_matvec(len(terms), len(term), *args)
    return sums


def _plan_block(rows, centre, mirror, ptr, idx, entry_key):
    """Kept terms of the links (x, z) with a path, x in ``rows`` and z in
    ``centre`` (in W's order), ordered by row, then column, then centre, as
    their paths' indices among the paths x-z-h, h past x in z's row (from
    ``mirror``, the position of (z, x)), in link order then as in z's row;
    and their cells' keys and counts of terms.  ``entry_key`` holds the
    sorted keys of those rows' links."""
    n = len(ptr) - 1
    d = ptr[centre + 1] - mirror - 1
    first = np.cumsum(d) - d
    at = np.repeat(mirror + 1 - first, d)
    at += np.arange(len(at))
    h = idx[at]
    del at
    # a stable sort by row, then column: each cell's terms in path order,
    # which is ascending centre order
    key = np.repeat(rows * n, d)
    key += h
    order = np.argsort(key, kind="stable")
    del key
    col = h[order]
    del h
    # where each row's paths start; a cell's terms are consecutive
    row_first = np.flatnonzero(np.diff(rows, prepend=-1))
    row_start = first[row_first]
    new_cell = np.empty(len(col), dtype=bool)
    np.not_equal(col[1:], col[:-1], out=new_cell[1:])
    new_cell[row_start] = True
    cell_first = np.flatnonzero(new_cell)
    terms = np.diff(np.r_[cell_first, len(col)])
    keys = rows[row_first][np.searchsorted(row_start, cell_first, side="right") - 1] * n
    keys += col[cell_first]
    del col, cell_first
    # cells on a link are dropped
    keep = entry_key.take(np.searchsorted(entry_key, keys), mode="clip") != keys
    return _narrow(order[np.repeat(keep, terms)]), keys[keep], _narrow(terms[keep])


def latent_matrix(A: WeightedAdjacency, w: np.ndarray | None = None) -> sp.csr_matrix:
    """All latent-edge weights of ``A`` as a symmetric sparse matrix ``B``,
    or with ``w``, each node's weighted degree, TLPSS's operand ``(W + B)/w``
    for ``W = A.weight_csr``: every entry of ``W + B`` divided by ``w`` of
    its column, with the structure and bits of ``(W + B).tocsr()`` followed
    by ``data /= w[indices]`` (``w > 0`` wherever ``W + B`` has an entry),
    save that a latent weight that underflows to 0.0 (a decay floor near
    the smallest float) stays stored where ``W + B`` drops it; it adds
    ``+0.0`` to a product's sums, which changes no score.

    Cell (i, j) of ``B`` is ``floor * scale`` with ``floor`` the lower bound
    of ``A``'s decay ``A.params``, the one its edge weights were made under,
    and ``scale = (1/min(d(i), d(j))) * sum over common neighbors z of (A(i,z)
    + A(z,j)) / (m(i,z) + m(z,j))``, where ``d`` counts distinct neighbors
    and ``m`` multi-edges.  The scale lies in [0, 1], so every
    cell is strictly below the floor.  Supported exactly on pairs at graph
    distance two, and bit-symmetric: the sum is made once for i < j, its
    terms added one after another in ascending order of z, and written to
    both cells.  The two-hop bookkeeping is ``A.layout.latent_plan``,
    done once for every adjacency of a train list, or for a layout that
    keeps no plan a :class:`LatentPlan` streamed for this call alone, whose
    row sets weigh their own cells and write their own rows
    (:meth:`LatentPlan.cells`): the operand is built without a whole ``B``.
    ``B`` itself is the operand for ``w = 1`` less ``W``'s entries, with
    which it shares no cell, each ``x / 1.0 == x``.
    """
    n, W = A.n, A.weight_csr
    ones = w is None
    w = np.ones(n) if ones else w
    if decay_floor(A.params) == 0.0:
        M = sp.csr_matrix((W.data / w[W.indices], W.indices, W.indptr), shape=(n, n))
    else:
        layout = A.layout
        plan = layout.latent_plan if layout.keep_plan else LatentPlan(layout)
        indptr, indices, data = plan.cells(A, w)
        M = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    if not ones:
        return M
    link_key = np.repeat(np.arange(n), np.diff(W.indptr)) * n + W.indices
    key = np.repeat(np.arange(n), np.diff(M.indptr)) * n + M.indices
    latent = link_key.take(np.searchsorted(link_key, key), mode="clip") != key
    indptr = np.r_[0, np.cumsum(latent)][M.indptr]
    return sp.csr_matrix((M.data[latent], M.indices[latent], indptr), shape=(n, n))
