"""Similarity scores for candidate node pairs.

TLPSS averages two directed endpoint scores; each direction sums decayed
common-neighbor weight over the neighbor's weighted degree, plus the same
quantity over latent edges toward the endpoint's hidden nodes.  The six
baselines are the classical common-neighbor family re-weighted by decayed
edge weights.

:func:`score_matrix` is the one scoring engine, called in one form,
``score_matrix(A, D, method, rows, cols)``: a method's scores on a block
of rows by columns, each a ``range`` of nodes or an index array, built
from sparse matrix products over the adjacency, so that evaluation can
walk the pairs i < j a block at a time.  TLPSS's latent weights are those
of the adjacency's own decay, ``A.params``, and its operand ``(W + B)/w``
comes from :func:`~tlpss.adjacency.latent_matrix`, which writes it from
the latent pass's row sets without building ``B``.  Every product is a
block of rows by columns of one primitive, :func:`_block`, computed in
row parts cut by :func:`~tlpss.adjacency.parts`, each costing at most
``_PART`` (a row costs its cells, on the sparse route also its operand
entries), or in pair parts of at most ``_PART`` terms looked up, on one
thread per CPU the process may use (:func:`~tlpss.adjacency.pool_map`); a
cell's bits do not depend on the parts or the threads.  A symmetric
score's block ``s`` of ``M @ P`` adds the transpose of its leading
square, where its columns begin with its rows, and gets the rest of its
transposed half as one sparse product over the swapped rows and columns.
:func:`score_pairs` scores pairs from the same operands, adding each
pair's terms in the block products' order, and :func:`score_bound` gives
every method a per-node bound, ``S[x, y] <= min(b[x], b[y])``, by which
evaluation leaves out the pairs that cannot reach its top L.

A product whose right factor is the 0/1 adjacency indicator ``P`` (every
score but PA's and the link-triangle factor of CAR and global CCLP) takes
one of two routes, chosen per block by counting work in its input.  The
sparse route is SciPy's sparse x sparse product; its cost is its terms,
one per entry of the block's rows of the left operand and entry of ``P``'s
matching row in the block's columns.  The dense-operand route makes a few
rows of the left operand dense at a time and multiplies them by rows of
``P`` with SciPy's CSR x dense kernel; its cost is its multiply-adds and
the cells it makes dense.  A near-dense operand, TLPSS's on a hub-heavy
graph, does about as many multiply-adds as terms, but as contiguous ones,
and the route is taken where its cost is at most ``_DENSE_RATIO`` times
the terms of the block's own rows; a transposed half never takes it.
Both routes add each cell's terms in ascending shared index, so they give
the same bits.  The brute-force per-pair definitions live in
:mod:`tlpss.oracle`, which the test suite checks the engine against.
"""

from __future__ import annotations

import enum
from functools import partial

import numpy as np
import scipy.sparse as sp

from . import adjacency
from .adjacency import DegreeVector, WeightedAdjacency, latent_matrix, parts, pool_map
from .errors import ConfigError

__all__ = ["MethodId", "score_bound", "score_matrix", "score_pairs"]


class MethodId(enum.Enum):
    TLPSS = "TLPSS"
    CN_ASF = "CN_ASF"
    JA_ASF = "JA_ASF"
    PA_ASF = "PA_ASF"
    RA_ASF = "RA_ASF"
    CAR_ASF = "CAR_ASF"
    CCLP_ASF = "CCLP_ASF"

    @classmethod
    def parse(cls, name: str) -> "MethodId":
        """Accept full ids (``CN_ASF``) or the short forms (``cn``)."""
        key = name.strip().upper()
        if not key.endswith("_ASF") and key != "TLPSS":
            key = key + "_ASF"
        try:
            return cls(key)
        except ValueError:
            raise ConfigError(f"unknown method {name!r}") from None


ALL_METHODS = tuple(MethodId)

# A product by the indicator takes the dense-operand route when its
# multiply-adds and dense cells are at most this many times the sparse
# product's terms.  Measured per block on one thread on the seed-0 inputs
# (2-vCPU host), as that ratio, dense route against sparse route:
# sweep-q-hubs TLPSS at q=1, ratio 1.04 (madds/terms 1.03): 0.080 s against
# 0.431 s; eval-all-4k TLPSS, five blocks of ratio 1.2 to 3.6 (3.3 for the
# first): 0.62 s against 1.28 s; sweep-q-hubs CN, or TLPSS at q=0, ratio
# 11.6: 0.068 s against 0.092 s; eval-all-4k CN, five blocks of ratio 23.6
# to 69 (62 on average): 0.50 s against 0.15 s, its block of ratio 23.6
# alone 0.072 s against 0.024 s.  The dense route wins up to 11.6 and loses
# from 23.6, so the cut lies between the two.
_DENSE_RATIO = 16

# Rows and columns of the tiles in which a square symmetric score block adds
# its transpose: 128 KB per tile.  On a random 1,200 x 1,200 array (2-vCPU
# host, one thread) tiles of 128 took 6 ms where 64 took 7, 256 took 7 and
# 512 took 11; numpy's s += s.T, which buffers all of s.T, took 14 to 18.
_TILE = 128


def _triangle_mass(A: WeightedAdjacency) -> np.ndarray:
    """Per-node total decayed weight of links among the node's neighbors,
    in row parts (:func:`_triangle_rows`) costing a row its two-hop terms,
    on the threads of :func:`~tlpss.adjacency.pool_map`, so no whole ``P @
    W`` is built."""
    P = A.indicator_csr
    mass = np.empty(A.n)
    terms = np.r_[0, np.cumsum(np.diff(P.indptr)[P.indices])][P.indptr]
    list(pool_map(partial(_triangle_rows, P, A.weight_csr, mass), parts(terms)))
    return 0.5 * mass


def _triangle_rows(P, W, mass, part):
    """The rows ``part``, a range, of ``(P @ W).multiply(P).sum(axis=1)``,
    written to ``mass[part]``, by the same SciPy calls on those rows alone:
    the product, the element-wise product and SciPy's pairwise row sums
    each work row by row and keep a row's entries in the same order, so
    each row has the whole product's bits."""
    rows = _take(P, part)
    mass[_at(part)] = np.asarray((rows @ W).multiply(rows).sum(axis=1)).ravel()


def _lcl_incidence(A: WeightedAdjacency) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """``Q.T`` and ``diag(w) @ Q``, where row k of ``Q`` marks the nodes
    that close a triangle with link k (of weight w) of the adjacency, built
    in runs of links costing their ends' degrees (:func:`_common_neighbors`)
    and joined in link order; its entries are exact 1.0s."""
    P = A.indicator_csr
    # upper-triangle links in row-major order; the CSR product adds each
    # cell's links in that order
    links = sp.triu(A.weight_csr, k=1).tocoo()
    d = np.diff(P.indptr)
    cost = np.r_[0, np.cumsum(d[links.row] + d[links.col])]
    runs = pool_map(partial(_common_neighbors, P, links.row, links.col), parts(cost))
    Q = sp.vstack(list(runs), format="csr")
    return Q.tocsc().T, (sp.diags(links.data) @ Q).tocsr()


def _common_neighbors(P, u, v, run):
    """The rows ``run`` (a range) of ``Q``: common neighbors of ``u`` and ``v``."""
    return P[u[_at(run)]].multiply(P[v[_at(run)]])


def _inv(x: np.ndarray) -> np.ndarray:
    return np.divide(1.0, x, out=np.zeros_like(x), where=x > 0)


def _pair_share(D: DegreeVector) -> np.ndarray:
    """Each node's one over the pair count of its neighbors, ``1/C(d, 2)``."""
    return _inv(D.d.astype(np.float64) * (D.d - 1) / 2.0)


def _local_cclp(A: WeightedAdjacency, D: DegreeVector) -> np.ndarray:
    """Local CCLP's coefficient per node: its triangle mass over ``C(d, 2)``."""
    return _operand(A, D, "local cclp", lambda: _pair_share(D) * _triangle_mass(A))


def _link_mass(A: WeightedAdjacency, D: DegreeVector) -> np.ndarray:
    """Each node's triangle mass, the column sums of the incidence."""
    _, weighted = _operand(A, D, "lcl", lambda: _lcl_incidence(A))
    return np.asarray(weighted.sum(axis=0)).ravel()


def _at(nodes):
    """``nodes`` as numpy and SciPy index them without a copy where they
    can: a range as a slice, an index array as itself."""
    return slice(nodes.start, nodes.stop) if isinstance(nodes, range) else nodes


def _entries(X: sp.csr_matrix, nodes) -> slice:
    """The positions of a range of rows' entries in ``X``'s arrays."""
    return slice(X.indptr[nodes.start], X.indptr[nodes.stop])


def _take(X: sp.csr_matrix, nodes) -> sp.csr_matrix:
    """The rows ``nodes`` of ``X``, a range or an index array (in its
    order); a row keeps the order of its entries.  An index array's rows
    are copied, as are a range's when they hold under half of ``X``'s
    entries: the range's rows are built on slices of ``X``'s arrays, which
    SciPy's constructor copies then (``check_format`` prunes them)."""
    if not isinstance(nodes, range):
        return X[nodes]
    at = _entries(X, nodes)
    ptr = X.indptr[nodes.start : nodes.stop + 1] - at.start
    return sp.csr_matrix((X.data[at], X.indices[at], ptr), shape=(len(nodes), X.shape[1]))


def _column_counts(X: sp.csr_matrix, nodes) -> np.ndarray:
    """Each column's entries in the rows ``nodes`` of ``X``, an index
    array's rows read a part (:func:`~tlpss.adjacency.parts`) at a time."""
    if isinstance(nodes, range):
        return np.bincount(X.indices[_entries(X, nodes)], minlength=X.shape[1])
    counts = np.zeros(X.shape[1], dtype=np.int64)
    for part in parts(np.r_[0, np.cumsum(np.diff(X.indptr)[nodes])]):
        counts += np.bincount(X[nodes[_at(part)]].indices, minlength=X.shape[1])
    return counts


def _dense_route(M: sp.csr_matrix, P: sp.csr_matrix, rows, cols) -> bool:
    """Whether the rows ``rows`` by columns ``cols`` of ``M @ P`` (ranges
    or index arrays) take the dense-operand route.  It requires what keeps
    its bits, checked first: ``M`` and ``P`` in canonical form (sorted
    indices, no duplicates) and ``P`` all ones.  Then it must cost less
    than SciPy's sparse product, counted in the input: the route's
    multiply-adds and the cells it makes dense against the sparse
    product's terms."""
    if not (M.has_canonical_format and P.has_canonical_format and np.all(P.data == 1.0)):
        return False
    qs = _column_counts(P, cols)
    # an entry of M's rows in column k has one term per entry of P's row k
    # in the columns, which by P's symmetry are the entries k of P's rows
    # cols
    terms = int(_column_counts(M, rows) @ qs)
    return (int(qs.sum()) + P.shape[0]) * len(rows) <= _DENSE_RATIO * terms


def _block(M, Y, rows, cols, dense=False, add_to=None):
    """Rows ``rows`` by columns ``cols`` (ranges or index arrays) of the
    dense ``M @ Y``, or on the sparse route with ``add_to`` that block added
    into the view ``add_to``, in row parts (:func:`~tlpss.adjacency.parts`)
    on the threads of :func:`~tlpss.adjacency.pool_map`.  A row costs, on
    the sparse route (:func:`_sparse_rows`), the cells it writes and the
    entries of ``M``'s row it copies; on the ``dense`` route
    (:func:`_dense_rows`) ``M``'s row made dense.  Each part takes its own
    rows of ``M``.  The sparse route adds each cell's terms in the order of
    ``M``'s row, which a row or column selection keeps, so the cells have
    the whole product's bits.  The ``dense`` route takes ``Y[:, cols]`` as
    the rows ``Y[cols]`` of a symmetric ``Y``."""
    out = np.empty((len(rows), len(cols))) if add_to is None else add_to
    if dense:
        kernel = partial(_dense_rows, M, rows, _take(Y, cols), out)
        cost = np.full(len(rows), M.shape[1])
    else:
        if not (isinstance(cols, range) and len(cols) == Y.shape[1]):
            Y = Y[:, _at(cols)]
        kernel = partial(_sparse_rows, M, rows, Y, out, add_to is not None)
        cost = len(cols) + np.diff(M.indptr)[_at(rows)]
    list(pool_map(kernel, parts(np.r_[0, np.cumsum(cost)])))
    return out


def _sparse_rows(M, rows, Y, out, add, part):
    """The rows ``part``, a range, of :func:`_block`'s sparse route: those
    of the block's rows ``rows`` of ``M``, taken by this part alone, times
    ``Y``, made dense and written to, or added into, ``out[part]``."""
    at = _at(part)
    product = _take(M, rows[at]) @ Y
    if add:
        # out is a block's transpose: adding in the block's own layout
        # writes its rows contiguously, where numpy would write its columns
        cols = out[at].T
        cols += product.toarray().T
    else:
        # toarray(out=) zeroes the rows before writing them
        product.toarray(out=out[at])


def _dense_rows(M, rows, Q, out, part):
    """The rows ``part``, a range, of :func:`_block`'s dense-operand route:
    those of the block's rows ``rows`` of ``M`` made dense and transposed,
    ``Z``, and ``(Q @ Z).T`` written to ``out[part]``, with
    SciPy's CSR x dense kernel.  Row i of ``Q @ Z`` adds ``Q[i, k] * Z[k]`` to
    zeros for each entry k of ``Q``'s row i in ascending order.  With ``Q``
    all ones, ``1.0 * M[c, k]`` is exact (with or without a fused
    multiply-add), so cell (c, i) adds the sparse product's terms in its
    order, ascending shared index, and between them an exact ``+0.0`` for
    each k where ``M[c, k]`` is not stored, which leaves a sum begun at
    ``+0.0`` unchanged: the cell has the sparse product's bits."""
    at = _at(part)
    Z = np.ascontiguousarray(_take(M, rows[at]).toarray().T)
    out[at] = (Q @ Z).T


def _pair_product(X: sp.csr_matrix, Y: sp.csr_matrix, i: np.ndarray, j: np.ndarray):
    """``(X @ Y)[i, j]`` for the pairs of index arrays ``i`` and ``j``.
    Each cell adds its terms ``X[i, k] * Y[k, j]`` to zero in the order of
    ``X``'s row i, as SciPy's product does (so also :func:`_block`), with
    ``np.bincount``, which adds its weights in their order.  The pairs are
    taken by ascending ``j``, so that the lookups of ``Y[k, j]`` ascend,
    in parts (:func:`~tlpss.adjacency.parts`) costing a pair its terms
    looked up, on the threads of :func:`~tlpss.adjacency.pool_map`."""
    Y = Y.tocsc()
    Y.sort_indices()
    n_rows = Y.shape[0]
    # Y's entries as sorted flat indices, column * n_rows + row
    flat = np.repeat(np.arange(Y.shape[1], dtype=np.int64), np.diff(Y.indptr))
    flat = flat * n_rows + Y.indices
    by_j = np.argsort(j, kind="stable")
    i, j = i[by_j], j[by_j]
    lengths = np.diff(X.indptr)[i]
    before = np.r_[0, np.cumsum(lengths)]
    sums = np.empty(len(i))

    def part(pairs):
        a, b = pairs.start, pairs.stop
        run = lengths[a:b]
        pair = np.repeat(np.arange(b - a), run)
        # each pair's entries of X, in the row's order
        entry = np.arange(before[b] - before[a]) + np.repeat(
            X.indptr[i[a:b]] - (before[a:b] - before[a]), run
        )
        want = np.repeat(j[a:b].astype(np.int64) * n_rows, run) + X.indices[entry]
        at = np.searchsorted(flat, want).clip(max=max(len(flat) - 1, 0))
        hit = flat[at] == want if len(flat) else np.zeros(len(want), dtype=bool)
        terms = X.data[entry[hit]] * Y.data[at[hit]]
        sums[a:b] = np.bincount(pair[hit], weights=terms, minlength=b - a)

    list(pool_map(part, parts(before)))
    out = np.empty(len(i))
    out[by_j] = sums
    return out


def _add_transpose(s: np.ndarray) -> None:
    """``s += s.T`` for a square ``s``, one pair of tiles ``I <= J`` at a
    time, where numpy would buffer all of ``s.T``: ``t = s[I, J] + s[J,
    I].T`` goes to ``s[I, J]`` and ``t.T`` to ``s[J, I]``.  Cell (j, i)
    gets ``s[i, j] + s[j, i]``, the same float as ``s[j, i] + s[i, j]``."""
    n = len(s)
    for a in range(0, n, _TILE):
        I = slice(a, a + _TILE)
        for b in range(a, n, _TILE):
            J = slice(b, b + _TILE)
            t = s[I, J] + s[J, I].T
            s[I, J] = t
            if b != a:
                s[J, I] = t.T


def _operand(A: WeightedAdjacency, D: DegreeVector, key, build):
    """A row-independent operand of :func:`score_matrix`, built once per
    adjacency and degree vector and kept in ``A.operands`` until the caller
    clears it."""
    entry = A.operands.get(key)
    if entry is None or entry[0] is not D:
        entry = A.operands[key] = (D, build())
    return entry[1]


class _Block:
    """The cells of a block, rows ``rows`` by columns ``cols`` (ranges or
    index arrays) of a score matrix, for :func:`_score`."""

    def __init__(self, P, rows, cols):
        self.P, self.rows, self.cols = P, rows, cols

    def ends(self, v):
        """``v`` at each cell's row and column node, broadcast to the block."""
        return v[_at(self.rows)][:, None], v[_at(self.cols)][None, :]

    def product(self, X, Y):
        dense = Y is self.P and _dense_route(X, Y, self.rows, self.cols)
        return _block(X, Y, self.rows, self.cols, dense)

    def symmetric(self, M):
        """The block of ``0.5 * (s + s.T)`` for ``s = M @ P``.  Where the
        columns begin with the rows, as in every block of a walk and in the
        whole matrix, the leading square ``s[:h, :h]``, ``h = len(rows)``,
        holds its own transposed half and adds its transpose in tiles
        (:func:`_add_transpose`); otherwise ``h = 0``.  The columns past
        the square get theirs as one sparse-route product, ``M[cols[h:]] @
        P[:, rows]``, added into ``s[:, h:].T``, whatever the block's
        height.  A cell adds the two sums the whole matrix's ``s + s.T``
        adds, each of its terms in the order of ``M``'s row."""
        P, rows, cols = self.P, self.rows, self.cols
        s = self.product(M, P)
        h = len(rows) if np.array_equal(cols[: len(rows)], rows) else 0
        _add_transpose(s[:h, :h])
        if h < len(cols):
            _block(M, P, cols[h:], rows, add_to=s[:, h:].T)
        s *= 0.5
        return s


class _Pairs:
    """The cells of the pairs ``(i[t], j[t])`` of a score matrix, for
    :func:`_score`; each is added in the order its block cell adds it."""

    def __init__(self, P, i, j):
        self.P, self.i, self.j = P, i, j

    def ends(self, v):
        return v[self.i], v[self.j]

    def product(self, X, Y):
        return _pair_product(X, Y, self.i, self.j)

    def symmetric(self, M):
        s = _pair_product(M, self.P, self.i, self.j)
        s += _pair_product(M, self.P, self.j, self.i)
        s *= 0.5
        return s


def _score(A, D, method, cclp_mode, cells):
    """One method's scores on ``cells``, a :class:`_Block` or
    :class:`_Pairs`: every method is one formula over the products and
    node vectors of the cells."""
    P = A.indicator_csr
    W = A.weight_csr
    w = D.w
    if method is MethodId.CN_ASF:
        return cells.symmetric(W)
    if method is MethodId.JA_ASF:
        # in place, a run of rows of at most _PART cells at a time (a pair
        # is a row of one cell): where denom is 0, both nodes are isolated
        # and cn is 0
        out = cells.symmetric(W)
        wx, wy = np.broadcast_arrays(*cells.ends(w))
        step = max(1, adjacency._PART // max(1, out[:1].size))
        for a in range(0, len(out), step):
            denom = wx[a : a + step] + wy[a : a + step]
            run = out[a : a + step]
            np.divide(run, denom, out=run, where=denom > 0)
        return out
    if method is MethodId.PA_ASF:
        wx, wy = cells.ends(w)
        return wx * wy
    if method is MethodId.RA_ASF:
        L = _operand(A, D, method, lambda: P @ sp.diags(_inv(w)))
        return cells.product(L, P)
    if method is MethodId.CAR_ASF:
        incidence = _operand(A, D, "lcl", lambda: _lcl_incidence(A))
        out = cells.symmetric(W)
        out *= cells.product(*incidence)
        return out
    if method is MethodId.CCLP_ASF:
        if cclp_mode == "local":
            L = _operand(A, D, method, lambda: P @ sp.diags(_local_cclp(A, D)))
            return cells.product(L, P)
        if cclp_mode == "global":
            L = _operand(A, D, (method, "global"), lambda: P @ sp.diags(_pair_share(D)))
            incidence = _operand(A, D, "lcl", lambda: _lcl_incidence(A))
            out = cells.product(L, P)
            out *= cells.product(*incidence)
            return out
        raise ConfigError(f"unknown cclp mode {cclp_mode!r}")
    if method is MethodId.TLPSS:
        # each column divided by its node's weighted degree, the same
        # rounding as a per-term W[x,z]/w[z]
        return cells.symmetric(_operand(A, D, method, lambda: latent_matrix(A, w)))
    raise ConfigError(f"unknown method {method!r}")


def _indices(x, n: int):
    """``x`` as a 1-D integer array of values in ``[0, n)``, else ``None``."""
    x = np.asarray(x)
    ok = x.ndim == 1 and np.issubdtype(x.dtype, np.integer)
    return x if ok and (not len(x) or 0 <= x.min() and x.max() < n) else None


def _nodes(name: str, nodes, n: int):
    """``nodes`` of :func:`score_matrix` as a range or as an index array,
    checked against the ``n`` nodes; an ascending run of consecutive nodes
    becomes a range, whose operand rows are read as slices."""
    if isinstance(nodes, range):
        ok = nodes.step == 1 and 0 <= nodes.start <= nodes.stop <= n
    else:
        nodes = _indices(nodes, n)
        ok = nodes is not None
        if ok and len(nodes) and np.all(np.diff(nodes) == 1):
            nodes = range(int(nodes[0]), int(nodes[-1]) + 1)
    if not ok:
        raise ValueError(f"{name} are neither a range nor node indices of the {n} nodes")
    return nodes


def score_matrix(
    A: WeightedAdjacency,
    D: DegreeVector,
    method: MethodId,
    rows: range | np.ndarray,
    cols: range | np.ndarray,
    cclp_mode: str = "local",
) -> np.ndarray:
    """One method's scores on the block of rows ``rows`` by columns
    ``cols``, each a range of consecutive nodes or a 1-D integer array of
    node indices: cell ``(a, c)`` is pair ``(rows[a], cols[c])``.  Anything
    else, or a node outside ``[0, n)``, raises ``ValueError``.  The whole
    matrix is ``score_matrix(A, degree_vector(A), method, range(n),
    range(n))``.

    Entry (i, j) is the method's score for the pair; the matrix is
    symmetric, bit for bit, and every cell (i, i) is 0, also where i
    repeats.  A block's cells have the bits of the whole matrix's.  What
    does not depend on the rows (the scaled TLPSS operand, the
    link-triangle incidence, the CCLP coefficients) is built at the first
    block and kept in ``A.operands``, which a caller scoring block by block
    clears after the last.  TLPSS takes its operand from
    :func:`~tlpss.adjacency.latent_matrix` with ``D.w``, its latent weights
    under ``A.params``, the decay of the edge weights, and builds
    ``A.layout.latent_plan`` if it does not exist yet, or streams a plan
    where the layout keeps none.
    """
    rows, cols = _nodes("rows", rows, A.n), _nodes("cols", cols, A.n)
    out = _score(A, D, method, cclp_mode, _Block(A.indicator_csr, rows, cols))
    # every cell (i, i), found with at most a bool per cell
    r, c = (np.arange(x.start, x.stop) if isinstance(x, range) else x for x in (rows, cols))
    keep = np.flatnonzero(np.bincount(r, minlength=A.n)[c])
    a, b = np.nonzero(r[:, None] == c[keep])
    out[a, keep[b]] = 0.0
    return out


def score_pairs(
    A: WeightedAdjacency,
    D: DegreeVector,
    method: MethodId,
    keys: np.ndarray,
    cclp_mode: str = "local",
) -> np.ndarray:
    """One method's scores of the pairs with :func:`~tlpss.edges.pair_key`
    keys ``keys``, equal bit for bit to their cells of :func:`score_matrix`.
    It reads the same operands (kept in ``A.operands`` like a block's), and
    adds each pair's terms in the order the operand's row stores them, the
    order of the block products, so it scores a few pairs without a
    block.  Keys that are not a 1-D integer array, or a key outside ``[0,
    n * n)``, raise ``ValueError``."""
    checked = _indices(keys, A.n * A.n)
    if checked is None:
        raise ValueError(f"keys are not a 1-D integer array of pair keys of the {A.n} nodes")
    i, j = np.divmod(checked.astype(np.int64, copy=False), A.n)
    out = _score(A, D, method, cclp_mode, _Pairs(A.indicator_csr, i, j))
    out[i == j] = 0.0
    return out


def score_bound(
    A: WeightedAdjacency, D: DegreeVector, method: MethodId, cclp_mode: str = "local"
) -> np.ndarray:
    """A per-node bound ``b``, ``S[x, y] <= min(b[x], b[y])``.  JA's CN
    is at most ``(w[x] + w[y])/2``.  Over the common neighbors z, CN's half
    sums of ``W[x, z]`` and ``W[y, z]`` are at most ``w[x]`` and
    ``kappa[x]``, x's neighbors' heaviest link weights summed; TLPSS's of
    ``M[x, z]`` and ``M[y, z]`` at most ``M``'s row sum at x and the sum
    over x's neighbors of ``M``'s column maximum, z's heaviest link weight
    over ``w[z]`` (a latent weight is below the decay floor, a link weight
    at or above it).  PA's ``w[x] w[y]`` is at most ``w[x] max(w)``; RA
    and both CCLP modes add a coefficient per common neighbor, at most all
    of x's neighbors'.  CAR and global CCLP multiply by the link mass among
    the common neighbors, at most x's triangle mass.  The bound holds for
    the exact sums; a score's and its bound's floats may differ by a
    relative n * 2**-53 or so."""
    P, w = A.indicator_csr, D.w
    if method is MethodId.JA_ASF:
        return np.full(A.n, 0.5)
    if method is MethodId.PA_ASF:
        return w * w.max(initial=0.0)
    if method is MethodId.RA_ASF:
        return P @ _inv(w)
    if method is MethodId.CCLP_ASF:
        if cclp_mode == "local":
            return P @ _local_cclp(A, D)
        return (P @ _pair_share(D)) * _link_mass(A, D)
    heaviest = A.weight_csr.max(axis=1).toarray().ravel()
    if method is MethodId.TLPSS:
        M = _operand(A, D, method, lambda: latent_matrix(A, w))
        return 0.5 * (M @ np.ones(A.n) + P @ (heaviest * _inv(w)))
    beta = 0.5 * (w + P @ heaviest)
    return beta if method is MethodId.CN_ASF else beta * _link_mass(A, D)
