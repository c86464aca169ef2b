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
row parts cut by :func:`~tlpss.adjacency.parts`, at most ``_PART`` cells
each (a row costs its cells), or in pair parts of at most ``_PART`` terms
looked up, on one thread per CPU the process may use
(:func:`~tlpss.adjacency.pool_map`); a cell's bits do not depend on the
parts or the threads.  A symmetric score's block ``s`` of ``M @ P`` gets
its transposed half as the same product over the swapped rows and columns,
added into ``s.T``; a block whose rows are its columns adds ``s.T``
itself.  :func:`score_pairs` scores a set of pairs from the same operands,
adding each pair's terms in the order the block products add them, and
:func:`score_bound` gives the per-node bounds by which evaluation leaves
out the pairs that cannot reach its top L.

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
the terms; a symmetric score's transposed half counts its own.  Both
routes add each cell's terms in ascending shared index, so they give the
same bits.  The brute-force per-pair definitions live in
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
    that close a triangle with link k (of weight w) of the adjacency."""
    P = A.indicator_csr
    # upper-triangle links in row-major order; the CSR product adds each
    # cell's links in that order
    links = sp.triu(A.weight_csr, k=1).tocoo()
    Q = P[links.row].multiply(P[links.col])
    return Q.tocsc().T, (sp.diags(links.data) @ Q).tocsr()


def _inv(x: np.ndarray) -> np.ndarray:
    return np.divide(1.0, x, out=np.zeros_like(x), where=x > 0)


def _cclp_coefficients(A: WeightedAdjacency, D: DegreeVector) -> np.ndarray:
    """Each node's link weight among its neighbors over their pair count."""
    d = D.d.astype(np.float64)
    mass = _operand(A, D, "mass", lambda: _triangle_mass(A))
    return mass * _inv(d * (d - 1) / 2.0)


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


def _row_indices(X: sp.csr_matrix, nodes) -> np.ndarray:
    """The column indices of the rows ``nodes`` of ``X``, in order, without
    building their matrix (a view for a range)."""
    return X.indices[_entries(X, nodes)] if isinstance(nodes, range) else X[nodes].indices


def _column_counts(indices: np.ndarray, n: int) -> np.ndarray:
    """How many of ``indices`` fall in each of the ``n`` columns, counted
    ``_PART`` at a time, since ``np.bincount`` copies its input to int64:
    the transposed half of a TLPSS block counts the operand's rows from the
    block's first to the last, about 2M entries on eval-all-4k."""
    counts = np.zeros(n, dtype=np.int64)
    step = adjacency._PART
    for a in range(0, len(indices), step):
        counts += np.bincount(indices[a : a + step], minlength=n)
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
    n = P.shape[0]
    ks, qs = _row_indices(M, rows), _row_indices(P, cols)
    # an entry of M's rows in column k has one term per entry of P's row k
    # in the columns, which by P's symmetry are the entries k of P's rows
    # cols
    terms = int(_column_counts(ks, n) @ _column_counts(qs, n))
    return (len(qs) + n) * len(rows) <= _DENSE_RATIO * terms


def _block(M, Y, rows, cols, dense=False, add_to=None):
    """Rows ``rows`` by columns ``cols`` (ranges or index arrays) of the
    dense ``M @ Y``, or with ``add_to`` that block added into the view
    ``add_to``, in row parts (:func:`~tlpss.adjacency.parts`) on the
    threads of :func:`~tlpss.adjacency.pool_map`.  A row costs the dense
    cells it writes: on the sparse route (:func:`_sparse_rows`) its row of
    the block, the most entries SciPy's product can hold for it, found
    without a pass over the operand's entries; on the ``dense`` route
    (:func:`_dense_rows`) ``M``'s row made dense.  Each part takes its own
    rows of ``M``.  The sparse route adds each cell's terms in the order of
    ``M``'s row, which a row or column selection keeps, so the cells have
    the whole product's bits.  The ``dense`` route takes ``Y[:, cols]`` as
    the rows ``Y[cols]`` of a symmetric ``Y``."""
    out = np.empty((len(rows), len(cols))) if add_to is None else add_to
    add = add_to is not None
    if dense:
        kernel = partial(_dense_rows, M, rows, _take(Y, cols), out, add)
        width = M.shape[1]
    else:
        if not (isinstance(cols, range) and len(cols) == Y.shape[1]):
            Y = Y[:, _at(cols)]
        kernel = partial(_sparse_rows, M, rows, Y, out, add)
        width = len(cols)
    list(pool_map(kernel, parts(np.arange(len(rows) + 1) * width)))
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


def _dense_rows(M, rows, Q, out, add, part):
    """The rows ``part``, a range, of :func:`_block`'s dense-operand route:
    those of the block's rows ``rows`` of ``M`` made dense and transposed,
    ``Z``, and ``(Q @ Z).T`` written to, or added into, ``out[part]``, with
    SciPy's CSR x dense kernel.  Row i of ``Q @ Z`` adds ``Q[i, k] * Z[k]`` to
    zeros for each entry k of ``Q``'s row i in ascending order.  With ``Q``
    all ones, ``1.0 * M[c, k]`` is exact (with or without a fused
    multiply-add), so cell (c, i) adds the sparse product's terms in its
    order, ascending shared index, and between them an exact ``+0.0`` for
    each k where ``M[c, k]`` is not stored, which leaves a sum begun at
    ``+0.0`` unchanged: the cell has the sparse product's bits."""
    at = _at(part)
    Z = np.ascontiguousarray(_take(M, rows[at]).toarray().T)
    if add:
        out[at] += (Q @ Z).T
    else:
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
        """The block of ``0.5 * (s + s.T)`` for ``s = M @ P``.  The
        transposed half of a block whose rows are not its columns is the
        product over the swapped rows and columns, ``M[cols] @ P[:, rows]``,
        added into the block's transpose by the route its own count picks;
        a cell adds its terms in the order the whole matrix's ``s.T`` does.
        A block whose rows are its columns (the whole matrix, the one block
        of a walk over a small graph, the last square block of a walk) has
        that product in ``s`` already, and adds its own transpose in tiles
        (:func:`_add_transpose`)."""
        P, rows, cols = self.P, self.rows, self.cols
        s = self.product(M, P)
        if len(rows) == len(cols) and np.array_equal(rows, cols):
            _add_transpose(s)
        else:
            _block(M, P, cols, rows, _dense_route(M, P, cols, rows), add_to=s.T)
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
            L = _operand(A, D, method, lambda: P @ sp.diags(_cclp_coefficients(A, D)))
            return cells.product(L, P)
        if cclp_mode == "global":
            d = D.d.astype(np.float64)
            L = _operand(
                A, D, (method, "global"), lambda: P @ sp.diags(_inv(d * (d - 1) / 2.0))
            )
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
    checked against the ``n`` nodes."""
    if isinstance(nodes, range):
        ok = nodes.step == 1 and 0 <= nodes.start <= nodes.stop <= n
    else:
        nodes = _indices(nodes, n)
        ok = nodes is not None
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

    Entry (i, j) is the method's score for the pair; the matrix is symmetric,
    bit for bit, with an all-zero diagonal except for PA, whose diagonal is
    meaningless and zeroed anyway.  A block's cells have the bits of the
    whole matrix's.  What does not depend on the rows (the scaled TLPSS
    operand, the link-triangle incidence, the CCLP coefficients) is built at
    the first block and kept in ``A.operands``, which a caller scoring block
    by block clears after the last.  TLPSS takes its operand from
    :func:`~tlpss.adjacency.latent_matrix` with ``D.w``, its latent weights
    under ``A.params``, the decay of the edge weights, and builds
    ``A.layout.latent_plan`` if it does not exist yet, or streams a plan
    where the layout keeps none.
    """
    n = A.n
    rows, cols = _nodes("rows", rows, n), _nodes("cols", cols, n)
    out = _score(A, D, method, cclp_mode, _Block(A.indicator_csr, rows, cols))
    # the cells whose row and column are one node, (i, i)
    where = np.full(n, -1)
    where[_at(cols)] = np.arange(len(cols))
    col = where[_at(rows)]
    row = np.flatnonzero(col >= 0)
    out[row, col[row]] = 0.0
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
) -> tuple[str, np.ndarray] | None:
    """A per-node bound ``beta`` on a method's scores: ``("sum", beta)``
    where every score ``S[x, y] <= (beta[x] + beta[y]) / 2``, ``("min",
    beta)`` where ``S[x, y] <= min(beta[x], beta[y])``, or ``None`` for a
    method without a useful one (JA's is 1/2, TLPSS's sum form keeps most
    pairs, global CCLP has none).  Sum form: CN's half sums are at most the
    weighted degrees ``w``; PA's ``w[x] w[y]`` is at most the mean of the
    squares; CAR's link mass is at most each end's triangle mass ``m``, so
    ``beta = w * m``.  Min form: RA and local CCLP add a coefficient per
    common neighbor, at most all of one end's neighbors' (``P @ (1/w)`` and
    ``P @ c``).  The bound holds for the exact sums; the floats of a score
    and of its bound may differ by a relative n * 2**-53 or so."""
    P, w = A.indicator_csr, D.w
    if method is MethodId.CN_ASF:
        return "sum", w
    if method is MethodId.PA_ASF:
        return "sum", w * w
    if method is MethodId.CAR_ASF:
        # each node's triangle mass, as the column sums of its incidence
        _, weighted = _operand(A, D, "lcl", lambda: _lcl_incidence(A))
        return "sum", w * np.asarray(weighted.sum(axis=0)).ravel()
    if method is MethodId.RA_ASF:
        return "min", P @ _inv(w)
    if method is MethodId.CCLP_ASF and cclp_mode == "local":
        return "min", P @ _cclp_coefficients(A, D)
    return None
