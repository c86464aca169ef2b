"""Similarity scores for candidate node pairs.

TLPSS averages two directed endpoint scores; each direction sums decayed
common-neighbor weight over the neighbor's weighted degree, plus the same
quantity over latent edges toward the endpoint's hidden nodes.  The six
baselines are the classical common-neighbor family re-weighted by decayed
edge weights.

:func:`score_matrix` is the one scoring engine: it returns a method's
score matrix, or the upper trapezoid of a block of its consecutive rows
(the rows' cells from the diagonal on), built from sparse matrix products
over the adjacency, so that evaluation can walk the pairs i < j a block at
a time.  Every product is a block of rows by columns of one primitive,
:func:`_block`, computed in row parts of at most ``_PART_CELLS`` cells on
one thread per CPU the process may use (:func:`~tlpss.adjacency.pool_map`);
a cell's bits do not depend on the parts or the threads.  A symmetric
score's block ``s`` of ``M @ P`` gets its transposed half as the same
product over the swapped ranges, rows ``[r0, n)`` by columns ``[r0, r1)``,
added into ``s.T``.

A product whose right factor is the 0/1 adjacency indicator ``P`` (every
score but PA's and the link-triangle factor of CAR and global CCLP) takes
one of two routes, chosen per block by counting work in its input.  The
sparse route is SciPy's sparse x sparse product; its cost is its terms,
one per entry of the block's rows of the left operand and entry of ``P``'s
matching row.  The dense-operand route makes a few rows of the left
operand dense at a time and multiplies them by rows of ``P`` with SciPy's
CSR x dense kernel; its cost is its multiply-adds and the cells it makes
dense.  A near-dense operand, TLPSS's on a hub-heavy graph, does about as
many multiply-adds as terms, but as contiguous ones, and the route is
taken where its cost is at most ``_DENSE_RATIO`` times the terms.  Both
routes add each cell's terms in ascending shared index, so they give the
same bits.  The brute-force per-pair definitions live in
:mod:`tlpss.oracle`, which the test suite checks the engine against.
"""

from __future__ import annotations

import enum
from functools import partial

import numpy as np
import scipy.sparse as sp

from .adjacency import DegreeVector, WeightedAdjacency, latent_matrix, pool_map
from .decay import DecayParams, ExpDecayParams
from .errors import ConfigError

__all__ = ["MethodId", "score_matrix"]


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

# Cells, or terms, per row part of a dense product.  Memory a worker thread
# frees stays in that thread's glibc arena, so parts must be small for it to
# be reused: products cut in halves took the sweep-q-hubs peak RSS from 237
# to 267 MB.  Each part also costs about 0.1 ms of Python, so parts are not
# cut smaller than this.
_PART_CELLS = 2**16

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

# Rows and columns of the tiles in which a whole-matrix symmetric score adds
# its transpose: 128 KB per tile.  On a random 1,200 x 1,200 array (2-vCPU
# host, one thread) tiles of 128 took 6 ms where 64 took 7, 256 took 7 and
# 512 took 11; numpy's s += s.T, which buffers all of s.T, took 14 to 18.
_TILE = 128


def _triangle_mass(A: WeightedAdjacency) -> np.ndarray:
    """Per-node total decayed weight of links among the node's neighbors."""
    P = A.indicator_csr
    return 0.5 * np.asarray((P @ A.weight_csr).multiply(P).sum(axis=1)).ravel()


def _lcl_incidence(A: WeightedAdjacency) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """``Q.T`` and ``diag(w) @ Q``, where row k of ``Q`` marks the nodes
    that close a triangle with link k (of weight w) of the adjacency."""
    P = A.indicator_csr
    # upper-triangle links in row-major order; the CSR product adds each
    # cell's links in that order
    links = sp.triu(A.weight_csr, k=1).tocoo()
    Q = P[links.row].multiply(P[links.col])
    return Q.tocsc().T, (sp.diags(links.data) @ Q).tocsr()


def _rows(X: sp.csr_matrix, r0: int, r1: int) -> sp.csr_matrix:
    """Rows ``[r0, r1)`` of ``X`` on ``X``'s own arrays; a SciPy slice
    copies them."""
    ptr = X.indptr
    return sp.csr_matrix(
        (X.data[ptr[r0] : ptr[r1]], X.indices[ptr[r0] : ptr[r1]], ptr[r0 : r1 + 1] - ptr[r0]),
        shape=(r1 - r0, X.shape[1]),
    )


def _dense_route(M: sp.csr_matrix, P: sp.csr_matrix, r0: int, r1: int) -> bool:
    """Whether rows ``[r0, r1)`` of ``M @ P`` cost less by the dense-operand
    route than by SciPy's sparse product, counted in the input: the route's
    multiply-adds and the cells it makes dense against the sparse product's
    terms.  It also requires what keeps its bits: ``M`` and ``P`` in
    canonical form (sorted indices, no duplicates) and ``P`` all ones."""
    n = P.shape[0]
    ptr = M.indptr
    # an entry of M's rows in column k has one term per entry of P's row k
    terms = int(np.bincount(M.indices[ptr[r0] : ptr[r1]], minlength=n) @ np.diff(P.indptr))
    cost = (int(P.indptr[n] - P.indptr[r0]) + n) * (r1 - r0)
    return (
        cost <= _DENSE_RATIO * terms
        and M.has_canonical_format
        and P.has_canonical_format
        and bool(np.all(P.data == 1.0))
    )


def _block(M, Y, rows, cols, dense=False, add_to=None):
    """Rows ``[r0, r1)`` by columns ``[c0, c1)`` of the dense ``M @ Y``, or
    with ``add_to`` that block added into the view ``add_to``, in row parts
    on the threads of :func:`~tlpss.adjacency.pool_map`.  The sparse route
    (:func:`_sparse_rows`) cuts a part at one row, or at most
    ``_PART_CELLS`` cells or terms, so SciPy's product for a part of several
    rows has at most ``_PART_CELLS`` entries; it adds each cell's terms in
    the order of ``M``'s row, which a row or column slice keeps, so the
    cells have the whole product's bits.  The ``dense`` route
    (:func:`_dense_rows`) cuts a part at one row of ``M``, or at most
    ``_PART_CELLS`` cells of it made dense, and takes ``Y[:, C]`` as the
    rows ``Y[C]`` of a symmetric ``Y``."""
    (r0, r1), (c0, c1) = rows, cols
    out = np.empty((r1 - r0, c1 - c0)) if add_to is None else add_to
    add = add_to is not None
    terms = None
    if dense:
        kernel = partial(_dense_rows, M, r0, _rows(Y, c0, c1), out, add)
        width = max(1, _PART_CELLS // max(M.shape[1], 1))
    else:
        X = _rows(M, r0, r1)
        if (c0, c1) != (0, Y.shape[1]):
            Y = Y[:, c0:c1]
        kernel = partial(_sparse_rows, X, Y, out, add)
        width = max(1, _PART_CELLS // max(c1 - c0, 1))
        # the product's terms before each row: an entry (i, k) of X has one
        # term per entry of Y's row k
        terms = np.r_[0, np.cumsum(np.diff(Y.indptr)[X.indices])][X.indptr]
    bounds = [0]
    while bounds[-1] < r1 - r0:
        a = bounds[-1]
        b = a + width
        if terms is not None:
            b = max(b, int(np.searchsorted(terms, terms[a] + _PART_CELLS, side="right")) - 1)
        bounds.append(min(r1 - r0, b))
    list(pool_map(kernel, list(zip(bounds[:-1], bounds[1:]))))
    return out


def _sparse_rows(X, Y, out, add, part):
    """Rows ``[a, b)`` of the dense ``X @ Y`` for ``part = (a, b)``, written
    to, or added into, the same rows of ``out``."""
    a, b = part
    product = _rows(X, a, b) @ Y
    if add:
        # out is a block's transpose: adding in the block's own layout
        # writes its rows contiguously, where numpy would write its columns
        cols = out[a:b].T
        cols += product.toarray().T
    else:
        # toarray(out=) zeroes the rows before writing them
        product.toarray(out=out[a:b])


def _dense_rows(M, r0, Q, out, add, part):
    """Rows ``[a, b)`` of :func:`_block`'s dense-operand route: the rows
    ``[r0 + a, r0 + b)`` of ``M`` made dense and transposed, ``Z``, and
    ``(Q @ Z).T`` written to, or added into, ``out[a:b]``, with SciPy's CSR
    x dense kernel.  Row i of ``Q @ Z`` adds ``Q[i, k] * Z[k]`` to zeros
    for each entry k of ``Q``'s row i in ascending order.  With ``Q`` all
    ones, ``1.0 * M[c, k]`` is exact (with or without a fused multiply-add),
    so cell (c, i) adds the sparse product's terms in its order, ascending
    shared index, and between them an exact ``+0.0`` for each k where
    ``M[c, k]`` is not stored, which leaves a sum begun at ``+0.0``
    unchanged: the cell has the sparse product's bits."""
    a, b = part
    Z = np.ascontiguousarray(_rows(M, r0 + a, r0 + b).toarray().T)
    if add:
        out[a:b] += (Q @ Z).T
    else:
        out[a:b] = (Q @ Z).T


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


def score_matrix(
    A: WeightedAdjacency,
    D: DegreeVector,
    method: MethodId,
    latent_params: DecayParams | ExpDecayParams | None = None,
    cclp_mode: str = "local",
    rows: tuple[int, int] | None = None,
) -> np.ndarray:
    """One method's dense score matrix, or for ``rows=(r0, r1)`` the block
    of its rows ``[r0, r1)`` and columns ``[r0, n)``, of shape
    ``(r1 - r0, n - r0)``: the upper trapezoid that holds every pair
    ``i < j`` of those rows (block cell ``(a, c)`` is pair
    ``(r0 + a, r0 + c)``).  ``rows=None`` is the whole matrix.

    Entry (i, j) is the method's score for the pair; the matrix is symmetric
    with an all-zero diagonal except for PA, whose diagonal is meaningless
    and zeroed anyway.  A block's cells have the bits of the whole matrix's.
    What does not depend on the rows (the scaled TLPSS operand, the
    link-triangle incidence, the CCLP coefficients) is built at the first
    block and kept in ``A.operands``, which a caller scoring block by block
    clears after the last.  TLPSS requires ``latent_params`` for its latent
    weights, and builds ``A.layout.latent_plan`` if it does not exist yet,
    or streams a plan where the layout keeps none (see
    :func:`~tlpss.adjacency.latent_matrix`).
    """
    n = A.n
    r0, r1 = (0, n) if rows is None else rows
    if not 0 <= r0 <= r1 <= n:
        raise ValueError(f"rows {rows!r} are not a range of the {n} rows")
    R, C = (r0, r1), (r0, n)
    P = A.indicator_csr
    W = A.weight_csr
    w = D.w

    def symmetric(M):
        """The block of ``0.5 * (s + s.T)`` for ``s = M @ P``.  The
        transposed half of a block that is not the whole matrix is the
        product over the swapped ranges, ``M[C] @ P[:, R]``, added into the
        block's transpose by the route ``s`` took; a cell adds its terms in
        the order the whole matrix's ``s.T`` does.  The whole matrix adds
        its own transpose in tiles (:func:`_add_transpose`)."""
        dense = _dense_route(M, P, r0, r1)
        s = _block(M, P, R, C, dense)
        if r1 - r0 == n:
            _add_transpose(s)
        else:
            _block(M, P, C, R, dense, add_to=s.T)
        s *= 0.5
        return s

    def inv(x):
        return np.divide(1.0, x, out=np.zeros_like(x), where=x > 0)

    def cap():
        d = D.d.astype(np.float64)
        return d * (d - 1) / 2.0

    if method is MethodId.CN_ASF:
        out = symmetric(W)
    elif method is MethodId.JA_ASF:
        # in place: where denom is 0, both nodes are isolated and cn is 0
        out = symmetric(W)
        denom = w[r0:r1, None] + w[None, r0:]
        np.divide(out, denom, out=out, where=denom > 0)
    elif method is MethodId.PA_ASF:
        out = np.outer(w[r0:r1], w[r0:])
    elif method is MethodId.RA_ASF:
        L = _operand(A, D, method, lambda: P @ sp.diags(inv(w)))
        out = _block(L, P, R, C, _dense_route(L, P, r0, r1))
    elif method is MethodId.CAR_ASF:
        incidence = _operand(A, D, "lcl", lambda: _lcl_incidence(A))
        out = symmetric(W)
        out *= _block(*incidence, R, C)
    elif method is MethodId.CCLP_ASF:
        if cclp_mode == "local":
            L = _operand(
                A, D, method,
                lambda: P @ sp.diags(_triangle_mass(A) * inv(cap())),
            )
            out = _block(L, P, R, C, _dense_route(L, P, r0, r1))
        elif cclp_mode == "global":
            L = _operand(A, D, (method, "global"), lambda: P @ sp.diags(inv(cap())))
            incidence = _operand(A, D, "lcl", lambda: _lcl_incidence(A))
            out = _block(L, P, R, C, _dense_route(L, P, r0, r1))
            out *= _block(*incidence, R, C)
        else:
            raise ConfigError(f"unknown cclp mode {cclp_mode!r}")
    elif method is MethodId.TLPSS:
        if latent_params is None:
            raise ConfigError("TLPSS needs decay parameters for latent weights")

        def scaled():
            # divide each column by its node's weighted degree (w > 0
            # wherever W + B has an entry), the same rounding as a per-term
            # W[x,z]/w[z]
            M = (W + latent_matrix(A, latent_params)).tocsr()
            M.data /= w[M.indices]
            return M

        out = symmetric(_operand(A, D, (method, latent_params), scaled))
    else:
        raise ConfigError(f"unknown method {method!r}")

    # the block's cells (i, i), its leading diagonal
    np.fill_diagonal(out, 0.0)
    return out
