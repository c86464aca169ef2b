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
a time.  Each product is computed in row parts of at most ``_PART_CELLS``
cells on one thread per CPU the process may use
(:func:`~tlpss.adjacency.pool_map`); a cell's bits do not depend on the
parts or the threads.

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
    return Q.T.tocsr(), (sp.diags(links.data) @ Q).tocsr()


def _rows(X: sp.csr_matrix, r0: int, r1: int) -> sp.csr_matrix:
    """Rows ``[r0, r1)`` of ``X`` on ``X``'s own arrays; a SciPy slice
    copies them."""
    ptr = X.indptr
    return sp.csr_matrix(
        (X.data[ptr[r0] : ptr[r1]], X.indices[ptr[r0] : ptr[r1]], ptr[r0 : r1 + 1] - ptr[r0]),
        shape=(r1 - r0, X.shape[1]),
    )


def _product(X: sp.csr_matrix, Y: sp.csr_matrix, r0: int, r1: int) -> np.ndarray:
    """Rows ``[r0, r1)`` and columns ``[r0, n)`` of the dense ``X @ Y``,
    computed in row parts by :func:`_dense`.  The CSR product adds each
    cell's terms in the order of ``X``'s row, ascending shared index, and a
    row or column slice keeps that order, so the cells have the bits of the
    whole product's."""
    return _dense(_rows(X, r0, r1), Y[:, r0:] if r0 else Y)


def _by_indicator(
    M: sp.csr_matrix, P: sp.csr_matrix, r0: int, r1: int
) -> tuple[np.ndarray, bool]:
    """Rows ``[r0, r1)`` and columns ``[r0, n)`` of the dense ``M @ P``
    for the 0/1 indicator ``P`` of a symmetric adjacency, and whether the
    dense-operand route computed them.  That route takes ``P[:, C]`` as the
    rows ``P[C]`` and computes ``M[R] @ P[:, C]`` as ``(P[C] @ Z).T`` for
    ``Z`` the rows ``R`` of ``M`` made dense and transposed
    (:func:`_operand_parts`); otherwise :func:`_product` computes the
    block.  Both give the cells the same bits."""
    if _dense_route(M, P, r0, r1):
        out = np.empty((r1 - r0, P.shape[0] - r0))
        _operand_parts(M, _rows(P, r0, P.shape[0]), r0, r1 - r0, out, add=False)
        return out, True
    return _product(M, P, r0, r1), False


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


def _operand_parts(M, Q, r0, rows, out, add):
    """Fill ``out`` from the rows ``[r0, r0 + rows)`` of ``M``, made dense
    and transposed a few at a time, each part ``Z`` multiplied by SciPy's
    CSR x dense kernel on the threads of :func:`~tlpss.adjacency.pool_map`:
    part ``[a, b)`` writes ``(Q @ Z).T`` to ``out[a:b]``, or with ``add``
    adds ``Q @ Z`` to ``out[:, a:b]``.  A part's ``Z`` has at most
    ``_PART_CELLS`` cells, or one row of ``M``."""
    width = max(1, _PART_CELLS // max(M.shape[1], 1))
    parts = [(a, min(rows, a + width)) for a in range(0, rows, width)]
    list(pool_map(partial(_operand_rows, M, Q, r0, out, add), parts))


def _operand_rows(M, Q, r0, out, add, part):
    """One part of :func:`_operand_parts`.  Row i of ``Q @ Z`` adds
    ``Q[i, k] * Z[k]`` to zeros for each entry k of ``Q``'s row i in
    ascending order.  With ``Q`` all ones, ``1.0 * M[c, k]`` is exact (with
    or without a fused multiply-add), so cell (i, c) adds the sparse
    product's terms in its order, ascending shared index, and between them
    an exact ``+0.0`` for each k where ``M[c, k]`` is not stored, which
    leaves a sum begun at ``+0.0`` unchanged: the cell has the sparse
    product's bits."""
    a, b = part
    Z = np.ascontiguousarray(_rows(M, r0 + a, r0 + b).toarray().T)
    if add:
        out[:, a:b] += Q @ Z
    else:
        out[a:b] = (Q @ Z).T


def _dense(X: sp.csr_matrix, Y: sp.csr_matrix) -> np.ndarray:
    """The dense ``X @ Y``, computed in row parts on the threads of
    :func:`~tlpss.adjacency.pool_map`.  A part is one row, or rows with at
    most ``_PART_CELLS`` cells or at most ``_PART_CELLS`` terms, so the
    sparse product SciPy builds for a part of several rows has at most
    ``_PART_CELLS`` entries; a product with few terms gets few parts.  A
    cell's terms are all in one row, so each cell has the bits of the whole
    product's."""
    rows, cols = X.shape[0], Y.shape[1]
    per_part = max(1, _PART_CELLS // max(cols, 1))
    # the product's terms before each row: an entry (i, k) of X has one
    # term per entry of Y's row k
    terms = np.r_[0, np.cumsum(np.diff(Y.indptr)[X.indices])][X.indptr]
    bounds = [0]
    while bounds[-1] < rows:
        a = bounds[-1]
        by_terms = int(np.searchsorted(terms, terms[a] + _PART_CELLS, side="right")) - 1
        bounds.append(min(rows, max(a + per_part, by_terms, a + 1)))
    # toarray(out=) zeroes each part's rows before writing them
    out = np.empty((rows, cols))
    list(pool_map(partial(_dense_rows, X, Y, out), list(zip(bounds[:-1], bounds[1:]))))
    return out


def _dense_rows(X, Y, out, part):
    """Rows ``[a, b)`` of the dense ``X @ Y`` for ``part = (a, b)``, written
    to the same rows of ``out``."""
    a, b = part
    (_rows(X, a, b) @ Y).toarray(out=out[a:b])


def _lcl_matrix(A: WeightedAdjacency) -> np.ndarray:
    """Dense matrix of link weight among each pair's common neighbors: a
    link (z1, z2) of weight w adds w to every pair of nodes adjacent to both
    z1 and z2."""
    out = _product(*_lcl_incidence(A), 0, A.n)
    np.fill_diagonal(out, 0.0)
    return out


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
    weights, and builds ``A.layout.latent_plan`` if it does not exist yet
    (see :func:`~tlpss.adjacency.latent_matrix`).
    """
    n = A.n
    r0, r1 = (0, n) if rows is None else rows
    if not 0 <= r0 <= r1 <= n:
        raise ValueError(f"rows {rows!r} are not a range of the {n} rows")
    P = A.indicator_csr
    W = A.weight_csr
    w = D.w

    def symmetric(M):
        """The block of ``0.5 * (s + s.T)`` for ``s = M @ P``.  Row i of
        ``P @ M.T`` adds the terms of column i of ``s`` in the same order,
        ascending shared index, so it stands in for the transposed half of
        a block that is not the whole matrix; its columns ``[r0, n)`` need
        only the rows ``[r0, n)`` of ``M``.  The half takes the route ``s``
        took, and the dense-operand route adds it to ``s`` part by part."""
        s, dense = _by_indicator(M, P, r0, r1)
        if r1 - r0 == n:
            # in place; numpy buffers s.T, a view of s
            s += s.T
        elif dense:
            _operand_parts(M, _rows(P, r0, r1), r0, n - r0, s, add=True)
        else:
            s += _dense(_rows(P, r0, r1), _rows(M, r0, n).T.tocsr())
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
        out = _by_indicator(L, P, r0, r1)[0]
    elif method is MethodId.CAR_ASF:
        incidence = _operand(A, D, "lcl", lambda: _lcl_incidence(A))
        out = symmetric(W)
        out *= _product(*incidence, r0, r1)
    elif method is MethodId.CCLP_ASF:
        if cclp_mode == "local":
            L = _operand(
                A, D, method,
                lambda: P @ sp.diags(_triangle_mass(A) * inv(cap())),
            )
            out = _by_indicator(L, P, r0, r1)[0]
        elif cclp_mode == "global":
            L = _operand(A, D, (method, "global"), lambda: P @ sp.diags(inv(cap())))
            incidence = _operand(A, D, "lcl", lambda: _lcl_incidence(A))
            out = _by_indicator(L, P, r0, r1)[0]
            out *= _product(*incidence, r0, r1)
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
