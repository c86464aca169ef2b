"""Exact-equality guards on the order in which sparse sums are added.

Criterion 3 compares every method with the oracle to 1e-9, which cannot see
a change in summation order; such a change can still flip a tied AUC or
precision comparison.  These tests pin ``_lcl_matrix`` and ``latent_matrix``
bit for bit to straightforward per-link and gather-and-subtract loops, which
add each cell's terms in the row-major link order the engine documents.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from tlpss.adjacency import build_adjacency, degree_vector, latent_matrix
from tlpss.decay import DecayParams, ExpDecayParams, decay_floor
from tlpss.edges import SnapshotConfig, TemporalEdgeList, normalize, snapshot_index
from tlpss.oracle import ToyGraph, random_decay, random_toy
from tlpss.scoring import MethodId, _lcl_matrix, score_matrix


def loop_lcl(A):
    """Per-link loop: link (z1, z2), taken in row-major upper-triangle
    order, adds its weight to every pair adjacent to both endpoints."""
    W = A.weight_csr
    ptr, idx = W.indptr, W.indices
    out = np.zeros((A.n, A.n), dtype=np.float64)
    for z1 in range(A.n):
        nb1 = idx[ptr[z1] : ptr[z1 + 1]]
        for k in range(ptr[z1], ptr[z1 + 1]):
            z2 = idx[k]
            if z2 < z1:
                continue
            both = np.intersect1d(nb1, idx[ptr[z2] : ptr[z2 + 1]], assume_unique=True)
            if len(both) < 2:
                continue
            out[np.ix_(both, both)] += W.data[k]
    np.fill_diagonal(out, 0.0)
    return out


def loop_latent(A, params, chunk=4_000_000):
    """Chunked two-hop pass over every node's neighbor pairs, then the
    adjacent pairs gathered from the full matrix and subtracted out."""
    n = A.n
    floor = decay_floor(params)
    acc = sp.csr_matrix((n, n), dtype=np.float64)
    if floor == 0.0:
        return acc
    buf_i, buf_j, buf_v = [], [], []

    def flush(acc):
        if not buf_v:
            return acc
        block = sp.coo_matrix(
            (np.concatenate(buf_v), (np.concatenate(buf_i), np.concatenate(buf_j))),
            shape=(n, n),
        )
        buf_i.clear()
        buf_j.clear()
        buf_v.clear()
        return acc + block.tocsr()

    W = A.weight_csr
    deg = np.diff(W.indptr)
    buffered = 0
    for z in range(n):
        d = int(deg[z])
        if d < 2:
            continue
        row = slice(W.indptr[z], W.indptr[z + 1])
        nb, wt = W.indices[row], W.data[row]
        mu = A.mult[row].astype(np.float64)
        contrib = (wt[:, None] + wt[None, :]) / (mu[:, None] + mu[None, :])
        np.fill_diagonal(contrib, 0.0)
        buf_i.append(np.repeat(nb, d))
        buf_j.append(np.tile(nb, d))
        buf_v.append(contrib.ravel())
        buffered += d * d
        if buffered >= chunk:
            acc = flush(acc)
            buffered = 0
    acc = flush(acc)

    coo = acc.tocoo()
    if coo.nnz == 0:
        return acc
    vals = floor * coo.data / np.minimum(deg[coo.row], deg[coo.col]).astype(np.float64)
    B = sp.csr_matrix((vals, (coo.row, coo.col)), shape=(n, n))
    adj = W.tocoo()
    present = np.asarray(B[adj.row, adj.col]).ravel()
    hit = present != 0
    if np.any(hit):
        B = B - sp.csr_matrix((present[hit], (adj.row[hit], adj.col[hit])), shape=(n, n))
        B.eliminate_zeros()
    return B


def stack(toy, params):
    lst = normalize(TemporalEdgeList.from_records(toy.edges, toy.n))
    cfg = SnapshotConfig(period=toy.period)
    A = build_adjacency(lst, snapshot_index(lst.t_max, cfg), params, cfg)
    return A, degree_vector(A)


def hub_graph(n=600, rows=9000, seed=11):
    """Heavy-tailed multigraph with community links, so that most links
    close triangles and many pairs share several of them."""
    rng = np.random.default_rng(seed)
    activity = (rng.permutation(n) + 1.0) ** -0.8
    cdf = np.cumsum(activity)
    u = np.searchsorted(cdf, rng.random(rows) * cdf[-1], side="right")
    v = np.searchsorted(cdf, rng.random(rows) * cdf[-1], side="right")
    local = rng.random(rows) < 0.5
    v[local] = (u[local] // 20) * 20 + rng.integers(0, 20, local.sum())
    v = np.minimum(v, n - 1)
    ts = rng.integers(1, 200, rows)
    return ToyGraph(n=n, edges=list(zip(u.tolist(), v.tolist(), ts.tolist())), period=5.0)


def assert_same_csr(got, ref):
    got, ref = got.tocsr(), ref.tocsr()
    got.sort_indices()
    ref.sort_indices()
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def car_and_global_cclp(A, D, lcl):
    """CAR and global-mode CCLP from a given LCL matrix, as the engine
    builds them."""
    P, W = A.indicator_csr, A.weight_csr
    m = (W @ P).toarray()
    car = 0.5 * (m + m.T) * lcl
    d = D.d.astype(np.float64)
    cap = d * (d - 1) / 2.0
    inv_cap = np.divide(1.0, cap, out=np.zeros_like(cap), where=cap > 0)
    cclp = (P @ sp.diags(inv_cap) @ P).toarray() * lcl
    for out in (car, cclp):
        np.fill_diagonal(out, 0.0)
    return car, cclp


def check_graph(toy, params):
    A, D = stack(toy, params)
    lcl = loop_lcl(A)
    assert np.array_equal(_lcl_matrix(A), lcl)
    assert_same_csr(latent_matrix(A, params), loop_latent(A, params))
    car, cclp = car_and_global_cclp(A, D, lcl)
    assert np.array_equal(score_matrix(A, D, MethodId.CAR_ASF), car)
    assert np.array_equal(
        score_matrix(A, D, MethodId.CCLP_ASF, cclp_mode="global"), cclp
    )


@pytest.mark.parametrize("block", range(3))
def test_random_toys_equal_loops(block):
    # 3 x 60 toys; every fourth draws exponential decay
    for trial in range(block * 60, (block + 1) * 60):
        toy = random_toy(seed=55000 + trial, max_nodes=60)
        params = random_decay(seed=56000 + trial, allow_exp=False)
        if trial % 4 == 3:
            params = ExpDecayParams(theta=0.1 + 0.8 * (trial % 7) / 7)
        check_graph(toy, params)


@pytest.mark.parametrize("q", [0.0, 1.0, 7.0])
def test_hub_graph_equals_loops(q):
    check_graph(hub_graph(), DecayParams(p=3.0, q=q))
