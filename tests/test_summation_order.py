"""Exact-equality guards on the order in which sparse sums are added.

Criterion 3 compares every method with the oracle to 1e-9, which cannot see
a change in summation order; such a change can still flip a tied AUC or
precision comparison.  These tests pin the link-triangle incidence product
and ``latent_matrix`` bit for bit to straightforward per-link and
gather-and-subtract loops, which add each cell's terms in the row-major link
order the engine documents, and check that one latent plan gives those bits
under every parameter set, and that neither row blocks, row parts, the
number of worker threads nor the route a product by the adjacency indicator
takes changes a bit.  Blocks of node indices and ``score_pairs``, which adds
each pair's terms with ``np.bincount``, give the whole matrix's bits too.
Row parts cost a row its cells, so cutting a block allocates nothing the
size of its operand's entries, and each part takes its own operand rows, so
no block's worth of them is copied.
"""

import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from tlpss import adjacency, evaluation, scoring
from tlpss.adjacency import (
    LatentPlan,
    build_adjacency,
    degree_vector,
    latent_matrix,
    pair_layout,
)
from tlpss.decay import DecayParams, ExpDecayParams, decay_floor
from tlpss.edges import SnapshotConfig, normalize, snapshot_index
from tlpss.oracle import random_decay, random_toy
from tlpss.scoring import MethodId, score_bound, score_matrix, score_pairs

from conftest import adjacency_of, edge_list, hub_graph


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
    lst = normalize(edge_list(toy.edges, toy.n))
    cfg = SnapshotConfig(period=toy.period)
    A = build_adjacency(lst, snapshot_index(lst.t_max, cfg), params, cfg, pair_layout(lst))
    return A, degree_vector(A)


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
    # link weight among each pair's common neighbors, as CAR and global
    # CCLP take it
    got = scoring._block(*scoring._lcl_incidence(A), range(A.n), range(A.n))
    np.fill_diagonal(got, 0.0)
    assert np.array_equal(got, lcl)
    assert_same_csr(latent_matrix(A), loop_latent(A, params))
    car, cclp = car_and_global_cclp(A, D, lcl)
    nodes = range(A.n)
    assert np.array_equal(score_matrix(A, D, MethodId.CAR_ASF, nodes, nodes), car)
    assert np.array_equal(score_matrix(A, D, MethodId.CCLP_ASF, nodes, nodes, "global"), cclp)


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


# q = 0 has no latent edges, so the plan is first built at the second value
PLAN_PARAMS = [
    DecayParams(p=3.0, q=0.0),
    DecayParams(p=3.0, q=1.0),
    DecayParams(p=3.0, q=7.0),
    DecayParams(p=3.0, q=0.5),
    DecayParams(p=0.7, q=1.0),
]


def check_plan(toy, chunk=4_000_000):
    """One plan, the layout's, for every parameter set of one train list."""
    lst = normalize(edge_list(toy.edges, toy.n))
    cfg = SnapshotConfig(period=toy.period)
    T = snapshot_index(lst.t_max, cfg)
    layout = pair_layout(lst)
    plans = []
    for params in PLAN_PARAMS:
        A = build_adjacency(lst, T, params, cfg, layout)
        assert_same_csr(latent_matrix(A), loop_latent(A, params, chunk))
        plans.append(vars(layout).get("latent_plan"))
    # not built for q = 0, then built once and kept
    assert plans[0] is None
    assert all(plan is layout.latent_plan for plan in plans[1:])
    return layout.latent_plan, A


def test_plan_reused_across_values_on_random_toys():
    for trial in range(40):
        check_plan(random_toy(seed=57000 + trial, max_nodes=60))


def test_plan_reused_across_values_on_hub_graph():
    _, A = check_plan(hub_graph())
    # one chunk whose rows run past 16 terms, where csr_sort_indices leaves
    # insertion sort for its unstable introsort
    d = np.diff(A.weight_csr.indptr)
    centre = np.where(d >= 2, d, 0)
    assert (centre**2).sum() < adjacency._CHUNK
    assert (A.indicator_csr @ centre).max() > 16


def repeated_cells(plan):
    """Per row set of a kept plan, its runs on a cell that an earlier
    chunk's run adds to too (a chunk has one run per cell)."""
    return [len(cell) - len(np.unique(cell)) for _, _, (_, _, cell, _) in plan.sets]


def test_plan_with_many_chunks_and_blocks(monkeypatch):
    monkeypatch.setattr(adjacency, "_CHUNK", 5_000)
    monkeypatch.setattr(adjacency, "_PART", 256)
    plan, A = check_plan(hub_graph(), chunk=5_000)
    d = np.diff(A.weight_csr.indptr)
    chunks = (np.where(d >= 2, d, 0) ** 2).sum() / 5_000
    assert chunks > 3
    # many sets, most of them with cells summed across chunks
    repeated = repeated_cells(plan)
    assert len(repeated) > 12 and np.count_nonzero(repeated) > len(repeated) / 2
    # each set's rows are whole and in order, and own their cells
    counts = np.concatenate([counts for counts, _, _ in plan.sets])
    assert len(counts) == A.n
    assert counts.sum() == latent_matrix(A).nnz



def check_streamed(toy, params_list=PLAN_PARAMS):
    """A layout that keeps no plan gives the kept plan's latent matrices and
    cell sums bit for bit under every parameter set, and never holds a plan."""
    lst = normalize(edge_list(toy.edges, toy.n))
    cfg = SnapshotConfig(period=toy.period)
    T = snapshot_index(lst.t_max, cfg)
    kept, streamed = pair_layout(lst), pair_layout(lst, keep_plan=False)
    for params in params_list:
        A = build_adjacency(lst, T, params, cfg, kept)
        B = build_adjacency(lst, T, params, cfg, streamed)
        assert_same_csr(latent_matrix(B), latent_matrix(A))
        if decay_floor(params) > 0:
            plan = LatentPlan(streamed)
            assert all(isinstance(item, range) for item in plan.sets)
            for got, ref in zip(plan.cells(B), kept.latent_plan.cells(A)):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert "latent_plan" not in vars(streamed)
    return kept.latent_plan, A


def test_streamed_plan_equals_kept_plan_on_random_toys():
    for trial in range(40):
        check_streamed(random_toy(seed=57000 + trial, max_nodes=60))


def test_streamed_plan_equals_kept_plan_on_hub_graph():
    check_streamed(hub_graph())


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_streamed_plan_with_many_chunks_and_blocks(monkeypatch, workers):
    monkeypatch.setattr(adjacency, "_CHUNK", 5_000)
    monkeypatch.setattr(adjacency, "_PART", 256)
    monkeypatch.setattr(adjacency, "_workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # threads take turns often
    try:
        plan, A = check_streamed(hub_graph(), PLAN_PARAMS[1:2])
    finally:
        sys.setswitchinterval(interval)
    repeated = repeated_cells(plan)
    assert len(repeated) > 12 and np.count_nonzero(repeated) > len(repeated) / 2
    assert_same_csr(latent_matrix(A), loop_latent(A, PLAN_PARAMS[1], chunk=5_000))


def first_set_summed_last(monkeypatch, keep_plan):
    """The hub graph's adjacency, its decay, and the record of which row set
    ``_run_sums`` sums, with the plan's first row set held back until all
    the others are summed, and the number of sets."""
    monkeypatch.setattr(adjacency, "_CHUNK", 5_000)
    monkeypatch.setattr(adjacency, "_PART", 256)
    monkeypatch.setattr(adjacency, "_workers", lambda: 3)
    params = DecayParams(p=3.0, q=1.0)
    toy = hub_graph()
    lst = normalize(edge_list(toy.edges, toy.n))
    cfg = SnapshotConfig(period=toy.period)
    A = build_adjacency(
        lst, snapshot_index(lst.t_max, cfg), params, cfg, pair_layout(lst, keep_plan)
    )
    plan = LatentPlan(pair_layout(lst))
    # the first set's cells take sums from several chunks; a block's link
    # positions tell its set
    assert repeated_cells(plan)[0] > 50
    first = plan.sets[0][2][0]
    run_sums = adjacency._run_sums
    others = threading.Semaphore(0)
    summed = []

    def first_finishes_last(W, link, block):
        if np.array_equal(block[0], first):
            for _ in plan.sets[1:]:
                assert others.acquire(timeout=30)
            summed.append(True)
        else:
            summed.append(False)
            others.release()
        return run_sums(W, link, block)

    monkeypatch.setattr(adjacency, "_run_sums", first_finishes_last)
    return A, params, summed, len(plan.sets)


@pytest.mark.parametrize("keep_plan", [True, False], ids=["kept", "streamed"])
def test_first_row_set_lands_first_when_it_finishes_last(monkeypatch, keep_plan):
    """The plan's first row set is summed after all the others, and its
    cells still come first, each with its chunk sums in chunk order."""
    A, params, summed, sets = first_set_summed_last(monkeypatch, keep_plan)
    assert_same_csr(latent_matrix(A), loop_latent(A, params, chunk=5_000))
    assert summed == [False] * (sets - 1) + [True]


@pytest.mark.parametrize("keep_plan", [True, False], ids=["kept", "streamed"])
def test_first_row_set_lands_first_in_the_operand(monkeypatch, keep_plan):
    """So do its rows of TLPSS's operand, links and cells merged."""
    A, params, summed, sets = first_set_summed_last(monkeypatch, keep_plan)
    w = degree_vector(A).w
    ref = (A.weight_csr + loop_latent(A, params, chunk=5_000)).tocsr()
    ref.data /= w[ref.indices]
    assert_same_csr(latent_matrix(A, w), ref)
    assert summed == [False] * (sets - 1) + [True]


def whole_triangle_mass(A):
    """Local CCLP's triangle mass from the whole two-hop product."""
    P = A.indicator_csr
    return 0.5 * np.asarray((P @ A.weight_csr).multiply(P).sum(axis=1)).ravel()


@pytest.mark.parametrize("part", [2**16, 64, 1])
def test_triangle_mass_in_row_parts_equals_the_whole_product(monkeypatch, part):
    """SciPy's product, element-wise product and pairwise row sums, made on
    row parts on two threads, give each node the whole product's bits."""
    monkeypatch.setattr(adjacency, "_PART", part)
    monkeypatch.setattr(adjacency, "_workers", lambda: 2)
    cuts = []
    monkeypatch.setattr(
        scoring, "parts", lambda before: cuts.append(adjacency.parts(before)) or cuts[-1]
    )
    for trial in range(-1, 30):
        toy = hub_graph() if trial < 0 else random_toy(seed=58000 + trial, max_nodes=60)
        A, _ = stack(toy, DecayParams(p=3.0, q=1.0))
        cuts.clear()
        got = scoring._triangle_mass(A)
        assert got.tobytes() == whole_triangle_mass(A).tobytes()
        if trial < 0:
            # the hub graph's two-hop terms fill several parts of 2**16
            assert len(cuts) == 1 and len(cuts[0]) > (1 if part == 2**16 else 100)


def whole_incidence(A):
    """CAR's and global CCLP's link-triangle incidence operands from ``Q``
    built whole, every upper-triangle link's two rows of ``P`` at once."""
    P = A.indicator_csr
    links = sp.triu(A.weight_csr, k=1).tocoo()
    Q = P[links.row].multiply(P[links.col])
    return Q.tocsc().T, (sp.diags(links.data) @ Q).tocsr()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("part", [2**16, 64, 1])
def test_incidence_in_link_runs_equals_the_whole_product(monkeypatch, workers, part):
    """``Q`` built in runs of links and joined in link order, and so both
    operands made from it, ``Q.T`` (whose arrays are ``Q``'s CSC arrays)
    and ``diag(w) @ Q``, have the whole construction's arrays, entry for
    entry and in the same stored order."""
    monkeypatch.setattr(adjacency, "_PART", part)
    monkeypatch.setattr(adjacency, "_workers", lambda: workers)
    cuts = []
    monkeypatch.setattr(
        scoring, "parts", lambda before: cuts.append(adjacency.parts(before)) or cuts[-1]
    )
    for trial in range(-1, 20):
        toy = hub_graph() if trial < 0 else random_toy(seed=58500 + trial, max_nodes=60)
        A, _ = stack(toy, DecayParams(p=3.0, q=1.0))
        cuts.clear()
        for got, want in zip(scoring._lcl_incidence(A), whole_incidence(A)):
            assert type(got) is type(want) and got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (trial, name)
        if trial < 0:
            # the hub graph's links fill several runs of 2**16
            assert len(cuts) == 1 and len(cuts[0]) > (1 if part == 2**16 else 100)


# every scoring matrix: each method, and CCLP in both modes
SCORINGS = [(m, "local") for m in MethodId] + [(MethodId.CCLP_ASF, "global")]


def uneven_blocks(n, rng):
    """Row ranges covering all n rows in uneven blocks, the first and last
    of one row each."""
    cuts = {0, 1, n - 1, n} | set(rng.integers(1, n, size=4).tolist())
    cuts = sorted(c for c in cuts if 0 <= c <= n)
    return list(zip(cuts[:-1], cuts[1:]))


def check_blocks(toy, params, rng):
    A, D = stack(toy, params)
    blocks = uneven_blocks(A.n, rng)
    assert any(r1 - r0 == 1 for r0, r1 in blocks) and len(blocks) > 2
    for method, mode in SCORINGS:
        full = score_matrix(A, D, method, range(A.n), range(A.n), mode)
        # each block builds its operands itself, as evaluation does
        A.operands.clear()
        for r0, r1 in blocks:
            block = score_matrix(A, D, method, range(r0, r1), range(r0, A.n), mode)
            assert np.array_equal(block, full[r0:r1, r0:]), (method, mode, r0, r1)
        A.operands.clear()


def test_block_is_the_upper_trapezoid_with_a_zero_diagonal():
    A, D = stack(hub_graph(), DecayParams(p=3.0, q=1.0))
    n = A.n
    for method, mode in SCORINGS:
        for r0, r1 in ((0, 1), (0, 7), (5, 40), (n - 3, n), (n, n)):
            block = score_matrix(A, D, method, range(r0, r1), range(r0, n), mode)
            assert block.shape == (r1 - r0, n - r0)
            # block cell (a, a) is pair (r0 + a, r0 + a)
            assert np.all(np.diagonal(block) == 0), (method, mode, r0, r1)
        A.operands.clear()


def test_row_blocks_equal_whole_matrix_on_random_toys():
    rng = np.random.default_rng(58000)
    for trial in range(40):
        toy = random_toy(seed=58000 + trial, max_nodes=60, min_nodes=4)
        params = random_decay(seed=59000 + trial, allow_exp=False)
        if trial % 2:
            params = ExpDecayParams(theta=0.1 + 0.8 * (trial % 7) / 7)
        check_blocks(toy, params, rng)


@pytest.mark.parametrize(
    "params", [DecayParams(p=3.0, q=1.0), DecayParams(p=3.0, q=0.0), ExpDecayParams(0.4)]
)
def test_row_blocks_equal_whole_matrix_on_hub_graph(params):
    check_blocks(hub_graph(), params, np.random.default_rng(60000))


def test_worker_count_changes_no_bit(monkeypatch):
    # a plan of many chunks and blocks, and products of several row parts
    monkeypatch.setattr(adjacency, "_CHUNK", 5_000)
    monkeypatch.setattr(adjacency, "_PART", 256)
    params = DecayParams(p=3.0, q=1.0)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # threads take turns often
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(adjacency, "_workers", lambda: workers)
            A, D = stack(hub_graph(), params)
            got = [latent_matrix(A)]
            for method, mode in SCORINGS:
                for r0, r1 in ((0, A.n), (0, 1), (0, 250), (250, A.n)):
                    got.append(score_matrix(A, D, method, range(r0, r1), range(r0, A.n), mode))
                A.operands.clear()
            results.append(got)
    finally:
        sys.setswitchinterval(interval)
    for got in results[1:]:
        assert_same_csr(got[0], results[0][0])
        assert all(np.array_equal(a, b) for a, b in zip(got[1:], results[0][1:]))


def block_in_parts(monkeypatch, X, Y, part_cells):
    """``scoring._block`` of all of ``X @ Y`` on the sparse route, on 3
    threads with ``_PART = part_cells``, checked against the one-call
    product; returns the row ranges of its parts, which must cover the rows
    once each.  A row costs its cells, ``Y.shape[1]``, plus its entries of
    ``X``, which the part copies, whatever its terms; a part costs at most
    ``part_cells`` or is one row, and ends only where the next row would
    not fit."""
    monkeypatch.setattr(adjacency, "_PART", part_cells)
    monkeypatch.setattr(adjacency, "_workers", lambda: 3)
    parts = []
    sparse_rows = scoring._sparse_rows

    def record(M, rows, Y, out, add, part):
        parts.append((part.start, part.stop))
        sparse_rows(M, rows, Y, out, add, part)

    monkeypatch.setattr(scoring, "_sparse_rows", record)
    got = scoring._block(X, Y, range(X.shape[0]), range(Y.shape[1]))
    assert np.array_equal(got, (X @ Y).toarray())
    parts.sort()
    bounds = [0] + [b for _, b in parts]
    assert [a for a, _ in parts] == bounds[:-1] and bounds[-1] == X.shape[0]
    cost = Y.shape[1] + np.diff(X.indptr)
    for a, b in parts:
        assert a < b
        assert cost[a:b].sum() <= part_cells or b - a == 1
        assert b == X.shape[0] or cost[a : b + 1].sum() > part_cells
    return parts


def random_csr(rng, rows, cols, density):
    m = sp.random(rows, cols, density=density, random_state=rng, format="csr")
    m.data = rng.random(m.nnz) * 10 ** rng.uniform(-3, 3, m.nnz)
    return m


def test_row_parts_equal_one_product(monkeypatch):
    rng = np.random.default_rng(61000)
    # far fewer terms than cells per row: a row still costs its 400 cells
    # and its few entries, so a part holds 1000 // 400 rows
    Y = random_csr(rng, 30, 400, 0.02)
    X = random_csr(rng, 40, 30, 0.1)
    assert np.diff(X.indptr).max() <= 100
    assert block_in_parts(monkeypatch, X, Y, 1000) == [(r, r + 2) for r in range(0, 40, 2)]
    # many terms per cell: the empty rows (the first and last too) cost
    # their 50 cells, a row of 30 entries 80 whatever its terms, so the
    # runs of empty rows share parts of 5 and the full rows take parts of 3
    Y = random_csr(rng, 30, 50, 0.5)
    X = sp.lil_matrix((40, 30))
    for r in range(10, 40):
        X[r, :] = rng.random(30) + 0.5
    X = X.tocsr()
    expected = [(0, 5), (5, 10)] + [(r, min(r + 3, 40)) for r in range(10, 40, 3)]
    assert block_in_parts(monkeypatch, X, Y, 5 * 50) == expected
    # a one-row block
    assert block_in_parts(monkeypatch, random_csr(rng, 1, 30, 0.5), Y, 50) == [(0, 1)]
    # no entries, so no terms, but each row still writes its cells
    assert block_in_parts(monkeypatch, sp.csr_matrix((12, 30)), Y, 100) == [
        (r, r + 2) for r in range(0, 12, 2)
    ]
    # more parts than rows would hold: one row per part
    X = random_csr(rng, 9, 30, 0.3)
    assert block_in_parts(monkeypatch, X, Y, 1) == [(r, r + 1) for r in range(9)]


def test_short_block_copies_a_part_of_the_operand_at_a_time(monkeypatch):
    """A block of two rows against every node gets its transposed half
    from every other row of TLPSS's operand, two cells each.  With
    ``_PART`` of 4,096, those rows are cut into parts that each copy at
    most about ``_PART`` of the operand's entries (or hold one row), and
    the block keeps the whole matrix's bits."""
    monkeypatch.setattr(adjacency, "_workers", lambda: 2)
    A, D = stack(hub_graph(), DecayParams(p=3.0, q=1.0))
    full = score_matrix(A, D, MethodId.TLPSS, range(A.n), range(A.n))
    M = A.operands[MethodId.TLPSS][1]
    A.operands.clear()
    monkeypatch.setattr(adjacency, "_PART", 4096)
    assert M.nnz > 10 * 4096
    copied = []
    sparse_rows = scoring._sparse_rows

    def record(M, rows, Y, out, add, part):
        if add:
            copied.append((len(part), int(np.diff(M.indptr)[rows[part.start : part.stop]].sum())))
        sparse_rows(M, rows, Y, out, add, part)

    monkeypatch.setattr(scoring, "_sparse_rows", record)
    order = np.argsort(-D.w, kind="stable")
    block = score_matrix(A, D, MethodId.TLPSS, order[:2], order)
    assert np.array_equal(block, full[np.ix_(order[:2], order)])
    assert len(copied) > 10
    assert sum(entries for _, entries in copied) == M.nnz - M[order[:2]].nnz
    assert all(2 * rows + entries <= 4096 or rows == 1 for rows, entries in copied)


def test_consecutive_index_array_takes_the_range_path(monkeypatch):
    """An ascending run of consecutive nodes given as an index array scores
    its range's cells, and reaches the products as that range, whose
    operand rows are read as slices; any other array stays an array."""
    A, D = stack(hub_graph(), DecayParams(p=3.0, q=1.0))
    n = A.n
    assert scoring._nodes("rows", np.arange(5, 40), n) == range(5, 40)
    assert scoring._nodes("rows", np.array([7]), n) == range(7, 8)
    for other in ([5, 6, 8], [7, 6, 5], [5, 5, 6], [5, 6, 6, 7], []):
        got = scoring._nodes("rows", np.array(other, dtype=np.int64), n)
        assert isinstance(got, np.ndarray) and got.tolist() == other
    taken = []
    take = scoring._take

    def recorded(X, nodes):
        taken.append(type(nodes))
        return take(X, nodes)

    monkeypatch.setattr(scoring, "_take", recorded)
    for method, mode in SCORINGS:
        full = score_matrix(A, D, method, range(n), range(n), mode)
        A.operands.clear()
        taken.clear()
        got = score_matrix(A, D, method, np.arange(5, 40), np.arange(5, n), mode)
        assert np.array_equal(got, full[5:40, 5:]), (method, mode)
        assert set(taken) <= {range}, (method, mode)
        gapped = np.r_[5:20, 21:40]
        got = score_matrix(A, D, method, gapped, np.arange(5, n), mode)
        assert np.array_equal(got, full[gapped, 5:]), (method, mode)
        A.operands.clear()
        assert (np.ndarray in taken) == (method is not MethodId.PA_ASF), (method, mode)


def test_cells_of_one_node_are_zero_with_repeated_nodes():
    """Every cell whose row node is its column node is 0, also where the
    node repeats in the rows or in the columns, for every method."""
    A = adjacency_of(4, {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 1.5, (2, 3): 1.0})
    D = degree_vector(A)
    for method, mode in SCORINGS:
        full = score_matrix(A, D, method, range(4), range(4), mode)
        A.operands.clear()
        assert not np.diagonal(full).any(), (method, mode)
        for rows, cols in (([2], [2, 2, 0]), ([2, 2, 0], [2]), ([3, 1, 3, 0], [0, 3, 3, 1, 0])):
            block = score_matrix(A, D, method, np.array(rows), np.array(cols), mode)
            A.operands.clear()
            assert np.array_equal(block, full[np.ix_(rows, cols)]), (method, mode, rows, cols)


def test_sparse_block_allocates_nothing_per_operand_entry():
    """Cutting a sparse-route block into parts allocates nothing the size
    of its left operand's entries: a block of 5,000 rows by 8 columns of an
    operand with 1.25M entries peaks near its 0.3 MB output."""
    rng = np.random.default_rng(61001)
    X = random_csr(rng, 5000, 5000, 0.05)
    X.sort_indices()
    Y = random_csr(rng, 5000, 5000, 0.002)
    expected = (X @ Y[:, :8]).toarray()
    tracemalloc.start()
    try:
        got = scoring._block(X, Y, range(0, 5000), range(0, 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    assert peak < X.nnz * 2


def test_sparse_block_copies_no_block_of_operand_rows(monkeypatch):
    """Each part of a sparse-route block takes its own rows of the left
    operand: rows 2600-4999 of an operand with 1.25M entries hold under
    half of them, so a copy of all of them (12 bytes an entry) would peak
    above 8 bytes an entry, where two threads' parts stay near 4."""
    monkeypatch.setattr(adjacency, "_workers", lambda: 2)
    X = sp.random(5000, 5000, density=0.05, format="csr", random_state=1)
    Y = sp.random(5000, 512, density=0.01, format="csr", random_state=2)
    X.sort_indices()
    Y.sort_indices()
    rows = range(2600, 5000)
    entries = X.indptr[rows.stop] - X.indptr[rows.start]
    out = np.zeros((len(rows), 512))
    tracemalloc.start()
    try:
        scoring._block(X, Y, rows, range(0, 512), add_to=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, (X[2600:5000] @ Y).toarray())
    assert peak < 8 * entries


def test_interrupt_cancels_the_parts_not_started(monkeypatch):
    monkeypatch.setattr(adjacency, "_workers", lambda: 2)
    started = []

    def part(k):
        started.append(k)
        if k == 0:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.01)

    with pytest.raises(KeyboardInterrupt):
        list(adjacency.pool_map(part, list(range(200))))
    time.sleep(0.1)  # the parts already running end
    assert len(started) < 50


def random_indicator(rng, n, density):
    """0/1 indicator of a random symmetric adjacency without loops, in
    canonical form."""
    upper = sp.triu(sp.random(n, n, density=density, random_state=rng), k=1)
    P = (upper + upper.T).tocsr()
    P.data[:] = 1.0
    P.sort_indices()
    return P


def operand_with_empty_rows(rng, n, empty):
    """A random sparse operand with sorted indices whose ``empty`` rows
    have no entries."""
    M = random_csr(rng, n, n, 0.5).tolil()
    for r in empty:
        M[r, :] = 0
    M = M.tocsr()
    M.eliminate_zeros()
    M.sort_indices()
    return M


def reversed_rows(X):
    """``X`` with each row's entries stored in descending column order."""
    ptr = X.indptr
    order = np.concatenate(
        [np.arange(ptr[r + 1] - 1, ptr[r] - 1, -1) for r in range(X.shape[0])]
    )
    return sp.csr_matrix((X.data[order], X.indices[order], ptr.copy()), shape=X.shape)


def route(monkeypatch, M, P, r0, r1, dense):
    """``scoring._dense_route`` with its verdict forced by the ratio, as
    far as the operands allow the dense route."""
    monkeypatch.setattr(scoring, "_DENSE_RATIO", 10**12 if dense else 0)
    return scoring._dense_route(M, P, range(r0, r1), range(r0, P.shape[0]))


def transposed_half(M, P, r0, r1):
    """The transposed half of the block ``(r0, r1)`` of ``M @ P``, the
    swapped-range product on the sparse route added into zeros through
    their transpose."""
    half = np.zeros((r1 - r0, P.shape[0] - r0))
    scoring._block(M, P, range(r0, P.shape[0]), range(r0, r1), add_to=half.T)
    return half


def test_dense_operand_route_equals_sparse_route(monkeypatch):
    rng = np.random.default_rng(62000)
    n = 60
    P = random_indicator(rng, n, 0.3)
    M = operand_with_empty_rows(rng, n, (0, 7, 30, n - 1))
    whole = (M @ P).toarray()
    # each cell adds several terms, and their order shows in the bits
    assert not np.array_equal((reversed_rows(M) @ P).toarray(), whole)
    blocks = [(0, n), (0, 1), (0, 7), (5, 31), (30, 31), (n - 6, n), (n - 1, n)]
    for workers in (1, 2, 3):
        monkeypatch.setattr(adjacency, "_workers", lambda: workers)
        for width in (1, 2, n):
            monkeypatch.setattr(adjacency, "_PART", width * n)
            for r0, r1 in blocks:
                # a block without entries has no terms, and stays sparse
                dense = route(monkeypatch, M, P, r0, r1, dense=True)
                assert dense == (M.indptr[r1] > M.indptr[r0])
                assert not route(monkeypatch, M, P, r0, r1, dense=False)
                got = scoring._block(M, P, range(r0, r1), range(r0, n), dense=True)
                ref = scoring._block(M, P, range(r0, r1), range(r0, n), dense=False)
                assert np.array_equal(got, ref), (workers, width, r0, r1)
                assert np.array_equal(got, whole[r0:r1, r0:]), (workers, width, r0, r1)
                # the transposed half, always on the sparse route
                half = transposed_half(M, P, r0, r1)
                assert np.array_equal(half, whole.T[r0:r1, r0:]), (workers, width, r0, r1)


def test_dense_operand_route_needs_sorted_operand_and_indicator(monkeypatch):
    rng = np.random.default_rng(63000)
    n = 60
    P = random_indicator(rng, n, 0.3)
    M = operand_with_empty_rows(rng, n, (3,))
    # the sparse product adds each cell's terms in the operand's stored
    # order, here descending
    unsorted = reversed_rows(M)
    ref = (unsorted @ P).toarray()
    assert not np.array_equal(ref, (M @ P).toarray())
    weighted = P.copy()
    weighted.data = rng.random(P.nnz) + 0.5
    for r0, r1 in ((0, n), (0, 9), (20, n)):
        dense = route(monkeypatch, unsorted, P, r0, r1, dense=True)
        got = scoring._block(unsorted, P, range(r0, r1), range(r0, n), dense)
        assert not dense and np.array_equal(got, ref[r0:r1, r0:])
        # the transposed half adds the terms in the operand's order too
        half = transposed_half(unsorted, P, r0, r1)
        assert np.array_equal(half, ref.T[r0:r1, r0:])
        # a right factor that is not all ones
        dense = route(monkeypatch, M, weighted, r0, r1, dense=True)
        got = scoring._block(M, weighted, range(r0, r1), range(r0, n), dense)
        assert not dense and np.array_equal(got, (M @ weighted).toarray()[r0:r1, r0:])


def test_dense_route_counts_no_term_of_a_non_canonical_operand(monkeypatch):
    """An operand not in canonical form, as RA's ``P @ diags(1/w)`` comes
    out of SciPy's product, or a right factor that is not all ones, never
    takes the dense-operand route, and its terms are never counted: no
    row's column indices are read."""
    rng = np.random.default_rng(68000)
    n = 60
    P = random_indicator(rng, n, 0.3)
    M = operand_with_empty_rows(rng, n, (3,))
    weighted = P.copy()
    weighted.data = rng.random(P.nnz) + 0.5
    L = P @ sp.diags(rng.random(n) + 0.5)
    assert not L.has_canonical_format
    counted = []
    column_counts = scoring._column_counts
    monkeypatch.setattr(
        scoring, "_column_counts", lambda *a: counted.append(1) or column_counts(*a)
    )
    monkeypatch.setattr(scoring, "_DENSE_RATIO", 10**12)
    for X, Y in ((reversed_rows(M), P), (L, P), (M, weighted)):
        for rows, cols in ((range(n), range(n)), (range(5, 9), rng.permutation(n)[:7])):
            assert not scoring._dense_route(X, Y, rows, cols)
    assert counted == []
    assert scoring._dense_route(M, P, range(n), range(n)) and counted


def test_sparse_transposed_half_of_tlpss_equals_whole_matrix(monkeypatch):
    """On the sparse route, the transposed half of TLPSS's operand, which
    is not symmetric, has the whole product's bits in a block below the
    first row, and so does the block's score."""
    monkeypatch.setattr(scoring, "_DENSE_RATIO", 0)
    params = DecayParams(p=3.0, q=1.0)
    A, D = stack(hub_graph(), params)
    n, P = A.n, A.indicator_csr
    full = score_matrix(A, D, MethodId.TLPSS, range(n), range(n))
    ((_, M),) = A.operands.values()
    assert (M != M.T).nnz > 0
    whole = scoring._block(M, P, range(n), range(n))
    assert np.array_equal(whole, (M @ P).toarray())
    assert not np.array_equal(whole, whole.T)
    for r0, r1 in ((1, 2), (97, 350), (350, n)):
        assert np.array_equal(transposed_half(M, P, r0, r1), whole.T[r0:r1, r0:])
        block = score_matrix(A, D, MethodId.TLPSS, range(r0, r1), range(r0, n))
        assert np.array_equal(block, full[r0:r1, r0:]), (r0, r1)
    A.operands.clear()


def test_scoring_routes_give_the_same_matrices(monkeypatch):
    params = DecayParams(p=3.0, q=1.0)
    A, D = stack(hub_graph(), params)
    dense_rows = scoring._dense_rows
    results = []
    for ratio in (0, 10**12):
        monkeypatch.setattr(scoring, "_DENSE_RATIO", ratio)
        calls = []
        monkeypatch.setattr(
            scoring, "_dense_rows", lambda *a: calls.append(1) or dense_rows(*a)
        )
        got = []
        for method, mode in SCORINGS:
            for r0, r1 in ((0, A.n), (0, 1), (0, 250), (250, A.n)):
                got.append(score_matrix(A, D, method, range(r0, r1), range(r0, A.n), mode))
            A.operands.clear()
        assert bool(calls) == bool(ratio)
        results.append(got)
    assert all(np.array_equal(a, b) for a, b in zip(*results))


def check_pairs_and_index_blocks(toy, params, rng):
    """Every scoring's ``score_pairs`` of every pair, and blocks of random
    node indices, equal the whole matrix bit for bit, and every score is
    within its bound."""
    A, D = stack(toy, params)
    n = A.n
    ii, jj = np.triu_indices(n, k=1)
    keys = ii * n + jj
    for method, mode in SCORINGS:
        full = score_matrix(A, D, method, range(n), range(n), mode)
        A.operands.clear()
        assert np.array_equal(full, full.T), (method, mode)
        got = score_pairs(A, D, method, keys, mode)
        assert np.array_equal(got, full[ii, jj]), (method, mode)
        # in draw order, with repeats and both orientations
        pick = rng.integers(0, len(keys), size=min(len(keys), 50))
        flipped = jj[pick] * n + ii[pick]
        got = score_pairs(A, D, method, flipped, mode)
        assert np.array_equal(got, full[ii[pick], jj[pick]]), (method, mode)
        rows = rng.permutation(n)[: rng.integers(1, n + 1)]
        cols = rng.permutation(n)[: rng.integers(1, n + 1)]
        block = score_matrix(A, D, method, rows, cols, mode)
        assert np.array_equal(block, full[np.ix_(rows, cols)]), (method, mode)
        # with repeats in the rows and the columns: every cell of one node
        # is 0
        rows, cols = rng.integers(0, n, size=(2, n + 3))
        block = score_matrix(A, D, method, rows, cols, mode)
        assert np.array_equal(block, full[np.ix_(rows, cols)]), (method, mode)
        beta = score_bound(A, D, method, mode)
        A.operands.clear()
        assert beta.shape == (n,)
        limit = np.minimum(beta[:, None], beta[None, :])
        assert np.all(full <= limit * (1 + 1e-12)), (method, mode)


def test_score_pairs_and_index_blocks_equal_whole_matrix_on_random_toys():
    rng = np.random.default_rng(64000)
    for trial in range(40):
        toy = random_toy(seed=64000 + trial, max_nodes=60, min_nodes=4)
        params = random_decay(seed=65000 + trial, allow_exp=False)
        if trial % 2:
            params = ExpDecayParams(theta=0.1 + 0.8 * (trial % 7) / 7)
        check_pairs_and_index_blocks(toy, params, rng)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_score_pairs_and_index_blocks_equal_whole_matrix_on_hub_graph(monkeypatch, workers):
    monkeypatch.setattr(adjacency, "_workers", lambda: workers)
    # several parts of looked-up terms per product
    monkeypatch.setattr(adjacency, "_PART", 5_000)
    check_pairs_and_index_blocks(
        hub_graph(), DecayParams(p=3.0, q=1.0), np.random.default_rng(66000 + workers)
    )


def test_score_pairs_adds_terms_in_the_operand_row_order():
    """On an operand whose rows are stored in descending column order, as
    RA's and CCLP's are, a pair's sum follows that order, as the block
    product's does, and not the ascending one."""
    rng = np.random.default_rng(67000)
    n = 60
    P = random_indicator(rng, n, 0.3)
    M = reversed_rows(operand_with_empty_rows(rng, n, (3,)))
    whole = (M @ P).toarray()
    assert not np.array_equal(whole, (M.sorted_indices() @ P).toarray())
    ii, jj = np.nonzero(np.ones((n, n), dtype=bool))
    assert np.array_equal(scoring._pair_product(M, P, ii, jj), whole[ii, jj])
    rows, cols = rng.permutation(n), rng.permutation(n)[:20]
    assert np.array_equal(scoring._block(M, P, rows, cols), whole[np.ix_(rows, cols)])


def test_transposed_half_takes_the_sparse_route(monkeypatch):
    """TLPSS's block (0, 10) on the hub graph goes dense with the cut high
    enough; its leading square adds its own transpose, and the columns past
    it get their transposed half on the sparse route whatever the cut, so
    the dense route only writes.  The block keeps the whole matrix's
    bits."""
    params = DecayParams(p=3.0, q=1.0)
    A, D = stack(hub_graph(), params)
    full = score_matrix(A, D, MethodId.TLPSS, range(A.n), range(A.n))
    A.operands.clear()
    monkeypatch.setattr(scoring, "_DENSE_RATIO", 10**12)
    routes = []
    for name in ("_dense_rows", "_sparse_rows"):
        kernel = getattr(scoring, name)

        def recorded(*args, name=name, kernel=kernel):
            # _sparse_rows(..., out, add, part): whether the part adds
            routes.append((name, args[-2] if name == "_sparse_rows" else None))
            return kernel(*args)

        monkeypatch.setattr(scoring, name, recorded)
    block = score_matrix(A, D, MethodId.TLPSS, range(0, 10), range(0, A.n))
    A.operands.clear()
    assert set(routes) == {("_dense_rows", None), ("_sparse_rows", True)}
    assert np.array_equal(block, full[0:10, 0:])


@pytest.mark.parametrize(
    "method", [MethodId.TLPSS, MethodId.CN_ASF, MethodId.JA_ASF, MethodId.CAR_ASF]
)
def test_walk_block_adds_one_swapped_product_past_its_square(monkeypatch, method):
    """In a walk, of node arrays or, where the bound order is the node
    order (JA), of ranges, every symmetric block's columns begin with its
    rows.  The route is counted once per block, for the forward product; a
    non-square block's swapped product takes exactly the columns past its
    rows, on the sparse route, and a square block takes none, nor does the
    first block, one row, whose half is one pass over the operand."""
    monkeypatch.setattr(evaluation, "_BLOCK_CELLS", 30_000)
    A, D = stack(hub_graph(), DecayParams(p=3.0, q=1.0))
    blocks = []
    symmetric, block, dense_route = scoring._Block.symmetric, scoring._block, scoring._dense_route

    def spied_symmetric(self, M):
        blocks.append((self.rows, self.cols, [], []))
        return symmetric(self, M)

    def spied_block(M, Y, rows, cols, dense=False, add_to=None):
        if add_to is not None:
            blocks[-1][2].append((rows, cols, dense))
        return block(M, Y, rows, cols, dense, add_to)

    def spied_route(M, P, rows, cols):
        blocks[-1][3].append((rows, cols))
        return dense_route(M, P, rows, cols)

    monkeypatch.setattr(scoring._Block, "symmetric", spied_symmetric)
    monkeypatch.setattr(scoring, "_block", spied_block)
    monkeypatch.setattr(scoring, "_dense_route", spied_route)
    evaluation._method_top(
        A, D, method, cclp_mode="local", top_l=100,
        auc_keys=np.empty(0, dtype=np.int64), train_keys=A.layout.keys,
    )
    A.operands.clear()
    assert len(blocks[0][0]) == 1
    assert any(1 < len(rows) < len(cols) for rows, cols, _, _ in blocks)
    for rows, cols, halves, routes in blocks:
        h = len(rows)
        assert np.array_equal(cols[:h], rows)
        ((route_rows, route_cols),) = routes
        assert route_rows is rows and route_cols is cols
        if h == len(cols) or h == 1:
            assert halves == []
        else:
            ((half_rows, half_cols, dense),) = halves
            assert np.array_equal(half_rows, cols[h:]) and len(half_rows) == len(cols) - h
            assert half_cols is rows and not dense
