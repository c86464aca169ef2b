"""Tests for the decayed adjacency and the latent-edge machinery."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from tlpss import adjacency
from tlpss.adjacency import (
    LatentPlan,
    PairLayout,
    WeightedAdjacency,
    build_adjacency,
    degree_vector,
    latent_matrix,
    pair_layout,
)
from tlpss.decay import DecayParams, ExpDecayParams, asf_floor, decay_floor
from tlpss.edges import SnapshotConfig, normalize, snapshot_index
from tlpss.oracle import ToyGraph, naive_hidden, naive_latent, random_decay, random_toy

from conftest import adjacency_of, edge_list, hub_graph

PARAMS = DecayParams(p=2.0, q=1.0, a=5.0)


def production_stack(toy, params):
    """Normalized list, adjacency at the latest edge time, and degree vector."""
    lst = normalize(edge_list(toy.edges, toy.n))
    cfg = SnapshotConfig(period=toy.period)
    T = snapshot_index(lst.t_max, cfg)
    A = build_adjacency(lst, T, params, cfg, pair_layout(lst))
    return lst, A, degree_vector(A)


def fig_toy(ts=10):
    """Eight-node schematic around a target pair (0, 1): common neighbors
    2-4, node 5 hidden for endpoint 0, nodes 6-7 hidden for endpoint 1."""
    pairs = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
             (1, 5), (0, 6), (0, 7), (5, 6), (5, 7)]
    return ToyGraph(n=8, edges=[(u, v, ts) for u, v in pairs])


def weight(A, i, j):
    """A(i, j); 0.0 for unlinked pairs."""
    return float(A.weight_csr[i, j])


def mult_csr(A):
    """Multiplicities as a CSR with the adjacency's sparsity pattern."""
    W = A.weight_csr
    return sp.csr_matrix((A.mult, W.indices, W.indptr), shape=W.shape)


def pairs(A):
    """Canonical (i < j) pair -> weight."""
    upper = sp.triu(A.weight_csr, k=1).tocoo()
    return {(int(i), int(j)): float(w) for i, j, w in zip(upper.row, upper.col, upper.data)}


def common_counts(A):
    """Dense number of common neighbors of every pair."""
    P = A.indicator_csr
    return (P @ P).toarray()


def hidden_from_latent(A, B, x, y):
    """Hidden nodes of x for the pair (x, y) read off the production
    structures: neighbors h of y with a latent edge (x, h).  Valid when the
    decay floor is positive, so every distance-two pair has a latent edge."""
    return {int(h) for h in A.weight_csr[y].indices if h != x and B[x, h] > 0}


class TestBuildAdjacency:
    def test_single_edge_at_reference(self):
        lst = normalize(edge_list([(0, 1, 5)], 2))
        cfg = SnapshotConfig(period=1.0)
        A = build_adjacency(lst, snapshot_index(lst.t_max, cfg), PARAMS, cfg, pair_layout(lst))
        # zero elapsed: weight is the decay value at x=0
        expect = (1 / (1 + math.exp(-PARAMS.a)) + PARAMS.q) / (PARAMS.q + 1)
        assert weight(A, 0, 1) == pytest.approx(expect, rel=1e-14)

    def test_multi_edges_sum(self):
        lst = normalize(
            edge_list([(3, 1, 50), (1, 3, 60)], 4)
        )
        cfg = SnapshotConfig(period=2.5)
        A = build_adjacency(lst, snapshot_index(lst.t_max, cfg), PARAMS, cfg, pair_layout(lst))

        def direct(x):
            return (1 / (1 + math.exp(x / 2.0 - 5.0)) + 1.0) / 2.0

        # elapsed 4 and 0 snapshots; evaluated independently and added
        assert weight(A, 1, 3) == pytest.approx(direct(4.0) + direct(0.0), rel=1e-12)
        M = mult_csr(A)
        assert M[1, 3] == 2 and M[3, 1] == 2

    def test_weight_bounds_single_edges(self):
        toy = random_toy(3, max_nodes=25, dup_rate=0.0)
        _, A, _ = production_stack(toy, DecayParams(p=1.5, q=1.0))
        M = mult_csr(A)
        for (i, j), w in pairs(A).items():
            m = M[i, j]
            assert w > 0.5 * m  # every edge stays above the floor
            assert w <= m * 0.9966535745378576 * (1 + 1e-12)

    def test_edge_later_than_reference_rejected(self):
        lst = normalize(edge_list([(0, 1, 5), (1, 2, 9)], 3))
        cfg = SnapshotConfig(period=1.0)
        with pytest.raises(ValueError):
            build_adjacency(lst, snapshot_index(lst.t_min, cfg), PARAMS, cfg, pair_layout(lst))

    def test_symmetry_no_diagonal_no_zeros(self):
        for seed in range(5):
            toy = random_toy(seed, max_nodes=30)
            _, A, _ = production_stack(toy, random_decay(seed + 50))
            W = A.weight_csr
            assert W.has_sorted_indices
            assert np.all(W.diagonal() == 0)
            assert np.all(W.data > 0) and np.all(np.isfinite(W.data))
            assert np.array_equal(W.toarray(), W.toarray().T)
            assert np.array_equal(mult_csr(A).toarray(), mult_csr(A).toarray().T)
            assert len(A) == len(pairs(A)) == W.nnz // 2

    def test_latest_mode_keeps_newest_edge_only(self):
        lst = normalize(
            edge_list([(0, 1, 2), (0, 1, 10)], 2)
        )
        cfg = SnapshotConfig(period=1.0)
        T = snapshot_index(lst.t_max, cfg)
        summed = build_adjacency(lst, T, PARAMS, cfg, pair_layout(lst), agg="sum")
        latest = build_adjacency(lst, T, PARAMS, cfg, pair_layout(lst), agg="latest")
        newest = (1 / (1 + math.exp(-5.0)) + 1) / 2
        assert weight(latest, 0, 1) == pytest.approx(newest, rel=1e-14)
        assert weight(summed, 0, 1) > weight(latest, 0, 1)
        assert mult_csr(latest)[0, 1] == 2  # multiplicity still counts all edges

    def test_exp_decay_mode(self):
        lst = normalize(edge_list([(0, 1, 1), (1, 2, 5)], 3))
        cfg = SnapshotConfig(period=1.0)
        A = build_adjacency(
            lst, snapshot_index(lst.t_max, cfg), ExpDecayParams(0.5), cfg, pair_layout(lst)
        )
        assert weight(A, 0, 1) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert weight(A, 1, 2) == 1.0

    def test_shared_layout_gives_same_adjacency(self):
        for trial in range(40):
            toy = random_toy(seed=61000 + trial, max_nodes=30)
            lst = normalize(edge_list(toy.edges, toy.n))
            cfg = SnapshotConfig(period=toy.period)
            T = snapshot_index(lst.t_max, cfg)
            layout = pair_layout(lst)
            for q in (0.0, 1.0, 4.0):
                params = DecayParams(p=2.0, q=q)
                for agg in ("sum", "latest"):
                    shared = build_adjacency(lst, T, params, cfg, layout, agg)
                    fresh = build_adjacency(lst, T, params, cfg, pair_layout(lst), agg)
                    assert shared.params is fresh.params is params
                    for name in ("data", "indices", "indptr"):
                        assert np.array_equal(
                            getattr(shared.weight_csr, name), getattr(fresh.weight_csr, name)
                        )
                    assert np.array_equal(shared.mult, fresh.mult)
        with pytest.raises(ValueError, match="another train list"):
            build_adjacency(lst[1:], T, params, cfg, layout)

    def test_layout_not_made_from_a_train_list_rejected(self):
        """A layout made from pairs has no train edge's pair to sum, so
        ``build_adjacency`` rejects it as it does another list's layout."""
        lst = normalize(edge_list([(0, 1, 5), (1, 2, 9)], 3))
        cfg = SnapshotConfig(period=1.0)
        one = np.ones(2, dtype=np.int64)
        layout = PairLayout(3, np.array([0, 1]), np.array([1, 2]), one)
        with pytest.raises(ValueError, match="another train list"):
            build_adjacency(lst, snapshot_index(lst.t_max, cfg), PARAMS, cfg, layout)

    def test_constructors_reject_bad_pairs_and_weights(self):
        A = adjacency_of(3, {(0, 1): 0.5}, {(0, 1): 4})
        assert weight(A, 0, 1) == weight(A, 1, 0) == 0.5
        assert mult_csr(A)[1, 0] == 4
        one = np.ones(1, dtype=np.int64)
        for lo, hi in ((1, 1), (0, 3), (-1, 1), (2, 1)):
            with pytest.raises(ValueError):
                PairLayout(3, np.array([lo]), np.array([hi]), one)
        layout = PairLayout(3, np.array([0]), np.array([1]), one)
        for bad in (0.0, float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError):
                WeightedAdjacency(layout, np.array([bad]), PARAMS)


class TestDegreeVector:
    def test_isolated_node(self):
        A = adjacency_of(3, {(0, 1): 0.8})
        D = degree_vector(A)
        assert D.w[2] == 0.0
        assert D.d[2] == 0

    def test_star_center(self):
        A = adjacency_of(4, {(0, 1): 0.9, (0, 2): 0.8, (0, 3): 0.7})
        D = degree_vector(A)
        assert D.w[0] == pytest.approx(2.4, rel=1e-15)
        assert D.d[0] == 3

    def test_handshake_identity(self):
        for seed in range(8):
            toy = random_toy(seed, max_nodes=30)
            _, A, D = production_stack(toy, PARAMS)
            assert D.w.sum() == pytest.approx(2 * sum(pairs(A).values()), rel=1e-12)
            assert np.all((D.w > 0) == (D.d > 0))


class TestNeighborhoodSets:
    def test_common_neighbors_schematic(self):
        _, A, _ = production_stack(fig_toy(), PARAMS)
        P = A.indicator_csr
        assert list(P[0].multiply(P[1]).tocsr().indices) == [2, 3, 4]
        assert common_counts(A)[0, 1] == 3

    def test_disjoint_neighborhoods(self):
        A = adjacency_of(4, {(0, 1): 1.0, (2, 3): 1.0})
        assert common_counts(A)[0, 2] == 0

    def test_symmetric(self):
        toy = random_toy(11, max_nodes=20, min_nodes=12)
        _, A, _ = production_stack(toy, PARAMS)
        C = common_counts(A)
        assert np.array_equal(C, C.T)

    def test_hidden_nodes_schematic(self):
        toy = fig_toy()
        _, A, _ = production_stack(toy, PARAMS)
        B = latent_matrix(A)
        assert naive_hidden(toy, PARAMS, 0, 1) == hidden_from_latent(A, B, 0, 1) == {5}
        assert naive_hidden(toy, PARAMS, 1, 0) == hidden_from_latent(A, B, 1, 0) == {6, 7}

    def test_hidden_empty_when_no_extra_neighbors(self):
        # pure butterfly: all of y's neighbors are shared with x
        butterfly = [(0, 2), (0, 3), (1, 2), (1, 3)]
        A = adjacency_of(4, {pair: 1.0 for pair in butterfly})
        assert hidden_from_latent(A, latent_matrix(A), 0, 1) == set()
        toy = ToyGraph(n=4, edges=[(u, v, 1) for u, v in butterfly])
        assert naive_hidden(toy, PARAMS, 0, 1) == set()

    def test_hidden_disjoint_from_own_neighborhood(self):
        for seed in range(10):
            toy = random_toy(seed, max_nodes=20)
            _, A, _ = production_stack(toy, PARAMS)
            B = latent_matrix(A)
            W = A.weight_csr
            rng = np.random.default_rng(seed)
            for _ in range(10):
                x, y = (int(v) for v in rng.integers(0, toy.n, 2))
                if x == y:
                    continue
                hs = naive_hidden(toy, PARAMS, x, y)
                assert hs == hidden_from_latent(A, B, x, y)
                assert not (hs & set(W[x].indices.tolist()))
                assert hs <= set(W[y].indices.tolist())
                assert x not in hs and y not in hs


class TestLatentWeight:
    def test_zero_without_common_neighbors(self):
        A = adjacency_of(4, {(0, 1): 1.0, (2, 3): 1.0})
        B = latent_matrix(A)
        assert B[0, 2] == 0.0 and B.nnz == 0

    def test_zero_when_floor_is_zero(self):
        toy = random_toy(4, max_nodes=15)
        params = DecayParams(p=2.0, q=0.0)
        _, A, _ = production_stack(toy, params)
        B = latent_matrix(A).toarray()
        for i in range(toy.n):
            for j in range(i + 1, toy.n):
                if weight(A, i, j) == 0.0:
                    assert B[i, j] == 0.0
                    assert naive_latent(toy, params, i, j) == 0.0

    def test_adjacent_pair_rejected(self):
        """Latent edges exist only between distinct non-adjacent nodes: the
        oracle rejects the query and the matrix holds no such cell."""
        toy = fig_toy()
        _, A, _ = production_stack(toy, PARAMS)
        with pytest.raises(ValueError):
            naive_latent(toy, PARAMS, 0, 2)
        B = latent_matrix(A).toarray()
        assert B[0, 2] == 0.0
        assert np.all(B[A.indicator_csr.toarray() > 0] == 0.0)
        assert np.all(np.diag(B) == 0.0)

    def test_strict_bound_below_floor(self):
        checked = 0
        for seed in range(30):
            toy = random_toy(seed, max_nodes=20)
            params = DecayParams(
                p=float(np.random.default_rng(seed).uniform(0.5, 8)),
                q=float(np.random.default_rng(seed + 1).uniform(0.1, 10)),
            )
            _, A, _ = production_stack(toy, params)
            floor = asf_floor(params)
            B = latent_matrix(A).toarray()
            C = common_counts(A)
            for i in range(toy.n):
                for j in range(i + 1, toy.n):
                    if weight(A, i, j) != 0.0:
                        continue
                    b = B[i, j]
                    if C[i, j] == 0:
                        assert b == 0.0
                        continue
                    checked += 1
                    assert 0.0 < b < floor
                    assert 0.0 < b / floor < 1.0  # the scale factor itself
        assert checked > 200

    def test_matches_oracle(self):
        for seed in range(15):
            toy = random_toy(seed, max_nodes=18)
            params = random_decay(seed + 90)
            _, A, _ = production_stack(toy, params)
            B = latent_matrix(A).toarray()
            for i in range(toy.n):
                for j in range(i + 1, toy.n):
                    if weight(A, i, j) != 0.0:
                        continue
                    ref = naive_latent(toy, params, i, j)
                    assert B[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-15)


class TestLatentCache:
    """The latent matrix as the materialized store of every latent cell."""

    def test_adjacent_query_rejected(self):
        toy = random_toy(21, max_nodes=10, min_nodes=10)
        _, A, _ = production_stack(toy, PARAMS)
        B = latent_matrix(A)
        adjacent = pairs(A)
        assert adjacent
        for i, j in adjacent:
            assert B[i, j] == 0.0 and B[j, i] == 0.0
            with pytest.raises(ValueError):
                naive_latent(toy, PARAMS, i, j)

    def test_materialize_all_matches_brute_force(self):
        toy = random_toy(21, max_nodes=10, min_nodes=10)
        _, A, _ = production_stack(toy, PARAMS)
        B = latent_matrix(A).toarray()
        for i in range(10):
            for j in range(i + 1, 10):
                if weight(A, i, j) == 0.0:
                    ref = naive_latent(toy, PARAMS, i, j)
                    assert B[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-15)


class TestLatentMatrix:
    def test_bulk_equals_per_pair(self):
        """Every cell of the bulk matrix equals the oracle's per-pair latent
        weight, including the zero cells on adjacent pairs and the diagonal."""
        for seed in range(10):
            toy = random_toy(seed + 40, max_nodes=22)
            params = random_decay(seed + 140)
            _, A, _ = production_stack(toy, params)
            B = latent_matrix(A).toarray()
            assert np.allclose(B, B.T)
            for i in range(toy.n):
                for j in range(toy.n):
                    if i == j:
                        assert B[i, j] == 0.0
                    elif weight(A, i, j) != 0.0:
                        assert B[i, j] == 0.0
                    else:
                        ref = naive_latent(toy, params, i, j)
                        assert B[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_rows_without_latent_cells(self, monkeypatch):
        # every two-hop pair of a clique is linked, so a triangle has no cell
        triangle = {(0, 1): 0.8, (1, 2): 0.7, (0, 2): 0.6}
        A = adjacency_of(3, triangle)
        assert latent_matrix(A).nnz == 0
        A = adjacency_of(6, {**triangle, (3, 4): 0.9, (4, 5): 0.5})
        whole = latent_matrix(A)
        monkeypatch.setattr(adjacency, "_PART", 1)  # one set per row
        by_row = latent_matrix(A)
        assert whole.nnz == by_row.nnz == 2
        assert np.array_equal(whole.toarray(), by_row.toarray())

    @pytest.mark.parametrize("keep_plan", [True, False])
    def test_no_pairs_and_rows_without_two_hop_terms(self, monkeypatch, keep_plan):
        def latent(n, pairs, weights):
            lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            layout = PairLayout(n, lo, hi, np.ones(len(lo), np.int64), keep_plan=keep_plan)
            return latent_matrix(WeightedAdjacency(layout, np.array(weights), PARAMS))

        assert latent(5, [], []).nnz == 0
        # single links: each centre has one neighbor, so no row has a term
        assert latent(6, [(0, 1), (2, 3), (4, 5)], [0.8, 0.7, 0.6]).nnz == 0
        # rows 0-3 and 7 have no term, rows 4 and 6 one latent cell each
        pairs, weights = [(0, 1), (2, 3), (4, 5), (5, 6)], [0.8, 0.7, 0.6, 0.5]
        whole = latent(8, pairs, weights)
        monkeypatch.setattr(adjacency, "_PART", 1)  # one set per row with terms
        by_row = latent(8, pairs, weights)
        for B in (whole, by_row):
            assert B.shape == (8, 8)
            assert sorted(zip(*B.nonzero())) == [(4, 6), (6, 4)]
            assert B[4, 6] == B[6, 4] == pytest.approx(decay_floor(PARAMS) * (0.6 + 0.5) / 2)
        assert np.array_equal(whole.toarray(), by_row.toarray())

    def test_empty_when_floor_zero(self):
        toy = random_toy(5, max_nodes=15)
        params = DecayParams(p=1.0, q=0.0)
        _, A, _ = production_stack(toy, params)
        assert latent_matrix(A).nnz == 0
        assert decay_floor(ExpDecayParams(0.3)) == 0.0


def whole_operand(A, w):
    """TLPSS's operand as it is built whole: ``W + B``, then each entry
    over ``w`` of its column."""
    M = (A.weight_csr + latent_matrix(A)).tocsr()
    M.data /= w[M.indices]
    return M


def assert_same_bits(got, ref):
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.data.dtype == ref.data.dtype and got.data.tobytes() == ref.data.tobytes()


class TestOperand:
    """``latent_matrix(A, w)``, TLPSS's operand ``(W + B)/w`` written from
    the latent pass's row sets, against the whole construction, in every
    entry and bit: toys, the hub graph, many chunks and row sets, kept and
    streamed plans, one and two worker threads, and the decays of floor 0
    (q = 0 and exponential), whose operand is ``W/w``."""

    DECAYS = [
        DecayParams(p=3.0, q=1.0),
        DecayParams(p=3.0, q=0.0),
        DecayParams(p=0.7, q=7.0),
        ExpDecayParams(theta=0.3),
    ]

    def check(self, toy, decays, keep_plan):
        lst = normalize(edge_list(toy.edges, toy.n))
        cfg = SnapshotConfig(period=toy.period)
        T = snapshot_index(lst.t_max, cfg)
        layout = pair_layout(lst, keep_plan)
        for params in decays:
            A = build_adjacency(lst, T, params, cfg, layout)
            w = degree_vector(A).w
            assert_same_bits(latent_matrix(A, w), whole_operand(A, w))
        return lst

    @pytest.mark.parametrize("keep_plan", [True, False], ids=["kept", "streamed"])
    def test_random_toys(self, keep_plan):
        for trial in range(40):
            toy = random_toy(seed=58000 + trial, max_nodes=60)
            self.check(toy, [random_decay(59000 + trial, allow_exp=True)] + self.DECAYS, keep_plan)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("keep_plan", [True, False], ids=["kept", "streamed"])
    @pytest.mark.parametrize("cut", ["whole", "chunks_and_sets"])
    def test_hub_graph(self, monkeypatch, workers, keep_plan, cut):
        monkeypatch.setattr(adjacency, "_workers", lambda: workers)
        if cut == "chunks_and_sets":
            monkeypatch.setattr(adjacency, "_CHUNK", 5_000)
            monkeypatch.setattr(adjacency, "_PART", 256)
        lst = self.check(hub_graph(), self.DECAYS, keep_plan)
        sets = len(LatentPlan(pair_layout(lst, keep_plan)).rows)
        assert sets > 100 if cut == "chunks_and_sets" else sets > 1

    @pytest.mark.parametrize("keep_plan", [True, False], ids=["kept", "streamed"])
    def test_no_pairs_and_rows_without_cells(self, monkeypatch, keep_plan):
        monkeypatch.setattr(adjacency, "_PART", 1)  # one set per row with terms
        for n, pairs in [
            (5, []),
            (6, [(0, 1), (2, 3), (4, 5)]),
            (8, [(0, 1), (2, 3), (4, 5), (5, 6)]),
            (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]),
        ]:
            lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            layout = PairLayout(n, lo, hi, np.ones(len(lo), np.int64), keep_plan=keep_plan)
            A = WeightedAdjacency(layout, np.linspace(0.9, 0.5, len(lo)), PARAMS)
            w = degree_vector(A).w
            assert_same_bits(latent_matrix(A, w), whole_operand(A, w))

    @pytest.mark.parametrize("keep_plan", [True, False], ids=["kept", "streamed"])
    def test_traced_peak_of_a_many_set_operand(self, monkeypatch, keep_plan):
        """Each set's rows go straight into the operand's arrays: no copies
        of the sets are joined and no whole latent matrix is built, which
        took the peak to twice the operand.  One thread, so that finished
        sets are written as they come; a random graph of 1,500 nodes and
        mean degree 32, so that no one row's terms weigh much beside the
        operand's 1.1M entries, and a streamed plan's arrays per link
        (and its bound on the cells, :func:`adjacency._cell_bound`) little."""
        monkeypatch.setattr(adjacency, "_PART", 1024)
        monkeypatch.setattr(adjacency, "_workers", lambda: 1)
        rng = np.random.default_rng(60000)
        edges = rng.integers([0, 0, 1], [1500, 1500, 200], size=(24000, 3))
        lst = normalize(edge_list(edges, 1500))
        cfg = SnapshotConfig(period=5.0)
        layout = pair_layout(lst, keep_plan)
        A = build_adjacency(lst, snapshot_index(lst.t_max, cfg), PARAMS, cfg, layout)
        w = degree_vector(A).w
        if keep_plan:
            assert len(layout.latent_plan.sets) > 100  # built before tracing
        tracemalloc.start()
        try:
            M = latent_matrix(A, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.nnz > 1_000_000
        assert peak < 1.3 * (M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)


class TestNarrow:
    """The one rule by which a kept plan stores its path indices, cell
    indices and run lengths, none of them negative: the first of uint8,
    uint16 and int32 that holds them."""

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([], np.uint8),
            ([0, 255], np.uint8),
            ([0, 65536], np.int32),
            ([3, 70000, 0], np.int32),
            ([0, 256], np.uint16),
            ([1, 65535], np.uint16),
            ([65536], np.int32),
            ([0, 2**31 - 1], np.int32),
        ],
    )
    def test_narrowest_type_that_holds_the_values(self, values, dtype):
        a = np.array(values, dtype=np.int64)
        got = adjacency._narrow(a)
        assert got.dtype == dtype and np.array_equal(got, a)

    @pytest.mark.parametrize("keep_plan", [True, False], ids=["kept", "streamed"])
    def test_types_do_not_change_a_bit(self, monkeypatch, keep_plan):
        """Plans stored in 8- and 16-bit types and in int32 give the same
        bits."""
        monkeypatch.setattr(adjacency, "_PART", 256)
        toy = hub_graph()
        lst = normalize(edge_list(toy.edges, toy.n))
        cfg = SnapshotConfig(period=toy.period)
        T = snapshot_index(lst.t_max, cfg)

        def operand():
            A = build_adjacency(lst, T, PARAMS, cfg, pair_layout(lst, keep_plan))
            return latent_matrix(A, degree_vector(A).w)

        narrow = operand()
        types = {b.dtype for _, _, block in LatentPlan(pair_layout(lst)).sets for b in block[1:]}
        assert types == {np.dtype(np.uint8), np.dtype(np.uint16)}
        monkeypatch.setattr(adjacency, "_narrow", lambda a: a.astype(np.int32))
        assert_same_bits(operand(), narrow)


def wide_row_layout(keep_plan):
    """Node 0 linked to 1,024 nodes Z in 128 groups of 8, each group linked
    to all of 64 nodes of its own: row 0 has 1,024 * 65 = 66,560 two-hop
    paths, more than 2**16, and every other row at most 1,536."""
    groups = np.arange(1024) // 8
    pairs = [(0, z) for z in range(1, 1025)]
    pairs += [(z, 1025 + 64 * g + h) for z, g in zip(range(1, 1025), groups) for h in range(64)]
    lo, hi = np.array(pairs).T
    mult = np.random.default_rng(61000).integers(1, 4, len(lo))
    return PairLayout(1025 + 64 * 128, lo, hi, mult, keep_plan=keep_plan)


class TestPathIndex:
    """A kept term is stored as its path's index among its row set's
    two-hop paths: at most 2 bytes in a set of more than one row, whose
    paths number at most ``_PART``, and int32 only in a row of more."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("keep_plan", [True, False], ids=["kept", "streamed"])
    def test_one_row_set_past_2_16_paths_stores_int32_indices(
        self, monkeypatch, workers, keep_plan
    ):
        monkeypatch.setattr(adjacency, "_workers", lambda: workers)
        layout = wide_row_layout(keep_plan)
        weight = np.random.default_rng(61001).uniform(0.5, 3.0, len(layout.keys))
        A = WeightedAdjacency(layout, weight, PARAMS)
        w = degree_vector(A).w
        assert_same_bits(latent_matrix(A, w), whole_operand(A, w))
        if keep_plan:
            plan = layout.latent_plan
            path = plan.sets[0][2][1]
            assert plan.rows[0] == range(0, 1)
            assert path.dtype == np.int32 and path.max() >= 2**16
            assert all(block[1].itemsize <= 2 for _, _, block in plan.sets[1:])

    def test_multi_row_sets_hold_two_bytes_a_kept_term(self):
        toy = hub_graph()
        lst = normalize(edge_list(toy.edges, toy.n))
        layout = pair_layout(lst)
        plan, ptr = LatentPlan(layout), layout.indptr
        sets = zip(plan.rows, plan.sets)
        multi = [(rows, block) for rows, (_, _, block) in sets if len(rows) > 1]
        assert len(multi) > 5
        for rows, (sel, path, cells, runs) in multi:
            # one int32 per link (x, z) with a centre, one path index per
            # kept term, and one cell index and length per run
            assert sel.dtype == np.int32
            assert len(sel) <= ptr[rows.stop] - ptr[rows.start]
            assert path.dtype in (np.uint8, np.uint16) and len(path) == runs.sum()
            assert len(cells) == len(runs) and runs.min() >= 1


class TestParts:
    """``adjacency.parts``, the one rule by which work is cut into the
    tasks of ``pool_map``."""

    def cut(self, monkeypatch, costs, part):
        """The runs of items of ``costs`` for ``_PART = part``, as (start,
        stop), checked to cover the items once, in order, each as long as
        fits."""
        monkeypatch.setattr(adjacency, "_PART", part)
        costs = np.asarray(costs, dtype=np.int64)
        runs = adjacency.parts(np.r_[0, np.cumsum(costs)])
        assert all(isinstance(r, range) and r.step == 1 for r in runs)
        assert [r.start for r in runs] == [0] + [r.stop for r in runs[:-1]]
        assert runs[-1].stop == len(costs)
        for r in runs:
            assert costs[r.start : r.stop].sum() <= part or len(r) == 1
            assert r.stop == len(costs) or costs[r.start : r.stop + 1].sum() > part
        return [(r.start, r.stop) for r in runs]

    def test_no_items_make_one_empty_run(self, monkeypatch):
        assert self.cut(monkeypatch, [], 10) == [(0, 0)]

    def test_zero_cost_items_join_a_run(self, monkeypatch):
        assert self.cut(monkeypatch, [0] * 5, 10) == [(0, 5)]
        assert self.cut(monkeypatch, [0, 4, 0, 6, 0, 1, 0], 10) == [(0, 5), (5, 7)]

    def test_item_above_the_part_is_a_run_of_its_own(self, monkeypatch):
        assert self.cut(monkeypatch, [25], 10) == [(0, 1)]
        assert self.cut(monkeypatch, [3, 25, 4, 4, 4], 10) == [(0, 1), (1, 2), (2, 4), (4, 5)]

    def test_random_costs(self, monkeypatch):
        rng = np.random.default_rng(69000)
        for trial in range(200):
            costs = rng.integers(0, 30, rng.integers(0, 60))
            costs[rng.random(len(costs)) < 0.3] = 0
            self.cut(monkeypatch, costs, int(rng.integers(1, 80)))


class TestFloorScaling:
    def test_latent_cells_scale_linearly_with_floor(self):
        """Holding the adjacency and multiplicities fixed, a latent cell is
        the floor times a fixed scale factor, so cells at two q values are
        proportional to the two floors."""
        weights = {(0, 2): 0.8, (1, 2): 0.7, (0, 3): 0.6, (1, 3): 0.9}
        lo = DecayParams(p=1.0, q=0.5)
        hi = DecayParams(p=1.0, q=2.0)
        b_lo = latent_matrix(adjacency_of(4, weights, params=lo))[0, 1]
        b_hi = latent_matrix(adjacency_of(4, weights, params=hi))[0, 1]
        assert b_lo > 0
        assert b_hi * asf_floor(lo) == pytest.approx(b_lo * asf_floor(hi), rel=1e-14)
