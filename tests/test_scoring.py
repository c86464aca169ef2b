"""Tests for the TLPSS score and the six baseline indices."""

import numpy as np
import pytest

from tlpss import scoring
from tlpss.adjacency import build_adjacency, degree_vector, pair_layout
from tlpss.decay import DecayParams, asf_floor
from tlpss.edges import SnapshotConfig, normalize, snapshot_index
from tlpss.errors import ConfigError
from tlpss.oracle import ToyGraph, naive_hidden, naive_score, random_decay, random_toy
from tlpss.scoring import ALL_METHODS, MethodId, score_matrix

from conftest import adjacency_of, edge_list

PARAMS = DecayParams(p=2.0, q=1.0, a=5.0)


def production_stack(toy, params):
    lst = normalize(edge_list(toy.edges, toy.n))
    cfg = SnapshotConfig(period=toy.period)
    T = snapshot_index(lst.t_max, cfg)
    A = build_adjacency(lst, T, params, cfg, pair_layout(lst))
    return lst, A, degree_vector(A)


def toy_scores(toy, params, method, cclp_mode="local"):
    """Score matrix of one method on a toy graph."""
    _, A, D = production_stack(toy, params)
    return score_matrix(A, D, method, range(A.n), range(A.n), cclp_mode)


def scores(A, method, cclp_mode="local"):
    """Score matrix of one method on a given adjacency."""
    return score_matrix(A, degree_vector(A), method, range(A.n), range(A.n), cclp_mode)


def fig_toy(ts=10):
    pairs = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
             (1, 5), (0, 6), (0, 7), (5, 6), (5, 7)]
    return ToyGraph(n=8, edges=[(u, v, ts) for u, v in pairs])


def sample_pairs(rng, n, k):
    pairs = set()
    while len(pairs) < k:
        i, j = rng.integers(0, n, 2)
        if i != j:
            pairs.add((min(int(i), int(j)), max(int(i), int(j))))
    return sorted(pairs)


class TestTlpss:
    @pytest.mark.parametrize("q", [0.0, 1.0, 4.0])
    def test_schematic_value(self, q):
        """On the eight-node schematic with uniform timestamps every decayed
        weight cancels: the score is 1.5 plus floor * 13/36, derived by hand
        from the definitions (common-neighbor part 3/2; latent parts 2/9 and
        1/2 of the floor on the two sides)."""
        params = DecayParams(p=1.0, q=q)
        m = toy_scores(fig_toy(), params, MethodId.TLPSS)
        expect = 1.5 + asf_floor(params) * 13.0 / 36.0
        assert m[0, 1] == pytest.approx(expect, rel=1e-13)

    def test_zero_without_structure(self):
        A = adjacency_of(4, {(0, 1): 1.0, (2, 3): 1.0})
        assert scores(A, MethodId.TLPSS)[0, 2] == 0.0

    def test_self_pair_rejected(self):
        """A node is never its own candidate: every method's diagonal is 0."""
        for method in ALL_METHODS:
            m = toy_scores(fig_toy(), PARAMS, method)
            assert np.all(np.diag(m) == 0.0), method

    def test_q_zero_reduces_to_two_sided_ra_exactly(self):
        """With the floor off, TLPSS must equal the plain two-sided
        common-neighbor expression bit for bit."""
        for seed in range(25):
            toy = random_toy(seed, max_nodes=25)
            params = DecayParams(p=float(np.random.default_rng(seed).uniform(0.5, 8)), q=0.0)
            _, A, D = production_stack(toy, params)
            m = score_matrix(A, D, MethodId.TLPSS, range(A.n), range(A.n))
            W = A.weight_csr
            rng = np.random.default_rng(seed + 7)
            for x, y in sample_pairs(rng, toy.n, 8):
                cn = np.intersect1d(W[x].indices, W[y].indices)
                reduced_x = sum(W[x, int(z)] / D.w[int(z)] for z in cn)
                reduced_y = sum(W[y, int(z)] / D.w[int(z)] for z in cn)
                assert m[x, y] == 0.5 * (reduced_x + reduced_y)

    def test_positive_iff_cn_or_hidden(self):
        for seed in range(10):
            toy = random_toy(seed + 60, max_nodes=20)
            _, A, D = production_stack(toy, PARAMS)
            m = score_matrix(A, D, MethodId.TLPSS, range(A.n), range(A.n))
            P = A.indicator_csr
            common = (P @ P).toarray()
            rng = np.random.default_rng(seed)
            for x, y in sample_pairs(rng, toy.n, 10):
                has_structure = (
                    common[x, y] > 0
                    or naive_hidden(toy, PARAMS, x, y)
                    or naive_hidden(toy, PARAMS, y, x)
                )
                assert (m[x, y] > 0) == bool(has_structure)


class TestBaselineValues:
    def test_cn_single_shared_neighbor(self):
        A = adjacency_of(3, {(0, 2): 0.8, (1, 2): 0.8})
        assert scores(A, MethodId.CN_ASF)[0, 1] == pytest.approx(0.8, rel=1e-15)

    def test_cn_empty(self):
        A = adjacency_of(4, {(0, 1): 1.0, (2, 3): 1.0})
        assert scores(A, MethodId.CN_ASF)[0, 2] == 0.0

    def test_cn_unit_weights_counts_neighbors(self):
        weights = {(0, z): 1.0 for z in (2, 3, 4)}
        weights.update({(1, z): 1.0 for z in (2, 3, 4)})
        A = adjacency_of(5, weights)
        assert scores(A, MethodId.CN_ASF)[0, 1] == 3.0

    def test_ja_degenerate_denominator(self):
        A = adjacency_of(4, {(2, 3): 1.0})
        assert scores(A, MethodId.JA_ASF)[0, 1] == 0.0

    def test_ja_bounded_by_half(self):
        for seed in range(15):
            toy = random_toy(seed, max_nodes=20)
            m = toy_scores(toy, random_decay(seed + 30), MethodId.JA_ASF)
            rng = np.random.default_rng(seed)
            for x, y in sample_pairs(rng, toy.n, 10):
                assert m[x, y] <= 0.5 + 1e-12

    def test_pa_product_and_isolated(self):
        A = adjacency_of(4, {(0, 1): 2.0, (1, 2): 3.0})
        m = scores(A, MethodId.PA_ASF)
        assert m[0, 2] == pytest.approx(6.0)
        assert m[0, 3] == 0.0

    def test_ra_inverse_degree(self):
        A = adjacency_of(3, {(0, 2): 1.0, (1, 2): 1.0})
        assert scores(A, MethodId.RA_ASF)[0, 1] == pytest.approx(0.5)

    def test_ra_unit_weights_classic(self):
        # two shared neighbors of plain degree 2 and 3
        weights = {(0, 2): 1.0, (1, 2): 1.0, (0, 3): 1.0, (1, 3): 1.0, (3, 4): 1.0}
        A = adjacency_of(5, weights)
        assert scores(A, MethodId.RA_ASF)[0, 1] == pytest.approx(1 / 2 + 1 / 3, rel=1e-15)

    def test_car_needs_linked_common_neighbors(self):
        weights = {(0, 2): 1.0, (1, 2): 1.0, (0, 3): 1.0, (1, 3): 1.0}
        A = adjacency_of(4, weights)
        assert scores(A, MethodId.CAR_ASF)[0, 1] == 0.0

    def test_car_known_value(self):
        # CN score 1.5 and one common-neighbor link of weight 0.7
        weights = {(0, 2): 0.75, (1, 2): 0.75, (0, 3): 0.75, (1, 3): 0.75, (2, 3): 0.7}
        A = adjacency_of(5, weights)
        assert scores(A, MethodId.CN_ASF)[0, 1] == pytest.approx(1.5, rel=1e-15)
        assert scores(A, MethodId.CAR_ASF)[0, 1] == pytest.approx(1.05, rel=1e-15)

    def test_cclp_two_neighbor_triangle(self):
        # z=2 has exactly the neighbors 0, 1 which are linked with weight 0.6
        weights = {(0, 2): 1.0, (1, 2): 1.0, (0, 1): 0.6}
        A = adjacency_of(3, weights)
        assert scores(A, MethodId.CCLP_ASF)[0, 1] == pytest.approx(0.6, rel=1e-15)

    def test_cclp_no_triangles(self):
        weights = {(0, 2): 1.0, (1, 2): 1.0}
        A = adjacency_of(3, weights)
        assert scores(A, MethodId.CCLP_ASF)[0, 1] == 0.0

    def test_cclp_global_mode_differs_and_matches_oracle(self):
        toy = random_toy(77, max_nodes=18)
        m = toy_scores(toy, PARAMS, MethodId.CCLP_ASF, cclp_mode="global")
        rng = np.random.default_rng(0)
        for x, y in sample_pairs(rng, toy.n, 10):
            ref = naive_score(MethodId.CCLP_ASF, toy, PARAMS, x, y, cclp_mode="global")
            assert m[x, y] == pytest.approx(ref, rel=1e-12, abs=1e-15)
        with pytest.raises(ConfigError):
            toy_scores(toy, PARAMS, MethodId.CCLP_ASF, cclp_mode="banana")


class TestSymmetryAndSign:
    def test_all_methods_symmetric(self):
        for seed in range(8):
            toy = random_toy(seed + 20, max_nodes=22)
            params = random_decay(seed)
            for method in ALL_METHODS:
                m = toy_scores(toy, params, method)
                assert np.array_equal(m, m.T), method

    def test_all_scores_non_negative(self):
        for seed in range(8):
            toy = random_toy(seed + 33, max_nodes=22)
            params = random_decay(seed + 3)
            for method in ALL_METHODS:
                m = toy_scores(toy, params, method)
                assert np.all(m >= 0) and np.all(np.isfinite(m)), method


@pytest.mark.parametrize("n", [1, 7, 8, 9, 20])
def test_tiled_transpose_add_equals_numpy(monkeypatch, n):
    # tiles of 8: one tile, a whole number of them, and a partial last one
    monkeypatch.setattr(scoring, "_TILE", 8)
    rng = np.random.default_rng(62000 + n)
    s = rng.random((n, n)) * 10.0 ** rng.uniform(-8, 8, (n, n))
    ref = s.copy()
    ref += ref.T
    scoring._add_transpose(s)
    assert s.tobytes() == ref.tobytes()


class TestScoreAll:
    """Scoring every pair at once with score_matrix."""

    def test_empty_pairs(self):
        """A graph without edges gives every pair a score of 0, also one
        without nodes."""
        for n in (5, 0):
            A = adjacency_of(n, {})
            for method in ALL_METHODS:
                m = scores(A, method)
                assert m.shape == (n, n) and not m.any(), method

    def test_single_pair_equals_direct_call(self):
        """One cell of the matrix equals a direct per-pair oracle call."""
        toy = fig_toy()
        for method in ALL_METHODS:
            m = toy_scores(toy, PARAMS, method)
            ref = naive_score(method, toy, PARAMS, 0, 1)
            assert m[0, 1] == pytest.approx(ref, rel=1e-12, abs=1e-15), method

    def test_range_and_index_array_give_the_same_block(self):
        _, A, D = production_stack(random_toy(7, max_nodes=30, min_nodes=20), PARAMS)
        n = A.n
        for method in ALL_METHODS:
            for r0, r1 in ((0, n), (0, 1), (3, 11), (n - 1, n), (n, n)):
                run = score_matrix(A, D, method, range(r0, r1), range(r0, n))
                nodes = score_matrix(A, D, method, np.arange(r0, r1), np.arange(r0, n))
                assert run.shape == (r1 - r0, n - r0) and np.array_equal(run, nodes)
            run = score_matrix(A, D, method, range(2, 9), range(4, n))
            nodes = score_matrix(A, D, method, np.arange(2, 9), np.arange(4, n))
            assert np.array_equal(run, nodes)
            A.operands.clear()

    def test_nodes_and_keys_outside_the_graph_rejected(self):
        A = adjacency_of(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
        D = degree_vector(A)
        cn = MethodId.CN_ASF
        nodes = np.array([0, 3])
        bad_nodes = (
            np.array([-1]), np.array([4]), np.array([[0, 1]]), np.array([0.0, 1.0]),
            np.array([True, False]),
        )
        for bad in bad_nodes:
            with pytest.raises(ValueError, match="^rows "):
                score_matrix(A, D, cn, bad, nodes)
            with pytest.raises(ValueError, match="^cols "):
                score_matrix(A, D, cn, nodes, bad)
        for bad in (range(2, 5), range(3, 1), range(-1, 2), range(0, 4, 2)):
            with pytest.raises(ValueError, match="^rows "):
                score_matrix(A, D, cn, bad, range(4))
            with pytest.raises(ValueError, match="^cols "):
                score_matrix(A, D, cn, range(4), bad)
        # keys out of range, not integers (never rounded to a key) or not 1-D
        bad_keys = ([-1], [16], [3, 100], [1.7, 2.2], [[1, 2]], [True, False])
        for bad in bad_keys:
            with pytest.raises(ValueError, match="^keys "):
                scoring.score_pairs(A, D, cn, np.array(bad))
        # the first and last node, and the first and last key, are in
        full = score_matrix(A, D, cn, range(4), range(4))
        assert np.array_equal(score_matrix(A, D, cn, nodes, nodes), full[0::3, 0::3])
        assert np.array_equal(scoring.score_pairs(A, D, cn, np.array([0, 15])), [0.0, 0.0])

    def test_unknown_method_rejected(self):
        _, A, D = production_stack(fig_toy(), PARAMS)
        with pytest.raises(ConfigError):
            score_matrix(A, D, "TLPSS", range(A.n), range(A.n))


class TestOracleAgreement:
    def test_methods_match_oracle_on_random_toys(self):
        worst = 0.0
        for seed in range(30):
            toy = random_toy(seed + 400, max_nodes=28)
            params = random_decay(seed + 500, allow_exp=True)
            _, A, D = production_stack(toy, params)
            rng = np.random.default_rng(seed)
            pairs = sample_pairs(rng, toy.n, 8)
            for method in ALL_METHODS:
                m = score_matrix(A, D, method, range(A.n), range(A.n))
                for x, y in pairs:
                    got = m[x, y]
                    ref = naive_score(method, toy, params, x, y)
                    err = abs(got - ref) / max(abs(ref), 1e-30)
                    worst = max(worst, err)
                    assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)
        assert worst < 1e-9
