"""Tests for candidate building, AUC, precision@L and sweeps."""

import numpy as np
import pytest

from tlpss.decay import DecayParams
from tlpss.edges import TemporalEdge, TemporalEdgeList, normalize, split_by_time
from tlpss.errors import ConfigError, EvaluationError
from tlpss.evaluation import (
    _precision_from_arrays,
    auc,
    build_candidates,
    evaluate_methods,
    sweep,
)
from tlpss.oracle import ToyGraph, exhaustive_auc, random_toy
from tlpss.scoring import ALL_METHODS, MethodId


def toy_list(toy):
    return normalize(TemporalEdgeList([TemporalEdge(*e) for e in toy.edges], toy.n))


def community_toy(seed=7, n=48, n_events=420, block=12, span=8000):
    """Synthetic network with planted communities so prediction beats chance."""
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(n_events):
        a = int(rng.integers(0, n))
        if rng.random() < 0.8:
            b = int((a // block) * block + rng.integers(0, block))
        else:
            b = int(rng.integers(0, n))
        edges.append((a, b, int(rng.integers(1, span))))
    return ToyGraph(n=n, edges=edges)


class TestBuildCandidates:
    def _split(self, toy, ratio=0.8):
        return split_by_time(toy_list(toy), ratio)

    def test_no_positives_rejected(self):
        # pair (0,1) relinked in test: nothing new to predict
        edges = [TemporalEdge(0, 1, 1), TemporalEdge(0, 2, 2), TemporalEdge(0, 1, 9)]
        lst = normalize(TemporalEdgeList(edges, 3))
        split = split_by_time(lst, 0.6)
        with pytest.raises(EvaluationError):
            build_candidates(split, 3, seed=0)

    def test_complete_graph_has_no_negatives(self):
        edges = [
            TemporalEdge(0, 1, 1),
            TemporalEdge(0, 2, 2),
            TemporalEdge(1, 2, 9),
        ]
        lst = normalize(TemporalEdgeList(edges, 3))
        split = split_by_time(lst, 0.6)
        with pytest.raises(EvaluationError):
            build_candidates(split, 3, seed=0)

    def test_universe_size_on_ten_nodes(self):
        toy = random_toy(15, max_nodes=10, min_nodes=10)
        split = self._split(toy)
        cs = build_candidates(split, 10, seed=1)
        linked = split.train.linked_pairs() | split.test.linked_pairs()
        assert cs.universe_size == 45 - len(linked)

    def test_same_seed_same_sample(self):
        toy = community_toy()
        split = self._split(toy)
        a = build_candidates(split, toy.n, seed=42, max_negatives=50)
        b = build_candidates(split, toy.n, seed=42, max_negatives=50)
        assert a.sampled_negatives == b.sampled_negatives
        c = build_candidates(split, toy.n, seed=43, max_negatives=50)
        assert c.sampled_negatives != a.sampled_negatives

    def test_exhaustive_when_budget_covers_universe(self):
        toy = community_toy(seed=14, n=12, n_events=60, block=6, span=50)
        split = self._split(toy)
        cs = build_candidates(split, 12, seed=0, max_negatives=10_000)
        assert cs.exhaustive
        assert len(cs.sampled_negatives) == cs.universe_size

    def test_candidates_never_train_linked(self):
        toy = community_toy(seed=3)
        split = self._split(toy)
        cs = build_candidates(split, toy.n, seed=5, max_negatives=200)
        train_pairs = split.train.linked_pairs()
        test_pairs = split.test.linked_pairs()
        for pair in cs.sampled_negatives:
            assert pair not in train_pairs and pair not in test_pairs
        for pair in cs.positives:
            assert pair not in train_pairs
        assert not (set(cs.positives) & set(cs.sampled_negatives))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([5.0, 4.0], [1.0, 2.0]) == 1.0

    def test_all_ties(self):
        assert auc([3.0] * 4, [3.0] * 6) == 0.5

    def test_enumerated_example(self):
        # comparisons: 2>1, 2>0, 1=1 (half), 1>0 -> 3.5/4
        assert auc([2.0, 1.0], [1.0, 0.0]) == 0.875

    def test_empty_side_rejected(self):
        with pytest.raises(EvaluationError):
            auc([], [1.0])
        with pytest.raises(EvaluationError):
            auc([1.0], [])

    def test_rank_formula_equals_double_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pos = rng.integers(0, 6, size=rng.integers(1, 30)).astype(float)
            neg = rng.integers(0, 6, size=rng.integers(1, 30)).astype(float)
            wins = sum(
                1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg
            )
            assert auc(pos, neg) == wins / (len(pos) * len(neg))

    def test_sampled_close_to_exhaustive(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(1.0, 1.0, size=400)
        neg = rng.normal(0.0, 1.0, size=900)
        exact = auc(pos, neg)
        sampled = auc(pos, neg, n_comparisons=200_000, seed=11)
        assert abs(exact - sampled) < 0.01

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        pos = np.round(rng.uniform(0, 3, 50), 2)
        neg = np.round(rng.uniform(0, 3, 80), 2)
        base = auc(pos, neg)
        assert auc(2 * pos + 7, 2 * neg + 7) == base
        assert auc(pos**3, neg**3) == base
        base_sampled = auc(pos, neg, n_comparisons=5000, seed=9)
        assert auc(pos**3, neg**3, n_comparisons=5000, seed=9) == base_sampled


def table_precision(rows, positives, L):
    """Precision@L over a {canonical pair: score} table, through the
    array form evaluation ranks candidates with."""
    pairs = sorted(rows)
    ii = np.array([p[0] for p in pairs], dtype=np.int64)
    jj = np.array([p[1] for p in pairs], dtype=np.int64)
    scores = np.array([rows[p] for p in pairs], dtype=np.float64)
    is_positive = np.array([p in set(positives) for p in pairs], dtype=bool)
    return _precision_from_arrays(ii, jj, scores, is_positive, L)


class TestPrecision:
    def test_all_hits(self):
        rows = {(0, 1): 3.0, (0, 2): 2.0, (1, 2): 1.0}
        assert table_precision(rows, [(0, 1), (0, 2)], 2) == 1.0

    def test_no_positives_at_all(self):
        rows = {(0, 1): 3.0, (0, 2): 2.0}
        assert table_precision(rows, [], 2) == 0.0

    def test_too_few_candidates(self):
        rows = {(0, 1): 3.0}
        with pytest.raises(EvaluationError):
            table_precision(rows, [(0, 1)], 2)

    def test_tie_at_cut_broken_by_pair_order(self):
        # (0,2) and (1,2) tie; canonical order keeps (0,2) inside the cut
        rows = {(0, 1): 5.0, (0, 2): 1.0, (1, 2): 1.0, (2, 3): 0.5}
        hit = table_precision(rows, [(0, 2)], 2)
        miss = table_precision(rows, [(1, 2)], 2)
        assert hit == 0.5
        assert miss == 0.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        scores = np.round(rng.uniform(0, 2, len(pairs)), 2)
        positives = [p for p, s in zip(pairs, scores) if s > 1.2]
        base_rows = dict(zip(pairs, scores.tolist()))
        base = table_precision(base_rows, positives, 10)
        for transform in (lambda x: 2 * x + 7, lambda x: x**3):
            rows = {p: float(transform(s)) for p, s in base_rows.items()}
            assert table_precision(rows, positives, 10) == base


class TestEvaluateMethods:
    def test_reports_are_deterministic_and_consistent(self):
        toy = community_toy()
        lst = toy_list(toy)
        kwargs = dict(
            period=200.0,
            decay=DecayParams(p=3.0, q=1.0),
            methods=[MethodId.TLPSS, MethodId.RA_ASF],
            top_l=10,
            seed=2,
        )
        first = evaluate_methods(lst, **kwargs)
        second = evaluate_methods(lst, **kwargs)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
        for r in first:
            assert 0.0 <= r.auc <= 1.0
            assert 0.0 <= r.precision <= 1.0
            assert r.split["train_edges"] + r.split["test_edges"] == len(lst)

    def test_pa_runs_without_latent_structure(self):
        toy = community_toy(seed=8)
        reports = evaluate_methods(
            toy_list(toy),
            period=200.0,
            decay=DecayParams(p=3.0, q=1.0),
            methods=[MethodId.PA_ASF],
            top_l=5,
        )
        assert reports[0].method == "PA_ASF"

    def test_auc_matches_independent_enumeration(self):
        """Pipeline AUC on a small toy equals the brute-force value computed
        from scratch (same split rule, exhaustive comparisons)."""
        for seed in (0, 3, 9):
            toy = random_toy(seed + 800, max_nodes=16, min_nodes=12)
            lst = toy_list(toy)
            params = DecayParams(p=2.0, q=1.0)
            for method in (MethodId.TLPSS, MethodId.CN_ASF, MethodId.PA_ASF):
                try:
                    ref = exhaustive_auc(toy, method, params, ratio=0.8)
                except ValueError:
                    continue
                reports = evaluate_methods(
                    lst,
                    period=toy.period,
                    decay=params,
                    methods=[method],
                    ratio=0.8,
                    top_l=1,
                    max_negatives=10**9,  # force the exhaustive negative set
                )
                assert reports[0].auc == pytest.approx(ref, abs=1e-12)


class TestSweep:
    def test_single_value_matches_direct_run(self):
        toy = community_toy(seed=10)
        lst = toy_list(toy)
        params = DecayParams(p=3.0, q=1.0)
        direct = evaluate_methods(
            lst, period=200.0, decay=params, methods=[MethodId.TLPSS], top_l=5, seed=4
        )
        swept = sweep(
            lst, "q", [1.0], period=200.0, decay=params,
            methods=[MethodId.TLPSS], top_l=5, seed=4,
        )
        assert [r.to_dict() for r in swept] == [r.to_dict() for r in direct]

    def test_q_sweep_produces_row_per_method_value(self):
        toy = community_toy(seed=11)
        reports = sweep(
            toy_list(toy),
            "q",
            list(range(0, 11)),
            period=200.0,
            decay=DecayParams(p=3.0, q=1.0),
            methods=list(ALL_METHODS),
            top_l=5,
        )
        assert len(reports) == 7 * 11
        qs = {r.decay["q"] for r in reports}
        assert qs == {float(v) for v in range(11)}

    def test_tlpss_at_q_zero_equals_reduction(self):
        """The q=0 sweep point must coincide with the no-latent reduction."""
        toy = community_toy(seed=12)
        lst = toy_list(toy)
        reports = sweep(
            lst, "q", [0.0], period=200.0, decay=DecayParams(p=3.0, q=1.0),
            methods=[MethodId.TLPSS], top_l=5, seed=6,
        )
        direct = evaluate_methods(
            lst, period=200.0, decay=DecayParams(p=3.0, q=0.0),
            methods=[MethodId.TLPSS], top_l=5, seed=6,
        )
        assert reports[0].auc == direct[0].auc
        assert reports[0].precision == direct[0].precision

    def test_bad_sweep_param_rejected(self):
        toy = community_toy(seed=13)
        with pytest.raises(ConfigError):
            sweep(
                toy_list(toy), "a", [1.0], period=200.0,
                decay=DecayParams(p=1.0, q=1.0), methods=[MethodId.TLPSS],
            )
        with pytest.raises(ConfigError):
            sweep(
                toy_list(toy), "q", [], period=200.0,
                decay=DecayParams(p=1.0, q=1.0), methods=[MethodId.TLPSS],
            )
