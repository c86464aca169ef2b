"""Tests for candidate building, AUC, precision@L and sweeps."""

import inspect
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tlpss
from tlpss import evaluation, scoring
from tlpss import adjacency
from tlpss.adjacency import LatentPlan, build_adjacency, degree_vector, pair_layout
from tlpss.decay import DecayParams, ExpDecayParams
from tlpss.edges import (
    SnapshotConfig,
    TemporalEdgeList,
    normalize,
    pair_key,
    snapshot_index,
    split_by_time,
)
from tlpss.errors import ConfigError, EvaluationError, SplitError
from tlpss.evaluation import (
    _mid_ranks,
    _precision_from_arrays,
    auc,
    build_candidates,
    evaluate_methods,
    sweep,
)
from tlpss.oracle import ToyGraph, exhaustive_auc, random_toy
from tlpss.scoring import ALL_METHODS, MethodId, score_matrix

from conftest import adjacency_of, edge_list


def count_plan_builds(monkeypatch):
    """A list that gains each latent plan as it is constructed."""
    builds = []
    init = LatentPlan.__init__

    def counted(plan, layout):
        builds.append(plan)
        init(plan, layout)

    monkeypatch.setattr(LatentPlan, "__init__", counted)
    return builds


def toy_list(toy):
    return normalize(edge_list(toy.edges, toy.n))


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
        edges = [(0, 1, 1), (0, 2, 2), (0, 1, 9)]
        lst = normalize(edge_list(edges, 3))
        split = split_by_time(lst, 0.6)
        with pytest.raises(EvaluationError):
            build_candidates(split, 3, seed=0)

    def test_complete_graph_has_no_negatives(self):
        edges = [(0, 1, 1), (0, 2, 2), (1, 2, 9)]
        lst = normalize(edge_list(edges, 3))
        split = split_by_time(lst, 0.6)
        with pytest.raises(EvaluationError):
            build_candidates(split, 3, seed=0)

    def test_universe_size_on_ten_nodes(self):
        toy = random_toy(15, max_nodes=10, min_nodes=10)
        split = self._split(toy)
        cs = build_candidates(split, 10, seed=1)
        linked = set(split.train.pair_keys().tolist()) | set(split.test.pair_keys().tolist())
        assert cs.universe_size == 45 - len(linked)

    def test_same_seed_same_sample(self):
        toy = community_toy()
        split = self._split(toy)
        a = build_candidates(split, toy.n, seed=42, max_negatives=50)
        b = build_candidates(split, toy.n, seed=42, max_negatives=50)
        assert a.sampled_negatives.tolist() == b.sampled_negatives.tolist()
        c = build_candidates(split, toy.n, seed=43, max_negatives=50)
        assert c.sampled_negatives.tolist() != a.sampled_negatives.tolist()

    def test_exhaustive_when_budget_covers_universe(self):
        toys = [community_toy(seed=14, n=12, n_events=60, block=6, span=50)]
        for n in range(3, 13):
            # random links among nodes 0..n-2, then node n-1's first link
            rng = np.random.default_rng(n)
            a, b = rng.integers(0, n - 1, (2, 2 * n))
            edges = [(int(u), int(v), t + 1) for t, (u, v) in enumerate(zip(a, b)) if u != v]
            toys.append(ToyGraph(n=n, edges=[(0, 1, 1), *edges, (0, n - 1, 100)], period=1.0))
        for toy in toys:
            split = self._split(toy, ratio=0.5)
            cs = build_candidates(split, toy.n, seed=0, max_negatives=10_000)
            assert len(cs.sampled_negatives) == cs.universe_size
            # the sorted keys of every pair linked in neither part
            linked = set(split.train.pair_keys().tolist()) | set(split.test.pair_keys().tolist())
            n = toy.n
            keys = [i * n + j for i in range(n) for j in range(i + 1, n)]
            assert cs.sampled_negatives.dtype == np.int64
            assert cs.sampled_negatives.tolist() == [k for k in keys if k not in linked]

    def test_candidates_never_train_linked(self):
        toy = community_toy(seed=3)
        split = self._split(toy)
        cs = build_candidates(split, toy.n, seed=5, max_negatives=200)
        train_pairs = set(split.train.pair_keys().tolist())
        test_pairs = set(split.test.pair_keys().tolist())
        for pair in cs.sampled_negatives.tolist():
            assert pair not in train_pairs and pair not in test_pairs
        for pair in cs.positives.tolist():
            assert pair not in train_pairs
        assert not (set(cs.positives.tolist()) & set(cs.sampled_negatives.tolist()))


def loop_negatives(split, n, seed, budget):
    """Negative sampling as a per-pair loop with a seen-set: the reference
    order the sampled keys must reproduce."""
    linked = {divmod(k, n) for k in split.train.pair_keys().tolist()}
    linked |= {divmod(k, n) for k in split.test.pair_keys().tolist()}
    rng = np.random.default_rng(seed)
    chosen, seen = [], set()
    while len(chosen) < budget:
        batch = int((budget - len(chosen)) * 2.2) + 64
        a = rng.integers(0, n, size=batch)
        b = rng.integers(0, n, size=batch)
        for u, v in zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()):
            if u == v or (u, v) in linked or (u, v) in seen:
                continue
            seen.add((u, v))
            chosen.append((u, v))
            if len(chosen) == budget:
                break
    return chosen


class TestNegativeOrder:
    """The sampled negatives, in order, decide the sampled AUC bits."""

    def test_equals_per_pair_loop(self):
        sampled = 0
        for seed in range(80):
            toy = random_toy(seed + 4000, max_nodes=40)
            try:
                split = split_by_time(toy_list(toy), 0.8)
            except SplitError:
                continue
            if not len(split.positives):
                continue
            universe = build_candidates(split, toy.n, seed=seed).universe_size
            # a budget near the universe makes the loop draw several batches
            for budget in {max(1, universe // 3), max(1, universe - 1)}:
                cs = build_candidates(split, toy.n, seed=seed, max_negatives=budget)
                if len(cs.sampled_negatives) == cs.universe_size:
                    continue
                got = [divmod(k, toy.n) for k in cs.sampled_negatives.tolist()]
                assert got == loop_negatives(split, toy.n, seed, budget)
                sampled += 1
        assert sampled >= 50

    def test_budget_one_below_universe_on_hundreds_of_nodes(self):
        # the last pairs of such a budget take thousands of small batches
        # that rarely find a new pair
        rng = np.random.default_rng(3)
        n = 300
        rows = [(a, b, t) for t, (a, b) in enumerate(rng.integers(0, n, (3 * n, 2)).tolist(), 1)]
        split = split_by_time(toy_list(ToyGraph(n=n, edges=rows)), 0.8)
        budget = build_candidates(split, n, seed=0).universe_size - 1
        cs = build_candidates(split, n, seed=0, max_negatives=budget)
        assert len(cs.sampled_negatives) < cs.universe_size
        got = [divmod(k, n) for k in cs.sampled_negatives.tolist()]
        assert got == loop_negatives(split, n, 0, budget)


class TestBranchPoints:
    """Just at and just below each exhaustive/sampled switch."""

    KW = dict(period=200.0, decay=DecayParams(p=3.0, q=1.0), methods=[MethodId.TLPSS])

    def _lst(self):
        return toy_list(community_toy(seed=21, n=40, n_events=300, block=10))

    def test_negatives_exhaustive_at_universe_size(self):
        lst = self._lst()
        split = split_by_time(lst, 0.9)
        universe = build_candidates(split, lst.node_count, seed=0).universe_size
        full = build_candidates(split, lst.node_count, seed=0, max_negatives=universe)
        below = build_candidates(split, lst.node_count, seed=0, max_negatives=universe - 1)
        assert len(full.sampled_negatives) == universe
        assert len(np.unique(below.sampled_negatives)) == universe - 1
        assert np.isin(below.sampled_negatives, full.sampled_negatives).all()
        reports = [
            evaluate_methods(lst, **self.KW, max_negatives=budget)[0]
            for budget in (universe, universe - 1)
        ]
        assert [r.n_sampled_negatives for r in reports] == [universe, universe - 1]
        assert abs(reports[0].auc - reports[1].auc) < 0.01

    def test_auc_exhaustive_at_limit(self):
        lst = self._lst()
        probe = evaluate_methods(lst, **self.KW)[0]
        n_pairs = probe.n_positives * probe.n_sampled_negatives
        at, below = (
            evaluate_methods(
                lst, **self.KW, auc_exhaustive_limit=limit, auc_samples=200_000
            )[0]
            for limit in (n_pairs, n_pairs - 1)
        )
        assert at.comparisons == n_pairs and at.auc == probe.auc
        assert below.comparisons == 200_000
        assert abs(at.auc - below.auc) < 0.01


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

    def test_mid_ranks_equal_rankdata(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(5)
        for trial in range(300):
            size = int(rng.integers(1, 400))
            values = rng.integers(0, 1 + trial % 12, size=size).astype(float)
            if trial % 3 == 0:
                values = np.round(rng.normal(size=size), 1)
            assert np.array_equal(_mid_ranks(values), rankdata(values))


def test_import_leaves_scipy_stats_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(tlpss.__file__).parents[1]))
    code = "import sys, tlpss; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def table_precision(rows, positives, L):
    """Precision@L over a {canonical pair: score} table, through the
    array form evaluation ranks candidates with."""
    pairs = sorted(rows)
    n = max(j for _, j in pairs) + 1
    keys = np.array([pair_key(i, j, n) for i, j in pairs], dtype=np.int64)
    scores = np.array([rows[p] for p in pairs], dtype=np.float64)
    is_positive = np.array([p in set(positives) for p in pairs], dtype=bool)
    return _precision_from_arrays(keys, scores, is_positive, L)


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


def lexsort_precision(ii, jj, scores, is_positive, L):
    """Reference ranking: sort the whole table by descending score, then
    canonical pair order, and take the first L."""
    order = np.lexsort((jj, ii, -scores))
    return float(is_positive[order[:L]].sum() / L)


class TestPrecisionSelection:
    """The top-L selection gives the same float as the full sort."""

    KINDS = ("integer", "mostly-zero", "negative", "few-positive", "continuous")

    @staticmethod
    def _scores(rng, kind, k):
        if kind == "integer":  # heavy ties
            return rng.integers(0, 4, size=k).astype(np.float64)
        if kind == "mostly-zero":
            s = rng.integers(1, 3, size=k).astype(np.float64)
            s[rng.random(k) < 0.75] = 0.0
            return s
        if kind == "negative":
            return -rng.integers(1, 4, size=k).astype(np.float64)
        if kind == "few-positive":  # zeros and negatives, fewer than k positive
            s = -rng.integers(0, 3, size=k).astype(np.float64)
            s[rng.choice(k, size=int(rng.integers(0, k)), replace=False)] = 1.0
            return s
        return np.round(rng.normal(size=k), 1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_full_lexsort(self, kind):
        rng = np.random.default_rng(self.KINDS.index(kind))
        for t in range(1000):
            n = int(rng.integers(2, 16))
            iu, ju = np.triu_indices(n, k=1)
            k = int(rng.integers(1, len(iu) + 1))
            pick = rng.choice(len(iu), size=k, replace=False)
            if t % 2:
                pick.sort()  # canonical pair order; otherwise shuffled
            ii, jj = iu[pick].astype(np.int64), ju[pick].astype(np.int64)
            keys = pair_key(ii, jj, n)
            scores = self._scores(rng, kind, k)
            is_positive = rng.random(k) < 0.4
            # L = 1, L = len(scores), a random L, and the smallest L above
            # the number of positive scores
            n_above_zero = int(np.count_nonzero(scores > 0))
            for L in {1, k, int(rng.integers(1, k + 1)), min(n_above_zero + 1, k)}:
                got = _precision_from_arrays(keys, scores, is_positive, L)
                assert got == lexsort_precision(ii, jj, scores, is_positive, L)


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

    def test_unknown_option_names_evaluate_methods(self):
        lst = toy_list(community_toy(seed=8))
        kwargs = dict(decay=DecayParams(p=3.0, q=1.0), methods=[MethodId.CN_ASF])
        with pytest.raises(
            TypeError,
            match=r"^evaluate_methods\(\) got an unexpected keyword argument 'bogus'$",
        ):
            evaluate_methods(lst, period=200.0, bogus=1, **kwargs)
        with pytest.raises(TypeError, match=r"^evaluate_methods\(\) missing .*'period'"):
            evaluate_methods(lst, **kwargs)

    def test_docstrings_list_every_option(self):
        run = inspect.signature(evaluation._run).parameters.values()
        options = [p for p in run if p.kind is p.KEYWORD_ONLY]
        assert len(options) == 11
        for p in options:
            assert f"``{p.name}``" in sweep.__doc__
            if p.default is p.empty:
                assert f"``{p.name}`` (required)" in evaluate_methods.__doc__
            else:
                assert f"``{p.name}={p.default!r}``" in evaluate_methods.__doc__

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

    def test_unknown_option_names_sweep(self):
        lst = toy_list(community_toy(seed=10))
        kwargs = dict(decay=DecayParams(p=3.0, q=1.0), methods=[MethodId.TLPSS])
        with pytest.raises(
            TypeError, match=r"^sweep\(\) got an unexpected keyword argument 'bogus'$"
        ):
            sweep(lst, "q", [0.0, 1.0], period=200.0, bogus=1, **kwargs)
        with pytest.raises(TypeError, match=r"^sweep\(\) missing .*'period'"):
            sweep(lst, "q", [0.0, 1.0], **kwargs)

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

    @pytest.mark.parametrize(
        "param, values", [("q", [0.0, 1.0, 3.0, 1.0]), ("p", [3.0, 0.5, 8.0])]
    )
    def test_one_plan_per_sweep_equals_separate_runs(self, monkeypatch, param, values):
        builds = count_plan_builds(monkeypatch)
        lst = toy_list(community_toy(seed=14))
        params = DecayParams(p=3.0, q=1.0)
        methods = [MethodId.CN_ASF, MethodId.TLPSS, MethodId.RA_ASF]
        kwargs = dict(period=200.0, methods=methods, top_l=5, seed=2)
        swept = sweep(lst, param, values, decay=params, **kwargs)
        assert len(builds) == 1
        for k, value in enumerate(values):
            direct = evaluate_methods(
                lst, decay=replace(params, **{param: value}), **kwargs
            )
            rows = swept[k * len(methods) : (k + 1) * len(methods)]
            assert [(r.auc, r.precision) for r in rows] == [
                (r.auc, r.precision) for r in direct
            ]
        assert len(builds) == 1 + sum(replace(params, **{param: v}).q > 0 for v in values)

    def test_plan_kept_by_its_layout_for_every_value(self, monkeypatch):
        builds = count_plan_builds(monkeypatch)
        calls = []
        layouts = []
        adjacencies = []
        score = evaluation.score_matrix

        def recorded(A, D, method, *args):
            out = score(A, D, method, *args)
            # whether the layout holds a plan once the block is scored
            calls.append((method, "latent_plan" in vars(A.layout)))
            layouts.append(A.layout)
            adjacencies.append(A)
            return out

        monkeypatch.setattr(evaluation, "score_matrix", recorded)
        # 48 nodes in blocks of at most 48 * 7 cells: several blocks per
        # method and value
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", 48 * 7)
        lst = toy_list(community_toy(seed=15))
        methods = [MethodId.TLPSS, MethodId.CN_ASF]
        kwargs = dict(period=200.0, decay=DecayParams(p=3.0, q=1.0), methods=methods)
        evaluate_methods(lst, **kwargs)
        blocks = next(t for t, (method, _) in enumerate(calls) if method is not MethodId.TLPSS)
        assert blocks > 2
        # under one decay setting the layout never holds a plan: the latent
        # pass streams its blocks (CN walks blocks of its own)
        assert calls[:blocks] == [(MethodId.TLPSS, False)] * blocks
        assert calls[blocks:] and set(calls[blocks:]) == {(MethodId.CN_ASF, False)}
        assert not layouts[-1].keep_plan
        assert "latent_plan" not in vars(layouts[-1])
        calls.clear()
        builds.clear()
        swept = len(layouts)
        sweep(lst, "q", [1.0, 2.0], **kwargs)
        tlpss = [t for t, (method, _) in enumerate(calls) if method is MethodId.TLPSS]
        assert len(tlpss) > 2 * 2 and tlpss[-1] + 1 < len(calls)
        # one plan, built for TLPSS's first block and held for every block
        # of every value, and still the layout's when the sweep returns
        assert len(builds) == 1
        assert all(has_plan for _, has_plan in calls)
        assert len({id(layout) for layout in layouts[swept:]}) == 1
        assert vars(layouts[-1])["latent_plan"] is builds[0]
        # each method's row-independent operands are dropped after its last block
        assert all(A.operands == {} for A in adjacencies)

    def test_plan_rebuilt_after_it_was_dropped(self, monkeypatch):
        builds = count_plan_builds(monkeypatch)
        lst = toy_list(community_toy(seed=16))
        kwargs = dict(period=200.0, decay=DecayParams(p=3.0, q=1.0), top_l=5, seed=3)
        methods = [MethodId.TLPSS, MethodId.CN_ASF, MethodId.TLPSS]
        first, cn, again = evaluate_methods(lst, methods=methods, **kwargs)
        # dropped after the first TLPSS row, rebuilt for the second
        assert len(builds) == 2
        assert cn.method == "CN_ASF"
        assert again.to_dict() == first.to_dict()
        (alone,) = evaluate_methods(lst, methods=[MethodId.TLPSS], **kwargs)
        assert first.to_dict() == alone.to_dict()

    @pytest.mark.parametrize("values", [None, [1.0]])
    def test_no_plan_kept_under_one_decay_setting(self, monkeypatch, values):
        builds = count_plan_builds(monkeypatch)
        kept = []
        latent_matrix = scoring.latent_matrix

        def recorded(A, w):
            # TLPSS's operand, (W + B)/w, from the latent pass's row sets
            out = latent_matrix(A, w)
            streamed = all(isinstance(item, range) for item in builds[-1].sets)
            kept.append(("latent_plan" in vars(A.layout), streamed))
            return out

        monkeypatch.setattr(scoring, "latent_matrix", recorded)
        lst = toy_list(community_toy(seed=17))
        kwargs = dict(
            period=200.0, decay=DecayParams(p=3.0, q=1.0), top_l=5,
            methods=[MethodId.TLPSS, MethodId.CN_ASF, MethodId.TLPSS],
        )
        if values is None:
            evaluate_methods(lst, **kwargs)
        else:  # a sweep of one value is one decay setting too
            sweep(lst, "q", values, **kwargs)
        # one streamed plan per TLPSS row, neither cached nor keeping sets,
        # only their row ranges
        assert len(builds) == 2
        assert kept == [(False, True)] * 2

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


def tie_toy(seed=21, n=40, block=10):
    """Community network of 150 distinct train pairs at one timestamp, so
    that CN and PA scores tie in long runs, and 150 test pairs at a second
    (split it with ratio 0.5)."""
    rng = np.random.default_rng(seed)

    def pairs(k):
        out = set()
        while len(out) < k:
            a = int(rng.integers(0, n))
            b = int((a // block) * block + rng.integers(0, block))
            if rng.random() < 0.15:
                b = int(rng.integers(0, n))
            if a != b:
                out.add((min(a, b), max(a, b)))
        return sorted(out)

    edges = [(a, b, 1) for a, b in pairs(150)] + [(a, b, 2) for a, b in pairs(150)]
    return ToyGraph(n=n, edges=edges, period=1.0)


def infinite_bound(A, *args):
    """A bound no cut reaches: the walk takes the nodes in order and scores
    every pair, the unpruned walk."""
    return np.full(A.n, np.inf)


def node_order_blocks(n, cells):
    """The row ranges of an unpruned walk: blocks of as many rows as fit
    ``cells`` cells of their width ``n - r0``, and at least one, up to the
    last row but one."""
    blocks, r0 = [], 0
    while r0 < n - 1:
        r1 = min(n - 1, r0 + max(1, cells // (n - r0)))
        blocks.append((r0, r1))
        r0 = r1
    return blocks


def one_block_and_blocked(monkeypatch, run, cells):
    """``run()`` unpruned, the matrix in one block, then with blocks of
    ``cells`` cells and the bounds, and the blocked score_matrix calls as
    ``(method, cclp_mode, rows, cols)``."""
    with monkeypatch.context() as patched:
        patched.setattr(evaluation, "score_bound", infinite_bound)
        whole = run()
    calls = []
    score = evaluation.score_matrix

    def counted(A, D, method, rows, cols, cclp_mode):
        calls.append((method, cclp_mode, rows, cols))
        return score(A, D, method, rows, cols, cclp_mode)

    monkeypatch.setattr(evaluation, "score_matrix", counted)
    monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
    blocked = run()
    return whole, blocked, calls


class TestRowBlocks:
    """Evaluation scores the matrix a block of rows at a time; where the
    blocks end changes no report."""

    @pytest.mark.parametrize("cells", [1, 100, 48 * 7 + 5])
    def test_evaluate_and_sweep_equal_one_block(self, monkeypatch, cells):
        lst = toy_list(community_toy(seed=17))
        kwargs = dict(period=200.0, decay=DecayParams(p=3.0, q=1.0), seed=5)

        def run():
            reports = []
            for top_l, max_negatives in ((5, None), (150, None), (700, 10**9)):
                reports += evaluate_methods(
                    lst, methods=list(ALL_METHODS), top_l=top_l,
                    max_negatives=max_negatives, **kwargs,
                )
            reports += sweep(
                lst, "q", [0.0, 1.0, 3.0], methods=list(ALL_METHODS), top_l=40,
                cclp_mode="global", **kwargs,
            )
            return [r.to_dict() for r in reports]

        whole, blocked, calls = one_block_and_blocked(monkeypatch, run, cells)
        assert blocked == whole
        # every method in 6 runs walks one shape: blocks of as many rows as
        # fit that many cells of their width, or of one row, the first
        # against all 48 nodes and no other
        first = [t for t, (_, _, rows, cols) in enumerate(calls) if len(cols) == 48]
        assert len(first) == 6 * len(ALL_METHODS)
        assert all(len(calls[t][2]) == max(1, cells // 48) for t in first)
        assert all(calls[t][0] is not calls[t - 1][0] for t in first[1:])
        assert all(len(rows) * len(cols) <= cells or len(rows) == 1 for *_, rows, cols in calls)
        # a block has fewer candidates (its cells j > i) than top_l = 700
        assert all(len(rows) * len(cols) < 700 for *_, rows, cols in calls)

    @pytest.mark.parametrize("cells", [1, 90])
    def test_tied_scores_equal_one_block(self, monkeypatch, cells):
        lst = toy_list(tie_toy())
        methods = [MethodId.CN_ASF, MethodId.PA_ASF]
        params = DecayParams(p=3.0, q=1.0)
        kwargs = dict(period=1.0, decay=params, methods=methods, ratio=0.5)
        tops = (5, 60, 300, 600)

        def run():
            return [
                r.to_dict()
                for L in tops
                for r in evaluate_methods(lst, top_l=L, seed=L, **kwargs)
            ]

        whole, blocked, calls = one_block_and_blocked(monkeypatch, run, cells)
        assert blocked == whole
        assert all(len(rows) * len(cols) <= cells or len(rows) == 1 for _, _, rows, cols in calls)
        # the node-order walk, in blocks of that size, offers the cells that
        # tie the cut by the same rule
        calls.clear()
        with monkeypatch.context() as patched:
            patched.setattr(evaluation, "score_bound", infinite_bound)
            assert run() == whole
        n = lst.node_count
        walked = node_order_blocks(n, cells)
        assert len(walked) > 2
        assert [(rows.tolist(), cols.tolist()) for _, _, rows, cols in calls] == len(
            methods
        ) * len(tops) * [(list(range(r0, r1)), list(range(r0, n))) for r0, r1 in walked]

        # every cut falls inside a run of tied scores (CN's last among
        # zeros), and precision equals a full sort of the candidate universe
        # with ties in canonical pair order; in reverse order it would differ
        split = split_by_time(lst, 0.5)
        cfg = SnapshotConfig(period=1.0)
        A = build_adjacency(
            split.train, snapshot_index(split.t_split, cfg), params, cfg, pair_layout(split.train)
        )
        D = degree_vector(A)
        ii, jj = np.triu_indices(A.n, k=1)
        unlinked = ~np.isin(pair_key(ii, jj, A.n), A.layout.keys)
        ii, jj = ii[unlinked], jj[unlinked]
        is_positive = np.isin(pair_key(ii, jj, A.n), split.positives)
        reports = iter(whole)
        reversed_differs = 0
        for L in tops:
            for method in methods:
                scores = score_matrix(A, D, method, range(A.n), range(A.n))[ii, jj]
                ranked = np.sort(scores)[::-1]
                assert ranked[L] == ranked[L - 1]
                assert (ranked[L - 1] == 0) == (method is MethodId.CN_ASF and L == 600)
                expected = lexsort_precision(ii, jj, scores, is_positive, L)
                assert next(reports)["precision"] == expected
                reversed_differs += expected != lexsort_precision(
                    -ii, -jj, scores, is_positive, L
                )
        assert reversed_differs >= 4

    @pytest.mark.parametrize("cells", [2**21, 100])
    def test_sampled_auc_sees_negatives_in_draw_order(self, monkeypatch, cells):
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
        lst = toy_list(community_toy(seed=19))
        params = DecayParams(p=3.0, q=1.0)
        reports = evaluate_methods(
            lst, period=200.0, decay=params, methods=[MethodId.CN_ASF, MethodId.TLPSS],
            seed=4, auc_exhaustive_limit=0, auc_samples=5000,
        )
        # the same AUC from the whole matrix, gathered in the candidates' order
        split = split_by_time(lst, 0.9)
        candidates = build_candidates(split, lst.node_count, 4)
        assert np.any(np.diff(candidates.sampled_negatives) < 0)
        cfg = SnapshotConfig(period=200.0)
        A = build_adjacency(
            split.train, snapshot_index(split.t_split, cfg), params, cfg, pair_layout(split.train)
        )
        D = degree_vector(A)
        for report in reports:
            m = score_matrix(A, D, MethodId(report.method), range(A.n), range(A.n)).ravel()
            pos = m.take(candidates.positives)
            neg = m.take(candidates.sampled_negatives)
            assert report.auc == auc(pos, neg, n_comparisons=5000, seed=4)

    @pytest.mark.parametrize("cells", [2**21, 100])
    def test_universe_smaller_than_l_rejected(self, monkeypatch, cells):
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
        lst = toy_list(community_toy(seed=18))
        n = lst.node_count
        train_pairs = len(np.unique(split_by_time(lst, 0.9).train.pair_keys()))
        universe = n * (n - 1) // 2 - train_pairs
        kwargs = dict(period=200.0, decay=DecayParams(p=3.0, q=1.0), methods=[MethodId.CN_ASF])
        (report,) = evaluate_methods(lst, top_l=universe, **kwargs)
        assert report.top_l == universe
        message = f"^only {universe} candidates for precision@{universe + 1}$"
        # rejected before any method is scored
        monkeypatch.setattr(evaluation, "score_matrix", None)
        with pytest.raises(EvaluationError, match=message):
            evaluate_methods(lst, top_l=universe + 1, **kwargs)
        with pytest.raises(EvaluationError, match=message):
            sweep(lst, "q", [0.0, 1.0], top_l=universe + 1, **kwargs)


class TestRunningCut:
    """Once the running top holds L cells, a block offers it only the cells
    above the L-th score held; that cut belongs to one method under one
    parameter set."""

    @pytest.mark.parametrize("cells", [2**21, 200, 1])
    def test_precision_equals_a_full_ranking(self, monkeypatch, cells):
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
        lst = toy_list(community_toy(seed=17))
        params = DecayParams(p=3.0, q=1.0)
        methods = [MethodId.PA_ASF, MethodId.CN_ASF, MethodId.JA_ASF]
        values = [8.0, 0.5]
        split = split_by_time(lst, 0.9)
        cfg = SnapshotConfig(period=200.0)
        ii, jj = np.triu_indices(lst.node_count, k=1)
        unlinked = ~np.isin(pair_key(ii, jj, lst.node_count), split.train.pair_keys())
        ii, jj = ii[unlinked], jj[unlinked]
        is_positive = np.isin(pair_key(ii, jj, lst.node_count), split.positives)
        for L in (5, 300):
            reports = iter(sweep(
                lst, "p", values, period=200.0, decay=params, methods=methods,
                top_l=L, seed=5,
            ))
            cuts = []
            for p in values:
                decay = replace(params, p=p)
                A = build_adjacency(
                    split.train, snapshot_index(split.t_split, cfg), decay, cfg,
                    pair_layout(split.train),
                )
                D = degree_vector(A)
                for method in methods:
                    scores = score_matrix(A, D, method, range(A.n), range(A.n))[ii, jj]
                    cuts.append(np.sort(scores)[-L])
                    expected = lexsort_precision(ii, jj, scores, is_positive, L)
                    assert next(reports).precision == expected, (L, p, method)
            # each L-th score is above the next method's and above the same
            # method's at the next value, so a cut carried over would drop
            # cells of the next top L
            pa_8, cn_8, ja_8, pa_05, cn_05, ja_05 = cuts
            assert pa_8 > cn_8 > ja_8 and pa_05 > cn_05 > ja_05
            assert pa_8 > pa_05 and cn_8 > cn_05 and ja_8 > ja_05


def hub_toy(n=300, rows=4000, seed=11):
    """Heavy-tailed network of communities of 20: a few hubs score the top
    pairs of every bounded method."""
    rng = np.random.default_rng(seed)
    activity = (rng.permutation(n) + 1.0) ** -0.8
    cdf = np.cumsum(activity)
    u = np.searchsorted(cdf, rng.random(rows) * cdf[-1], side="right")
    v = np.searchsorted(cdf, rng.random(rows) * cdf[-1], side="right")
    local = rng.random(rows) < 0.5
    v[local] = (u[local] // 20) * 20 + rng.integers(0, 20, local.sum())
    v = np.minimum(v, n - 1)
    ts = rng.integers(1, 8000, rows)
    return ToyGraph(n=n, edges=list(zip(u.tolist(), v.tolist(), ts.tolist())))


BOUNDED = [MethodId.CN_ASF, MethodId.PA_ASF, MethodId.RA_ASF, MethodId.CAR_ASF, MethodId.CCLP_ASF]


def unit_adjacency(n, pairs):
    return adjacency_of(n, {pair: 1.0 for pair in pairs})


def walk(monkeypatch, A, method, top_l, auc_keys, bounded=True, cclp_mode="local"):
    """``evaluation._method_top`` on ``A``, with the method's bound or an
    infinite one (the unpruned walk), and the (rows, cols) it scored."""
    calls = []
    score = evaluation.score_matrix

    def recorded(A, D, method, rows, cols, cclp_mode):
        calls.append((rows, cols))
        return score(A, D, method, rows, cols, cclp_mode)

    with monkeypatch.context() as patched:
        patched.setattr(evaluation, "score_matrix", recorded)
        if not bounded:
            patched.setattr(evaluation, "score_bound", infinite_bound)
        out = evaluation._method_top(
            A, degree_vector(A), method, cclp_mode=cclp_mode, top_l=top_l,
            auc_keys=auc_keys, train_keys=A.layout.keys,
        )
    A.operands.clear()
    return out, calls


def scored_keys(calls, n):
    """The keys of the pairs i < j in the blocks of ``calls``."""
    keys = set()
    for rows, cols in calls:
        i, j = np.meshgrid(rows, cols, indexing="ij")
        keep = i != j
        keys |= set(pair_key(i[keep], j[keep], n).tolist())
    return keys


def assert_pruned(calls, n, cells, case):
    """A walk in blocks of ``cells`` cells leaves pairs out; one that fits
    the whole matrix in its first block makes no other."""
    if cells < n * n:
        assert len(scored_keys(calls, n)) < n * (n - 1) // 2, case
    else:
        assert len(calls) == 1, case


def assert_same_walk(pruned, unpruned):
    """The same AUC scores and top L, key for key and bit for bit."""
    for got, want in zip(pruned, unpruned):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRegion:
    """A method with a bound scores only the pairs whose bound can reach
    the cut; its AUC scores and top L equal the unpruned walk's."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cells", [2**21, 1])
    def test_pair_at_the_cut_with_a_smaller_key_enters(self, monkeypatch, workers, cells):
        monkeypatch.setattr(adjacency, "_workers", lambda: workers)
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
        # hub 2 (degree 4) linked to 0 and 1 (degree 2 each), 3 and 6 a
        # lone link: PA scores pairs (0, 1), (2, 3) and (2, 6) all 4, and
        # (0, 1), which has the smallest key, is walked after the hub's row,
        # whose best cell (2, 3) sets the cut
        n = 7
        A = unit_adjacency(n, [(0, 2), (1, 2), (2, 4), (2, 5), (0, 4), (1, 5), (3, 6)])
        auc_keys = pair_key(np.array([0, 0, 3, 4, 3]), np.array([1, 3, 4, 5, 5]), n)
        pruned, calls = walk(monkeypatch, A, MethodId.PA_ASF, 1, auc_keys)
        unpruned, _ = walk(monkeypatch, A, MethodId.PA_ASF, 1, auc_keys, bounded=False)
        assert_same_walk(pruned, unpruned)
        _, top_keys, top_scores = pruned
        assert top_keys.tolist() == [pair_key(0, 1, n)] and top_scores.tolist() == [4.0]
        # the bound w * max(w) of nodes 3 and 6, the lowest, is the cut
        # itself, so no pair is left out: pair (3, 5), of score 2, is walked
        D = degree_vector(A)
        beta = scoring.score_bound(A, D, MethodId.PA_ASF)
        assert beta.tolist() == (D.w * 4.0).tolist() and beta.min() == top_scores[-1]
        every = pair_key(*np.triu_indices(n, k=1), n)
        assert scored_keys(calls, n) == set(every.tolist())

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cells", [2**21, 7])
    def test_zero_cut_walks_the_whole_triangle(self, monkeypatch, workers, cells):
        monkeypatch.setattr(adjacency, "_workers", lambda: workers)
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
        # a star, three lone links and five isolated nodes: fewer than 60
        # of the 99 candidate pairs score above 0 under every bound
        n = 15
        A = unit_adjacency(n, [(0, 1), (0, 2), (0, 3), (4, 5), (6, 7), (8, 9)])
        ii, jj = np.triu_indices(n, k=1)
        every = pair_key(ii, jj, n)
        candidates = np.setdiff1d(every, A.layout.keys)
        assert len(candidates) == 99
        auc_keys = np.random.default_rng(workers).permutation(candidates)[:40]
        for method in BOUNDED:
            pruned, calls = walk(monkeypatch, A, method, 60, auc_keys)
            unpruned, _ = walk(monkeypatch, A, method, 60, auc_keys, bounded=False)
            assert_same_walk(pruned, unpruned)
            assert pruned[2][-1] == 0.0
            assert scored_keys(calls, n) == set(every.tolist()), method

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pruned_walk_equals_unpruned_on_a_hub_graph(self, monkeypatch, workers):
        monkeypatch.setattr(adjacency, "_workers", lambda: workers)
        lst = toy_list(hub_toy())
        split = split_by_time(lst, 0.9)
        cfg = SnapshotConfig(period=200.0)
        params = DecayParams(p=3.0, q=1.0)
        A = build_adjacency(
            split.train, snapshot_index(split.t_split, cfg), params, cfg, pair_layout(split.train)
        )
        candidates = build_candidates(split, lst.node_count, 3)
        auc_keys = np.concatenate([candidates.positives, candidates.sampled_negatives])
        n = A.n
        for cells in (2**21, 3000):
            monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
            for method in BOUNDED:
                for top_l in (1, 100):
                    pruned, calls = walk(monkeypatch, A, method, top_l, auc_keys)
                    unpruned, _ = walk(monkeypatch, A, method, top_l, auc_keys, bounded=False)
                    assert_same_walk(pruned, unpruned)
                    assert_pruned(calls, n, cells, (method, top_l))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_global_cclp_pruned_walk_equals_unpruned(self, monkeypatch, workers):
        """Global CCLP's bound, ``(P @ 1/C(d, 2)) * m``, leaves pairs out
        and keeps the unbounded walk's AUC scores and top L; neither walk
        builds the triangle mass that only local CCLP scores with."""
        monkeypatch.setattr(adjacency, "_workers", lambda: workers)
        lst = toy_list(hub_toy())
        split = split_by_time(lst, 0.9)
        cfg = SnapshotConfig(period=200.0)
        A = build_adjacency(
            split.train, snapshot_index(split.t_split, cfg), DecayParams(p=3.0, q=1.0), cfg,
            pair_layout(split.train),
        )
        candidates = build_candidates(split, lst.node_count, 3)
        auc_keys = np.concatenate([candidates.positives, candidates.sampled_negatives])
        n, cclp = A.n, MethodId.CCLP_ASF

        def unbuilt(A):
            raise AssertionError("global CCLP built the triangle mass")

        monkeypatch.setattr(scoring, "_triangle_mass", unbuilt)
        beta = scoring.score_bound(A, degree_vector(A), cclp, "global")
        A.operands.clear()
        assert beta.shape == (n,)
        for cells in (2**21, 3000):
            monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
            for top_l in (1, 100):
                pruned, calls = walk(monkeypatch, A, cclp, top_l, auc_keys, cclp_mode="global")
                unpruned, _ = walk(
                    monkeypatch, A, cclp, top_l, auc_keys, bounded=False, cclp_mode="global"
                )
                assert_same_walk(pruned, unpruned)
                assert_pruned(calls, n, cells, top_l)


    @pytest.mark.parametrize("workers", [1, 3])
    def test_tlpss_and_ja_walks_equal_unpruned(self, monkeypatch, workers):
        """TLPSS's bound, ``(M @ 1 + P @ (h/w))/2``, and JA's
        1/2 keep the unpruned walk's AUC scores and top L, key for key and
        bit for bit, under the adjusted sigmoid with and without a floor,
        exponential decay and the latest-link aggregation; TLPSS's leaves
        pairs out."""
        monkeypatch.setattr(adjacency, "_workers", lambda: workers)
        lst = toy_list(hub_toy())
        split = split_by_time(lst, 0.9)
        cfg = SnapshotConfig(period=200.0)
        layout = pair_layout(split.train)
        candidates = build_candidates(split, lst.node_count, 3)
        auc_keys = np.concatenate([candidates.positives, candidates.sampled_negatives])
        T = snapshot_index(split.t_split, cfg)
        settings = [
            (DecayParams(p=3.0, q=1.0), "sum"),
            (DecayParams(p=3.0, q=0.0), "sum"),
            (ExpDecayParams(theta=0.4), "sum"),
            (DecayParams(p=3.0, q=1.0), "latest"),
        ]
        for params, agg in settings:
            A = build_adjacency(split.train, T, params, cfg, layout, agg)
            n = A.n
            for cells in (2**21, 3000):
                monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
                for method in (MethodId.TLPSS, MethodId.JA_ASF):
                    for top_l in (1, 10):
                        pruned, calls = walk(monkeypatch, A, method, top_l, auc_keys)
                        unpruned, _ = walk(monkeypatch, A, method, top_l, auc_keys, bounded=False)
                        assert_same_walk(pruned, unpruned)
                        if method is MethodId.TLPSS:
                            assert_pruned(calls, n, cells, (params, agg, top_l))


class TestZeroTail:
    """No cell of score 0 enters the running top; a walk whose top holds
    fewer than L cells completes it with the smallest unlinked keys outside
    it, all of score 0."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cells", [2**21, 7])
    def test_top_equals_a_full_lexsort(self, monkeypatch, workers, cells):
        monkeypatch.setattr(adjacency, "_workers", lambda: workers)
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
        # a square with one diagonal (CAR scores the pair across it), a
        # star, two lone links and four isolated nodes: a few dozen of the
        # 110 candidate pairs score above 0
        n = 16
        A = unit_adjacency(n, [
            (0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (4, 5), (4, 6), (4, 7), (8, 9), (10, 11),
        ])
        D = degree_vector(A)
        ii, jj = np.triu_indices(n, k=1)
        linked = np.isin(pair_key(ii, jj, n), A.layout.keys)
        ii, jj = ii[~linked], jj[~linked]
        keys = pair_key(ii, jj, n)
        assert len(keys) == 110
        auc_keys = np.random.default_rng(workers).permutation(keys)[:30]
        is_positive = np.isin(keys, auc_keys[:10])
        for method in (MethodId.CN_ASF, MethodId.CAR_ASF, MethodId.JA_ASF):
            full = score_matrix(A, D, method, range(n), range(n))
            A.operands.clear()
            scores = full[ii, jj]
            positive = np.count_nonzero(scores > 0)
            for L in (positive + 1, 40, 110):
                assert 0 < positive < L, (method, L)
                (auc_scores, top_keys, top_scores), _ = walk(monkeypatch, A, method, L, auc_keys)
                assert np.array_equal(auc_scores, full.ravel()[auc_keys])
                order = np.lexsort((keys, -scores))[:L]
                assert top_keys.tolist() == keys[order].tolist(), (method, L)
                assert np.array_equal(top_scores, scores[order])
                assert not top_scores[positive:].any()
                precision = _precision_from_arrays(
                    top_keys, top_scores, np.isin(top_keys, auc_keys[:10]), L
                )
                assert precision == lexsort_precision(ii, jj, scores, is_positive, L)

    def test_first_unlinked_equals_brute_force(self):
        rng = np.random.default_rng(5)
        for n in range(1, 13):
            ii, jj = np.triu_indices(n, k=1)
            every = pair_key(ii, jj, n)
            sizes = {0, 1, len(every) // 3, len(every) - 1, len(every)}
            for size in sorted(sizes & set(range(len(every) + 1))):
                excluded = np.sort(rng.choice(every, size, replace=False))
                free = np.setdiff1d(every, excluded)
                for count in range(len(every) + 1):
                    got = evaluation._first_unlinked(n, excluded, count)
                    assert got.dtype == np.int64 and got.tolist() == free[:count].tolist()


class TestOneBlock:
    """A walk holds one score block at a time: no block that score_matrix
    returned is alive when the next is scored."""

    @pytest.mark.parametrize("method", [MethodId.TLPSS, MethodId.CN_ASF])
    def test_each_block_is_freed_before_the_next(self, monkeypatch, method):
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", 100)
        blocks = []
        score = evaluation.score_matrix

        def held(*args):
            assert all(block() is None for block in blocks)
            out = score(*args)
            blocks.append(weakref.ref(out))
            return out

        monkeypatch.setattr(evaluation, "score_matrix", held)
        lst = toy_list(community_toy(seed=17))
        (report,) = evaluate_methods(
            lst, period=200.0, decay=DecayParams(p=3.0, q=1.0), methods=[method], seed=5,
        )
        # blocks in bound order
        assert len(blocks) > 10
        assert all(block() is None for block in blocks)


@pytest.mark.parametrize("cclp_mode", ["local", "global"])
def test_a_matrix_of_one_block_is_one_call_per_method(monkeypatch, cclp_mode):
    """Where the whole matrix fits one block, a walk's first block holds
    every pair i < j: each method is one score_matrix call per decay
    setting, which the benchmark's traced call count relies on."""
    calls = []
    score = evaluation.score_matrix

    def counted(A, D, method, rows, cols, cclp_mode):
        calls.append((method, len(rows), len(cols)))
        return score(A, D, method, rows, cols, cclp_mode)

    monkeypatch.setattr(evaluation, "score_matrix", counted)
    lst = toy_list(community_toy(seed=17))
    n = lst.node_count
    assert n * n <= evaluation._BLOCK_CELLS
    kwargs = dict(
        period=200.0, decay=DecayParams(p=3.0, q=1.0), methods=list(ALL_METHODS),
        cclp_mode=cclp_mode, seed=5,
    )
    one_each = [(method, n - 1, n) for method in ALL_METHODS]
    evaluate_methods(lst, **kwargs)
    assert calls == one_each
    calls.clear()
    sweep(lst, "q", [0.0, 1.0], **kwargs)
    assert calls == 2 * one_each


def copy_and_partition_top(flat, L, floor, keys):
    """The top L cells above ``floor`` from a copy of every score above it,
    partitioned whole: the selection ``_top_cells`` must keep."""
    above = flat > floor
    pool = flat[above]
    if len(pool) <= L:
        return np.flatnonzero(above)
    pool.partition(len(pool) - L)
    cut = pool[len(pool) - L]
    best = np.flatnonzero(flat >= cut)
    tied = flat[best] == cut
    ties = best[tied]
    room = L - (len(best) - len(ties))
    if len(ties) > room:
        ties = ties[np.argsort(keys(ties), kind="stable")]
    return np.concatenate([best[~tied], ties[:room]])


class TestTopCells:
    """A block's top L cells come from a pool of at most L + _PART scores,
    never a copy of the block, and are the cells a copy of every score
    above the floor selects."""

    def test_selection_equals_copy_and_partition(self, monkeypatch):
        monkeypatch.setattr(adjacency, "_PART", 64)
        rng = np.random.default_rng(29)
        partition = np.partition
        for size in (1, 63, 64, 65, 130, 500, 1001, 4099):
            # long runs of ties, zeros and cells set to -inf
            values = np.r_[0.0, -np.inf, 1.0, 2.0, 2.5, 3.0, rng.random(5) * 4.0]
            flat = rng.choice(values, size, p=[0.3, 0.1] + [0.6 / 9] * 9)
            flat[rng.random(size) < 0.2] = rng.random() * 4.0
            perm = rng.permutation(size)

            def keys(cells):
                return perm[cells]

            for L in (1, 7, 100):
                for floor in (0.0, 1.5, flat.max() + 1.0):
                    sizes = []

                    def spy(a, kth, *args, **kwargs):
                        sizes.append(len(a))
                        return partition(a, kth, *args, **kwargs)

                    with monkeypatch.context() as patched:
                        patched.setattr(np, "partition", spy)
                        got = evaluation._top_cells(flat, L, floor, keys)
                    want = copy_and_partition_top(flat, L, floor, keys)
                    assert got.dtype == want.dtype and got.tolist() == want.tolist()
                    above = np.count_nonzero(flat > floor)
                    assert len(got) == min(L, above)
                    # the cut is found only among more than L scores, and
                    # from at most L + _PART of them at once
                    assert bool(sizes) == (above > L), (size, L, floor)
                    assert max(sizes, default=0) <= L + 64

    def test_traced_memory_of_a_full_block(self):
        flat = np.random.default_rng(31).random(2**21) + 0.5
        tracemalloc.start()
        try:
            got = evaluation._top_cells(flat, 100, 0.0, lambda cells: cells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a copy of the block's 2**21 scores above the floor is 16 MB
        assert peak < 8 * 2**20
        want = copy_and_partition_top(flat, 100, 0.0, lambda cells: cells)
        assert got.tolist() == want.tolist()


def test_peak_memory_below_half_a_dense_matrix():
    """Evaluating all methods on a sparse 5,000-node graph allocates less
    than half of one dense n x n float64 matrix at its peak."""
    rng = np.random.default_rng(23)
    n, rows = 5000, 12_000
    lst = normalize(
        TemporalEdgeList(
            rng.integers(0, n, rows), rng.integers(0, n, rows), np.arange(1, rows + 1), n
        )
    )
    tracemalloc.start()
    try:
        evaluate_methods(
            lst, period=100.0, decay=DecayParams(p=3.0, q=1.0), methods=list(ALL_METHODS)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n
