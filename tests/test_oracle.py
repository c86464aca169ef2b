"""Self-checks of the brute-force reference implementations."""

import pytest

from tlpss.decay import DecayParams
from tlpss.edges import normalize
from tlpss.evaluation import evaluate_methods
from tlpss.oracle import (
    ToyGraph,
    exhaustive_auc,
    naive_hidden,
    naive_score,
    random_toy,
)
from tlpss.scoring import MethodId

from conftest import edge_list

PARAMS = DecayParams(p=2.0, q=1.0)


def fig_toy():
    pairs = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
             (1, 5), (0, 6), (0, 7), (5, 6), (5, 7)]
    return ToyGraph(n=8, edges=[(u, v, 10) for u, v in pairs])


class TestNaiveDefinitions:
    def test_hidden_sets_on_schematic(self):
        toy = fig_toy()
        assert naive_hidden(toy, PARAMS, 0, 1) == {5}
        assert naive_hidden(toy, PARAMS, 1, 0) == {6, 7}

    def test_q_zero_reduction_independent_route(self):
        """The no-floor reduction holds in the oracle's own algebra too."""
        from tlpss.oracle import _common, _dense, _wdeg

        toy = random_toy(123, max_nodes=20)
        params = DecayParams(p=1.5, q=0.0)
        A, _ = _dense(toy, params)
        cn = _common(A, 0, 1)
        two_sided = 0.5 * (
            sum(A[0, z] / _wdeg(A, z) for z in cn)
            + sum(A[1, z] / _wdeg(A, z) for z in cn)
        )
        assert naive_score(MethodId.TLPSS, toy, params, 0, 1) == two_sided

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            naive_score("CN", fig_toy(), PARAMS, 0, 1)


class TestExhaustiveAuc:
    def test_perfect_separation(self):
        # the only new test pair has a common neighbor; every negative pair
        # has no structure at all, so any CN-family score separates perfectly
        toy = ToyGraph(n=5, edges=[(0, 1, 1), (1, 2, 2), (0, 2, 3)])
        assert exhaustive_auc(toy, MethodId.CN_ASF, PARAMS, ratio=0.6) == 1.0

    def test_degenerate_toys_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_auc(ToyGraph(n=2, edges=[(0, 1, 5)]), MethodId.CN_ASF, PARAMS)

    def test_pipeline_sampled_auc_close_to_oracle(self):
        """Forcing the pipeline into sampled mode at 200k comparisons lands
        within 0.01 of the oracle's exhaustive value."""
        done = 0
        for seed in (801, 803, 809, 812):
            toy = random_toy(seed, max_nodes=16, min_nodes=12)
            try:
                ref = exhaustive_auc(toy, MethodId.CN_ASF, PARAMS, ratio=0.8)
            except ValueError:
                continue
            lst = normalize(
                edge_list(toy.edges, toy.n)
            )
            report = evaluate_methods(
                lst,
                period=toy.period,
                decay=PARAMS,
                methods=[MethodId.CN_ASF],
                ratio=0.8,
                top_l=1,
                max_negatives=10**9,
                auc_exhaustive_limit=0,  # force sampling
                auc_samples=200_000,
                seed=5,
            )[0]
            assert abs(report.auc - ref) < 0.01
            done += 1
        assert done >= 2
