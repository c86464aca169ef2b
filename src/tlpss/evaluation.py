"""Candidate sets, AUC, precision@L, experiment runs and parameter sweeps.

Evaluation is always against a time-ordered split: positives are the pairs
that appear in the test period without having been linked in train, the
negative universe is every pair linked in neither.  AUC compares positive
against negative scores (exhaustively via the rank statistic when feasible,
otherwise by seeded sampling); precision@L is the hit rate among the L
highest-scoring pairs of the non-train-linked candidate universe, selected
without sorting it, with ties at the cut taken in canonical (i, j) order.

Pairs are handled as sorted int64 keys (:func:`tlpss.edges.pair_key`); a
key is also the flat index of the pair's cell in a dense score matrix, so
scores are gathered with one ``take``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

from .adjacency import build_adjacency, degree_vector
from .decay import DecayParams, ExpDecayParams
from .edges import (
    SnapshotConfig,
    TemporalEdgeList,
    TrainTestSplit,
    pair_key,
    snapshot_index,
    split_by_time,
    upper_triangle_keys,
)
from .errors import ConfigError, EvaluationError
from .scoring import MethodId, score_matrix

__all__ = [
    "CandidateSet",
    "EvalReport",
    "build_candidates",
    "auc",
    "evaluate_methods",
    "sweep",
]

# Defaults for negative sampling and AUC comparisons.
MAX_NEGATIVES_CAP = 1_000_000
NEGATIVES_PER_POSITIVE = 10
AUC_EXHAUSTIVE_LIMIT = 10_000_000
AUC_SAMPLES = 672_400


@dataclass(frozen=True)
class CandidateSet:
    """Positive pairs (sorted), sampled (draw order) or exhaustive (sorted)
    negative pairs, all as :func:`~tlpss.edges.pair_key` keys, and the size
    of the full negative universe the negatives were drawn from."""

    positives: np.ndarray
    sampled_negatives: np.ndarray
    universe_size: int
    node_count: int
    seed: int
    exhaustive: bool


@dataclass(frozen=True)
class EvalReport:
    """Outcome of one (method, parameters, split) evaluation."""

    method: str
    decay: dict
    snapshot: dict
    split: dict
    auc: float
    precision: float
    top_l: int
    comparisons: int
    n_positives: int
    n_sampled_negatives: int
    negative_universe: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    CSV_FIELDS = (
        "method",
        "p",
        "q",
        "a",
        "theta",
        "period",
        "ratio",
        "auc",
        "precision",
        "top_l",
        "comparisons",
        "n_positives",
        "seed",
    )

    def csv_row(self) -> list:
        return [
            self.method,
            self.decay.get("p", ""),
            self.decay.get("q", ""),
            self.decay.get("a", ""),
            self.decay.get("theta", ""),
            self.snapshot["period"],
            self.split["ratio"],
            self.auc,
            self.precision,
            self.top_l,
            self.comparisons,
            self.n_positives,
            self.seed,
        ]


def _upper_keys_without(n: int, sorted_keys: np.ndarray) -> np.ndarray:
    """Sorted keys of every pair among ``n`` nodes except ``sorted_keys``."""
    universe = upper_triangle_keys(n)
    return np.delete(universe, np.searchsorted(universe, sorted_keys))


def build_candidates(
    split: TrainTestSplit,
    node_count: int,
    seed: int,
    max_negatives: int | None = None,
) -> CandidateSet:
    """Positives from the split plus negatives drawn uniformly without
    replacement from pairs linked in neither train nor test.

    When the whole universe fits under ``max_negatives`` it is enumerated
    instead of sampled.  The default budget is
    ``min(universe, 10 * positives, 1e6)``.
    """
    positives = split.positives
    if not len(positives):
        raise EvaluationError("no new links in the test period; nothing to predict")
    n = node_count
    linked = np.union1d(split.train.pair_keys(), split.test.pair_keys())
    universe_size = n * (n - 1) // 2 - len(linked)
    if universe_size <= 0:
        raise EvaluationError("graph is complete; there are no negative pairs")
    if max_negatives is None:
        max_negatives = min(
            universe_size, NEGATIVES_PER_POSITIVE * len(positives), MAX_NEGATIVES_CAP
        )
    if max_negatives < 1:
        raise EvaluationError("negative sample budget must be at least 1")

    exhaustive = universe_size <= max_negatives
    if exhaustive:
        chosen = _upper_keys_without(n, linked)
    else:
        # Draw batches of node pairs; keep each unlinked pair the first time
        # it is drawn, in draw order, until the budget is met.
        rng = np.random.default_rng(seed)
        chosen = np.empty(0, dtype=np.int64)
        while len(chosen) < max_negatives:
            batch = int((max_negatives - len(chosen)) * 2.2) + 64
            a = rng.integers(0, n, size=batch)
            b = rng.integers(0, n, size=batch)
            keys = pair_key(a, b, n)[a != b]
            unlinked = linked.take(np.searchsorted(linked, keys), mode="clip") != keys
            keys = np.concatenate([chosen, keys[unlinked]])
            _, first = np.unique(keys, return_index=True)
            chosen = keys[np.sort(first)[:max_negatives]]
    return CandidateSet(
        positives=positives,
        sampled_negatives=chosen,
        universe_size=universe_size,
        node_count=n,
        seed=seed,
        exhaustive=exhaustive,
    )


def auc(
    pos_scores: Sequence[float],
    neg_scores: Sequence[float],
    n_comparisons: int | None = None,
    seed: int = 0,
) -> float:
    """Probability that a positive outscores a negative, ties counted half.

    ``n_comparisons=None`` compares every positive against every negative
    (computed via the rank statistic); an integer draws that many positive/
    negative index pairs with replacement using the seed.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise EvaluationError("AUC needs at least one positive and one negative score")
    if n_comparisons is None:
        ranks = rankdata(np.concatenate([pos, neg]))
        u = ranks[: len(pos)].sum() - len(pos) * (len(pos) + 1) / 2.0
        return float(u / (len(pos) * len(neg)))
    if n_comparisons < 1:
        raise EvaluationError("n_comparisons must be at least 1")
    rng = np.random.default_rng(seed)
    ps = pos[rng.integers(0, len(pos), size=n_comparisons)]
    ns = neg[rng.integers(0, len(neg), size=n_comparisons)]
    wins = np.count_nonzero(ps > ns)
    ties = np.count_nonzero(ps == ns)
    return float((wins + 0.5 * ties) / n_comparisons)


def _precision_from_arrays(
    keys: np.ndarray, scores: np.ndarray, is_positive: np.ndarray, L: int
) -> float:
    if L < 1:
        raise EvaluationError("L must be at least 1")
    if len(scores) < L:
        raise EvaluationError(f"only {len(scores)} candidates for precision@{L}")
    # The top L by descending score, ties at the cut taken in canonical
    # (i, j) order, i.e. by pair key: the first L of lexsort((keys, -scores)),
    # without the sort.  Most baselines score most pairs 0, and partition
    # degenerates on a long run of equal values, so the cut is sought among
    # the positive scores whenever L of them exist.
    pool = scores[scores > 0]
    if len(pool) < L:
        pool = scores
    cut = np.partition(pool, len(pool) - L)[len(pool) - L]
    above = scores > cut
    tied = np.flatnonzero(scores == cut)
    need = L - np.count_nonzero(above)
    if need < len(tied):
        tied = tied[np.argpartition(keys[tied], need - 1)[:need]]
    hits = np.count_nonzero(is_positive & above) + np.count_nonzero(is_positive[tied])
    return float(hits / L)


@dataclass
class _Prepared:
    """Split, snapshot frame and candidate keys shared across runs."""

    split: TrainTestSplit
    cfg: SnapshotConfig
    reference: float
    candidates: CandidateSet
    cand_keys: np.ndarray  # full non-train-linked universe, for precision
    cand_positive: np.ndarray
    ratio: float


def _prepare(
    edges: TemporalEdgeList,
    period: float,
    origin: float,
    ratio: float,
    seed: int,
    max_negatives: int | None,
) -> _Prepared:
    split = split_by_time(edges, ratio)
    cfg = SnapshotConfig(period=period, origin=origin)
    reference = snapshot_index(split.t_split, cfg)
    if not np.isfinite(reference):
        raise ConfigError(
            f"period {period!r} is too small for this data's time span: "
            "snapshot indices overflow"
        )
    candidates = build_candidates(split, edges.node_count, seed, max_negatives)
    cand_keys = _upper_keys_without(edges.node_count, np.unique(split.train.pair_keys()))
    cand_positive = np.zeros(len(cand_keys), dtype=bool)
    cand_positive[np.searchsorted(cand_keys, split.positives)] = True
    return _Prepared(
        split=split,
        cfg=cfg,
        reference=reference,
        candidates=candidates,
        cand_keys=cand_keys,
        cand_positive=cand_positive,
        ratio=ratio,
    )


def _decay_dict(params: DecayParams | ExpDecayParams) -> dict:
    if isinstance(params, DecayParams):
        return {"mode": "asf", "p": params.p, "q": params.q, "a": params.a}
    return {"mode": "exp", "theta": params.theta}


def _run_prepared(
    prep: _Prepared,
    decay: DecayParams | ExpDecayParams,
    methods: Sequence[MethodId],
    top_l: int,
    seed: int,
    auc_exhaustive_limit: int,
    auc_samples: int,
    agg: str,
    cclp_mode: str,
) -> list[EvalReport]:
    A = build_adjacency(prep.split.train, prep.reference, decay, prep.cfg, agg=agg)
    D = degree_vector(A)
    split_stats = {
        "train_edges": len(prep.split.train),
        "test_edges": len(prep.split.test),
        "t_split": prep.split.t_split,
        "n_positives": len(prep.split.positives),
        "ratio": prep.ratio,
    }
    snapshot = {"period": prep.cfg.period, "origin": prep.cfg.origin}
    reports = []
    for method in methods:
        # a pair key is the flat index of the pair's cell
        m = score_matrix(A, D, method, latent_params=decay, cclp_mode=cclp_mode).ravel()
        pos_scores = m.take(prep.candidates.positives)
        neg_scores = m.take(prep.candidates.sampled_negatives)
        n_pairs = len(pos_scores) * len(neg_scores)
        if n_pairs <= auc_exhaustive_limit:
            auc_value = auc(pos_scores, neg_scores)
            comparisons = n_pairs
        else:
            auc_value = auc(pos_scores, neg_scores, n_comparisons=auc_samples, seed=seed)
            comparisons = auc_samples
        prec = _precision_from_arrays(
            prep.cand_keys, m.take(prep.cand_keys), prep.cand_positive, top_l
        )
        reports.append(
            EvalReport(
                method=method.value,
                decay=_decay_dict(decay),
                snapshot=snapshot,
                split=split_stats,
                auc=auc_value,
                precision=prec,
                top_l=top_l,
                comparisons=comparisons,
                n_positives=len(prep.candidates.positives),
                n_sampled_negatives=len(prep.candidates.sampled_negatives),
                negative_universe=prep.candidates.universe_size,
                seed=seed,
            )
        )
    return reports


def evaluate_methods(
    edges: TemporalEdgeList,
    *,
    period: float,
    decay: DecayParams | ExpDecayParams,
    methods: Sequence[MethodId],
    origin: float = 1.0,
    ratio: float = 0.9,
    seed: int = 0,
    top_l: int = 100,
    max_negatives: int | None = None,
    auc_exhaustive_limit: int = AUC_EXHAUSTIVE_LIMIT,
    auc_samples: int = AUC_SAMPLES,
    agg: str = "sum",
    cclp_mode: str = "local",
) -> list[EvalReport]:
    """Run the full pipeline (split, decayed adjacency, scoring, AUC and
    precision@L) for each method on a normalized edge list."""
    prep = _prepare(edges, period, origin, ratio, seed, max_negatives)
    return _run_prepared(
        prep,
        decay,
        methods,
        top_l,
        seed,
        auc_exhaustive_limit,
        auc_samples,
        agg,
        cclp_mode,
    )


def sweep(
    edges: TemporalEdgeList,
    param: str,
    values: Sequence[float],
    *,
    period: float,
    decay: DecayParams,
    methods: Sequence[MethodId],
    origin: float = 1.0,
    ratio: float = 0.9,
    seed: int = 0,
    top_l: int = 100,
    max_negatives: int | None = None,
    auc_exhaustive_limit: int = AUC_EXHAUSTIVE_LIMIT,
    auc_samples: int = AUC_SAMPLES,
    agg: str = "sum",
    cclp_mode: str = "local",
) -> list[EvalReport]:
    """Re-run every method across a range of ``p`` or ``q`` values, holding
    the split and the sampled candidate set fixed so rows are comparable."""
    if param not in ("p", "q"):
        raise ConfigError(f"sweep parameter must be 'p' or 'q', got {param!r}")
    if not isinstance(decay, DecayParams):
        raise ConfigError("sweeps over p or q require adjusted-sigmoid decay")
    if not values:
        raise ConfigError("sweep needs at least one value")
    prep = _prepare(edges, period, origin, ratio, seed, max_negatives)
    reports: list[EvalReport] = []
    for value in values:
        params = replace(decay, **{param: float(value)})
        reports.extend(
            _run_prepared(
                prep,
                params,
                methods,
                top_l,
                seed,
                auc_exhaustive_limit,
                auc_samples,
                agg,
                cclp_mode,
            )
        )
    return reports
