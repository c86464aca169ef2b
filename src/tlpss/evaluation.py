"""Candidate sets, AUC, precision@L, experiment runs and parameter sweeps.

Evaluation is always against a time-ordered split: positives are the pairs
that appear in the test period without having been linked in train, the
negative universe is every pair linked in neither.  AUC compares positive
against negative scores (exhaustively via the rank statistic when feasible,
otherwise by seeded sampling); precision@L ranks the full non-train-linked
candidate universe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

from .adjacency import build_adjacency, degree_vector
from .decay import DecayParams, ExpDecayParams
from .edges import (
    SnapshotConfig,
    TemporalEdgeList,
    TrainTestSplit,
    snapshot_index,
    split_by_time,
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
    """Positive pairs, a sampled (or exhaustive) negative pair list, and the
    size of the full negative universe they were drawn from."""

    positives: tuple[tuple[int, int], ...]
    sampled_negatives: tuple[tuple[int, int], ...]
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
        return {
            "method": self.method,
            "decay": self.decay,
            "snapshot": self.snapshot,
            "split": self.split,
            "auc": self.auc,
            "precision": self.precision,
            "top_l": self.top_l,
            "comparisons": self.comparisons,
            "n_positives": self.n_positives,
            "n_sampled_negatives": self.n_sampled_negatives,
            "negative_universe": self.negative_universe,
            "seed": self.seed,
        }

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


def _linked_bool(n: int, pairs, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.zeros((n, n), dtype=bool)
    if pairs:
        arr = np.array(sorted(pairs), dtype=np.int64)
        out[arr[:, 0], arr[:, 1]] = True
        out[arr[:, 1], arr[:, 0]] = True
    return out


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
    positives = tuple(sorted(split.positives))
    if not positives:
        raise EvaluationError("no new links in the test period; nothing to predict")
    n = node_count
    linked = split.train.linked_pairs() | split.test.linked_pairs()
    universe_size = n * (n - 1) // 2 - len(linked)
    if universe_size <= 0:
        raise EvaluationError("graph is complete; there are no negative pairs")
    if max_negatives is None:
        max_negatives = min(
            universe_size, NEGATIVES_PER_POSITIVE * len(positives), MAX_NEGATIVES_CAP
        )
    if max_negatives < 1:
        raise EvaluationError("negative sample budget must be at least 1")

    linked_mask = _linked_bool(n, linked)
    if universe_size <= max_negatives:
        iu, ju = np.triu_indices(n, k=1)
        keep = ~linked_mask[iu, ju]
        negatives = tuple(zip(iu[keep].tolist(), ju[keep].tolist()))
        return CandidateSet(
            positives=positives,
            sampled_negatives=negatives,
            universe_size=universe_size,
            node_count=n,
            seed=seed,
            exhaustive=True,
        )

    rng = np.random.default_rng(seed)
    chosen: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(chosen) < max_negatives:
        batch = int((max_negatives - len(chosen)) * 2.2) + 64
        a = rng.integers(0, n, size=batch)
        b = rng.integers(0, n, size=batch)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        ok = (lo != hi) & ~linked_mask[lo, hi]
        for u, v in zip(lo[ok].tolist(), hi[ok].tolist()):
            pair = (u, v)
            if pair in seen:
                continue
            seen.add(pair)
            chosen.append(pair)
            if len(chosen) == max_negatives:
                break
    return CandidateSet(
        positives=positives,
        sampled_negatives=tuple(chosen),
        universe_size=universe_size,
        node_count=n,
        seed=seed,
        exhaustive=False,
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
    ii: np.ndarray, jj: np.ndarray, scores: np.ndarray, is_positive: np.ndarray, L: int
) -> float:
    if L < 1:
        raise EvaluationError("L must be at least 1")
    if len(scores) < L:
        raise EvaluationError(f"only {len(scores)} candidates for precision@{L}")
    # Primary key: descending score; ties broken by canonical pair order.
    order = np.lexsort((jj, ii, -scores))
    return float(is_positive[order[:L]].sum() / L)


@dataclass
class _Prepared:
    """Split, snapshot frame and candidate arrays shared across runs."""

    split: TrainTestSplit
    cfg: SnapshotConfig
    reference: float
    candidates: CandidateSet
    pos_ii: np.ndarray
    pos_jj: np.ndarray
    neg_ii: np.ndarray
    neg_jj: np.ndarray
    cand_ii: np.ndarray  # full non-train-linked universe, for precision
    cand_jj: np.ndarray
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
    candidates = build_candidates(split, edges.node_count, seed, max_negatives)

    def pair_arrays(pairs):
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]

    pos_ii, pos_jj = pair_arrays(candidates.positives)
    neg_ii, neg_jj = pair_arrays(candidates.sampled_negatives)

    n = edges.node_count
    train_linked = _linked_bool(n, split.train.linked_pairs())
    iu, ju = np.triu_indices(n, k=1)
    keep = ~train_linked[iu, ju]
    cand_ii = iu[keep].astype(np.int64)
    cand_jj = ju[keep].astype(np.int64)
    pos_mask = _linked_bool(n, split.positives)
    cand_positive = pos_mask[cand_ii, cand_jj]
    return _Prepared(
        split=split,
        cfg=cfg,
        reference=reference,
        candidates=candidates,
        pos_ii=pos_ii,
        pos_jj=pos_jj,
        neg_ii=neg_ii,
        neg_jj=neg_jj,
        cand_ii=cand_ii,
        cand_jj=cand_jj,
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
        m = score_matrix(A, D, method, latent_params=decay, cclp_mode=cclp_mode)
        pos_scores = m[prep.pos_ii, prep.pos_jj]
        neg_scores = m[prep.neg_ii, prep.neg_jj]
        n_pairs = len(pos_scores) * len(neg_scores)
        if n_pairs <= auc_exhaustive_limit:
            auc_value = auc(pos_scores, neg_scores)
            comparisons = n_pairs
        else:
            auc_value = auc(pos_scores, neg_scores, n_comparisons=auc_samples, seed=seed)
            comparisons = auc_samples
        cand_scores = m[prep.cand_ii, prep.cand_jj]
        prec = _precision_from_arrays(
            prep.cand_ii, prep.cand_jj, cand_scores, prep.cand_positive, top_l
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
