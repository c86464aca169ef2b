"""Candidate sets, AUC, precision@L, experiment runs and parameter sweeps.

Evaluation is always against a time-ordered split: positives are the pairs
that appear in the test period without having been linked in train, the
negative universe is every pair linked in neither.  AUC compares positive
against negative scores (exhaustively via the rank statistic when feasible,
otherwise by seeded sampling); precision@L is the hit rate among the L
highest-scoring pairs of the non-train-linked candidate universe, with ties
at the cut taken in canonical (i, j) order.

Pairs are handled as sorted int64 keys (:func:`tlpss.edges.pair_key`); a
key is also the flat index of the pair's cell in the n x n score matrix.
Evaluation never holds that matrix, nor scores its cells j < i: it scores
the upper trapezoids of blocks of consecutive rows, rows [r0, r1) by
columns [r0, n), at most ``_BLOCK_CELLS`` cells each, gathers the
positives' and negatives' scores whose keys fall in the block, and merges
the block's best cells into a running top L for precision@L.  Once that top
holds L cells, a block offers it only the cells above its L-th score.  One
lexsort by (score descending, key ascending), :func:`_top`, orders both the
running top and the L pairs precision@L counts.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .adjacency import build_adjacency, degree_vector, pair_layout
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

# Cells of the score matrix evaluation holds at once: one trapezoid block,
# 16 MB of float64 per array of the block.
_BLOCK_CELLS = 2**21

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
        # it is drawn, in draw order, until the budget is met.  ``excluded``
        # (the linked and chosen keys, sorted) changes only when a batch adds
        # keys, which is rare near the end of a budget close to the universe.
        rng = np.random.default_rng(seed)
        chosen, excluded = np.empty(0, dtype=np.int64), linked
        while len(chosen) < max_negatives:
            batch = int((max_negatives - len(chosen)) * 2.2) + 64
            a = rng.integers(0, n, size=batch)
            b = rng.integers(0, n, size=batch)
            keys = pair_key(a, b, n)[a != b]
            keys = keys[excluded.take(np.searchsorted(excluded, keys), mode="clip") != keys]
            _, first = np.unique(keys, return_index=True)
            new = keys[np.sort(first)[: max_negatives - len(chosen)]]
            if len(new):
                chosen = np.concatenate([chosen, new])
                new = np.sort(new)
                excluded = np.insert(excluded, np.searchsorted(excluded, new), new)
    return CandidateSet(
        positives=positives,
        sampled_negatives=chosen,
        universe_size=universe_size,
        exhaustive=exhaustive,
    )


def _mid_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, each tie group given the mean of the ranks it
    spans (what ``scipy.stats.rankdata`` returns by default)."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    start = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    end = np.r_[start[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (start + end + 1), end - start)
    return ranks


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
        ranks = _mid_ranks(np.concatenate([pos, neg]))
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


def _top(keys: np.ndarray, scores: np.ndarray, L: int) -> np.ndarray:
    """Indices of the top L candidates by descending score, ties taken in
    canonical (i, j) order, i.e. by ascending pair key."""
    return np.lexsort((keys, -scores))[:L]


def _precision_from_arrays(
    keys: np.ndarray, scores: np.ndarray, is_positive: np.ndarray, L: int
) -> float:
    if L < 1:
        raise EvaluationError("L must be at least 1")
    if len(scores) < L:
        raise EvaluationError(f"only {len(scores)} candidates for precision@{L}")
    return float(np.count_nonzero(is_positive[_top(keys, scores, L)]) / L)


def _top_cells(flat: np.ndarray, L: int, floor: float) -> np.ndarray:
    """Indices of the top L cells above ``floor`` by descending score, ties
    at the cut taken in ascending index (key) order; with fewer than L
    cells above the floor, all of them.  Scores are >= 0 and cells set to
    -inf are not candidates."""
    # most baselines score most cells 0, and partition degenerates on a
    # long run of equal values, so the cut is sought among the positive
    # scores above the floor; with fewer than L of them all are taken, and
    # below a negative floor the first cells of score 0 fill the top
    cut = max(floor, 0.0)
    above = flat > cut
    pool = flat[above]
    if len(pool) >= L:
        pool.partition(len(pool) - L)
        cut = pool[len(pool) - L]
    elif cut == floor:
        return np.flatnonzero(above)
    best = np.flatnonzero(flat >= cut)
    # the cells above the cut, then the first of those at it
    return best[np.argsort(flat[best] == cut, kind="stable")[:L]]


def _decay_dict(params: DecayParams | ExpDecayParams) -> dict:
    if isinstance(params, DecayParams):
        return {"mode": "asf", "p": params.p, "q": params.q, "a": params.a}
    return {"mode": "exp", "theta": params.theta}


def _run(
    edges: TemporalEdgeList,
    decays: Sequence[DecayParams | ExpDecayParams],
    *,
    period: float,
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
    """Reports of every method under each decay parameter set in turn, all
    on one split and one candidate set.  These keywords and defaults are
    the options of :func:`evaluate_methods` and :func:`sweep`."""
    split = split_by_time(edges, ratio)
    cfg = SnapshotConfig(period=period, origin=origin)
    reference = snapshot_index(split.t_split, cfg)
    if not np.isfinite(reference):
        raise ConfigError(
            f"period {period!r} is too small for this data's time span: "
            "snapshot indices overflow"
        )
    candidates = build_candidates(split, edges.node_count, seed, max_negatives)
    # the latent plan pays for itself only when TLPSS is scored under more
    # than one decay setting; under one, each latent pass streams its blocks
    layout = pair_layout(split.train, keep_plan=len(decays) > 1)
    n = edges.node_count
    if top_l < 1:
        raise EvaluationError("L must be at least 1")
    universe = n * (n - 1) // 2 - len(layout.keys)
    if universe < top_l:
        raise EvaluationError(f"only {universe} candidates for precision@{top_l}")
    # trapezoid blocks: rows [r0, r1) by columns [r0, n), at most
    # _BLOCK_CELLS cells each; their keys are ascending from block to block
    starts = [0]
    while starts[-1] < n:
        r0 = starts[-1]
        starts.append(min(n, r0 + max(1, _BLOCK_CELLS // (n - r0))))
    starts = np.array(starts)

    def offsets(keys):
        """Where each block's keys start in the sorted ``keys``, and each
        key's offset in its block's flat cells: pair (i, j) is cell
        (i - r0, j - r0) of the block that starts at row r0."""
        i, j = np.divmod(keys, n)
        r0 = starts[np.searchsorted(starts, i, side="right") - 1]
        return np.searchsorted(keys, starts * n), (i - r0) * (n - r0) + (j - r0)

    positives = candidates.positives
    neg_order = np.argsort(candidates.sampled_negatives, kind="stable")
    negatives = candidates.sampled_negatives[neg_order]
    (pos_at, pos_off), (neg_at, neg_off), (train_at, train_off) = (
        offsets(keys) for keys in (positives, negatives, layout.keys)
    )
    split_stats = {
        "train_edges": len(split.train),
        "test_edges": len(split.test),
        "t_split": split.t_split,
        "n_positives": len(split.positives),
        "ratio": ratio,
    }
    snapshot = {"period": cfg.period, "origin": cfg.origin}
    reports = []
    for k, decay in enumerate(decays):
        A = build_adjacency(split.train, reference, decay, cfg, agg=agg, layout=layout)
        D = degree_vector(A)
        for method in methods:
            pos_scores = np.empty(len(positives))
            neg_scores = np.empty(len(negatives))
            top_keys, top_scores = np.empty(0, dtype=np.int64), np.empty(0)
            for b, (r0, r1) in enumerate(zip(starts[:-1], starts[1:])):
                block = score_matrix(
                    A, D, method, latent_params=decay, cclp_mode=cclp_mode, rows=(r0, r1)
                )
                if r1 == n:
                    A.operands.clear()
                    # a kept latent plan serves TLPSS under every parameter
                    # set; it is freed once TLPSS is scored for the last one
                    if method is MethodId.TLPSS and k == len(decays) - 1:
                        vars(layout).pop("latent_plan", None)
                flat = block.ravel()
                lo, hi = pos_at[b : b + 2]
                pos_scores[lo:hi] = flat.take(pos_off[lo:hi])
                lo, hi = neg_at[b : b + 2]
                neg_scores[neg_order[lo:hi]] = flat.take(neg_off[lo:hi])
                # the precision universe is every pair not linked in train:
                # the block's leading triangle (j <= i) and train-linked
                # cells are out
                h = r1 - r0
                block[:, :h][np.tri(h, dtype=bool)] = -np.inf
                lo, hi = train_at[b : b + 2]
                flat[train_off[lo:hi]] = -np.inf
                # once the top holds L cells, a cell that ties its L-th
                # score has a larger key than every held cell, so only cells
                # above it can enter; before that, every candidate can
                floor = top_scores[-1] if len(top_keys) == top_l else -np.inf
                best = _top_cells(flat, top_l, floor)
                a, c = np.divmod(best, n - r0)
                # the top L of a union is the top L of the parts' top Ls, so
                # merging block by block selects what one pass would
                top_keys = np.concatenate([top_keys, (a + r0) * n + c + r0])
                top_scores = np.concatenate([top_scores, flat[best]])
                keep = _top(top_keys, top_scores, top_l)
                top_keys, top_scores = top_keys[keep], top_scores[keep]
            n_pairs = len(pos_scores) * len(neg_scores)
            if n_pairs <= auc_exhaustive_limit:
                auc_value = auc(pos_scores, neg_scores)
                comparisons = n_pairs
            else:
                auc_value = auc(
                    pos_scores, neg_scores, n_comparisons=auc_samples, seed=seed
                )
                comparisons = auc_samples
            prec = _precision_from_arrays(
                top_keys, top_scores, np.isin(top_keys, positives), top_l
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
                    n_positives=len(candidates.positives),
                    n_sampled_negatives=len(candidates.sampled_negatives),
                    negative_universe=candidates.universe_size,
                    seed=seed,
                )
            )
    return reports


def _forward(name: str, edges, decays, options: dict) -> list[EvalReport]:
    """``_run(edges, decays, **options)`` for the public function ``name``,
    which a ``TypeError`` for an unknown or missing option names."""
    try:
        inspect.signature(_run).bind(edges, decays, **options)
    except TypeError as e:
        raise TypeError(f"{name}() {e}") from None
    return _run(edges, decays, **options)


def evaluate_methods(
    edges: TemporalEdgeList, *, decay: DecayParams | ExpDecayParams, **options
) -> list[EvalReport]:
    """Run the full pipeline (split, decayed adjacency, scoring, AUC and
    precision@L) for each method on a normalized edge list.

    The ``options``, all keywords:

    - ``period`` (required): the snapshot length, in timestamp units;
    - ``methods`` (required): the :class:`~tlpss.scoring.MethodId` values
      to score, one report each, in this order;
    - ``origin=1.0``: the timestamp of snapshot 0;
    - ``ratio=0.9``: the share of edges, in time order, in the train part;
    - ``seed=0``: seeds negative sampling and sampled AUC;
    - ``top_l=100``: the L of precision@L;
    - ``max_negatives=None``: the negative sample budget (``None`` is
      ``min(universe, 10 * positives, 1e6)``);
    - ``auc_exhaustive_limit=10000000``: AUC compares every positive with
      every negative up to this many pairs, else samples;
    - ``auc_samples=672400``: the comparisons of sampled AUC;
    - ``agg='sum'``: ``'sum'`` or ``'latest'``, see
      :func:`~tlpss.adjacency.build_adjacency`;
    - ``cclp_mode='local'``: ``'local'`` or ``'global'`` CCLP.

    Any other keyword raises ``TypeError``."""
    return _forward("evaluate_methods", edges, [decay], options)


def sweep(
    edges: TemporalEdgeList,
    param: str,
    values: Sequence[float],
    *,
    decay: DecayParams,
    **options,
) -> list[EvalReport]:
    """Re-run every method across a range of ``p`` or ``q`` values, holding
    the split and the sampled candidate set fixed so rows are comparable.

    The ``options`` are those of :func:`evaluate_methods`, with the same
    defaults: ``period`` and ``methods`` (required), ``origin``, ``ratio``,
    ``seed``, ``top_l``, ``max_negatives``, ``auc_exhaustive_limit``,
    ``auc_samples``, ``agg`` and ``cclp_mode``; any other keyword raises
    ``TypeError``.  The two-hop latent plan is built once and serves
    TLPSS under every value."""
    if param not in ("p", "q"):
        raise ConfigError(f"sweep parameter must be 'p' or 'q', got {param!r}")
    if not isinstance(decay, DecayParams):
        raise ConfigError("sweeps over p or q require adjusted-sigmoid decay")
    if not values:
        raise ConfigError("sweep needs at least one value")
    decays = [replace(decay, **{param: float(value)}) for value in values]
    return _forward("sweep", edges, decays, options)
