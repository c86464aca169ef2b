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
Evaluation never holds that matrix: for each method it walks blocks of an
order of the nodes, rows [a0, a1) by columns [a0, k), at most
``_BLOCK_CELLS`` cells each and one at a time (a block is freed before the
next is scored), gathers the positives' and negatives' scores that fall in
each block, and merges the block's best cells into a running top L for
precision@L.  The cut is the top's L-th score once it holds L cells, and
0 before.  Every walk offers the top, by one rule (:func:`_top_cells`), a
block's best L cells of positive score at or above the cut, found from a
pool of at most L + ``adjacency._PART`` of the block's scores, never a
copy of the block.  Every method has a per-node bound, ``S[x, y] <=
min(b[x], b[y])`` (:func:`~tlpss.scoring.score_bound`), and every walk
takes its nodes by decreasing bound, the first block one row against every
node, and then the upper triangle of the first k nodes, those whose bound
can still reach the cut; the AUC pairs outside the scored blocks are scored
directly (:func:`~tlpss.scoring.score_pairs`), with the whole matrix's
bits.  A top that holds fewer than L cells when the walk ends holds every
pair of positive score, and the smallest unlinked keys outside it, all of
score 0, complete it.  One lexsort by (score descending, key
ascending), :func:`_top`, orders both the running top and the L pairs
precision@L counts.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import adjacency
from .adjacency import build_adjacency, degree_vector, pair_layout
from .decay import DecayParams, ExpDecayParams
from .edges import (
    SnapshotConfig,
    TemporalEdgeList,
    TrainTestSplit,
    distinct,
    pair_key,
    snapshot_index,
    split_by_time,
)
from .errors import ConfigError, EvaluationError
from .scoring import MethodId, score_bound, score_matrix, score_pairs

__all__ = [
    "CandidateSet",
    "EvalReport",
    "build_candidates",
    "auc",
    "evaluate_methods",
    "sweep",
]

# Cells of the score matrix evaluation holds at once: one block of a walk,
# 16 MB of float64 per array of the block.  A walk frees each block before
# it scores the next, and finds a block's top L from a pool of at most
# L + adjacency._PART of its scores.
_BLOCK_CELLS = 2**21

# The relative margin by which a pair's bound must fall below the cut for
# the pair to be skipped: a score and its bound are sums of the same terms
# in different orders, which round apart by about n * 2**-53 at most.
_MARGIN = 1e-9

# Defaults for negative sampling and AUC comparisons.
MAX_NEGATIVES_CAP = 1_000_000
NEGATIVES_PER_POSITIVE = 10
AUC_EXHAUSTIVE_LIMIT = 10_000_000
AUC_SAMPLES = 672_400


@dataclass(frozen=True)
class CandidateSet:
    """Positive pairs (sorted), sampled (draw order) or exhaustive (sorted)
    negative pairs, all as :func:`~tlpss.edges.pair_key` keys, and the size
    of the full negative universe the negatives were drawn from; the
    negatives are exhaustive when there are ``universe_size`` of them."""

    positives: np.ndarray
    sampled_negatives: np.ndarray
    universe_size: int


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
        """The values of :attr:`CSV_FIELDS`, each a field of the report or
        of its ``decay``, ``snapshot`` or ``split``, ``""`` where absent."""
        own = {**self.split, **self.snapshot, **self.decay, **vars(self)}
        return [own.get(name, "") for name in self.CSV_FIELDS]


def _first_unlinked(n: int, excluded: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` smallest keys ``i * n + j``, ``i < j``, that are not in
    the sorted key array ``excluded``, in ascending order."""
    # at most len(excluded) of the first count + len(excluded) keys are
    # excluded; the t-th key, in row i, is t + (i + 1)(i + 2) / 2
    m = min(count + len(excluded), n * (n - 1) // 2)
    sizes = np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = int(np.searchsorted(np.cumsum(sizes), m)) + 1
    row = np.repeat(np.arange(rows, dtype=np.int64), sizes[:rows])[:m]
    keys = np.arange(m, dtype=np.int64) + (row + 1) * (row + 2) // 2
    return keys[np.isin(keys, excluded, assume_unique=True, invert=True)][:count]


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
    linked = distinct(np.concatenate([split.train.pair_keys(), split.test.pair_keys()]))
    universe_size = n * (n - 1) // 2 - len(linked)
    if universe_size <= 0:
        raise EvaluationError("graph is complete; there are no negative pairs")
    if max_negatives is None:
        max_negatives = min(
            universe_size, NEGATIVES_PER_POSITIVE * len(positives), MAX_NEGATIVES_CAP
        )
    if max_negatives < 1:
        raise EvaluationError("negative sample budget must be at least 1")

    if universe_size <= max_negatives:
        chosen = _first_unlinked(n, linked, universe_size)
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
    return CandidateSet(positives=positives, sampled_negatives=chosen, universe_size=universe_size)


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


def _top_cells(flat: np.ndarray, L: int, floor: float, keys) -> np.ndarray:
    """Indices of the top L cells above ``floor`` by descending score, ties
    at the cut taken in ascending key order, ``keys(cells)`` giving their
    pair keys.  With at most L cells above the floor, all of them.  The
    floor is >= 0, so cells of score 0 and cells set to -inf are never
    taken.  The L-th score above the floor, the cut, is found from a pool
    of at most L + ``_PART`` scores, never a copy of the block."""
    # most baselines score most cells 0, and partition degenerates on a
    # long run of equal values, so the cut is sought among the scores above
    # the floor
    above = flat > floor
    count = np.count_nonzero(above)
    if count <= L:
        return np.flatnonzero(above)
    if count <= L + adjacency._PART:
        pool = flat[above]
    else:
        # a part at a time, each offering the pool only its scores above the
        # pool's L-th, which no score at or below can change
        pool, low = np.empty(0), floor
        for a in range(0, len(flat), adjacency._PART):
            part = flat[a : a + adjacency._PART]
            pool = np.concatenate([pool, part[part > low]])
            if len(pool) > L:
                pool = np.partition(pool, len(pool) - L)[len(pool) - L :]
                low = pool[0]
    del above
    cut = np.partition(pool, len(pool) - L)[len(pool) - L]
    best = np.flatnonzero(flat >= cut)
    tied = flat[best] == cut
    ties = best[tied]
    room = L - (len(best) - len(ties))
    if len(ties) > room:
        ties = ties[np.argsort(keys(ties), kind="stable")]
    # the cells above the cut, then the first of those at it
    return np.concatenate([best[~tied], ties[:room]])


def _method_top(A, D, method, *, cclp_mode, top_l, auc_keys, train_keys):
    """One method's scores of the pairs ``auc_keys`` and its top ``top_l``
    pairs not linked in train (keys and scores, by :func:`_top`).

    Rows are walked in blocks of at most ``_BLOCK_CELLS`` cells, rows
    ``[a0, a1)`` by columns ``[a0, k)`` of an order of the nodes, each
    scored by :func:`score_matrix` once the previous block is freed, so the
    walk holds one block and its top's pool of at most L + ``_PART``
    scores (:func:`_top_cells`).  The cut is the top's L-th score once
    it holds L cells, 0 before, and every block offers the top, by one
    rule, its best L cells of positive score at or above the cut.  The
    nodes go by decreasing per-node bound (:func:`score_bound`, ``S[x, y]
    <= min(b[x], b[y])``): the first block is one row against every node,
    and then the upper triangle of the first k nodes, those whose bound can
    still reach the cut; a pair is skipped only when its bound is below the
    cut by more than a relative ``_MARGIN``.  A walk that ends with fewer
    than L cells in the top has scored every pair, so the smallest keys not
    linked in train and not in the top, all of score 0, complete it.  The
    pairs of ``auc_keys`` outside the scored blocks are scored by
    :func:`score_pairs`."""
    n = A.n
    bound = score_bound(A, D, method, cclp_mode)
    order = np.argsort(-bound, kind="stable")
    pos = np.argsort(order)  # the position of each node in the order
    down = -bound[order]

    def by_row(keys):
        """Each pair's two positions in the order, smaller first, sorted by
        the first, and the permutation that sorts them."""
        i, j = np.divmod(keys, n)
        a, b = pos[i], pos[j]
        a, b = np.minimum(a, b), np.maximum(a, b)
        s = np.argsort(a, kind="stable")
        return a[s], b[s], s

    auc_a, auc_b, auc_s = by_row(auc_keys)
    train_a, train_b, _ = by_row(train_keys)
    scores = np.empty(len(auc_keys))
    done = np.zeros(len(auc_keys), dtype=bool)
    top_keys, top_scores = np.empty(0, dtype=np.int64), np.empty(0)
    a0 = 0
    while a0 < n:
        cut = top_scores[-1] if len(top_keys) == top_l else 0.0
        # the columns are the first k nodes, whose bound can reach the cut
        k = int(np.searchsorted(down, -cut * (1.0 - _MARGIN), side="right"))
        if a0 >= k - 1:
            break
        # the first row, against every node, sets the first cut
        rows = 1 if a0 == 0 else max(1, _BLOCK_CELLS // (k - a0))
        a1 = min(k - 1, a0 + rows)
        block = score_matrix(A, D, method, order[a0:a1], order[a0:k], cclp_mode)
        flat = block.ravel()
        lo, hi = np.searchsorted(auc_a, [a0, a1])
        t = lo + np.flatnonzero(auc_b[lo:hi] < k)
        scores[auc_s[t]] = flat.take((auc_a[t] - a0) * (k - a0) + auc_b[t] - a0)
        done[auc_s[t]] = True
        # the precision universe is every pair not linked in train: the
        # block's leading triangle (j <= i) and train-linked cells are out
        h = a1 - a0
        block[:, :h][np.tri(h, dtype=bool)] = -np.inf
        lo, hi = np.searchsorted(train_a, [a0, a1])
        t = lo + np.flatnonzero(train_b[lo:hi] < k)
        flat[(train_a[t] - a0) * (k - a0) + train_b[t] - a0] = -np.inf

        def keys(cells):
            a, c = np.divmod(cells, k - a0)
            return pair_key(order[a + a0], order[c + a0], n)

        # a cell at the cut may have a smaller key than a held one (in node
        # order it never has, and _top drops it), and none below it can
        # enter; a cut of 0 stays 0, so that no cell of score 0 enters
        best = _top_cells(flat, top_l, np.nextafter(cut, 0.0), keys)
        # the top L of a union is the top L of the parts' top Ls, so
        # merging block by block selects what one pass would
        top_keys = np.concatenate([top_keys, keys(best)])
        top_scores = np.concatenate([top_scores, flat[best]])
        keep = _top(top_keys, top_scores, top_l)
        top_keys, top_scores = top_keys[keep], top_scores[keep]
        # no view of this block may outlive it into the next one's scoring
        del block, flat, best
        a0 = a1
    if len(top_keys) < top_l:
        excluded = distinct(np.concatenate([train_keys, top_keys]))
        tail = _first_unlinked(n, excluded, top_l - len(top_keys))
        top_keys = np.concatenate([top_keys, tail])
        top_scores = np.concatenate([top_scores, np.zeros(len(tail))])
    rest = np.flatnonzero(~done)
    if len(rest):
        scores[rest] = score_pairs(A, D, method, auc_keys[rest], cclp_mode)
    return scores, top_keys, top_scores


def _decay_dict(params: DecayParams | ExpDecayParams) -> dict:
    return {"mode": "asf" if isinstance(params, DecayParams) else "exp", **asdict(params)}


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
    # than one decay setting; under one, each latent pass streams its row sets
    layout = pair_layout(split.train, keep_plan=len(decays) > 1)
    n = edges.node_count
    if top_l < 1:
        raise EvaluationError("L must be at least 1")
    universe = n * (n - 1) // 2 - len(layout.keys)
    if universe < top_l:
        raise EvaluationError(f"only {universe} candidates for precision@{top_l}")
    positives = candidates.positives
    auc_keys = np.concatenate([positives, candidates.sampled_negatives])
    split_stats = {
        "train_edges": len(split.train),
        "test_edges": len(split.test),
        "t_split": split.t_split,
        "n_positives": len(split.positives),
        "ratio": ratio,
    }
    snapshot = {"period": cfg.period, "origin": cfg.origin}
    reports = []
    for decay in decays:
        A = build_adjacency(split.train, reference, decay, cfg, layout, agg)
        D = degree_vector(A)
        for method in methods:
            scores, top_keys, top_scores = _method_top(
                A, D, method, cclp_mode=cclp_mode, top_l=top_l,
                auc_keys=auc_keys, train_keys=layout.keys,
            )
            A.operands.clear()
            pos_scores, neg_scores = scores[: len(positives)], scores[len(positives) :]
            n_pairs = len(pos_scores) * len(neg_scores)
            sampled = auc_samples if n_pairs > auc_exhaustive_limit else None
            auc_value = auc(pos_scores, neg_scores, n_comparisons=sampled, seed=seed)
            comparisons = sampled or n_pairs
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
