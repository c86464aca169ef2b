"""Acceptance suite.

Criteria 1-5 are self-contained property checks and always run.  Criteria
6-9 reproduce desk-scale results on the six public datasets (available at
http://konect.cc/networks/); they look for the files under $TLPSS_DATA_DIR
(default ./data) and skip with an explanation when a dataset is missing.

Run with ``pytest tests/test_acceptance.py -s`` to see one status line per
criterion.
"""

import math
import os
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from tlpss.adjacency import build_adjacency, degree_vector, latent_matrix, pair_layout
from tlpss.cli import DEFAULT_PERIODS, parse_period
from tlpss.decay import DecayParams, asf_array, asf_floor, asf_log_margin
from tlpss.edges import (
    SnapshotConfig,
    load_edge_list,
    normalize,
    pair_key,
    snapshot_index,
)
from tlpss.evaluation import _precision_from_arrays, auc, evaluate_methods
from tlpss.oracle import naive_score, random_decay, random_toy
from tlpss.scoring import ALL_METHODS, MethodId, score_matrix

from conftest import edge_list

# Below this log-margin the ASF value sits closer to its floor than one
# float64 ulp and saturates; strictness there is asserted on the stable
# log-margin, which never saturates.
LOG_REPRESENTABLE = math.log(1e-12)


def _report(cid, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {cid} ({name}): {status} {detail}".rstrip())
    assert passed, f"criterion {cid} ({name}) failed {detail}"


def _skip(cid, name, reason):
    print(f"[acceptance] criterion {cid} ({name}): SKIP ({reason})")
    pytest.skip(f"criterion {cid}: {reason}")


# ----------------------------------------------------------------------
# Criterion 1: decay-function properties on a randomized grid
# ----------------------------------------------------------------------


def test_criterion_1_asf_properties():
    started = time.monotonic()
    rng = np.random.default_rng(20240901)
    strict_seen = 0
    for _ in range(1000):
        p = float(rng.uniform(0, 20)) or 20.0  # uniform over (0, 20]
        q = float(rng.uniform(0, 10))
        x = float(rng.uniform(0, 1e4))
        params = DecayParams(p=p, q=q, a=5.0)
        value = asf_array(x, params)
        floor = asf_floor(params)
        upper = (1.0 / (1.0 + math.exp(-5.0)) + q) / (q + 1.0)
        margin = asf_log_margin(x, params)

        # bounded above; above the floor (the log-margin is finite for every
        # finite x, and the value itself clears the floor wherever float64
        # can resolve the gap)
        assert value <= upper
        assert value >= floor
        assert math.isfinite(margin)
        if margin > LOG_REPRESENTABLE:
            assert value > floor
            strict_seen += 1

        # strict monotone decrease in x
        x2 = x + float(rng.uniform(1e-3, 1e3))
        assert asf_array(x2, params) <= value
        assert asf_log_margin(x2, params) < margin

        # pointwise increase in p for x > 0
        if x > 0:
            params2 = DecayParams(p=p + float(rng.uniform(0.01, 5.0)), q=q, a=5.0)
            assert asf_array(x, params2) >= value
            assert asf_log_margin(x, params2) > margin

    # value-space strictness on grids whose steps are far above resolution
    for seed in range(20):
        prng = np.random.default_rng(seed)
        params = DecayParams(p=float(prng.uniform(1, 20)), q=float(prng.uniform(0, 10)))
        xs = np.linspace(0.0, 30.0 * params.p, 64)
        vals = asf_array(xs, params)
        assert np.all(np.diff(vals) < 0)

    elapsed = time.monotonic() - started
    _report(
        1,
        "asf properties",
        elapsed < 1.0 and strict_seen > 0,
        f"(1000 samples, {strict_seen} value-strict, {elapsed:.2f}s)",
    )


# ----------------------------------------------------------------------
# Criterion 2: latent weights stay strictly below the decay floor
# ----------------------------------------------------------------------


def test_criterion_2_latent_weight_bound():
    started = time.monotonic()
    rng = np.random.default_rng(77)
    cells = 0
    for trial in range(500):
        toy = random_toy(seed=9000 + trial, max_nodes=20)
        params = DecayParams(
            p=float(rng.uniform(0.5, 10)),
            q=float(rng.uniform(0.05, 10)),
            a=float(rng.uniform(2, 8)),
        )
        lst = normalize(edge_list(toy.edges, toy.n))
        if len(lst) == 0:
            continue
        cfg = SnapshotConfig(period=toy.period)
        A = build_adjacency(lst, snapshot_index(lst.t_max, cfg), params, cfg, pair_layout(lst))
        floor = asf_floor(params)
        P = A.indicator_csr
        common = (P @ P).tocsr()
        B = latent_matrix(A).tocoo()
        for i, j, b in zip(B.row, B.col, B.data):
            assert A.weight_csr[i, j] == 0.0
            assert common[i, j] > 0
            assert 0.0 < b < floor
            scale = b / floor
            assert 0.0 <= scale <= 1.0
            cells += 1
    elapsed = time.monotonic() - started
    _report(
        2,
        "latent-weight bound",
        elapsed < 10.0 and cells > 10_000,
        f"({cells} cells in {elapsed:.2f}s)",
    )


# ----------------------------------------------------------------------
# Criteria 3 and 4: oracle equivalence and the q=0 reduction
# ----------------------------------------------------------------------


def _sample_pairs(rng, n, k):
    pairs = set()
    while len(pairs) < k:
        i, j = rng.integers(0, n, 2)
        if i != j:
            pairs.add((min(int(i), int(j)), max(int(i), int(j))))
    return sorted(pairs)


def _toy_stack(toy, params):
    lst = normalize(edge_list(toy.edges, toy.n))
    cfg = SnapshotConfig(period=toy.period)
    A = build_adjacency(lst, snapshot_index(lst.t_max, cfg), params, cfg, pair_layout(lst))
    return lst, A, degree_vector(A)


def test_criterion_3_oracle_equivalence():
    started = time.monotonic()
    worst = 0.0
    for trial in range(200):
        toy = random_toy(seed=31000 + trial, max_nodes=50)
        params = random_decay(seed=32000 + trial, allow_exp=False)
        _, A, D = _toy_stack(toy, params)
        rng = np.random.default_rng(trial)
        pairs = _sample_pairs(rng, toy.n, 6)
        for method in ALL_METHODS:
            m = score_matrix(A, D, method, range(A.n), range(A.n))
            for x, y in pairs:
                got = m[x, y]
                ref = naive_score(method, toy, params, x, y)
                err = abs(got - ref) / max(abs(ref), 1e-30)
                worst = max(worst, err)
                assert err <= 1e-9, (trial, method, (x, y), got, ref)
    elapsed = time.monotonic() - started
    _report(
        3,
        "oracle equivalence",
        elapsed < 60.0,
        f"(200 toys, worst rel err {worst:.1e}, {elapsed:.1f}s)",
    )


def test_criterion_4_q_zero_reduction():
    checked = 0
    for trial in range(200):
        toy = random_toy(seed=31000 + trial, max_nodes=50)
        base = random_decay(seed=32000 + trial, allow_exp=False)
        params = DecayParams(p=base.p, q=0.0, a=base.a)
        _, A, D = _toy_stack(toy, params)
        m = score_matrix(A, D, MethodId.TLPSS, range(A.n), range(A.n))
        W = A.weight_csr
        rng = np.random.default_rng(trial)
        for x, y in _sample_pairs(rng, toy.n, 6):
            cn = np.intersect1d(W[x].indices, W[y].indices)
            two_sided = 0.5 * (
                sum(W[x, int(z)] / D.w[int(z)] for z in cn)
                + sum(W[y, int(z)] / D.w[int(z)] for z in cn)
            )
            assert m[x, y] == two_sided
            checked += 1
    _report(4, "q=0 reduction", True, f"(exact equality on {checked} pairs)")


# ----------------------------------------------------------------------
# Criterion 5: evaluation correctness
# ----------------------------------------------------------------------


def test_criterion_5_evaluation_correctness():
    rng = np.random.default_rng(55)

    # exhaustive AUC (rank statistic) equals the literal double loop, exactly
    for _ in range(25):
        pos = rng.integers(0, 7, size=int(rng.integers(1, 40))).astype(float)
        neg = rng.integers(0, 7, size=int(rng.integers(1, 40))).astype(float)
        brute = sum(
            1.0 if p > n_ else 0.5 if p == n_ else 0.0 for p in pos for n_ in neg
        ) / (len(pos) * len(neg))
        assert auc(pos, neg) == brute

    # sampled AUC within 0.01 of exhaustive at n = 200,000, fixed seed
    pos = rng.normal(1.0, 1.0, size=600)
    neg = rng.normal(0.0, 1.2, size=1500)
    exact = auc(pos, neg)
    sampled = auc(pos, neg, n_comparisons=200_000, seed=123)
    gap = abs(exact - sampled)
    assert gap < 0.01

    # monotone-transform invariance for AUC and precision@L
    keys = pair_key(*np.triu_indices(14, k=1), 14)
    scores = np.round(rng.uniform(0, 2, size=len(keys)), 2)
    is_positive = np.zeros(len(keys), dtype=bool)
    is_positive[np.flatnonzero(scores > 1.0)[:20]] = True
    base_prec = _precision_from_arrays(keys, scores, is_positive, 15)
    base_auc = auc(scores[:30], scores[30:])
    for transform in (lambda v: 2 * v + 7, lambda v: v**3):
        assert _precision_from_arrays(keys, transform(scores), is_positive, 15) == base_prec
        assert auc(transform(scores[:30]), transform(scores[30:])) == base_auc

    _report(5, "evaluation correctness", True, f"(sampled-vs-exhaustive gap {gap:.4f})")


# ----------------------------------------------------------------------
# Criteria 6-9: desk-scale reproduction on the six public datasets
# ----------------------------------------------------------------------

DATASETS = ("contact", "dblp", "digg", "enron", "facebook", "prosper")
OPTIMAL_P = {
    "contact": 3.0,
    "dblp": 1.0,
    "digg": 10.0,
    "enron": 2.5,
    "facebook": 5.0,
    "prosper": 7.0,
}
_ALIASES = {
    "contact": ("contact",),
    "dblp": ("dblp", "dblp-cite", "dblp_cite"),
    "digg": ("digg", "munmun_digg_reply", "digg-reply"),
    "enron": ("enron",),
    "facebook": ("facebook", "facebook-wosn-links"),
    "prosper": ("prosper", "prosper-loans"),
}


def _data_dir() -> Path:
    return Path(os.environ.get("TLPSS_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def _find_dataset(name: str) -> Path | None:
    root = _data_dir()
    if not root.is_dir():
        return None
    for alias in _ALIASES[name]:
        for candidate in (
            root / alias,
            root / f"{alias}.tsv",
            root / f"{alias}.txt",
            root / alias / f"out.{alias}",
        ):
            if candidate.is_file():
                return candidate
        folder = root / alias
        if folder.is_dir():
            hits = sorted(folder.glob("out.*"))
            if hits:
                return hits[0]
    return None


@lru_cache(maxsize=None)
def _dataset(name: str):
    path = _find_dataset(name)
    if path is None:
        return None
    edges, _ = load_edge_list(path)
    return edges


@lru_cache(maxsize=None)
def _run(name: str, p: float, q: float, methods: tuple[str, ...], top_l: int = 100):
    edges = _dataset(name)
    reports = evaluate_methods(
        edges,
        period=parse_period(DEFAULT_PERIODS[name]),
        decay=DecayParams(p=p, q=q, a=5.0),
        methods=[MethodId(m) for m in methods],
        ratio=0.9,
        seed=0,
        top_l=top_l,
    )
    return {r.method: r for r in reports}


def _require(cid, cname, names):
    missing = [n for n in names if _dataset(n) is None]
    if missing:
        _skip(
            cid,
            cname,
            f"dataset(s) not found: {', '.join(missing)}; place KONECT files under "
            f"{_data_dir()} or set TLPSS_DATA_DIR",
        )


def test_criterion_6_contact_tlpss_auc():
    name = "contact tlpss auc"
    _require(6, name, ["contact"])
    started = time.monotonic()
    report = _run("contact", p=3.0, q=1.0, methods=("TLPSS",))["TLPSS"]
    elapsed = time.monotonic() - started
    _report(
        6,
        name,
        report.auc >= 0.93 and elapsed < 300,
        f"(auc={report.auc:.4f}, {elapsed:.0f}s)",
    )


def test_criterion_7_tlpss_dominates_ra():
    name = "tlpss vs ra dominance"
    _require(7, name, DATASETS)
    wins = []
    for ds in DATASETS:
        reports = _run(ds, p=OPTIMAL_P[ds], q=1.0, methods=("TLPSS", "RA_ASF"))
        wins.append(reports["TLPSS"].auc > reports["RA_ASF"].auc)
    detail = ", ".join(f"{ds}:{'W' if w else 'L'}" for ds, w in zip(DATASETS, wins))
    _report(7, name, sum(wins) >= 5, f"({detail})")


def test_criterion_8_q_ablation():
    name = "q ablation"
    _require(8, name, DATASETS)
    jumps = {}
    stable_ok = True
    detail = []
    for ds in DATASETS:
        aucs = {
            q: _run(ds, p=OPTIMAL_P[ds], q=float(q), methods=("TLPSS",))["TLPSS"].auc
            for q in (0, 1, 3, 4, 5, 6, 7, 8, 9, 10)
        }
        jumps[ds] = aucs[1] - aucs[0]
        stable = [aucs[q] for q in range(3, 11)]
        spread = max(stable) - min(stable)
        stable_ok = stable_ok and spread < 0.01
        detail.append(f"{ds}: jump={jumps[ds]:+.3f} spread={spread:.4f}")
    ok = jumps["digg"] >= 0.02 and jumps["facebook"] >= 0.02 and stable_ok
    _report(8, name, ok, "(" + "; ".join(detail) + ")")


def test_criterion_9_precision_sanity():
    name = "precision sanity"
    _require(9, name, ["contact", "enron"])
    cn_contact = _run("contact", p=3.0, q=1.0, methods=("CN_ASF",), top_l=100)["CN_ASF"]
    tlpss_enron = _run("enron", p=2.5, q=1.0, methods=("TLPSS",), top_l=100)["TLPSS"]
    ok = cn_contact.precision >= 0.9 and tlpss_enron.precision >= 0.5
    _report(
        9,
        name,
        ok,
        f"(contact CN precision@100={cn_contact.precision:.3f}, "
        f"enron TLPSS precision@100={tlpss_enron.precision:.3f})",
    )
