"""Output checks for the benchmark.

Each ``check_*`` function takes the artifacts of one CLI invocation and
returns ``(problems, results)``: an empty problem list means the artifacts
passed, and ``results`` holds the values that are compared with the ones
recorded at the seed commit (``reference.json``).  Counts are checked
against the benchmark's own numpy recount of the generated rows, so they
hold for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

from gen import Generated, format_rows

RATIO = 0.9
NEGATIVES_PER_POSITIVE = 10
MAX_NEGATIVES = 1_000_000


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


@dataclass(frozen=True)
class Expected:
    """What a correct run must report for one generated input."""

    nodes: int
    lines: int
    edges_kept: int
    self_loops: int
    train_edges: int
    test_edges: int
    t_split: int  # in normalized time (earliest kept edge at 1)
    positives: int
    universe: int
    sampled_negatives: int
    normalized_sha256: str


def recount(g: Generated) -> Expected:
    """Normalization, time split, positives and negative universe,
    recomputed from the generated rows."""
    ids = np.unique(np.concatenate([g.src, g.dst]))
    n = len(ids)
    keep = g.src != g.dst
    order = np.argsort(g.ts[keep], kind="stable")
    lo = np.minimum(g.src, g.dst)[keep][order]
    hi = np.maximum(g.src, g.dst)[keep][order]
    ts = g.ts[keep][order]
    ts = ts - ts[0] + 1
    m = len(ts)
    uniq, counts = np.unique(ts, return_counts=True)
    t_split = int(uniq[np.searchsorted(np.cumsum(counts), RATIO * m)])
    n_train = int(np.searchsorted(ts, t_split, side="right"))
    keys = lo * (int(ids[-1]) + 1) + hi
    train_keys = np.unique(keys[:n_train])
    test_keys = np.unique(keys[n_train:])
    positives = int(np.setdiff1d(test_keys, train_keys, assume_unique=True).size)
    universe = n * (n - 1) // 2 - int(np.union1d(train_keys, test_keys).size)
    return Expected(
        nodes=n,
        lines=len(g.src) + g.header_lines,
        edges_kept=m,
        self_loops=g.self_loops,
        train_edges=n_train,
        test_edges=m - n_train,
        t_split=t_split,
        positives=positives,
        universe=universe,
        sampled_negatives=min(universe, NEGATIVES_PER_POSITIVE * positives, MAX_NEGATIVES),
        normalized_sha256=hashlib.sha256(format_rows(lo, hi, ts)).hexdigest(),
    )


def _load(name: str, data: bytes, problems: list):
    try:
        return strict_json(data.decode())
    except ValueError as exc:
        problems.append(f"{name}: not strict JSON ({exc})")
        return None


def _check_reports(doc: dict, exp: Expected, methods: list, top_l: int, problems: list):
    if doc.get("input_sha256") != exp.normalized_sha256:
        problems.append("input_sha256 differs from the recounted normalized input")
    reports = doc.get("reports")
    if not isinstance(reports, list):
        problems.append("no report list")
        return []
    got = [r.get("method") for r in reports]
    if got != methods:
        problems.append(f"methods {got} != {methods}")
    split = {
        "train_edges": exp.train_edges,
        "test_edges": exp.test_edges,
        "t_split": exp.t_split,
        "n_positives": exp.positives,
    }
    fields = {
        "n_positives": exp.positives,
        "n_sampled_negatives": exp.sampled_negatives,
        "negative_universe": exp.universe,
        "top_l": top_l,
    }
    for r in reports:
        tag = r.get("method")
        for key, want in split.items():
            if r.get("split", {}).get(key) != want:
                problems.append(f"{tag}: split.{key} = {r.get('split', {}).get(key)} != {want}")
        for key, want in fields.items():
            if r.get(key) != want:
                problems.append(f"{tag}: {key} = {r.get(key)} != {want}")
        for key in ("auc", "precision"):
            v = r.get(key)
            if not isinstance(v, float) or not 0.0 <= v <= 1.0:
                problems.append(f"{tag}: {key} = {v!r} is not a number in [0, 1]")
    return reports


def compare(results: dict, reference: dict | None) -> list:
    """Problems if results differ from the values recorded for this seed."""
    if reference is None or results == reference:
        return []
    keys = sorted(k for k in set(results) | set(reference) if results.get(k) != reference.get(k))
    return [f"differs from the recorded reference at {', '.join(keys[:5])}"]


def check_evaluate(files: dict, stdout: str, exp: Expected, methods: list, top_l: int):
    problems: list[str] = []
    doc = _load("report.json", files["report.json"], problems)
    printed = _load("stdout", stdout.encode(), problems)
    if doc is None or printed is None:
        return problems, None
    reports = _check_reports(doc, exp, methods, top_l, problems)
    if problems:
        return problems, None
    if printed != reports:
        problems.append("stdout reports differ from report.json")
    results = {r["method"]: [r["auc"], r["precision"]] for r in reports}
    rows = csv.DictReader(io.StringIO(files["results.csv"].decode()))
    table = {r["method"]: [float(r["auc"]), float(r["precision"])] for r in rows}
    if table != results:
        problems.append("results.csv disagrees with report.json")
    return problems, results


def check_sweep(
    files: dict, stdout: str, exp: Expected, values: list, top_l: int, out_dir: str
):
    problems: list[str] = []
    doc = _load("sweep_reports.json", files["sweep_reports.json"], problems)
    if doc is None:
        return problems, None
    reports = _check_reports(doc, exp, ["TLPSS"] * len(values), top_l, problems)
    if problems:
        return problems, None
    swept = [r.get("decay", {}).get("q") for r in reports]
    if swept != values:
        problems.append(f"swept q values {swept} != {values}")
    results = {f"{r['method']} q={r['decay']['q']!r}": [r["auc"], r["precision"]] for r in reports}
    rows = csv.DictReader(io.StringIO(files["sweep.csv"].decode()))
    table = {
        f"{r['method']} q={float(r['value'])!r}": [float(r["auc"]), float(r["precision"])]
        for r in rows
    }
    if table != results:
        problems.append("sweep.csv disagrees with sweep_reports.json")
    if stdout.strip() != f"wrote {len(values)} sweep rows to {out_dir}/sweep.csv":
        problems.append(f"unexpected stdout {stdout.strip()[:120]!r}")
    return problems, results


def check_ingest(files: dict, stdout: str, exp: Expected):
    problems: list[str] = []
    drop = _load("drop report", files["normalized.tsv.report.json"], problems)
    if drop is None:
        return problems, None
    want = {
        "lines_read": exp.lines,
        "edges_kept": exp.edges_kept,
        "missing_ts_dropped": 0,
        "self_loops_dropped": exp.self_loops,
    }
    if drop != want:
        problems.append(f"drop report {drop} != {want}")
    digest = hashlib.sha256(files["normalized.tsv"]).hexdigest()
    if digest != exp.normalized_sha256:
        problems.append("normalized output differs from the recounted normalization")
    line = (
        f"kept {exp.edges_kept} edges over {exp.nodes} nodes "
        f"(0 without timestamps, {exp.self_loops} self-loops dropped)"
    )
    if stdout.strip() != line:
        problems.append(f"unexpected stdout {stdout.strip()[:120]!r}")
    return problems, {"output_sha256": digest}
