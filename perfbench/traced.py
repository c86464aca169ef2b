"""Traced CLI invocation and the per-layer metrics computed from its spans.

Run as ``python traced.py SPANS_JSON CLI_ARG...``: installs timing wrappers
on each traced name in the module where its caller looks it up, runs
``tlpss.cli.main`` with the remaining arguments, and writes the spans and
the names it could not find to SPANS_JSON.  The program itself is not
changed; spans are recorded around the calls into each layer.

Each span is ``[name, start, end, parent, rss_before_kb, rss_after_kb,
counts]``, where ``parent`` indexes the enclosing span (-1 for the root) and
rss is the process's ``ru_maxrss`` high-water mark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import statistics
import sys
import time

# module -> names looked up there by their callers
TRACED = {
    "tlpss.cli": ["load_edge_list", "serialize", "evaluate_methods", "sweep"],
    "tlpss.edges": ["parse_edge_list", "normalize"],
    "tlpss.evaluation": [
        "split_by_time",
        "build_candidates",
        "build_adjacency",
        "degree_vector",
        "score_matrix",
        "auc",
        "_precision_from_arrays",  # precision over arrays has no public entry point
    ],
    "tlpss.scoring": ["latent_matrix"],
}
ROOT = "cli.main"

# counts taken from a call's bound arguments (a) and result (r)
_COUNTS = {
    "load_edge_list": lambda a, r: {
        "rows": r[1].lines_read,
        "edges_kept": r[1].edges_kept,
        "nodes": r[0].node_count,
    },
    "split_by_time": lambda a, r: {
        "train_edges": len(r.train),
        "test_edges": len(r.test),
        "positives": len(r.positives),
    },
    "build_candidates": lambda a, r: {
        "sampled_negatives": len(r.sampled_negatives),
        "universe": r.universe_size,
    },
    "build_adjacency": lambda a, r: {"pairs": len(r)},
    "degree_vector": lambda a, r: {
        "twohop_paths": int((r.d.astype("int64") * (r.d.astype("int64") - 1)).sum())
    },
    "latent_matrix": lambda a, r: {"latent_nnz": int(r.nnz)},
    "score_matrix": lambda a, r: {"method": a["method"].value, "dense_cells": int(r.size)},
    "auc": lambda a, r: {
        "comparisons": a.get("n_comparisons")
        or len(a["pos_scores"]) * len(a["neg_scores"])
    },
    "_precision_from_arrays": lambda a, r: {"ranked": len(a["scores"]), "top_l": a["L"]},
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, _maxrss_kb(), 0, {}]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            span[5] = _maxrss_kb()
            self.stack.pop()
        count = _COUNTS.get(name.split(".", 1)[1])
        if count is not None:
            try:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = count(bound.arguments, result)
            except (AttributeError, TypeError, KeyError, IndexError):
                span[6] = {"absent": True}
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            short = module_name.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.absent.append(f"{short}.{name}")
                else:
                    setattr(module, name, self.wrap(f"{short}.{name}", fn))


# span name -> per-layer time metric its self time adds to
SELF_TIME = {
    "cli.load_edge_list": "edges.parse_s",
    "edges.parse_edge_list": "edges.parse_s",
    "edges.normalize": "edges.normalize_s",
    "cli.serialize": "edges.serialize_s",
    "evaluation.split_by_time": "edges.split_s",
    "evaluation.build_adjacency": "adjacency.build_s",
    "evaluation.degree_vector": "adjacency.degree_s",
    "scoring.latent_matrix": "adjacency.latent_s",
    "evaluation.build_candidates": "evaluation.candidates_s",
    "evaluation.auc": "evaluation.auc_s",
    "evaluation._precision_from_arrays": "evaluation.precision_s",
    "cli.evaluate_methods": "evaluation.self_s",
    "cli.sweep": "evaluation.self_s",
    ROOT: "cli.self_s",
}
METHODS = ("TLPSS", "CN_ASF", "JA_ASF", "PA_ASF", "RA_ASF", "CAR_ASF", "CCLP_ASF")
LAYERS = ("edges", "adjacency", "scoring", "evaluation")
# per-graph sizes: the largest value seen over the calls
SIZES = {
    "rows": "edges.rows",
    "edges_kept": "edges.edges_kept",
    "nodes": "edges.nodes",
    "train_edges": "edges.train_edges",
    "test_edges": "edges.test_edges",
    "positives": "edges.positives",
    "pairs": "adjacency.pairs",
    "latent_nnz": "adjacency.latent_nnz",
    "twohop_paths": "adjacency.twohop_paths",
    "dense_cells": "scoring.dense_cells",
    "sampled_negatives": "evaluation.sampled_negatives",
    "universe": "evaluation.universe",
    "comparisons": "evaluation.auc_comparisons",
    "ranked": "evaluation.ranked_candidates",
}
CALLS = {
    "evaluation.build_adjacency": "adjacency.build_calls",
    "scoring.latent_matrix": "adjacency.latent_calls",
    "evaluation.score_matrix": "scoring.calls",
}
UNITS = {"_s": "s", "_mb": "MB", "_ratio": "ratio"}


def _layer(span_name: str, metric: str | None) -> str:
    if span_name == "evaluation.score_matrix":
        return "scoring"
    return (metric or span_name).split(".", 1)[0]


def self_times(spans: list) -> tuple[list[float], list[float]]:
    """Self time (s) and self maxrss rise (MB) of every span: its own value
    minus what its direct children cover."""
    secs = [s[2] - s[1] for s in spans]
    rise = [(s[5] - s[4]) / 1024.0 for s in spans]
    self_s, self_mb = list(secs), list(rise)
    for s, dur, mb in zip(spans, secs, rise):
        if s[3] >= 0:
            self_s[s[3]] -= dur
            self_mb[s[3]] -= mb
    return self_s, self_mb


def summarize(spans: list, traced_wall: float, untraced_walls: list, cpu_s: float) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    values: dict[str, float] = {}
    for name in set(SELF_TIME.values()) | {f"scoring.{m}_s" for m in METHODS}:
        values[name] = 0.0
    for name in list(SIZES.values()) + list(CALLS.values()):
        values[name] = 0
    for layer in LAYERS:
        values[f"{layer}.rss_rise_mb"] = 0.0

    self_s, self_mb = self_times(spans)
    for span, sec, mb in zip(spans, self_s, self_mb):
        name, counts = span[0], span[6]
        metric = SELF_TIME.get(name)
        if name == "evaluation.score_matrix" and "method" in counts:
            metric = f"scoring.{counts['method']}_s"
        if metric is not None:
            values[metric] = values.get(metric, 0.0) + sec
        layer = _layer(name, metric)
        if layer in LAYERS:
            values[f"{layer}.rss_rise_mb"] += mb
        if name in CALLS:
            values[CALLS[name]] += 1
        for key, metric_name in SIZES.items():
            if key in counts:
                values[metric_name] = max(values[metric_name], counts[key])

    def ratio(num, den):
        return num / den if den else 0.0

    gathered = values["edges.positives"] + values["evaluation.sampled_negatives"]
    values["scoring.useful_ratio"] = ratio(
        gathered + values["evaluation.ranked_candidates"], values["scoring.dense_cells"]
    )
    values["adjacency.latent_useful_ratio"] = ratio(
        values["adjacency.latent_nnz"], values["adjacency.twohop_paths"]
    )
    top_l = max((span[6].get("top_l", 0) for span in spans), default=0)
    values["evaluation.precision_useful_ratio"] = ratio(
        top_l, values["evaluation.ranked_candidates"]
    )
    values["process.cpu_s"] = cpu_s
    values["trace.overhead_s"] = traced_wall - statistics.median(untraced_walls)
    return {k: (v, unit_of(k)) for k, v in sorted(values.items())}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from tlpss import cli

    try:
        code = tracer.call(ROOT, cli.main, (cli_args,), {})
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
