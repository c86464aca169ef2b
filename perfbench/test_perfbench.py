"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import pytest

import check
import run
import traced
from gen import GraphSpec, generate

TINY = GraphSpec(nodes=60, rows=900)


def test_generator_is_deterministic_per_seed():
    data, g = generate(TINY, 7)
    again, _ = generate(TINY, 7)
    other, _ = generate(TINY, 8)
    assert data == again
    assert data != other
    assert data.startswith(b"% ")
    assert len(g.src) == TINY.rows
    assert g.self_loops == round(TINY.self_loop * TINY.rows)


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """A tiny evaluate run: its artifacts, stdout and the recount."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from tlpss import cli

    tmp = tmp_path_factory.mktemp("eval")
    data, g = generate(TINY, 3)
    (tmp / "input.tsv").write_bytes(data)
    out = tmp / "out"
    stdout = tmp / "stdout.txt"
    argv = run._eval_args(str(tmp / "input.tsv"), str(out))
    with open(stdout, "w") as fh:
        saved, sys.stdout = sys.stdout, fh
        try:
            assert cli.main(argv) == 0
        finally:
            sys.stdout = saved
    return run.artifacts(out, stdout), check.recount(g), tmp, argv


def _report(files) -> dict:
    return json.loads(files["report.json"])


def _with_report(files, doc, allow_nan=False) -> dict:
    changed = dict(files)
    changed["report.json"] = json.dumps(doc, allow_nan=allow_nan).encode()
    return changed


def test_checker_accepts_a_correct_run(evaluated):
    files, exp, _, _ = evaluated
    problems, results = check.check_evaluate(
        files, files["<stdout>"].decode(), exp, run.METHODS, run.TOP_L
    )
    assert problems == []
    assert list(results) == run.METHODS
    assert check.compare(results, results) == []


def test_checker_rejects_changed_auc_missing_method_and_nan(evaluated):
    files, exp, _, _ = evaluated

    def problems(doc, allow_nan=False):
        changed = _with_report(files, doc, allow_nan)
        return check.check_evaluate(
            changed, files["<stdout>"].decode(), exp, run.METHODS, run.TOP_L
        )[0]

    doc = _report(files)
    doc["reports"][0]["auc"] = math.nextafter(doc["reports"][0]["auc"], 1.0)
    assert problems(doc)

    doc = _report(files)
    del doc["reports"][3]
    assert problems(doc)

    doc = _report(files)
    doc["reports"][1]["auc"] = float("nan")
    assert any("not strict JSON" in p for p in problems(doc, allow_nan=True))

    _, results = check.check_evaluate(
        files, files["<stdout>"].decode(), exp, run.METHODS, run.TOP_L
    )
    recorded = json.loads(json.dumps(results))
    recorded["TLPSS"][0] = math.nextafter(recorded["TLPSS"][0], 0.0)
    assert check.compare(results, recorded)
    missing = {k: v for k, v in results.items() if k != "PA_ASF"}
    assert check.compare(missing, results)


def test_trace_self_times_fit_in_traced_wall(evaluated):
    files, exp, tmp, argv = evaluated
    spans_path = tmp / "spans.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "traced.py"), str(spans_path), *argv],
        env=run.child_env(),
        cwd=run.ROOT,
        capture_output=True,
    )
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(spans_path.read_text())
    assert doc["absent"] == []
    self_s, _ = traced.self_times(doc["spans"])
    assert all(s >= -1e-6 for s in self_s)
    assert sum(self_s) <= wall
    assert proc.stdout == files["<stdout>"]

    metrics = traced.summarize(doc["spans"], wall, [wall], 0.5)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    for m in declared["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]
    assert metrics["scoring.calls"][0] == len(run.METHODS)
    assert metrics["edges.nodes"][0] == exp.nodes
