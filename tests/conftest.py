"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tlpss.adjacency import PairLayout, WeightedAdjacency
from tlpss.decay import DecayParams
from tlpss.edges import TemporalEdgeList
from tlpss.oracle import ToyGraph


def edge_list(records, node_count):
    """The :class:`TemporalEdgeList` of ``(u, v, ts)`` rows in any order,
    with node ids 0..n-1."""
    rows = np.asarray(records, dtype=np.int64).reshape(-1, 3)
    return TemporalEdgeList(rows[:, 0], rows[:, 1], rows[:, 2], node_count)


def adjacency_of(n, weights, mults=None, params=DecayParams(p=2.0, q=1.0, a=5.0)):
    """The adjacency of ``n`` nodes whose canonical pairs ``(i, j)``,
    ``i < j``, weigh ``weights[(i, j)]``, each with ``mults[(i, j)]``
    multi-edges (default 1), taken as made under the decay ``params``,
    whose floor its latent weights scale."""
    pairs = sorted(weights)
    lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    mult = np.array([(mults or {}).get(pair, 1) for pair in pairs], dtype=np.int64)
    weight = np.array([weights[pair] for pair in pairs], dtype=np.float64)
    return WeightedAdjacency(PairLayout(n, lo, hi, mult), weight, params)


def hub_graph(n=600, rows=9000, seed=11):
    """Heavy-tailed multigraph with community links, so that most links
    close triangles and many pairs share several of them."""
    rng = np.random.default_rng(seed)
    activity = (rng.permutation(n) + 1.0) ** -0.8
    cdf = np.cumsum(activity)
    u = np.searchsorted(cdf, rng.random(rows) * cdf[-1], side="right")
    v = np.searchsorted(cdf, rng.random(rows) * cdf[-1], side="right")
    local = rng.random(rows) < 0.5
    v[local] = (u[local] // 20) * 20 + rng.integers(0, 20, local.sum())
    v = np.minimum(v, n - 1)
    ts = rng.integers(1, 200, rows)
    return ToyGraph(n=n, edges=list(zip(u.tolist(), v.tolist(), ts.tolist())), period=5.0)


GEN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def load_gen():
    """``perfbench/gen.py``, the benchmark's input generator, as a module,
    without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.fixture()
def dataset(tmp_path):
    """KONECT-style file with comments, a missing timestamp and a self-loop."""
    rng = np.random.default_rng(19)
    lines = ["% synthetic network"]
    n = 30
    for t in range(1, 260):
        a = int(rng.integers(1, n + 1))
        if rng.random() < 0.75:
            b = int(((a - 1) // 10) * 10 + rng.integers(1, 11))
        else:
            b = int(rng.integers(1, n + 1))
        lines.append(f"{a} {b} 1 {t * 40}")
    lines.append("3 4")
    lines.append("6 6 1 400")
    path = tmp_path / "net.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path
