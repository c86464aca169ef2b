"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tlpss.adjacency import PairLayout, WeightedAdjacency


def adjacency_of(n, weights, mults=None):
    """The adjacency of ``n`` nodes whose canonical pairs ``(i, j)``,
    ``i < j``, weigh ``weights[(i, j)]``, each with ``mults[(i, j)]``
    multi-edges (default 1)."""
    pairs = sorted(weights)
    lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    mult = np.array([(mults or {}).get(pair, 1) for pair in pairs], dtype=np.int64)
    weight = np.array([weights[pair] for pair in pairs], dtype=np.float64)
    return WeightedAdjacency(PairLayout(n, lo, hi, mult), weight)


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
