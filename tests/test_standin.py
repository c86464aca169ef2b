"""Opt-in budget check on a generated stand-in for the paper's datasets.

The KONECT files cannot be downloaded here, so the paper's claims cannot be
checked; what can be checked is that a run of their order finishes within
its budgets.  This runs ``tlpss evaluate`` with all seven methods on
``GraphSpec(nodes=20000, rows=240000)`` of ``perfbench/gen.py`` (loaded
read-only), seed 0, in a child process, and asserts its wall time (under
300 s, criterion 6's budget) and peak RSS (under 2 GB), not its AUC or
precision.  It is marked ``slow``, which the default run deselects::

    python -m pytest -m slow tests/test_standin.py
"""

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tlpss

GEN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
METHODS = ["tlpss", "cn", "ja", "pa", "ra", "car", "cclp"]


def _load_gen():
    """``perfbench/gen.py`` as a module, without writing its bytecode."""
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


@pytest.mark.slow
def test_all_methods_on_a_20k_node_stand_in_within_budget(tmp_path):
    gen = _load_gen()
    data, _ = gen.generate(gen.GraphSpec(nodes=20000, rows=240000), 0)
    dataset = tmp_path / "g20k.tsv"
    dataset.write_bytes(data)
    args = [
        sys.executable, "-m", "tlpss.cli", "evaluate", "--dataset", str(dataset),
        "--period", "1h", "--p", "3", "--q", "1", "--top-l", "100",
        *[a for m in METHODS for a in ("--method", m)],
        "--out-dir", str(tmp_path / "out"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(tlpss.__file__).parents[1]))
    start = time.perf_counter()
    child = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    assert os.waitstatus_to_exitcode(status) == 0, child.stderr.read().decode()
    assert wall < 300.0
    # ru_maxrss is in kilobytes on Linux
    assert usage.ru_maxrss * 1024 < 2 * 2**30
