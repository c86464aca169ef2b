"""Opt-in budget check on a generated stand-in for the paper's datasets.

The KONECT files cannot be downloaded here, so the paper's claims cannot be
checked; what can be checked is that a run of their order finishes within
its budgets.  This runs ``tlpss evaluate`` on ``GraphSpec(nodes=20000,
rows=240000)`` of ``perfbench/gen.py`` (loaded read-only), seed 0, in a
child process: once with all seven methods, once with CAR and global
CCLP, which share the link-triangle incidence, and once with TLPSS and JA,
whose walks are timed apart from the other methods'.  It asserts each run's wall
time (under 300 s, criterion 6's budget) and peak RSS (under 2 GB), not its
AUC or precision.  The tests are marked ``slow``, which the default run
deselects::

    python -m pytest -m slow tests/test_standin.py
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tlpss
from conftest import load_gen

METHODS = ["tlpss", "cn", "ja", "pa", "ra", "car", "cclp"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    gen = load_gen()
    data, _ = gen.generate(gen.GraphSpec(nodes=20000, rows=240000), 0)
    path = tmp_path_factory.mktemp("standin") / "g20k.tsv"
    path.write_bytes(data)
    return path


def assert_within_budget(dataset, out_dir, *options):
    """``tlpss evaluate`` on ``dataset`` with ``options`` ends in exit 0
    within 300 s and 2 GB peak RSS."""
    args = [
        sys.executable, "-m", "tlpss.cli", "evaluate", "--dataset", str(dataset),
        "--period", "1h", "--p", "3", "--q", "1", "--top-l", "100",
        *options, "--out-dir", str(out_dir),
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


@pytest.mark.slow
def test_all_methods_on_a_20k_node_stand_in_within_budget(dataset, tmp_path):
    assert_within_budget(dataset, tmp_path, *[a for m in METHODS for a in ("--method", m)])


@pytest.mark.slow
def test_car_and_global_cclp_on_a_20k_node_stand_in_within_budget(dataset, tmp_path):
    options = ["--method", "car", "--method", "cclp", "--cclp-mode", "global"]
    assert_within_budget(dataset, tmp_path, *options)


@pytest.mark.slow
def test_tlpss_and_ja_on_a_20k_node_stand_in_within_budget(dataset, tmp_path):
    assert_within_budget(dataset, tmp_path, "--method", "tlpss", "--method", "ja")
