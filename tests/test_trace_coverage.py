"""The benchmark's trace table must keep naming live entry points.

``perfbench/traced.py`` wraps named functions of the package from outside
it and reads some of their arguments to count work.  A name that vanishes
there is only logged as absent and its per-layer metric silently reads 0,
so this guard loads that file (read-only, without installing anything),
checks its tables against the package and runs it on both CLI commands.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import tlpss

TRACED_PY = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _load_traced():
    # executed from its source so that nothing (not even bytecode) is written
    module = types.ModuleType("perfbench_traced")
    exec(compile(TRACED_PY.read_text(), str(TRACED_PY), "exec"), module.__dict__)
    return module


def _argument_reads() -> dict[str, set[str]]:
    """Traced function name -> argument names its ``_COUNTS`` entry reads,
    as ``a["name"]`` or ``a.get("name")``."""
    tree = ast.parse(TRACED_PY.read_text())
    table = next(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_COUNTS" for t in node.targets)
    )
    reads: dict[str, set[str]] = {}
    for key, fn in zip(table.keys, table.values):
        arg = fn.args.args[0].arg
        names = set()
        for node in ast.walk(fn.body):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == arg
            ):
                names.add(node.slice.value)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == arg
                and node.func.attr == "get"
            ):
                names.add(node.args[0].value)
        if names:
            reads[key.value] = names
    return reads


def test_every_traced_name_resolves():
    traced = _load_traced()
    missing = [
        f"{module_name}.{name}"
        for module_name, names in traced.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    assert missing == []


def test_wrapped_functions_take_the_counted_arguments():
    traced = _load_traced()
    functions = {
        name: getattr(importlib.import_module(module_name), name)
        for module_name, names in traced.TRACED.items()
        for name in names
    }
    reads = _argument_reads()
    read_names = set().union(*reads.values())
    assert {"method", "pos_scores", "neg_scores", "n_comparisons", "scores", "L"} <= read_names
    for name, wanted in reads.items():
        params = set(inspect.signature(functions[name]).parameters)
        assert wanted <= params, (name, wanted - params)


def test_every_traced_name_is_called(dataset, tmp_path):
    traced = _load_traced()
    env = dict(os.environ, PYTHONPATH=str(Path(tlpss.__file__).parents[1]))
    called = set()
    for command in (["evaluate"], ["sweep", "--param", "q", "--range", "0:2:1"]):
        spans = tmp_path / f"{command[0]}_spans.json"
        subprocess.run(
            [
                sys.executable, "-B", str(TRACED_PY), str(spans), *command,
                "--dataset", str(dataset), "--period", "80",
                "--out-dir", str(tmp_path / command[0]),
            ],
            env=env, capture_output=True, check=True,
        )
        trace = json.loads(spans.read_text())
        assert trace["absent"] == []
        called |= {span[0] for span in trace["spans"]}
    names = {
        f"{module_name.rsplit('.', 1)[1]}.{name}"
        for module_name, names in traced.TRACED.items()
        for name in names
    }
    assert names - called == set()
