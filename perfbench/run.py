"""Benchmark of the tlpss command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; inputs and outputs go to .perfbench-work/.
For one workload it generates the input from the seed (gen.py, run by
prepare.py in a process of its own), times three
set-up children that only import tlpss and load that input (``setup_s``),
then runs one CLI invocation at a time, each in a fresh child process
(``python -m tlpss.cli ...``) whose own resources are read with
``os.wait4``, until ``--seconds`` have passed (``wall_s``, ``peak_rss_mb``;
medians).  Every invocation's artifacts are checked (check.py), and a
failed check counts the invocation as failed.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of one further invocation traced by traced.py.
``--workload all`` prints the end-to-end metrics and the failure ratio of
every workload instead.  The exit code is non-zero if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check
import traced
from gen import GraphSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench-work"  # under ROOT; CLI paths stay relative so configs match across checkouts
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
METHODS = ["TLPSS", "CN_ASF", "JA_ASF", "PA_ASF", "RA_ASF", "CAR_ASF", "CCLP_ASF"]
Q_VALUES = [float(q) for q in range(11)]
TOP_L = 100
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_CODE = "import sys, tlpss; tlpss.load_edge_list(sys.argv[1])"


@dataclass(frozen=True)
class Workload:
    spec: GraphSpec
    args: Callable[[str, str], list]  # (input, out_dir) -> CLI arguments
    check: Callable  # (files, stdout, expected, out_dir) -> (problems, results)


def _eval_args(inp, out):
    methods = [a for m in METHODS for a in ("--method", m.split("_")[0].lower())]
    return ["evaluate", "--dataset", inp, "--period", "1h", "--p", "3", "--q", "1",
            "--top-l", str(TOP_L), *methods, "--out-dir", out]


def _sweep_args(inp, out):
    return ["sweep", "--dataset", inp, "--period", "1h", "--param", "q",
            "--range", "0:10:1", "--method", "tlpss", "--top-l", str(TOP_L), "--out-dir", out]


WORKLOADS = {
    # Dense n x n scoring and the precision sort over the full candidate
    # universe dominate: where bounded-memory evaluation shows.
    "eval-all-4k": Workload(
        GraphSpec(nodes=4000, rows=48_000),
        _eval_args,
        lambda f, s, e, o: check.check_evaluate(f, s, e, METHODS, TOP_L),
    ),
    # Hub-heavy, so two-hop paths are many and n^2 small: per-value
    # adjacency rebuilds and the latent pass dominate.
    "sweep-q-hubs": Workload(
        GraphSpec(nodes=1200, rows=100_000, hubs=60),
        _sweep_args,
        lambda f, s, e, o: check.check_sweep(f, s, e, Q_VALUES, TOP_L, o),
    ),
    # KONECT scale; parsing, normalization and writing only.  Not listed in
    # BENCHMARK.json: pure interpreter work follows the host's CPU-speed
    # drift most closely (wall_s spread over seeds 0.15-0.43), and four
    # 1M-row loads per run make one run take about a minute.
    "ingest-1m": Workload(
        GraphSpec(nodes=100_000, rows=1_000_000),
        lambda inp, out: ["ingest", inp, f"{out}/normalized.tsv"],
        lambda f, s, e, o: check.check_ingest(f, s, e),
    ),
}


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def run_child(argv: list, stdout_path: Path, deadline: float) -> Child:
    """Run one child to completion; its wall time covers interpreter start to
    exit, and its rusage is its own alone."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        code=proc.returncode,
    )


def artifacts(out_dir: Path, stdout_path: Path) -> dict:
    files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*")) if p.is_file()}
    files["<stdout>"] = stdout_path.read_bytes()
    return files


def digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def load_reference(name: str, seed: int) -> dict | None:
    path = HERE / "reference.json"
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


class Run:
    """One workload at one seed: generated input, checked invocations."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name = name
        self.w = WORKLOADS[name]
        self.deadline = deadline
        self.tally = Tally()
        self.work = ROOT / WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.input = f"{WORK}/{name}/input.tsv"
        self.out = f"{WORK}/{name}/out"
        expected = self.work / "expected.json"
        prepare = [sys.executable, str(HERE / "prepare.py"), name, str(seed), self.input, str(expected)]
        subprocess.run(prepare, cwd=ROOT, check=True)
        doc = json.loads(expected.read_text())
        self.input_sha256 = doc["input_sha256"]
        self.expected = check.Expected(**doc["expected"])
        self.reference = load_reference(name, seed)
        if self.reference is not None and self.reference["input_sha256"] != self.input_sha256:
            raise SystemExit(f"generated {name} input for seed {seed} differs from the recorded one")
        self.first_digest: str | None = None
        self.results: dict | None = None

    def cli_argv(self) -> list:
        return [sys.executable, "-m", "tlpss.cli", *self.w.args(self.input, self.out)]

    def setup(self) -> Child:
        argv = [sys.executable, "-c", SETUP_CODE, self.input]
        c = run_child(argv, self.work / "setup.out", self.deadline)
        self.tally.record(c.code == 0, f"setup: exit code {c.code}")
        return c

    def invoke(self, argv: list, label: str) -> Child:
        out = ROOT / self.out
        shutil.rmtree(out, ignore_errors=True)
        stdout = self.work / f"{label}.out"
        c = run_child(argv, stdout, self.deadline)
        problems = [f"exit code {c.code}"] if c.code != 0 else self.verify(out, stdout)
        self.tally.record(not problems, f"{label}: {'; '.join(problems[:3])}")
        return c

    def verify(self, out: Path, stdout: Path) -> list:
        files = artifacts(out, stdout)
        d = digest(files)
        if self.first_digest is not None:
            return [] if d == self.first_digest else ["artifacts differ from the first invocation"]
        self.first_digest = d
        try:
            problems, results = self.w.check(files, files["<stdout>"].decode(), self.expected, self.out)
        except (KeyError, ValueError, TypeError, AttributeError, UnicodeDecodeError) as exc:
            return [f"malformed artifacts: {exc!r}"]
        self.results = results
        if not problems and self.reference is not None:
            problems = check.compare(results, self.reference["results"])
        return problems

    def measure(self, seconds: float) -> list:
        """Invocations back to back until `seconds` have passed (at least one)."""
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            runs.append(self.invoke(self.cli_argv(), "cli"))
        return runs

    def trace(self) -> tuple[Child, dict]:
        spans_path = self.work / "spans.json"
        argv = [sys.executable, str(HERE / "traced.py"), str(spans_path),
                *self.w.args(self.input, self.out)]
        c = self.invoke(argv, "traced")
        doc = json.loads(spans_path.read_text()) if spans_path.exists() else {"spans": [], "absent": []}
        return c, doc


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally]:
    deadline = time.monotonic() + RUN_LIMIT_S
    run = Run(name, seed, deadline)
    log(f"{name}: seed {seed}, input sha256 {run.input_sha256}")
    # the median absorbs the first set-up child compiling bytecode in a fresh checkout
    setups = [] if trace else [run.setup() for _ in range(SETUP_REPEATS)]
    runs = run.measure(seconds)
    walls = [c.wall_s for c in runs]
    if trace:
        traced_child, doc = run.trace()
        if doc["absent"]:
            log(f"{name}: traced names absent at this commit: {', '.join(doc['absent'])}")
        metrics = traced.summarize(
            doc["spans"], traced_child.wall_s, walls, statistics.median(c.cpu_s for c in runs)
        )
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c in runs), "MB"),
            "setup_s": (statistics.median(c.wall_s for c in setups), "s"),
        }
    for problem in run.tally.problems:
        log(f"{name}: FAILED {problem}")
    # children's ru_maxrss cannot read below this process's own peak
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"{name}: {len(runs)} invocations, wall s " + " ".join(f"{w:.3f}" for w in walls)
        + ", peak rss MB " + " ".join(f"{c.rss_mb:.1f}" for c in runs)
        + ", setup s " + " ".join(f"{c.wall_s:.3f}" for c in setups)
        + f", benchmark process peak rss MB {own_mb:.1f}")
    return metrics, run.tally


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "tlpss" / "__init__.py").is_file():
        log(f"no tlpss sources under {ROOT / 'src'}; run from a checkout of the repository")
        return 2

    if args.workload != "all":
        metrics, tally = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        correct = tally.failed == 0
        print(json.dumps({
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if correct else 1

    ok = True
    for name in WORKLOADS:
        metrics, tally = run_workload(name, args.seed, args.seconds, False)
        ok &= tally.failed == 0
        for metric, (value, unit) in metrics.items():
            print(f"{name:14s} {metric:12s} {value:12.4f} {unit}")
        print(f"{name:14s} {'fail_ratio':12s} {tally.failed / tally.attempted:12.4f} ratio "
              f"({tally.failed} of {tally.attempted} runs failed)", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
