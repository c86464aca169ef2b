"""Record the reference values that the output check compares against.

    python3 perfbench/record.py SEED [SEED ...]

Runs every workload once per seed, checks the artifacts against the
benchmark's recount, and stores the input hash with the per-method (and
per-q) AUC and precision, or the ingest output hash, in reference.json.
Workloads already recorded for a seed are left as they are.  Run it
only at the commit whose outputs define the reference; every later commit
must reproduce those values bit for bit.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main(seeds: list[int]) -> int:
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text())
    status = 0
    for seed in seeds:
        for name in run.WORKLOADS:
            if str(seed) in reference.get(name, {}):
                continue
            r = run.Run(name, seed, time.monotonic() + run.RUN_LIMIT_S)
            r.invoke(r.cli_argv(), "cli")
            if r.tally.failed:
                run.log(f"{name} seed {seed}: {r.tally.problems}")
                status = 1
                continue
            reference.setdefault(name, {})[str(seed)] = {
                "input_sha256": r.input_sha256,
                "results": r.results,
            }
            run.log(f"{name} seed {seed}: recorded")
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
