"""Generate one workload's input and the benchmark's recount of it.

    python3 perfbench/prepare.py WORKLOAD SEED INPUT_PATH EXPECTED_JSON

run.py starts this as a process of its own so that the process that starts
and measures the CLI children stays small: on Linux a child's ``ru_maxrss``
starts from the peak RSS of the process that spawned it, and generating
1M rows takes a few hundred MB.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from check import recount
from gen import generate
from run import WORKLOADS


def main(name: str, seed: int, input_path: str, expected_path: str) -> None:
    data, gen = generate(WORKLOADS[name].spec, seed)
    Path(input_path).write_bytes(data)
    doc = {"input_sha256": gen.sha256, "expected": dataclasses.asdict(recount(gen))}
    Path(expected_path).write_text(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
