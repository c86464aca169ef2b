"""Fixtures shared by the test modules."""

import numpy as np
import pytest


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
