"""Golden digests: a run is a pure function of (config, seed) at a fixed BLAS thread count.

Rerun equality within one process (criterion 6) cannot see a change that
moves every run alike, such as a new RNG tag or a reordered float
operation. This test compares tiny runs of every strategy with sha256
digests stored in golden_digests.json. It runs golden_run.py in a fresh
interpreter with OPENBLAS_NUM_THREADS=1, set before numpy is imported,
because bits differ across BLAS thread counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def test_digests_match_stored_values():
    done = subprocess.run(
        [sys.executable, str(HERE / "golden_run.py")],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout)
    expected = json.loads((HERE / "golden_digests.json").read_text()).get(run["key"])
    if expected is None:
        pytest.skip(f"no golden digests stored for environment {run['key']!r}")
    assert run["digests"] == expected
