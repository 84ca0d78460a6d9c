"""Golden digests: a run is a pure function of (config, seed) at a fixed BLAS thread count.

Rerun equality within one process (criterion 6) cannot see a change that
moves every run alike, such as a new RNG tag or a reordered float
operation. This test compares tiny runs of every strategy with sha256
digests stored in golden_digests.json. It runs golden_run.py in a fresh
interpreter with OPENBLAS_NUM_THREADS=1, set before numpy is imported,
because bits differ across BLAS thread counts. Those runs call
run_experiment directly; the CLI chain in front of it (corpus, spec,
shards, client states) is checked by running `defkt run` on the benchmark's
hetero-sweep workload against perfbench/golden.json.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"


def pinned_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    pythonpath = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300, **kwargs)
    assert done.returncode == 0, done.stderr
    return done


def test_digests_match_stored_values():
    done = pinned_python(str(HERE / "golden_run.py"))
    run = json.loads(done.stdout)
    expected = json.loads((HERE / "golden_digests.json").read_text()).get(run["key"])
    if expected is None:
        pytest.skip(f"no golden digests stored for environment {run['key']!r}")
    assert run["digests"] == expected


def test_cli_sweep_matches_the_benchmark_digests(tmp_path, monkeypatch):
    # `defkt run` with the hetero-sweep workload's config and flags, checked
    # against the CSV digests the benchmark stores for it (read, never written)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sweep = importlib.import_module("workloads").WORKLOADS["hetero-sweep"]
    (tmp_path / "config.json").write_text(json.dumps(sweep.config))
    seeds = [arg for seed in sweep.seeds(1) for arg in ("--seed", str(seed))]
    pinned_python("-m", "defkt.cli", "run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path),
                  *sweep.flags, *seeds)
    key = pinned_python("-c", "import golden_run; print(golden_run.environment_key())", cwd=HERE).stdout.strip()
    expected = json.loads((PERFBENCH / "golden.json").read_text()).get(key, {}).get("hetero-sweep")
    if expected is None:
        pytest.skip(f"no hetero-sweep digests stored for environment {key!r}")
    digests = {path.stem: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.glob("*.csv")}
    assert digests == expected["csv"]
