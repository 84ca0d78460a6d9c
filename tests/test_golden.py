"""Golden digests: a run is a pure function of (config, seed) at a fixed BLAS thread count.

Rerun equality within one process (criterion 6) cannot see a change that
moves every run alike, such as a new RNG tag or a reordered float
operation. This test compares tiny runs of every strategy with sha256
digests stored in golden_digests.json. It runs golden_run.py in a fresh
interpreter with OPENBLAS_NUM_THREADS=1, set before numpy is imported,
because bits differ across BLAS thread counts. Those runs call
run_experiment directly; the CLI chain in front of it (corpus, spec,
shards, client states) is checked by running `defkt run` on the benchmark's
hetero-sweep workload against perfbench/golden.json. The benchmark's three
library workloads (the reference MLP at scale, cnn-small at 28x28 with
pooled test-set records on a host with two usable CPUs) are checked against
the same file through perfbench/workloads.run_lib, which is read, never
written.
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


RECORD_HINT = ("record them with `OPENBLAS_NUM_THREADS=1 python tests/golden_run.py --record` "
               "and `python perfbench/run.py --workload W --record-golden`")


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
    assert run["digests"]["defkt-cnn-pooled"] == run["digests"]["defkt-cnn"]  # a pool changes no bit
    assert run["digests"]["defkt-mlp-pooled"] == run["digests"]["defkt-mlp"]
    assert run["digests"]["fullavg-pooled"] == run["digests"]["fullavg"]
    assert run["digests"]["combo-pooled"] == run["digests"]["combo"]
    if expected is None:
        pytest.skip(f"no golden digests stored for environment {run['key']!r}; {RECORD_HINT}")
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
        pytest.skip(f"no hetero-sweep digests stored for environment {key!r}; {RECORD_HINT}")
    digests = {path.stem: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.glob("*.csv")}
    assert digests == expected["csv"]


LIB_WORKLOADS = ("ref-defkt", "ref-avg", "cnn-pairs")
RUN_LIB = f"""
import json, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, {str(PERFBENCH)!r})
import golden_run, workloads
digests = {{}}
for name in {LIB_WORKLOADS!r}:
    with tempfile.TemporaryDirectory() as tmp:
        info = workloads.run_lib(workloads.WORKLOADS[name], 1, Path(tmp), workloads.Clock(time.process_time))
        csv = {{path.stem: workloads.sha256(path.read_bytes()) for path in Path(tmp).glob("*.csv")}}
    digests[name] = {{"csv": csv, "params": info["params"]}}
print(json.dumps({{"key": golden_run.environment_key(), "digests": digests}}))
"""


def test_library_workloads_match_the_benchmark_digests():
    """ref-defkt, ref-avg and cnn-pairs at seed 1, run as the benchmark's lib runner runs them."""
    run = json.loads(pinned_python("-c", RUN_LIB, cwd=HERE).stdout)
    stored = json.loads((PERFBENCH / "golden.json").read_text()).get(run["key"], {})
    missing = [name for name in LIB_WORKLOADS if name not in stored]
    if missing:
        pytest.skip(f"no digests of {missing} stored for environment {run['key']!r}; {RECORD_HINT}")
    assert run["digests"] == {name: stored[name] for name in LIB_WORKLOADS}
