"""Self-test of the benchmark harness on tiny configurations.

Runs the same code path as the real workloads (run.py -> worker.py -> the
package) and checks the output contract. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


def result(lines: list[str]) -> dict:
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def assert_metrics(out: dict, declared: list[dict]) -> None:
    for metric in declared:
        emitted = out["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float | int)
    assert set(out["metrics"]) == {m["name"] for m in declared}


def test_untraced_run_emits_every_end_to_end_metric():
    code, lines = bench("--workload", "tiny-lib", "--trace", "0")
    out = result(lines)
    assert code == 0 and out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert_metrics(out, BENCHMARK["end_to_end"])
    report = json.loads(lines[-2])["report"]
    assert report["end_to_end"]["scalars_per_round"]["value"] == report["expected_scalars_per_round"]
    assert set(report["uncorrected_medians"]) == {"rounds_per_s", "setup_s", "cpu_ms_per_round", "slowdown"}
    assert {"numpy", "blas", "OPENBLAS_NUM_THREADS", "nproc", "cpu_model", "python", "git_commit"} <= set(
        report["env"]
    )


def test_traced_run_emits_every_per_layer_metric_and_reproduces_digests():
    code, lines = bench("--workload", "tiny-cli", "--trace", "1")
    out = result(lines)
    # correct implies each traced run's digests equal the first untraced run's
    assert code == 0 and out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert_metrics(out, BENCHMARK["per_layer"])
    assert out["metrics"]["federation.fuse_defkt.calls"]["value"] > 0
    assert out["metrics"]["cli.cmd_run.self_s"]["value"] > 0


def test_corrupted_stored_digest_counts_as_failed(tmp_path):
    golden = tmp_path / "golden.json"
    code, lines = bench("--workload", "tiny-lib", "--seed", "1", "--golden", str(golden), "--record-golden")
    assert code == 0 and result(lines)["correct"]
    stored = json.loads(golden.read_text())
    (entry,) = stored.values()
    csv_digests = entry["tiny-lib"]["csv"]
    name = sorted(csv_digests)[0]
    csv_digests[name] = ("0" if csv_digests[name][0] != "0" else "1") + csv_digests[name][1:]
    golden.write_text(json.dumps(stored))

    code, lines = bench("--workload", "tiny-lib", "--seed", "1", "--golden", str(golden))
    out = result(lines)
    assert code != 0 and not out["correct"]
    assert out["failed"] == out["attempted"] >= 1
    report = json.loads(lines[-2])["report"]
    assert report["failed_runs"]["value"] == 1.0
    assert all("digests differ" in f for f in report["failures"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    code, lines = bench("--workload", "ref-defkt", cwd=tmp_path)
    assert code != 0 and not any(line.startswith("{") for line in lines)


def test_computed_op_counts():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from defkt.nn import ModelSpec
    from opcount import backward_flops_per_sample, forward_flops_per_sample

    mlp = ModelSpec.mlp(784, (200, 200), 10)
    assert forward_flops_per_sample(mlp) == 2 * (784 * 200 + 200 * 200 + 200 * 10)
    assert backward_flops_per_sample(mlp) == 2 * forward_flops_per_sample(mlp)
    conv1 = 2 * 26 * 26 * 8 * 1 * 9  # 28x28x1 -> 26x26x8, pooled to 13x13
    conv2 = 2 * 11 * 11 * 16 * 8 * 9  # 13x13x8 -> 11x11x16, pooled to 5x5
    assert forward_flops_per_sample(ModelSpec.cnn_small()) == conv1 + conv2 + 2 * 400 * 10
