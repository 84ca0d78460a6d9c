#!/usr/bin/env python3
"""defkt benchmark: rounds per second, set-up time, CPU and memory per workload.

Closed loop: one run (a whole experiment in a fresh worker process) starts
when the previous one ends, until --seconds have passed. Every run's
outputs are checked; timings are medians over the untraced runs, corrected
for host speed (calibrate.py). With
--trace 1 the runs alternate untraced and traced, and the per-layer
metrics come from the traced ones. The last line of output is one JSON
object: correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload ref-defkt --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the metrics, workloads and output checks.
"""

import os

# One BLAS thread, before anything can import numpy: outputs are bit-exact
# only at a fixed thread count, and a second thread measured slower here.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 1
RUN_TIMEOUT_S = 150.0

E2E_UNITS = {
    "rounds_per_s": "rounds/s",
    "setup_s": "s",
    "cpu_ms_per_round": "ms",
    "peak_rss_mb": "MiB",
    "scalars_per_round": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", type=Path, default=GOLDEN, help="stored digests (default: %(default)s)")
    parser.add_argument(
        "--record-golden", action="store_true",
        help=f"store this invocation's digests in --golden (seed {GOLDEN_SEED} only)",
    )
    args = parser.parse_args(argv)
    if args.record_golden and args.seed != GOLDEN_SEED:
        parser.error(f"--record-golden needs --seed {GOLDEN_SEED}")
    return args


def start_run(work: Path, workload: str, seed: int, traced: bool, index: int, deadline: float) -> dict:
    out = work / f"run-{index}"
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--out", str(out)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": "timed out"}
    try:
        result = json.loads((out / "result.json").read_text())
    except (OSError, ValueError):
        result = {"error": f"exit {done.returncode}, no result: {done.stderr[-2000:]}"}
    result["traced"] = traced
    return result


def digests(run: dict) -> dict:
    return {"csv": run["csv"], "params": run["params"]}


def check_runs(runs: list[dict], reference: dict | None, reference_name: str) -> None:
    """Mark each run failed (run["failure"]) if it raised, failed a check or mismatched the digests."""
    for run in runs:
        if "error" in run:
            run["failure"] = run["error"].strip().splitlines()[-1]
        elif run["errors"]:
            run["failure"] = "; ".join(run["errors"][:5])
        elif reference is not None and digests(run) != reference:
            run["failure"] = f"output digests differ from {reference_name}"


def median_of(values: list[float]) -> float:
    return float(statistics.median(values))


def slowdown(run: dict) -> float:
    """How much slower than calibrate.REFERENCE_S the host ran the probe after this run."""
    return run["calibration_s"] / calibrate.REFERENCE_S


def timings(run: dict, slower: float) -> dict:
    """A run's timing metrics, corrected for a host `slower` times slower than the reference."""
    return {
        "rounds_per_s": run["rounds"] / run["round_wall_s"] * slower,
        "setup_s": run["setup_s"] / slower,
        "cpu_ms_per_round": 1e3 * run["round_cpu_s"] / run["rounds"] / slower,
    }


def end_to_end(runs: list[dict]) -> dict:
    """Median of each end-to-end metric over runs, timings corrected for host speed."""
    samples = [
        dict(timings(r, slowdown(r)), peak_rss_mb=r["peak_rss_kib"] / 1024,
             scalars_per_round=r["scalars"] / r["rounds"])
        for r in runs
    ]
    return {
        name: {"value": median_of([x[name] for x in samples]), "unit": unit, "n": len(samples)}
        for name, unit in E2E_UNITS.items()
    }


def uncorrected(runs: list[dict]) -> dict:
    """Medians of the timings as measured, and of the host slowdown."""
    samples = [dict(timings(r, 1.0), slowdown=slowdown(r)) for r in runs]
    return {name: median_of([x[name] for x in samples]) for name in samples[0]}


def tracing_overhead(runs: list[dict]) -> float:
    """Median over traced runs of 1 - traced / untraced rounds_per_s.

    Each traced run is compared with the mean of its untraced neighbours, so
    that drift in machine speed over the invocation cancels.
    """
    def rps(run):
        return timings(run, slowdown(run))["rounds_per_s"] if "failure" not in run else None

    shares = []
    for i, run in enumerate(runs):
        if not run["traced"] or rps(run) is None:
            continue
        near = [rps(runs[j]) for j in (i - 1, i + 1) if 0 <= j < len(runs) and not runs[j]["traced"]]
        near = [v for v in near if v is not None]
        if near:
            shares.append(1.0 - rps(run) / statistics.fmean(near))
    return median_of(shares) if shares else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "defkt" / "__init__.py").is_file():
        print(f"error: package source {ROOT / 'src' / 'defkt'} not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    import envinfo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    started = time.monotonic()
    stop_at = started + args.seconds
    deadline = started + RUN_TIMEOUT_S
    runs: list[dict] = []
    # Closed loop; under --trace 1 alternate untraced/traced, at least one of each.
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(start_run(work, args.workload, args.seed, traced, len(runs), deadline))
        kinds = {r["traced"] for r in runs}
        if time.monotonic() >= stop_at and (not args.trace or kinds == {False, True}):
            break
        if time.monotonic() >= deadline:
            break

    for run in runs:
        if "error" not in run:
            run["rounds"] = sum(last["round"] for last in run["last"].values())
            run["scalars"] = sum(last["scalars"] for last in run["last"].values())
    good = [r for r in runs if "error" not in r]
    env = dict(envinfo.host(ROOT), **(good[0]["env"] if good else {}))

    golden = json.loads(args.golden.read_text()) if args.golden.is_file() else {}
    stored = golden.get(env.get("blas_key"), {}).get(args.workload)
    if args.seed == GOLDEN_SEED and stored is not None and not args.record_golden:
        reference, reference_name = stored, f"stored digests in {args.golden.name}"
    else:
        first = next((r for r in good if not r["traced"] and not r["errors"]), None)
        reference = digests(first) if first else None
        reference_name = "the first untraced run"
    check_runs(runs, reference, reference_name)
    failed = [r for r in runs if "failure" in r]
    ok_untraced = [r for r in runs if "failure" not in r and not r["traced"]]
    ok_traced = [r for r in runs if "failure" not in r and r["traced"]]

    if args.record_golden and not failed and reference:
        golden.setdefault(env["blas_key"], {})[args.workload] = reference
        args.golden.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "digest_reference": reference_name,
        "failed_runs": {"value": len(failed) / len(runs), "unit": "fraction", "n": len(runs)},
        "failures": [r["failure"] for r in failed],
    }
    metrics = {}
    if ok_untraced:
        e2e = end_to_end(ok_untraced)
        accs = [statistics.fmean(last["global_acc"] for last in r["last"].values()) for r in ok_untraced]
        report["end_to_end"] = dict(e2e, final_global_acc={
            "value": median_of(accs), "unit": "fraction", "n": len(accs)})
        report["uncorrected_medians"] = uncorrected(ok_untraced)
        report["expected_scalars_per_round"] = ok_untraced[0]["expected_scalars_per_round"]
        if not args.trace:
            metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in e2e.items()}
    if args.trace and ok_traced and ok_untraced:
        import tracer

        layers, notes = tracer.summarize([Path(r["spans"]) for r in ok_traced])
        layers["trace.rounds_per_s_overhead"] = tracing_overhead(runs)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracer.UNITS.items()}
        report["per_layer_notes"] = notes
    correct = not failed and bool(metrics)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
