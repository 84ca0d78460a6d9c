"""One benchmark run of one workload, in a fresh process.

Started by run.py with OPENBLAS_NUM_THREADS=1 already in the environment.
Set-up time is counted from the first line below, so it covers the package
import. After the round window it times the host-speed probe (calibrate.py).
Writes a JSON result (timings, output digests, check errors) and, when
traced, the span file; exits non-zero if the run raised.

    python3 perfbench/worker.py --workload ref-defkt --seed 1 --trace 0 --out DIR
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

CSV_FIELDS = ["round", "strategy", "seed", "global_acc", "local_acc", "scalars_transmitted"]


def cpu_seconds() -> float:
    """User + system CPU time of this process and its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def check_csv(path: Path, strategy: str, seed: int, info: dict, expected_p: int) -> tuple[dict, list[str]]:
    """Validate one CSV timeline; returns its last row and any errors."""
    errors = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_FIELDS:
            return {}, [f"{path.name}: header {reader.fieldnames}"]
        rows = list(reader)
    rounds, every = info["rounds"], info["eval_every"]
    schedule = sorted({0, rounds, *range(every, rounds + 1, every)})
    if [int(r["round"]) for r in rows] != schedule:
        errors.append(f"{path.name}: rounds {[r['round'] for r in rows]} != {schedule}")
    if info["param_count"] != expected_p:
        errors.append(f"{path.name}: model has {info['param_count']} parameters, expected {expected_p}")
    for row in rows:
        where = f"{path.name} round {row['round']}"
        if row["strategy"] != strategy or int(row["seed"]) != seed:
            errors.append(f"{where}: labelled {row['strategy']}/{row['seed']}")
        if not all(0.0 <= float(row[k]) <= 1.0 for k in ("global_acc", "local_acc")):
            errors.append(f"{where}: accuracy outside [0, 1]")
        want = info["senders"] * expected_p * int(row["round"])
        if int(row["scalars_transmitted"]) != want:
            errors.append(f"{where}: {row['scalars_transmitted']} scalars transmitted, expected {want}")
    last = rows[-1] if rows else {}
    return {"round": int(last.get("round", 0)), "global_acc": float(last.get("global_acc", "nan")),
            "scalars": int(last.get("scalars_transmitted", 0))}, errors


def run(args) -> dict:
    import calibrate
    import envinfo
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    w = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    clock = workloads.Clock(cpu_seconds)
    info = workloads.RUNNERS[w.runner](w, args.seed, out, clock)
    result = {
        "setup_s": clock.start - T0,
        "round_wall_s": clock.wall,
        "round_cpu_s": clock.cpu,
        "peak_rss_kib": max(resource.getrusage(r).ru_maxrss for r in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)),
        "env": envinfo.numpy_blas(),
        "csv": {}, "last": {}, "errors": [], "params": info["params"],
        "expected_scalars_per_round": info["senders"] * w.param_count,
    }
    for seed in w.seeds(args.seed):
        for strategy in w.strategies:
            name = f"{strategy}_{seed}"
            path = out / f"{name}.csv"
            if not path.is_file():
                result["errors"].append(f"{path.name} missing")
                continue
            result["csv"][name] = workloads.sha256(path.read_bytes())
            result["last"][name], errors = check_csv(path, strategy, seed, info, w.param_count)
            result["errors"] += errors
            if name not in info["params"]:
                result["errors"].append(f"{name}: no final parameters")
    result["calibration_s"] = calibrate.kernel_seconds()
    if tracer is not None:
        tracer.dump(out / "spans.npz")
        result["spans"] = str(out / "spans.npz")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="empty directory for this run's files")
    args = parser.parse_args()
    try:
        result = run(args)
        code = 0
    except Exception:
        result = {"error": traceback.format_exc()}
        code = 1
    (Path(args.out) / "result.json").write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
