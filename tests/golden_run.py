"""Golden trajectory digests: tiny runs of every fusion strategy, of `reduction: sum`, on a pool and on a corpus subset, hashed.

Prints one JSON object: the environment key (numpy version, OpenBLAS
runtime configuration, BLAS thread count; float64 results are bit-exact
only within one key) and, per configuration, the sha256 of its CSV
timeline and of each client's final parameter vector. test_golden.py runs
this in a fresh interpreter with OPENBLAS_NUM_THREADS=1 and compares the
output with golden_digests.json. To store the digests of a new
environment:

    OPENBLAS_NUM_THREADS=1 python tests/golden_run.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "golden_digests.json"
sys.path.insert(0, str(HERE.parent / "src"))

from defkt import blas, cli, metrics  # noqa: E402
from defkt.data import partition_iid, synth_dataset  # noqa: E402
from defkt.federation import FusionStrategy, HyperParams, build_client_states, run_experiment  # noqa: E402
from defkt.metrics import emit_csv  # noqa: E402
from defkt.nn import ModelSpec  # noqa: E402

MLP = ModelSpec.mlp(6, (5,), 3)
CNN = ModelSpec.cnn_small((1, 10, 10), num_classes=3)
# name -> (strategy, model, input dims, options). Each client holds 16
# training rows, so batches of 6 end on a smaller batch of 4; two passes of
# local update and of mutual transfer exercise the last-batch-of-last-pass
# path. The MLP has 53 parameters, an odd count, so combo's split point is
# asymmetric. Options: "reduction" (default "mean"); "pooled" sends every
# record, every fusion half and every look-ahead update to the run's pool,
# as on a host with two usable CPUs, so its digests must equal those of the
# same case run inline (inline runs look ahead too: each update is made on
# the trainer as soon as its sender's state is final); "subset" draws that
# many rows of the corpus through the CLI's `subset` key (cli.load_corpus)
# before the shards are cut.
CONFIGS = {
    "defkt-mlp": (FusionStrategy.DEFKT, MLP, 6, {}),
    "defkt-cnn": (FusionStrategy.DEFKT, CNN, 100, {}),
    "fullavg": (FusionStrategy.FULLAVG, MLP, 6, {}),
    "combo": (FusionStrategy.COMBO, MLP, 6, {}),
    "defkt-mlp-sum": (FusionStrategy.DEFKT, MLP, 6, {"reduction": "sum"}),
    "defkt-cnn-pooled": (FusionStrategy.DEFKT, CNN, 100, {"pooled": True}),
    "defkt-mlp-pooled": (FusionStrategy.DEFKT, MLP, 6, {"pooled": True}),
    "fullavg-pooled": (FusionStrategy.FULLAVG, MLP, 6, {"pooled": True}),
    "combo-pooled": (FusionStrategy.COMBO, MLP, 6, {"pooled": True}),
    "defkt-mlp-subset": (FusionStrategy.DEFKT, MLP, 6, {"subset": 102}),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextmanager
def pooled_records():
    """Every evaluation, fusion half and look-ahead update goes to the pool (gate 0), and the host reports two usable CPUs."""
    saved = metrics.PARALLEL_EVAL_WORK, metrics.os.sched_getaffinity
    metrics.PARALLEL_EVAL_WORK, metrics.os.sched_getaffinity = 0, lambda pid: {0, 1}
    try:
        yield
    finally:
        metrics.PARALLEL_EVAL_WORK, metrics.os.sched_getaffinity = saved


def run_config(name: str, strategy: FusionStrategy, spec: ModelSpec, dims: int, options: dict, out_dir: Path) -> dict:
    hyper = HyperParams(
        num_clients=6, senders_per_round=2, rounds=4,
        local_batch_size=6, local_passes=2, local_lr=0.05,
        mkt_batch_size=6, mkt_passes=2, mkt_lr_received=0.05, mkt_lr_local=0.03,
        momentum=0.5, seed=11,
    )
    if "subset" in options:
        config = cli.resolve_config({
            "clients": hyper.num_clients, "subset": options["subset"],
            "synthetic": {"classes": 3, "per_class": 40, "dims": dims, "sigma": 1.0, "test_per_class": 10},
        })
        corpus, test = cli.load_corpus(config, 12)
        shards = cli.make_shards(config, corpus, 13)
    else:
        shards = partition_iid(synth_dataset(3, 40, dims, seed=12), hyper.num_clients, seed=13)
        test = synth_dataset(3, 10, dims, seed=14)
    clients = build_client_states(spec, shards, hyper)
    with pooled_records() if options.get("pooled") else nullcontext():
        timeline, final = run_experiment(spec, hyper, strategy, clients, test,
                                         eval_every=2, reduction=options.get("reduction", "mean"))
    path = out_dir / f"{name}.csv"
    emit_csv(timeline, str(path))
    return {
        "csv": sha256(path.read_bytes()),
        "params": [sha256(final[k].params.tobytes()) for k in sorted(final)],
    }


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_config(name, *config, Path(tmp)) for name, config in CONFIGS.items()}
    key = blas.environment_key()
    if "--record" in argv:
        stored = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.is_file() else {}
        stored[key] = digests
        GOLDEN_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"key": key, "digests": digests}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
