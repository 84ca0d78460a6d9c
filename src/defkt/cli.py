"""Command-line interface: experiment runs, partition inspection, model evaluation.

Subcommands:
  run                train one CSV timeline per (strategy, seed) pair
  inspect-partition  print per-client sample counts and label histograms
  eval               print a saved model's accuracy on the configured test set

Configuration comes from an optional YAML/JSON file plus flags; flags
override file values. The environment variable DEFKT_DATA_DIR supplies
the default dataset root. Exit codes: 0 success, 1 configuration or input
error (a bad setting, or data too small for it), 2 load or numerical error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .data import Dataset, label_counts, load_idx, partition, synth_dataset
from .errors import ConfigurationError, DefktError, InputError, LoadError
from .federation import FusionStrategy, HyperParams, build_client_states, run_experiment
from .metrics import emit_csv, evaluate
from .nn import ModelSpec, param_count
from .seeding import derive_rng, derive_seed

DATASETS = ("mnist", "fashion-mnist", "synthetic")
MODELS = ("mlp", "cnn-small")
STRATEGIES = ("defkt", "fullavg", "combo", "all")

_SYNTH_DEFAULTS = {
    "classes": 4,
    "per_class": 400,
    "dims": 20,
    "sigma": 1.0,
    "test_per_class": 100,
    "seed": None,  # fixes the corpus across run seeds; derived from the run seed when unset
}

_FILE_KEYS = {
    "dataset", "data_dir", "model", "hidden", "strategy", "partition", "xi",
    "clients", "senders", "rounds", "lr", "local_lr", "mkt_lr_received",
    "mkt_lr_local", "momentum", "batch_b1", "batch_b2", "passes_m", "passes_e",
    "seeds", "eval_every", "reduction", "output_dir", "subset", "synthetic",
}

_IDX_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@dataclass(kw_only=True)
class RunConfig(HyperParams):
    """Fully resolved experiment configuration: the protocol settings plus the CLI-side ones.

    The inherited `seed` stays at its default; `hyper_for` sets it per run.
    """

    dataset: str
    data_dir: str
    model: str
    hidden: tuple[int, ...]
    strategy: str
    partition_mode: str
    classes_per_client: int | None
    seeds: tuple[int, ...]
    eval_every: int
    reduction: str
    output_dir: str
    subset: int | None
    synthetic: dict

    @property
    def senders(self) -> int:
        """Alias of senders_per_round, kept only because perfbench/workloads.py reads it."""
        return self.senders_per_round

    def hyper_for(self, seed: int) -> RunConfig:
        return replace(self, seed=seed)

    def strategies(self) -> list[FusionStrategy]:
        if self.strategy == "all":
            return [FusionStrategy.DEFKT, FusionStrategy.FULLAVG, FusionStrategy.COMBO]
        return [FusionStrategy(self.strategy)]


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    try:
        values = json.loads(text) if path.endswith(".json") else yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigurationError(f"cannot parse config file {path}: {exc}") from exc
    if values is None:
        return {}
    if not isinstance(values, dict):
        raise ConfigurationError(f"config file {path} must contain a mapping")
    return values


def _find_idx_files(data_dir: str, dataset: str) -> dict[str, str]:
    """Locate the four IDX files for a dataset, accepting .gz variants.

    The dataset-named subdirectory wins over the flat root so one data
    directory can hold several datasets whose files share names.
    """
    roots = [Path(data_dir) / dataset, Path(data_dir)]
    found: dict[str, str] = {}
    for key, name in _IDX_NAMES.items():
        for root in roots:
            for candidate in (root / name, root / (name + ".gz")):
                if candidate.is_file():
                    found[key] = str(candidate)
                    break
            if key in found:
                break
        if key not in found:
            searched = ", ".join(str(r / name) + "[.gz]" for r in roots)
            raise ConfigurationError(f"{dataset}: missing {name} (searched {searched})")
    return found


def resolve_config(file_values: dict | None = None, flags: dict | None = None) -> RunConfig:
    """Merge defaults, config-file values, and flags (flags win) into a RunConfig."""
    file_values = dict(file_values or {})
    flags = {k: v for k, v in (flags or {}).items() if v is not None}
    unknown = set(file_values) - _FILE_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def pick(key, default):
        return flags.get(key, file_values.get(key, default))

    dataset = pick("dataset", "synthetic")
    if dataset not in DATASETS:
        raise ConfigurationError(f"unknown dataset {dataset!r}; expected one of {DATASETS}")
    model = pick("model", "mlp")
    if model not in MODELS:
        raise ConfigurationError(f"unknown model {model!r}; expected one of {MODELS}")
    strategy = pick("strategy", "all")
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")

    clients = int(pick("clients", 10))
    senders = pick("senders", None)
    senders = math.ceil(clients / 10) if senders is None else int(senders)

    xi = pick("xi", None)
    partition_mode = pick("partition", None)
    if partition_mode is None:
        partition_mode = "noniid" if xi is not None else "iid"
    if partition_mode not in ("iid", "noniid"):
        raise ConfigurationError(f"unknown partition mode {partition_mode!r}")
    if partition_mode == "noniid" and xi is None:
        raise ConfigurationError("noniid partitioning requires xi (classes per client)")

    base_lr = pick("lr", None)
    base_lr = 0.01 if base_lr is None else float(base_lr)
    local_lr = float(pick("local_lr", base_lr))
    mkt_lr_received = float(pick("mkt_lr_received", base_lr))
    mkt_lr_local = float(pick("mkt_lr_local", base_lr))

    seeds = pick("seeds", None)
    if seeds is None:
        seeds = [1]
    if isinstance(seeds, int):
        seeds = [seeds]
    if not seeds:
        raise ConfigurationError("seeds must be a nonempty list of integers")

    reduction = pick("reduction", "mean")
    if reduction not in ("mean", "sum"):
        raise ConfigurationError(f"reduction must be 'mean' or 'sum', got {reduction!r}")

    eval_every = int(pick("eval_every", 10))
    if eval_every < 1:
        raise ConfigurationError("eval_every must be at least 1")

    hidden = pick("hidden", [200, 200])
    synthetic = dict(_SYNTH_DEFAULTS)
    synthetic.update(file_values.get("synthetic") or {})
    unknown_synth = set(synthetic) - set(_SYNTH_DEFAULTS)
    if unknown_synth:
        raise ConfigurationError(f"unknown synthetic keys: {', '.join(sorted(unknown_synth))}")

    subset = pick("subset", None)
    subset = None if subset is None else int(subset)
    if subset is not None and subset < 1:
        raise ConfigurationError(f"subset must be at least 1, got {subset}")
    data_dir = pick("data_dir", None)
    if data_dir is None:
        data_dir = os.environ.get("DEFKT_DATA_DIR", "data")

    config = RunConfig(
        dataset=dataset,
        data_dir=str(data_dir),
        model=model,
        hidden=tuple(int(h) for h in hidden),
        strategy=strategy,
        partition_mode=partition_mode,
        classes_per_client=None if xi is None else int(xi),
        num_clients=clients,
        senders_per_round=senders,
        rounds=int(pick("rounds", 500)),
        local_lr=local_lr,
        mkt_lr_received=mkt_lr_received,
        mkt_lr_local=mkt_lr_local,
        momentum=float(pick("momentum", 0.5)),
        local_batch_size=int(pick("batch_b1", 200)),
        mkt_batch_size=int(pick("batch_b2", 200)),
        local_passes=int(pick("passes_m", 1)),
        mkt_passes=int(pick("passes_e", 1)),
        seeds=tuple(int(s) for s in seeds),
        eval_every=eval_every,
        reduction=reduction,
        output_dir=str(pick("out", file_values.get("output_dir", "runs"))),
        subset=subset,
        synthetic=synthetic,
    )
    if config.dataset != "synthetic":
        _find_idx_files(config.data_dir, config.dataset)
    return config


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Build a RunConfig from parsed CLI arguments, honoring --config."""
    file_values = _load_config_file(args.config) if args.config else {}
    flags = {
        "dataset": args.dataset,
        "model": args.model,
        "strategy": args.strategy,
        "clients": args.clients,
        "senders": args.senders,
        "rounds": args.rounds,
        "xi": args.xi,
        "lr": args.lr,
        "momentum": args.momentum,
        "batch_b1": args.batch_b1,
        "batch_b2": args.batch_b2,
        "passes_m": args.passes_m,
        "passes_e": args.passes_e,
        "seeds": args.seed if args.seed else None,
        "eval_every": args.eval_every,
        "out": args.out,
    }
    return resolve_config(file_values, flags)


def load_corpus(config: RunConfig, seed: int) -> tuple[Dataset, Dataset]:
    """Training corpus and global test set for one run seed."""
    if config.dataset == "synthetic":
        s = config.synthetic
        base = seed if s["seed"] is None else s["seed"]
        train = synth_dataset(
            s["classes"], s["per_class"], s["dims"], derive_seed(base, "synthetic-train"), s["sigma"]
        )
        test = synth_dataset(
            s["classes"], s["test_per_class"], s["dims"], derive_seed(base, "synthetic-test"), s["sigma"]
        )
    else:
        files = _find_idx_files(config.data_dir, config.dataset)
        train = load_idx(files["train_images"], files["train_labels"], num_classes=10)
        test = load_idx(files["test_images"], files["test_labels"], num_classes=10)
    if config.subset is not None:
        if config.subset > len(train):
            raise ConfigurationError(f"subset {config.subset} exceeds corpus size {len(train)}")
        rng = derive_rng(seed, "corpus-subset")
        train = train.subset(rng.choice(len(train), size=config.subset, replace=False))
    return train, test


def model_spec(config: RunConfig, corpus: Dataset) -> ModelSpec:
    input_dim = corpus.inputs.shape[1]
    if config.model == "mlp":
        return ModelSpec.mlp(input_dim, hidden=config.hidden, num_classes=corpus.num_classes)
    if input_dim != 784:
        raise ConfigurationError("cnn-small expects 28x28 single-channel inputs (784 features)")
    return ModelSpec.cnn_small((1, 28, 28), num_classes=corpus.num_classes)


def make_shards(config: RunConfig, corpus: Dataset, seed: int) -> list[Dataset]:
    if config.partition_mode == "noniid" and config.classes_per_client > corpus.num_classes:
        raise ConfigurationError(
            f"xi={config.classes_per_client} exceeds the corpus class count {corpus.num_classes}"
        )
    return partition(
        corpus, config.partition_mode, config.num_clients, config.classes_per_client,
        derive_seed(seed, "partition"),
    )


# ---------------------------- model checkpoints ---------------------------- #

def spec_fingerprint(spec: ModelSpec) -> bytes:
    """32-byte digest identifying an architecture."""
    return hashlib.sha256(repr(spec).encode("utf-8")).digest()


def save_model(path: str, spec: ModelSpec, params: np.ndarray) -> None:
    """Write a checkpoint: u64-le length, 32-byte spec fingerprint, f64-le payload."""
    params = np.asarray(params, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", params.size))
        fh.write(spec_fingerprint(spec))
        fh.write(params.astype("<f8").tobytes())


def load_model(path: str, spec: ModelSpec) -> np.ndarray:
    """Read a checkpoint written by save_model, verifying it matches `spec`."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(8)
            if len(header) != 8:
                raise LoadError(f"{path}: truncated header")
            (length,) = struct.unpack("<Q", header)
            fingerprint = fh.read(32)
            if len(fingerprint) != 32:
                raise LoadError(f"{path}: truncated fingerprint")
            if fingerprint != spec_fingerprint(spec):
                raise LoadError(f"{path}: model fingerprint does not match the configured architecture")
            if length != param_count(spec):
                raise LoadError(f"{path}: parameter count {length} != expected {param_count(spec)}")
            payload = fh.read(8 * length)
            if len(payload) != 8 * length:
                raise LoadError(f"{path}: truncated payload")
            if fh.read(1):
                raise LoadError(f"{path}: trailing bytes after the payload")
    except OSError as exc:
        raise LoadError(f"{path}: {exc}") from exc
    return np.frombuffer(payload, dtype="<f8").astype(np.float64)


# ------------------------------- subcommands ------------------------------- #

def _metadata(hyper: RunConfig, strategy: FusionStrategy, spec: ModelSpec) -> dict:
    total = param_count(spec)
    meta = asdict(hyper)
    meta.update(strategy=strategy.value, param_count=total, segment_split_index=(total + 1) // 2)
    return meta


def cmd_run(config: RunConfig) -> int:
    """One run per (strategy, seed); emits {strategy}_{seed}.csv plus metadata."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for seed in config.seeds:
        corpus, test = load_corpus(config, seed)
        spec = model_spec(config, corpus)
        shards = make_shards(config, corpus, seed)
        for strategy in config.strategies():
            hyper = config.hyper_for(seed)
            states = build_client_states(spec, shards, hyper)
            timeline, _ = run_experiment(
                spec, hyper, strategy, states, test,
                eval_every=config.eval_every, reduction=config.reduction,
            )
            csv_path = out / f"{strategy.value}_{seed}.csv"
            emit_csv(timeline, str(csv_path))
            meta_path = out / f"{strategy.value}_{seed}.meta.json"
            with open(meta_path, "w") as fh:
                json.dump(_metadata(hyper, strategy, spec), fh, indent=2, sort_keys=True)
            final = timeline[-1]
            print(
                f"{strategy.value} seed={seed}: rounds={final.round} "
                f"global_acc={final.global_acc:.4f} local_acc={final.local_acc:.4f} -> {csv_path}"
            )
    return 0


def cmd_inspect_partition(config: RunConfig) -> int:
    """Print per-client sample counts and label histograms; touches nothing."""
    seed = config.seeds[0]
    corpus, _ = load_corpus(config, seed)
    shards = make_shards(config, corpus, seed)
    print(f"dataset={config.dataset} mode={config.partition_mode} clients={config.num_clients} seed={seed}")
    print(f"{'client':>6} {'samples':>8} {'classes':>8}  histogram")
    for k, shard in enumerate(shards, start=1):
        hist = label_counts(shard)
        print(f"{k:>6} {len(shard):>8} {len(hist):>8}  {hist}")
    total_hist = label_counts(corpus)
    print(f"{'total':>6} {len(corpus):>8} {len(total_hist):>8}  {total_hist}")
    return 0


def cmd_eval(config: RunConfig, model_file: str) -> int:
    """Evaluate a saved model on the configured global test set."""
    seed = config.seeds[0]
    corpus, test = load_corpus(config, seed)
    spec = model_spec(config, corpus)
    params = load_model(model_file, spec)
    acc = evaluate(spec, params, test)
    print(f"accuracy {acc:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="YAML or JSON config file")
    shared.add_argument("--dataset", choices=DATASETS)
    shared.add_argument("--model", choices=MODELS)
    shared.add_argument("--strategy", choices=STRATEGIES)
    shared.add_argument("--clients", type=int, help="number of clients K")
    shared.add_argument("--senders", type=int, help="transmitting clients per round Q")
    shared.add_argument("--rounds", type=int, help="total training rounds T")
    shared.add_argument("--xi", type=int, help="classes per client (noniid partitioning)")
    shared.add_argument("--lr", type=float, help="learning rate for local updates and fusion")
    shared.add_argument("--momentum", type=float)
    shared.add_argument("--batch-b1", dest="batch_b1", type=int, help="local-update batch size")
    shared.add_argument("--batch-b2", dest="batch_b2", type=int, help="knowledge-transfer batch size")
    shared.add_argument("--passes-m", dest="passes_m", type=int, help="local-update passes per round")
    shared.add_argument("--passes-e", dest="passes_e", type=int, help="knowledge-transfer passes")
    shared.add_argument("--seed", action="append", type=int, help="run seed; repeat for several")
    shared.add_argument("--eval-every", dest="eval_every", type=int)
    shared.add_argument("--out", help="output directory")

    parser = argparse.ArgumentParser(prog="defkt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[shared], help="run experiments")
    sub.add_parser("inspect-partition", parents=[shared], help="report the client data partition")
    eval_parser = sub.add_parser("eval", parents=[shared], help="evaluate a saved model")
    eval_parser.add_argument("--model-file", dest="model_file", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "inspect-partition":
            return cmd_inspect_partition(config)
        return cmd_eval(config, args.model_file)
    except (ConfigurationError, InputError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DefktError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
