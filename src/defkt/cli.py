"""Command-line interface: experiment runs, partition inspection, model evaluation.

Subcommands:
  run                train one CSV timeline per (strategy, seed) pair
  inspect-partition  print per-client sample counts and label histograms
  eval               print a saved model's accuracy on the configured test set

The library entry point is `runs(config)`: it turns a resolved config
into its runs, and `run` only writes their files and prints.

Configuration comes from an optional YAML/JSON file plus flags; flags
override file values. A flag is the text of a config key's value, so one
key table converts, defaults and checks both; a protocol setting's rule
is in `HyperParams.RULES`, and every rejection reads `config key K: <rule>,
got V`. The environment variable DEFKT_DATA_DIR supplies the default
dataset root. Exit codes: 0 success, 1 configuration or input error (a
bad value, from a flag or a file, or data too small for it) or a standard
output closed by its reader, 2 load or numerical error or out of memory
(one `error: out of memory ...` line, no traceback). A malformed
command line (an unknown flag, a flag without its value) exits 2 from
argparse.
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

from . import __version__, blas
from .data import SPLIT_MIN_ROWS, Dataset, DatasetView, Rows, label_counts, load_idx, partition, synth_dataset
from .errors import NONNEGATIVE_FINITE, SEED, ConfigurationError, DefktError, LoadError, Rule, at_least, check, one_of
from .federation import FusionStrategy, HyperParams, build_client_states, run_experiment
from .metrics import atomic_open, emit_csv, evaluate
from .nn import ModelSpec, segment_cut
from .seeding import derive_rng, derive_seed

DATASETS = ("mnist", "fashion-mnist", "synthetic")
MODELS = ("mlp", "cnn-small")
STRATEGIES = (*(strategy.value for strategy in FusionStrategy), "all")


def _int(value) -> int:
    """A whole number: 10, 10.0 and "10" are accepted, 2.7, inf and booleans are not."""
    if isinstance(value, bool):
        raise TypeError("expected a whole number, not a boolean")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _float(value) -> float:
    """A real number: 0.5 and "0.5" are accepted, booleans (YAML's on/off) are not."""
    if isinstance(value, bool):
        raise TypeError("expected a number, not a boolean")
    return float(value)


def _text(value) -> str:
    """A scalar as text: a name or a path, never a list or a mapping."""
    if isinstance(value, (list, tuple, dict)):
        raise TypeError("expected a single value, not a list or mapping")
    return str(value)


def _ints(value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError("expected a list of whole numbers")
    return tuple(_int(v) for v in value)


def _seeds(value) -> tuple[int, ...]:
    seeds = _ints(value if isinstance(value, (list, tuple)) else [value])
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError("need at least one seed, and each seed only once")
    return seeds


def _synthetic(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected a mapping")
    return _convert(_SYNTH_KEYS, value, "synthetic")


def _convert(table: dict, values: dict, section: str) -> dict:
    """Resolve and check each key of `table`, whose entries end in (converter, rule, default); null is the default."""
    unknown = set(values) - set(table)
    if unknown:
        raise ConfigurationError(f"unknown {section} keys: {', '.join(sorted(map(str, unknown)))}")
    resolved = {}
    for key, entry in table.items():
        convert, rule, default = entry[-3:]
        value = values.get(key)
        if value is None:
            value = default
        try:
            resolved[key] = None if value is None else convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{section} key {key}: cannot use {value!r} ({exc})") from exc
        if rule and resolved[key] is not None:
            check(f"{section} key {key}", resolved[key], rule)
    return resolved


# Synthetic corpus sub-keys: key -> (converter, rule, default).
_SYNTH_KEYS = {
    "classes": (_int, at_least(2), 4),
    "per_class": (_int, at_least(1), 400),
    "dims": (_int, at_least(1), 20),
    "sigma": (_float, NONNEGATIVE_FINITE, 1.0),
    "test_per_class": (_int, at_least(1), 100),
    "seed": (_int, SEED, None),  # fixes the corpus across run seeds; derived from the run seed when unset
}

# Config-file keys, also the flags' argparse dests: key -> (RunConfig field, converter, rule, default).
# A protocol setting's rule is HyperParams.RULES[field], so its rule here is None.
# A None default means unset, or derived in resolve_config (senders, rates, data_dir).
# These are the only defaults of the protocol settings; HyperParams declares none.
_KEYS = {
    "dataset": ("dataset", _text, one_of(DATASETS), "synthetic"),
    "data_dir": ("data_dir", _text, None, None),
    "model": ("model", _text, one_of(MODELS), "mlp"),
    "hidden": ("hidden", _ints, Rule(lambda w: min(w, default=1) >= 1, "every width must be at least 1"), (200, 200)),
    "strategy": ("strategy", _text, one_of(STRATEGIES), "all"),
    "xi": ("classes_per_client", _int, at_least(1), None),  # unset: IID partition
    "clients": ("num_clients", _int, None, 10),
    "senders": ("senders_per_round", _int, None, None),
    "rounds": ("rounds", _int, None, 500),
    "lr": (None, _float, NONNEGATIVE_FINITE, 0.01),
    "local_lr": ("local_lr", _float, None, None),
    "mkt_lr_received": ("mkt_lr_received", _float, None, None),
    "mkt_lr_local": ("mkt_lr_local", _float, None, None),
    "momentum": ("momentum", _float, None, 0.5),
    "batch_b1": ("local_batch_size", _int, None, 200),
    "batch_b2": ("mkt_batch_size", _int, None, 200),
    "passes_m": ("local_passes", _int, None, 1),
    "passes_e": ("mkt_passes", _int, None, 1),
    "seeds": ("seeds", _seeds, SEED._replace(each=True), (1,)),
    "eval_every": ("eval_every", _int, at_least(1), 10),
    "reduction": ("reduction", _text, one_of(("mean", "sum")), "mean"),
    "output_dir": ("output_dir", _text, None, "runs"),
    "subset": ("subset", _int, at_least(1), None),
    "synthetic": ("synthetic", _synthetic, None, {}),
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

    def _setting_name(self, field_name: str) -> str:
        return next((f"config key {key}" for key, (field, *_) in _KEYS.items() if field == field_name), field_name)

    def hyper_for(self, seed: int) -> RunConfig:
        return replace(self, seed=seed)


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    if path.endswith(".json"):
        parse, parse_error = json.loads, json.JSONDecodeError
    else:
        import yaml  # only YAML configs pay for its import
        parse, parse_error = yaml.safe_load, yaml.YAMLError
    try:
        values = parse(text)
    except parse_error as exc:
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
    merged = dict(file_values or {})
    merged.update((key, value) for key, value in (flags or {}).items() if value is not None)
    v = _convert(_KEYS, merged, "config")

    if v["senders"] is None:
        v["senders"] = math.ceil(v["clients"] / 10)
    for key in ("local_lr", "mkt_lr_received", "mkt_lr_local"):
        if v[key] is None:
            v[key] = v["lr"]
    if v["data_dir"] is None:
        v["data_dir"] = os.environ.get("DEFKT_DATA_DIR", "data")
    config = RunConfig(**{field: v[key] for key, (field, *_) in _KEYS.items() if field})
    if config.dataset != "synthetic":
        _find_idx_files(config.data_dir, config.dataset)
    return config


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Build a RunConfig from parsed CLI arguments, honoring --config."""
    file_values = _load_config_file(args.config) if args.config else {}
    return resolve_config(file_values, {k: v for k, v in vars(args).items() if k in _KEYS})


def load_corpus(config: RunConfig, seed: int) -> tuple[Rows, Dataset]:
    """Training corpus (a view when `subset` is set) and global test set for one run seed."""
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
        check("config key subset", config.subset,
              Rule(lambda rows: rows <= len(train), f"must not exceed the corpus size {len(train)}"))
        rng = derive_rng(seed, "corpus-subset")
        train = train.subset(rng.choice(len(train), size=config.subset, replace=False))
    return train, test


def model_spec(config: RunConfig, corpus: Rows) -> ModelSpec:
    input_dim = corpus.batch(slice(0, 1)).inputs.shape[1]
    if config.model == "mlp":
        return ModelSpec.mlp(input_dim, hidden=config.hidden, num_classes=corpus.num_classes)
    check("config key model", config.model, Rule(
        lambda _: input_dim == 784, f"needs 28x28 single-channel inputs (784 features; the corpus has {input_dim})"))
    return ModelSpec.cnn_small((1, 28, 28), num_classes=corpus.num_classes)


def make_shards(config: RunConfig, corpus: Rows, seed: int) -> list[DatasetView]:
    """Client shards: IID when xi is unset, else xi label segments per client."""
    segments = config.classes_per_client or 1  # per client; the smallest shard has segments * (rows // (K * segments))
    check("config key xi", segments, Rule(lambda xi: xi <= corpus.num_classes,
                                          f"must not exceed the corpus class count {corpus.num_classes}"))
    check("config key clients", config.num_clients, Rule(
        lambda clients: segments * (len(corpus) // (clients * segments)) >= SPLIT_MIN_ROWS,
        f"must leave every client at least {SPLIT_MIN_ROWS} of the corpus's {len(corpus)} rows"))
    return partition(corpus, config.num_clients, config.classes_per_client, derive_seed(seed, "partition"))


# ---------------------------- model checkpoints ---------------------------- #

def spec_fingerprint(spec: ModelSpec) -> bytes:
    """32-byte digest identifying an architecture."""
    return hashlib.sha256(repr(spec).encode("utf-8")).digest()


def save_model(path: str, spec: ModelSpec, params: np.ndarray) -> None:
    """Write a checkpoint: u64-le length, 32-byte spec fingerprint, f64-le payload.

    Written through atomic_open: a failed write keeps the file `path` held
    and raises LoadError naming it.
    """
    params = np.asarray(params, dtype=np.float64)
    with atomic_open(path, "wb") as fh:
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
            if length != spec.param_count:
                raise LoadError(f"{path}: parameter count {length} != expected {spec.param_count}")
            payload = fh.read(8 * length)
            if len(payload) != 8 * length:
                raise LoadError(f"{path}: truncated payload")
            if fh.read(1):
                raise LoadError(f"{path}: trailing bytes after the payload")
    except OSError as exc:
        raise LoadError(f"{path}: {exc}") from exc
    return np.frombuffer(payload, dtype="<f8").astype(np.float64)


# ------------------------------- subcommands ------------------------------- #

def _metadata(hyper: RunConfig, strategy: FusionStrategy, spec: ModelSpec, final: dict) -> dict:
    """The run's settings, the sha256 of each client's final parameters in client order, and what decided their
    bits: the environment key (blas.environment_key) and the package version."""
    total = spec.param_count
    meta = asdict(hyper)
    meta.update(strategy=strategy.value, param_count=total, segment_split_index=segment_cut(total),
                final_params_sha256=[hashlib.sha256(final[k].params.tobytes()).hexdigest() for k in sorted(final)],
                environment_key=blas.environment_key(), version=__version__)
    return meta


def runs(config: RunConfig):
    """Yield (hyper, strategy, spec, timeline, final states) for each run of `config`, in (seed, strategy) order.

    Each seed's corpus, spec and client states are built once and shared by its strategies: run_experiment
    replaces states in its own copy of the dict and writes no state's vector (the purity contract in nn).
    `run_experiment` is called through this module's name, so a caller may wrap it.
    """
    strategies = list(FusionStrategy) if config.strategy == "all" else [FusionStrategy(config.strategy)]
    for seed in config.seeds:
        corpus, test = load_corpus(config, seed)
        spec = model_spec(config, corpus)
        hyper = config.hyper_for(seed)
        clients = build_client_states(spec, make_shards(config, corpus, seed), hyper)
        for strategy in strategies:
            timeline, final = run_experiment(
                spec, hyper, strategy, clients, test,
                eval_every=config.eval_every, reduction=config.reduction,
            )
            yield hyper, strategy, spec, timeline, final


def cmd_run(config: RunConfig) -> int:
    """One run per (strategy, seed); emits {strategy}_{seed}.csv plus metadata.

    numpy's floating-point warnings are off: training checks every gradient,
    so a diverging run ends with its one NumericalError line. No bits change.
    """
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LoadError(f"{out}: {exc}") from exc
    with np.errstate(all="ignore"):
        for hyper, strategy, spec, timeline, states in runs(config):
            csv_path = out / f"{strategy.value}_{hyper.seed}.csv"
            emit_csv(timeline, str(csv_path))
            with atomic_open(out / f"{strategy.value}_{hyper.seed}.meta.json") as fh:
                json.dump(_metadata(hyper, strategy, spec, states), fh, indent=2, sort_keys=True)
            final = timeline[-1]
            print(
                f"{strategy.value} seed={hyper.seed}: rounds={final.round} "
                f"global_acc={final.global_acc:.4f} local_acc={final.local_acc:.4f} -> {csv_path}"
            )
    return 0


def cmd_inspect_partition(config: RunConfig) -> int:
    """Print per-client sample counts and label histograms; touches nothing."""
    seed = config.seeds[0]
    corpus, _ = load_corpus(config, seed)
    shards = make_shards(config, corpus, seed)
    print(f"dataset={config.dataset} xi={config.classes_per_client} clients={config.num_clients} seed={seed}")
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
    shared.add_argument("--dataset", help=f"one of {', '.join(DATASETS)}")
    shared.add_argument("--model", help=f"one of {', '.join(MODELS)}")
    shared.add_argument("--strategy", help=f"one of {', '.join(STRATEGIES)}")
    shared.add_argument("--clients", help="number of clients K")
    shared.add_argument("--senders", help="transmitting clients per round Q")
    shared.add_argument("--rounds", help="total training rounds T")
    shared.add_argument("--xi", help="classes per client; unset means an IID partition")
    shared.add_argument("--lr", help="learning rate for local updates and fusion")
    shared.add_argument("--momentum")
    shared.add_argument("--batch-b1", dest="batch_b1", help="local-update batch size")
    shared.add_argument("--batch-b2", dest="batch_b2", help="knowledge-transfer batch size")
    shared.add_argument("--passes-m", dest="passes_m", help="local-update passes per round")
    shared.add_argument("--passes-e", dest="passes_e", help="knowledge-transfer passes")
    shared.add_argument("--seed", dest="seeds", action="append", help="run seed; repeat for several")
    shared.add_argument("--eval-every", dest="eval_every")
    shared.add_argument("--out", dest="output_dir", help="output directory")

    parser = argparse.ArgumentParser(prog="defkt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[shared], help="run experiments")
    sub.add_parser("inspect-partition", parents=[shared], help="report the client data partition")
    eval_parser = sub.add_parser("eval", parents=[shared], help="evaluate a saved model")
    eval_parser.add_argument("--model-file", dest="model_file", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with one BLAS thread (blas.pin), so its bits do not depend on the host's CPU count."""
    args = build_parser().parse_args(argv)
    blas.pin()
    try:
        config = parse_config(args)
        if args.command == "run":
            status = cmd_run(config)
        elif args.command == "inspect-partition":
            status = cmd_inspect_partition(config)
        else:
            status = cmd_eval(config, args.model_file)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed standard output (`defkt ... | head`). Point it at
        # devnull so the interpreter's final flush cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DefktError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
