"""Workload definitions and the two ways the benchmark runs the package.

A workload is one fixed configuration run as a whole experiment (all of its
rounds) in a fresh process. The `lib` runner calls the package's public
functions the way `defkt run` does, without the CLI's file output; the `cli`
runner calls `defkt.cli.main(["run", ...])` and reads the CSVs it writes.

Everything random derives from the workload seed, so the same seed gives
the same corpus, partition, initialisation and trajectory.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from defkt import cli, federation, metrics, nn

# 784-d Gaussian-blob surrogate of the image data (acceptance criterion 8).
SURROGATE = {"classes": 10, "per_class": 600, "dims": 784, "sigma": 0.10, "test_per_class": 100}
REFERENCE = {
    "dataset": "synthetic", "clients": 10, "senders": 1, "lr": 0.01, "momentum": 0.5,
    "batch_b1": 200, "batch_b2": 200, "hidden": [200, 200], "eval_every": 10,
    "synthetic": SURROGATE,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `config` holds config-file keys (see `defkt.cli.resolve_config`);
    `flags` are extra CLI flags for the `cli` runner. Each run covers every
    strategy for each of `seed_count` consecutive run seeds starting at the
    workload seed. `param_count` is the model's parameter count P, so each
    round must transmit exactly senders x P scalars.
    """

    runner: str
    config: dict
    strategies: tuple[str, ...]
    param_count: int
    seed_count: int = 1
    flags: tuple[str, ...] = field(default=())

    def seeds(self, seed: int) -> list[int]:
        return [seed + i for i in range(self.seed_count)]


WORKLOADS = {
    # Dense 784x200 GEMMs and sgd_step on 199,210 parameters dominate.
    "ref-defkt": Workload("lib", {**REFERENCE, "rounds": 30}, ("defkt",), 199_210),
    # Bypasses fuse_defkt; evaluation is the largest share.
    "ref-avg": Workload("lib", {**REFERENCE, "rounds": 30}, ("fullavg", "combo"), 199_210),
    # README quick-start: tiny matrices, so per-call Python overhead and CSV/meta output decide.
    "hetero-sweep": Workload(
        "cli",
        {"hidden": [32, 32], "eval_every": 10,
         "synthetic": {"classes": 4, "per_class": 400, "dims": 20, "sigma": 1.0, "test_per_class": 100}},
        ("defkt", "fullavg", "combo"), 1_860, seed_count=3,
        flags=("--strategy", "all", "--clients", "10", "--xi", "2", "--lr", "0.05",
               "--batch-b1", "32", "--batch-b2", "32", "--rounds", "60"),
    ),
    # The only conv/pool and Q>1 workload. The corpus is 1/6 of the surrogate
    # (50 rows per client) and the test set 1/10 (100 rows), so that several
    # runs fit in one measurement and training, not evaluation, dominates.
    "cnn-pairs": Workload(
        "lib",
        {**REFERENCE, "model": "cnn-small", "clients": 20, "senders": 2, "rounds": 10,
         "synthetic": {**SURROGATE, "per_class": 100, "test_per_class": 10}},
        ("defkt",), 5_258,
    ),
    # Tiny configurations for the harness self-test, one per runner.
    "tiny-lib": Workload(
        "lib",
        {"dataset": "synthetic", "clients": 4, "senders": 1, "rounds": 4, "lr": 0.05, "hidden": [8],
         "batch_b1": 16, "batch_b2": 16, "eval_every": 2,
         "synthetic": {"classes": 3, "per_class": 30, "dims": 6, "sigma": 1.0, "test_per_class": 10}},
        ("defkt", "fullavg"), 6 * 8 + 8 + 8 * 3 + 3,
    ),
    "tiny-cli": Workload(
        "cli",
        {"hidden": [8], "eval_every": 2,
         "synthetic": {"classes": 3, "per_class": 30, "dims": 6, "sigma": 1.0, "test_per_class": 10}},
        ("defkt", "fullavg", "combo"), 6 * 8 + 8 + 8 * 3 + 3, seed_count=2,
        flags=("--strategy", "all", "--clients", "4", "--rounds", "4", "--lr", "0.05",
               "--batch-b1", "16", "--batch-b2", "16"),
    ),
}

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def params_digests(states: dict) -> list[str]:
    """sha256 of each client's final parameter vector, in client-id order."""
    return [sha256(states[k].params.tobytes()) for k in sorted(states)]


class Clock:
    """Wall and CPU time of the round window, minus paused stretches."""

    def __init__(self, usage):
        self._usage = usage
        self.start = self.cpu_start = None
        self.paused = self.cpu_paused = 0.0

    def begin(self) -> None:
        self.start, self.cpu_start = time.perf_counter(), self._usage()

    def pause(self):
        wall, cpu = time.perf_counter(), self._usage()
        def resume():
            self.paused += time.perf_counter() - wall
            self.cpu_paused += self._usage() - cpu
        return resume

    def stop(self) -> None:
        self.wall = time.perf_counter() - self.start - self.paused
        self.cpu = self._usage() - self.cpu_start - self.cpu_paused


def run_lib(w: Workload, seed: int, out: Path, clock: Clock) -> dict:
    """Set up every strategy's clients, then run them in turn; returns what the checks need."""
    config = cli.resolve_config(w.config)
    corpus, test = cli.load_corpus(config, seed)
    spec = cli.model_spec(config, corpus)
    shards = cli.make_shards(config, corpus, seed)
    hyper = config.hyper_for(seed)
    states = {s: federation.build_client_states(spec, shards, hyper) for s in w.strategies}
    clock.begin()
    params = {}
    for strategy in w.strategies:
        timeline, final = federation.run_experiment(
            spec, hyper, federation.FusionStrategy(strategy), states.pop(strategy), test,
            eval_every=config.eval_every, reduction=config.reduction,
        )
        metrics.emit_csv(timeline, str(out / f"{strategy}_{seed}.csv"))
        resume = clock.pause()
        params[f"{strategy}_{seed}"] = params_digests(final)
        del final
        resume()
    clock.stop()
    return {"params": params, "param_count": nn.param_count(spec), "senders": config.senders,
            "eval_every": config.eval_every, "rounds": config.rounds}


def run_cli(w: Workload, seed: int, out: Path, clock: Clock) -> dict:
    """`defkt run` over the workload's seeds; the round window opens at the first experiment."""
    config_path = out / "config.json"
    config_path.write_text(json.dumps(w.config))
    finals = {}
    run_experiment = cli.run_experiment

    def capture(spec, hyper, strategy, clients, test, eval_every, **kwargs):
        if clock.start is None:
            clock.begin()
        timeline, states = run_experiment(spec, hyper, strategy, clients, test, eval_every=eval_every, **kwargs)
        finals[f"{strategy.value}_{hyper.seed}"] = (spec, hyper, eval_every, states)
        return timeline, states

    cli.run_experiment = capture
    argv = ["run", "--config", str(config_path), "--out", str(out), *w.flags]
    for s in w.seeds(seed):
        argv += ["--seed", str(s)]
    try:
        code = cli.main(argv)
    finally:
        cli.run_experiment = run_experiment
    clock.stop()
    if code != 0:
        raise RuntimeError(f"defkt run exited with code {code}")
    params = {name: params_digests(states) for name, (*_, states) in finals.items()}
    spec, hyper, eval_every, _ = next(iter(finals.values()))
    return {"params": params, "param_count": nn.param_count(spec), "senders": hyper.senders_per_round,
            "eval_every": eval_every, "rounds": hyper.rounds}


RUNNERS = {"lib": run_lib, "cli": run_cli}
