"""CLI tests: config resolution, run/inspect/eval subcommands, exit codes."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import defkt
from defkt import blas, cli, metrics
from defkt.cli import (
    _IDX_NAMES,
    _KEYS,
    _SYNTH_KEYS,
    _float,
    _int,
    _ints,
    _seeds,
    build_parser,
    load_corpus,
    load_model,
    main,
    make_shards,
    model_spec,
    parse_config,
    resolve_config,
    runs,
    save_model,
)
from defkt.data import DatasetView
from defkt.errors import SEED, ConfigurationError, LoadError, check
from defkt.federation import HyperParams, build_client_states
from defkt.metrics import read_csv
from defkt.nn import ModelSpec, init_params

from oracles import label_histogram


TINY = {
    "dataset": "synthetic",
    "clients": 4,
    "rounds": 4,
    "batch_b1": 16,
    "batch_b2": 16,
    "eval_every": 2,
    "hidden": [6],
    "synthetic": {"classes": 3, "per_class": 40, "dims": 5, "sigma": 1.0, "test_per_class": 20},
}


# One case per `run` flag: the flags and the RunConfig fields they must set.
RUN_FLAGS = [
    (["--dataset", "mnist"], {"dataset": "mnist"}),
    (["--model", "cnn-small"], {"model": "cnn-small"}),
    (["--strategy", "combo"], {"strategy": "combo"}),
    (["--clients", "20"], {"num_clients": 20}),
    (["--senders", "3"], {"senders_per_round": 3}),
    (["--rounds", "7"], {"rounds": 7}),
    (["--xi", "3"], {"classes_per_client": 3}),
    (["--lr", "0.2"], {"local_lr": 0.2, "mkt_lr_received": 0.2, "mkt_lr_local": 0.2}),
    (["--momentum", "0.9"], {"momentum": 0.9}),
    (["--batch-b1", "17"], {"local_batch_size": 17}),
    (["--batch-b2", "19"], {"mkt_batch_size": 19}),
    (["--passes-m", "2"], {"local_passes": 2}),
    (["--passes-e", "3"], {"mkt_passes": 3}),
    (["--seed", "3", "--seed", "4"], {"seeds": (3, 4)}),
    (["--eval-every", "5"], {"eval_every": 5}),
    (["--out", "d"], {"output_dir": "d"}),
]


def table_entries():
    """(section, key, converter, rule) for every key of both tables; a protocol key's rule is HyperParams.RULES."""
    for section, table in (("config", _KEYS), ("synthetic", _SYNTH_KEYS)):
        for key, entry in table.items():
            *field, convert, rule, _ = entry
            yield section, key, convert, rule or HyperParams.RULES.get(field[0] if field else None)


RULED_KEYS = [entry for entry in table_entries() if entry[3] is not None]


def converts(convert, value) -> bool:
    try:
        convert(value)
    except (TypeError, ValueError):
        return False
    return True


def accepts(convert, rule, value) -> bool:
    try:
        check("probe", convert(value), rule)
    except (ConfigurationError, TypeError, ValueError):
        return False
    return True


def derived_bad_values(convert, rule) -> list:
    """Values that a key's converter or rule must reject, derived from both.

    For a list key each value is an item of the list. The values are one
    below the least accepted whole number, a boolean, NaN, ±inf, a list, a
    name outside any set, and for a seed rule -1 and 2**64. None is a large
    count, so a rule that broke could not start a long run.
    """
    item = (lambda v: [v]) if converts(convert, [1]) else (lambda v: v)
    probes = range(-2, 10)
    least = next((n for n in probes if accepts(convert, rule, item(n))), None)
    values = [True, math.nan, math.inf, -math.inf, [1], "no-such-name"]
    if least not in (None, probes[0]):
        values.append(least - 1)
    if rule.holds is SEED.holds:
        values += [v for v in (-1, 2**64) if v not in values]
    return [item(v) for v in values]


class TestResolveConfig:
    def test_minimal_defaults(self):
        config = resolve_config({"dataset": "synthetic", "clients": 10})
        assert config.senders == 1  # 20% participation: ceil(10 / 10)
        assert config.mkt_passes == 1
        assert config.momentum == 0.5
        assert config.reduction == "mean"
        assert config.classes_per_client is None  # IID

    def test_single_lr_sets_all_three(self):
        config = resolve_config({"lr": 0.05})
        assert config.local_lr == config.mkt_lr_received == config.mkt_lr_local == 0.05

    def test_specific_lr_overrides_base(self):
        config = resolve_config({"lr": 0.05, "mkt_lr_local": 0.01})
        assert config.local_lr == 0.05
        assert config.mkt_lr_local == 0.01

    def test_oversubscribed_senders_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_config({"clients": 10, "senders": 6})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="zeta"):
            resolve_config({"zeta": 3})

    def test_xi_implies_noniid(self):
        config = resolve_config({"xi": 4})
        assert config.classes_per_client == 4

    def test_xi_below_one_rejected_before_any_data_is_loaded(self):
        with pytest.raises(ConfigurationError, match="config key xi: must be at least 1, got 0"):
            resolve_config({"xi": 0})

    def test_noniid_without_xi_rejected(self):
        # xi alone selects the partition, so `partition` is an unknown key
        with pytest.raises(ConfigurationError, match="partition"):
            resolve_config({"partition": "noniid"})

    def test_flags_override_file(self):
        config = resolve_config({"clients": 10, "rounds": 100}, {"rounds": 7})
        assert config.rounds == 7
        assert config.num_clients == 10

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_config({"seeds": []})

    def test_seeds_at_the_ends_of_the_range_accepted(self):
        config = resolve_config({"seeds": [0, 2**64 - 1], "synthetic": {"seed": 2**64 - 1}})
        assert config.seeds == (0, 2**64 - 1) and config.synthetic["seed"] == 2**64 - 1

    def test_missing_idx_files_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEFKT_DATA_DIR", str(tmp_path))
        with pytest.raises(ConfigurationError, match="train-images"):
            resolve_config({"dataset": "mnist"})

    def test_env_var_supplies_data_dir(self, monkeypatch):
        monkeypatch.setenv("DEFKT_DATA_DIR", "/nonexistent-root")
        config = resolve_config({"dataset": "synthetic"})
        assert config.data_dir == "/nonexistent-root"

    def test_dataset_subdirectory_wins_over_flat_root(self, tmp_path):
        from defkt.cli import _find_idx_files

        names = (
            "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
            "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
        )
        (tmp_path / "fashion-mnist").mkdir()
        for name in names:
            (tmp_path / name).write_bytes(b"flat")
            (tmp_path / "fashion-mnist" / name).write_bytes(b"nested")
        found = _find_idx_files(str(tmp_path), "fashion-mnist")
        assert all("fashion-mnist" in path for path in found.values())

    def test_fixed_synthetic_seed_shares_corpus_across_run_seeds(self):
        values = dict(TINY)
        values["synthetic"] = dict(TINY["synthetic"], seed=123)
        config = resolve_config(values)
        corpus_a, _ = load_corpus(config, seed=1)
        corpus_b, _ = load_corpus(config, seed=2)
        np.testing.assert_array_equal(corpus_a.inputs, corpus_b.inputs)

    def test_derived_synthetic_data_differs_across_run_seeds(self):
        config = resolve_config(dict(TINY))
        corpus_a, _ = load_corpus(config, seed=1)
        corpus_b, _ = load_corpus(config, seed=2)
        assert not np.array_equal(corpus_a.inputs, corpus_b.inputs)

    @pytest.mark.parametrize("flags, expected", RUN_FLAGS, ids=[flags[0] for flags, _ in RUN_FLAGS])
    def test_run_flag_sets_its_field(self, tmp_path, monkeypatch, flags, expected):
        for name in _IDX_NAMES.values():
            (tmp_path / name).write_bytes(b"")
        monkeypatch.setenv("DEFKT_DATA_DIR", str(tmp_path))
        config = parse_config(build_parser().parse_args(["run", *flags]))
        assert {field: getattr(config, field) for field in expected} == expected

    def test_every_numeric_key_carries_one_rule(self):
        # a new key gets the derived bad values above, or fails here
        assert set(HyperParams.RULES) == {f.name for f in dataclasses.fields(HyperParams)}
        for section, key, convert, rule in table_entries():
            if convert in (_int, _float, _ints, _seeds):
                assert rule is not None, f"{section} key {key} has no rule"
        for key, (field, _, rule, _) in _KEYS.items():
            assert not (rule and field in HyperParams.RULES), f"config key {key} has a rule in both places"
            assert rule or field in HyperParams.RULES or key in ("data_dir", "output_dir", "synthetic"), key

    def test_readme_example_config_is_accepted(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```yaml\n(.*?)```", readme, re.DOTALL)
        config = resolve_config(yaml.safe_load(block))
        seed = config.seeds[0]
        corpus, _ = load_corpus(config, seed)
        model_spec(config, corpus)
        assert len(make_shards(config, corpus, seed)) == config.num_clients

    def test_every_run_flag_is_a_key_with_a_case(self):
        # parse_config drops a dest that is not a config key, so such a flag would do nothing
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = [a for a in sub.choices["run"]._actions if a.dest not in ("help", "config")]
        assert actions
        assert [a.dest for a in actions if a.dest not in _KEYS] == []
        assert {a.option_strings[0] for a in actions} == {flags[0] for flags, _ in RUN_FLAGS}


class TestCheckpoints:
    def test_save_load_round_trip(self, tmp_path):
        spec = ModelSpec.mlp(5, (4,), 3)
        params = init_params(spec, 11)
        path = tmp_path / "model.bin"
        save_model(str(path), spec, params)
        np.testing.assert_array_equal(load_model(str(path), spec), params)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        spec = ModelSpec.mlp(5, (4,), 3)
        other = ModelSpec.mlp(5, (6,), 3)
        path = tmp_path / "model.bin"
        save_model(str(path), spec, init_params(spec, 1))
        with pytest.raises(LoadError, match="fingerprint"):
            load_model(str(path), other)

    def test_corrupted_fingerprint_rejected(self, tmp_path):
        spec = ModelSpec.mlp(5, (4,), 3)
        path = tmp_path / "model.bin"
        save_model(str(path), spec, init_params(spec, 1))
        blob = bytearray(path.read_bytes())
        blob[12] ^= 0xFF  # flip a fingerprint byte
        path.write_bytes(bytes(blob))
        with pytest.raises(LoadError, match="fingerprint"):
            load_model(str(path), spec)

    def test_truncated_payload_rejected(self, tmp_path):
        spec = ModelSpec.mlp(5, (4,), 3)
        path = tmp_path / "model.bin"
        save_model(str(path), spec, init_params(spec, 1))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(LoadError, match="truncated"):
            load_model(str(path), spec)

    def test_a_write_failing_mid_payload_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        spec = ModelSpec.mlp(5, (4,), 3)
        path = tmp_path / "model.bin"
        save_model(str(path), spec, init_params(spec, 1))
        old = path.read_bytes()

        class DiskFills:
            """A file that takes the header and fingerprint, then half of the payload, and fails."""

            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._fh.__exit__(*exc)

            def write(self, data):
                if len(data) > 32:
                    self._fh.write(data[: len(data) // 2])
                    raise OSError(28, "No space left on device")
                return self._fh.write(data)

        real_open = open
        monkeypatch.setattr(metrics, "open", lambda *a, **kw: DiskFills(real_open(*a, **kw)), raising=False)
        with pytest.raises(LoadError, match="model.bin: .*No space left on device"):
            save_model(str(path), spec, init_params(spec, 2))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        np.testing.assert_array_equal(load_model(str(path), spec), init_params(spec, 1))


def write_config(tmp_path, extra=None, **overrides):
    values = dict(TINY, **overrides)
    values.update(extra or {})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(values, sort_keys=False))
    return str(path)


class TestCmdRun:
    def test_all_strategies_times_seeds(self, tmp_path):
        config = write_config(tmp_path, seeds=[1, 2])
        out = tmp_path / "runs"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "combo_1.csv", "combo_2.csv",
            "defkt_1.csv", "defkt_2.csv",
            "fullavg_1.csv", "fullavg_2.csv",
        ]

    def test_repeat_invocation_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, strategy="defkt", seeds=[3])
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", config, "--out", str(out_a)]) == 0
        assert main(["run", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "defkt_3.csv").read_bytes() == (out_b / "defkt_3.csv").read_bytes()

    def test_metadata_records_resolved_settings(self, tmp_path):
        config = write_config(tmp_path, strategy="combo", seeds=[5])
        out = tmp_path / "runs"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        meta = json.loads((out / "combo_5.meta.json").read_text())
        assert meta["senders_per_round"] == 1
        assert meta["mkt_passes"] == 1
        assert meta["reduction"] == "mean"
        total = meta["param_count"]
        assert meta["segment_split_index"] == (total + 1) // 2
        assert meta["seed"] == 5
        assert meta["strategy"] == "combo"

    def test_metadata_names_the_final_parameters(self, tmp_path, monkeypatch):
        """final_params_sha256 is the sha256 of each final state's float64 bytes, in client order."""
        config = write_config(tmp_path, seeds=[2, 3])
        finals = []
        run_experiment = cli.run_experiment

        def keep(*args, **kwargs):
            timeline, states = run_experiment(*args, **kwargs)
            finals.append(states)
            return timeline, states

        monkeypatch.setattr(cli, "run_experiment", keep)
        out = tmp_path / "runs"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        names = [f"{s}_{seed}" for seed in (2, 3) for s in ("defkt", "fullavg", "combo")]
        assert len(finals) == len(names)
        for name, states in zip(names, finals):
            meta = json.loads((out / f"{name}.meta.json").read_text())
            want = [hashlib.sha256(states[k].params.tobytes()).hexdigest() for k in sorted(states)]
            assert meta["final_params_sha256"] == want
        assert len({tuple(json.loads((out / f"{n}.meta.json").read_text())["final_params_sha256"])
                    for n in names}) == len(names)

    def test_metadata_names_what_decided_its_bits(self, tmp_path):
        """The run's environment key and the package version, and no timing: a repeat writes the same file."""
        config = write_config(tmp_path, strategy="fullavg", seeds=[4])
        out, metas = tmp_path / "runs", []
        for _ in range(2):
            assert main(["run", "--config", config, "--out", str(out)]) == 0
            metas.append((out / "fullavg_4.meta.json").read_bytes())
        meta = json.loads(metas[0])
        assert meta["environment_key"] == blas.environment_key()
        assert meta["version"] == defkt.__version__
        assert metas[0] == metas[1]

    def test_csv_strategy_and_seed_columns(self, tmp_path):
        config = write_config(tmp_path, strategy="fullavg", seeds=[9])
        out = tmp_path / "runs"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        records = read_csv(str(out / "fullavg_9.csv"))
        assert records[0].round == 0
        assert all(r.strategy == "fullavg" and r.seed == 9 for r in records)
        assert [r.round for r in records] == [0, 2, 4]

    def test_configuration_error_exit_code(self, tmp_path):
        config = write_config(tmp_path, senders=3)  # 2Q=6 > K=4
        assert main(["run", "--config", config]) == 1

    @pytest.mark.parametrize(
        "overrides, flags",
        [
            ({}, ["--clients", "5000"]),  # more clients than samples
            ({"synthetic": dict(TINY["synthetic"], dims=0)}, []),
            ({"synthetic": dict(TINY["synthetic"], sigma=-1.0)}, []),
            ({"subset": -5}, []),
            ({"clients": "ten"}, []),
            ({"hidden": 5}, []),
            ({"synthetic": dict(TINY["synthetic"], classes=2.5)}, []),
            ({"synthetic": 5}, []),
            ({"momentum": "fast"}, []),
            ({"rounds": 2.7}, []),
            ({"hidden": [0]}, []),
            ({"lr": float("nan")}, []),
            ({1: 2}, []),
            ({"output_dir": ["a", "b"]}, []),
            ({"data_dir": {"x": 1}}, []),
            ({"partition": "iid", "xi": 2}, []),  # unknown key: xi alone picks the partition
            ({"rounds": True}, []),  # YAML `on`
            ({"momentum": False}, []),  # YAML `off`
            ({"xi": 0}, []),
            ({}, ["--clients", "ten"]),
            ({}, ["--rounds", "2.5"]),
            ({}, ["--lr", "x"]),
            ({}, ["--seed", "a"]),
            ({}, ["--strategy", "best"]),
            ({}, ["--seed", "1", "--seed", "1"]),
            ({"seeds": [2, 3, 2]}, []),
            ({}, ["--senders", "-1"]),
        ],
        ids=[
            "clients-exceed-corpus", "synthetic-dims-0", "synthetic-sigma-negative", "subset-negative",
            "clients-not-a-number", "hidden-not-a-list", "synthetic-classes-fractional",
            "synthetic-not-a-mapping", "momentum-not-a-number", "rounds-fractional", "hidden-width-0",
            "lr-nan", "non-string-key", "output-dir-a-list", "data-dir-a-mapping",
            "xi-under-iid", "rounds-boolean", "momentum-boolean", "xi-0",
            "flag-clients-not-a-number", "flag-rounds-fractional", "flag-lr-not-a-number",
            "flag-seed-not-a-number", "flag-strategy-unknown", "flag-seed-repeated", "seeds-repeated",
            "flag-senders-negative",
        ],
    )
    def test_bad_input_exits_one_with_message(self, tmp_path, monkeypatch, capsys, overrides, flags):
        monkeypatch.chdir(tmp_path)  # a relative output_dir accepted by mistake is written here
        config = write_config(tmp_path, overrides)
        # --out would win over the file's output_dir
        out = [] if "output_dir" in overrides else ["--out", str(tmp_path / "runs")]
        assert main(["run", "--config", config, *out, *flags]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize(
        "overrides, flags, message",
        [
            ({}, ["--seed", "1", "--seed", "1"], "config key seeds: "),
            ({}, ["--senders", "-1"], "config key senders: must be nonnegative, got -1\n"),
            ({}, ["--passes-e", "-1"], "config key passes_e: must be at least 0, got -1\n"),
            ({}, ["--passes-m", "0"], "config key passes_m: must be at least 1, got 0\n"),
            ({}, ["--batch-b1", "0"], "config key batch_b1: must be at least 1, got 0\n"),
            ({}, ["--batch-b2", "0"], "config key batch_b2: must be at least 1, got 0\n"),
            ({}, ["--rounds", "-1"], "config key rounds: must be at least 0, got -1\n"),
            ({}, ["--clients", "1"], "config key clients: need at least 2 clients, got 1\n"),
            ({}, ["--clients", "4", "--senders", "3"],
             "config key senders: twice its value must not exceed config key clients (4), got 3\n"),
            ({}, ["--momentum", "1"], "config key momentum: must lie in [0, 1), got 1.0\n"),
            ({}, ["--lr", "-1"], "config key lr: must be nonnegative and finite, got -1.0\n"),
            ({}, ["--eval-every", "0"], "config key eval_every: must be at least 1, got 0\n"),
            ({"subset": 0}, [], "config key subset: must be at least 1, got 0\n"),
            ({"subset": 121}, [], "config key subset: must not exceed the corpus size 120, got 121\n"),
            ({}, ["--xi", "0"], "config key xi: must be at least 1, got 0\n"),
            ({}, ["--xi", "9"], "config key xi: must not exceed the corpus class count 3, got 9\n"),
            ({"hidden": [6, 0]}, [], "config key hidden: every width must be at least 1, got [6, 0]\n"),
            ({"synthetic": dict(TINY["synthetic"], classes=1)}, [],
             "synthetic key classes: must be at least 2, got 1\n"),
            ({"synthetic": dict(TINY["synthetic"], test_per_class=0)}, [],
             "synthetic key test_per_class: must be at least 1, got 0\n"),
            ({"synthetic": dict(TINY["synthetic"], sigma=float("inf"))}, [],
             "synthetic key sigma: must be nonnegative and finite, got inf\n"),
            # derive_seed reduces keys mod 2**64: -1 would alias 2**64 - 1, and 2**64 would alias 0
            ({}, ["--seed", "-1"], "config key seeds: must lie in [0, 2**64), got -1\n"),
            ({}, ["--seed", "1", "--seed", str(2**64)],
             "config key seeds: must lie in [0, 2**64), got 18446744073709551616\n"),
            ({"synthetic": dict(TINY["synthetic"], seed=-1)}, [],
             "synthetic key seed: must lie in [0, 2**64), got -1\n"),
            ({}, ["--clients", "200"], "config key clients: must leave every client at least 5 of the corpus's "
                                       "120 rows, got 200\n"),
            ({}, ["--clients", "30"], "config key clients: must leave every client at least 5 of the corpus's "
                                      "120 rows, got 30\n"),
            ({"dataset": "x"}, [],
             "config key dataset: must be one of ('mnist', 'fashion-mnist', 'synthetic'), got 'x'\n"),
        ],
        ids=[
            "seed-repeated", "senders-negative", "passes-e-negative", "passes-m-0", "batch-b1-0",
            "batch-b2-0", "rounds-negative", "clients-1", "senders-exceed-clients", "momentum-1",
            "lr-negative", "eval-every-0", "subset-0", "subset-exceeds-corpus", "xi-0", "xi-exceeds-classes",
            "hidden-width-0", "synthetic-classes-1", "synthetic-test-per-class-0", "synthetic-sigma-inf",
            "seed-negative", "seed-2-to-the-64", "synthetic-seed-negative", "clients-exceed-rows",
            "clients-leave-4-rows", "dataset-unknown",
        ],
    )
    def test_bad_input_message_names_the_value(self, tmp_path, capsys, overrides, flags, message):
        config = write_config(tmp_path, overrides)
        assert main(["run", "--config", config, "--out", str(tmp_path / "runs"), *flags]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, convert, rule", RULED_KEYS, ids=[f"{s}-{k}" for s, k, _, _ in RULED_KEYS])
    def test_bad_values_derived_from_each_rule_name_their_key(self, tmp_path, capsys, section, key, convert, rule):
        bad = derived_bad_values(convert, rule)
        assert len(bad) >= 6
        wrong = []
        for value in bad:
            overrides = {key: value} if section == "config" else {"synthetic": dict(TINY["synthetic"], **{key: value})}
            status = main(["run", "--config", write_config(tmp_path, overrides), "--out", str(tmp_path / "runs")])
            err = capsys.readouterr().err
            if status != 1 or not err.startswith(f"configuration error: {section} key {key}: "):
                wrong.append((value, status, err))
        assert wrong == []

    def test_numerical_failure_prints_only_its_error(self, tmp_path):
        # a subprocess, so that numpy's RuntimeWarnings would reach stderr as a user sees them
        config = write_config(tmp_path, strategy="defkt", seeds=[1])
        src = str(Path(defkt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "defkt.cli", "run", "--config", config, "--out", str(tmp_path / "runs"),
             "--lr", "1e300"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: round 1, client 4: non-finite gradient\n"

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs: with one, no pool opens and no half runs on a pool thread")
    def test_numerical_failure_in_a_pooled_fusion_half_prints_only_its_error(self, tmp_path):
        # the local model's half of a 200-row minibatch reaches the pool's gate; its rate makes the
        # local model overflow on a pool thread, which must keep `defkt run`'s np.errstate
        config = write_config(
            tmp_path, strategy="defkt", seeds=[1], clients=2, rounds=1, eval_every=1, hidden=[200, 200],
            batch_b1=200, batch_b2=200, mkt_lr_local=1e300,
            synthetic={"classes": 4, "per_class": 250, "dims": 100, "sigma": 1.0, "test_per_class": 5},
        )
        assert 200 * ModelSpec.mlp(100, (200, 200), 4).macs_per_row >= metrics.PARALLEL_EVAL_WORK
        src = str(Path(defkt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "defkt.cli", "run", "--config", config, "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert re.fullmatch(r"error: round 1, client [12]: non-finite gradient\n", proc.stderr), proc.stderr

    def test_failed_metadata_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, strategy="defkt", seeds=[1])
        out = tmp_path / "runs"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        earlier = (out / "defkt_1.meta.json").read_bytes()

        def failing_dump(obj, fh, **kwargs):
            fh.write("{")
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "defkt_1.meta.json: disk full" in capsys.readouterr().err
        assert (out / "defkt_1.meta.json").read_bytes() == earlier
        assert sorted(p.name for p in out.iterdir()) == ["defkt_1.csv", "defkt_1.meta.json"]

    @pytest.mark.parametrize("message", ["Unable to allocate 1.00 TiB for an array with shape (10, 13743895347)", ""])
    def test_out_of_memory_exits_two_with_one_line(self, tmp_path, monkeypatch, capsys, message):
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr("defkt.cli.build_client_states", exhausted)
        config = write_config(tmp_path, strategy="defkt", seeds=[1])
        assert main(["run", "--config", config, "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")

    # "file" is a regular file; "runs" holds a directory where the metadata file goes
    @pytest.mark.parametrize(
        "target", ["file", "file/sub", "runs"], ids=["out-is-file", "out-under-file", "meta-path-is-dir"]
    )
    def test_unwritable_output_exits_two_with_message(self, tmp_path, capsys, target):
        (tmp_path / "file").write_text("")
        (tmp_path / "runs" / "defkt_1.meta.json").mkdir(parents=True)
        config = write_config(tmp_path, strategy="defkt", seeds=[1])
        assert main(["run", "--config", config, "--out", str(tmp_path / target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCmdInspectPartition:
    def test_reports_counts_and_conserves_histogram(self, tmp_path, capsys):
        config = write_config(tmp_path, xi=2)
        assert main(["inspect-partition", "--config", config]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        client_rows = [l for l in lines if l.strip().startswith(("1 ", "2 ", "3 ", "4 "))]
        assert len(client_rows) == 4
        assert lines[-1].strip().startswith("total")
        assert "120" in lines[-1]  # 3 classes x 40 per class

    def test_closed_stdout_exits_one_without_traceback(self):
        # the reader closes the pipe before the first line is written, like `| head -0`
        src = str(Path(defkt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "defkt.cli", "inspect-partition", "--clients", "40", "--xi", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in stderr, stderr

    def test_iid_histograms_near_global_proportions(self):
        # with 10 clients on a large balanced corpus, each shard's class counts
        # stay within 3 sigma of the multinomial expectation
        config = resolve_config(
            {
                "dataset": "synthetic",
                "clients": 10,
                "synthetic": {"classes": 10, "per_class": 6000, "dims": 4},
            }
        )
        corpus, _ = load_corpus(config, seed=1)
        shards = make_shards(config, corpus, seed=1)
        n_per_shard = 6000
        p = 0.1
        sigma = np.sqrt(n_per_shard * p * (1 - p))
        for shard in shards:
            hist = label_histogram(shard.labels, 10)
            assert np.all(np.abs(hist - n_per_shard * p) <= 3 * sigma)

    def test_histograms_sum_to_source(self, tmp_path):
        config = resolve_config(dict(TINY, xi=2))
        corpus, _ = load_corpus(config, seed=2)
        shards = make_shards(config, corpus, seed=2)
        total = sum(label_histogram(s.labels, 3) for s in shards)
        np.testing.assert_array_equal(total, label_histogram(corpus.labels, 3))


class TestCmdEval:
    def test_initial_model_matches_round_zero_record(self, tmp_path, capsys):
        config_path = write_config(tmp_path, strategy="defkt", seeds=[4])
        out = tmp_path / "runs"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        round0 = read_csv(str(out / "defkt_4.csv"))[0]

        config = resolve_config(dict(TINY, strategy="defkt", seeds=[4]))
        corpus, test = load_corpus(config, seed=4)
        spec = model_spec(config, corpus)
        shards = make_shards(config, corpus, seed=4)
        states = build_client_states(spec, shards, config.hyper_for(4))
        model_path = tmp_path / "w0.bin"
        save_model(str(model_path), spec, states[1].params)

        capsys.readouterr()
        assert main(["eval", "--config", config_path, "--model-file", str(model_path)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == f"accuracy {round0.global_acc:.6f}"

    def test_corrupted_model_exits_two(self, tmp_path):
        config_path = write_config(tmp_path)
        config = resolve_config(dict(TINY))
        corpus, _ = load_corpus(config, seed=1)
        spec = model_spec(config, corpus)
        model_path = tmp_path / "w.bin"
        save_model(str(model_path), spec, init_params(spec, 1))
        blob = bytearray(model_path.read_bytes())
        blob[10] ^= 0x01
        model_path.write_bytes(bytes(blob))
        assert main(["eval", "--config", config_path, "--model-file", str(model_path)]) == 2

    def test_trailing_bytes_exits_two(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        config = resolve_config(dict(TINY))
        corpus, _ = load_corpus(config, seed=1)
        spec = model_spec(config, corpus)
        model_path = tmp_path / "w.bin"
        save_model(str(model_path), spec, init_params(spec, 1))
        model_path.write_bytes(model_path.read_bytes() + b"\x00" * 8)
        assert main(["eval", "--config", config_path, "--model-file", str(model_path)]) == 2
        assert "trailing bytes" in capsys.readouterr().err

    def test_eval_agrees_with_evaluate(self, tmp_path, capsys):
        from defkt.metrics import evaluate

        config_path = write_config(tmp_path)
        config = resolve_config(dict(TINY))
        corpus, test = load_corpus(config, seed=1)
        spec = model_spec(config, corpus)
        params = init_params(spec, 33)
        model_path = tmp_path / "w.bin"
        save_model(str(model_path), spec, params)
        capsys.readouterr()
        assert main(["eval", "--config", config_path, "--model-file", str(model_path)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == f"accuracy {evaluate(spec, params, test):.6f}"


class TestSharedStartAcrossStrategies:
    def test_same_seed_shares_partition_and_initial_model(self, tmp_path):
        config = resolve_config(dict(TINY, seeds=[6]))
        corpus_a, _ = load_corpus(config, seed=6)
        corpus_b, _ = load_corpus(config, seed=6)
        np.testing.assert_array_equal(corpus_a.inputs, corpus_b.inputs)
        shards_a = make_shards(config, corpus_a, seed=6)
        shards_b = make_shards(config, corpus_b, seed=6)
        for x, y in zip(shards_a, shards_b):
            np.testing.assert_array_equal(x.batch(slice(None)).inputs, y.batch(slice(None)).inputs)
        spec = model_spec(config, corpus_a)
        sa = build_client_states(spec, shards_a, config.hyper_for(6))
        sb = build_client_states(spec, shards_b, config.hyper_for(6))
        np.testing.assert_array_equal(sa[1].params, sb[1].params)
        starts = [timeline[0] for *_, timeline, _ in runs(config)]
        assert [r.strategy for r in starts] == ["defkt", "fullavg", "combo"]
        assert len({(r.round, r.global_acc, r.local_acc, r.scalars_transmitted) for r in starts}) == 1


class TestRunMemory:
    def test_shards_and_clients_copy_no_rows(self):
        """Shards, splits and initial models of a reference-size run allocate under 10% of the corpus."""
        config = resolve_config({
            "dataset": "synthetic", "clients": 10, "hidden": [200, 200],
            "synthetic": {"classes": 10, "per_class": 600, "dims": 784, "sigma": 0.1, "test_per_class": 1},
        })
        corpus, _ = load_corpus(config, seed=1)
        spec = model_spec(config, corpus)
        tracemalloc.start()
        try:
            shards = make_shards(config, corpus, seed=1)
            states = build_client_states(spec, shards, config.hyper_for(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(states) == 10
        assert len({id(s.params) for s in states.values()}) == 1  # one shared initial vector
        assert peak < 0.1 * corpus.inputs.nbytes

    def test_corpus_subset_is_a_view(self):
        config = resolve_config(dict(TINY, subset=50))
        corpus, _ = load_corpus(config, seed=3)
        assert isinstance(corpus, DatasetView) and len(corpus) == 50
        assert model_spec(config, corpus).input_dim == 5
        assert all(shard.source is corpus.source for shard in make_shards(config, corpus, seed=3))


class TestImportCost:
    def test_cli_and_json_configs_never_import_yaml(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(TINY))
        src = str(Path(defkt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import sys, defkt.cli\n"
            "print('yaml' in sys.modules)\n"
            f"defkt.cli._load_config_file({str(path)!r})\n"
            "print('yaml' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]


class TestBlasThreads:
    """`defkt run` pins one BLAS thread itself, so an unpinned run on a multi-core host gives the pinned bytes."""

    # the reference MLP (784-200-200-10) on a small surrogate corpus: its 48-row batches are products
    # OpenBLAS splits over two threads, which changes final parameters, though not accuracies, at this size
    REFERENCE = {
        "dataset": "synthetic", "clients": 10, "senders": 1, "lr": 0.01, "momentum": 0.5, "batch_b1": 200,
        "batch_b2": 200, "hidden": [200, 200], "eval_every": 1, "rounds": 3,
        "synthetic": {"classes": 10, "per_class": 60, "dims": 784, "sigma": 0.1, "test_per_class": 10},
    }
    # `defkt run` through cli.main, printing the environment key before it to stderr and after each run;
    # each run's .meta.json holds its final parameters' digests, so comparing the files compares those too
    RUN = (
        "import sys\n"
        "from defkt import blas, cli\n"
        "print(blas.environment_key(), file=sys.stderr)\n"
        "run_experiment = cli.run_experiment\n"
        "def keyed(*args, **kwargs):\n"
        "    result = run_experiment(*args, **kwargs)\n"
        "    print(blas.environment_key())\n"
        "    return result\n"
        "cli.run_experiment = keyed\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs: with one, OpenBLAS starts one thread whatever the environment")
    def test_an_unpinned_run_gives_the_pinned_bytes(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.REFERENCE))
        src = str(Path(defkt.__file__).resolve().parents[1])
        unset = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        base = {k: v for k, v in os.environ.items() if k not in unset}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = {}
        for name, env in (("unpinned", base), ("pinned", dict(base, OPENBLAS_NUM_THREADS="1"))):
            (tmp_path / name).mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", self.RUN, "run", "--config", str(config), "--out", "out", "--strategy", "all"],
                cwd=tmp_path / name, capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            files = {path.name: path.read_bytes() for path in sorted((tmp_path / name / "out").iterdir())}
            runs[name] = proc.stdout, files, proc.stderr
        (stdout, files, imported), (pinned_stdout, pinned_files, _) = runs["unpinned"], runs["pinned"]
        assert not imported.strip().endswith("OPENBLAS_NUM_THREADS=1"), imported  # importing defkt pins nothing
        assert stdout.count("OPENBLAS_NUM_THREADS=1\n") == 3  # every run ran pinned
        assert len(files) == 6 and files == pinned_files
        assert stdout == pinned_stdout
