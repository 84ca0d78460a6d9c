"""CLI tests: config resolution, run/inspect/eval subcommands, exit codes."""

import json

import numpy as np
import pytest
import yaml

from defkt.cli import (
    load_corpus,
    load_model,
    main,
    make_shards,
    model_spec,
    resolve_config,
    save_model,
)
from defkt.errors import ConfigurationError, LoadError
from defkt.federation import build_client_states
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


class TestResolveConfig:
    def test_minimal_defaults(self):
        config = resolve_config({"dataset": "synthetic", "clients": 10})
        assert config.senders == 1  # 20% participation: ceil(10 / 10)
        assert config.mkt_passes == 1
        assert config.momentum == 0.5
        assert config.reduction == "mean"
        assert config.partition_mode == "iid"

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
        assert config.partition_mode == "noniid"
        assert config.classes_per_client == 4

    def test_noniid_without_xi_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_config({"partition": "noniid"})

    def test_flags_override_file(self):
        config = resolve_config({"clients": 10, "rounds": 100}, {"rounds": 7})
        assert config.rounds == 7
        assert config.num_clients == 10

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_config({"seeds": []})

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


def write_config(tmp_path, **overrides):
    values = dict(TINY)
    values.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(values))
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
        ],
        ids=["clients-exceed-corpus", "synthetic-dims-0", "synthetic-sigma-negative", "subset-negative"],
    )
    def test_bad_input_exits_one_with_message(self, tmp_path, capsys, overrides, flags):
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "runs"
        assert main(["run", "--config", config, "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")


class TestCmdInspectPartition:
    def test_reports_counts_and_conserves_histogram(self, tmp_path, capsys):
        config = write_config(tmp_path, xi=2)
        assert main(["inspect-partition", "--config", config]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        client_rows = [l for l in lines if l.strip().startswith(("1 ", "2 ", "3 ", "4 "))]
        assert len(client_rows) == 4
        assert lines[-1].strip().startswith("total")
        assert "120" in lines[-1]  # 3 classes x 40 per class

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
            np.testing.assert_array_equal(x.inputs, y.inputs)
        spec = model_spec(config, corpus_a)
        sa = build_client_states(spec, shards_a, config.hyper_for(6))
        sb = build_client_states(spec, shards_b, config.hyper_for(6))
        np.testing.assert_array_equal(sa[1].params, sb[1].params)
