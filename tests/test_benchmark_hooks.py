"""The package names the benchmark harness (perfbench/) reaches into still exist.

perfbench/tracer.py rebinds every function in its TARGETS table and
perfbench/workloads.py reads a few more names, and wraps
cli.run_experiment to time `defkt run`; a rename in the package or a change
to that call would otherwise break only the benchmark, which this suite
does not run.
"""

import importlib.util
import inspect
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracer.py imports its sibling opcount.py
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    targets = load_tracer(monkeypatch).TARGETS
    assert targets
    for module_name, attr, *_ in targets:
        module = importlib.import_module(f"defkt.{module_name}")
        assert callable(getattr(module, attr, None)), f"defkt.{module_name}.{attr}"


def load_perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_names_the_workloads_read_exist(monkeypatch):
    from defkt import cli, federation, metrics, nn

    for module, names in (
        (cli, ("main", "resolve_config", "load_corpus", "model_spec", "make_shards", "run_experiment")),
        (federation, ("build_client_states", "run_experiment")),
        (metrics, ("emit_csv",)),
        (nn, ("param_count",)),
    ):
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    assert isinstance(federation.FusionStrategy("defkt"), federation.FusionStrategy)
    assert {"eval_every", "reduction"} <= set(inspect.signature(federation.run_experiment).parameters)
    for workload in load_perfbench_module(monkeypatch, "workloads").WORKLOADS.values():
        config = cli.resolve_config(workload.config)
        assert config.hyper_for(3).seed == 3 and config.senders == config.senders_per_round
        assert {"eval_every", "reduction", "rounds"} <= set(vars(config))


def test_run_calls_run_experiment_through_the_cli_name(tmp_path, monkeypatch):
    # run_cli times hetero-sweep and captures final states by replacing cli.run_experiment
    from defkt import cli

    tiny = load_perfbench_module(monkeypatch, "workloads").WORKLOADS["tiny-cli"]
    (tmp_path / "config.json").write_text(json.dumps(tiny.config))
    calls = []
    run_experiment = cli.run_experiment

    def record(*args, **kwargs):
        calls.append((args[1].seed, args[2].value, len(args), "eval_every" in kwargs))
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", record)
    argv = ["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path), *tiny.flags]
    assert cli.main([*argv, "--seed", "1", "--seed", "2"]) == 0
    expected = [(seed, strategy, 5, True) for seed in (1, 2) for strategy in ("defkt", "fullavg", "combo")]
    assert calls == expected
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(f"{s}_{seed}.csv" for seed, s, *_ in expected)


def test_op_counts_the_benchmark_reports(monkeypatch):
    # the same figures perfbench/tests/test_harness.py expects, which this suite does not collect
    opcount = load_perfbench_module(monkeypatch, "opcount")
    from defkt.nn import ModelSpec

    mlp = ModelSpec.mlp(784)
    assert opcount.forward_flops_per_sample(mlp) == 2 * (784 * 200 + 200 * 200 + 200 * 10)
    assert opcount.backward_flops_per_sample(mlp) == 2 * opcount.forward_flops_per_sample(mlp)
    conv1 = 2 * 26 * 26 * 8 * 1 * 9  # 28x28x1 -> 26x26x8, pooled to 13x13
    conv2 = 2 * 11 * 11 * 16 * 8 * 9  # 13x13x8 -> 11x11x16, pooled to 5x5
    assert opcount.forward_flops_per_sample(ModelSpec.cnn_small()) == conv1 + conv2 + 2 * 400 * 10


def test_macs_per_row_is_half_the_benchmark_forward_flops(monkeypatch):
    # the pool gate counts what the benchmark counts: one multiply-add is two flops
    opcount = load_perfbench_module(monkeypatch, "opcount")
    from defkt.nn import ConvLayer, DenseLayer, MaxPoolLayer, ModelSpec

    pool_first = ModelSpec((1, 13, 13), (MaxPoolLayer(2), ConvLayer(1, 2, 3), MaxPoolLayer(2), DenseLayer(8, 3)), 3)
    for spec in (ModelSpec.mlp(784), ModelSpec.mlp(20, (32, 32), 4), ModelSpec.cnn_small(), pool_first):
        assert 2 * spec.macs_per_row == opcount.forward_flops_per_sample(spec)
