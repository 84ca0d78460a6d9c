"""The package names the benchmark harness (perfbench/) reaches into still exist.

perfbench/tracer.py rebinds every function in its TARGETS table and
perfbench/workloads.py reads a few more names; a rename in the package
would otherwise break only the benchmark, which this suite does not run.
"""

import importlib.util
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


def test_names_the_workloads_read_exist():
    from defkt import cli, nn

    assert callable(nn.param_count)
    assert callable(cli.run_experiment)
