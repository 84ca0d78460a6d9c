"""Span tracing of the package's public functions, from outside the package.

`Tracer.install` wraps each function in TARGETS and rebinds the wrapper in
every `defkt` module that holds the original, so calls through an imported
name (`federation.forward_cached`, `metrics.forward`, `cli.synth_dataset`)
and module-internal calls (`nn.forward` -> `nn.forward_cached`) are all
seen. A span is (label, parent span, start, end, work), kept in memory and
written out with `dump` when the run ends. `summarize` turns the span files
of several traced runs into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

import opcount


def _flops(per_sample, rows):
    """Work measure: computed FLOPs of a call, from its spec (first argument) and row count."""
    cache: dict[int, tuple] = {}

    def work(args):
        hit = cache.get(id(args[0]))
        if hit is None:
            hit = cache[id(args[0])] = (args[0], per_sample(args[0]))  # holds the spec so its id stays unique
        return hit[1] * rows(args)
    return work


_FWD = _flops(opcount.forward_flops_per_sample, lambda a: len(a[2]))
_BWD = _flops(opcount.backward_flops_per_sample, lambda a: a[3].shape[0])

# (module, function, span label, work measure). The work measure maps the
# call's arguments to a number summed per label: FLOPs for the engine,
# rows for evaluate, clients for global_accuracy. The package passes these
# arguments positionally.
TARGETS = [
    ("nn", "forward_cached", "nn.forward_cached", _FWD),
    ("nn", "backward_from_cache", "nn.backward_from_cache", _BWD),
    ("nn", "sgd_step", "nn.sgd_step", None),
    ("nn", "forward", "nn.forward", _FWD),
    ("losses", "softmax", "losses.softmax", None),
    ("losses", "cross_entropy_grad_logits", "losses.grad_logits", None),
    ("losses", "mutual_loss_grad_logits", "losses.grad_logits", None),
    ("data", "minibatches", "data.minibatches", None),
    ("data", "synth_dataset", "data.synth_dataset", None),
    ("data", "partition", "data.partition", None),
    ("data", "train_val_split", "data.train_val_split", None),
    ("seeding", "derive_rng", "seeding.derive_rng", None),
    ("federation", "select_round", "federation.select_round", None),
    ("federation", "run_round", "federation.run_round", None),
    ("federation", "local_update", "federation.local_update", None),
    ("federation", "fuse_defkt", "federation.fuse_defkt", None),
    ("federation", "fuse_fullavg", "federation.fuse_fullavg", None),
    ("federation", "fuse_combo", "federation.fuse_combo", None),
    ("federation", "build_client_states", "federation.build_client_states", None),
    ("federation", "run_experiment", "federation.run_experiment", None),
    ("metrics", "global_accuracy", "metrics.global_accuracy", lambda a: len(a[0])),
    ("metrics", "local_accuracy", "metrics.local_accuracy", None),
    ("metrics", "evaluate", "metrics.evaluate", lambda a: len(a[2])),
    ("metrics", "emit_csv", "metrics.emit_csv", None),
    ("cli", "load_corpus", "cli.load_corpus", None),
    ("cli", "make_shards", "cli.make_shards", None),
    ("cli", "cmd_run", "cli.cmd_run", None),
]
GENERATORS = {"data.minibatches"}  # spanned per next(); work is 1 per yielded batch
# nn.forward is the eval path and calls nn.forward_cached; the inner call is
# folded into the nn.forward span, so nn.forward_cached is the training path.
FOLDED = {"nn.forward_cached": "nn.forward"}

LABEL, PARENT, START, END, WORK = range(5)


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.records: list[list[float]] = []
        self._stack: list[int] = []

    def _label_id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def _open(self, label_id: int, work: float) -> list[float]:
        record = [label_id, self._stack[-1] if self._stack else -1, 0.0, 0.0, work]
        self._stack.append(len(self.records))
        self.records.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list[float]) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, label: str, work=None):
        label_id = self._label_id(label)
        fold_id = self._label_id(FOLDED[label]) if label in FOLDED else None
        records, stack = self.records, self._stack

        def spanned(*args, **kwargs):
            if fold_id is not None and stack and records[stack[-1]][LABEL] == fold_id:
                return fn(*args, **kwargs)
            record = self._open(label_id, work(args) if work else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
        return spanned

    def wrap_generator(self, fn, label: str):
        label_id = self._label_id(label)

        def spanned(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                record = self._open(label_id, 1.0)
                try:
                    item = next(inner)
                except StopIteration:
                    record[WORK] = 0.0
                    return
                finally:
                    self._close(record)
                yield item
        return spanned

    def install(self) -> None:
        """Rebind every target in each loaded defkt module that imported it."""
        modules = [m for name, m in list(sys.modules.items()) if name == "defkt" or name.startswith("defkt.")]
        for module_name, attr, label, work in TARGETS:
            original = getattr(sys.modules[f"defkt.{module_name}"], attr)
            if label in GENERATORS:
                wrapped = self.wrap_generator(original, label)
            else:
                wrapped = self.wrap(original, label, work)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

    def dump(self, path: Path) -> None:
        np.savez(path, labels=np.array(self.labels), records=np.array(self.records, dtype=np.float64).reshape(-1, 5))


# ------------------------------ aggregation ------------------------------ #

# Per-layer metrics: name -> unit. Order is the report order.
UNITS = {}
for _fn in ("forward_cached", "backward_from_cache", "sgd_step", "forward"):
    UNITS.update({f"nn.{_fn}.calls": "count", f"nn.{_fn}.ms_p50": "ms", f"nn.{_fn}.self_s": "s"})
UNITS.update({
    "nn.train_gflop_per_s": "GFLOP/s", "nn.eval_gflop_per_s": "GFLOP/s",
    "losses.softmax.calls": "count", "losses.softmax.self_s": "s",
    "losses.grad_logits.calls": "count", "losses.grad_logits.self_s": "s",
    "data.minibatches.batches": "count", "data.minibatches.self_s": "s",
    "data.synth_dataset.s": "s", "data.partition.s": "s", "data.train_val_split.s": "s",
    "seeding.derive_rng.calls": "count", "seeding.derive_rng.self_s": "s",
    "federation.select_round.calls": "count", "federation.select_round.ms_p50": "ms",
    "federation.run_round.ms_p50": "ms", "federation.run_round.ms_p95": "ms",
    "federation.run_round.self_s": "s",
    "federation.local_update.calls": "count", "federation.local_update.ms_p50": "ms",
    "federation.local_update.self_s": "s",
    "federation.fuse_defkt.calls": "count", "federation.fuse_defkt.ms_p50": "ms",
    "federation.fuse_defkt.self_s": "s",
    "federation.fuse_fullavg.calls": "count", "federation.fuse_fullavg.ms_p50": "ms",
    "federation.fuse_combo.calls": "count", "federation.fuse_combo.ms_p50": "ms",
    "federation.build_client_states.s": "s",
    "metrics.global_accuracy.calls": "count", "metrics.global_accuracy.ms_p50": "ms",
    "metrics.global_accuracy.self_s": "s",
    "metrics.local_accuracy.calls": "count", "metrics.local_accuracy.ms_p50": "ms",
    "metrics.local_accuracy.self_s": "s",
    "metrics.evaluate.calls": "count", "metrics.evaluate.rows_per_s": "rows/s",
    "metrics.emit_csv.s": "s", "metrics.eval_memo_hit_ratio": "fraction",
    "cli.load_corpus.s": "s", "cli.make_shards.s": "s", "cli.cmd_run.self_s": "s",
    "trace.rounds_per_s_overhead": "fraction",  # filled in by run.py from untraced/traced pairs
})


def _per_run(path: Path) -> dict:
    with np.load(path) as spans:
        labels = [str(x) for x in spans["labels"]]
        records = spans["records"]
    label = records[:, LABEL].astype(np.int64)
    parent = records[:, PARENT].astype(np.int64)
    dur = records[:, END] - records[:, START]
    nested = parent >= 0
    child = np.zeros(len(records))
    np.add.at(child, parent[nested], dur[nested])
    parent_label = np.where(nested, label[np.maximum(parent, 0)], -1)
    out = {}
    for i, name in enumerate(labels):
        mask = label == i
        out[name] = {
            "calls": int(mask.sum()), "dur": dur[mask], "self_s": float((dur - child)[mask].sum()),
            "work": float(records[mask, WORK].sum()),
        }
    ga, ev = labels.index("metrics.global_accuracy"), labels.index("metrics.evaluate")
    out["memo"] = {"lookups": out["metrics.global_accuracy"]["work"],
                   "evaluated": int(((label == ev) & (parent_label == ga)).sum())}
    return out


def summarize(span_files: list[Path]) -> tuple[dict, dict]:
    """Per-layer metrics over traced runs, plus notes on their bases.

    Counts, self times and set-up totals are per run (median over runs);
    percentiles and rates pool every span of every run. A function the
    workload never calls reads 0.
    """
    runs = [_per_run(p) for p in span_files]

    def median(label, key):
        return float(np.median([r[label][key] for r in runs]))

    def pooled(label, key):
        if key == "dur":
            return np.concatenate([r[label]["dur"] for r in runs])
        return sum(r[label][key] for r in runs)

    def pct(label, q):
        dur = pooled(label, "dur")
        return float(np.percentile(dur, q) * 1e3) if dur.size else 0.0

    def rate(labels, scale):
        seconds = sum(pooled(lb, "dur").sum() for lb in labels)
        return sum(pooled(lb, "work") for lb in labels) / seconds / scale if seconds else 0.0

    values = {}
    for name in UNITS:
        label, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = median(label, "calls")
        elif stat == "self_s":
            values[name] = median(label, "self_s")
        elif stat == "s":
            values[name] = float(np.median([r[label]["dur"].sum() for r in runs]))
        elif stat == "ms_p50":
            values[name] = pct(label, 50)
        elif stat == "ms_p95":
            values[name] = pct(label, 95)
    values["nn.train_gflop_per_s"] = rate(["nn.forward_cached", "nn.backward_from_cache"], 1e9)
    values["nn.eval_gflop_per_s"] = rate(["nn.forward"], 1e9)
    values["data.minibatches.batches"] = median("data.minibatches", "work")
    values["metrics.evaluate.rows_per_s"] = rate(["metrics.evaluate"], 1.0)
    lookups = sum(r["memo"]["lookups"] for r in runs)
    evaluated = sum(r["memo"]["evaluated"] for r in runs)
    values["metrics.eval_memo_hit_ratio"] = (lookups - evaluated) / lookups if lookups else 0.0
    rounds = pooled("federation.run_round", "dur").size
    notes = {
        "traced_runs": len(runs),
        "flops": "computed from ModelSpec shapes and batch sizes, not measured",
        "run_round_samples": rounds,
        "run_round_samples_beyond_p95": int(rounds - np.ceil(0.95 * rounds)),
        "eval_memo_base": {"lookups": lookups, "evaluated": evaluated},
    }
    return values, notes
