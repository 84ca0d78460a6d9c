"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Criteria 5 and 8 run against the real MNIST IDX files when they are
present under $DEFKT_DATA_DIR (or ./data); without the files those two
tests skip and equally-shaped surrogate corpora cover the same machinery.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import os

import numpy as np
import pytest

from defkt.cli import _find_idx_files, load_corpus, make_shards, model_spec, resolve_config
from defkt.data import (
    load_idx,
    partition_iid,
    partition_noniid,
    synth_dataset,
    train_val_split,
)
from defkt.errors import ConfigurationError
from defkt.federation import (
    FusionStrategy,
    HyperParams,
    RoundPlan,
    CommLog,
    build_client_states,
    fuse_combo,
    fuse_defkt,
    fuse_fullavg,
    run_experiment,
    run_round,
    select_round,
)
from defkt.losses import (
    cross_entropy,
    kl_divergence,
    mutual_loss_1,
    mutual_loss_grad_logits,
    softmax,
)
from defkt.metrics import emit_csv, evaluate
from defkt.nn import Batch, ModelSpec, backward, forward, init_params, param_count
from defkt.seeding import derive_rng

from oracles import label_histogram, relative_error


def report(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    return ok


def mnist_files() -> dict[str, str] | None:
    data_dir = os.environ.get("DEFKT_DATA_DIR", "data")
    try:
        return _find_idx_files(data_dir, "mnist")
    except ConfigurationError:
        return None


# ----------------------------------------------------------------------
# 1. Exact parameter count
# ----------------------------------------------------------------------

def test_criterion_1_exact_parameter_count():
    total = param_count(ModelSpec.mlp(784, (200, 200), 10))
    assert report("1 exact-parameter-count", total == 199_210, f"count={total}")


# ----------------------------------------------------------------------
# 2. Gradient correctness
# ----------------------------------------------------------------------

def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(2026)

    worst_closed_form = 0.0
    for _ in range(100):
        batch_size = int(rng.integers(1, 9))
        classes = int(rng.integers(2, 11))
        logits = rng.standard_normal((batch_size, classes))
        p_other = softmax(rng.standard_normal((batch_size, classes)))
        labels = rng.integers(1, classes + 1, batch_size)
        grad = mutual_loss_grad_logits(softmax(logits), p_other, labels, "mean")
        h = 1e-6
        for i in range(batch_size):
            for j in range(classes):
                zp = logits.copy()
                zm = logits.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd = (
                    mutual_loss_1(softmax(zp), p_other, labels, "mean")
                    - mutual_loss_1(softmax(zm), p_other, labels, "mean")
                ) / (2 * h)
                worst_closed_form = max(worst_closed_form, relative_error(grad[i, j], fd))

    spec = ModelSpec.mlp(12, (16,), 6)
    assert param_count(spec) <= 1000
    params = init_params(spec, 8)
    batch = Batch(rng.random((5, 12)), rng.integers(1, 7, 5))
    p_other = softmax(rng.standard_normal((5, 6)))

    def end_to_end_loss(p: np.ndarray) -> float:
        return mutual_loss_1(softmax(forward(spec, p, batch)), p_other, batch.labels, "mean")

    probs = softmax(forward(spec, params, batch))
    grad_vec = backward(
        spec, params, batch, mutual_loss_grad_logits(probs, p_other, batch.labels, "mean")
    )
    worst_end_to_end = 0.0
    h = 1e-5
    for c in rng.choice(params.size, size=50, replace=False):
        pp, pm = params.copy(), params.copy()
        pp[c] += h
        pm[c] -= h
        fd = (end_to_end_loss(pp) - end_to_end_loss(pm)) / (2 * h)
        worst_end_to_end = max(worst_end_to_end, relative_error(grad_vec[c], fd))

    ok = worst_closed_form < 1e-4 and worst_end_to_end < 1e-4
    assert report(
        "2 gradient-correctness", ok,
        f"closed-form rel err {worst_closed_form:.2e}, end-to-end rel err {worst_end_to_end:.2e}",
    )


# ----------------------------------------------------------------------
# 3. Loss identities
# ----------------------------------------------------------------------

def test_criterion_3_loss_identities():
    rng = np.random.default_rng(3)
    probs = softmax(rng.standard_normal((16, 7)))
    self_kl_exact_zero = kl_divergence(probs, probs) == 0.0

    min_kl = math.inf
    for _ in range(1000):
        p = softmax(rng.standard_normal((1, 5)) * 4)
        q = softmax(rng.standard_normal((1, 5)) * 4)
        min_kl = min(min_kl, kl_divergence(p, q))

    uniform = np.full((1, 10), 0.1)
    ce_error = abs(cross_entropy(uniform, np.array([7])) - math.log(10.0))

    ok = self_kl_exact_zero and min_kl >= -1e-12 and ce_error < 1e-12
    assert report(
        "3 loss-identities", ok,
        f"KL(P||P)=0 {self_kl_exact_zero}, min KL {min_kl:.2e}, CE error {ce_error:.2e}",
    )


# ----------------------------------------------------------------------
# 4. Fusion oracles
# ----------------------------------------------------------------------

def test_criterion_4_fusion_oracles():
    rng = np.random.default_rng(4)
    brute_force_exact = True
    for _ in range(100):
        size = int(rng.integers(2, 64))
        a, b = rng.standard_normal(size), rng.standard_normal(size)
        na, nb = int(rng.integers(1, 500)), int(rng.integers(1, 500))
        fused = fuse_fullavg(a, b, na, nb)
        for i in range(size):
            if fused[i] != (na * a[i] + nb * b[i]) / (na + nb):
                brute_force_exact = False

    sender, receiver = fuse_combo(
        np.array([2.0, 2.0, 10.0, 10.0]), np.array([6.0, 6.0, 20.0, 20.0]), 1, 1
    )
    combo_hand = np.array_equal(sender, [4.0, 4.0, 10.0, 10.0]) and np.array_equal(
        receiver, [6.0, 6.0, 15.0, 15.0]
    )

    w = rng.standard_normal(31)
    s, r = fuse_combo(w, w, 3, 11)
    idempotent = (
        np.allclose(fuse_fullavg(w, w, 3, 11), w, rtol=1e-15)
        and np.allclose(s, w, rtol=1e-15)
        and np.allclose(r, w, rtol=1e-15)
    )

    ok = brute_force_exact and combo_hand and idempotent
    assert report(
        "4 fusion-oracles", ok,
        f"brute-force exact {brute_force_exact}, combo hand case {combo_hand}, idempotent {idempotent}",
    )


# ----------------------------------------------------------------------
# 5. Partition reproduction
# ----------------------------------------------------------------------

def check_partition_reproduction(corpus, label: str):
    ok = True
    details = []
    noniid = partition_noniid(corpus, 10, 4, seed=5)
    sizes = [len(s) for s in noniid]
    ok &= sizes == [6000] * 10
    details.append(f"shard sizes {sorted(set(sizes))}")
    splits = [train_val_split(s, seed=i) for i, s in enumerate(noniid)]
    ok &= all(len(sp.train) == 4800 and len(sp.validation) == 1200 for sp in splits)
    for shards in (noniid, partition_iid(corpus, 10, seed=6)):
        total = sum(label_histogram(s.labels, corpus.num_classes) for s in shards)
        ok &= bool(np.array_equal(total, label_histogram(corpus.labels, corpus.num_classes)))
    details.append("conservation exact")
    assert report(label, bool(ok), ", ".join(details))


def test_criterion_5_partition_reproduction_mnist():
    files = mnist_files()
    if files is None:
        print("ACCEPTANCE 5 partition-reproduction-mnist: SKIP (no MNIST IDX files under $DEFKT_DATA_DIR)")
        pytest.skip("MNIST IDX files not available in this environment")
    corpus = load_idx(files["train_images"], files["train_labels"], num_classes=10)
    assert len(corpus) == 60_000
    check_partition_reproduction(corpus, "5 partition-reproduction-mnist")


def test_criterion_5_partition_reproduction_surrogate():
    # identically shaped corpus: 60k samples, 10 balanced classes
    corpus = synth_dataset(10, 6000, 5, seed=55)
    check_partition_reproduction(corpus, "5 partition-reproduction-surrogate")


# ----------------------------------------------------------------------
# 6. Protocol invariants over a 500-round run
# ----------------------------------------------------------------------

def _tiny_protocol_setup(seed: int):
    spec = ModelSpec.mlp(6, (5,), 3)
    hyper = HyperParams(
        num_clients=10, senders_per_round=2, rounds=500,
        local_batch_size=8, local_passes=1, local_lr=0.05,
        mkt_batch_size=8, mkt_passes=1, mkt_lr_received=0.05, mkt_lr_local=0.05,
        momentum=0.5, seed=seed,
    )
    corpus = synth_dataset(3, 100, 6, seed=61)
    shards = partition_iid(corpus, 10, seed=62)
    return spec, hyper, shards


def test_criterion_6_protocol_invariants(tmp_path):
    spec, hyper, shards = _tiny_protocol_setup(seed=606)
    total = param_count(spec)

    disjoint_every_round = True
    only_participants_change = True
    payload_exact = True
    for strategy in FusionStrategy:
        states = build_client_states(spec, shards, hyper)
        comm = CommLog(keep_messages=True)
        for t in range(1, hyper.rounds + 1):
            plan = select_round(hyper.num_clients, hyper.senders_per_round, t, hyper.seed)
            disjoint_every_round &= not (set(plan.senders) & set(plan.receivers))
            before = {k: states[k].params for k in states}
            sent_before = len(comm.messages)
            states = run_round(states, plan, strategy, hyper, spec, comm=comm)
            changed = {k for k in states if not np.array_equal(states[k].params, before[k])}
            only_participants_change &= changed == set(plan.senders) | set(plan.receivers)
            for sender, receiver in plan.pairs():
                pair_scalars = sum(
                    m.payload.size for m in comm.messages[sent_before:]
                    if {m.sender, m.receiver} == {sender, receiver}
                )
                payload_exact &= pair_scalars == total

    # byte-identical CSV on rerun with the same config and seed
    csv_paths = []
    for run_id in ("a", "b"):
        states = build_client_states(spec, shards, hyper)
        timeline, _ = run_experiment(
            spec, hyper, FusionStrategy.DEFKT, states, synth_dataset(3, 30, 6, seed=63),
            eval_every=100,
        )
        path = str(tmp_path / f"defkt-acceptance-{run_id}.csv")
        emit_csv(timeline, path)
        csv_paths.append(path)
    with open(csv_paths[0], "rb") as fa, open(csv_paths[1], "rb") as fb:
        reruns_identical = fa.read() == fb.read()

    ok = disjoint_every_round and only_participants_change and payload_exact and reruns_identical
    assert report(
        "6 protocol-invariants", ok,
        f"disjoint {disjoint_every_round}, participant-only changes {only_participants_change}, "
        f"payload exact {payload_exact}, rerun byte-identical {reruns_identical}",
    )


# ----------------------------------------------------------------------
# 7. Desk-scale ordering claim under heterogeneous data
# ----------------------------------------------------------------------

def test_criterion_7_noniid_ordering_and_stability():
    config = resolve_config(
        {
            "dataset": "synthetic",
            "clients": 10,
            "senders": 1,
            "rounds": 300,
            "xi": 2,
            "lr": 0.05,
            "momentum": 0.5,
            "batch_b1": 32,
            "batch_b2": 32,
            "passes_m": 1,
            "passes_e": 1,
            "hidden": [32, 32],
            "eval_every": 10,
            "synthetic": {"classes": 4, "per_class": 400, "dims": 20, "sigma": 1.0, "test_per_class": 100},
        }
    )
    seeds = (1, 2, 3)
    mean_wins = 0
    stability_wins = 0
    lines = []
    for seed in seeds:
        corpus, test = load_corpus(config, seed)
        spec = model_spec(config, corpus)
        shards = make_shards(config, corpus, seed)
        window_stats = {}
        for strategy in FusionStrategy:
            states = build_client_states(spec, shards, config.hyper_for(seed))
            timeline, _ = run_experiment(
                spec, config.hyper_for(seed), strategy, states, test, eval_every=config.eval_every
            )
            window = np.array([r.global_acc for r in timeline[-20:]])
            window_stats[strategy] = (float(window.mean()), float(window.std()))
        mkt_mean, mkt_std = window_stats[FusionStrategy.DEFKT]
        baselines = (FusionStrategy.FULLAVG, FusionStrategy.COMBO)
        if all(mkt_mean >= window_stats[b][0] for b in baselines):
            mean_wins += 1
        if all(mkt_std <= window_stats[b][1] for b in baselines):
            stability_wins += 1
        lines.append(
            f"seed {seed}: "
            + " ".join(f"{s.value} {window_stats[s][0]:.3f}/{window_stats[s][1]:.3f}" for s in FusionStrategy)
        )
    for line in lines:
        print(f"  {line}")
    ok = mean_wins >= 2 and stability_wins >= 2
    assert report(
        "7 noniid-ordering-and-stability", ok,
        f"mean wins {mean_wins}/3, stability wins {stability_wins}/3",
    )


# ----------------------------------------------------------------------
# 8. Desk-scale learning sanity under homogeneous data
# ----------------------------------------------------------------------

def run_learning_sanity(config, seed: int, label: str):
    corpus, test = load_corpus(config, seed)
    spec = model_spec(config, corpus)
    shards = make_shards(config, corpus, seed)
    finals = {}
    gaps = {}
    for strategy in FusionStrategy:
        states = build_client_states(spec, shards, config.hyper_for(seed))
        timeline, _ = run_experiment(
            spec, config.hyper_for(seed), strategy, states, test, eval_every=config.eval_every
        )
        final = timeline[-1]
        finals[strategy.value] = final.global_acc
        gaps[strategy.value] = abs(final.global_acc - final.local_acc)
    ok = all(acc >= 0.75 for acc in finals.values()) and all(g <= 0.05 for g in gaps.values())
    detail = ", ".join(f"{k} acc={finals[k]:.3f} gap={gaps[k]:.3f}" for k in finals)
    assert report(label, ok, detail)


def test_criterion_8_iid_learning_sanity_mnist():
    if mnist_files() is None:
        print("ACCEPTANCE 8 iid-learning-sanity-mnist: SKIP (no MNIST IDX files under $DEFKT_DATA_DIR)")
        pytest.skip("MNIST IDX files not available in this environment")
    config = resolve_config(
        {
            "dataset": "mnist",
            "subset": 6000,
            "clients": 10,
            "senders": 1,
            "rounds": 500,
            "lr": 0.01,
            "momentum": 0.5,
            "batch_b1": 200,
            "batch_b2": 200,
            "passes_m": 1,
            "passes_e": 1,
            "hidden": [200, 200],
            "eval_every": 50,
        }
    )
    run_learning_sanity(config, seed=1, label="8 iid-learning-sanity-mnist")


def test_criterion_8_iid_learning_sanity_surrogate():
    # same protocol and model at the reference scale; tight 784-d blob corpus
    # stands in for the image data (floor calibrated on this generator)
    config = resolve_config(
        {
            "dataset": "synthetic",
            "clients": 10,
            "senders": 1,
            "rounds": 500,
            "lr": 0.01,
            "momentum": 0.5,
            "batch_b1": 200,
            "batch_b2": 200,
            "passes_m": 1,
            "passes_e": 1,
            "hidden": [200, 200],
            "eval_every": 100,
            "synthetic": {"classes": 10, "per_class": 600, "dims": 784, "sigma": 0.10, "test_per_class": 100},
        }
    )
    run_learning_sanity(config, seed=1, label="8 iid-learning-sanity-surrogate")


# ----------------------------------------------------------------------
# 9. Trivial-round identities
# ----------------------------------------------------------------------

def test_criterion_9_trivial_round_identities():
    spec = ModelSpec.mlp(6, (5,), 3)
    hyper = HyperParams(
        num_clients=4, senders_per_round=1, rounds=0,
        local_batch_size=8, local_lr=0.05, mkt_batch_size=8, momentum=0.5, seed=9,
    )
    corpus = synth_dataset(3, 40, 6, seed=91)
    shards = partition_iid(corpus, 4, seed=92)
    states = build_client_states(spec, shards, hyper)
    test_data = synth_dataset(3, 30, 6, seed=93)

    timeline, final_states = run_experiment(spec, hyper, FusionStrategy.DEFKT, states, test_data)
    accs = {evaluate(spec, final_states[k].params, test_data) for k in final_states}
    zero_rounds_ok = len(timeline) == 1 and timeline[0].round == 0 and len(accs) == 1

    received = init_params(spec, 1)
    local = init_params(spec, 2)
    fused = fuse_defkt(
        received, local, states[1].data, spec, 8, 1, 0.0, 0.0, 0.5, derive_rng(94)
    )
    zero_rate_ok = np.array_equal(fused, received)

    empty_plan = RoundPlan(round_index=1, senders=(), receivers=())
    after = run_round(states, empty_plan, FusionStrategy.FULLAVG, hyper, spec)
    empty_round_ok = all(np.array_equal(after[k].params, states[k].params) for k in states)

    ok = zero_rounds_ok and zero_rate_ok and empty_round_ok
    assert report(
        "9 trivial-round-identities", ok,
        f"T=0 shared eval {zero_rounds_ok}, zero-rate fusion identity {zero_rate_ok}, "
        f"empty round no-op {empty_round_ok}",
    )
