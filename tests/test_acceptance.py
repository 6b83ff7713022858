"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Each test is self-contained and runs against the public API only; the slow
end-to-end experiments (criteria 7 and 9) use small frozen configurations
whose results are exactly reproducible from their seeds.
"""
import json
import time

import numpy as np

from fedchain import cli
from fedchain.chain import StageLossConfig, WindowSchedule, local_update
from fedchain.config import parse_config
from fedchain.data import deep_readout_dataset
from fedchain.federation import (
    DEFAULT_ASSUMPTIONS,
    MEMORY_PRESETS,
    aggregate,
    estimate_peak_memory,
    run,
)
from fedchain.model import StackDims, build_stack, named_parameters
from fedchain.similarity import cka, hsic_linear, profile_layers
from fedchain.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    bias_add,
    gelu,
    layer_norm,
    matmul,
    mean,
    mul,
    relu,
    reshape,
    softmax,
    softmax_cross_entropy,
    sum_all,
    swap_last2,
    tanh,
)

from oracles import finite_difference, hsic_double_sum, max_relative_error

ALL_OPS = {
    "matmul", "add", "mul", "relu", "gelu", "tanh", "bias_add", "layer_norm",
    "softmax", "softmax_cross_entropy", "mean", "sum_all", "reshape",
    "swap_last2",
}


# ------------------------------------------------------- random graph sampler


def _step(cur, stash, step):
    """Apply one recorded op; returns (new current value, new stash)."""
    op = step[0]
    if op == "stash":
        return cur, cur
    if op == "fanin":
        return add(cur, stash), stash
    if op == "matmul":
        return matmul(cur, step[1]), stash
    if op == "add":
        return add(cur, step[1]), stash
    if op == "mul":
        return mul(cur, step[1]), stash
    if op == "relu":
        return relu(cur), stash
    if op == "gelu":
        return gelu(cur), stash
    if op == "tanh":
        return tanh(cur), stash
    if op == "bias_add":
        return bias_add(cur, step[1]), stash
    if op == "layer_norm":
        return layer_norm(cur, step[1], step[2]), stash
    if op == "softmax":
        return softmax(cur), stash
    if op == "reshape":
        return reshape(cur, step[1]), stash
    if op == "swap_last2":
        return swap_last2(cur), stash
    if op == "mean":
        return mean(cur, step[1]), stash
    if op == "ce":
        return softmax_cross_entropy(cur, step[1]), stash
    return sum_all(cur), stash  # "sum_all"


def _replay(x0, plan):
    cur, stash = x0, None
    for step in plan:
        cur, stash = _step(cur, stash, step)
    return cur


def _random_graph(seed):
    """Sample a random op DAG with a scalar loss at the end.

    Leaf magnitudes stay in [0.3, 1.2] and relu is only placed where the
    operand is clear of the kink, keeping central differences valid.
    """
    rng = np.random.default_rng(seed)
    leaves = []

    def leaf(shape):
        vals = rng.uniform(0.3, 1.2, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        t = Tensor(vals, requires_grad=True)
        leaves.append(t)
        return t

    n, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    x = leaf((n, d))
    plan, used = [], set()
    cur, stash = x, None

    def push(*step):
        nonlocal cur, stash
        plan.append(step)
        cur, stash = _step(cur, stash, step)
        if step[0] == "fanin":
            used.add("add")
        elif step[0] == "ce":
            used.add("softmax_cross_entropy")
        elif step[0] != "stash":
            used.add(step[0])

    for _ in range(int(rng.integers(6, 10))):
        nd = cur.data.ndim
        pool = ["pointwise", "pair", "bias_add"]
        if nd == 2:
            pool += ["matmul", "matmul", "softmax", "swap_last2", "flatten"]
            if cur.shape[1] >= 2 and float(np.std(cur.data, axis=-1).min()) > 0.05:
                pool.append("layer_norm")
            if cur.shape[0] >= 2:
                pool.append("mean")
            if stash is None:
                pool.append("stash")
        else:
            pool.append("lift")
        if stash is not None and stash.shape == cur.shape:
            pool += ["fanin", "fanin"]
        pick = str(rng.choice(pool))
        if pick == "pointwise":
            name = str(rng.choice(["relu", "gelu", "tanh"]))
            if name == "relu" and float(np.min(np.abs(cur.data))) <= 0.05:
                name = "tanh"
            push(name)
        elif pick == "pair":
            push(str(rng.choice(["add", "mul"])), leaf(cur.shape))
        elif pick == "bias_add":
            push("bias_add", leaf((cur.shape[-1],)))
        elif pick == "matmul":
            push("matmul", leaf((cur.shape[1], int(rng.integers(2, 5)))))
        elif pick == "layer_norm":
            w = cur.shape[1]
            push("layer_norm", leaf((w,)), leaf((w,)))
        elif pick == "flatten":
            push("reshape", (cur.data.size,))
        elif pick == "lift":
            push("reshape", (1, cur.data.size))
        elif pick == "mean":
            push("mean", 0)
        else:
            push(pick)
    if cur.data.ndim == 2 and cur.shape[1] >= 2 and rng.random() < 0.75:
        push("ce", rng.integers(0, cur.shape[1], size=cur.shape[0]))
    else:
        push("sum_all")
    return x, leaves, plan, used


def test_criterion_1_gradient_fidelity_on_50_random_graphs():
    t0 = time.time()
    coverage = set()
    worst = 0.0
    for seed in range(50):
        x, leaves, plan, used = _random_graph(seed)
        coverage |= used
        for t in leaves:
            t.zero_grad()
        with Tape() as tape:
            loss = _replay(x, plan)
            backward(tape, loss)
        numeric = finite_difference(lambda: _replay(x, plan).item(),
                                    [t.data for t in leaves])
        for t, num in zip(leaves, numeric):
            assert t.grad is not None, f"graph {seed}: leaf missing gradient"
            worst = max(worst, max_relative_error(t.grad, num))
    assert coverage == ALL_OPS, f"ops never sampled: {sorted(ALL_OPS - coverage)}"
    assert worst < 1e-4, f"worst finite-difference mismatch {worst:.2e}"
    assert time.time() - t0 < 10.0


def test_criterion_2_hsic_cka_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        zi = rng.normal(size=(n, int(rng.integers(1, 7))))
        zj = rng.normal(size=(n, int(rng.integers(1, 7))))
        got, want = hsic_linear(zi, zj), hsic_double_sum(zi, zj)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        assert abs(cka(zi, zi) - 1.0) <= 1e-10
        c = float(rng.uniform(0.1, 3.0))
        r = np.linalg.qr(rng.normal(size=(zj.shape[1],) * 2))[0]
        assert abs(cka(zi, zj) - cka(zi, c * zj @ r)) <= 1e-9
    assert time.time() - t0 < 5.0


def test_criterion_3_blockwise_profile_partition_invariance():
    dims = StackDims(L=6, u=8, v=3, C=3, kind="mlp", vocab=11)
    stack = build_stack(dims, seed=3)
    batch = np.random.default_rng(0).integers(0, dims.vocab, size=(4, 5))
    partitions = [
        [[1, 2, 3, 4, 5, 6]],
        [[1, 2, 3], [4, 5, 6]],
        [[1], [2], [3], [4], [5], [6]],
    ]
    profiles = [profile_layers(stack, batch, blocks=p).scores for p in partitions]
    for a in profiles:
        for b in profiles:
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-9


def test_criterion_4_window_schedule_contract_exhaustive():
    for L in range(1, 13):
        for L_start in range(1, L + 1):
            span = L - L_start + 1
            for Q in range(1, L + 2):
                s = WindowSchedule(L_start=L_start, L=L, Q=Q)
                width = min(Q, span)
                assert all(hi - lo + 1 == width for lo, hi in s.positions)
                full = [p for p in s.positions if p[1] - p[0] + 1 == Q]
                for (a1, b1), (a2, b2) in zip(full, full[1:]):
                    assert min(b1, b2) - max(a1, a2) + 1 == Q - 1
                covered = sorted({i for lo, hi in s.positions
                                  for i in range(lo, hi + 1)})
                assert covered == list(range(L_start, L + 1))
                for r in range(1, 2 * s.cycle_len + 1):
                    assert s.window_at_round(r) == s.positions[(r - 1) % s.cycle_len]
                    assert s.window_at_round(r + s.cycle_len) == s.window_at_round(r)


def test_criterion_5_aggregation_exactness():
    dims = StackDims(L=4, u=8, v=3, C=3, kind="mlp", vocab=11)

    # single client: the delta is applied unchanged
    stack = build_stack(dims, seed=1)
    delta = {"final_head.W": np.random.default_rng(0).normal(size=(8, 3))}
    before = stack.final_head.W.data.copy()
    aggregate(stack, [delta], [7])
    assert np.array_equal(stack.final_head.W.data, before + delta["final_head.W"])

    # worked example: sizes (1, 3) with deltas (0, 4) average to exactly 3
    stack = build_stack(dims, seed=1)
    before = stack.final_head.W.data.copy()
    aggregate(stack, [{"final_head.W": np.zeros((8, 3))},
                      {"final_head.W": np.full((8, 3), 4.0)}], [1, 3])
    assert np.array_equal(stack.final_head.W.data, before + 3.0)

    # identical shards, full batch: the averaged round equals one central update
    rng = np.random.default_rng(5)
    x = rng.integers(0, dims.vocab, size=(12, 5))
    y = rng.integers(0, dims.C, size=12)
    deltas = []
    for cid in range(4):
        client = build_stack(dims, seed=5)
        d, _ = local_update(client, x, y, (1, 2), StageLossConfig(lam=0.2),
                            steps=2, lr=0.1, batch_size=12, seed=[7, cid])
        deltas.append(d)
    central = build_stack(dims, seed=5)
    local_update(central, x, y, (1, 2), StageLossConfig(lam=0.2),
                 steps=2, lr=0.1, batch_size=12, seed=99)
    averaged = build_stack(dims, seed=5)
    aggregate(averaged, deltas, [12] * 4)
    got = named_parameters(averaged)
    for name, t in named_parameters(central).items():
        assert np.allclose(got[name].data, t.data, atol=1e-12, rtol=0), name


def test_criterion_6_stage_training_never_increases_loss():
    dims = StackDims(L=4, u=8, v=3, C=3, kind="mlp", vocab=11)
    stack = build_stack(dims, seed=2)
    rng = np.random.default_rng(6)
    x = rng.integers(0, dims.vocab, size=(16, 5))
    y = rng.integers(0, dims.C, size=16)
    # 201 recorded losses bracket 200 updates; full batch keeps steps exact
    _, info = local_update(stack, x, y, (2, 3), StageLossConfig(lam=0.2),
                           steps=201, lr=1e-3, batch_size=16, seed=0)
    losses = info["losses"]
    assert len(losses) == 201
    increases = [b - a for a, b in zip(losses, losses[1:])]
    assert max(increases) <= 1e-8, f"worst increase {max(increases):.2e}"


def test_criterion_7_desk_experiment_accuracy_and_memory():
    t0 = time.time()
    cfg = parse_config({
        "model": {"L": 6, "u": 32, "v": 8, "kind": "mlp", "seed": 0},
        "data": {"kind": "cluster-tokens", "M": 2000, "seq_len": 16, "vocab": 50,
                 "signal": 0.35, "eval_fraction": 0.2},
        "federation": {"N": 20, "rounds": 150, "partition": "iid",
                       "sample_count": 15, "Q": 2},
        "chain": {"lambda": 0.2, "L_start": 1, "lr": 0.5, "local_steps": 2,
                  "batch": 32},
    })
    chain = run(cfg)
    no_gpo = run(cfg, mode="no_gpo")
    elapsed = time.time() - t0
    assert chain.final_accuracy >= 0.95, f"accuracy {chain.final_accuracy:.3f}"
    assert chain.final_accuracy >= no_gpo.final_accuracy
    dims = StackDims(L=6, u=32, v=8, C=2, kind="mlp", vocab=50)
    chain_peak = estimate_peak_memory(dims, 32, 16, Q=2).peak_bytes
    full_peak = estimate_peak_memory(dims, 32, 16, mode="full").peak_bytes
    assert chain_peak < full_peak
    assert elapsed < 300.0, f"took {elapsed:.0f}s"


def test_criterion_8_memory_model_directional_checks():
    dims = MEMORY_PRESETS["llama2-7b-shaped"]
    batch, seq_len = DEFAULT_ASSUMPTIONS["batch"], DEFAULT_ASSUMPTIONS["seq_len"]
    full = estimate_peak_memory(dims, batch, seq_len, mode="full")
    shares = full.shares
    assert shares["params"] > shares["activations"] > shares["adapter_and_grad"]
    reductions = [
        1.0 - estimate_peak_memory(dims, batch, seq_len, Q=q).peak_bytes / full.peak_bytes
        for q in (6, 7, 8)
    ]
    assert reductions[0] > reductions[1] > reductions[2] > 0.0


def test_criterion_9_start_layer_selection_beats_ablation():
    dims = StackDims(L=6, u=16, v=4, C=2, kind="mlp", vocab=40)
    generous = 50.0 * estimate_peak_memory(dims, 32, 12, mode="full").peak_bytes
    cfg = parse_config({
        "model": {"L": 6, "u": 16, "v": 4, "kind": "mlp", "seed": 0,
                  "init_scale": 1.5},
        "data": {"kind": "cluster-tokens", "M": 450, "seq_len": 12, "vocab": 40,
                 "eval_fraction": 0.25},
        "federation": {"N": 8, "rounds": 80, "partition": "iid",
                       "sample_count": 6, "budgets": [generous] * 8},
        "chain": {"lambda": 0.2, "T": 0.8, "lr": 0.3, "local_steps": 2,
                  "batch": 32},
    })
    # labels come from a frozen deep readout of the run's own initial stack,
    # so only deep-layer features carry the signal
    stack = build_stack(dims, seed=np.random.SeedSequence([0, 1]), init_scale=1.5)
    dataset = deep_readout_dataset(stack, M=450, seq_len=12, seed=[0, 2])
    chain = run(cfg, dataset=dataset)
    no_foat = run(cfg, mode="no_foat", dataset=dataset)
    assert chain.L_start > 1, "profile failed to skip any early layer"
    assert chain.final_accuracy >= no_foat.final_accuracy, (
        f"{chain.final_accuracy:.3f} < {no_foat.final_accuracy:.3f}")
    assert chain.records[-1].comm_bytes < no_foat.records[-1].comm_bytes


def test_criterion_10_identical_runs_are_byte_identical(tmp_path):
    config = {
        "model": {"L": 3, "u": 8, "v": 3, "kind": "mlp", "seed": 5},
        "data": {"kind": "cluster-tokens", "M": 80, "seq_len": 6, "vocab": 13,
                 "eval_fraction": 0.25},
        "federation": {"N": 3, "rounds": 3, "partition": "iid",
                       "sample_count": 2, "Q": 2},
        "chain": {"lambda": 0.2, "L_start": 1, "lr": 0.05, "local_steps": 1,
                  "batch": 16},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for tag in ("a", "b"):
        metrics = tmp_path / f"metrics_{tag}.jsonl"
        ckpt = tmp_path / f"ckpt_{tag}"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(metrics),
                       "--checkpoint", str(ckpt)])
        assert rc == 0
        outputs.append((metrics.read_bytes(),
                        (tmp_path / f"ckpt_{tag}.manifest").read_bytes(),
                        (tmp_path / f"ckpt_{tag}.blob").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "metrics streams differ"
    assert outputs[0][1] == outputs[1][1], "checkpoint manifests differ"
    assert outputs[0][2] == outputs[1][2], "checkpoint blobs differ"
