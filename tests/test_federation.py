"""Federation tests: partitioning, client sampling, weighted aggregation,
memory accounting, and the round loop."""
import copy

import numpy as np
import pytest

from fedchain import federation
from fedchain.chain import StageLossConfig, local_update
from fedchain.config import parse_config
from fedchain.federation import (
    DEFAULT_ASSUMPTIONS,
    MEMORY_PRESETS,
    adapter_param_count,
    aggregate,
    aggregation_weights,
    determine_Q,
    dirichlet_partition,
    embed_param_count,
    estimate_peak_memory,
    head_param_count,
    iid_partition,
    layer_param_count,
    run,
    sample_clients,
)
from fedchain.model import (
    StackDims,
    backbone_fingerprint,
    build_stack,
    named_parameters,
)

from oracles import stick_breaking_dirichlet

DIMS = StackDims(L=4, u=8, v=3, C=3, kind="mlp", vocab=11)


def make_cfg(**over):
    raw = {
        "model": {"L": 4, "u": 8, "v": 3, "seed": 11},
        "data": {"kind": "cluster-tokens", "M": 120, "seq_len": 6, "vocab": 13,
                 "eval_fraction": 0.25},
        "federation": {"N": 4, "rounds": 3, "partition": "iid",
                       "sample_count": 3, "Q": 2},
        "chain": {"lambda": 0.2, "L_start": 1, "lr": 0.05, "local_steps": 2,
                  "batch": 16},
    }
    for section, fields in over.items():
        if isinstance(fields, dict):
            raw.setdefault(section, {}).update(fields)
        else:
            raw[section] = fields
    return parse_config(raw)


# ---------------------------------------------------------------- partitioning


def test_iid_partition_covers_disjointly():
    shards = iid_partition(103, 7, seed=0)
    sizes = [len(s) for s in shards]
    assert sum(sizes) == 103
    assert max(sizes) - min(sizes) <= 1
    all_idx = np.concatenate(shards)
    assert len(np.unique(all_idx)) == 103
    assert all(np.array_equal(s, np.sort(s)) for s in shards)
    again = iid_partition(103, 7, seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(shards, again))
    with pytest.raises(ValueError):
        iid_partition(3, 7, seed=0)


def test_dirichlet_partition_covers_disjointly_and_never_leaves_empty():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=200)
    for seed in range(10):
        shards = dirichlet_partition(labels, 6, alpha=0.3, seed=seed)
        assert all(len(s) >= 1 for s in shards)
        all_idx = np.concatenate(shards)
        assert len(all_idx) == 200 and len(np.unique(all_idx)) == 200
        assert all(s.dtype == np.int64 and np.array_equal(s, np.sort(s)) for s in shards)
    a = dirichlet_partition(labels, 6, alpha=0.3, seed=5)
    b = dirichlet_partition(labels, 6, alpha=0.3, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_dirichlet_concentration_follows_alpha():
    labels = np.repeat(np.arange(4), 100)

    def max_share(alpha):
        peaks = []
        for seed in range(30):
            shards = dirichlet_partition(labels, 5, alpha=alpha, seed=seed)
            peaks.append(max(len(s) for s in shards) / 400)
        return float(np.mean(peaks))

    assert max_share(1e6) == pytest.approx(0.2, abs=0.01)  # near-even split
    assert max_share(0.1) > max_share(1e6) + 0.15  # skewed shards


def test_dirichlet_matches_stick_breaking_reference_statistics():
    # single class isolates the per-class proportion draw
    labels = np.zeros(200, dtype=int)
    n_clients, draws = 5, 400
    partitioned = np.array([
        [len(s) / 200 for s in dirichlet_partition(labels, n_clients, 1.0, seed)]
        for seed in range(draws)
    ])
    rng = np.random.default_rng(12345)
    reference = np.array([stick_breaking_dirichlet(rng, 1.0, n_clients)
                          for _ in range(draws)])
    assert abs(partitioned.mean() - reference.mean()) < 0.01
    assert abs(partitioned.std() - reference.std()) < 0.02
    # symmetric Dirichlet(1) moments: mean 1/n, var (n-1)/(n^2 (n+1))
    assert reference.mean() == pytest.approx(1 / 5, abs=0.01)
    assert partitioned.mean() == pytest.approx(1 / 5, abs=0.01)
    want_std = np.sqrt(4 / (25 * 6))
    assert abs(partitioned.std() - want_std) < 0.02


def test_dirichlet_validation():
    with pytest.raises(ValueError):
        dirichlet_partition(np.zeros(3, dtype=int), 5, 1.0, 0)
    with pytest.raises(ValueError):
        dirichlet_partition(np.zeros(10, dtype=int), 5, 0.0, 0)


# ---------------------------------------------------------------- sampling, weights


def test_sample_clients_deterministic_and_sorted():
    a = sample_clients(10, 4, round_idx=7, seed=3)
    b = sample_clients(10, 4, round_idx=7, seed=3)
    assert a == b == sorted(set(a))
    assert all(0 <= c < 10 for c in a)
    assert sample_clients(10, 10, 1, 0) == list(range(10))
    with pytest.raises(ValueError):
        sample_clients(10, 11, 1, 0)
    with pytest.raises(ValueError):
        sample_clients(10, 0, 1, 0)


def test_sample_clients_uniform_inclusion_frequency():
    n, count, rounds = 10, 3, 4000
    hits = np.zeros(n)
    for r in range(1, rounds + 1):
        for c in sample_clients(n, count, r, seed=42):
            hits[c] += 1
    freq = hits / rounds
    sigma = np.sqrt(0.3 * 0.7 / rounds)
    assert np.all(np.abs(freq - count / n) < 3.5 * sigma)


def test_aggregation_weights_are_exact_rationals():
    from fractions import Fraction

    w = aggregation_weights([3, 5, 2])
    assert sum(w) == Fraction(1)
    assert w == [Fraction(3, 10), Fraction(1, 2), Fraction(1, 5)]
    w = aggregation_weights([7] * 3)
    assert sum(w) == Fraction(1)
    with pytest.raises(ValueError):
        aggregation_weights([3, 0])
    with pytest.raises(ValueError):
        aggregation_weights([])


# ---------------------------------------------------------------- aggregation


def _const_delta(stack, value):
    shape = stack.units[0].adapter.down.shape
    return {"layer.1.adapter.down": np.full(shape, float(value))}


def test_aggregate_weighted_mean_frozen_case():
    stack = build_stack(DIMS, seed=0)
    before = stack.units[0].adapter.down.data.copy()
    # weights 1/4 and 3/4: 0.25*1 + 0.75*5 = 4 exactly in binary floats
    applied = aggregate(stack, [_const_delta(stack, 1.0), _const_delta(stack, 5.0)], [1, 3])
    assert np.array_equal(applied["layer.1.adapter.down"], np.full(before.shape, 4.0))
    assert np.array_equal(stack.units[0].adapter.down.data, before + 4.0)


def test_aggregate_single_client_applies_delta_exactly():
    stack = build_stack(DIMS, seed=1)
    rng = np.random.default_rng(0)
    delta = {"final_head.W": rng.normal(size=(8, 3))}
    before = stack.final_head.W.data.copy()
    aggregate(stack, [delta], [17])
    assert np.array_equal(stack.final_head.W.data, before + delta["final_head.W"])


def test_aggregate_identical_deltas_equal_one_delta():
    rng = np.random.default_rng(1)
    delta = {"final_head.W": rng.normal(size=(8, 3))}
    one = build_stack(DIMS, seed=2)
    many = build_stack(DIMS, seed=2)
    aggregate(one, [delta], [10])
    aggregate(many, [copy.deepcopy(delta) for _ in range(3)], [10, 10, 10])
    assert np.allclose(one.final_head.W.data, many.final_head.W.data, atol=1e-12, rtol=0)


def test_aggregate_single_client_matches_centralized_training():
    x = np.random.default_rng(0).integers(0, 11, size=(10, 5))
    y = np.random.default_rng(1).integers(0, 3, size=10)
    trained = build_stack(DIMS, seed=3)
    delta, _ = local_update(trained, x, y, (1, 2), StageLossConfig(lam=0.2),
                            steps=3, lr=0.1, batch_size=10, seed=9)
    fresh = build_stack(DIMS, seed=3)
    aggregate(fresh, [delta], [10])
    for name, t in named_parameters(trained).items():
        assert np.allclose(named_parameters(fresh)[name].data, t.data, atol=1e-12, rtol=0), name


def test_aggregate_validates_keys_and_shapes():
    stack = build_stack(DIMS, seed=0)
    with pytest.raises(ValueError, match="key sets"):
        aggregate(stack, [_const_delta(stack, 1.0), {"final_head.W": np.zeros((8, 3))}], [1, 1])
    with pytest.raises(ValueError, match="unknown parameter"):
        aggregate(stack, [{"layer.9.adapter.down": np.zeros((8, 3))}], [1])
    with pytest.raises(ValueError, match="shape"):
        aggregate(stack, [{"final_head.W": np.zeros((2, 2))}], [1])
    # a later client's mis-shaped delta would broadcast into the sum: refused before any
    # key is applied
    before = {k: t.data.copy() for k, t in named_parameters(stack).items()}
    good = {"final_head.b": np.ones(3), "final_head.W": np.zeros((8, 3))}
    with pytest.raises(ValueError, match=r"\(3,\) mismatches final_head\.W"):
        aggregate(stack, [good, {**good, "final_head.W": np.ones(3)}], [1, 1])
    assert all(np.array_equal(t.data, before[k]) for k, t in named_parameters(stack).items())
    with pytest.raises(ValueError):
        aggregate(stack, [_const_delta(stack, 1.0)], [1, 2])


def test_aggregate_rejects_an_empty_round():
    with pytest.raises(ValueError, match="shard sizes"):
        aggregate(build_stack(DIMS, seed=0), [], [])


# ---------------------------------------------------------------- memory model


def test_param_count_helpers_match_real_stacks():
    for dims in [DIMS, StackDims(L=2, u=8, v=2, C=4, kind="attn-lite", vocab=9),
                 StackDims(L=2, u=6, v=2, C=2, kind="mlp", ffn=20, vocab=5)]:
        stack = build_stack(dims, seed=0)
        params = named_parameters(stack)
        assert embed_param_count(dims) == params["embed"].size
        backbone = sum(t.size for name, t in params.items() if name.startswith("backbone.1."))
        assert layer_param_count(dims) == backbone
        assert adapter_param_count(dims) == (params["layer.1.adapter.down"].size
                                             + params["layer.1.adapter.up"].size)
        assert head_param_count(dims) == (params["final_head.W"].size
                                          + params["final_head.b"].size)


def test_peak_is_sum_of_components():
    rep = estimate_peak_memory(DIMS, batch=4, seq_len=6, Q=2)
    assert rep.peak_bytes == (rep.params_bytes + rep.activation_bytes
                              + rep.adapter_and_grad_bytes + rep.optimizer_bytes)
    assert rep.optimizer_bytes == 2 * rep.adapter_and_grad_bytes  # k=4 vs 2p
    assert abs(sum(rep.shares.values()) - 1.0) < 1e-12


def test_chain_with_full_window_equals_full_mode_exactly():
    for dims in [DIMS, MEMORY_PRESETS["llama2-7b-shaped"]]:
        chain = estimate_peak_memory(dims, 16, 512, Q=dims.L, mode="chain")
        full = estimate_peak_memory(dims, 16, 512, mode="full")
        assert chain.params_bytes == full.params_bytes
        assert chain.activation_bytes == full.activation_bytes
        assert chain.adapter_and_grad_bytes == full.adapter_and_grad_bytes
        assert chain.optimizer_bytes == full.optimizer_bytes
        assert chain.peak_bytes == full.peak_bytes


def test_chain_peak_monotone_in_window_size():
    dims = MEMORY_PRESETS["llama2-7b-shaped"]
    peaks = [estimate_peak_memory(dims, 16, 512, Q=q).peak_bytes for q in range(1, dims.L + 1)]
    assert all(a < b for a, b in zip(peaks, peaks[1:]))
    assert peaks[-1] == estimate_peak_memory(dims, 16, 512, mode="full").peak_bytes


def test_seven_b_preset_reduction_is_substantial():
    dims = MEMORY_PRESETS["llama2-7b-shaped"]
    full = estimate_peak_memory(dims, **{k: DEFAULT_ASSUMPTIONS[k] for k in ("batch", "seq_len")},
                                mode="full")
    assert full.shares["params"] > full.shares["activations"] > full.shares["adapter_and_grad"]
    for q in (6, 7, 8):
        chain = estimate_peak_memory(dims, DEFAULT_ASSUMPTIONS["batch"],
                                     DEFAULT_ASSUMPTIONS["seq_len"], Q=q)
        reduction = 1.0 - chain.peak_bytes / full.peak_bytes
        assert reduction > 0.5


def test_estimate_peak_memory_validation():
    with pytest.raises(ValueError):
        estimate_peak_memory(DIMS, 4, 6, Q=None, mode="chain")
    with pytest.raises(ValueError):
        estimate_peak_memory(DIMS, 4, 6, Q=5, mode="chain")
    with pytest.raises(ValueError):
        estimate_peak_memory(DIMS, 0, 6, Q=2)
    with pytest.raises(ValueError):
        estimate_peak_memory(DIMS, 4, 6, Q=2, mode="paged")


def test_determine_q_inverts_the_peak_estimate():
    for q_target in (1, 2, 3, 4):
        budget = estimate_peak_memory(DIMS, 4, 6, Q=q_target).peak_bytes
        assert determine_Q(budget, DIMS, 4, 6) == q_target
    assert determine_Q(estimate_peak_memory(DIMS, 4, 6, Q=3).peak_bytes - 1, DIMS, 4, 6) == 2
    assert determine_Q(1e18, DIMS, 4, 6) == 4
    assert determine_Q(1e18, DIMS, 4, 6, L_start=3) == 2  # span-capped
    q1_peak = estimate_peak_memory(DIMS, 4, 6, Q=1).peak_bytes
    with pytest.raises(ValueError, match="cannot participate"):
        determine_Q(q1_peak - 1, DIMS, 4, 6)


# ---------------------------------------------------------------- round loop


def test_run_round_records_are_deterministic():
    cfg = make_cfg()
    r1 = run(cfg)
    r2 = run(cfg)
    assert [rec.as_dict() for rec in r1.records] == [rec.as_dict() for rec in r2.records]
    assert len(r1.records) == 3
    assert r1.records[0].window == (1, 2)
    assert r1.records[1].window == (2, 3)


def test_run_zero_rounds_leaves_stack_at_init():
    cfg = make_cfg(federation={"rounds": 0})
    result = run(cfg)
    assert result.records == []
    assert np.isnan(result.final_accuracy)
    fresh = build_stack(result.stack.dims, seed=np.random.SeedSequence([11, 1]))
    for name, t in named_parameters(result.stack).items():
        assert np.array_equal(t.data, named_parameters(fresh)[name].data), name


def test_run_preserves_backbone_and_embedding():
    cfg = make_cfg()
    result = run(cfg)
    fresh = build_stack(result.stack.dims, seed=np.random.SeedSequence([11, 1]))
    assert backbone_fingerprint(result.stack) == backbone_fingerprint(fresh)


def test_run_leaves_what_no_window_trains_untouched(monkeypatch):
    built = {}

    def recorded(*args, **kwargs):
        stack = build_stack(*args, **kwargs)
        built.update((name, t.data) for name, t in named_parameters(stack).items())
        return stack

    monkeypatch.setattr(federation, "build_stack", recorded)
    result = run(make_cfg(chain={"L_start": 3}, federation={"Q": 1}))
    assert [rec.window for rec in result.records] == [(3, 3), (4, 4), (3, 3)]
    trained = ("layer.3.", "layer.4.", "final_head.")
    outside = {name: t.data for name, t in named_parameters(result.stack).items()
               if not name.startswith(trained)}
    assert sum(name.startswith(("layer.1.", "layer.2.")) for name in outside) == 8
    for name, arr in outside.items():
        assert arr is built[name], name  # the same array object, not a restored copy


def test_run_comm_bytes_accounting():
    cfg = make_cfg()
    result = run(cfg)
    dims = result.stack.dims
    adapter = 2 * dims.u * dims.v
    head = dims.u * dims.C + dims.C
    per_client = 4 * (result.Q * (adapter + head) + head)
    for rec in result.records:
        assert rec.comm_bytes == 2 * len(rec.clients) * per_client
    full_bytes = sum(4 * t.size for t in named_parameters(result.stack).values())
    assert result.records[0].comm_bytes / (2 * 3) < full_bytes


def test_run_no_gpo_mode_equals_lambda_zero():
    base = run(make_cfg(chain={"lambda": 0.0}))
    ablated = run(make_cfg(chain={"lambda": 0.2}), mode="no_gpo")
    for a, b in zip(base.records, ablated.records):
        assert a.train_loss == b.train_loss
        assert a.eval_accuracy == b.eval_accuracy


def test_run_dirichlet_budget_profile_path():
    dims = StackDims(L=4, u=8, v=3, C=2, kind="mlp", vocab=13)
    # must cover the training peak and the f64 profiling floor
    generous = 10.0 * estimate_peak_memory(dims, 16, 6, Q=4).peak_bytes
    cfg = make_cfg(
        federation={"partition": "dirichlet", "alpha": 1.0, "Q": None,
                    "budgets": [generous, generous, generous, generous]},
        chain={"L_start": None, "T": 0.8},
    )
    result = run(cfg)
    assert result.profile is not None
    assert len(result.profile.scores) == 4
    assert 1 <= result.L_start <= 4
    assert result.Q == 4 - result.L_start + 1  # generous budgets: full span
    assert result.records[-1].peak_mem_bytes <= generous


def test_run_baseline_schemes_use_full_residency_and_fixed_window():
    cfg = make_cfg()
    res = run(cfg, mode="full_adapters")
    dims = res.stack.dims
    full_peak = estimate_peak_memory(dims, 16, 6, mode="full").peak_bytes
    assert all(rec.peak_mem_bytes == full_peak for rec in res.records)
    assert all(rec.window == (1, 4) for rec in res.records)
    assert res.Q == dims.L
    probe = run(cfg, mode="linear_probing")
    # final head only: 2 tensors on the wire
    head = dims.u * dims.C + dims.C
    assert probe.records[0].comm_bytes == 2 * 3 * 4 * head


def test_modelled_trainable_set_follows_the_scheme():
    head, adapter = head_param_count(DIMS), adapter_param_count(DIMS)
    per_param = 2 * 2 + 4 * 2  # weights and grads at 2 bytes, optimizer state at 4x
    window = estimate_peak_memory(DIMS, 4, 6, Q=2)
    assert window.adapter_and_grad_bytes + window.optimizer_bytes == per_param * (2 * adapter + head)
    every = estimate_peak_memory(DIMS, 4, 6, Q=2, scheme="all_adapters")
    assert every.adapter_and_grad_bytes + every.optimizer_bytes == per_param * (4 * adapter + head)
    final = estimate_peak_memory(DIMS, 4, 6, mode="full", scheme="final_only")
    assert final.adapter_and_grad_bytes + final.optimizer_bytes == per_param * head
    with pytest.raises(ValueError, match="scheme"):
        estimate_peak_memory(DIMS, 4, 6, Q=2, scheme="head")


def test_linear_probing_reports_a_smaller_peak_than_full_adapters():
    cfg = make_cfg(federation={"rounds": 1})
    full = run(cfg, mode="full_adapters")
    probe = run(cfg, mode="linear_probing")
    dims = probe.stack.dims
    # it trains only the final head, so no adapter weights, grads or optimizer state
    adapters = dims.L * adapter_param_count(dims)
    assert (full.records[0].peak_mem_bytes - probe.records[0].peak_mem_bytes
            == (2 * 2 + 4 * 2) * adapters)
    assert probe.records[0].peak_mem_bytes == estimate_peak_memory(
        dims, 16, 6, mode="full", scheme="final_only").peak_bytes


def test_run_no_dlct_uses_single_layer_window():
    res = run(make_cfg(), mode="no_dlct")
    assert res.Q == 1
    assert [rec.window for rec in res.records] == [(1, 1), (2, 2), (3, 3)]


def test_run_metrics_jsonl_stream(tmp_path):
    import json

    path = tmp_path / "metrics.jsonl"
    result = run(make_cfg(), metrics_path=str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert [json.loads(l) for l in lines] == [rec.as_dict() for rec in result.records]


def test_run_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run(make_cfg(), mode="centralized")
    with pytest.raises(ValueError):
        run(make_cfg(), mode="chainfed-extra")
