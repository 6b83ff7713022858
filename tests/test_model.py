"""Backbone/adapter stack tests: identity start, split invariance, release
traces, aux branch, trainability marking."""
import math

import numpy as np
import pytest

from fedchain.model import (
    BACKBONE_KINDS,
    TRAINABLE_SCHEMES,
    AdapterParams,
    StackDims,
    TokenEmbedding,
    aux_branch_forward,
    backbone_fingerprint,
    build_stack,
    end_to_end_loss,
    evaluate_accuracy,
    forward_through,
    init_adapter,
    local_loss,
    mark_trainable,
    named_parameters,
)
from fedchain.tensor import ShapeMismatch, Tape, Tensor, backward, mul, reshape, sum_all

from oracles import attention_block_per_op, mlp_block_per_op

DIMS = StackDims(L=4, u=8, v=3, C=3, kind="mlp", vocab=11)


def _tokens(rng, n=5, t=6, vocab=11):
    return rng.integers(0, vocab, size=(n, t))


# ---------------------------------------------------------------- backbone layers


@pytest.mark.parametrize("trains", ["input"])  # a backbone's own weights never train
@pytest.mark.parametrize("kind", sorted(BACKBONE_KINDS))
def test_backbone_layer_is_bitwise_its_per_op_composition(kind, trains):
    # attn-lite's MLP block takes the attention node's output and hands its adjoint back
    layer = BACKBONE_KINDS[kind](6, 10, seed=5)
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
    weights = Tensor(rng.normal(size=x.shape))
    params = list(layer.params().values())
    mlp = layer.mlp if kind == "attn-lite" else layer

    def per_op(x):
        h = x if kind == "mlp" else attention_block_per_op(
            x, layer.ln1_gain, layer.ln1_bias, layer.wq, layer.wk, layer.wv, layer.wo)
        rows = mlp_block_per_op(reshape(h, (12, 6)), mlp.ln_gain, mlp.ln_bias, mlp.w1, mlp.b1,
                                mlp.w2, mlp.b2)
        return reshape(rows, x.shape)

    results = []
    for forward in (layer.forward, per_op):
        for t in (x, *params):
            t.grad = None
        with Tape() as tape:
            out = forward(x)
            backward(tape, sum_all(mul(out, weights)))
        results.append((out.data.tobytes(), [None if t.grad is None else t.grad.tobytes()
                                             for t in (x, *params)]))
    assert results[0] == results[1]
    assert [g is not None for g in results[0][1]] == [True] + [False] * len(params)


# ---------------------------------------------------------------- adapters


def test_adapter_init_identity_start():
    ad = init_adapter(u=16, v=4, seed=0)
    bound = 1.0 / math.sqrt(16)
    assert np.all(np.abs(ad.down.data) <= bound)
    assert np.array_equal(ad.up.data, np.zeros((4, 16)))


def test_adapter_init_rejects_bad_bottleneck():
    with pytest.raises(ValueError):
        init_adapter(u=4, v=4, seed=0)
    with pytest.raises(ValueError):
        init_adapter(u=4, v=0, seed=0)


def test_adapter_scalar_arithmetic():
    # h=1, down=0.5, up=2: 1 + gelu(1*0.5)*2, with gelu(0.5) from a 60-digit evaluation
    ad = AdapterParams(Tensor([[0.5]]), Tensor([[2.0]]))
    out = ad.forward(Tensor([[1.0]]))
    assert out.data[0, 0] == pytest.approx(1.0 + 0.3457140098251439 * 2.0, abs=1e-15)


def test_fresh_adapter_is_bitwise_identity():
    rng = np.random.default_rng(2)
    ad = init_adapter(u=8, v=3, seed=4)
    for shape in [(5, 8), (2, 7, 8)]:
        h = Tensor(rng.normal(size=shape))
        out = ad.forward(h)
        assert out.data.tobytes() == h.data.tobytes()


def test_adapter_width_mismatch_raises():
    ad = init_adapter(u=8, v=3, seed=0)
    with pytest.raises(ShapeMismatch):
        ad.forward(Tensor(np.zeros((2, 5))))


# ---------------------------------------------------------------- stack forward


def test_stack_logits_match_backbone_only_at_init():
    # identity-start adapters leave the backbone computation untouched
    stack = build_stack(DIMS, seed=3)
    x = _tokens(np.random.default_rng(0))
    h, _ = forward_through(stack, x)
    manual = stack.embed(x)
    for unit in stack.units:
        manual = unit.backbone.forward(manual)
    assert h.data.tobytes() == manual.data.tobytes()


def test_forward_split_invariance_at_every_point():
    stack = build_stack(DIMS, seed=5)
    x = _tokens(np.random.default_rng(1))
    full, _ = forward_through(stack, x)
    for split in range(0, stack.L + 1):
        h, _ = forward_through(stack, x, upto=split)
        for i in range(split + 1, stack.L + 1):
            unit = stack.units[i - 1]
            h = unit.adapter.forward(unit.backbone.forward(h))
        assert np.allclose(h.data, full.data, atol=1e-12, rtol=0)


def test_attn_lite_stack_runs_and_is_deterministic():
    dims = StackDims(L=2, u=8, v=2, C=2, kind="attn-lite", vocab=9)
    x = _tokens(np.random.default_rng(3), vocab=9)
    a = forward_through(build_stack(dims, seed=7), x)[0].data
    b = forward_through(build_stack(dims, seed=7), x)[0].data
    assert np.array_equal(a, b)
    assert a.shape == (5, 6, 8)
    assert np.all(np.isfinite(a))


def test_build_stack_seed_determinism():
    p1 = named_parameters(build_stack(DIMS, seed=11))
    p2 = named_parameters(build_stack(DIMS, seed=11))
    p3 = named_parameters(build_stack(DIMS, seed=12))
    assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)
    assert any(not np.array_equal(p1[k].data, p3[k].data) for k in p1)


def test_releasable_trace_counts():
    stack = build_stack(DIMS, seed=1)
    x = _tokens(np.random.default_rng(4))
    assert forward_through(stack, x, upto=3)[1] == [1, 2, 3]  # a fresh stack trains nothing
    mark_trainable(stack, window=(3, 4))
    assert forward_through(stack, x, upto=4)[1] == [1, 2]
    mark_trainable(stack, scheme="all_adapters")
    assert forward_through(stack, x, upto=3)[1] == []
    mark_trainable(stack, scheme="final_only")
    assert forward_through(stack, x)[1] == [1, 2, 3, 4]


def test_releasable_trace_respects_upstream_gradients():
    # once a grad-requiring activation flows in, later layers cannot release
    stack = build_stack(DIMS, seed=1)
    mark_trainable(stack, window=(2, 2))
    x = _tokens(np.random.default_rng(4))
    with Tape():
        _, rel = forward_through(stack, x, upto=4)
        assert rel == [1]


def test_forward_through_validates_arguments():
    stack = build_stack(DIMS, seed=1)
    x = _tokens(np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward_through(stack, x, upto=5)


# ---------------------------------------------------------------- losses


def test_local_loss_zero_head_is_log_C():
    stack = build_stack(DIMS, seed=2)
    stack.units[1].head.W.data[:] = 0.0
    x = _tokens(np.random.default_rng(5))
    h, _ = forward_through(stack, x, upto=2)
    loss = local_loss(stack, h, 2, np.zeros(5, dtype=int))
    assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)


def test_aux_branch_equals_final_head_through_identity_adapters():
    stack = build_stack(DIMS, seed=6)
    x = _tokens(np.random.default_rng(6))
    y = np.random.default_rng(7).integers(0, 3, size=5)
    h, _ = forward_through(stack, x, upto=2)
    aux = aux_branch_forward(stack, h, 2, y)
    direct = end_to_end_loss(stack, h, y)
    assert aux.item() == direct.item()


def test_aux_branch_differs_once_later_adapters_move():
    stack = build_stack(DIMS, seed=6)
    stack.units[3].adapter.up.data[:] = 0.3
    x = _tokens(np.random.default_rng(6))
    y = np.random.default_rng(7).integers(0, 3, size=5)
    h, _ = forward_through(stack, x, upto=2)
    assert aux_branch_forward(stack, h, 2, y).item() != end_to_end_loss(stack, h, y).item()


def test_aux_branch_rejects_final_layer():
    stack = build_stack(DIMS, seed=2)
    x = _tokens(np.random.default_rng(0))
    h, _ = forward_through(stack, x)
    with pytest.raises(ValueError, match="end-to-end"):
        aux_branch_forward(stack, h, stack.L, np.zeros(5, dtype=int))


def test_gradients_reach_window_through_aux_branch():
    stack = build_stack(DIMS, seed=9)
    trainable = mark_trainable(stack, window=(2, 2))
    x = _tokens(np.random.default_rng(8))
    y = np.random.default_rng(9).integers(0, 3, size=5)
    with Tape() as tape:
        h, _ = forward_through(stack, x, upto=2)
        backward(tape, aux_branch_forward(stack, h, 2, y))
    assert trainable["layer.2.adapter.down"].grad is not None
    # frozen later adapters pass gradients but accumulate none
    assert stack.units[2].adapter.down.grad is None


def test_label_out_of_range_raises():
    stack = build_stack(DIMS, seed=2)
    x = _tokens(np.random.default_rng(0))
    h, _ = forward_through(stack, x)
    with pytest.raises(ValueError, match="out of range"):
        end_to_end_loss(stack, h, np.full(5, 3))


# ---------------------------------------------------------------- naming, marking


def test_named_parameters_layout():
    stack = build_stack(DIMS, seed=0)
    names = list(named_parameters(stack))
    assert names[0] == "embed"
    assert "backbone.1.fc1.W" in names
    assert "layer.4.adapter.up" in names
    assert "layer.1.head.W" in names
    assert names[-2:] == ["final_head.W", "final_head.b"]
    # 1 embed + per layer (6 backbone + 2 adapter + 2 head) + final head
    assert len(names) == 1 + 4 * 10 + 2


def test_mark_trainable_window_scheme():
    stack = build_stack(DIMS, seed=0)
    trainable = mark_trainable(stack, window=(2, 3))
    expected = {
        "layer.2.adapter.down", "layer.2.adapter.up", "layer.2.head.W", "layer.2.head.b",
        "layer.3.adapter.down", "layer.3.adapter.up", "layer.3.head.W", "layer.3.head.b",
        "final_head.W", "final_head.b",
    }
    assert set(trainable) == expected
    assert all(t.requires_grad for t in trainable.values())
    assert stack.units[0].adapter.down.requires_grad is False
    assert stack.units[3].adapter.down.requires_grad is False
    # backbone stays frozen under every scheme
    assert stack.units[1].backbone.w1.requires_grad is False


@pytest.mark.parametrize("kind", sorted(BACKBONE_KINDS))
@pytest.mark.parametrize("scheme", TRAINABLE_SCHEMES)
def test_mark_trainable_never_flags_the_embedding_or_a_backbone(scheme, kind):
    # the fused backbone blocks refuse a weight that requires grad
    stack = build_stack(StackDims(L=4, u=8, v=3, C=3, kind=kind, vocab=11), seed=0)
    windows = [(lo, hi) for lo in range(1, 5) for hi in range(lo, 5)]
    for window in windows + ([] if scheme == "window" else [None]):
        mark_trainable(stack, window, scheme)
        frozen = [t for name, t in named_parameters(stack).items()
                  if name == "embed" or name.startswith("backbone.")]
        assert len(frozen) == 1 + 4 * len(stack.units[0].backbone.params())
        assert not any(t.requires_grad for t in frozen), window


def test_mark_trainable_remarking_resets_previous_flags():
    stack = build_stack(DIMS, seed=0)
    mark_trainable(stack, window=(1, 2))
    stack.units[0].adapter.down.grad = np.zeros((8, 3))
    trainable = mark_trainable(stack, window=(3, 4))
    assert stack.units[0].adapter.down.requires_grad is False
    assert stack.units[0].adapter.down.grad is None
    assert "layer.3.adapter.down" in trainable


def test_mark_trainable_other_schemes():
    stack = build_stack(DIMS, seed=0)
    all_ad = mark_trainable(stack, scheme="all_adapters")
    assert set(all_ad) == {f"layer.{i}.adapter.{p}" for i in range(1, 5)
                           for p in ("down", "up")} | {"final_head.W", "final_head.b"}
    final = mark_trainable(stack, scheme="final_only")
    assert set(final) == {"final_head.W", "final_head.b"}
    with pytest.raises(ValueError):
        mark_trainable(stack, scheme="lora")
    with pytest.raises(ValueError):
        mark_trainable(stack, window=(0, 2))


def test_backbone_fingerprint_ignores_trainable_parts():
    stack = build_stack(DIMS, seed=4)
    before = backbone_fingerprint(stack)
    stack.units[1].adapter.up.data[:] = 0.5
    stack.final_head.W.data[:] = 1.0
    assert backbone_fingerprint(stack) == before
    stack.units[1].backbone.w1.data[0, 0] += 1.0
    assert backbone_fingerprint(stack) != before


# ---------------------------------------------------------------- embeddings, eval


def test_token_embedding_rejects_out_of_vocab():
    emb = TokenEmbedding(vocab=5, u=4, seed=0)
    with pytest.raises(ValueError, match="vocab"):
        emb(np.array([[0, 5]]))
    with pytest.raises(ShapeMismatch):
        emb(np.array([0.5, 1.5]))


def test_evaluate_accuracy_records_nothing():
    stack = build_stack(DIMS, seed=1)
    mark_trainable(stack, window=(1, 4))
    x = _tokens(np.random.default_rng(2))
    with Tape() as tape:
        acc = evaluate_accuracy(stack, x, np.zeros(5, dtype=int))
    assert len(tape) == 0
    assert 0.0 <= acc <= 1.0
