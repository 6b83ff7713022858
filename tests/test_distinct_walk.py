"""The no-grad walks of the stack (eval and CKA profiling) take each distinct
token id once where every layer acts on each row alone, and are bitwise the
per-row walk."""
import numpy as np
import pytest

from fedchain.model import (
    MlpLayer,
    StackDims,
    apply_layers,
    build_stack,
    evaluate_accuracy,
    forward_through,
    gather_rows,
    walk_input,
)
from fedchain.similarity import partition_layers, profile_layers
from fedchain.tensor import NumericError, no_grad

# the benchmark's shapes: u=32, ffn 64, v=8, 2 classes, vocab 50, 16 tokens a row
DESK = StackDims(L=6, u=32, v=8, C=2, vocab=50)
DEEP = StackDims(L=24, u=32, v=8, C=2, vocab=50)


def _tokens(seed, rows, t=16, vocab=50):
    return np.random.default_rng(seed).integers(0, vocab, size=(rows, t))


def _per_row(monkeypatch):
    # an mlp stack that claims to mix tokens walks per row, as attn-lite does
    monkeypatch.setattr(MlpLayer, "mixes_tokens", True)


def test_distinct_walk_is_the_per_row_forward_bitwise():
    stack = build_stack(DESK, seed=4)
    x = _tokens(0, 400)
    ids, index = walk_input(stack, x)
    assert ids.shape == (50, 1) and index.shape == x.shape
    with no_grad():
        got = gather_rows(apply_layers(stack, stack.embed(ids), 1, stack.L), index)
        want, _ = forward_through(stack, x)
        assert np.array_equal(got.data, want.data)
        got_logits = stack.final_head.logits(got).data
        want_logits = stack.final_head.logits(want).data
    assert np.array_equal(got_logits, want_logits)
    labels = np.random.default_rng(1).integers(0, 2, size=400)
    assert evaluate_accuracy(stack, x, labels) == float((want_logits.argmax(axis=1) == labels).mean())


@pytest.mark.parametrize("dims", [DESK, DEEP], ids=["desk", "deep"])
@pytest.mark.parametrize("split", [False, True], ids=["one-block", "budget-blocks"])
def test_distinct_profile_is_the_per_row_profile_bitwise(monkeypatch, dims, split):
    stack = build_stack(dims, seed=7)
    batch = _tokens(3, 64)  # profile_clients' 64 rows
    budget = None
    if split:
        n_rows = batch.size
        whole = partition_layers(stack, n_rows, np.inf)
        carry = 2 * n_rows * dims.u * 8
        cost = 8 * sum(t.size for t in (*stack.units[0].backbone.params().values(),
                                        stack.units[0].adapter.down, stack.units[0].adapter.up))
        budget = carry + 4 * cost + cost // 2  # blocks of 4 layers
        assert whole == [list(range(1, dims.L + 1))]
        assert len(partition_layers(stack, n_rows, budget)) == -(-dims.L // 4)
    assert walk_input(stack, batch)[1] is not None
    distinct = profile_layers(stack, batch, budget)
    _per_row(monkeypatch)
    assert walk_input(stack, batch)[1] is None
    per_row = profile_layers(stack, batch, budget)
    assert distinct.scores == per_row.scores  # == on floats: bitwise, no tolerance
    assert distinct.sample_weight == per_row.sample_weight == batch.size


def test_one_distinct_id_walks_per_row():
    stack = build_stack(DESK, seed=2)
    x = np.full((3, 16), 7)
    ids, index = walk_input(stack, x)
    assert index is None and ids is x
    with no_grad():
        want, _ = forward_through(stack, x)
    pred = stack.final_head.logits(want).data.argmax(axis=1)
    assert evaluate_accuracy(stack, x, pred) == 1.0


def test_attn_lite_walks_per_row():
    stack = build_stack(StackDims(L=3, u=8, v=2, C=2, kind="attn-lite", vocab=13), seed=1)
    x = _tokens(5, 6, t=4, vocab=13)
    ids, index = walk_input(stack, x)
    assert index is None and ids is x
    with no_grad():
        want, _ = forward_through(stack, x)
    pred = stack.final_head.logits(want).data.argmax(axis=1)
    assert evaluate_accuracy(stack, x, pred) == 1.0
    assert len(profile_layers(stack, x).scores) == 3


@pytest.mark.parametrize("layer", [1, 6])
def test_a_nan_backbone_weight_still_raises(layer):
    stack = build_stack(DESK, seed=3)
    stack.units[layer - 1].backbone.w1.data[0, 0] = np.nan
    x = _tokens(1, 8)
    assert walk_input(stack, x)[1] is not None
    with pytest.raises(NumericError):
        evaluate_accuracy(stack, x, np.zeros(8, dtype=int))
    with pytest.raises(NumericError):
        profile_layers(stack, x)
