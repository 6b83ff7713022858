"""The no-grad walks of the stack (eval, CKA profiling and the frozen part of a
training step) take each distinct token id once where every layer acts on each
row alone, and are bitwise the per-row walk."""
import numpy as np
import pytest

from fedchain import chain
from fedchain.chain import StageLossConfig, WindowSchedule, stage_loss
from fedchain.model import (
    MlpLayer,
    StackDims,
    apply_layers,
    build_stack,
    end_to_end_loss,
    evaluate_accuracy,
    forward_through,
    gather_rows,
    mark_trainable,
    named_parameters,
    walk_input,
)
from fedchain.similarity import partition_layers, profile_layers
from fedchain.tensor import NumericError, Tape, no_grad

from oracles import forward_through_per_row

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
    mark_trainable(stack, (6, 6))  # layer 6's backbone runs in the frozen walk too
    with Tape(), pytest.raises(NumericError):
        forward_through(stack, x, upto=6)


# ---------------------------------------------------------------- training steps


def _moved(dims, seed):
    """A stack whose adapters are not the identity, so every gradient path carries signal."""
    stack = build_stack(dims, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for unit in stack.units:
        unit.adapter.up.data[:] = rng.uniform(-0.3, 0.3, size=unit.adapter.up.shape)
    return stack


def _step(monkeypatch, stack, x, y, forward, window, lam):
    """One training step with chain's forward_through replaced by forward: the
    hidden state and released layers forward returned, the tape length and
    every parameter's .grad.  window None is the final_only baseline's step."""
    seen = []

    def recorded(*args, **kwargs):
        seen.append(forward(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(chain, "forward_through", recorded)
    params = named_parameters(stack)
    for t in params.values():
        t.grad = None
    with Tape() as tape:
        if window is None:
            loss = end_to_end_loss(stack, recorded(stack, x, upto=stack.L)[0], y)
        else:
            loss, _ = stage_loss(stack, x, y, window, StageLossConfig(lam))
        tape.backward(loss)
    (h, released), = seen
    grads = {name: t.grad for name, t in params.items() if t.grad is not None}
    return h.data, released, len(tape), grads


def _assert_step_is_per_row(monkeypatch, stack, x, window, lam=0.2):
    y = np.arange(len(x)) % stack.dims.C
    got = _step(monkeypatch, stack, x, y, forward_through, window, lam)
    want = _step(monkeypatch, stack, x, y, forward_through_per_row, window, lam)
    assert np.array_equal(got[0], want[0])
    assert got[1:3] == want[1:3]
    assert got[3].keys() == want[3].keys() and want[3]
    for name, grad in want[3].items():
        assert np.array_equal(got[3][name], grad), name
    return got


def _rows_seen(monkeypatch, stack):
    """Per layer, the row count of every MlpLayer.rows call from here on."""
    layer_of = {id(unit.backbone): i for i, unit in enumerate(stack.units, start=1)}
    seen = {i: [] for i in layer_of.values()}
    rows = MlpLayer.rows

    def counted(self, x2):
        seen[layer_of[id(self)]].append(x2.shape[0])
        return rows(self, x2)

    monkeypatch.setattr(MlpLayer, "rows", counted)
    return seen


WINDOWS = [w for Q in (1, 2, 3) for w in WindowSchedule(1, DESK.L, Q).positions]


@pytest.mark.parametrize("lam", [0.0, 0.2])
@pytest.mark.parametrize("window", WINDOWS, ids=[f"{lo}-{hi}" for lo, hi in WINDOWS])
def test_training_step_is_the_per_row_step_bitwise(monkeypatch, window, lam):
    stack = _moved(DESK, 3)
    mark_trainable(stack, window)
    _assert_step_is_per_row(monkeypatch, stack, _tokens(2, 32), window, lam)


def test_final_only_step_walks_every_layer_once_per_distinct_id(monkeypatch):
    stack = _moved(DESK, 4)
    mark_trainable(stack, scheme="final_only")
    x = _tokens(3, 32)
    grads = _assert_step_is_per_row(monkeypatch, stack, x, None)[3]
    assert sorted(grads) == ["final_head.W", "final_head.b"]
    seen = _rows_seen(monkeypatch, stack)
    with Tape() as tape:
        forward_through(stack, x)
    assert len(tape) == 0
    assert seen == {i: [len(np.unique(x))] for i in seen}


@pytest.mark.parametrize("lo", range(1, DESK.L + 1))
def test_the_frozen_walk_records_nothing_and_runs_each_distinct_id_once(monkeypatch, lo):
    stack = _moved(DESK, 5)
    mark_trainable(stack, (lo, lo))
    x = _tokens(4, 32)
    k = len(np.unique(x))
    assert k < x.size
    seen = _rows_seen(monkeypatch, stack)
    with Tape() as tape:
        h, released = forward_through(stack, x, upto=lo)
    assert len(tape) == 1 and h.requires_grad  # the window adapter's one node
    assert released == list(range(1, lo))
    assert seen == {i: [k] if i <= lo else [] for i in seen}


def test_desk_step_records_as_many_tape_nodes_as_the_per_row_step(monkeypatch):
    stack = _moved(DESK, 6)
    nodes = {}
    for window in [(1, 2), (2, 3), (4, 5)]:
        mark_trainable(stack, window)
        nodes[window] = _assert_step_is_per_row(monkeypatch, stack, _tokens(5, 32), window)[2]
    assert nodes == {(1, 2): 22, (2, 3): 22, (4, 5): 22}


@pytest.mark.parametrize("layer", [2, 3, 4])
def test_a_grad_requiring_backbone_stops_the_frozen_walk_before_it(monkeypatch, layer):
    # window (3, 4); the backbone of layer 2 sits below it, of 3 and 4 inside it
    stack = _moved(DESK, 7)
    mark_trainable(stack, (3, 4))
    stack.units[layer - 1].backbone.w1.requires_grad = True
    x = _tokens(6, 32)
    grads = _assert_step_is_per_row(monkeypatch, stack, x, (3, 4))[3]
    assert f"backbone.{layer}.fc1.W" in grads
    seen = _rows_seen(monkeypatch, stack)
    forward_through(stack, x, upto=4)
    k = len(np.unique(x))
    walked = min(layer - 1, 3)  # below that backbone, up to the window's first backbone
    assert seen == {i: [k] if i <= walked else [x.size] if i <= 4 else [] for i in seen}


def test_one_distinct_id_and_attn_lite_steps_are_the_per_row_step(monkeypatch):
    stack = _moved(DESK, 8)
    mark_trainable(stack, (3, 4))
    one_id = np.full((4, 16), 7)
    _assert_step_is_per_row(monkeypatch, stack, one_id, (3, 4))
    attn = _moved(StackDims(L=4, u=8, v=2, C=2, kind="attn-lite", vocab=13), 9)
    mark_trainable(attn, (3, 4))
    _assert_step_is_per_row(monkeypatch, attn, _tokens(7, 6, t=4, vocab=13), (3, 4))
