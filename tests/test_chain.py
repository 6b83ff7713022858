"""Chain training tests: window schedule combinatorics, dual-objective stage
loss, local SGD updates."""
import tracemalloc

import numpy as np
import pytest

from fedchain.chain import (
    StageLossConfig,
    WindowSchedule,
    local_update,
    minibatch_order,
    stage_loss,
)
from fedchain.model import (
    StackDims,
    build_stack,
    end_to_end_loss,
    forward_through,
    mark_trainable,
    named_parameters,
)
from fedchain.tensor import Tape, Tensor

from oracles import finite_difference, max_relative_error

DIMS = StackDims(L=4, u=8, v=3, C=3, kind="mlp", vocab=11)


def _data(seed=0, n=6, t=5, vocab=11, C=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab, size=(n, t)), rng.integers(0, C, size=n)


# ---------------------------------------------------------------- schedule


def test_schedule_worked_example():
    sched = WindowSchedule(L_start=2, L=6, Q=2)
    assert sched.positions == ((2, 3), (3, 4), (4, 5), (5, 6))
    assert sched.cycle_len == 4
    assert [sched.window_at_round(r) for r in range(1, 6)] == [
        (2, 3), (3, 4), (4, 5), (5, 6), (2, 3)  # cycle restarts, no ping-pong
    ]


def test_schedule_window_wider_than_span_clamps():
    sched = WindowSchedule(L_start=3, L=6, Q=10)
    assert sched.positions == ((3, 6),)
    assert sched.window_at_round(17) == (3, 6)


def test_schedule_exhaustive_invariants():
    for L in range(1, 13):
        for L_start in range(1, L + 1):
            span = L - L_start + 1
            for Q in range(1, L + 3):
                sched = WindowSchedule(L_start=L_start, L=L, Q=Q)
                width = min(Q, span)
                assert all(hi - lo + 1 == width for lo, hi in sched.positions)
                assert sched.positions[0][0] == L_start
                assert sched.positions[-1][1] == L
                covered = set()
                for lo, hi in sched.positions:
                    covered.update(range(lo, hi + 1))
                assert covered == set(range(L_start, L + 1))
                for (lo1, hi1), (lo2, hi2) in zip(sched.positions, sched.positions[1:]):
                    assert lo2 == lo1 + 1  # slide by one: overlap Q-1
                r = 3
                assert sched.window_at_round(r + sched.cycle_len) == sched.window_at_round(r)
                if Q >= 2 and sched.cycle_len >= 2:
                    for layer in range(L_start + 1, L):
                        hits = sum(lo <= layer <= hi for lo, hi in sched.positions)
                        assert hits >= 2, (L, L_start, Q, layer)


def test_schedule_validation():
    with pytest.raises(ValueError):
        WindowSchedule(L_start=0, L=4, Q=1)
    with pytest.raises(ValueError):
        WindowSchedule(L_start=5, L=4, Q=1)
    with pytest.raises(ValueError):
        WindowSchedule(L_start=1, L=4, Q=0)
    with pytest.raises(ValueError):
        WindowSchedule(L_start=1, L=4, Q=1).window_at_round(0)


# ---------------------------------------------------------------- stage loss


def test_stage_loss_combines_local_and_global():
    stack = build_stack(DIMS, seed=1)
    stack.units[2].adapter.up.data[:] = 0.1  # make the aux branch non-trivial
    x, y = _data(1)
    loss, info = stage_loss(stack, x, y, (1, 2), StageLossConfig(lam=0.2))
    assert info["mode"] == "dual"
    assert info["total"] == pytest.approx(info["local"] + 0.2 * info["global"], abs=1e-12)
    assert loss.item() == info["total"]
    assert 1.0 + 0.2 * 0.5 == pytest.approx(1.1, abs=1e-15)


def test_stage_loss_lambda_zero_is_exactly_local():
    stack = build_stack(DIMS, seed=2)
    x, y = _data(2)
    from fedchain.model import forward_through, local_loss

    loss, info = stage_loss(stack, x, y, (2, 3), StageLossConfig(lam=0.0))
    hidden, _ = forward_through(stack, x, upto=3)
    want = local_loss(stack, hidden, 3, y)
    assert loss.item() == want.item()
    assert info["global"] is None


def test_final_window_forces_end_to_end_regardless_of_lambda():
    stack = build_stack(DIMS, seed=3)
    x, y = _data(3)
    a, info_a = stage_loss(stack, x, y, (3, 4), StageLossConfig(lam=0.2))
    b, info_b = stage_loss(stack, x, y, (3, 4), StageLossConfig(lam=7.0))
    assert info_a["mode"] == info_b["mode"] == "end_to_end"
    assert a.item() == b.item()


def test_stage_gradients_are_affine_in_lambda():
    stack = build_stack(DIMS, seed=4)
    stack.units[3].adapter.up.data[:] = 0.05
    x, y = _data(4)
    window = (1, 2)

    def grads_at(lam):
        trainable = mark_trainable(stack, window)
        for t in trainable.values():
            t.grad = None
        with Tape() as tape:
            loss, _ = stage_loss(stack, x, y, window, StageLossConfig(lam=lam))
            tape.backward(loss)
        out = {k: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
               for k, t in trainable.items()}
        for t in trainable.values():
            t.grad = None
        return out

    g0, g1, gmid = grads_at(0.0), grads_at(1.0), grads_at(0.5)
    for k in gmid:
        assert np.allclose(gmid[k], 0.5 * (g0[k] + g1[k]), atol=1e-9), k


def test_stage_loss_window_validation():
    stack = build_stack(DIMS, seed=0)
    x, y = _data(0)
    with pytest.raises(ValueError):
        stage_loss(stack, x, y, (0, 2), StageLossConfig())
    with pytest.raises(ValueError):
        stage_loss(stack, x, y, (3, 5), StageLossConfig())
    with pytest.raises(ValueError):
        StageLossConfig(lam=-0.1)


# ---------------------------------------------------------------- local update


def test_single_step_update_matches_finite_difference_oracle():
    stack = build_stack(DIMS, seed=5)
    stack.units[2].adapter.up.data[:] = 0.1
    stack.units[3].adapter.up.data[:] = -0.1
    x, y = _data(5)
    window, cfg, lr = (1, 2), StageLossConfig(lam=0.3), 0.05
    trainable = mark_trainable(stack, window)

    def value():
        return stage_loss(stack, x, y, window, cfg)[0].item()

    fd = finite_difference(value, [t.data for t in trainable.values()])
    delta, info = local_update(stack, x, y, window, cfg, steps=1, lr=lr,
                               batch_size=len(y), seed=0)
    assert set(delta) == set(trainable)
    for (name, _), g in zip(trainable.items(), fd):
        err = max_relative_error(delta[name], -lr * g)
        assert err < 1e-4, (name, err)
    assert len(info["losses"]) == 1


def test_zero_learning_rate_gives_zero_delta():
    stack = build_stack(DIMS, seed=6)
    x, y = _data(6)
    delta, _ = local_update(stack, x, y, (2, 3), StageLossConfig(), steps=3,
                            lr=0.0, batch_size=4, seed=1)
    expected_keys = {
        "layer.2.adapter.down", "layer.2.adapter.up", "layer.2.head.W", "layer.2.head.b",
        "layer.3.adapter.down", "layer.3.adapter.up", "layer.3.head.W", "layer.3.head.b",
        "final_head.W", "final_head.b",
    }
    assert set(delta) == expected_keys
    assert all(np.array_equal(d, np.zeros_like(d)) for d in delta.values())


@pytest.mark.parametrize("window, scheme", [((2, 3), "window"), ((1, 4), "all_adapters")])
def test_local_update_leaves_every_array_it_started_from_unchanged(window, scheme):
    # every step rebinds a trained tensor's .data, so a caller's snapshot may hold the arrays
    stack = build_stack(DIMS, seed=8)
    x, y = _data(8)
    before = {name: (t.data, t.data.copy()) for name, t in named_parameters(stack).items()}
    delta, _ = local_update(stack, x, y, window, StageLossConfig(), steps=3, lr=0.5,
                            batch_size=4, seed=2, scheme=scheme)
    assert any(d.any() for d in delta.values())
    after = named_parameters(stack)
    for name, (array, copy) in before.items():
        assert array.tobytes() == copy.tobytes(), name
        if name in delta:
            assert np.array_equal(delta[name], after[name].data - copy), name


def test_baseline_schemes_expose_expected_delta_keys():
    stack = build_stack(DIMS, seed=7)
    x, y = _data(7)
    delta, _ = local_update(stack, x, y, (1, stack.L), StageLossConfig(), steps=1,
                            lr=0.1, batch_size=6, seed=0, scheme="final_only")
    assert set(delta) == {"final_head.W", "final_head.b"}
    delta, _ = local_update(stack, x, y, (1, stack.L), StageLossConfig(), steps=1,
                            lr=0.1, batch_size=6, seed=0, scheme="all_adapters")
    assert set(delta) == {f"layer.{i}.adapter.{p}" for i in range(1, 5)
                          for p in ("down", "up")} | {"final_head.W", "final_head.b"}


def _end_to_end_sgd(stack, x, y, scheme, steps, lr, batch_size, seed):
    """A baseline's local update written out: the whole stack, the end-to-end loss, SGD."""
    trainable = mark_trainable(stack, scheme=scheme)
    pre = {name: t.data.copy() for name, t in trainable.items()}
    for idx in minibatch_order(len(x), batch_size, steps, seed):
        with Tape() as tape:
            hidden, _ = forward_through(stack, x[idx], upto=stack.L)
            tape.backward(end_to_end_loss(stack, hidden, y[idx]))
        for t in trainable.values():
            if t.grad is not None:
                t.data = t.data - lr * t.grad
            t.grad = None
    return {name: t.data - pre[name] for name, t in trainable.items()}


@pytest.mark.parametrize("kind", ["mlp", "attn-lite"])
@pytest.mark.parametrize("scheme", ["all_adapters", "final_only"])
def test_baseline_update_is_bitwise_end_to_end_sgd(kind, scheme):
    # a baseline steps on stage_loss at (1, L): exactly the end-to-end objective
    dims = StackDims(L=3, u=8, v=3, C=3, kind=kind, vocab=11)
    x, y = _data(5, n=10)
    got, _ = local_update(build_stack(dims, seed=6), x, y, (1, 3), StageLossConfig(lam=0.5),
                          steps=3, lr=0.2, batch_size=4, seed=1, scheme=scheme)
    want = _end_to_end_sgd(build_stack(dims, seed=6), x, y, scheme, steps=3, lr=0.2,
                           batch_size=4, seed=1)
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_baseline_scheme_takes_only_the_whole_stack_window():
    stack = build_stack(DIMS, seed=7)
    x, y = _data(7)
    with pytest.raises(ValueError, match=r"window \(1, 4\)"):
        local_update(stack, x, y, (1, 2), StageLossConfig(), steps=1, lr=0.1,
                     batch_size=6, seed=0, scheme="all_adapters")


def test_aux_adapters_stay_frozen_by_default():
    stack = build_stack(DIMS, seed=8)
    stack.units[3].adapter.up.data[:] = 0.2
    later = stack.units[3].adapter.up.data.copy()
    x, y = _data(8)
    delta, _ = local_update(stack, x, y, (1, 2), StageLossConfig(lam=0.5), steps=2,
                            lr=0.1, batch_size=6, seed=0)
    assert "layer.4.adapter.up" not in delta
    assert np.array_equal(stack.units[3].adapter.up.data, later)


def test_full_batch_descent_under_small_lr():
    stack = build_stack(DIMS, seed=9)
    x, y = _data(9, n=12)
    _, info = local_update(stack, x, y, (1, 2), StageLossConfig(lam=0.2), steps=60,
                           lr=1e-3, batch_size=12, seed=0)
    losses = info["losses"]
    assert all(b <= a + 1e-8 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_local_update_validates_inputs():
    stack = build_stack(DIMS, seed=0)
    x, y = _data(0)
    with pytest.raises(ValueError, match="empty"):
        local_update(stack, x[:0], y[:0], (1, 2), StageLossConfig(), 1, 0.1, 4, 0)
    with pytest.raises(ValueError):
        local_update(stack, x, y, (1, 2), StageLossConfig(), 0, 0.1, 4, 0)
    with pytest.raises(ValueError):
        local_update(stack, x, y, (1, 2), StageLossConfig(), 1, -0.1, 4, 0)


# ---------------------------------------------------------------- minibatches


def test_minibatch_order_covers_epochs_and_reshuffles():
    batches = minibatch_order(10, 4, 5, seed=3)
    assert len(batches) == 5
    assert all(len(b) == 4 for b in batches)
    assert all(0 <= i < 10 for b in batches for i in b)
    # first epoch: two disjoint batches from one permutation
    assert len(set(batches[0]) | set(batches[1])) == 8
    again = minibatch_order(10, 4, 5, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(batches, again))
    other = minibatch_order(10, 4, 5, seed=4)
    assert any(not np.array_equal(a, b) for a, b in zip(batches, other))


# ---------------------------------------------------------------- step memory


def _step_peak(L, kind, window, scheme):
    dims = StackDims(L=L, u=16, v=4, C=2, kind=kind, vocab=13)
    stack = build_stack(dims, seed=3)
    x, y = _data(seed=4, n=16, t=8, vocab=13, C=2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        local_update(stack, x, y, window, StageLossConfig(lam=0.2), steps=1, lr=0.1,
                     batch_size=16, seed=0, scheme=scheme)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["mlp", "attn-lite"])
def test_window_step_peak_is_flat_in_depth(kind):
    chain = {L: _step_peak(L, kind, (1, 2), "window") for L in (4, 8, 16)}
    # The aux branch runs every adapter after the window, but what it keeps of
    # each is f'(pre) on the [batch * seq_len, v] rows: that is all that grows.
    slopes = (16 - 4) * (16 * 8) * 4 * 8
    assert max(chain.values()) - chain[4] <= 1.25 * slopes, chain
    assert chain[16] <= 1.15 * chain[4], chain
    # the probe still sees depth where the trainable set does grow with L
    full = {L: _step_peak(L, kind, (1, L), "all_adapters") for L in (4, 16)}
    assert full[16] >= 3.0 * full[4], full


def _held(obj):
    """The objects obj holds, looking into tuples, lists and function closures."""
    if isinstance(obj, (tuple, list)):
        for o in obj:
            yield from _held(o)
    elif callable(obj) and not isinstance(obj, Tensor):
        for cell in obj.__closure__ or ():
            yield from _held(cell.cell_contents)
    else:
        yield obj


@pytest.mark.parametrize("kind", ["mlp", "attn-lite"])
def test_the_tape_holds_no_tensor_an_op_made(kind):
    # desk dims; mlp at window (1, 2), attn-lite training every adapter at (1, L)
    stack = build_stack(StackDims(L=6, u=32, v=8, C=2, kind=kind, vocab=50), seed=5)
    window, scheme = ((1, 2), "window") if kind == "mlp" else ((1, 6), "all_adapters")
    mark_trainable(stack, window, scheme)
    x, y = _data(seed=6, n=32, t=16, vocab=50, C=2)
    with Tape() as tape:
        stage_loss(stack, x, y, window, StageLossConfig(lam=0.2))
    assert len(tape) == (14 if kind == "mlp" else 20)
    for i, (refs, grad_fn) in enumerate(tape._nodes):
        for ref in refs:  # an earlier node's index, a leaf that trains, or nothing
            assert (ref is None or (type(ref) is int and ref < i)
                    or (isinstance(ref, Tensor) and ref.node is None and ref.requires_grad))
        for obj in _held(grad_fn):  # arrays, shapes and flags only
            assert isinstance(obj, (np.ndarray, int, float, type(None))), type(obj)
