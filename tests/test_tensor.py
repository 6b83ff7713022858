"""Autodiff engine tests: frozen forward values, finite-difference gradients,
tape semantics."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fedchain.tensor import (
    NumericError,
    ShapeMismatch,
    Tape,
    Tensor,
    _gelu,
    adapter_chain,
    add,
    attention_block,
    backward,
    bias_add,
    gelu,
    layer_norm,
    matmul,
    mean,
    mlp_block,
    mul,
    no_grad,
    relu,
    reshape,
    softmax,
    softmax_cross_entropy,
    sum_all,
    swap_last2,
    tanh,
)

from oracles import (
    attention_block_per_op,
    finite_difference,
    gelu_pow,
    matmul_triple_loop,
    max_relative_error,
    mlp_block_per_op,
)

FD_TOL = 1e-4

# Frozen from a 60-digit mpmath evaluation of the tanh-approximation formula.
GELU_KNOWN = [
    (0.5, 0.3457140098251439),
    (-1.25, -0.1322857970302854),
    (2.0, 1.9545976940877750),
]
LN4 = 1.3862943611198906


def _check_grads(tensors, build_loss, tol=FD_TOL):
    """Compare tape gradients against central finite differences."""
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        loss = build_loss()
        backward(tape, loss)
    numeric = finite_difference(lambda: build_loss().item(), [t.data for t in tensors])
    for t, num in zip(tensors, numeric):
        assert t.grad is not None, "missing gradient"
        err = max_relative_error(t.grad, num)
        assert err < tol, f"gradient mismatch (rel err {err:.2e})"


# ---------------------------------------------------------------- forward


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, k, n = rng.integers(1, 6, size=3)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        got = matmul(Tensor(a), Tensor(b)).data
        want = matmul_triple_loop(a, b)
        assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_batched_matmul_matches_per_slice_oracle():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
    got = matmul(Tensor(a), Tensor(b)).data
    for i in range(3):
        assert np.allclose(got[i], matmul_triple_loop(a[i], b[i]), atol=1e-12)


def test_gelu_frozen_values():
    for x, want in GELU_KNOWN:
        got = gelu(Tensor([x])).data[0]
        assert got == pytest.approx(want, abs=1e-12)


def test_gelu_matches_the_pow_formula_and_leaves_its_input_alone():
    rng = np.random.default_rng(5)
    x = np.concatenate([np.linspace(-1e3, 1e3, 20001), rng.normal(size=5000),
                        3.0 * rng.normal(size=5000)])
    before = x.copy()
    want_value, want_slope = gelu_pow(x)
    value, slope = _gelu(x, True)
    np.testing.assert_allclose(value, want_value, rtol=1e-12, atol=4e-15)
    np.testing.assert_allclose(slope, want_slope, rtol=1e-12, atol=4e-15)
    assert np.array_equal(_gelu(x, False)[0], value)
    assert np.array_equal(x, before)


def test_recording_gelu_peaks_no_higher_than_the_pow_formula():
    x = np.random.default_rng(6).normal(size=(512, 64))
    xt = Tensor(x, requires_grad=True)
    tracemalloc.start()
    try:
        outputs = gelu_pow(x)
        oracle_peak = tracemalloc.get_traced_memory()[1]
        del outputs
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with Tape():
            out = gelu(xt)
            op_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.requires_grad  # it recorded, so its slope was computed and kept
    assert op_peak <= oracle_peak


def test_gelu_near_identity_for_large_inputs():
    x = np.array([8.0, 20.0, -20.0])
    out = gelu(Tensor(x)).data
    assert out[0] == pytest.approx(8.0, abs=1e-9)
    assert out[1] == pytest.approx(20.0, abs=1e-12)
    assert out[2] == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_logits_is_log_num_classes():
    logits = Tensor(np.zeros((3, 4)))
    loss = softmax_cross_entropy(logits, np.array([0, 1, 3]))
    assert loss.item() == pytest.approx(LN4, abs=1e-12)
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_matches_direct_logsumexp():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 6)) * 3.0
    y = rng.integers(0, 6, size=5)
    want = np.mean(
        [math.log(np.exp(x[i] - x[i].max()).sum()) + x[i].max() - x[i, y[i]] for i in range(5)]
    )
    got = softmax_cross_entropy(Tensor(x), y).item()
    assert got == pytest.approx(want, abs=1e-12)


def test_softmax_rows_sum_to_one_and_handle_extremes():
    x = Tensor(np.array([[1000.0, 999.0, 0.0], [-1000.0, -1000.0, -1000.0]]))
    s = softmax(x).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(s))


def test_layer_norm_zero_mean_unit_scale():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 8)) * 5 + 3)
    ones, zeros = Tensor(np.ones(8)), Tensor(np.zeros(8))
    out = layer_norm(x, ones, zeros).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=-1), 1.0, atol=1e-4)


def test_relu_zero_input_maps_to_zero():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


# ---------------------------------------------------------------- gradients


def test_gradients_match_finite_differences_per_op():
    rng = np.random.default_rng(11)

    def leaf(*shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale, requires_grad=True)

    a, b = leaf(3, 4), leaf(4, 2)
    _check_grads([a, b], lambda: sum_all(matmul(a, b)))

    ba, bb = leaf(2, 3, 4), leaf(2, 4, 2)
    _check_grads([ba, bb], lambda: sum_all(matmul(ba, bb)))

    u, v = leaf(3, 3), leaf(3, 3)
    _check_grads([u, v], lambda: sum_all(mul(add(u, v), v)))

    s = leaf(1)
    w = leaf(2, 2)
    _check_grads([s, w], lambda: sum_all(mul(w, s)))

    g = leaf(4, 5)
    _check_grads([g], lambda: sum_all(gelu(g)))

    t = leaf(4, 5)
    _check_grads([t], lambda: sum_all(tanh(t)))

    # keep relu inputs away from the kink
    r = Tensor(rng.normal(size=(4, 5)) + np.sign(rng.normal(size=(4, 5))) * 0.05,
               requires_grad=True)
    r.data[np.abs(r.data) < 1e-3] = 0.1
    _check_grads([r], lambda: sum_all(relu(r)))

    x, bias = leaf(3, 4), leaf(4)
    _check_grads([x, bias], lambda: sum_all(bias_add(x, bias)))

    ln_x, ln_g, ln_b = leaf(3, 6), leaf(6), leaf(6)
    _check_grads([ln_x, ln_g, ln_b], lambda: sum_all(mul(layer_norm(ln_x, ln_g, ln_b),
                                                         layer_norm(ln_x, ln_g, ln_b))))

    sm = leaf(3, 5)
    weights = Tensor(rng.normal(size=(3, 5)))
    _check_grads([sm], lambda: sum_all(mul(softmax(sm), weights)))

    ce = leaf(4, 3, scale=2.0)
    labels = rng.integers(0, 3, size=4)
    _check_grads([ce], lambda: softmax_cross_entropy(ce, labels))

    m = leaf(3, 4, 5)
    _check_grads([m], lambda: sum_all(mul(mean(m, axis=1), mean(m, axis=1))))

    rs = leaf(2, 6)
    _check_grads([rs], lambda: sum_all(mul(reshape(rs, (3, 4)), reshape(rs, (3, 4)))))

    sw = leaf(2, 3, 4)
    k = Tensor(rng.normal(size=(2, 4, 3)))
    _check_grads([sw], lambda: sum_all(mul(swap_last2(sw), k)))


def test_random_composite_graphs_match_finite_differences():
    # mixed-op graphs with shared subexpressions (fan-out)
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(4, 4)) * 0.7, requires_grad=True)
        w2 = Tensor(rng.normal(size=(4, 2)) * 0.7, requires_grad=True)
        bias = Tensor(rng.normal(size=(4,)), requires_grad=True)
        labels = rng.integers(0, 2, size=3)

        def build(x=x, w1=w1, w2=w2, bias=bias, labels=labels):
            h = gelu(bias_add(matmul(x, w1), bias))
            h = add(h, x)  # residual fan-out of x
            logits = matmul(tanh(h), w2)
            return softmax_cross_entropy(logits, labels)

        _check_grads([x, w1, w2, bias], build)


def test_sum_all_gradient_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_relu_gradient_at_exact_zero_is_zero():
    x = Tensor([0.0, -1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(relu(x)))
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_fanout_adjoints_accumulate_additively():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        y = add(mul(x, 3.0), mul(x, 4.0))  # 7x
        backward(tape, sum_all(y))
    assert x.grad[0] == pytest.approx(7.0, abs=1e-12)


def test_grad_accumulates_across_backward_calls():
    x = Tensor([1.0], requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            backward(tape, sum_all(mul(x, 5.0)))
    assert x.grad[0] == pytest.approx(10.0, abs=1e-12)
    x.zero_grad()
    assert x.grad is None


def test_frozen_tensors_never_receive_gradients():
    x = Tensor([1.0, 2.0], requires_grad=False)
    w = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(mul(x, w)))
    assert x.grad is None
    assert np.array_equal(w.grad, [1.0, 2.0])


def test_backward_requires_scalar_loss():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        y = mul(x, 2.0)
        with pytest.raises(ShapeMismatch):
            backward(tape, y)


# ---------------------------------------------------------------- fused adapter chain

# the pointwise op that makes the chain's input from h, so the chain's input gradient is
# checked feeding each of them ("identity" hands h over as it is); the adapters are gelu
UPSTREAM = {"gelu": gelu, "relu": relu, "tanh": tanh, "identity": lambda z: z}
# every non-empty subset of (h, down, up) that requires grad
GRAD_SETS = [flags for flags in itertools.product((False, True), repeat=3) if any(flags)]


def _adapter_leaves(seed, flags, n=5, u=4, v=2):
    rng = np.random.default_rng(seed)
    h = Tensor(rng.normal(size=(n, u)), requires_grad=flags[0])
    down = Tensor(rng.normal(size=(u, v)), requires_grad=flags[1])
    up = Tensor(rng.normal(size=(v, u)) * 0.5, requires_grad=flags[2])
    weights = Tensor(rng.normal(size=(n, u)))
    return h, down, up, weights


def _grads_of(tensors, build_out, weights):
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        out = build_out()
        backward(tape, sum_all(mul(out, weights)))
    return out, [t.grad for t in tensors]


@pytest.mark.parametrize("act", sorted(UPSTREAM))
@pytest.mark.parametrize("flags", GRAD_SETS)
def test_adapter_chain_gradients_match_finite_differences(act, flags):
    h, down, up, weights = _adapter_leaves(21, flags)
    f = UPSTREAM[act]
    if act == "relu":  # keep the inputs away from the kink
        assert np.abs(h.data).min() > 1e-3
    leaves = [t for t in (h, down, up) if t.requires_grad]
    _check_grads(leaves, lambda: sum_all(mul(adapter_chain(f(h), [(down, up)]), weights)))


@pytest.mark.parametrize("act", sorted(UPSTREAM))
@pytest.mark.parametrize("flags", GRAD_SETS)
def test_adapter_chain_is_bitwise_the_per_op_composition(act, flags):
    h, down, up, weights = _adapter_leaves(22, flags, n=7, u=6, v=3)
    leaves = (h, down, up)
    f = UPSTREAM[act]

    def composition():
        z = f(h)
        return add(z, matmul(gelu(matmul(z, down)), up))

    fused, fused_grads = _grads_of(leaves, lambda: adapter_chain(f(h), [(down, up)]), weights)
    composed, composed_grads = _grads_of(leaves, composition, weights)
    assert fused.data.tobytes() == composed.data.tobytes()
    for t, a, b in zip(leaves, fused_grads, composed_grads):
        assert (a is None) == (not t.requires_grad) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()


def test_two_adapter_chain_equals_two_single_calls():
    rng = np.random.default_rng(23)
    h = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    first = (Tensor(rng.normal(size=(6, 2)), requires_grad=True),
             Tensor(rng.normal(size=(2, 6)), requires_grad=True))
    second = (Tensor(rng.normal(size=(6, 2))), Tensor(rng.normal(size=(2, 6))))
    weights = Tensor(rng.normal(size=(2, 3, 6)))
    leaves = (h, first[0], first[1])
    with Tape() as tape:
        chained = adapter_chain(h, [first, second])
        assert len(tape) == 1  # the whole chain is one node
        backward(tape, sum_all(mul(chained, weights)))
    chained_grads = [t.grad for t in leaves]
    single, single_grads = _grads_of(
        leaves, lambda: adapter_chain(adapter_chain(h, [first]), [second]), weights)
    assert chained.shape == h.shape
    assert chained.data.tobytes() == single.data.tobytes()
    for a, b in zip(chained_grads, single_grads):
        assert a.tobytes() == b.tobytes()
    assert second[0].grad is None and second[1].grad is None


def test_adapter_chain_checks_shapes_and_records_nothing_frozen():
    h = Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeMismatch):
        adapter_chain(h, [(Tensor(np.ones((5, 2))), Tensor(np.ones((2, 5))))])
    with pytest.raises(ShapeMismatch):
        adapter_chain(h, [(Tensor(np.ones((4, 2))), Tensor(np.ones((3, 4))))])
    with Tape() as tape:
        out = adapter_chain(h, [(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 4))))])
    assert len(tape) == 0 and out.requires_grad is False


def test_adapter_chain_raises_on_non_finite_intermediates():
    # gelu(-inf) is 0 * -inf, an invalid operation: the check must see pre before gelu runs
    h = Tensor(np.full((1, 2), 1e200))
    down = Tensor(np.full((2, 1), -1e200))
    with np.errstate(over="ignore", invalid="raise"):
        with pytest.raises(NumericError):
            adapter_chain(h, [(down, Tensor(np.zeros((1, 2))))])


# ---------------------------------------------------------------- fused backbone blocks

def _mlp_block_on_tokens_per_op(x, *params):
    """mlp_block_per_op on [b, t, u] tokens: reshaped to rows and back."""
    b, t, u = x.shape
    return reshape(mlp_block_per_op(reshape(x, (b * t, u)), *params), (b, t, u))


# each fused op and the per-op composition it must match bit for bit; "mlp-tokens" is
# the mlp block on [b, t, u], as a model layer calls it
BLOCKS = {"mlp": (mlp_block, mlp_block_per_op),
          "mlp-tokens": (mlp_block, _mlp_block_on_tokens_per_op),
          "attention": (attention_block, attention_block_per_op)}


def _block_shapes(kind, n=6, b=2, t=3, u=5, f=7):
    """Shapes of the input and the 6 parameters of a block."""
    if kind == "attention":
        return [(b, t, u), (u,), (u,), (u, u), (u, u), (u, u), (u, u)]
    x = (n, u) if kind == "mlp" else (b, t, u)
    return [x, (u,), (u,), (u, f), (f,), (f, u), (u,)]


def _block_leaves(kind, seed, flags, scale=(1.0,) * 7, **dims):
    rng = np.random.default_rng(seed)
    shapes = _block_shapes(kind, **dims)
    arrays = [rng.normal(size=shape) for shape in shapes]
    arrays[1] = 1.0 + 0.3 * arrays[1]  # layer norm gains near 1
    leaves = [Tensor(a * c, requires_grad=g) for a, c, g in zip(arrays, scale, flags)]
    return leaves, Tensor(rng.normal(size=shapes[0]))


# the block's input requires grad or not; its weights are frozen backbone parameters
INPUT_GRAD = (True,) + (False,) * 6


@pytest.mark.parametrize("kind", sorted(BLOCKS))
def test_fused_block_is_bitwise_the_per_op_composition(kind):
    fused_op, per_op = BLOCKS[kind]
    for flags in [(False,) * 7, INPUT_GRAD]:
        # the benchmark's widths: at these, q @ k^T's bits depend on k^T's memory layout
        leaves, weights = _block_leaves(kind, 31, flags, n=64, b=4, t=16, u=32, f=64)
        fused, fused_grads = _grads_of(leaves, lambda: fused_op(*leaves), weights)
        composed, composed_grads = _grads_of(leaves, lambda: per_op(*leaves), weights)
        assert fused.shape == composed.shape == leaves[0].shape
        assert fused.data.tobytes() == composed.data.tobytes(), flags
        for i, (t, a, b) in enumerate(zip(leaves, fused_grads, composed_grads)):
            assert (a is None) == (not t.requires_grad) == (b is None), (flags, i)
            if a is not None:
                assert a.tobytes() == b.tobytes(), (flags, i)


@pytest.mark.parametrize("kind", sorted(BLOCKS))
@pytest.mark.parametrize("flags", [INPUT_GRAD], ids=["input"])
def test_fused_block_gradients_match_finite_differences(kind, flags):
    fused_op = BLOCKS[kind][0]
    leaves, weights = _block_leaves(kind, 32, flags)
    _check_grads([leaves[0]], lambda: sum_all(mul(fused_op(*leaves), weights)))


@pytest.mark.parametrize("kind", sorted(BLOCKS))
def test_fused_block_raises_where_the_per_op_composition_does(kind):
    # one input scaled by 1e307 or two by 1e160: where an intermediate overflows, the
    # fused op raises what the per-op composition raises, checked before the next op runs
    fused_op, per_op = BLOCKS[kind]
    raised = 0
    pairs = [((i, j), 1e160 if i != j else 1e307) for i in range(7) for j in range(i, 7)]
    # under invalid="raise", a non-finite sum in the check itself raises FloatingPointError
    errstates = [{"all": "ignore"}, {"over": "ignore", "invalid": "raise"}]
    for ((i, j), c), record, errs in itertools.product(pairs, (False, True), errstates):
        scale = tuple(c if k in (i, j) else 1.0 for k in range(7))
        leaves, _ = _block_leaves(kind, 33, (record,) + (False,) * 6, scale)
        outcomes = []
        for op in (fused_op, per_op):
            with Tape(), np.errstate(**errs):
                try:
                    op(*leaves)
                    outcomes.append(None)
                except (NumericError, FloatingPointError) as e:
                    outcomes.append(type(e))
        assert outcomes[0] is outcomes[1], (i, j, record, errs, outcomes)
        raised += outcomes[1] is NumericError and "all" in errs
    assert raised >= 12


@pytest.mark.parametrize("kind", sorted(BLOCKS))
def test_fused_block_records_one_node_or_none_and_checks_shapes(kind):
    fused_op = BLOCKS[kind][0]
    for flags in [(False,) * 7, INPUT_GRAD]:
        leaves, _ = _block_leaves(kind, 34, flags)
        with Tape() as tape:
            out = fused_op(*leaves)
        assert len(tape) == int(flags[0]) and out.requires_grad == flags[0]
    leaves, _ = _block_leaves(kind, 34, INPUT_GRAD)
    for i in range(7):
        bad = list(leaves)
        bad[i] = Tensor(np.ones(leaves[i].shape[:-1] + (leaves[i].shape[-1] + 1,)))
        with pytest.raises(ShapeMismatch):
            fused_op(*bad)
    with pytest.raises(ShapeMismatch):
        fused_op(Tensor(1.0, requires_grad=True), *leaves[1:])


@pytest.mark.parametrize("kind", sorted(BLOCKS))
def test_fused_block_refuses_a_grad_requiring_weight(kind):
    fused_op = BLOCKS[kind][0]
    names = (("ln_gain", "ln_bias", "wq", "wk", "wv", "wo") if kind == "attention" else
             ("ln_gain", "ln_bias", "w1", "b1", "w2", "b2"))
    for i, name in enumerate(names, start=1):
        for x_grad in (False, True):
            flags = (x_grad,) + tuple(k == i for k in range(1, 7))
            leaves, _ = _block_leaves(kind, 36, flags)
            with Tape() as tape, pytest.raises(ValueError, match=f"{name} requires grad"):
                fused_op(*leaves)
            assert len(tape) == 0


@pytest.mark.parametrize("kind", sorted(BLOCKS))
def test_fused_block_keeps_only_the_planes_its_backward_reads(kind):
    # a trained layer below makes the block's input require grad; its weights are frozen
    n, u, f = 256, 16, 32  # attention: b=16 rows of t=16 tokens
    leaves, _ = _block_leaves(kind, 35, (True,) + (False,) * 6, n=n, b=16, t=16, u=u, f=f)
    # the dropped output is freed; the node keeps, for mlp: xhat, inv and gelu's slope;
    # for attention: xhat, inv, q, k^T, v and the [b, t, t] softmax output
    planes = (n * u + n + n * f) if kind != "attention" else (4 * n * u + n + 16 * 16 * 16)
    tracemalloc.start()
    try:
        with Tape() as tape:
            base = tracemalloc.get_traced_memory()[0]
            BLOCKS[kind][0](*leaves)
            held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    assert 8 * planes <= held <= 8 * planes + 4096, (held, 8 * planes)


# ---------------------------------------------------------------- tape semantics


def test_backward_sets_grad_on_leaves_only():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, 3.0)
        z = tanh(y)
        backward(tape, sum_all(z))
    assert x.grad is not None
    assert y.grad is None and z.grad is None


def test_backward_keeps_the_node_count():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(gelu(mul(x, 3.0)))
        assert len(tape) == 3
        backward(tape, loss)
    assert len(tape) == 3


def test_a_replayed_tape_cannot_be_replayed_again():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, 2.0))
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="already replayed"):
            tape.backward(loss)
    assert x.grad[0] == pytest.approx(2.0)



def test_ops_outside_tape_do_not_record():
    x = Tensor([1.0], requires_grad=True)
    y = mul(x, 2.0)
    assert y.requires_grad is False  # nothing recorded, nothing to backprop


def test_no_grad_suspends_recording_inside_active_tape():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with no_grad():
            frozen = mul(x, 3.0)
        live = mul(x, 2.0)
        assert len(tape) == 1
        assert frozen.requires_grad is False
        backward(tape, sum_all(live))
    assert x.grad[0] == pytest.approx(2.0)


def test_nested_tapes_record_to_innermost():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as outer:
        with Tape() as inner:
            mul(x, 2.0)
        assert len(inner) == 1
        assert len(outer) == 0


def test_ops_on_frozen_inputs_are_not_recorded():
    x = Tensor([1.0])
    with Tape() as tape:
        mul(x, 2.0)
    assert len(tape) == 0


def _fifty_op_chain(keep):
    """Leaf gradients of a 50-op chain h = op(h); keep holds every intermediate alive.
    Every fifth op scales by a leaf it makes then, which can take a freed tensor's id.
    Also returns the id() of each intermediate as it was made."""
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3)) / 2, requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    leaves = [x, w, b]

    def scale(h):
        leaves.append(Tensor(rng.uniform(0.5, 1.5), requires_grad=True))
        return mul(h, leaves[-1])

    ops = [lambda h: matmul(h, w), tanh, lambda h: bias_add(h, b), gelu, scale]
    kept, ids = [], []
    with Tape() as tape:
        h = x
        for i in range(50):
            h = ops[i % len(ops)](h)
            ids.append(id(h))
            if keep:
                kept.append(h)
        backward(tape, sum_all(h))
    return [t.grad for t in leaves], ids


def test_adjoint_routing_does_not_depend_on_tensor_identity():
    dropped, ids = _fifty_op_chain(keep=False)
    kept, kept_ids = _fifty_op_chain(keep=True)
    # the dropped intermediates were freed, so later tensors took their ids
    assert len(set(ids)) < len(ids) and len(set(kept_ids)) == len(kept_ids)
    assert len(dropped) == len(kept) == 13  # x, w, b and ten scales
    for got, want in zip(dropped, kept):
        assert got is not None and np.array_equal(got, want)


def test_a_tensor_another_tape_made_is_a_leaf_of_the_tape_that_consumes_it():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = mul(x, 3.0)
    with Tape() as second:
        backward(second, sum_all(mul(y, y)))
    assert np.array_equal(y.grad, 2.0 * y.data) and x.grad is None
    # nested: y is node 0 of outer and the inner tape's first node is 0 too
    with Tape() as outer:
        y = mul(x, 3.0)
        with Tape() as inner:
            backward(inner, sum_all(mul(y, 2.0)))
        assert np.array_equal(y.grad, [2.0, 2.0]) and x.grad is None
        backward(outer, sum_all(y))
    assert np.array_equal(x.grad, [3.0, 3.0]) and np.array_equal(y.grad, [2.0, 2.0])


# ---------------------------------------------------------------- errors


def test_non_finite_construction_raises():
    with pytest.raises(NumericError):
        Tensor([np.nan])
    with pytest.raises(NumericError):
        Tensor([np.inf, 1.0])


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_one_non_finite_entry_anywhere_raises(shape, bad):
    size = math.prod(shape)
    for pos in (0, size // 2, size - 1):
        arr = np.arange(size, dtype=np.float64)
        arr[pos] = bad
        with pytest.raises(NumericError):
            Tensor(arr.reshape(shape))


def test_finite_values_whose_sum_overflows_pass():
    with np.errstate(over="ignore"):  # the sum overflows; the values are finite
        t = Tensor([1e308, 1e308])
    assert t.data.tolist() == [1e308, 1e308]


def test_overflow_in_op_raises_numeric_error():
    big = Tensor([1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            mul(big, big)


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeMismatch) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)
    with pytest.raises(ShapeMismatch):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeMismatch):
        bias_add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))
    with pytest.raises(ShapeMismatch):
        reshape(Tensor(np.zeros(5)), (2, 3))


def test_cross_entropy_label_out_of_range_raises():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="out of range"):
        softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ValueError):
        softmax_cross_entropy(logits, np.array([-1, 0]))


def test_ops_stay_finite_on_moderate_inputs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = rng.uniform(-1e3, 1e3, size=(3, 4))
        assert np.all(np.isfinite(gelu(Tensor(x)).data))
        assert np.all(np.isfinite(tanh(Tensor(x)).data))
        assert np.all(np.isfinite(softmax(Tensor(x)).data))
        loss = softmax_cross_entropy(Tensor(x), rng.integers(0, 4, size=3))
        assert np.isfinite(loss.item())
        flat = Tensor(np.full((2, 4), x[0, 0]))  # zero variance rows
        out = layer_norm(flat, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.all(np.isfinite(out.data))
