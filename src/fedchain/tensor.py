"""Dense float64 tensors with a reverse-mode autodiff tape.

Operations record onto the innermost active ``Tape``; ``backward`` replays
the tape in exact reverse append order, accumulating adjoints additively
across fan-out.  It frees memory as it goes: each node's adjoint and saved
arrays are dropped once its gradient function has run, so a tape can be
replayed only once.  Only leaves, the tensors no node on the tape produced,
receive ``.grad``; frozen tensors (``requires_grad=False``) never do.

A tape keeps only what a gradient reads: a node refers to its inputs by node
index or, for a leaf that requires grad, by the leaf (see ``Tape``), and its
gradient function closes over arrays, shapes and flags, never a ``Tensor``.
So an op's output the program drops is freed at once unless a gradient
reads its array.

A node saves only what its backward needs.  Three fused ops each record one
node in place of the per-op composition they are bitwise equal to:
``adapter_chain`` a whole run of residual bottleneck gelu adapters, keeping
per adapter gelu's slope on the v-wide rows, and a weight's forward
operand only when that weight requires grad; ``mlp_block`` and
``attention_block`` a frozen backbone layer's feed-forward and attention
halves, which differentiate only their input and keep the planes its
gradient needs (a weight that requires grad raises ValueError).
``adapter_chain`` and ``mlp_block`` take [..., u] and run it as [n, u] rows.
"""
from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np

# A step frees its whole tape at once.  glibc's adaptive malloc thresholds decide, from
# earlier allocations alone, whether the next step reuses that heap or faults it in again
# (one run: 0.15M or 1.07M minor page faults).  Pin them at the top of glibc's own range.
try:
    for _param, _value in ((-3, 32 << 20), (-1, 64 << 20)):  # M_MMAP_, M_TRIM_THRESHOLD
        ctypes.CDLL(None).mallopt(_param, _value)
except (AttributeError, OSError, TypeError):  # not glibc
    pass


class ShapeMismatch(ValueError):
    """Operands with incompatible shapes."""


class NumericError(ArithmeticError):
    """An operation produced NaN or Inf; never silent."""


def _check_finite(arr: np.ndarray) -> None:
    # One pass that allocates nothing: a NaN or Inf makes the sum non-finite.  A finite
    # array whose sum overflows (numpy warns) is told apart by the exact elementwise test.
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise NumericError("tensor holds non-finite values")


class Tensor:
    """Row-major float64 array plus an optional same-shape gradient buffer.

    ``node`` is (tape token, node index) for the output of an op a tape
    recorded, and None for a leaf.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        _check_finite(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: tuple[object, int] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Append-ordered record of differentiable operations.

    A node is (refs, grad_fn).  Per input, refs holds the index of the node
    that made it when this tape did, the input itself when it is a leaf that
    requires grad (it receives .grad), and None otherwise.  A tensor another
    tape made is a leaf here: the token in its ``node`` is not this tape's.
    """

    def __init__(self):
        # backward replaces each node by None once replayed, so len() still counts them
        self._nodes: list[tuple[tuple[int | Tensor | None, ...], object] | None] = []
        self._token = object()
        self._replayed = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPES.pop()
        return False

    def _ref(self, t: Tensor) -> int | Tensor | None:
        if t.node is not None and t.node[0] is self._token:
            return t.node[1]
        return t if t.requires_grad else None

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], grad_fn) -> None:
        out.node = (self._token, len(self._nodes))
        self._nodes.append((tuple(self._ref(t) for t in inputs), grad_fn))

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        backward(self, loss)


_TAPES: list[Tape | None] = []


def active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


@contextmanager
def no_grad():
    """Suspend recording inside the block, even if a tape is active."""
    _TAPES.append(None)
    try:
        yield
    finally:
        _TAPES.pop()


def backward(tape: Tape, loss: Tensor) -> None:
    """Add d loss / d t to .grad for every leaf t that requires grad.

    A leaf is a tensor that no node on this tape produced; intermediate
    outputs never get a .grad.  Nodes are replayed in reverse append order,
    and each node's adjoint and saved arrays are released as soon as its
    gradient function has used them, so a tape can be replayed only once.
    """
    if loss.size != 1:
        raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape._replayed:
        raise RuntimeError("backward: this tape was already replayed and its nodes released; "
                           "record the forward pass on a new Tape")
    tape._replayed = True
    nodes = tape._nodes
    # keyed by node index, or by the leaf itself: a key holds its leaf, so no id is reused
    adjoints: dict[int | Tensor, np.ndarray] = {}
    root = tape._ref(loss)
    if root is not None:
        adjoints[root] = np.ones_like(loss.data)
    for i in range(len(nodes) - 1, -1, -1):
        refs, grad_fn = nodes[i]
        nodes[i] = None
        g = adjoints.pop(i, None)
        if g is None:
            continue
        for ref, gt in zip(refs, grad_fn(g)):
            if gt is None or ref is None:
                continue
            adjoints[ref] = adjoints[ref] + gt if ref in adjoints else gt
    for t, g in adjoints.items():  # every node index was popped: what is left are leaves
        t.grad = g if t.grad is None else t.grad + g


def _recorder(inputs: tuple[Tensor, ...]) -> Tape | None:
    """The tape an op on these inputs records onto, if any."""
    tape = active_tape()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


def _emit(value: np.ndarray, inputs: tuple[Tensor, ...], grad_fn) -> Tensor:
    tape = _recorder(inputs)
    out = Tensor(value, requires_grad=tape is not None)
    if tape is not None:
        tape.record(out, inputs, grad_fn)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _swapT(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[m,k] @ [k,n], or batched [B,m,k] @ [B,k,n]."""
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        ok = ad.shape[1] == bd.shape[0]
    elif ad.ndim == 3 and bd.ndim == 3:
        ok = ad.shape[0] == bd.shape[0] and ad.shape[2] == bd.shape[1]
    else:
        ok = False
    if not ok:
        raise ShapeMismatch(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")

    # a's adjoint reads b's data and b's reads a's: keep each only if the other trains
    keep_a = ad if b.requires_grad else None
    keep_b = bd if a.requires_grad else None

    def grad_fn(g):
        ga = None if keep_b is None else g @ _swapT(keep_b)
        gb = None if keep_a is None else _swapT(keep_a) @ g
        return ga, gb

    return _emit(ad @ bd, (a, b), grad_fn)


def _elementwise_shapes(a: Tensor, b: Tensor) -> None:
    # only scalar-vs-tensor and equal-shape broadcasting
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeMismatch(f"incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _elementwise_shapes(a, b)
    a_shape, b_shape, a_trains, b_trains = a.shape, b.shape, a.requires_grad, b.requires_grad

    def grad_fn(g):
        ga = _reduce_to(g, a_shape) if a_trains else None
        gb = _reduce_to(g, b_shape) if b_trains else None
        return ga, gb

    return _emit(a.data + b.data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _elementwise_shapes(a, b)
    ad, bd = a.data, b.data
    a_shape, b_shape, a_trains, b_trains = a.shape, b.shape, a.requires_grad, b.requires_grad

    def grad_fn(g):
        ga = _reduce_to(g * bd, a_shape) if a_trains else None
        gb = _reduce_to(g * ad, b_shape) if b_trains else None
        return ga, gb

    return _emit(ad * bd, (a, b), grad_fn)


# Activations as (x, want_slope) -> (f(x), f'(x) or None): the one definition behind
# the pointwise ops, and (gelu) adapter_chain.

def _relu(x: np.ndarray, want_slope: bool):
    return np.maximum(x, 0.0), (x > 0.0) if want_slope else None  # relu'(0) := 0


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu(x: np.ndarray, want_slope: bool):
    # th = tanh(c x (1 + a x^2)), value = 0.5 (1 + th) x,
    # slope = 0.5 (1 + th) (1 + x (1 - th) c (1 + 3a x^2)).
    # numpy's pow is slow, so the cube is two products, and every array after the
    # first is written in place: at most three [n, f] arrays live, never one in x.
    th = x * x
    th *= _GELU_A
    th += 1.0
    th *= x
    th *= _GELU_C
    np.tanh(th, out=th)
    if not want_slope:
        th += 1.0
        th *= 0.5
        th *= x
        return th, None
    half = th + 1.0
    half *= 0.5
    slope = x * x
    slope *= 3.0 * _GELU_A
    slope += 1.0
    slope *= _GELU_C
    np.subtract(1.0, th, out=th)
    th *= x
    slope *= th
    slope += 1.0
    slope *= half
    half *= x
    return half, slope


def _tanh(x: np.ndarray, want_slope: bool):
    value = np.tanh(x)
    return value, (1.0 - value**2) if want_slope else None


def _pointwise(f, x: Tensor) -> Tensor:
    # the slope is computed only when the op records, and is all its node keeps
    value, slope = f(x.data, _recorder((x,)) is not None)
    return _emit(value, (x,), lambda g: (g * slope,))


def relu(x: Tensor) -> Tensor:
    return _pointwise(_relu, x)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation gelu: 0.5 x (1 + tanh(sqrt(2/pi)(x + 0.044715 x^3)))."""
    return _pointwise(_gelu, x)


def tanh(x: Tensor) -> Tensor:
    return _pointwise(_tanh, x)


ADAPTER_ACT = "gelu"  # the activation of every adapter; checkpoints record it


def adapter_chain(h: Tensor, adapters) -> Tensor:
    """Residual bottleneck adapters h <- h + gelu(h @ down) @ up, applied in order, as one op.

    `adapters` holds (down [u, v], up [v, u]) pairs; h is [..., u] and runs
    as [n, u] rows.  The one tape node keeps, per adapter, gelu'(pre) on the
    [n, v] rows, gelu(pre) only when up trains and the [n, u] input only
    when down trains; the hidden states in between are not kept.  Values
    and gradients are bitwise those of the per-op composition
    add(h, matmul(gelu(matmul(h, down)), up)).
    """
    u = h.shape[-1] if h.ndim else 0
    params: list[Tensor] = []
    for down, up in adapters:
        v = down.shape[-1] if down.ndim else 0
        if down.shape != (u, v) or up.shape != (v, u):
            raise ShapeMismatch(f"adapter_chain: down {down.shape} / up {up.shape} "
                                f"do not fit hidden {h.shape}")
        params += (down, up)
    inputs = (h, *params)
    recording = _recorder(inputs) is not None
    x = h.data.reshape(-1, u)
    flows = recording and h.requires_grad  # a gradient is wanted at this adapter's input
    saved = []
    for down, up in adapters:
        pre = x @ down.data
        _check_finite(pre)
        down_trains, up_trains = recording and down.requires_grad, recording and up.requires_grad
        through = flows or down_trains  # ... and at pre
        act, slope = _gelu(pre, through)
        saved.append((flows, through, slope, act if up_trains else None,
                      x if down_trains else None, down.data, up.data))
        step = act @ up.data
        step += x  # in place on a fresh array; addition commutes bitwise
        x = step
        _check_finite(x)
        flows = through or up_trains

    shape = h.shape

    def grad_fn(g):
        g = g.reshape(-1, u)
        grads: list[np.ndarray | None] = [None] * (1 + 2 * len(saved))
        for k in range(len(saved) - 1, -1, -1):
            flows_in, through, slope, act, x_in, down, up = saved[k]
            if act is not None:
                grads[2 + 2 * k] = _swapT(act) @ g
            if not through:
                return grads  # no gradient is wanted before this adapter
            gpre = g @ _swapT(up)
            gpre *= slope
            if x_in is not None:
                grads[1 + 2 * k] = _swapT(x_in) @ gpre
            if not flows_in:
                return grads
            back = gpre @ _swapT(down)
            back += g
            g = back
        grads[0] = g.reshape(shape)
        return grads

    return _emit(x.reshape(shape), inputs, grad_fn)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a [d] bias over the last axis of x."""
    d = x.shape[-1] if x.ndim else 0
    if b.ndim != 1 or b.shape[0] != d:
        raise ShapeMismatch(f"bias_add: bias {b.shape} does not match last axis of {x.shape}")

    x_trains, b_trains = x.requires_grad, b.requires_grad

    def grad_fn(g):
        gx = g if x_trains else None
        gb = g.reshape(-1, d).sum(axis=0) if b_trains else None
        return gx, gb

    return _emit(x.data + b.data, (x, b), grad_fn)


LN_EPS = 1e-5  # the variance floor of every layer norm; checkpoints record it


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise ShapeMismatch("layer_norm: empty last axis")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} do not match last axis of {x.shape}"
        )
    xhat, inv = _normalize(x.data)
    gd, wanted = gain.data, (x.requires_grad, gain.requires_grad, bias.requires_grad)

    def grad_fn(g):
        return _layer_norm_grads(g, gd, xhat, inv, wanted)

    return _emit(xhat * gd + bias.data, (x, gain, bias), grad_fn)


# Layer norm and softmax as array functions: the one definition behind the ops and the
# fused backbone blocks, which must be bitwise their per-op composition.

def _normalize(xd: np.ndarray):
    """Layer norm's xhat, centred and scaled over the last axis, and inv = 1 / std."""
    xhat = xd - xd.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat**2).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat *= inv
    return xhat, inv


def _layer_norm_grads(g, gain, xhat, inv, wanted):
    """The adjoints of layer norm's (x, gain, bias) that `wanted` flags, else None."""
    d = g.shape[-1]
    gx = None
    if wanted[0]:
        dxhat = g * gain
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
    ggain = (g * xhat).reshape(-1, d).sum(axis=0) if wanted[1] else None
    gbias = g.reshape(-1, d).sum(axis=0) if wanted[2] else None
    return gx, ggain, gbias


def _softmax(xd: np.ndarray) -> np.ndarray:
    shifted = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    s = _softmax(x.data)
    return _emit(s, (x,), lambda g: (_softmax_grad(g, s),))


def _check_params(op: str, params) -> None:
    """Raise ShapeMismatch unless each (name, tensor, shape) tensor has its shape, and
    ValueError if one requires grad: a backbone block differentiates only its input."""
    for name, t, shape in params:
        if t.shape != shape:
            raise ShapeMismatch(f"{op}: {name} {t.shape} does not fit, want {shape}")
        if t.requires_grad:
            raise ValueError(f"{op}: {name} requires grad, but only the input is differentiated")


def mlp_block(x: Tensor, ln_gain: Tensor, ln_bias: Tensor, w1: Tensor, b1: Tensor,
              w2: Tensor, b2: Tensor) -> Tensor:
    """Pre-norm residual feed-forward block x + gelu(LN(x) @ w1 + b1) @ w2 + b2 on
    x [..., u], as one op; x runs as [n, u] rows.

    The weights are frozen backbone parameters: one that requires grad raises
    ValueError.  The one tape node keeps what the input's gradient reads:
    layer norm's xhat [n, u] and inv [n, 1] and gelu's slope [n, f].  The
    value and the input's gradient are bitwise those of the per-op
    composition on the rows x2 = reshape(x, (n, u)), reshaped back to x's
    shape: add(x2, bias_add(matmul(gelu(bias_add(matmul(
    layer_norm(x2, ln_gain, ln_bias), w1), b1)), w2), b2)).
    """
    if x.ndim == 0:
        raise ShapeMismatch("mlp_block: x must be [..., u], got a scalar")
    u, f = x.shape[-1], (w1.shape[-1] if w1.ndim else 0)
    _check_params("mlp_block", [("ln_gain", ln_gain, (u,)), ("ln_bias", ln_bias, (u,)),
                                ("w1", w1, (u, f)), ("b1", b1, (f,)), ("w2", w2, (f, u)),
                                ("b2", b2, (u,))])
    gain, w1d, w2d = ln_gain.data, w1.data, w2.data  # what grad_fn reads of the weights
    shape, xd = x.shape, x.data.reshape(-1, u)
    xhat, inv = _normalize(xd)
    z = xhat * gain + ln_bias.data
    _check_finite(z)
    pre = z @ w1d
    _check_finite(pre)
    pre += b1.data  # in place on a fresh array; addition commutes bitwise
    _check_finite(pre)
    hid, slope = _gelu(pre, _recorder((x,)) is not None)
    _check_finite(hid)
    out = hid @ w2d
    _check_finite(out)
    out += b2.data
    _check_finite(out)
    out += xd

    def grad_fn(g):
        g = g.reshape(-1, u)
        gpre = g @ _swapT(w2d)
        gpre *= slope
        gx = _layer_norm_grads(gpre @ _swapT(w1d), gain, xhat, inv, (True, False, False))[0]
        return ((g + gx).reshape(shape),)  # the residual's adjoint, then layer norm's

    return _emit(out.reshape(shape), (x,), grad_fn)


def attention_block(x: Tensor, ln_gain: Tensor, ln_bias: Tensor, wq: Tensor, wk: Tensor,
                    wv: Tensor, wo: Tensor) -> Tensor:
    """Single-head pre-norm residual self-attention on [b, t, u], as one op:
    x + softmax(q k^T / sqrt(u)) v @ wo, with q, k, v = LN(x) @ wq, wk, wv.

    The weights are frozen backbone parameters: one that requires grad raises
    ValueError.  The one tape node keeps what the input's gradient reads:
    layer norm's xhat [b*t, u] and inv [b*t, 1], q, a contiguous k^T, v and
    the softmax output [b, t, t].
    The value and the input's gradient are bitwise those of the per-op
    composition: with x2 = reshape(x, (b*t, u)), z = layer_norm(x2, ln_gain,
    ln_bias) and each of q, k, v = reshape(matmul(z, w), (b, t, u)), it is
    reshape(add(x2, matmul(reshape(matmul(softmax(mul(matmul(q,
    swap_last2(k)), 1 / sqrt(u))), v), (b*t, u)), wo)), (b, t, u)).
    """
    if x.ndim != 3:
        raise ShapeMismatch(f"attention_block: x must be [b, t, u], got {x.shape}")
    b, t, u = x.shape
    _check_params("attention_block", [("ln_gain", ln_gain, (u,)), ("ln_bias", ln_bias, (u,)),
                                      ("wq", wq, (u, u)), ("wk", wk, (u, u)), ("wv", wv, (u, u)),
                                      ("wo", wo, (u, u))])
    # what grad_fn reads of the weights
    gain, wqd, wkd, wvd, wod = ln_gain.data, wq.data, wk.data, wv.data, wo.data
    xd = x.data.reshape(b * t, u)
    xhat, inv = _normalize(xd)
    z = xhat * gain + ln_bias.data
    _check_finite(z)
    q = z @ wqd
    _check_finite(q)
    k = z @ wkd
    _check_finite(k)
    v = z @ wvd
    _check_finite(v)
    q, v = q.reshape(b, t, u), v.reshape(b, t, u)
    kT = np.ascontiguousarray(_swapT(k.reshape(b, t, u)))  # the copy swap_last2's Tensor makes
    scores = q @ kT
    _check_finite(scores)
    scale = 1.0 / math.sqrt(u)
    scores *= scale
    _check_finite(scores)
    s = _softmax(scores)
    _check_finite(s)
    ctx = (s @ v).reshape(b * t, u)
    _check_finite(ctx)
    out = ctx @ wod
    _check_finite(out)
    out += xd

    def grad_fn(g):
        g = g.reshape(b * t, u)
        gctx = (g @ _swapT(wod)).reshape(b, t, u)
        gv = _swapT(s) @ gctx
        gscores = _softmax_grad(gctx @ _swapT(v), s) * scale
        gq = gscores @ _swapT(kT)
        gk = _swapT(_swapT(q) @ gscores)
        # z's adjoint sums v's, k's and q's parts in that order
        gz = (gv.reshape(b * t, u) @ _swapT(wvd) + gk.reshape(b * t, u) @ _swapT(wkd)
              + gq.reshape(b * t, u) @ _swapT(wqd))
        gx = _layer_norm_grads(gz, gain, xhat, inv, (True, False, False))[0]
        return ((g + gx).reshape(b, t, u),)  # the residual's adjoint, then layer norm's

    return _emit(out.reshape(b, t, u), (x,), grad_fn)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    if logits.ndim != 2:
        raise ShapeMismatch(f"softmax_cross_entropy: logits must be 2D, got {logits.shape}")
    y = np.asarray(labels)
    n, c = logits.shape
    if y.shape != (n,):
        raise ShapeMismatch(f"softmax_cross_entropy: labels {y.shape} do not match batch {n}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("softmax_cross_entropy: labels must be integers")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"label out of range for {c} classes: {int(y.min())}..{int(y.max())}")
    xd = logits.data
    shifted = xd - xd.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    value = -logp[np.arange(n), y].mean()

    def grad_fn(g):
        p = np.exp(logp)
        p[np.arange(n), y] -= 1.0
        return (p * (float(g.reshape(-1)[0]) / n),)

    return _emit(np.asarray(value), (logits,), grad_fn)


def mean(x: Tensor, axis: int) -> Tensor:
    """Mean over one axis (axis removed)."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeMismatch(f"mean: axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    shape, n = x.shape, x.shape[axis]

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy(),)

    return _emit(x.data.mean(axis=axis), (x,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def grad_fn(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit(np.asarray(x.data.sum()), (x,), grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    try:
        value = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeMismatch(f"reshape: cannot view {x.shape} as {shape}") from e
    x_shape = x.shape

    def grad_fn(g):
        return (g.reshape(x_shape),)

    return _emit(value, (x,), grad_fn)


def swap_last2(x: Tensor) -> Tensor:
    if x.ndim < 2:
        raise ShapeMismatch(f"swap_last2 needs ndim >= 2, got shape {x.shape}")

    def grad_fn(g):
        return (g.swapaxes(-1, -2),)

    return _emit(x.data.swapaxes(-1, -2), (x,), grad_fn)
