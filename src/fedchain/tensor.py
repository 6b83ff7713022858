"""Dense float64 tensors with a reverse-mode autodiff tape.

Operations record onto the innermost active ``Tape``; ``backward`` replays
the tape in exact reverse append order, accumulating adjoints additively
across fan-out. Frozen tensors (``requires_grad=False``) never receive a
gradient buffer.
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

__all__ = [
    "Tensor",
    "Tape",
    "ShapeMismatch",
    "NumericError",
    "no_grad",
    "active_tape",
    "backward",
    "matmul",
    "add",
    "mul",
    "relu",
    "gelu",
    "tanh",
    "bias_add",
    "layer_norm",
    "softmax",
    "softmax_cross_entropy",
    "mean",
    "sum_all",
    "reshape",
    "swap_last2",
]


class ShapeMismatch(ValueError):
    """Operands with incompatible shapes."""


class NumericError(ArithmeticError):
    """An operation produced NaN or Inf; never silent."""


class Tensor:
    """Row-major float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

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
    """Append-ordered record of differentiable operations."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPES.pop()
        return False

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], grad_fn) -> None:
        self._nodes.append((out, inputs, grad_fn))

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
    """Populate .grad for every requires_grad tensor reachable from loss."""
    if loss.size != 1:
        raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.shape}")
    adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for out, inputs, grad_fn in reversed(tape._nodes):
        g = adjoints.get(id(out))
        if g is None:
            continue
        for t, gt in zip(inputs, grad_fn(g)):
            if gt is None or not t.requires_grad:
                continue
            key = id(t)
            if key in adjoints:
                adjoints[key] = adjoints[key] + gt
            else:
                adjoints[key] = gt
                holders[key] = t
    for key, t in holders.items():
        if t.requires_grad:
            g = adjoints[key]
            t.grad = g if t.grad is None else t.grad + g


def _emit(value: np.ndarray, inputs: tuple[Tensor, ...], grad_fn) -> Tensor:
    tape = active_tape()
    recording = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(value, requires_grad=recording)
    if recording:
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

    def grad_fn(g):
        ga = g @ _swapT(bd) if a.requires_grad else None
        gb = _swapT(ad) @ g if b.requires_grad else None
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

    def grad_fn(g):
        ga = _reduce_to(g, a.shape) if a.requires_grad else None
        gb = _reduce_to(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _emit(a.data + b.data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _elementwise_shapes(a, b)
    ad, bd = a.data, b.data

    def grad_fn(g):
        ga = _reduce_to(g * bd, a.shape) if a.requires_grad else None
        gb = _reduce_to(g * ad, b.shape) if b.requires_grad else None
        return ga, gb

    return _emit(ad * bd, (a, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    xd = x.data

    def grad_fn(g):
        # relu'(0) := 0
        return (g * (xd > 0.0),)

    return _emit(np.maximum(xd, 0.0), (x,), grad_fn)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation gelu: 0.5 x (1 + tanh(sqrt(2/pi)(x + 0.044715 x^3)))."""
    xd = x.data
    th = np.tanh(_GELU_C * (xd + _GELU_A * xd**3))

    def grad_fn(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * xd**2)
        return (g * (0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th**2) * d_inner),)

    return _emit(0.5 * xd * (1.0 + th), (x,), grad_fn)


def tanh(x: Tensor) -> Tensor:
    value = np.tanh(x.data)

    def grad_fn(g):
        return (g * (1.0 - value**2),)

    return _emit(value, (x,), grad_fn)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a [d] bias over the last axis of x."""
    d = x.shape[-1] if x.ndim else 0
    if b.ndim != 1 or b.shape[0] != d:
        raise ShapeMismatch(f"bias_add: bias {b.shape} does not match last axis of {x.shape}")

    def grad_fn(g):
        gx = g if x.requires_grad else None
        gb = g.reshape(-1, d).sum(axis=0) if b.requires_grad else None
        return gx, gb

    return _emit(x.data + b.data, (x, b), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise ShapeMismatch("layer_norm: empty last axis")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} do not match last axis of {x.shape}"
        )
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv

    def grad_fn(g):
        dxhat = g * gain.data
        gx = None
        if x.requires_grad:
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            gx = inv * (dxhat - m1 - xhat * m2)
        ggain = (g * xhat).reshape(-1, d).sum(axis=0) if gain.requires_grad else None
        gbias = g.reshape(-1, d).sum(axis=0) if bias.requires_grad else None
        return gx, ggain, gbias

    return _emit(xhat * gain.data + bias.data, (x, gain, bias), grad_fn)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    xd = x.data
    shifted = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _emit(s, (x,), grad_fn)


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
    n = x.shape[axis]

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, x.shape).copy(),)

    return _emit(x.data.mean(axis=axis), (x,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    def grad_fn(g):
        return (np.broadcast_to(g, x.shape).copy(),)

    return _emit(np.asarray(x.data.sum()), (x,), grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    try:
        value = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeMismatch(f"reshape: cannot view {x.shape} as {shape}") from e

    def grad_fn(g):
        return (g.reshape(x.shape),)

    return _emit(value, (x,), grad_fn)


def swap_last2(x: Tensor) -> Tensor:
    if x.ndim < 2:
        raise ShapeMismatch(f"swap_last2 needs ndim >= 2, got shape {x.shape}")

    def grad_fn(g):
        return (g.swapaxes(-1, -2),)

    return _emit(x.data.swapaxes(-1, -2), (x,), grad_fn)
