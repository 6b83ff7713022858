"""Independent reference implementations used to freeze expected test values.

Everything here deliberately avoids the package's own code paths: naive
triple loops, explicit double sums, textbook constructions, hand-written
numpy training loops.  The one exception is the per-op backbone blocks,
composed from fedchain.tensor's primitive ops, which the fused one-node
blocks must match bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from fedchain.tensor import (
    add,
    bias_add,
    gelu,
    layer_norm,
    matmul,
    mul,
    reshape,
    softmax,
    swap_last2,
)


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def gelu_pow(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximation gelu and its slope, written with numpy's pow as the textbook does."""
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    th = np.tanh(c * (x + a * x**3))
    value = 0.5 * x * (1.0 + th)
    d_inner = c * (1.0 + 3.0 * a * x**2)
    return value, 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * d_inner


def finite_difference(f, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central differences of the scalar f() w.r.t. arrays mutated in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f()
            flat[i] = orig - h
            f_minus = f()
            flat[i] = orig
            gf[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor: float = 1e-3) -> float:
    a, n = np.asarray(analytic), np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def hsic_double_sum(zi, zj) -> float:
    """Naive O(n^2) evaluation of the population HSIC expectation terms
    (E[k k'] + E[k]E[k'] - 2 E[E[k]E[k']]) on the empirical distribution,
    rescaled to the (n-1)^2 biased-estimator convention."""
    zi, zj = np.asarray(zi, float), np.asarray(zj, float)
    n = zi.shape[0]

    def k(a, b):
        return float(a @ b)

    term1 = sum(k(zi[p], zi[q]) * k(zj[p], zj[q]) for p in range(n) for q in range(n)) / n**2
    ek = sum(k(zi[p], zi[q]) for p in range(n) for q in range(n)) / n**2
    el = sum(k(zj[p], zj[q]) for p in range(n) for q in range(n)) / n**2
    term3 = 2.0 * sum(
        (sum(k(zi[p], zi[q]) for q in range(n)) / n)
        * (sum(k(zj[p], zj[q]) for q in range(n)) / n)
        for p in range(n)
    ) / n
    return (term1 + ek * el - term3) * n**2 / (n - 1) ** 2


def stick_breaking_dirichlet(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    """Symmetric Dirichlet(alpha) sample built from Beta stick-breaking marginals."""
    out = np.zeros(n)
    remaining = 1.0
    for i in range(n - 1):
        frac = rng.beta(alpha, alpha * (n - 1 - i))
        out[i] = remaining * frac
        remaining *= 1.0 - frac
    out[-1] = remaining
    return out


def bag_of_tokens(x_tokens: np.ndarray, vocab: int) -> np.ndarray:
    n, t = x_tokens.shape
    feats = np.zeros((n, vocab))
    for i in range(n):
        feats[i] = np.bincount(x_tokens[i], minlength=vocab) / t
    return feats


def train_depth2_reference(x_tokens, y, vocab: int, seed: int = 0, epochs: int = 300,
                           lr: float = 1.0, hidden: int = 32) -> float:
    """Hand-written two-layer numpy classifier on bag-of-token features.

    Returns held-out accuracy on the last 20% of a shuffled split.
    """
    y = np.asarray(y)
    feats = bag_of_tokens(np.asarray(x_tokens), vocab)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    cut = int(0.8 * len(y))
    tr, te = order[:cut], order[cut:]
    C = int(y.max()) + 1
    w1 = rng.normal(0.0, 0.5, (vocab, hidden))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0.0, 0.5, (hidden, C))
    b2 = np.zeros(C)
    xt, yt = feats[tr], y[tr]
    for _ in range(epochs):
        h = np.tanh(xt @ w1 + b1)
        logits = h @ w2 + b2
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(yt)), yt] -= 1.0
        p /= len(yt)
        gw2 = h.T @ p
        gb2 = p.sum(axis=0)
        dh = (p @ w2.T) * (1.0 - h**2)
        gw1 = xt.T @ dh
        gb1 = dh.sum(axis=0)
        w1 -= lr * gw1
        b1 -= lr * gb1
        w2 -= lr * gw2
        b2 -= lr * gb2
    h = np.tanh(feats[te] @ w1 + b1)
    pred = (h @ w2 + b2).argmax(axis=1)
    return float((pred == y[te]).mean())


def greedy_partition(stack, n_rows: int, mem_budget) -> list[list[int]]:
    """Layer-by-layer greedy maximal blocks, pricing each layer from its built tensors.

    Block cost = carried hidden state (input and output rows at width u, f64)
    plus the f64 bytes of each layer's backbone and adapter tensors.
    """
    carry = 2 * n_rows * stack.dims.u * 8
    blocks: list[list[int]] = []
    current: list[int] = []
    current_bytes = 0
    for i, unit in enumerate(stack.units, start=1):
        cost = 8 * (sum(t.size for t in unit.backbone.params().values())
                    + unit.adapter.down.size + unit.adapter.up.size)
        if current and current_bytes + cost <= mem_budget:
            current.append(i)
            current_bytes += cost
            continue
        if carry + cost > mem_budget:
            raise ValueError(
                f"mem_budget {mem_budget} below single-layer floor {carry + cost} at layer {i}"
            )
        if current:
            blocks.append(current)
        current, current_bytes = [i], carry + cost
    if current:
        blocks.append(current)
    return blocks


def forward_through_per_row(stack, x, upto=None, walk=None):
    """fedchain.model.forward_through as a plain loop: every layer, backbone then
    adapter, on every row of x, frozen or not.  The released layers are those
    below the first layer with a grad-requiring backbone or adapter tensor.
    A shared walk is ignored: every row is walked here anyway."""
    upto = stack.L if upto is None else upto
    h = stack.embed(x)
    releasable, frozen = [], True
    for i, unit in enumerate(stack.units[:upto], start=1):
        tensors = [*unit.backbone.params().values(), unit.adapter.down, unit.adapter.up]
        frozen = frozen and not any(t.requires_grad for t in tensors)
        if frozen:
            releasable.append(i)
        h = unit.adapter.forward(unit.backbone.forward(h))
    return h, releasable


def mlp_block_per_op(x, ln_gain, ln_bias, w1, b1, w2, b2):
    """fedchain.tensor.mlp_block as one primitive op per step, on [n, u] rows."""
    z = layer_norm(x, ln_gain, ln_bias)
    hid = gelu(bias_add(matmul(z, w1), b1))
    return add(x, bias_add(matmul(hid, w2), b2))


def attention_block_per_op(x, ln_gain, ln_bias, wq, wk, wv, wo):
    """fedchain.tensor.attention_block as one primitive op per step, on [b, t, u]."""
    b, t, u = x.shape
    x2 = reshape(x, (b * t, u))
    z = layer_norm(x2, ln_gain, ln_bias)
    q, k, v = (reshape(matmul(z, w), (b, t, u)) for w in (wq, wk, wv))
    scores = mul(matmul(q, swap_last2(k)), 1.0 / math.sqrt(u))
    ctx = matmul(softmax(scores), v)
    return reshape(add(x2, matmul(reshape(ctx, (b * t, u)), wo)), (b, t, u))
