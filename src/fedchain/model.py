"""Frozen layered backbone with bottleneck adapters and per-layer heads.

Every layer applies its backbone transform then a residual bottleneck
adapter.  Backbone and embedding parameters are permanently frozen; only
adapters, local heads, and the final head are ever trainable.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeMismatch,
    Tensor,
    adapter_chain,
    attention_block,
    bias_add,
    matmul,
    mean,
    mlp_block,
    no_grad,
    softmax_cross_entropy,
)

@dataclass
class AdapterParams:
    """Residual bottleneck adapter: h + gelu(h @ down) @ up."""

    down: Tensor  # [u, v]
    up: Tensor  # [v, u]

    def params(self) -> dict[str, Tensor]:
        return {"down": self.down, "up": self.up}

    def forward(self, h: Tensor) -> Tensor:
        """The adapter as one tape node (see tensor.adapter_chain)."""
        return adapter_chain(h, [(self.down, self.up)])


def init_adapter(u: int, v: int, seed) -> AdapterParams:
    """Identity-start init: down ~ U(+-1/sqrt(u)), up = 0."""
    if not 1 <= v < u:
        raise ValueError(f"adapter bottleneck must satisfy 1 <= v < u, got u={u}, v={v}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(u)
    down = Tensor(rng.uniform(-bound, bound, size=(u, v)))
    up = Tensor(np.zeros((v, u)))
    return AdapterParams(down, up)


def _uniform(rng, shape, fan_in, scale):
    bound = scale / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


class MlpLayer:
    """Pre-norm residual feed-forward block: x + W2 gelu(W1 LN(x) + b1) + b2.

    The block records one tape node (tensor.mlp_block) on x [..., u] and
    differentiates only its input: a backbone never trains, and a weight
    that requires grad raises ValueError.  For n = x.size // u rows the node
    keeps layer norm's xhat [n, u] and inv [n, 1] and gelu's slope [n, ffn].
    """

    mixes_tokens = False  # each [u] row maps on its own

    def __init__(self, u: int, ffn: int, seed, scale: float = 1.0):
        rng = np.random.default_rng(seed)  # a Generator passes through: a caller's draws continue
        self.ln_gain = Tensor(np.ones(u))
        self.ln_bias = Tensor(np.zeros(u))
        self.w1 = _uniform(rng, (u, ffn), u, scale)
        self.b1 = Tensor(np.zeros(ffn))
        self.w2 = _uniform(rng, (ffn, u), ffn, scale)
        self.b2 = Tensor(np.zeros(u))

    def params(self) -> dict[str, Tensor]:
        return {
            "ln.gain": self.ln_gain,
            "ln.bias": self.ln_bias,
            "fc1.W": self.w1,
            "fc1.b": self.b1,
            "fc2.W": self.w2,
            "fc2.b": self.b2,
        }

    def forward(self, x: Tensor) -> Tensor:
        return mlp_block(x, self.ln_gain, self.ln_bias, self.w1, self.b1, self.w2, self.b2)


class AttnLiteLayer:
    """Single-head pre-norm residual self-attention, then the MlpLayer block.

    The attention half records one tape node (tensor.attention_block) and,
    as MlpLayer, differentiates only its input.  For b rows of t tokens it
    keeps layer norm's xhat [b*t, u] and inv [b*t, 1], q, k^T and v
    ([b*t, u] each) and the softmax output [b, t, t]; the MLP block's one
    node follows, so the layer is two tape nodes.
    """

    mixes_tokens = True

    def __init__(self, u: int, ffn: int, seed, scale: float = 1.0):
        rng = np.random.default_rng(seed)
        self.ln1_gain = Tensor(np.ones(u))
        self.ln1_bias = Tensor(np.zeros(u))
        self.wq = _uniform(rng, (u, u), u, scale)
        self.wk = _uniform(rng, (u, u), u, scale)
        self.wv = _uniform(rng, (u, u), u, scale)
        self.wo = _uniform(rng, (u, u), u, scale)
        self.mlp = MlpLayer(u, ffn, rng, scale)

    def params(self) -> dict[str, Tensor]:
        ffn = self.mlp.params()
        return {
            "ln1.gain": self.ln1_gain,
            "ln1.bias": self.ln1_bias,
            "attn.wq": self.wq,
            "attn.wk": self.wk,
            "attn.wv": self.wv,
            "attn.wo": self.wo,
            "ln2.gain": ffn.pop("ln.gain"),
            "ln2.bias": ffn.pop("ln.bias"),
            **ffn,
        }

    def forward(self, x: Tensor) -> Tensor:
        return self.mlp.forward(attention_block(x, self.ln1_gain, self.ln1_bias,
                                                self.wq, self.wk, self.wv, self.wo))


BACKBONE_KINDS = {"mlp": MlpLayer, "attn-lite": AttnLiteLayer}


class LocalHead:
    """Mean-pool over tokens followed by an affine readout."""

    def __init__(self, u: int, n_classes: int, seed):
        rng = np.random.default_rng(seed)
        self.W = Tensor(rng.uniform(-1.0, 1.0, size=(u, n_classes)) / math.sqrt(u))
        self.b = Tensor(np.zeros(n_classes))

    def logits(self, hidden: Tensor) -> Tensor:
        if hidden.ndim != 3:
            raise ShapeMismatch(f"head expects [batch, tokens, u], got {hidden.shape}")
        pooled = mean(hidden, axis=1)
        return bias_add(matmul(pooled, self.W), self.b)


class TokenEmbedding:
    def __init__(self, vocab: int, u: int, seed):
        rng = np.random.default_rng(seed)
        self.vocab = vocab
        self.table = Tensor(rng.standard_normal((vocab, u)))

    def validate(self, ids) -> np.ndarray:
        """The token batch as an integer [batch, tokens] array of in-vocab ids."""
        ids = np.asarray(ids)
        if ids.ndim != 2 or not np.issubdtype(ids.dtype, np.integer):
            raise ShapeMismatch(f"token batch must be integer [batch, tokens], got {ids.shape} {ids.dtype}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab):
            raise ValueError(f"token id out of range for vocab {self.vocab}")
        return ids

    def __call__(self, ids) -> Tensor:
        return Tensor(self.table.data[self.validate(ids)])


@dataclass(frozen=True)
class StackDims:
    L: int
    u: int
    v: int
    C: int
    vocab: int
    kind: str = "mlp"
    ffn: int = 0  # 0 means 2*u

    def __post_init__(self):
        if self.L < 1 or self.u < 2 or self.C < 2 or self.ffn < 0:
            raise ValueError(f"bad stack dims L={self.L}, u={self.u}, C={self.C}, ffn={self.ffn}")
        if not 1 <= self.v < self.u:
            raise ValueError(f"adapter bottleneck must satisfy 1 <= v < u, got {self.v} vs {self.u}")
        if self.kind not in BACKBONE_KINDS:
            raise ValueError(f"unknown backbone kind {self.kind!r}")

    @property
    def ffn_dim(self) -> int:
        return self.ffn if self.ffn else 2 * self.u


# Parameter counts in closed form; the memory model, the profiling floor and
# the checkpoint size check all price a stack from these.
def embed_param_count(dims: StackDims) -> int:
    return dims.u * dims.vocab


def layer_param_count(dims: StackDims) -> int:
    u, f = dims.u, dims.ffn_dim
    mlp = 2 * u * f + f + 3 * u  # MlpLayer
    return mlp if dims.kind == "mlp" else 4 * u * u + 2 * u + mlp  # attn-lite adds ln1 and attention


def adapter_param_count(dims: StackDims) -> int:
    return 2 * dims.u * dims.v


def head_param_count(dims: StackDims) -> int:
    return dims.u * dims.C + dims.C


@dataclass
class LayerUnit:
    backbone: object
    adapter: AdapterParams
    head: LocalHead


class ModelStack:
    def __init__(self, dims: StackDims, embed: TokenEmbedding, units: list[LayerUnit],
                 final_head: LocalHead):
        self.dims = dims
        self.embed = embed
        self.units = units
        self.final_head = final_head
        # the stack as one sequence: backbone 1, adapter 1, ..., backbone L, adapter L
        self.modules = tuple(m for unit in units for m in (unit.backbone, unit.adapter))

    @property
    def L(self) -> int:
        return len(self.units)


def build_stack(dims: StackDims, *, seed: int = 0, init_scale: float = 1.0) -> ModelStack:
    """Deterministically initialize a full stack from one master seed.

    config.ModelConfig takes its seed and init_scale defaults from here.
    """
    entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = entropy.spawn(3 * dims.L + 2)
    it = iter(children)
    embed = TokenEmbedding(dims.vocab, dims.u, next(it))
    layer_cls = BACKBONE_KINDS[dims.kind]
    units = []
    for _ in range(dims.L):
        backbone = layer_cls(dims.u, dims.ffn_dim, next(it), scale=init_scale)
        adapter = init_adapter(dims.u, dims.v, next(it))
        head = LocalHead(dims.u, dims.C, next(it))
        units.append(LayerUnit(backbone, adapter, head))
    final_head = LocalHead(dims.u, dims.C, next(it))
    return ModelStack(dims, embed, units, final_head)


def _apply(stack: ModelStack, h: Tensor, start: int, stop: int) -> Tensor:
    """Modules start..stop - 1 of stack.modules on h, the output of module start - 1."""
    for module in stack.modules[start:stop]:
        h = module.forward(h)
    return h


def layer_rows(stack: ModelStack, batches):
    """Per batch in order, an iterator over its [b*t, u] hidden rows at the
    embedding and after each layer 1..L, as arrays.  Records nothing on a tape,
    and the no_grad block closes before each yield, so a suspended walk leaves
    the caller's tape active.

    Where walk_input takes distinct ids, the batches, which share seq_len,
    share one walk of their union, kept layer by layer as [k, 1, u]; a batch
    reads its rows back through the id->row map, bitwise its own walk's.  A
    stack that mixes tokens walks each batch itself, one layer at a time.
    """
    def walk(x):
        h = stack.embed(x)
        yield h
        for depth in range(2, 2 * stack.L + 1, 2):
            with no_grad():
                h = _apply(stack, h, depth - 2, depth)
            yield h

    def rows(hs, x):
        for h in hs:
            yield gather_rows(h, slot, x).data.reshape(-1, stack.dims.u)

    ids, slot = walk_input(stack, np.concatenate(batches))
    shared = None if slot is None else list(walk(ids))
    for x in batches:
        yield rows(walk(x) if shared is None else shared, x)


def _frozen_depth(stack: ModelStack, upto: int) -> int:
    """The number of leading modules of layers 1..upto with no grad-requiring
    parameter (mark_trainable sets the flags): 2 * upto when none has one."""
    modules = stack.modules[:2 * upto]
    return next((depth for depth, module in enumerate(modules)
                 if any(t.requires_grad for t in module.params().values())), len(modules))


class FrozenWalk:
    """The first `depth` modules, walked once with no grad over `ids` and read
    back per batch by `rows` through `slot`, the pair walk_input(stack, x) gives.

    Where walk_input takes distinct ids, any batch of the walked ids reads
    back, since a row of a k >= 2-row walk is bitwise that row of any other:
    `run` shares one walk a round (`shared_walk`) across every local step.
    Otherwise (slot None) only the batch ids itself reads back.
    """

    def __init__(self, stack: ModelStack, ids, slot: np.ndarray | None, depth: int):
        self.depth = depth
        self._embed = stack.embed
        walked = [stack.embed.table, *(t for module in stack.modules[:depth]
                                       for t in module.params().values())]
        self._walked = [(t, t.data) for t in walked]
        with no_grad():
            self._h = _apply(stack, stack.embed(ids), 0, depth)
        self._ids, self._slot = ids, slot

    def rows(self, x, depth: int) -> Tensor:
        """The [b, t, u] walked hidden state of x, for a caller whose frozen depth is `depth`.

        Raises ValueError, and never walks instead, if `depth` is not the
        walk's, if x holds an id the walk did not take, or if a walked tensor's
        .data is not the array the walk read (`run` rebinds a tensor's .data and
        never writes a frozen array in place, so `is` finds any change).
        """
        if depth != self.depth:
            raise ValueError(f"walk covers {self.depth} modules, "
                             f"the requires_grad flags give {depth}")
        if any(t.data is not data for t, data in self._walked):
            raise ValueError("a walked tensor changed since the walk")
        if self._slot is None and x is not self._ids:
            raise ValueError("a per-row walk reads back only the batch it walked")
        return gather_rows(self._h, self._slot, self._embed.validate(x))


def shared_walk(stack: ModelStack, x, upto: int) -> FrozenWalk | None:
    """The frozen part of forward_through(stack, batch, upto) for every batch of x's
    ids, walked once over x's distinct ids, as the requires_grad flags now set it.

    None where walk_input walks per row: a stack that mixes tokens, or x of
    fewer than 2 token rows.  Nothing is walked then.
    """
    ids, slot = walk_input(stack, x)
    return None if slot is None else FrozenWalk(stack, ids, slot, _frozen_depth(stack, upto))


def forward_through(stack: ModelStack, x, upto: int | None = None,
                    walk: FrozenWalk | None = None) -> tuple[Tensor, list[int]]:
    """Apply layers 1..upto, each as backbone-then-adapter.

    The modules below the first one with a grad-requiring parameter record no
    tape node.  That frozen part is read from `walk` (a shared_walk over ids
    including x's), else from a FrozenWalk of x itself.  A batch of fewer
    than 2 token rows always walks itself, since a one-row matmul is not
    bitwise a row of a k-row one.  The rest runs per row.  Either way the
    hidden state and the gradients are bitwise those of a per-row walk.

    Also returns the layers whose backbone and adapter are both frozen, whose
    activations no gradient needs: the released-memory trace.
    """
    upto = stack.L if upto is None else upto
    if not 0 <= upto <= stack.L:
        raise ValueError(f"upto must lie in [0, {stack.L}], got {upto}")
    depth = _frozen_depth(stack, upto)
    if walk is None or np.size(x) < 2:
        walk = FrozenWalk(stack, *walk_input(stack, x), depth)
    return _apply(stack, walk.rows(x, depth), depth, 2 * upto), list(range(1, depth // 2 + 1))


def walk_input(stack: ModelStack, x) -> tuple[object, np.ndarray | None]:
    """What a no-grad walk of the stack embeds in place of x, and the id->row map
    that reads a batch's rows back from it (`gather_rows`).

    Eval (a FrozenWalk of every module) and CKA profiling (layer_rows) walk
    the whole stack this way, a FrozenWalk the frozen modules of a training
    step.

    Where no layer mixes tokens, a token row's hidden state at every layer
    is a function of its id alone.  The walk then embeds each distinct id of
    x once, as a [k, 1] batch (a single id twice, as two identical rows), and
    the map, one entry per vocab id, holds each walked id's row and -1 for
    every other id: a row of a walk of k >= 2 rows is bitwise that row of any
    other.  A stack that mixes tokens, and x of fewer than 2 token rows, walk
    x itself, with no map: a one-row matmul is not bitwise a row of a
    many-row one.  Callers embed the result inside the call to the walk, so
    that no frame holds the embedded input while the layers run.
    """
    if np.size(x) >= 2 and not any(unit.backbone.mixes_tokens for unit in stack.units):
        ids = stack.embed.validate(x)
        distinct = np.flatnonzero(np.bincount(ids.ravel()))  # np.unique would import numpy.ma
        slot = np.full(stack.embed.vocab, -1, dtype=np.intp)
        slot[distinct] = np.arange(distinct.size)
        return (distinct if distinct.size > 1 else distinct.repeat(2))[:, None], slot
    return x, None


def gather_rows(h: Tensor, slot: np.ndarray | None, x) -> Tensor:
    """The [b, t, u] hidden state of every row of the token batch x, read through
    walk_input's map from a walk of its ids; h itself where there is no map."""
    if slot is None:
        return h
    index = slot[x]
    if (index < 0).any():
        raise ValueError("batch holds a token id the walk did not take")
    return Tensor(h.data.reshape(-1, h.shape[-1])[index])


def local_loss(stack: ModelStack, hidden: Tensor, layer_idx: int, labels) -> Tensor:
    """Cross-entropy of layer layer_idx's local head on its output hidden."""
    if not 1 <= layer_idx <= stack.L:
        raise ValueError(f"layer index {layer_idx} out of range 1..{stack.L}")
    return softmax_cross_entropy(stack.units[layer_idx - 1].head.logits(hidden), labels)


def aux_branch_forward(stack: ModelStack, hidden: Tensor, from_layer: int, labels) -> Tensor:
    """Lightweight global branch: subsequent adapters only, then the final head.

    Backbones after from_layer are skipped entirely; gradients flow through
    the (frozen) subsequent adapters back into the window.  They run as one
    tape node that keeps each adapter's v-wide slope, not its u-wide hidden
    state.
    """
    if not 1 <= from_layer <= stack.L:
        raise ValueError(f"layer index {from_layer} out of range 1..{stack.L}")
    if from_layer == stack.L:
        raise ValueError("aux branch undefined at the final layer; use the end-to-end loss")
    h = adapter_chain(hidden, [(unit.adapter.down, unit.adapter.up)
                               for unit in stack.units[from_layer:]])
    return end_to_end_loss(stack, h, labels)


def end_to_end_loss(stack: ModelStack, hidden: Tensor, labels) -> Tensor:
    return softmax_cross_entropy(stack.final_head.logits(hidden), labels)


def evaluate_accuracy(stack: ModelStack, x, labels) -> float:
    h = FrozenWalk(stack, *walk_input(stack, x), 2 * stack.L).rows(x, 2 * stack.L)
    with no_grad():
        pred = stack.final_head.logits(h).data.argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())


def named_parameters(stack: ModelStack) -> dict[str, Tensor]:
    """Stable 1-based naming used by checkpoints, deltas, and aggregation."""
    params: dict[str, Tensor] = {}
    params["embed"] = stack.embed.table
    for i, unit in enumerate(stack.units, start=1):
        for key, t in unit.backbone.params().items():
            params[f"backbone.{i}.{key}"] = t
        params[f"layer.{i}.adapter.down"] = unit.adapter.down
        params[f"layer.{i}.adapter.up"] = unit.adapter.up
        params[f"layer.{i}.head.W"] = unit.head.W
        params[f"layer.{i}.head.b"] = unit.head.b
    params["final_head.W"] = stack.final_head.W
    params["final_head.b"] = stack.final_head.b
    return params


def backbone_fingerprint(stack: ModelStack) -> str:
    """SHA-256 over all permanently frozen tensors (embedding and backbones)."""
    digest = hashlib.sha256()
    for name, t in named_parameters(stack).items():
        if name == "embed" or name.startswith("backbone."):
            digest.update(name.encode())
            digest.update(t.data.tobytes())
    return digest.hexdigest()


TRAINABLE_SCHEMES = ("window", "all_adapters", "final_only")


def mark_trainable(stack: ModelStack, window: tuple[int, int] | None = None,
                   scheme: str = "window") -> dict[str, Tensor]:
    """Set requires_grad flags for one training stage; returns the trainable map.

    Every scheme trains the final head.  "window" adds the adapters and local
    heads of layers lo..hi, "all_adapters" every adapter, "final_only" nothing.
    """
    if scheme not in TRAINABLE_SCHEMES:
        raise ValueError(f"unknown trainable scheme {scheme!r}")
    prefixes: tuple[str, ...] = ()
    if scheme == "window":
        if window is None:
            raise ValueError("window scheme needs a (lo, hi) window")
        lo, hi = window
        if not 1 <= lo <= hi <= stack.L:
            raise ValueError(f"window {window} out of range 1..{stack.L}")
        prefixes = tuple(f"layer.{i}." for i in range(lo, hi + 1))
    elif scheme == "all_adapters":
        prefixes = tuple(f"layer.{i}.adapter." for i in range(1, stack.L + 1))
    trainable: dict[str, Tensor] = {}
    for name, t in named_parameters(stack).items():
        t.requires_grad = name.startswith(("final_head.", *prefixes))
        t.grad = None
        if t.requires_grad:
            trainable[name] = t
    return trainable
