"""Sliding-window chain training: schedule, dual-objective stage loss, local SGD.

A window of Q consecutive adapters is trainable per round; the window slides
one layer per round (overlap Q-1) from the start layer to the top and then the
cycle restarts.  Non-final stages optimize local loss + lambda * global loss,
where the global term runs through a lightweight branch of the subsequent
(frozen) adapters and the final head.  The final stage uses only the
end-to-end loss.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    FrozenWalk,
    ModelStack,
    aux_branch_forward,
    end_to_end_loss,
    forward_through,
    local_loss,
    mark_trainable,
)
from .tensor import Tape, Tensor, add, mul

ParamDelta = dict[str, np.ndarray]


@dataclass(frozen=True)
class WindowSchedule:
    """Cyclic window positions [lo, lo+Q-1] for lo in [L_start .. L-Q+1]."""

    L_start: int
    L: int
    Q: int
    positions: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        if not 1 <= self.L_start <= self.L:
            raise ValueError(f"L_start must lie in [1, {self.L}], got {self.L_start}")
        if self.Q < 1:
            raise ValueError(f"Q must be >= 1, got {self.Q}")
        last_lo = max(self.L_start, self.L - self.Q + 1)
        positions = tuple(
            (lo, min(lo + self.Q - 1, self.L)) for lo in range(self.L_start, last_lo + 1)
        )
        object.__setattr__(self, "positions", positions)

    @property
    def cycle_len(self) -> int:
        return len(self.positions)

    def window_at_round(self, r: int) -> tuple[int, int]:
        if r < 1:
            raise ValueError(f"rounds are 1-based, got {r}")
        return self.positions[(r - 1) % self.cycle_len]


@dataclass
class StageLossConfig:
    lam: float = 0.2

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")


def stage_loss(stack: ModelStack, x, labels, window: tuple[int, int],
               cfg: StageLossConfig, walk: FrozenWalk | None = None) -> tuple[Tensor, dict]:
    """Loss for one window stage; the final window position forces end_to_end."""
    lo, hi = window
    if not 1 <= lo <= hi <= stack.L:
        raise ValueError(f"window {window} out of range 1..{stack.L}")
    hidden, _ = forward_through(stack, x, upto=hi, walk=walk)
    if hi == stack.L:
        loss = end_to_end_loss(stack, hidden, labels)
        return loss, {"mode": "end_to_end", "total": loss.item(),
                      "local": None, "global": None}
    local = local_loss(stack, hidden, hi, labels)
    if cfg.lam == 0.0:
        return local, {"mode": "dual", "total": local.item(),
                       "local": local.item(), "global": None}
    glob = aux_branch_forward(stack, hidden, hi, labels)
    loss = add(local, mul(glob, cfg.lam))
    return loss, {"mode": "dual", "total": loss.item(),
                  "local": local.item(), "global": glob.item()}


# A baseline steps through stage_loss at window (1, L) too; the name stays bound
# only because the benchmark harness under perfbench/ patches it.
_baseline_stage_loss = stage_loss


def minibatch_order(n: int, batch_size: int, steps: int, seed) -> list[np.ndarray]:
    """Deterministic minibatch index plan; reshuffles at each epoch boundary."""
    rng = np.random.default_rng(seed)
    batches: list[np.ndarray] = []
    order = rng.permutation(n)
    cursor = 0
    for _ in range(steps):
        if cursor + batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        batches.append(order[cursor:cursor + batch_size])
        cursor += batch_size
    return batches


def local_update(stack: ModelStack, x, labels, window: tuple[int, int],
                 cfg: StageLossConfig, steps: int, lr: float, batch_size: int,
                 seed, scheme: str = "window",
                 walk: FrozenWalk | None = None) -> tuple[ParamDelta, dict]:
    """Plain-SGD minibatch steps on the stage's trainable set.

    Every scheme steps on `stage_loss` at `window`; a baseline scheme
    ("all_adapters", "final_only") trains past any window, so it takes the
    one window (1, L) over the whole stack.  `walk` is a model.shared_walk
    over ids including x's, taken after this stage's mark_trainable; None
    walks each step's own batch.  Returns (post - pre) for every
    trainable tensor, keyed by parameter name, plus per-step loss info.  The
    caller owns snapshot/restore of globals.
    """
    x = np.asarray(x)
    labels = np.asarray(labels)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty shard")
    if steps < 1 or lr < 0 or batch_size < 1:
        raise ValueError(f"bad update settings steps={steps}, lr={lr}, batch={batch_size}")
    if scheme != "window" and tuple(window) != (1, stack.L):
        raise ValueError(f"scheme {scheme!r} trains window (1, {stack.L}), got {window}")
    batch_size = min(batch_size, n)
    trainable = mark_trainable(stack, window, scheme)
    pre = {name: t.data for name, t in trainable.items()}  # each step rebinds .data
    losses = []
    for idx in minibatch_order(n, batch_size, steps, seed):
        with Tape() as tape:
            loss, _ = stage_loss(stack, x[idx], labels[idx], window, cfg, walk)
            tape.backward(loss)
        losses.append(loss.item())
        for t in trainable.values():
            if t.grad is not None:
                t.data = t.data - lr * t.grad
            t.grad = None
    delta = {name: t.data - pre[name] for name, t in trainable.items()}
    return delta, {"losses": losses, "mean_loss": float(np.mean(losses))}
