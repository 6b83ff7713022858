"""Layer-activation similarity profiling and start-layer selection.

Each layer's output is compared against the embedded input with linear-kernel
CKA, computed once on a single mini-batch.  Aggregated profiles pick the first
layer whose similarity falls below a threshold; adapter training starts there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import (
    ModelStack,
    adapter_param_count,
    apply_layers,
    gather_rows,
    layer_param_count,
    walk_input,
)
from .tensor import Tensor, no_grad

HSIC_FLOOR = 1e-15


class DegenerateSimilarity(ValueError):
    """CKA undefined: an activation matrix has (near-)zero self-HSIC."""


def _activation_matrix(z) -> np.ndarray:
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"activation matrix must be 2D [samples, features], got {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError(f"need at least 2 samples, got {arr.shape[0]}")
    return arr


def hsic_linear(zi, zj) -> float:
    """Biased empirical linear-kernel HSIC: tr(K H L H) / (n-1)^2.

    Evaluated as ||centered(zi)^T centered(zj)||_F^2 / (n-1)^2, which is the
    same quantity without materializing n x n Gram matrices.
    """
    zi, zj = _activation_matrix(zi), _activation_matrix(zj)
    n = zi.shape[0]
    if zj.shape[0] != n:
        raise ValueError(f"row counts differ: {n} vs {zj.shape[0]}")
    return _hsic_centered(zi - zi.mean(axis=0), zj - zj.mean(axis=0))


def _hsic_centered(ci: np.ndarray, cj: np.ndarray) -> float:
    """hsic_linear on arguments already centered and checked."""
    cross = ci.T @ cj
    return float((cross * cross).sum()) / (ci.shape[0] - 1) ** 2


def _centered(z) -> tuple[np.ndarray, float]:
    """z validated and centered, with its self-HSIC."""
    c = _activation_matrix(z)
    c = c - c.mean(axis=0)
    # c.T @ c on one buffer runs as syrk, which is not bitwise hsic_linear's gemm
    return c, _hsic_centered(c, c.copy())


def _cka_centered(ci: np.ndarray, self_i: float, cj: np.ndarray, self_j: float) -> float:
    """cka on two _centered results."""
    if cj.shape[0] != ci.shape[0]:
        raise ValueError(f"row counts differ: {ci.shape[0]} vs {cj.shape[0]}")
    if self_i <= HSIC_FLOOR or self_j <= HSIC_FLOOR:
        which = "first" if self_i <= HSIC_FLOOR else "second"
        raise DegenerateSimilarity(f"{which} argument has near-zero self-HSIC; CKA undefined")
    return float(_hsic_centered(ci, cj) / np.sqrt(self_i * self_j))


def cka(zi, zj) -> float:
    """CKA(zi, zj) = HSIC(zi, zj) / sqrt(HSIC(zi, zi) HSIC(zj, zj)).

    Each argument is validated and centered once; the three HSICs are
    bitwise those of hsic_linear.
    """
    return _cka_centered(*_centered(zi), *_centered(zj))


@dataclass
class CKAProfile:
    """Per-layer similarity scores (index 0 is layer 1) with a sample weight."""

    scores: list[float]
    sample_weight: int

    def __post_init__(self):
        if self.sample_weight <= 0:
            raise ValueError("sample_weight must be positive")
        for i, s in enumerate(self.scores, start=1):
            if not -1e-9 <= s <= 1.0 + 1e-9:
                raise ValueError(f"layer {i} score {s} outside [0, 1]")


def partition_layers(stack: ModelStack, n_rows: int, mem_budget: float) -> list[list[int]]:
    """Maximal contiguous blocks whose resident cost fits mem_budget.

    Block cost = carried hidden state (input and output rows at width u, f64)
    plus each layer's backbone and adapter params (f64).  Every layer has one
    shape, so the blocks are equal runs of the most layers that fit.
    """
    dims = stack.dims
    carry = 2 * n_rows * dims.u * 8
    cost = 8 * (layer_param_count(dims) + adapter_param_count(dims))
    if not carry + cost <= mem_budget:  # int-float comparisons are exact; nan fits nothing
        raise ValueError(f"mem_budget {mem_budget} below single-layer floor {carry + cost} at layer 1")
    fits = stack.L if mem_budget == math.inf else (Fraction(mem_budget) - carry) // cost
    k = min(stack.L, int(fits))
    return [list(range(lo, min(lo + k, stack.L + 1))) for lo in range(1, stack.L + 1, k)]


def _flat_rows(h: Tensor) -> np.ndarray:
    b, t, u = h.shape
    return h.data.reshape(b * t, u)


def profile_layers(stack: ModelStack, batch, mem_budget: float | None = None,
                   blocks: list[list[int]] | None = None) -> CKAProfile:
    """One-time inference profile of CKA(layer output, embedded input).

    The memory budget splits the layers into blocks (partition_layers, which
    raises below the one-layer floor), or `blocks` gives them.  Only a
    layer's hidden state carries to the next, so the walk runs layer by layer
    whatever the partition, and the profile is independent of it.  The walk
    takes each distinct token id once where it can (model.walk_input); the
    partition and the CKA rows are those of the whole batch.
    """
    if blocks is not None and [i for blk in blocks for i in blk] != list(range(1, stack.L + 1)):
        raise ValueError(f"blocks {blocks} do not cover layers 1..{stack.L} in order")
    return profile_batches(stack, [batch], [None if blocks is not None else mem_budget])[0]


def _walk(stack: ModelStack, ids):
    """The embedded ids, then each layer's output in turn."""
    h = stack.embed(ids)
    yield h
    for i in range(1, stack.L + 1):
        h = apply_layers(stack, h, i, i)
        yield h


def profile_batches(stack: ModelStack, batches, budgets) -> list[CKAProfile]:
    """profile_layers of each batch under its budget (None: no budget).

    Every budget is checked before any layer runs.  Where walk_input takes
    distinct ids, the batches, which share seq_len, share one walk of their
    union that keeps each layer's [k, 1, u] output: a row of a walk of k >= 2
    rows is bitwise that row of any other, so each profile is bitwise that of
    its own walk.  A stack that mixes tokens walks each batch itself.  The
    batches are centred and scored one at a time.
    """
    for batch, budget in zip(batches, budgets, strict=True):
        if budget is not None:
            partition_layers(stack, np.size(batch), budget)
    with no_grad():
        ids, slot = walk_input(stack, np.concatenate(batches))
        shared = None if slot is None else list(_walk(stack, ids))
        profiles = []
        for batch in batches:
            walk = _walk(stack, batch) if shared is None else iter(shared)
            z0 = _centered(_flat_rows(gather_rows(next(walk), slot, batch)))
            scores = [_cka_centered(*_centered(_flat_rows(gather_rows(h, slot, batch))), *z0)
                      for h in walk]
            profiles.append(CKAProfile(scores=scores, sample_weight=z0[0].shape[0]))
    return profiles


def aggregate_profiles(profiles: list[CKAProfile]) -> CKAProfile:
    """Sample-weighted mean of per-client profiles."""
    if not profiles:
        raise ValueError("no profiles to aggregate")
    L = len(profiles[0].scores)
    for p in profiles:
        if len(p.scores) != L:
            raise ValueError(f"profile lengths differ: {len(p.scores)} vs {L}")
    total = sum(p.sample_weight for p in profiles)
    scores = [
        sum(p.scores[i] * p.sample_weight for p in profiles) / total
        for i in range(L)
    ]
    return CKAProfile(scores=scores, sample_weight=total)


def select_start_layer(profile: CKAProfile, threshold: float) -> int:
    """First layer whose aggregated score falls strictly below the threshold.

    Falls back to the last layer when no score is below (maximal freezing).
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    for i, s in enumerate(profile.scores, start=1):
        if s < threshold:
            return i
    return len(profile.scores)
