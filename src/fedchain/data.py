"""Datasets: synthetic task generators, JSONL loading, deterministic splits.

Datasets are integer token id rows padded with 0 (1 is the unknown id).
Labels are round-robin balanced for the synthetic generator.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

PAD_ID = 0
UNK_ID = 1
SYNTH_KINDS = ("cluster-tokens",)  # what `synth_dataset` generates
DATA_SOURCES = ("synthetic", "file")  # what `load_dataset_from_config` reads from


class DataFormatError(ValueError):
    """Malformed dataset or vocab file; message cites the offending line."""


@dataclass
class Dataset:
    x: np.ndarray  # int64 [M, seq_len] token ids
    y: np.ndarray  # int64 [M]
    C: int
    vocab: int

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError(f"{len(self.x)} rows vs {len(self.y)} labels")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def seq_len(self) -> int:
        return self.x.shape[1]


def synth_dataset(kind: str, M: int, C: int, seq_len: int, seed, *,
                  vocab: int = 50, signal: float = 0.35) -> Dataset:
    """A learnable synthetic task with round-robin balanced labels; DataConfig uses these defaults."""
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if C < 2:
        raise ValueError(f"need at least 2 classes, got {C}")
    if M < C:
        raise ValueError(f"need at least one sample per class, got M={M}, C={C}")
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    if not 0.0 < signal <= 1.0:
        raise ValueError(f"signal must lie in (0, 1], got {signal}")
    per_class = max(1, (vocab - 2) // (2 * C))
    if vocab < 2 + C * per_class + 1:
        raise ValueError(f"vocab {vocab} too small for {C} classes")
    rng = np.random.default_rng(seed)
    y = np.arange(M, dtype=np.int64) % C
    signal_ids = [np.arange(2 + c * per_class, 2 + (c + 1) * per_class) for c in range(C)]
    noise_ids = np.arange(2 + C * per_class, vocab)
    x = np.empty((M, seq_len), dtype=np.int64)
    for i in range(M):
        is_signal = rng.random(seq_len) < signal
        x[i] = np.where(is_signal,
                        rng.choice(signal_ids[y[i]], size=seq_len),
                        rng.choice(noise_ids, size=seq_len))
    return Dataset(x=x, y=y, C=C, vocab=vocab)


def load_jsonl_dataset(path, vocab_path, seq_len: int, n_classes: int | None = None) -> Dataset:
    """Whitespace-tokenized {"text", "label"} UTF-8 lines; OOV maps to the unknown id."""
    with open(vocab_path, encoding="utf-8") as fh:
        try:
            vocab_map = json.load(fh)
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{vocab_path}: not UTF-8 ({e})") from e
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{vocab_path}: not valid JSON ({e})") from e
    if not isinstance(vocab_map, dict) or not vocab_map:
        raise DataFormatError(f"{vocab_path}: expected a non-empty token-to-id object")
    for token, idx in vocab_map.items():
        if not isinstance(idx, int) or idx < 2:
            raise DataFormatError(f"{vocab_path}: id for {token!r} must be an int >= 2 "
                                  f"(0 and 1 are reserved), got {idx!r}")
    vocab_size = max(vocab_map.values()) + 1

    rows, labels = [], []
    with open(path, "rb") as fh:
        # split at \n, \r\n or \r, as text mode does, and decode each line on its own
        lines = (line for chunk in fh for line in chunk.splitlines())
        for lineno, line in enumerate(lines, start=1):
            try:
                line = line.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DataFormatError(f"{path}:{lineno}: not UTF-8 ({e})") from e
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataFormatError(f"{path}:{lineno}: not valid JSON ({e})") from e
            if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
                raise DataFormatError(f"{path}:{lineno}: expected an object with 'text' and 'label'")
            text, label = obj["text"], obj["label"]
            if not isinstance(text, str):
                raise DataFormatError(f"{path}:{lineno}: 'text' must be a string")
            if not isinstance(label, int) or isinstance(label, bool) or label < 0:
                raise DataFormatError(f"{path}:{lineno}: 'label' must be a non-negative int")
            if n_classes is not None and label >= n_classes:
                raise DataFormatError(f"{path}:{lineno}: label {label} out of range for {n_classes} classes")
            ids = [vocab_map.get(tok, UNK_ID) for tok in text.split()][:seq_len]
            ids += [PAD_ID] * (seq_len - len(ids))
            rows.append(ids)
            labels.append(label)
    if not rows:
        raise DataFormatError(f"{path}: no samples")
    y = np.asarray(labels, dtype=np.int64)
    C = n_classes if n_classes is not None else int(y.max()) + 1
    if C < 2:
        raise DataFormatError(f"{path}: need at least 2 classes, found {C}")
    return Dataset(x=np.asarray(rows, dtype=np.int64), y=y, C=C, vocab=vocab_size)


def train_eval_split(n: int, eval_fraction: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled split into (train indices, eval indices)."""
    if not 0.0 < eval_fraction < 1.0:
        raise ValueError(f"eval_fraction must lie in (0, 1), got {eval_fraction}")
    order = np.random.default_rng(seed).permutation(n)
    n_eval = max(1, round(n * eval_fraction))
    if n_eval >= n:
        raise ValueError(f"eval split leaves no training data (n={n})")
    return np.sort(order[n_eval:]), np.sort(order[:n_eval])


def load_dataset_from_config(data_cfg, model_cfg, seed) -> Dataset:
    _, file = DATA_SOURCES
    if data_cfg.source == file:
        return load_jsonl_dataset(data_cfg.path, data_cfg.vocab_path,
                                  data_cfg.seq_len, model_cfg.classes)
    return synth_dataset(data_cfg.kind, data_cfg.M, model_cfg.classes or 2,
                         data_cfg.seq_len, seed, vocab=data_cfg.vocab, signal=data_cfg.signal)


def deep_readout_dataset(stack, M: int, seq_len: int, seed) -> Dataset:
    """Labels depend only on the top-layer features of the given stack.

    Uniform random token rows are labeled by a frozen random two-layer readout
    (16 hidden units) of the last layer's mean-pooled activations; redraws the
    readout, up to 50 times, until both classes are reasonably represented.
    """
    from .model import forward_through
    from .tensor import no_grad

    dims = stack.dims
    rng = np.random.default_rng(seed)
    x = rng.integers(2, dims.vocab, size=(M, seq_len), dtype=np.int64)
    with no_grad():
        feats, _ = forward_through(stack, x)
    pooled = feats.data.mean(axis=1)
    pooled = (pooled - pooled.mean(axis=0)) / (pooled.std(axis=0) + 1e-8)
    for _ in range(50):
        w1 = rng.standard_normal((dims.u, 16)) / math.sqrt(dims.u)
        w2 = rng.standard_normal((16, 2))
        y = np.argmax(np.tanh(pooled @ w1 * 4.0) @ w2, axis=1).astype(np.int64)
        smaller = min(np.bincount(y, minlength=2))
        if smaller >= M // 4:
            return Dataset(x=x, y=y, C=2, vocab=dims.vocab)
    raise RuntimeError("could not draw a balanced deep readout")
