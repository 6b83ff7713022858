"""Checkpoint format: a text manifest plus one raw little-endian f32 blob.

``save_checkpoint(stack, base)`` writes ``base.manifest`` and ``base.blob``.
The manifest header carries the stack geometry so a checkpoint is
self-contained; each following line lists tensor name, shape, dtype, and
byte offset into the blob.  Each file is written under a temporary name and
renamed into place, the blob before the manifest, so a save that fails part
way leaves the previous checkpoint loadable.
"""
from __future__ import annotations

import os

import numpy as np

from .model import ModelStack, StackDims, build_stack, named_parameters
from .tensor import LN_EPS

MAGIC = "# fedchain-checkpoint v1"


class CheckpointError(ValueError):
    pass


def _manifest_path(base) -> str:
    return f"{base}.manifest"


def _blob_path(base) -> str:
    return f"{base}.blob"


def save_checkpoint(stack: ModelStack, base) -> None:
    dims = stack.dims
    header = (
        f"{MAGIC} kind={dims.kind} L={dims.L} u={dims.u} v={dims.v} C={dims.C}"
        f" ffn={dims.ffn_dim}"
        f" vocab={dims.vocab if dims.vocab is not None else '-'}"
        f" feature_dim={dims.feature_dim if dims.feature_dim is not None else '-'}"
        f" adapter_act={stack.adapter_activation} eps={LN_EPS!r}"
    )
    lines = [header]
    chunks = []
    offset = 0
    for name, t in named_parameters(stack).items():
        raw = np.ascontiguousarray(t.data, dtype="<f4").tobytes()
        shape = "x".join(str(d) for d in t.shape)
        lines.append(f"{name}\t{shape}\tf32\t{offset}")
        chunks.append(raw)
        offset += len(raw)
    _replace(_blob_path(base), b"".join(chunks))
    _replace(_manifest_path(base), ("\n".join(lines) + "\n").encode())


def _replace(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed part way
            os.remove(tmp)


def _parse_header(line: str) -> dict:
    if not line.startswith(MAGIC):
        raise CheckpointError(f"bad manifest header: {line[:60]!r}")
    meta: dict[str, str] = {}
    for part in line[len(MAGIC):].split():
        key, _, value = part.partition("=")
        meta[key] = value
    required = {"kind", "L", "u", "v", "C", "ffn", "vocab", "feature_dim", "adapter_act", "eps"}
    missing = required - meta.keys()
    if missing:
        raise CheckpointError(f"manifest header missing {sorted(missing)}")
    return meta


def load_checkpoint(base) -> ModelStack:
    """Rebuild a stack and restore every tensor bitwise (at f32 precision)."""
    with open(_manifest_path(base)) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise CheckpointError(f"{_manifest_path(base)}: empty manifest")
    meta = _parse_header(lines[0])
    try:
        dims = StackDims(
            L=int(meta["L"]), u=int(meta["u"]), v=int(meta["v"]), C=int(meta["C"]),
            kind=meta["kind"], ffn=int(meta["ffn"]),
            vocab=None if meta["vocab"] == "-" else int(meta["vocab"]),
            feature_dim=None if meta["feature_dim"] == "-" else int(meta["feature_dim"]),
        )
        if float(meta["eps"]) != LN_EPS:
            raise ValueError(f"layer-norm eps {meta['eps']} is not {LN_EPS!r}")
        stack = build_stack(dims, seed=0, adapter_activation=meta["adapter_act"])
    except ValueError as e:
        raise CheckpointError(f"bad manifest header: {e}") from e
    params = named_parameters(stack)

    with open(_blob_path(base), "rb") as fh:
        blob = fh.read()

    seen = set()
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != 4:
            raise CheckpointError(f"malformed manifest line: {line!r}")
        name, shape_s, dtype, offset_s = fields
        if name not in params:
            raise CheckpointError(f"unknown tensor name {name!r}")
        if dtype != "f32":
            raise CheckpointError(f"{name}: unsupported dtype {dtype!r}")
        try:
            shape = tuple(int(d) for d in shape_s.split("x"))
            offset = int(offset_s)
        except ValueError as e:
            raise CheckpointError(f"malformed manifest line: {line!r}") from e
        if shape != params[name].shape:
            raise CheckpointError(f"{name}: shape {shape} does not match model {params[name].shape}")
        nbytes = 4 * int(np.prod(shape))
        if offset < 0 or offset + nbytes > len(blob):
            raise CheckpointError(
                f"{name}: blob too short ({len(blob)} bytes, need {offset + nbytes})"
            )
        values = np.frombuffer(blob, dtype="<f4", count=nbytes // 4, offset=offset)
        params[name].data = values.astype(np.float64).reshape(shape)
        seen.add(name)
    missing = set(params) - seen
    if missing:
        raise CheckpointError(f"manifest missing tensors: {sorted(missing)[:5]}")
    expected = sum(4 * t.size for t in params.values())
    if len(blob) != expected:
        raise CheckpointError(f"blob length {len(blob)} does not match manifest total {expected}")
    return stack
