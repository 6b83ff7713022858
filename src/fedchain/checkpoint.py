"""Checkpoint format: a text manifest plus one raw little-endian f32 blob.

``save_checkpoint(stack, base)`` writes ``base.manifest`` and ``base.blob``.
The manifest header carries the stack geometry so a checkpoint is
self-contained; each following line lists tensor name, shape, dtype, and
byte offset into the blob.  A value that is not finite in f32 raises
NumericError before any file is written.  Each file is written under a
temporary name and renamed into place, the blob before the manifest, so a
save that fails part way leaves the previous checkpoint loadable.
"""
from __future__ import annotations

import os

import numpy as np

from .model import (
    ModelStack,
    StackDims,
    adapter_param_count,
    build_stack,
    embed_param_count,
    head_param_count,
    layer_param_count,
    named_parameters,
)
from .tensor import ADAPTER_ACT, LN_EPS, NumericError

MAGIC = "# fedchain-checkpoint v1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(stack: ModelStack, base) -> None:
    dims = stack.dims
    header = (
        f"{MAGIC} kind={dims.kind} L={dims.L} u={dims.u} v={dims.v} C={dims.C}"
        f" ffn={dims.ffn_dim} vocab={dims.vocab} adapter_act={ADAPTER_ACT} eps={LN_EPS!r}"
    )
    lines = [header]
    chunks = []
    offset = 0
    for name, t in named_parameters(stack).items():
        with np.errstate(over="ignore"):
            f32 = np.ascontiguousarray(t.data, dtype="<f4")
        if not np.isfinite(f32).all():  # checked before any file is written
            raise NumericError(f"{name}: a value is not finite in f32 and cannot be saved")
        raw = f32.tobytes()
        shape = "x".join(str(d) for d in t.shape)
        lines.append(f"{name}\t{shape}\tf32\t{offset}")
        chunks.append(raw)
        offset += len(raw)
    _replace(f"{base}.blob", b"".join(chunks))
    _replace(f"{base}.manifest", ("\n".join(lines) + "\n").encode())


def _replace(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed part way
            os.remove(tmp)


def _parse_header(line: str) -> StackDims:
    """The stack geometry a manifest header names."""
    if not line.startswith(MAGIC):
        raise CheckpointError(f"bad manifest header: {line[:60]!r}")
    meta = dict(part.partition("=")[::2] for part in line[len(MAGIC):].split())  # key=value
    required = {"kind", "L", "u", "v", "C", "ffn", "vocab", "adapter_act", "eps"}
    missing = required - meta.keys()
    if missing:
        raise CheckpointError(f"manifest header missing {sorted(missing)}")
    dims = StackDims(
        L=int(meta["L"]), u=int(meta["u"]), v=int(meta["v"]), C=int(meta["C"]),
        kind=meta["kind"], ffn=int(meta["ffn"]), vocab=int(meta["vocab"]),
    )
    if float(meta["eps"]) != LN_EPS:
        raise CheckpointError(f"bad manifest header: layer-norm eps {meta['eps']} is not {LN_EPS!r}")
    if meta["adapter_act"] != ADAPTER_ACT:
        raise CheckpointError(f"bad manifest header: adapter activation {meta['adapter_act']!r}"
                              f" is not {ADAPTER_ACT!r}")
    return dims


def load_checkpoint(base) -> ModelStack:
    """Rebuild a stack and restore every tensor bitwise (at f32 precision).

    Only what `save_checkpoint` writes loads: a UTF-8 manifest, a blob the
    size of the header's model (checked before any stack is built), each
    tensor starting where the one before it ends, and finite values.
    Anything else raises CheckpointError.
    """
    with open(f"{base}.manifest", "rb") as fh:
        manifest = fh.read()
    with open(f"{base}.blob", "rb") as fh:
        blob = fh.read()
    try:
        return _restore(manifest.decode("utf-8"), blob)
    except CheckpointError:
        raise
    except ValueError as e:  # not UTF-8, a non-integer field, or dims no stack has
        raise CheckpointError(f"malformed manifest: {e}") from e


def _restore(manifest: str, blob: bytes) -> ModelStack:
    lines = [ln for ln in manifest.split("\n") if ln.strip()]
    if not lines:
        raise CheckpointError("empty manifest")
    dims = _parse_header(lines[0])
    head = head_param_count(dims)
    size = 4 * (embed_param_count(dims) + head
                + dims.L * (layer_param_count(dims) + adapter_param_count(dims) + head))
    if len(blob) != size:
        raise CheckpointError(f"blob length {len(blob)} does not match the header's model ({size} bytes)")
    stack = build_stack(dims, seed=0)
    params = named_parameters(stack)
    offset = 0  # where the next tensor starts
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != 4:
            raise CheckpointError(f"malformed manifest line: {line!r}")
        name, shape_s, dtype, at = fields
        if name not in params:
            raise CheckpointError(f"unknown tensor name {name!r}, or a repeat")
        if dtype != "f32":
            raise CheckpointError(f"{name}: unsupported dtype {dtype!r}")
        t = params.pop(name)
        shape = tuple(int(d) for d in shape_s.split("x"))
        if shape != t.shape:
            raise CheckpointError(f"{name}: shape {shape} does not match model {t.shape}")
        if int(at) != offset:
            raise CheckpointError(f"{name}: offset {at} is not {offset}, where the tensor before it ends")
        values = np.frombuffer(blob, dtype="<f4", count=t.size, offset=offset).astype(np.float64)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{name}: non-finite values in the blob")
        t.data = values.reshape(shape)
        offset += 4 * t.size
    if params:
        raise CheckpointError(f"manifest missing tensors: {sorted(params)[:5]}")
    return stack
