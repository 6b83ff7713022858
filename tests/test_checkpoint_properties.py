"""Property: whatever bytes a checkpoint's files hold, loading either fails cleanly or is sound.

A saved checkpoint's manifest and blob are edited (byte flips, truncations,
one-digit changes to a number in the manifest).  `load_checkpoint` may raise
only CheckpointError or OSError.  A stack it returns holds only finite
values, and the saved ones wherever the blob is intact.
"""
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedchain.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from fedchain.model import StackDims, build_stack, named_parameters

FILES = ("manifest", "blob")
EDITS = st.one_of(
    st.tuples(st.just("flip"), st.sampled_from(FILES), st.integers(0, 1 << 20), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.sampled_from(FILES), st.integers(0, 1 << 20), st.just(0)),
    st.tuples(st.just("digit"), st.just("manifest"), st.integers(0, 1 << 20), st.integers(1, 9)),
)


def _saved():
    stack = build_stack(StackDims(L=2, u=8, v=2, C=2, kind="attn-lite", vocab=7), seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(stack, Path(tmp) / "ckpt")
        files = {f: (Path(tmp) / f"ckpt.{f}").read_bytes() for f in FILES}
    return files, {name: t.data.astype("<f4").astype(np.float64)
                   for name, t in named_parameters(stack).items()}


SAVED, SAVED_VALUES = _saved()


def _edited(edits) -> dict[str, bytearray]:
    files = {f: bytearray(data) for f, data in SAVED.items()}
    for op, name, pos, value in edits:
        data = files[name]
        if op == "truncate":
            del data[pos % (len(data) + 1):]
        elif op == "flip" and data:
            data[pos % len(data)] ^= value
        elif op == "digit":
            digits = [m.start() for m in re.finditer(rb"[0-9]", bytes(data))]
            if digits:
                at = digits[pos % len(digits)]
                data[at] = ord("0") + (data[at] - ord("0") + value) % 10
    return files


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(EDITS, min_size=1, max_size=3))
def test_edited_checkpoint_loads_soundly_or_raises_checkpoint_error(edits):
    files = _edited(edits)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "ckpt"
        for name, data in files.items():
            Path(f"{base}.{name}").write_bytes(bytes(data))
        try:
            stack = load_checkpoint(base)
        except (CheckpointError, OSError):
            return
    params = named_parameters(stack)
    for name, t in params.items():
        assert np.isfinite(t.data).all(), name
    if files["blob"] == SAVED["blob"]:  # a manifest edit that loads must not move any value
        assert set(params) == set(SAVED_VALUES)
        for name, want in SAVED_VALUES.items():
            assert np.array_equal(params[name].data, want), name
