"""The names the benchmark harness under perfbench/ attaches to keep resolving.

The harness traces a run by replacing functions at the names fedchain's
modules look them up under, and its worker calls a few functions with
fixed keywords.  Renaming any of them should fail here, in seconds, rather
than only in the harness's own smoke check.
"""
import dataclasses
import importlib.util
import inspect
import sys
import typing
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fedchain
from fedchain import (
    ExperimentConfig,
    RunResult,
    StageLossConfig,
    StackDims,
    estimate_peak_memory,
    local_update,
    parse_config,
)
from fedchain.model import AttnLiteLayer, build_stack
from fedchain.tensor import Tensor

from test_cli_properties import FIELDS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve a class's module by name
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)  # restore() empties it
        assert patched
        for module, attr, original in patched:
            assert module.__name__.startswith("fedchain.")
            assert getattr(module, attr) is not original
        names = {(module.__name__, attr) for module, attr, _ in patched}
        for name in ("stage_loss", "_baseline_stage_loss", "forward_through",
                     "aux_branch_forward"):
            assert ("fedchain.chain", name) in names
        assert ("fedchain.federation", "local_update") in names
        # the tracer skips an op neither module binds, so name the ops it still times:
        # layer_norm, gelu, softmax and swap_last2 run inside the fused backbone nodes
        bound = {op for op in tracing.OPS
                 if ("fedchain.model", op) in names or ("fedchain.chain", op) in names}
        assert bound == {"matmul", "bias_add", "mean", "softmax_cross_entropy", "add", "mul"}
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original


def test_worker_calls_keep_their_keywords():
    assert "scheme" in inspect.signature(local_update).parameters
    dims = StackDims(L=3, u=8, v=2, C=2, vocab=13)
    full = estimate_peak_memory(dims, 4, 6, mode="full")
    assert full.peak_bytes == estimate_peak_memory(dims, 4, 6, Q=dims.L).peak_bytes
    assert StageLossConfig(lam=0.3).lam == 0.3
    assert {"L_start", "Q", "stack"} <= {f.name for f in dataclasses.fields(RunResult)}
    assert fedchain.federation.local_update is local_update
    workloads = _load("workloads")
    files = {"path": "data.jsonl", "vocab_path": "vocab.json"}
    for wl in workloads.WORKLOADS.values():
        for tiny in (False, True):
            fed = parse_config(wl.config(files, tiny)).federation
            assert fed.resolved_sample_count() == fed.sample_count


def test_tracer_times_every_op_of_an_attn_lite_layer():
    # attention, then the MLP block, each one fused op the tracer does not list, so no
    # op that fedchain.model looks up is left to time
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    layer = AttnLiteLayer(8, 16, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8)))
    tracer.install()
    try:
        layer.forward(x)
    finally:
        tracer.restore()
    calls = Counter(span[0] for span in tracer.spans)
    assert dict(calls) == {}


@pytest.mark.parametrize("scheme, window, released", [
    ("window", (2, 3), 1), ("all_adapters", (1, 4), 0), ("final_only", (1, 4), 4)])
def test_tracer_counts_the_released_layers_of_a_step(scheme, window, released):
    # model.prefix_layer_rows reads forward_through's released list, one count per row
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    stack = build_stack(StackDims(L=4, u=8, v=2, C=2, vocab=13), seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, 13, size=(6, 4)), rng.integers(0, 2, size=6)
    tracer.install()
    try:
        fedchain.federation.local_update(stack, x, y, window, StageLossConfig(), steps=1,
                                         lr=0.1, batch_size=6, seed=0, scheme=scheme)
    finally:
        tracer.restore()
    assert tracer.counts["model.prefix_layer_rows"] == released * len(x)
    assert tracer.counts["model.window_layer_rows"] == (window[1] - released) * len(x)


@pytest.mark.parametrize("tiny", [False, True])
def test_every_workload_config_parses(tiny):
    # a schema change that drops a field a workload sets would break the benchmark unseen
    workloads = _load("workloads")
    files = {"path": "data.jsonl", "vocab_path": "vocab.json"}
    for wl in workloads.WORKLOADS.values():
        cfg = parse_config(wl.config(files, tiny))
        assert cfg.federation.rounds == wl.rounds_for(tiny)


def test_property_fields_are_the_config_schema():
    def keys(cls):
        return tuple(f.metadata.get("json", f.name) for f in dataclasses.fields(cls))

    sections = typing.get_type_hints(ExperimentConfig)
    schema = {name: keys(cls) for name, cls in sections.items() if dataclasses.is_dataclass(cls)}
    assert FIELDS == {**schema, None: keys(ExperimentConfig)}
