"""Properties: whatever a config file holds, `fedchain run` ends with a documented exit code,
and a non-finite number in a float field is a config error.

A tiny valid config is perturbed (fields dropped, set to null, to a wrong
type or to an out-of-range value) and run through the CLI, which must return
0, 2, 3 or 4 and never raise.
"""
import contextlib
import dataclasses
import io
import json
import os
import tempfile
import typing
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedchain.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from fedchain.config import ExperimentConfig

BASE = {
    "model": {"L": 2, "u": 4, "v": 1, "seed": 0},
    "data": {"kind": "cluster-tokens", "M": 24, "seq_len": 3, "vocab": 12},
    "federation": {"N": 2, "rounds": 1, "partition": "iid", "sample_count": 1, "Q": 1},
    "chain": {"L_start": 1, "lr": 0.1, "local_steps": 1, "batch": 4},
}

# every field the schema knows, present in BASE or not; None is the top level
FIELDS = {
    "model": ("L", "u", "v", "kind", "ffn", "classes", "seed", "init_scale"),
    "data": ("source", "kind", "M", "seq_len", "eval_fraction", "vocab", "signal",
             "path", "vocab_path"),
    "federation": ("N", "rounds", "sample_count", "partition", "alpha", "budgets", "Q"),
    "chain": ("lambda", "T", "L_start", "lr", "local_steps", "batch"),
    "out": ("metrics", "checkpoint"),
    None: ("model", "data", "federation", "chain", "mode", "out"),
}
# plus one field no schema knows, and the fields the schema no longer has
PATHS = [(section, key) for section, keys in FIELDS.items() for key in keys] + [
    (None, "extra"), ("model", "vocab"), ("model", "feature_dim"),
    ("model", "adapter_activation"), ("data", "noise"), ("federation", "sample_fraction")]

DROP = object()
VALUES = st.sampled_from([
    DROP, None, True, "x", [], {}, -1, 0, 1, 2, 3, -0.5, 0.5, 1.5, 1e-300, 1e308,
    float("nan"), float("inf"), "mlp", "attn-lite", "two-moons-seq", "file", "dirichlet",
    "relu", "no_gpo", [1e9, 1e9], [1e3, 1e9], [0.5], ["x", "y"],
])


def _perturbed(edits) -> dict:
    raw = json.loads(json.dumps(BASE))
    for (section, key), value in edits:
        target = raw if section is None else raw.get(section)
        if not isinstance(target, dict):
            continue
        if value is DROP:
            target.pop(key, None)
        else:
            target[key] = value
    return raw


def _float_fields():
    """(section, key) of every field the schema types as a float, nullable or not."""
    for section, cls in typing.get_type_hints(ExperimentConfig).items():
        if dataclasses.is_dataclass(cls):
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                if float in (hints[f.name], *typing.get_args(hints[f.name])):
                    yield section, f.metadata.get("json", f.name)


FLOAT_FIELDS = sorted(_float_fields())


def _run_cli(raw) -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a perturbed out.checkpoint or data path stays in here
        try:
            with open("exp.json", "w") as fh:
                json.dump(raw, fh)
            with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
                return main(["run", "--config", "exp.json", "--out", "metrics.jsonl"])
        finally:
            os.chdir(cwd)


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(PATHS), VALUES), min_size=1, max_size=3))
def test_any_config_ends_with_a_documented_exit_code(edits):
    raw = _perturbed(edits)
    code = _run_cli(raw)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO), raw


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PATHS), VALUES), max_size=2),
       st.sampled_from(FLOAT_FIELDS),
       st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_a_non_finite_float_field_exits_2_before_any_data_loads(edits, path, value):
    raw = _perturbed([*edits, (path, value)])
    refuse = AssertionError("data loaded for a config holding a non-finite number")
    with mock.patch("fedchain.data.load_dataset_from_config", side_effect=refuse):
        code = _run_cli(raw)
    assert code == EXIT_CONFIG, raw
