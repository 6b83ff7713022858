"""Property: whatever a config file holds, `fedchain run` ends with a documented exit code.

A tiny valid config is perturbed (fields dropped, set to null, to a wrong
type or to an out-of-range value) and run through the CLI, which must return
0, 2, 3 or 4 and never raise.
"""
import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedchain.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main

BASE = {
    "model": {"L": 2, "u": 4, "v": 1, "seed": 0},
    "data": {"kind": "cluster-tokens", "M": 24, "seq_len": 3, "vocab": 12},
    "federation": {"N": 2, "rounds": 1, "partition": "iid", "sample_count": 1, "Q": 1},
    "chain": {"L_start": 1, "lr": 0.1, "local_steps": 1, "batch": 4},
}

# every field the schema knows, present in BASE or not; None is the top level
FIELDS = {
    "model": ("L", "u", "v", "kind", "ffn", "classes", "seed", "init_scale",
              "adapter_activation"),
    "data": ("source", "kind", "M", "seq_len", "eval_fraction", "vocab", "signal", "noise",
             "path", "vocab_path"),
    "federation": ("N", "rounds", "partition", "alpha", "sample_count", "sample_fraction",
                   "budgets", "Q"),
    "chain": ("lambda", "T", "L_start", "lr", "local_steps", "batch"),
    "out": ("metrics", "checkpoint"),
    None: ("model", "data", "federation", "chain", "mode", "out"),
}
# plus one field no schema knows, and the fields ModelConfig no longer has
PATHS = [(section, key) for section, keys in FIELDS.items() for key in keys] + [
    (None, "extra"), ("model", "vocab"), ("model", "feature_dim")]

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


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(PATHS), VALUES), min_size=1, max_size=3))
def test_any_config_ends_with_a_documented_exit_code(edits):
    raw = _perturbed(edits)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a perturbed out.checkpoint or data path stays in here
        try:
            with open("exp.json", "w") as fh:
                json.dump(raw, fh)
            with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", "--config", "exp.json", "--out", "metrics.jsonl"])
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO), raw
