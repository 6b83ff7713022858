"""Golden metrics streams: every run mode on tiny configs, against committed records.

One case per run mode, backbone kind and partition, plus one case where a
CKA threshold lets FOAT pick the start layer.  The integer fields of each
record must match exactly; losses and accuracy within GOLDEN_RTOL relative,
so the check does not tie the streams to one BLAS build.

A change that means to move these numbers regenerates the file and says
which fields moved and by how much:

    PYTHONPATH=src python3 tests/test_golden_streams.py
"""
import json
import math
from pathlib import Path

import pytest

from fedchain.config import parse_config
from fedchain.federation import RUN_MODES, run

GOLDEN = Path(__file__).resolve().parent / "golden_streams.json"
GOLDEN_RTOL = 1e-9
EXACT = ("round", "window", "clients", "comm_bytes", "peak_mem_bytes")
CLOSE = ("train_loss", "eval_accuracy")


def _raw(kind: str, partition: str) -> dict:
    return {
        "model": {"L": 4, "u": 8, "v": 2, "kind": kind, "seed": 5},
        "data": {"kind": "cluster-tokens", "M": 80, "seq_len": 6, "vocab": 13,
                 "eval_fraction": 0.25},
        "federation": {"N": 3, "rounds": 3, "partition": partition, "alpha": 0.5,
                       "sample_count": 2, "Q": 2},
        "chain": {"lambda": 0.2, "L_start": 1, "lr": 0.1, "local_steps": 2, "batch": 8},
    }


def _cases() -> dict[str, tuple[dict, str]]:
    cases = {}
    for mode in RUN_MODES:
        for kind in ("mlp", "attn-lite"):
            for partition in ("iid", "dirichlet"):
                cases[f"{mode}-{kind}-{partition}"] = (_raw(kind, partition), mode)
    foat = _raw("mlp", "iid")
    del foat["chain"]["L_start"]
    foat["chain"]["T"] = 0.991  # scores 0.9916, 0.9905, ...: FOAT picks layer 2
    cases["chainfed-mlp-iid-T"] = (foat, "chainfed")
    return cases


CASES = _cases()


def _stream(name: str) -> list[dict]:
    raw, mode = CASES[name]
    return [r.as_dict() for r in run(parse_config(raw), mode=mode).records]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def test_threshold_case_starts_above_layer_one():
    golden = json.loads(GOLDEN.read_text())["chainfed-mlp-iid-T"]
    assert golden[0]["window"][0] > 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_matches_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = _stream(name)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert sorted(g) == sorted(w)
        for key in EXACT:
            assert g[key] == w[key], (name, g["round"], key)
        for key in CLOSE:
            assert math.isclose(g[key], w[key], rel_tol=GOLDEN_RTOL, abs_tol=0.0), \
                (name, g["round"], key, g[key], w[key])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _stream(name) for name in sorted(CASES)}, indent=1) + "\n")
