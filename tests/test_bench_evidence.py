"""Every committed BENCH_*.json is perf evidence a program can re-read: pairs of
`perfbench/run.py` result lines, parent and change, on the metrics
BENCHMARK.json declares, under one machine header."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _unique_keys(pairs):
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"repeated key in {keys}"
    return dict(pairs)


def _count_key(node, key):
    if isinstance(node, dict):
        return (key in node) + sum(_count_key(v, key) for v in node.values())
    if isinstance(node, list):
        return sum(_count_key(v, key) for v in node)
    return 0


def test_there_is_bench_evidence():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_a_bench_file_pairs_both_sides_on_declared_metrics_under_one_header(path):
    bench = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
    assert _count_key(bench, "header") == 1
    assert {"nproc", "python", "numpy", "commit"} <= bench["header"].keys()
    assert bench["seeds"] and bench["pair_order"]
    assert bench["workloads"] and bench["workloads"].keys() <= WORKLOADS
    for name, pairs in bench["workloads"].items():
        assert pairs, name
        for pair in pairs:
            assert pair.keys() == {"parent", "change"}, name
            for side, result in pair.items():
                assert result["metrics"] and result["metrics"].keys() <= DECLARED, (name, side)
                assert result["attempted"] > 0 and result["correct"] is True, (name, side)
