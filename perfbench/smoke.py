"""Smoke check of the benchmark harness at tiny size.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it runs the harness untraced and traced at tiny size and
checks that the last line of output is the result object, that it carries
every metric BENCHMARK.json declares, each with its declared unit, and that
no operation failed.  It then adds an injected failing worker run and checks
that the failure is counted in ``attempted``/``failed`` (and so in
``success_ratio``) rather than dropped, and that a directory without
fedchain sources is refused with a non-zero exit and no result.  Exit
status is 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def harness(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    problems: list[str] = []

    for name in WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{name} --trace {trace}"
            proc = harness(root, "--workload", name, "--seed", "1", "--seconds", "1",
                           "--trace", trace, "--tiny")
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res, known = result_of(proc), len(problems)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{label}: {res['failed']} of {res['attempted']} failed\n"
                                f"{proc.stdout}")
            for metric in declared[kind]:
                got = res["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or not isinstance(
                        got["value"], (int, float)):
                    problems.append(f"{label}: {metric['name']} emitted as {got}")
            if len(problems) == known:
                print(f"ok   {label}: {len(res['metrics'])} metrics, "
                      f"{res['attempted']} operations")

    clean = result_of(harness(root, "--workload", "desk-mlp", "--seed", "1", "--seconds", "1",
                              "--tiny"))
    proc = harness(root, "--workload", "desk-mlp", "--seed", "1", "--seconds", "1", "--tiny",
                   "--inject-failure")
    injected = result_of(proc)
    ratio = injected["metrics"].get("success_ratio", {}).get("value")
    if not (injected["failed"] >= 1 and not injected["correct"]
            and injected["attempted"] > clean["attempted"]
            and ratio == 1.0 - injected["failed"] / injected["attempted"]):
        problems.append(f"injected failure not counted: {injected}")
    else:
        print(f"ok   injected failure: {injected['failed']} of {injected['attempted']} failed, "
              f"success_ratio {ratio}")

    empty = root / ".perfbench" / "smoke-empty"
    shutil.rmtree(empty, ignore_errors=True)
    empty.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", empty)
        proc = harness(empty, "--workload", "desk-mlp", "--seed", "1", "--seconds", "1")
    finally:
        shutil.rmtree(empty, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"ok   without sources: exit {proc.returncode}, no result")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
