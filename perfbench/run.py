"""fedchain benchmark: times one workload end to end, or traces it layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-mlp --seed 0 --seconds 35 --trace 0

Each run of the workload happens in a fresh worker process with BLAS and
OpenMP pinned to one thread.  ``--trace 0`` repeats the workload with the
same seed as many times as ``--seconds`` holds at the first run's pace (at
least twice, so the repeats can be compared), adds two workers that only
set up, and reports the end-to-end metrics.  ``--trace 1`` runs it four
times, untraced and traced in ABBA order, and reports the per-layer metrics
of the first traced run and the tracing overhead.  Human
readable lines go first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Only the standard library is imported here; numpy and fedchain load in the
workers.  Exit status is 2 when the checkout holds no fedchain sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, write_dataset  # noqa: E402

MIN_REPEATS = 2
SETUP_PROBES = 2  # extra fresh workers that only set up, for a steadier setup_s median
DEADLINE_S = 165.0  # the whole invocation must end well within 180 s
WORKER_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Ledger:
    """Every operation attempted and every one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, percentile).

    With fewer than 40 samples that percentile would lie below p75, too close
    to the median to show a tail, so p75 is reported instead.
    """
    n = len(samples)
    if n < 40:
        return statistics.quantiles(samples, n=4, method="inclusive")[2], 75.0
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def run_worker(root: Path, rundir: Path, spec: dict, deadline: float, ledger: Ledger,
               label: str) -> dict | None:
    """One workload run in a fresh process; failures go to the ledger."""
    spec = {**spec, "src": str(root / "src"), "rundir": str(rundir)}
    spec_path, result_path = rundir / f"{label}.spec.json", rundir / f"{label}.result.json"
    spec_path.write_text(json.dumps(spec))
    env = {**os.environ, **WORKER_THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                               str(result_path)], env=env, cwd=root, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        ledger.record(f"{label}.worker", False, f"killed after {timeout:.0f}s")
        return None
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        ledger.record(f"{label}.worker", False,
                      f"exit {proc.returncode}, no result; {proc.stderr.strip()[-500:]}")
        return None
    ledger.record(f"{label}.worker", result["ok"] and proc.returncode == 0,
                  (result["error"] or proc.stderr or "").strip()[-800:])
    for c in result["checks"]:
        ledger.record(f"{label}.{c['name']}", c["ok"], c["detail"])
    return result if result["ok"] else None


def end_to_end(results: list[dict], setup_probes: list[float]) -> tuple[dict, list[str]]:
    parts = [p for r in results for p in r["parts"]]
    rounds = [x for p in parts for x in p["round_s"]]
    updates = [x for p in parts for x in p["update_s"]]
    round_tail, round_pct = tail(rounds)
    update_tail, update_pct = tail(updates)
    memory = results[0]["memory"]
    finals = [statistics.fmean(p["final_accuracy"] for p in r["parts"]) for r in results]
    setups = [p["setup_s"] for p in parts] + setup_probes
    m = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in results),
        "round_s.p50": statistics.median(rounds),
        "round_s.tail": round_tail,
        "client_update_s.p50": statistics.median(updates),
        "client_update_s.tail": update_tail,
        "train_samples_per_s": sum(p["rows_trained"] for p in parts)
        / sum(p["rounds_phase_s"] for p in parts),
        "eval_accuracy.final": statistics.median(finals),
        "train_peak_bytes": memory["peak_lowest"],
        "host_peak_rss_bytes": statistics.median(r["rss_bytes"] for r in results),
        "comm_bytes_per_round": statistics.median(b for p in parts for b in p["comm_bytes"]),
    }
    notes = [
        f"setup_s: median of {len(setups)} run() set-ups in fresh workers",
        f"round_s: {len(rounds)} rounds; tail is p{round_pct:.1f}",
        f"client_update_s: {len(updates)} local updates; tail is p{update_pct:.1f}",
        f"train_peak_bytes: window {memory['lowest_window']} (highest window "
        f"{memory['highest_window']}: {memory['peak_highest']} B; "
        f"estimate_peak_memory: {memory['modelled']} B)",
    ]
    return m, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    m = dict(traced[0]["layers"])
    memory = untraced[0]["memory"]
    m["federation.modelled_peak_bytes"] = memory["modelled"]
    m["federation.peak_measured_over_modelled"] = memory["peak_lowest"] / memory["modelled"]
    m["chain.peak_bytes_highest_window"] = memory["peak_highest"]
    m["trace.overhead_ratio"] = (statistics.fmean(r["run_s"] for r in traced)
                                 / statistics.fmean(r["run_s"] for r in untraced))
    return m


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def header(args, root: Path, results: list[dict]) -> list[str]:
    env = results[0]["env"] if results else {}
    threads = " ".join(f"{k}={v}" for k, v in env.get("threads", {}).items())
    return [
        f"# fedchain benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"# nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={env.get('python', platform.python_version())} numpy={env.get('numpy', '?')} "
        f"blas={env.get('blas', '?')}",
        f"# worker threads: {threads}; commit={git_commit(root)}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-check size: tiny data, two rounds, no accuracy floor")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add one worker run that fails, to check it is counted")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fedchain" / "__init__.py").is_file():
        print(f"perfbench: no fedchain sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    rundir = root / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    base = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
            "data_files": write_dataset(rundir, args.seed, args.tiny)}
    results: list[dict] = []
    setups: list[float] = []
    trace_path = root / ".perfbench" / f"trace-{args.workload}.jsonl"
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        if args.trace:
            # untraced and traced runs in ABBA order, so a steady drift in machine
            # speed cancels out of the overhead ratio
            for i, kind in enumerate(("untraced", "traced", "traced", "untraced")):
                spec = ({**base, "probe_memory": i == 0} if kind == "untraced" else
                        {**base, "traced": True,
                         "trace_path": None if traced else str(trace_path)})
                result = run_worker(root, rundir, spec, deadline, ledger, f"{kind}{i}")
                if result:
                    (traced if kind == "traced" else untraced).append(result)
            results = untraced + traced
        else:
            # as many repeats as --seconds holds at the first repeat's pace, at least two
            target, durations = MIN_REPEATS, []
            while len(durations) < target:
                t0 = time.monotonic()
                spec = {**base, "probe_memory": not durations}
                result = run_worker(root, rundir, spec, deadline, ledger, f"rep{len(durations)}")
                durations.append(time.monotonic() - t0)
                if result:
                    results.append(result)
                target = max(MIN_REPEATS, int(args.seconds // durations[0]))
                if time.monotonic() + max(durations) > deadline:
                    break
            for i in range(SETUP_PROBES):
                probe = run_worker(root, rundir, {**base, "setup_only": True}, deadline,
                                   ledger, f"setup{i}")
                if probe:
                    setups.extend(probe["setup_s"])
        # every run of one seed, traced or not, must write the same metrics stream
        for i in range(len(WORKLOADS[args.workload].modes)):
            shas = {r["parts"][i]["stream_sha256"] for r in results}
            ledger.record(f"repeat.part{i}", len(results) >= MIN_REPEATS and len(shas) == 1,
                          f"{len(results)} runs, {len(shas)} distinct metrics-stream SHA-256")
        if args.inject_failure:
            run_worker(root, rundir, {**base, "inject_failure": True}, deadline, ledger, "injected")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for line in header(args, root, results):
        print(line)
    metrics: dict[str, float] = {}
    if args.trace and untraced and traced and "memory" in untraced[0]:
        metrics = per_layer(untraced, traced)
        for r in traced[0]["rounds"]:
            print(f"  part {r['part']} round {r['round']}: round {r['round_ns'] / 1e9:.4f} s = "
                  f"updates {r['updates_ns'] / 1e9:.4f} + aggregate {r['aggregate_ns'] / 1e9:.4f}"
                  f" + eval {r['eval_ns'] / 1e9:.4f} + overhead {r['overhead_ns'] / 1e9:.4f}"
                  f"; aux branch calls {r['aux_calls']}")
        print(f"# spans written to {trace_path.relative_to(root)}")
    elif not args.trace and results and "memory" in results[0]:
        metrics, notes = end_to_end(results, setups)
        for note in notes:
            print(f"# {note}")
        metrics["success_ratio"] = None  # filled in once every operation is counted
    units = declared_units(root, "per_layer" if args.trace else "end_to_end")
    if metrics:
        ledger.record("metrics.as_declared", set(metrics) == set(units),
                      f"missing {sorted(set(units) - set(metrics))}, "
                      f"undeclared {sorted(set(metrics) - set(units))}")
    if "success_ratio" in metrics:
        metrics["success_ratio"] = 1.0 - len(ledger.failures) / ledger.attempted
    for name, value in metrics.items():
        print(f"{name:40s} {value!r:>24} {units.get(name, '')}")
    failure_ratio = len(ledger.failures) / ledger.attempted
    print(f"{'failure_ratio':40s} {failure_ratio!r:>24} ratio "
          f"({len(ledger.failures)} of {ledger.attempted} operations failed)")
    for failure in ledger.failures:
        print(f"# FAILED {failure}")
    correct = not ledger.failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }))
    return 0


def declared_units(root: Path, kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
