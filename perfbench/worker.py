"""Runs one workload once, in a fresh process, and writes what it measured.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the workload name, the dataset files, the run directory and
flags: ``traced`` (record per-layer spans instead of the two timing hooks;
``trace_path`` says where to write them), ``probe_memory`` (after timing,
measure one local update's traced peak), ``setup_only`` (stop each run()
at its first local update and report only set-up times) and
``inject_failure`` (make the first local update raise, to prove failures
are counted).

The untraced run wraps only ``local_update`` and ``evaluate_accuracy`` as
``fedchain.federation`` looks them up, plus an entry stamp on
``fedchain.cli.run`` on the CLI path, so that set-up, rounds and client
updates can be timed without touching anything else.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

RECORD_KEYS = {"round", "window", "clients", "train_loss", "eval_accuracy", "comm_bytes",
               "peak_mem_bytes"}


class Part:
    """Timestamps of one run() call: set-up, client updates and round ends."""

    def __init__(self, mode: str):
        self.mode = mode
        self.enter = None
        self.updates: list[tuple[float, float]] = []
        self.eval_ends: list[float] = []
        self.rows_trained = 0
        self.stream = None
        self.result = None  # RunResult, on the run() path
        self.exit_code = self.cli_stderr = self.loaded = None  # on the CLI path
        self.records: list[dict] = []
        self.sha256 = None

    def summary(self) -> dict:
        first = self.updates[0][0]
        starts = [first] + self.eval_ends[:-1]
        return {
            "setup_s": first - self.enter,
            "round_s": [end - start for start, end in zip(starts, self.eval_ends)],
            "update_s": [t1 - t0 for t0, t1 in self.updates],
            "rows_trained": self.rows_trained,
            "rounds_phase_s": self.eval_ends[-1] - first,
        }


class SetupDone(Exception):
    """Ends a set-up-only run at its first local update."""


class TimingHooks:
    """The untraced run's only instrumentation."""

    def __init__(self, inject_failure: bool = False, setup_only: bool = False):
        import fedchain.cli
        import fedchain.federation

        self.part: Part | None = None
        self.last_stack = None
        self._inject = inject_failure
        self._setup_only = setup_only
        fed, cli = fedchain.federation, fedchain.cli
        self._originals = [(fed, "local_update", fed.local_update),
                           (fed, "evaluate_accuracy", fed.evaluate_accuracy),
                           (cli, "run", cli.run)]
        local_update, evaluate, run = fed.local_update, fed.evaluate_accuracy, cli.run

        def timed_update(stack, x, labels, *args, **kwargs):
            if self._inject:
                raise RuntimeError("injected failure")
            t0 = time.perf_counter()
            if self._setup_only:
                self.part.updates.append((t0, t0))
                raise SetupDone
            out = local_update(stack, x, labels, *args, **kwargs)
            t1 = time.perf_counter()
            self.part.updates.append((t0, t1))
            self.part.rows_trained += kwargs["steps"] * min(kwargs["batch_size"], len(x))
            return out

        def timed_eval(stack, *args, **kwargs):
            out = evaluate(stack, *args, **kwargs)
            self.part.eval_ends.append(time.perf_counter())
            self.last_stack = stack
            return out

        def stamped_run(*args, **kwargs):
            self.part.enter = time.perf_counter()
            return run(*args, **kwargs)

        fed.local_update, fed.evaluate_accuracy, cli.run = timed_update, timed_eval, stamped_run

    def restore(self) -> None:
        for module, attr, original in self._originals:
            setattr(module, attr, original)


def environment() -> dict:
    import numpy as np

    import fedchain

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k, "") for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "fedchain": fedchain.__file__,
    }


def check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def check_stream(checks: list, part: Part, rounds: int, sample_count: int) -> None:
    """One well-formed record per round 1..rounds."""
    name = f"stream.{part.mode}"
    try:
        lines = Path(part.stream).read_bytes()
        records = [json.loads(line) for line in lines.splitlines()]
    except (OSError, ValueError) as e:
        check(checks, name, False, f"unreadable: {e}")
        return
    part.records = records
    part.sha256 = hashlib.sha256(lines).hexdigest()
    problems = []
    if [r.get("round") for r in records] != list(range(1, rounds + 1)):
        problems.append(f"rounds {[r.get('round') for r in records]}")
    for r in records:
        if set(r) != RECORD_KEYS:
            problems.append(f"round {r.get('round')}: keys {sorted(r)}")
            continue
        if not (isinstance(r["window"], list) and len(r["window"]) == 2
                and len(r["clients"]) == sample_count
                and isinstance(r["train_loss"], float) and math.isfinite(r["train_loss"])
                and 0.0 <= r["eval_accuracy"] <= 1.0
                and isinstance(r["comm_bytes"], int) and r["comm_bytes"] > 0
                and isinstance(r["peak_mem_bytes"], int) and r["peak_mem_bytes"] > 0):
            problems.append(f"round {r['round']}: bad field in {r}")
    check(checks, name, not problems, "; ".join(problems[:3]) or f"{len(records)} records")


def check_checkpoint(checks: list, stack, loaded) -> None:
    """The reloaded checkpoint equals the f32 cast of the parameters in memory."""
    import numpy as np

    from fedchain import named_parameters

    want, got = named_parameters(stack), named_parameters(loaded)
    bad = [k for k in want if k not in got
           or not np.array_equal(got[k].data, want[k].data.astype(np.float32).astype(np.float64))]
    bad += [k for k in got if k not in want]
    check(checks, "checkpoint.roundtrip", not bad, f"{len(want)} tensors, mismatched {bad[:3]}")


def traced_peak(stack, x, y, window, stage_cfg, chain_cfg, scheme) -> int:
    """tracemalloc peak of one local_update above what was live before it."""
    from fedchain import local_update

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        local_update(stack, x, y, window, stage_cfg, steps=chain_cfg.local_steps,
                     lr=chain_cfg.lr, batch_size=chain_cfg.batch, seed=[0], scheme=scheme)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def memory_probe(cfg, part: Part, stack) -> dict:
    """Peak bytes of one local update at the schedule's lowest and highest window."""
    import numpy as np

    from fedchain import StageLossConfig, WindowSchedule, estimate_peak_memory
    from fedchain.data import load_dataset_from_config

    dims = stack.dims
    data = load_dataset_from_config(cfg.data, cfg.model, [cfg.model.seed, 2])
    shard = np.arange(len(data.y) // cfg.federation.N)
    x, y = data.x[shard], data.y[shard]
    seq_len = data.x.shape[1]
    stage_cfg = StageLossConfig(lam=0.0 if part.mode == "no_gpo" else cfg.chain.lam)
    if part.mode == "full_adapters":
        low = high = (1, dims.L)
        scheme = "all_adapters"
        modelled = estimate_peak_memory(dims, cfg.chain.batch, seq_len, mode="full")
    else:
        result = part.result
        positions = WindowSchedule(result.L_start, dims.L, result.Q).positions
        low, high = positions[0], positions[-1]
        scheme = "window"
        modelled = estimate_peak_memory(dims, cfg.chain.batch, seq_len, Q=result.Q)
    return {
        "lowest_window": list(low),
        "highest_window": list(high),
        "peak_lowest": traced_peak(stack, x, y, low, stage_cfg, cfg.chain, scheme),
        "peak_highest": traced_peak(stack, x, y, high, stage_cfg, cfg.chain, scheme),
        "modelled": modelled.peak_bytes,
    }


def run_part(wl, cfg, config_path: Path, rundir: Path, i: int, part: Part, call) -> None:
    """One run() of the workload: through fedchain.cli.main or fedchain.federation.run."""
    import fedchain.cli
    import fedchain.federation
    from fedchain import load_checkpoint

    part.stream = rundir / f"metrics-{i}.jsonl"
    if wl.via_cli:
        base = rundir / f"ckpt-{i}"
        argv = ["baseline", "--mode", part.mode, "--config", str(config_path),
                "--out", str(part.stream), "--checkpoint", str(base)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            part.exit_code = call("cli.main", fedchain.cli.main, argv)
        part.cli_stderr = err.getvalue()
        part.loaded = call("checkpoint.load", load_checkpoint, base)
    else:
        part.enter = time.perf_counter()
        part.result = call("federation.run", fedchain.federation.run, cfg,
                           mode=part.mode, metrics_path=part.stream)


def measure_setup(spec: dict, out: dict) -> None:
    """Set-up only: each run() of the workload stops at its first local update."""
    from fedchain import parse_config

    wl = WORKLOADS[spec["workload"]]
    rundir = Path(spec["rundir"])
    raw = wl.config(spec["data_files"], spec.get("tiny", False))
    config_path = rundir / "setup-config.json"
    config_path.write_text(json.dumps(raw))
    hooks = TimingHooks(setup_only=True)
    out["setup_s"] = []
    for i, mode in enumerate(wl.modes):
        part = hooks.part = Part(mode)
        try:
            run_part(wl, parse_config(raw), config_path, rundir, i, part,
                     lambda _name, fn, *a, **k: fn(*a, **k))
        except SetupDone:
            out["setup_s"].append(part.updates[0][0] - part.enter)
        else:
            raise RuntimeError(f"{mode}: run() ended without a local update")
    hooks.restore()


def run_workload(spec: dict, out: dict) -> None:
    from fedchain import parse_config

    wl = WORKLOADS[spec["workload"]]
    tiny = spec.get("tiny", False)
    rundir = Path(spec["rundir"])
    raw = wl.config(spec["data_files"], tiny)
    cfg = parse_config(raw)
    rounds = wl.rounds_for(tiny)
    sample_count = cfg.federation.resolved_sample_count()
    parts = [Part(mode) for mode in wl.modes]
    checks = out["checks"]
    config_path = rundir / "config.json"
    config_path.write_text(json.dumps(raw))

    tracer = hooks = None
    if spec.get("traced"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        hooks = TimingHooks(spec.get("inject_failure", False))
    call = tracer.call if tracer else (lambda _name, fn, *a, **k: fn(*a, **k))

    def workload():
        for i, part in enumerate(parts):
            if tracer:
                tracer.part = i
            else:
                hooks.part = part
            run_part(wl, cfg, config_path, rundir, i, part, call)

    t0 = time.perf_counter()
    call("workload", workload)
    run_s = time.perf_counter() - t0
    out["run_s"] = run_s
    out["rss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    if tracer:
        tracer.restore()
    else:
        hooks.restore()

    for part in parts:
        if wl.via_cli:
            check(checks, f"cli_exit.{part.mode}", part.exit_code == 0,
                  f"exit {part.exit_code}: {part.cli_stderr.strip()[-300:]}")
        check_stream(checks, part, rounds, sample_count)
        final = part.records[-1]["eval_accuracy"] if part.records else float("nan")
        floor = 0.0 if tiny else wl.min_accuracy
        check(checks, f"accuracy.{part.mode}", final >= floor,
              f"final eval accuracy {final:.4f}, floor {floor}")
    if wl.via_cli and not tracer:
        check_checkpoint(checks, hooks.last_stack, parts[0].loaded)

    out["parts"] = []
    for part in parts:
        summary = {} if tracer else part.summary()
        summary.update({
            "mode": part.mode,
            "final_accuracy": part.records[-1]["eval_accuracy"],
            "comm_bytes": [r["comm_bytes"] for r in part.records],
            "stream_sha256": part.sha256,
        })
        out["parts"].append(summary)

    if tracer:
        from tracing import layer_metrics

        metrics, trace_checks = layer_metrics(tracer, root=0)
        out["layers"] = metrics
        out["rounds"] = tracer.rounds()
        checks.extend(trace_checks)
        if spec.get("trace_path"):
            tracer.write(spec["trace_path"], {"workload": wl.name, "seed": spec["seed"],
                                              "run_s": run_s})

    if spec.get("probe_memory"):
        first = parts[0]
        stack = first.loaded if wl.via_cli else first.result.stack
        out["memory"] = memory_probe(cfg, first, stack)
        check(checks, "memory_probe", out["memory"]["peak_lowest"] > 0,
              f"{out['memory']}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text())
    out = {"ok": False, "error": None, "checks": []}
    try:
        out["env"] = environment()
        src = str(Path(spec["src"]).resolve())
        if not str(Path(out["env"]["fedchain"]).resolve()).startswith(src):
            raise RuntimeError(f"imported fedchain from {out['env']['fedchain']}, not {src}")
        (measure_setup if spec.get("setup_only") else run_workload)(spec, out)
        out["ok"] = True
    except Exception:  # the boundary: report every failure to the orchestrator
        out["error"] = traceback.format_exc()
    Path(argv[1]).write_text(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
