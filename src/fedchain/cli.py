"""Command line front end.

Subcommands: run, baseline, profile, report-memory.  Exit codes: 0 success,
2 config error, 3 numeric (NaN/Inf) error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .checkpoint import CheckpointError
from .config import ConfigError, config_to_dict, load_config, parse_config
from .data import DataFormatError
from .federation import (
    DEFAULT_ASSUMPTIONS,
    IO_NOTE,
    MEMORY_PRESETS,
    RUN_MODES,
    choose_start_layer,
    estimate_peak_memory,
    load_dataset,
    profile_clients,
    run,
    setup,
    stack_dims,
    window_size,
)
from .tensor import NumericError, ShapeMismatch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedchain",
                                     description="Memory-budgeted federated adapter fine-tuning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="output path (metrics stream or report JSON)")
        p.add_argument("--seed", type=int, help="override the experiment seed")

    p_run = sub.add_parser("run", help="run a federated chain fine-tuning experiment")
    common(p_run)
    p_run.add_argument("--rounds", type=int, help="override federation.rounds")
    p_run.add_argument("--checkpoint", help="override the final checkpoint base path")

    p_base = sub.add_parser("baseline", help="run a baseline or ablation")
    common(p_base)
    p_base.add_argument("--mode", required=True, choices=[m for m in RUN_MODES if m != "chainfed"])
    p_base.add_argument("--rounds", type=int)
    p_base.add_argument("--checkpoint", help="override the final checkpoint base path")

    p_prof = sub.add_parser("profile", help="phase-1 similarity profiling only")
    common(p_prof)

    p_mem = sub.add_parser("report-memory", help="peak-memory accounting for a model shape")
    p_mem.add_argument("--config", help="experiment config JSON supplying model dims")
    p_mem.add_argument("--preset", choices=sorted(MEMORY_PRESETS),
                       help="built-in model shape instead of --config")
    # left unset, these price what `run` trains on a config, or the preset assumptions
    p_mem.add_argument("--q", type=int, nargs="+",
                       help="window sizes to sweep (config: federation.Q, else 1..L; preset: 6 7 8)")
    p_mem.add_argument("--batch", type=int, help="rows per step (config: chain.batch; preset: 16)")
    p_mem.add_argument("--seq-len", type=int,
                       help="tokens per row (config: the data's; preset: 512)")
    p_mem.add_argument("--out")
    return parser


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_with_overrides(args):
    """The config with --seed / --rounds applied, checked by parse_config as the file is."""
    raw = config_to_dict(load_config(args.config))
    if args.seed is not None:
        raw["model"]["seed"] = args.seed
    if getattr(args, "rounds", None) is not None:
        raw["federation"]["rounds"] = args.rounds
    return parse_config(raw)


def _cmd_run(args, mode: str | None = None) -> int:
    cfg = _load_with_overrides(args)
    metrics = args.out or cfg.out.metrics
    checkpoint = getattr(args, "checkpoint", None) or cfg.out.checkpoint
    result = run(cfg, mode=mode, metrics_path=metrics, checkpoint_path=checkpoint,
                 progress=None if metrics else
                 (lambda rec: print(json.dumps(rec.as_dict()))))
    summary = {
        "mode": mode or cfg.mode,
        "rounds": len(result.records),
        "L_start": result.L_start,
        "Q": result.Q,
        "final_accuracy": result.final_accuracy if result.records else None,  # NaN is not JSON
    }
    print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK


def _cmd_profile(args) -> int:
    cfg = _load_with_overrides(args)
    exp = setup(cfg)
    profile = profile_clients(exp)
    start_layer, _ = choose_start_layer(cfg, exp, cfg.mode, profile)
    payload = {
        "scores": profile.scores,
        "sample_weight": profile.sample_weight,
        "threshold": cfg.chain.T,
        "start_layer": start_layer,
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_report_memory(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise ConfigError(["report-memory: exactly one of --config / --preset required"])
    if args.preset:
        dims = MEMORY_PRESETS[args.preset]
        name = args.preset
        batch, seq_len = DEFAULT_ASSUMPTIONS["batch"], DEFAULT_ASSUMPTIONS["seq_len"]
        qs = [6, 7, 8]
    else:
        cfg = load_config(args.config)
        dataset = load_dataset(cfg)
        dims = stack_dims(cfg.model, dataset)  # as `run` sizes it, never built
        name = args.config
        batch, seq_len = cfg.chain.batch, dataset.seq_len
        qs = list(range(1, dims.L + 1))
        if cfg.federation.Q is not None:
            # the chain trains no more layers than lie from its start layer up; a start
            # layer CKA picks (chain.T) is unknown here, since report-memory never profiles
            L_start = cfg.chain.L_start or 1
            qs = [window_size(cfg, dims, seq_len, "chainfed", L_start)]
    batch = batch if args.batch is None else args.batch
    seq_len = seq_len if args.seq_len is None else args.seq_len
    qs = qs if args.q is None else args.q
    full = estimate_peak_memory(dims, batch, seq_len, mode="full")
    chain, reduction = {}, {}
    for q in qs:
        report = estimate_peak_memory(dims, batch, seq_len, Q=q)
        chain[str(q)] = report.as_dict()
        reduction[str(q)] = 1.0 - report.peak_bytes / full.peak_bytes
    payload = {
        "model": name,
        "dims": {**asdict(dims), "ffn": dims.ffn_dim},
        "assumptions": {**DEFAULT_ASSUMPTIONS, "batch": batch, "seq_len": seq_len},
        "full": full.as_dict(),
        "chain": chain,
        "reduction": reduction,
        "io_note": IO_NOTE,
    }
    _emit(payload, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "baseline":
            return _cmd_run(args, mode=args.mode)
        if args.command == "profile":
            return _cmd_profile(args)
        return _cmd_report_memory(args)  # the subparsers admit no other command
    except NumericError as e:
        print(f"fedchain: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, CheckpointError, DataFormatError) as e:
        print(f"fedchain: i/o failure: {e}", file=sys.stderr)
        return EXIT_IO
    except ShapeMismatch:
        raise
    except ValueError as e:  # ConfigError, or a library check on a value the config set
        print(f"fedchain: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
