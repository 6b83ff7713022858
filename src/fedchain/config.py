"""Experiment configuration: JSON loading, validation, round-tripping.

The dataclasses below are the schema: each field's JSON key, type, default,
required-ness and nullability come from its declaration, and a field's JSON
key differs from its name only where its metadata says so.  `null` is
accepted only where the annotation admits `None`.

Validation is total and runs in two passes.  The first reports every
missing, unknown, null or mistyped field with its path (a float field
must also be finite); once the shapes are right, the second reports every
range and cross-field violation.  Nothing raises bare KeyErrors or returns
partial state.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .chain import StageLossConfig
from .data import SYNTH_KINDS, synth_dataset
from .federation import PARTITIONS, RUN_MODES
from .model import BACKBONE_KINDS, StackDims, build_stack

DEFAULT_THRESHOLD = 0.8
_SYNTH_DEFAULTS = synth_dataset.__kwdefaults__  # DataConfig's defaults are the generator's
_STACK_DEFAULTS = build_stack.__kwdefaults__  # and ModelConfig's are the stack builder's


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n  " + "\n  ".join(self.problems))


@dataclass
class ModelConfig:
    L: int
    u: int
    v: int
    kind: str = StackDims.kind
    ffn: int = StackDims.ffn
    classes: int | None = None
    seed: int = _STACK_DEFAULTS["seed"]
    init_scale: float = _STACK_DEFAULTS["init_scale"]


@dataclass
class DataConfig:
    source: str = "synthetic"
    kind: str | None = "cluster-tokens"
    M: int = 2000
    seq_len: int = 16
    eval_fraction: float = 0.2
    vocab: int = _SYNTH_DEFAULTS["vocab"]
    signal: float = _SYNTH_DEFAULTS["signal"]
    path: str | None = None
    vocab_path: str | None = None


@dataclass
class FederationConfig:
    N: int
    rounds: int
    sample_count: int
    partition: str = "dirichlet"
    alpha: float = 1.0
    budgets: list[float] | None = None
    Q: int | None = None

    def resolved_sample_count(self) -> int:
        # kept only for the benchmark worker under perfbench/, which still calls it
        return self.sample_count


@dataclass
class ChainConfig:
    lam: float = field(default=StageLossConfig.lam, metadata={"json": "lambda"})
    T: float | None = None
    L_start: int | None = None
    lr: float = 0.1
    local_steps: int = 4
    batch: int = 32


@dataclass
class OutConfig:
    metrics: str | None = None
    checkpoint: str | None = None


@dataclass
class ExperimentConfig:
    model: ModelConfig
    data: DataConfig
    federation: FederationConfig
    chain: ChainConfig = field(default_factory=ChainConfig)
    mode: str = "chainfed"
    out: OutConfig = field(default_factory=OutConfig)


_TYPE_NAMES = {bool: "bool", int: "int", float: "finite number", str: "string", list: "list"}
_WRONG = object()


def _json_key(f) -> str:
    return f.metadata.get("json", f.name)


def _field_type(hint) -> tuple[type, bool]:
    """The base type of a field annotation and whether it admits None."""
    args = get_args(hint)
    nullable = type(None) in args
    if nullable:
        (hint,) = [a for a in args if a is not type(None)]
    return get_origin(hint) or hint, nullable


def _typed(value, kind):
    """`value` as a `kind`, or _WRONG.  JSON integers are numbers; bools are only bools;
    a number is finite (json reads NaN and Infinity)."""
    if isinstance(value, bool) != (kind is bool):
        return _WRONG
    if kind is float and isinstance(value, (int, float)):
        try:
            value = float(value)
        except OverflowError:  # an integer literal past the float range
            return _WRONG
        return value if math.isfinite(value) else _WRONG
    return value if isinstance(value, kind) else _WRONG


def _parse(cls, raw: dict, path: str, problems: list[str]):
    """Build `cls` from the JSON object `raw`; None if it added to `problems`."""
    before = len(problems)
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        key = _json_key(f)
        where = f"{path}.{key}" if path else key
        kind, nullable = _field_type(hints[f.name])
        if key not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                problems.append(f"{where}: required")
            continue
        value = raw.pop(key)
        if value is None and nullable:
            values[f.name] = None
        elif is_dataclass(kind) and isinstance(value, dict):
            values[f.name] = _parse(kind, dict(value), where, problems)
        elif (typed := _typed(value, kind)) is not _WRONG:
            values[f.name] = typed
        else:
            expected = _TYPE_NAMES.get(kind, "an object")
            problems.append(f"{where}: expected {expected}, got {value!r}")
    for key in raw:
        problems.append(f"{path or 'top level'}.{key}: unknown field")
    return cls(**values) if len(problems) == before else None


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError([f"top level: expected an object, got {type(raw).__name__}"])
    problems: list[str] = []
    cfg = _parse(ExperimentConfig, dict(raw), "", problems)
    if problems:
        raise ConfigError(problems)
    model, data, federation, chain = cfg.model, cfg.data, cfg.federation, cfg.chain

    if model.L < 1:
        problems.append(f"model.L: must be >= 1, got {model.L}")
    if model.u < 2:
        problems.append(f"model.u: must be >= 2, got {model.u}")
    if not 1 <= model.v < max(model.u, 2):
        problems.append(f"model.v: bottleneck must satisfy 1 <= v < u, got v={model.v}, u={model.u}")
    if model.kind not in BACKBONE_KINDS:
        problems.append(f"model.kind: expected one of {tuple(BACKBONE_KINDS)}, got {model.kind!r}")
    if model.ffn < 0:
        problems.append(f"model.ffn: must be >= 0 (0 means 2*u), got {model.ffn}")
    if model.classes is not None and model.classes < 2:
        problems.append(f"model.classes: must be >= 2, got {model.classes}")
    if model.seed < 0:
        problems.append(f"model.seed: must be >= 0, got {model.seed}")
    if model.init_scale <= 0:
        problems.append(f"model.init_scale: must be > 0, got {model.init_scale}")

    if data.source not in ("synthetic", "file"):
        problems.append(f"data.source: expected 'synthetic' or 'file', got {data.source!r}")
    if data.source == "synthetic":
        if data.kind not in SYNTH_KINDS:
            problems.append(f"data.kind: expected one of {SYNTH_KINDS}, got {data.kind!r}")
        if data.M < 2:
            problems.append(f"data.M: must be >= 2, got {data.M}")
        if not 0.0 < data.signal <= 1.0:
            problems.append(f"data.signal: must lie in (0, 1], got {data.signal}")
    if data.source == "file":
        if not data.path:
            problems.append("data.path: required when data.source is 'file'")
        if not data.vocab_path:
            problems.append("data.vocab_path: required when data.source is 'file'")
    if not 0.0 < data.eval_fraction < 1.0:
        problems.append(f"data.eval_fraction: must lie in (0, 1), got {data.eval_fraction}")
    if data.seq_len < 1:
        problems.append(f"data.seq_len: must be >= 1, got {data.seq_len}")

    if federation.N < 1:
        problems.append(f"federation.N: must be >= 1, got {federation.N}")
    if federation.rounds < 0:
        problems.append(f"federation.rounds: must be >= 0, got {federation.rounds}")
    if federation.partition not in PARTITIONS:
        problems.append(f"federation.partition: expected one of {PARTITIONS}, got {federation.partition!r}")
    if federation.alpha <= 0:
        problems.append(f"federation.alpha: must be > 0, got {federation.alpha}")
    if not 1 <= federation.sample_count <= federation.N:
        problems.append(f"federation.sample_count: must lie in [1, N={federation.N}], got {federation.sample_count}")
    if (federation.budgets is None) == (federation.Q is None):
        problems.append("federation.budgets / federation.Q: exactly one must be set")
    if federation.budgets is not None:
        if len(federation.budgets) != federation.N:
            problems.append(f"federation.budgets: need one budget per client (N={federation.N}), got {len(federation.budgets)}")
        elif any(not isinstance(b, (int, float)) or isinstance(b, bool) or not b > 0
                 for b in federation.budgets):  # +inf is no limit; NaN is no number
            problems.append("federation.budgets: every budget must be a positive number")
    if federation.Q is not None and not 1 <= federation.Q <= model.L:
        problems.append(f"federation.Q: must lie in [1, L={model.L}], got {federation.Q}")

    if chain.lam < 0:
        problems.append(f"chain.lambda: must be >= 0, got {chain.lam}")
    if chain.T is not None and chain.L_start is not None:
        problems.append("chain.T / chain.L_start: exactly one may be set")
    if chain.T is None and chain.L_start is None:
        chain.T = DEFAULT_THRESHOLD
    if chain.T is not None and not 0.0 < chain.T <= 1.0:
        problems.append(f"chain.T: must lie in (0, 1], got {chain.T}")
    if chain.L_start is not None and not 1 <= chain.L_start <= model.L:
        problems.append(f"chain.L_start: must lie in [1, L={model.L}], got {chain.L_start}")
    if chain.lr < 0:
        problems.append(f"chain.lr: must be >= 0, got {chain.lr}")
    if chain.local_steps < 1:
        problems.append(f"chain.local_steps: must be >= 1, got {chain.local_steps}")
    if chain.batch < 1:
        problems.append(f"chain.batch: must be >= 1, got {chain.batch}")

    if cfg.mode not in RUN_MODES:
        problems.append(f"mode: expected one of {tuple(RUN_MODES)}, got {cfg.mode!r}")

    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as e:
        raise ConfigError([f"{path}: not UTF-8 ({e})"]) from e
    except json.JSONDecodeError as e:
        raise ConfigError([f"{path}: not valid JSON ({e})"]) from e
    return parse_config(raw)


def config_to_dict(cfg) -> dict:
    """Serializable form; parse_config(config_to_dict(cfg)) is a fixpoint."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[_json_key(f)] = config_to_dict(value) if is_dataclass(value) else value
    return out
