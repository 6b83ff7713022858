"""Experiment configuration: JSON loading, validation, round-tripping.

The dataclasses below are the schema: each field's JSON key, type, default,
required-ness, nullability and allowed values come from its declaration, and
a field's JSON key differs from its name only where its metadata says so.
`null` is accepted only where the annotation admits `None`.

Validation is total and runs in two passes.  The first reports every
missing, unknown, null or mistyped field with its path (a float field
must also be finite); once the shapes are right, the second reports every
set field that breaks its declared rule and every rule that relates fields.
Nothing raises bare KeyErrors or returns partial state.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .chain import StageLossConfig
from .data import DATA_SOURCES, SYNTH_KINDS, synth_dataset
from .federation import PARTITIONS, RUN_MODES
from .model import BACKBONE_KINDS, StackDims, build_stack

DEFAULT_THRESHOLD = 0.8
_SYNTH_DEFAULTS = synth_dataset.__kwdefaults__  # DataConfig's defaults are the generator's
_STACK_DEFAULTS = build_stack.__kwdefaults__  # and ModelConfig's are the stack builder's


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n  " + "\n  ".join(self.problems))


def _rule(test, says: str) -> dict:
    """Field metadata: `parse_config` reports `<path>: <says>, got <value>` when a set
    value fails `test`."""
    return {"rule": (test, says)}


def _at_least(low: int) -> dict:
    return _rule(lambda x: x >= low, f"must be >= {low}")


def _one_of(choices) -> dict:
    choices = tuple(choices)
    return _rule(lambda x: x in choices, f"expected one of {choices}")


_POSITIVE = _rule(lambda x: x > 0, "must be > 0")


@dataclass
class ModelConfig:
    L: int = field(metadata=_at_least(1))
    u: int = field(metadata=_at_least(2))
    v: int
    kind: str = field(default=StackDims.kind, metadata=_one_of(BACKBONE_KINDS))
    ffn: int = field(default=StackDims.ffn,
                     metadata=_rule(lambda x: x >= 0, "must be >= 0 (0 means 2*u)"))
    classes: int | None = field(default=None, metadata=_at_least(2))
    seed: int = field(default=_STACK_DEFAULTS["seed"], metadata=_at_least(0))
    init_scale: float = field(default=_STACK_DEFAULTS["init_scale"], metadata=_POSITIVE)


@dataclass
class DataConfig:
    source: str = field(default="synthetic", metadata=_one_of(DATA_SOURCES))
    kind: str | None = "cluster-tokens"
    M: int = 2000
    seq_len: int = field(default=16, metadata=_at_least(1))
    eval_fraction: float = field(default=0.2, metadata=_rule(lambda x: 0.0 < x < 1.0,
                                                             "must lie in (0, 1)"))
    vocab: int = _SYNTH_DEFAULTS["vocab"]
    signal: float = _SYNTH_DEFAULTS["signal"]
    path: str | None = None
    vocab_path: str | None = None


@dataclass
class FederationConfig:
    N: int = field(metadata=_at_least(1))
    rounds: int = field(metadata=_at_least(0))
    sample_count: int
    partition: str = field(default="dirichlet", metadata=_one_of(PARTITIONS))
    alpha: float = field(default=1.0, metadata=_POSITIVE)
    budgets: list[float] | None = None
    Q: int | None = None

    def resolved_sample_count(self) -> int:
        # kept only for the benchmark worker under perfbench/, which still calls it
        return self.sample_count


@dataclass
class ChainConfig:
    lam: float = field(default=StageLossConfig.lam, metadata={"json": "lambda", **_at_least(0)})
    T: float | None = field(default=None, metadata=_rule(lambda x: 0.0 < x <= 1.0,
                                                         "must lie in (0, 1]"))
    L_start: int | None = None
    lr: float = field(default=0.1, metadata=_at_least(0))
    local_steps: int = field(default=4, metadata=_at_least(1))
    batch: int = field(default=32, metadata=_at_least(1))


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
    mode: str = field(default="chainfed", metadata=_one_of(RUN_MODES))
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


def _rule_problems(cfg, prefix: str = ""):
    """Every set field of `cfg` (recursively) that fails the rule it declares."""
    for f in fields(cfg):
        value, where = getattr(cfg, f.name), prefix + _json_key(f)
        if is_dataclass(value):
            yield from _rule_problems(value, where + ".")
        elif value is not None and "rule" in f.metadata:
            test, says = f.metadata["rule"]
            if not test(value):
                yield f"{where}: {says}, got {value!r}"


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError([f"top level: expected an object, got {type(raw).__name__}"])
    problems: list[str] = []
    cfg = _parse(ExperimentConfig, dict(raw), "", problems)
    if problems:
        raise ConfigError(problems)
    problems.extend(_rule_problems(cfg))
    model, data, federation, chain = cfg.model, cfg.data, cfg.federation, cfg.chain

    if not 1 <= model.v < max(model.u, 2):
        problems.append(f"model.v: bottleneck must satisfy 1 <= v < u, got v={model.v}, u={model.u}")

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

    if chain.T is not None and chain.L_start is not None:
        problems.append("chain.T / chain.L_start: exactly one may be set")
    if chain.T is None and chain.L_start is None:
        chain.T = DEFAULT_THRESHOLD
    if chain.L_start is not None and not 1 <= chain.L_start <= model.L:
        problems.append(f"chain.L_start: must lie in [1, L={model.L}], got {chain.L_start}")

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
