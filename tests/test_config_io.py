"""Config parsing, synthetic data, JSONL loading, and checkpoint round trips."""
import builtins
import dataclasses
import errno
import json
import typing
import warnings

import numpy as np
import pytest

import fedchain.checkpoint
from fedchain.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from fedchain.config import (
    ConfigError,
    ExperimentConfig,
    config_to_dict,
    load_config,
    parse_config,
)
from fedchain.data import (
    DataFormatError,
    Dataset,
    deep_readout_dataset,
    load_jsonl_dataset,
    synth_dataset,
    train_eval_split,
)
from fedchain.model import StackDims, build_stack, named_parameters
from fedchain.tensor import NumericError

from oracles import train_depth2_reference

MINIMAL = {
    "model": {"L": 4, "u": 8, "v": 3},
    "data": {},
    "federation": {"N": 4, "rounds": 2, "sample_count": 2, "Q": 2},
}


def _raw(**over):
    raw = json.loads(json.dumps(MINIMAL))
    for section, fields in over.items():
        if isinstance(fields, dict):
            raw.setdefault(section, {}).update(fields)
        else:
            raw[section] = fields
    return raw


# ---------------------------------------------------------------- config


def test_minimal_config_gets_documented_defaults():
    cfg = parse_config(_raw())
    assert cfg.chain.lam == 0.2
    assert cfg.chain.T == 0.8  # applied only when neither T nor L_start is given
    assert cfg.chain.L_start is None
    assert cfg.mode == "chainfed"
    assert cfg.federation.partition == "dirichlet"
    assert cfg.federation.alpha == 1.0
    assert cfg.data.source == "synthetic"


def test_config_exactly_one_invariants():
    with pytest.raises(ConfigError, match="T / chain.L_start"):
        parse_config(_raw(chain={"T": 0.8, "L_start": 2}))
    with pytest.raises(ConfigError, match="budgets / federation.Q"):
        parse_config(_raw(federation={"budgets": [1e9, 1e9, 1e9, 1e9], "Q": 2}))
    with pytest.raises(ConfigError, match="budgets / federation.Q"):
        parse_config(_raw(federation={"Q": None}))
    raw = _raw()
    del raw["federation"]["sample_count"]
    with pytest.raises(ConfigError, match=r"federation\.sample_count: required"):
        parse_config(raw)
    with pytest.raises(ConfigError, match=r"federation\.sample_fraction: unknown field"):
        parse_config(_raw(federation={"sample_fraction": 0.5}))


def test_config_unknown_fields_are_cited_by_path():
    with pytest.raises(ConfigError, match=r"model\.depth: unknown field"):
        parse_config(_raw(model={"depth": 12}))
    with pytest.raises(ConfigError, match=r"top level\.extras"):
        parse_config(_raw(extras={"a": 1}))


def test_config_collects_every_problem():
    raw = _raw(model={"v": 99}, federation={"rounds": -1}, chain={"lambda": -2})
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    msg = str(exc.value)
    assert "model.v" in msg and "federation.rounds" in msg and "chain.lambda" in msg
    assert len(exc.value.problems) >= 3


def test_config_field_validation():
    for over, needle in [
        (dict(model={"kind": "conv"}), "model.kind"),
        (dict(model={"vocab": 10, "feature_dim": 3}), r"model\.vocab: unknown field"),
        (dict(model={"adapter_activation": "gelu"}), r"model\.adapter_activation: unknown field"),
        (dict(data={"noise": 0.12}), r"data\.noise: unknown field"),
        (dict(model={"classes": 1}), "model.classes"),
        (dict(model={"init_scale": 0}), "model.init_scale"),
        (dict(model={"init_scale": float("inf")}), "model.init_scale"),
        (dict(model={"init_scale": float("nan")}), "model.init_scale"),
        (dict(model={"init_scale": 10**400}), "model.init_scale: expected finite number"),
        (dict(data={"eval_fraction": 1.0}), "data.eval_fraction"),
        (dict(data={"kind": "spirals"}), "data.kind"),
        (dict(data={"kind": "two-moons-seq"}), "data.kind"),
        (dict(federation={"alpha": -1}), "federation.alpha"),
        (dict(federation={"partition": "sharded"}), "federation.partition"),
        (dict(federation={"Q": 9}), "federation.Q"),
        (dict(federation={"sample_count": 5}), "federation.sample_count"),
        (dict(chain={"T": 1.5}), "chain.T"),
        (dict(chain={"L_start": 9, "T": None}), "chain.L_start"),
        (dict(chain={"lr": -0.1}), "chain.lr"),
        (dict(mode="fedavg"), "mode"),
        (dict(model={"u": 1, "v": 1}), "model.u"),
        (dict(model={"ffn": -4}), "model.ffn"),
        (dict(model={"seed": -1}), r"model\.seed: must be >= 0, got -1"),
        (dict(data={"signal": 0}), r"data\.signal: must lie in \(0, 1\], got 0\.0"),
        (dict(data={"signal": 1.5}), r"data\.signal: must lie in \(0, 1\]"),
        (dict(model={"seed": None}), "model.seed"),
        (dict(model={"ffn": None}), "model.ffn"),
        (dict(data={"M": None}), "data.M"),
        (dict(data={"seq_len": None}), "data.seq_len"),
        (dict(data={"eval_fraction": None}), "data.eval_fraction"),
        (dict(data={"vocab": None}), "data.vocab"),
        (dict(data={"signal": None}), "data.signal"),
        (dict(federation={"alpha": None}), "federation.alpha"),
        (dict(chain={"local_steps": None}), "chain.local_steps"),
        (dict(chain={"batch": None}), "chain.batch"),
        (dict(chain={"aux_adapters_trainable": None}), "chain.aux_adapters_trainable"),
    ]:
        with pytest.raises(ConfigError, match=needle):
            parse_config(_raw(**over))


def test_only_the_synthetic_source_checks_signal_and_M():
    parse_config(_raw(data={"source": "file", "path": "d.jsonl", "vocab_path": "v.json",
                            "signal": 0, "M": 0}))


# one violating, well-typed value for each field that declares a rule
RULE_VIOLATIONS = {
    "model.L": 0, "model.u": 1, "model.kind": "conv", "model.ffn": -1, "model.classes": 1,
    "model.seed": -1, "model.init_scale": -0.5,
    "data.source": "s3", "data.seq_len": 0, "data.eval_fraction": 0.0,
    "federation.N": 0, "federation.rounds": -1, "federation.partition": "sharded",
    "federation.alpha": 0.0,
    "chain.lambda": -0.1, "chain.T": 0.0, "chain.lr": -0.1, "chain.local_steps": 0,
    "chain.batch": 0,
    "mode": "fedavg",
}


def _declared_rules(cls=ExperimentConfig, path=""):
    """(JSON path, field) for every field under `cls` whose metadata declares a rule."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        key = f.metadata.get("json", f.name)
        where = f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _declared_rules(hints[f.name], where)
        elif "rule" in f.metadata:
            yield where, f


def test_every_declared_field_rule_is_checked_and_its_default_passes():
    declared = dict(_declared_rules())
    assert set(RULE_VIOLATIONS) == set(declared)
    for where, value in RULE_VIOLATIONS.items():
        test, _ = declared[where].metadata["rule"]
        assert not test(value), where
        section, _, key = where.rpartition(".")
        raw = _raw(**{section: {key: value}}) if section else _raw(**{key: value})
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert any(p.startswith(f"{where}: ") for p in exc.value.problems), exc.value.problems
    for where, f in declared.items():
        test, _ = f.metadata["rule"]
        if f.default is not dataclasses.MISSING and f.default is not None:
            assert test(f.default), where


def test_config_budget_per_client_check():
    with pytest.raises(ConfigError, match="one budget per client"):
        parse_config(_raw(federation={"Q": None, "budgets": [1e9, 1e9]}))
    with pytest.raises(ConfigError, match="positive"):
        parse_config(_raw(federation={"Q": None, "budgets": [1e9, -1, 1e9, 1e9]}))
    for bad in (float("nan"), float("-inf")):
        with pytest.raises(ConfigError, match="positive"):
            parse_config(_raw(federation={"Q": None, "budgets": [1e9, bad, 1e9, 1e9]}))
    # an infinite budget is no limit, which partition_layers handles
    inf = float("inf")
    assert parse_config(_raw(federation={"Q": None, "budgets": [inf] * 4})).federation.budgets \
        == [inf] * 4


def test_config_round_trip_is_a_fixpoint():
    cfg = parse_config(_raw(chain={"lambda": 0.4, "L_start": 2},
                            federation={"partition": "iid"},
                            model={"seed": 7, "kind": "attn-lite"}))
    snapshot = config_to_dict(cfg)
    assert parse_config(snapshot) == cfg
    assert config_to_dict(parse_config(snapshot)) == snapshot
    assert snapshot["chain"]["lambda"] == 0.4


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_raw()))
    assert load_config(good).model.L == 4


# ---------------------------------------------------------------- synthetic data


def test_cluster_tokens_shape_balance_determinism():
    ds = synth_dataset("cluster-tokens", M=101, C=3, seq_len=12, seed=5)
    assert ds.x.shape == (101, 12) and ds.x.dtype == np.int64
    assert ds.vocab == 50
    counts = np.bincount(ds.y, minlength=3)
    assert counts.max() - counts.min() <= 1  # round-robin balance
    assert ds.x.min() >= 2 and ds.x.max() < 50
    again = synth_dataset("cluster-tokens", M=101, C=3, seq_len=12, seed=5)
    assert np.array_equal(ds.x, again.x) and np.array_equal(ds.y, again.y)
    other = synth_dataset("cluster-tokens", M=101, C=3, seq_len=12, seed=6)
    assert not np.array_equal(ds.x, other.x)


def test_cluster_tokens_learnable_by_independent_classifier():
    ds = synth_dataset("cluster-tokens", M=2000, C=2, seq_len=16, seed=0)
    acc = train_depth2_reference(ds.x, ds.y, vocab=ds.vocab, seed=0)
    assert acc >= 0.99


def test_synth_dataset_validation():
    with pytest.raises(ValueError):
        synth_dataset("cluster-tokens", M=1, C=2, seq_len=4, seed=0)
    for kind in ("two-moons-seq", "spirals"):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            synth_dataset(kind, M=10, C=2, seq_len=4, seed=0)
    with pytest.raises(ValueError):
        synth_dataset("cluster-tokens", M=10, C=2, seq_len=4, seed=0, vocab=4)
    with pytest.raises(ValueError):
        synth_dataset("cluster-tokens", M=10, C=2, seq_len=4, seed=0, signal=0.0)


def test_train_eval_split_disjoint_cover():
    train, evl = train_eval_split(100, 0.2, seed=0)
    assert len(train) == 80 and len(evl) == 20
    assert len(np.intersect1d(train, evl)) == 0
    assert len(np.union1d(train, evl)) == 100
    t2, e2 = train_eval_split(100, 0.2, seed=0)
    assert np.array_equal(train, t2) and np.array_equal(evl, e2)
    with pytest.raises(ValueError):
        train_eval_split(100, 0.0, seed=0)
    with pytest.raises(ValueError):
        train_eval_split(2, 0.9, seed=0)


def test_deep_readout_dataset_balanced_and_deterministic():
    stack = build_stack(StackDims(L=3, u=8, v=3, C=2, kind="mlp", vocab=17), seed=0)
    ds = deep_readout_dataset(stack, M=120, seq_len=6, seed=4)
    assert ds.C == 2
    assert min(np.bincount(ds.y, minlength=2)) >= 30
    assert ds.x.min() >= 2
    again = deep_readout_dataset(stack, M=120, seq_len=6, seed=4)
    assert np.array_equal(ds.y, again.y)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 2), dtype=np.int64), y=np.zeros(4, dtype=np.int64), C=2, vocab=5)


# ---------------------------------------------------------------- jsonl loading


def _write_jsonl(tmp_path, lines, vocab=None):
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(lines) + "\n")
    vpath = tmp_path / "vocab.json"
    vpath.write_text(json.dumps(vocab if vocab is not None else {"hello": 2, "world": 3, "moon": 4}))
    return data, vpath


def test_jsonl_loader_happy_path(tmp_path):
    data, vocab = _write_jsonl(tmp_path, [
        '{"text": "hello world", "label": 0}',
        "",
        '{"text": "moon moon unknowntoken hello extra tokens beyond", "label": 1}',
    ])
    ds = load_jsonl_dataset(data, vocab, seq_len=4)
    assert ds.x.shape == (2, 4)
    assert ds.x[0].tolist() == [2, 3, 0, 0]  # padded with 0
    assert ds.x[1].tolist() == [4, 4, 1, 2]  # OOV -> 1, truncated to seq_len
    assert ds.y.tolist() == [0, 1]
    assert ds.C == 2 and ds.vocab == 5


def test_jsonl_loader_respects_declared_classes(tmp_path):
    data, vocab = _write_jsonl(tmp_path, ['{"text": "hello", "label": 1}'])
    ds = load_jsonl_dataset(data, vocab, seq_len=3, n_classes=4)
    assert ds.C == 4
    with pytest.raises(DataFormatError, match=":1: label 1 out of range"):
        load_jsonl_dataset(data, vocab, seq_len=3, n_classes=1)


def test_jsonl_loader_cites_offending_line(tmp_path):
    data, vocab = _write_jsonl(tmp_path, [
        '{"text": "hello", "label": 0}',
        "{broken",
    ])
    with pytest.raises(DataFormatError, match=":2: not valid JSON"):
        load_jsonl_dataset(data, vocab, seq_len=3)
    data, vocab = _write_jsonl(tmp_path, ['{"text": "hello"}'])
    with pytest.raises(DataFormatError, match=":1:"):
        load_jsonl_dataset(data, vocab, seq_len=3)
    data, vocab = _write_jsonl(tmp_path, ['{"text": "hello", "label": -2}'])
    with pytest.raises(DataFormatError, match="non-negative"):
        load_jsonl_dataset(data, vocab, seq_len=3)
    data, vocab = _write_jsonl(tmp_path, ['{"text": 5, "label": 0}'])
    with pytest.raises(DataFormatError, match="'text' must be a string"):
        load_jsonl_dataset(data, vocab, seq_len=3)


def test_jsonl_loader_validates_vocab(tmp_path):
    data, vocab = _write_jsonl(tmp_path, ['{"text": "hello", "label": 0}'],
                               vocab={"hello": 1})
    with pytest.raises(DataFormatError, match="reserved"):
        load_jsonl_dataset(data, vocab, seq_len=3)
    bad = tmp_path / "bad_vocab.json"
    bad.write_text("[1, 2]")
    with pytest.raises(DataFormatError, match="token-to-id"):
        load_jsonl_dataset(data, bad, seq_len=3)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    good_vocab = tmp_path / "good_vocab.json"
    good_vocab.write_text(json.dumps({"hello": 2}))
    with pytest.raises(DataFormatError, match="no samples"):
        load_jsonl_dataset(empty, good_vocab, seq_len=3)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_is_f32_exact(tmp_path):
    dims = StackDims(L=3, u=8, v=3, C=4, kind="attn-lite", ffn=12, vocab=9)
    stack = build_stack(dims, seed=21)
    stack.units[1].adapter.up.data[:] = 0.125  # exact in f32
    base = tmp_path / "ckpt"
    save_checkpoint(stack, base)
    loaded = load_checkpoint(base)
    assert loaded.dims == dims
    src, dst = named_parameters(stack), named_parameters(loaded)
    assert set(src) == set(dst)
    for name in src:
        want = src[name].data.astype("<f4").astype(np.float64)
        assert np.array_equal(dst[name].data, want), name
    assert np.array_equal(loaded.units[1].adapter.up.data, np.full((3, 8), 0.125))


def test_checkpoint_bytes_are_deterministic(tmp_path):
    stack = build_stack(StackDims(L=2, u=8, v=2, C=2, kind="mlp", vocab=7), seed=3)
    save_checkpoint(stack, tmp_path / "a")
    save_checkpoint(stack, tmp_path / "b")
    assert (tmp_path / "a.blob").read_bytes() == (tmp_path / "b.blob").read_bytes()
    assert (tmp_path / "a.manifest").read_text() == (tmp_path / "b.manifest").read_text()


def test_checkpoint_refuses_values_outside_the_f32_range_before_writing(tmp_path):
    stack = build_stack(StackDims(L=2, u=8, v=2, C=2, kind="mlp", vocab=7), seed=3)
    base = tmp_path / "ckpt"
    save_checkpoint(stack, base)
    files = sorted(tmp_path.iterdir())
    saved = [f.read_bytes() for f in files]
    stack.final_head.W.data[0, 0] = -3.4e38  # the edge of the f32 range saves
    save_checkpoint(stack, tmp_path / "edge")
    assert load_checkpoint(tmp_path / "edge").final_head.W.data[0, 0] == np.float32(-3.4e38)
    stack.final_head.W.data[0, 0] = 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nor does the cast warn on the way
        with pytest.raises(NumericError, match="final_head.W"):
            save_checkpoint(stack, base)
    assert [f.read_bytes() for f in files] == saved and sorted(tmp_path.glob("ckpt*")) == files
    assert load_checkpoint(base).final_head.W.data[0, 0] != 1e39


def test_checkpoint_detects_truncated_blob(tmp_path):
    stack = build_stack(StackDims(L=2, u=8, v=2, C=2, kind="mlp", vocab=7), seed=3)
    base = tmp_path / "ckpt"
    save_checkpoint(stack, base)
    blob = (tmp_path / "ckpt.blob").read_bytes()
    (tmp_path / "ckpt.blob").write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="blob"):
        load_checkpoint(base)


def test_checkpoint_detects_manifest_tampering(tmp_path):
    stack = build_stack(StackDims(L=2, u=8, v=2, C=2, kind="mlp", vocab=7), seed=3)
    base = tmp_path / "ckpt"
    save_checkpoint(stack, base)
    manifest = (tmp_path / "ckpt.manifest").read_text()

    (tmp_path / "ckpt.manifest").write_text(manifest.replace("final_head.W", "stray.W"))
    with pytest.raises(CheckpointError, match="unknown tensor|missing"):
        load_checkpoint(base)

    (tmp_path / "ckpt.manifest").write_text(manifest.replace("8x2", "2x8", 1))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(base)

    (tmp_path / "ckpt.manifest").write_text("# other format v9\n")
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(base)

    lines = manifest.strip().split("\n")
    (tmp_path / "ckpt.manifest").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint(base)

    # non-integer header field, shape and offset; an eps no layer norm uses, and an
    # activation no adapter uses
    for bad in (manifest.replace(" L=2 ", " L=x ", 1), manifest.replace("\t8x2\t", "\t9xq\t", 1),
                manifest.replace("\tf32\t0\n", "\tf32\tabc\n", 1),
                manifest.replace(" eps=1e-05\n", " eps=1e-06\n", 1),
                manifest.replace(" adapter_act=gelu ", " adapter_act=relu ", 1)):
        assert bad != manifest
        (tmp_path / "ckpt.manifest").write_text(bad)
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(base)


def test_checkpoint_rejects_what_save_never_writes(tmp_path):
    stack = build_stack(StackDims(L=2, u=8, v=2, C=2, kind="mlp", vocab=7), seed=3)
    base = tmp_path / "ckpt"
    save_checkpoint(stack, base)
    manifest = (tmp_path / "ckpt.manifest").read_bytes()
    blob = (tmp_path / "ckpt.blob").read_bytes()
    name, shape, dtype, offset = manifest.split(b"\n")[2].split(b"\t")  # the second tensor
    shifted = b"\t".join((name, shape, dtype, str(int(offset) - 4).encode()))
    nan = np.array([np.nan], dtype="<f4").tobytes()
    for bad_manifest, bad_blob, needle in [
        # starts inside the tensor before it, yet within the blob
        (manifest.replace(manifest.split(b"\n")[2], shifted), blob, "offset"),
        (manifest.replace(b"final_head.W", b"final_head.\xff"), blob, "utf-8"),
        (manifest, blob[:-4] + nan, "non-finite"),
    ]:
        (tmp_path / "ckpt.manifest").write_bytes(bad_manifest)
        (tmp_path / "ckpt.blob").write_bytes(bad_blob)
        with pytest.raises(CheckpointError, match=needle):
            load_checkpoint(base)


def test_checkpoint_checks_the_blob_size_before_building(tmp_path, monkeypatch):
    stack = build_stack(StackDims(L=2, u=8, v=2, C=2, kind="mlp", vocab=7), seed=3)
    base = tmp_path / "ckpt"
    save_checkpoint(stack, base)
    manifest = (tmp_path / "ckpt.manifest").read_text()
    builds = []
    monkeypatch.setattr(fedchain.checkpoint, "build_stack",
                        lambda *a, **k: builds.append(a) or build_stack(*a, **k))
    # a header naming a larger model than the blob holds, and a truncated blob
    (tmp_path / "ckpt.manifest").write_text(manifest.replace(" u=8 ", " u=9000 ", 1))
    with pytest.raises(CheckpointError, match="blob length"):
        load_checkpoint(base)
    (tmp_path / "ckpt.manifest").write_text(manifest)
    (tmp_path / "ckpt.blob").write_bytes((tmp_path / "ckpt.blob").read_bytes()[:-1])
    with pytest.raises(CheckpointError, match="blob length"):
        load_checkpoint(base)
    assert builds == []


def test_checkpoint_header_is_pinned(tmp_path):
    stack = build_stack(StackDims(L=2, u=8, v=2, C=2, kind="mlp", vocab=7), seed=3)
    save_checkpoint(stack, tmp_path / "ckpt")
    manifest = (tmp_path / "ckpt.manifest").read_text()
    header = manifest.split("\n")[0]
    assert header == ("# fedchain-checkpoint v1 kind=mlp L=2 u=8 v=2 C=2 ffn=16 vocab=7"
                      " adapter_act=gelu eps=1e-05")
    # a checkpoint written before feature_dim left the header still loads
    older = ("# fedchain-checkpoint v1 kind=mlp L=2 u=8 v=2 C=2 ffn=16 vocab=7"
             " feature_dim=- adapter_act=gelu eps=1e-05")
    (tmp_path / "ckpt.manifest").write_text(manifest.replace(header, older, 1))
    loaded = named_parameters(load_checkpoint(tmp_path / "ckpt"))
    for name, t in named_parameters(stack).items():
        assert loaded[name].data.tobytes() == t.data.astype("<f4").astype(np.float64).tobytes()


class _FullDisk:
    """An open binary file whose writes fail, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_checkpoint_failed_save_keeps_the_previous_one(tmp_path, monkeypatch):
    first = build_stack(StackDims(L=2, u=8, v=2, C=2, kind="mlp", vocab=7), seed=3)
    base = tmp_path / "ckpt"
    save_checkpoint(first, base)

    def open_failing_blob_writes(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return _FullDisk(fh) if ".blob" in str(path) and "w" in mode else fh

    monkeypatch.setattr(fedchain.checkpoint, "open", open_failing_blob_writes, raising=False)
    second = build_stack(StackDims(L=3, u=8, v=2, C=2, kind="mlp", vocab=7), seed=4)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(second, base)
    monkeypatch.undo()

    loaded = load_checkpoint(base)
    assert loaded.L == 2
    for name, t in named_parameters(first).items():
        assert np.array_equal(named_parameters(loaded)[name].data,
                              t.data.astype("<f4").astype(np.float64)), name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.blob", "ckpt.manifest"]
