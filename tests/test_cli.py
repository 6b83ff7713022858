"""CLI tests: subcommands, overrides, and exit-code mapping."""
import json

import numpy as np
import pytest

import fedchain.checkpoint
import fedchain.federation
from fedchain.checkpoint import load_checkpoint
from fedchain.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from fedchain.config import load_config
from fedchain.federation import MEMORY_PRESETS, RUN_MODES, run, setup


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "model": {"L": 3, "u": 8, "v": 3, "seed": 5},
        "data": {"kind": "cluster-tokens", "M": 80, "seq_len": 6, "vocab": 13,
                 "eval_fraction": 0.25},
        "federation": {"N": 3, "rounds": 2, "partition": "iid",
                       "sample_count": 2, "Q": 2},
        "chain": {"lambda": 0.2, "L_start": 1, "lr": 0.05, "local_steps": 1,
                  "batch": 16},
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


def _stderr_summary(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.err.strip().split("\n")[-1]), captured.out


def test_run_streams_metrics_and_summary(config_path, capsys, tmp_path):
    out = tmp_path / "metrics.jsonl"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == EXIT_OK
    summary, stdout = _stderr_summary(capsys)
    assert summary["mode"] == "chainfed"
    assert summary["rounds"] == 2
    assert summary["Q"] == 2
    lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
    assert len(lines) == 2
    assert lines[0]["round"] == 1 and lines[0]["window"] == [1, 2]
    assert stdout == ""  # records went to the file, not stdout


def test_run_prints_records_without_out_path(config_path, capsys):
    code = main(["run", "--config", str(config_path), "--rounds", "1"])
    assert code == EXIT_OK
    summary, stdout = _stderr_summary(capsys)
    assert summary["rounds"] == 1
    records = [json.loads(l) for l in stdout.strip().split("\n")]
    assert len(records) == 1 and records[0]["round"] == 1


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("rounds", [0, 1])
def test_run_summary_is_strict_json(config_path, capsys, rounds):
    assert main(["run", "--config", str(config_path), "--rounds", str(rounds)]) == EXIT_OK
    line = capsys.readouterr().err.strip().split("\n")[-1]
    summary = json.loads(line, parse_constant=_not_json)  # NaN and Infinity raise
    assert summary["rounds"] == rounds
    if rounds:
        assert 0.0 <= summary["final_accuracy"] <= 1.0
    else:
        assert summary["final_accuracy"] is None


def test_run_seed_override_changes_results(config_path, capsys):
    main(["run", "--config", str(config_path), "--rounds", "1"])
    first, _ = _stderr_summary(capsys)
    main(["run", "--config", str(config_path), "--rounds", "1", "--seed", "99"])
    second, _ = _stderr_summary(capsys)
    assert first["rounds"] == second["rounds"] == 1


def test_run_writes_checkpoint(config_path, capsys, tmp_path):
    base = tmp_path / "final"
    code = main(["run", "--config", str(config_path), "--rounds", "1",
                 "--checkpoint", str(base)])
    assert code == EXIT_OK
    stack = load_checkpoint(base)
    assert stack.L == 3
    capsys.readouterr()


def test_baseline_modes(config_path, capsys):
    code = main(["baseline", "--config", str(config_path), "--mode", "linear_probing",
                 "--rounds", "1"])
    assert code == EXIT_OK
    summary, _ = _stderr_summary(capsys)
    assert summary["mode"] == "linear_probing"
    with pytest.raises(SystemExit) as exc:  # chainfed is not a baseline
        main(["baseline", "--config", str(config_path), "--mode", "chainfed"])
    assert exc.value.code == 2


@pytest.mark.parametrize("mode", list(RUN_MODES))
def test_every_run_mode_runs_through_the_cli(config_path, capsys, mode):
    command = ["run"] if mode == "chainfed" else ["baseline", "--mode", mode]
    assert main([*command, "--config", str(config_path), "--rounds", "1"]) == EXIT_OK
    summary, _ = _stderr_summary(capsys)
    assert summary["mode"] == mode and summary["rounds"] == 1


@pytest.mark.parametrize("mode", ["full_adapters", "linear_probing"])
def test_baselines_ignore_budgets_and_train_the_whole_stack(config_path, tmp_path, capsys, mode):
    raw = json.loads(config_path.read_text())
    raw["federation"].update(Q=None, budgets=[1e3, 1e3, 1e3])  # below every chain window's peak
    path = tmp_path / "tiny_budgets.json"
    path.write_text(json.dumps(raw))
    assert main(["baseline", "--mode", mode, "--config", str(path), "--rounds", "1"]) == EXIT_OK
    summary, stdout = _stderr_summary(capsys)
    assert summary["L_start"] == 1 and summary["Q"] == raw["model"]["L"]
    assert json.loads(stdout)["window"] == [1, raw["model"]["L"]]


def test_profile_reports_scores_and_start_layer(config_path, capsys):
    code = main(["profile", "--config", str(config_path)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["scores"]) == 3
    assert payload["threshold"] is None  # config pins L_start instead
    assert payload["start_layer"] == 1
    assert payload["sample_weight"] > 0


def test_profile_agrees_with_run(tmp_path, capsys):
    # non-IID shards: profiling each client's shard differs from profiling the pooled data
    cfg = {
        "model": {"L": 6, "u": 16, "v": 4, "seed": 0},
        "data": {"kind": "cluster-tokens", "M": 400, "seq_len": 8, "vocab": 30},
        "federation": {"N": 8, "rounds": 0, "partition": "dirichlet", "alpha": 0.1,
                       "sample_count": 4, "Q": 2},
        "chain": {"T": 0.93},
    }
    path = tmp_path / "noniid.json"
    path.write_text(json.dumps(cfg))
    assert main(["profile", "--config", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    result = run(load_config(path))
    assert payload["scores"] == result.profile.scores
    assert payload["start_layer"] == result.L_start


ONE_ROW_SHARDS = {
    "model": {"L": 3, "u": 8, "v": 2},
    "data": {"kind": "cluster-tokens", "M": 100, "seq_len": 1},
    "federation": {"N": 40, "partition": "dirichlet", "alpha": 0.05, "sample_count": 2,
                   "Q": 1, "rounds": 1},
    "chain": {"T": 0.9},
}


def _one_row_shards(tmp_path, **federation):
    raw = json.loads(json.dumps(ONE_ROW_SHARDS))
    raw["federation"].update(federation)
    path = tmp_path / "one_row.json"
    path.write_text(json.dumps(raw))
    return path


def test_run_skips_one_row_clients_when_profiling(tmp_path, capsys):
    # Dirichlet(0.05) over 40 clients leaves several with a single one-token row,
    # one CKA row each; CKA needs 2, so those clients sit out phase 1
    path = _one_row_shards(tmp_path)
    exp = setup(load_config(path))
    assert min(len(c.shard) for c in exp.clients) == 1
    assert main(["run", "--config", str(path)]) == EXIT_OK
    summary, _ = _stderr_summary(capsys)
    assert summary["rounds"] == 1 and 1 <= summary["L_start"] <= 3


def test_profile_skips_one_row_clients(tmp_path, capsys):
    path = _one_row_shards(tmp_path)
    assert main(["profile", "--config", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    exp = setup(load_config(path))
    assert payload["sample_weight"] == sum(len(c.shard) for c in exp.clients if len(c.shard) >= 2)
    assert payload["start_layer"] == run(load_config(path)).L_start
    # an IID split of the 80 training rows over 80 clients leaves nobody to profile
    path = _one_row_shards(tmp_path, N=80, partition="iid")
    for command in ("run", "profile"):
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert "2 activation rows" in capsys.readouterr().err


def test_report_memory_preset(capsys):
    code = main(["report-memory", "--preset", "llama2-7b-shaped", "--q", "6", "7", "8"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"]["L"] == 32
    assert payload["assumptions"]["batch"] == 16
    assert set(payload["chain"]) == {"6", "7", "8"}
    reductions = [payload["reduction"][q] for q in ("6", "7", "8")]
    assert all(0.0 < r < 1.0 for r in reductions)
    assert reductions[0] > reductions[1] > reductions[2]  # wider window saves less
    full = payload["full"]
    assert full["peak_bytes"] == sum(full[k] for k in (
        "params_bytes", "activation_bytes", "adapter_and_grad_bytes", "optimizer_bytes"))
    assert "io_note" in payload


def test_report_memory_from_config(config_path, capsys, tmp_path):
    out = tmp_path / "mem.json"
    code = main(["report-memory", "--config", str(config_path), "--q", "1", "2",
                 "--batch", "4", "--seq-len", "6", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["dims"]["L"] == 3 and payload["assumptions"]["batch"] == 4
    assert payload["dims"]["vocab"] == 13  # the config's data, as `run` sees it
    # a config without Q sweeps every window size at its own batch and sequence length
    raw = json.loads(config_path.read_text())
    raw["federation"].update(Q=None, budgets=[1e9] * 3)
    config_path.write_text(json.dumps(raw))
    assert main(["report-memory", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert list(payload["chain"]) == ["1", "2", "3"]
    assert (payload["assumptions"]["batch"], payload["assumptions"]["seq_len"]) == (16, 6)


@pytest.mark.parametrize("data", [
    {"kind": "cluster-tokens", "M": 90, "seq_len": 5, "vocab": 17},
    {"kind": "cluster-tokens", "M": 90, "seq_len": 1},
])
def test_report_memory_prices_the_model_run_trains(tmp_path, capsys, data):
    raw = {
        "model": {"L": 3, "u": 8, "v": 2, "classes": 3 if "vocab" in data else 2, "seed": 1},
        "data": data,
        "federation": {"N": 3, "rounds": 1, "partition": "iid", "sample_count": 2, "Q": 2},
        "chain": {"L_start": 1, "local_steps": 1, "batch": 8},
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw))
    result = run(load_config(path))
    seq_len = data["seq_len"]
    assert main(["report-memory", "--config", str(path), "--batch", "8",
                 "--seq-len", str(seq_len), "--q", str(result.Q)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["chain"][str(result.Q)]["peak_bytes"] == result.records[0].peak_mem_bytes
    # with no flags, batch, sequence length and Q come from the config and its data
    assert main(["report-memory", "--config", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["chain"]) == ["2"]
    assert payload["chain"]["2"]["peak_bytes"] == result.records[0].peak_mem_bytes


def test_report_memory_prices_the_window_run_trains_above_a_pinned_start(tmp_path, capsys):
    # from L_start = L only one layer is left to train, so `run` trains Q = 1, not the config's 2
    raw = {
        "model": {"L": 3, "u": 8, "v": 2, "classes": 2, "seed": 1},
        "data": {"kind": "cluster-tokens", "M": 90, "seq_len": 5, "vocab": 17},
        "federation": {"N": 3, "rounds": 1, "partition": "iid", "sample_count": 2, "Q": 2},
        "chain": {"L_start": 3, "local_steps": 1, "batch": 8},
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw))
    result = run(load_config(path))
    assert (result.Q, result.records[0].peak_mem_bytes) == (1, 3336)
    assert main(["report-memory", "--config", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["chain"]) == ["1"]
    assert payload["chain"]["1"]["peak_bytes"] == 3336


def test_report_memory_never_builds_the_stack(tmp_path, capsys, monkeypatch):
    # a preset-sized stack would not fit in memory; only its shape is priced
    raw = {
        "model": {"L": 32, "u": 4096, "v": 64, "kind": "attn-lite", "ffn": 11008},
        "data": {"kind": "cluster-tokens", "M": 20, "seq_len": 4},
        "federation": {"N": 2, "rounds": 1, "sample_count": 1, "Q": 1},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))

    def refuse(*args, **kwargs):
        raise AssertionError("report-memory built a stack")

    monkeypatch.setattr(fedchain.federation, "build_stack", refuse)
    assert main(["report-memory", "--config", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    preset = MEMORY_PRESETS["llama2-7b-shaped"]
    assert {k: payload["dims"][k] for k in ("L", "u", "v", "kind", "ffn")} == {
        "L": preset.L, "u": preset.u, "v": preset.v, "kind": preset.kind, "ffn": preset.ffn}


def test_report_memory_argument_errors(config_path, capsys):
    assert main(["report-memory"]) == EXIT_CONFIG
    assert main(["report-memory", "--preset", "llama2-7b-shaped",
                 "--config", str(config_path)]) == EXIT_CONFIG
    assert main(["report-memory", "--preset", "llama2-7b-shaped", "--q", "99"]) == EXIT_CONFIG
    capsys.readouterr()


def test_config_errors_exit_2(config_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    raw = json.loads(config_path.read_text())
    raw["chain"]["T"] = 0.8  # both T and L_start
    both = tmp_path / "both.json"
    both.write_text(json.dumps(raw))
    assert main(["run", "--config", str(both)]) == EXIT_CONFIG
    assert main(["run", "--config", str(config_path), "--rounds", "-3"]) == EXIT_CONFIG
    raw = json.loads(config_path.read_text())
    raw["model"].update(u=1, v=1)
    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps(raw))
    assert main(["run", "--config", str(narrow)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "fedchain:" in err
    # checks the library makes while setting up and profiling, for run and profile alike
    raw = json.loads(config_path.read_text())
    raw["federation"].update(Q=None, budgets=[1e4, 1e9, 1e9])  # below the profiling floor
    raw["chain"].update(L_start=None, T=0.9)
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(raw))
    raw = json.loads(config_path.read_text())
    raw["federation"]["N"] = 70  # more clients than training rows
    crowded = tmp_path / "crowded.json"
    crowded.write_text(json.dumps(raw))
    for path, message in ((tight, "below single-layer floor"), (crowded, "cannot split")):
        for command in ("run", "profile"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "profile", "report-memory"])
def test_a_bad_seed_or_signal_exits_2_naming_the_field(config_path, tmp_path, capsys, command):
    for section, key, value in [("model", "seed", -1), ("data", "signal", 0)]:
        raw = json.loads(config_path.read_text())
        raw[section][key] = value
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert f"{section}.{key}: must" in capsys.readouterr().err
    if command != "report-memory":  # which takes no --seed
        assert main([command, "--config", str(config_path), "--seed", "-1"]) == EXIT_CONFIG
        assert "model.seed: must be >= 0" in capsys.readouterr().err


def test_missing_files_exit_4(config_path, tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nowhere.json")]) == EXIT_IO
    raw = json.loads(config_path.read_text())
    raw["data"] = {"source": "file", "path": str(tmp_path / "missing.jsonl"),
                   "vocab_path": str(tmp_path / "missing_vocab.json"), "seq_len": 6}
    cfg2 = tmp_path / "filedata.json"
    cfg2.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg2)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "i/o failure" in err


@pytest.mark.parametrize("bad", ["data", "vocab", "config"])
def test_a_file_that_is_not_utf8_exits_citing_its_path(config_path, tmp_path, capsys, bad):
    # lines end in \r\n and \r, and each file holds one 0xff byte where `bad` says
    data, vocab, cfg = tmp_path / "data.jsonl", tmp_path / "vocab.json", tmp_path / "file.json"
    name = b"\xff" if bad == "data" else b"b"
    data.write_bytes(b'{"text": "a b", "label": 0}\r\n{"text": "b a", "label": 1}\r'
                     b'{"text": "a ' + name + b'", "label": 0}\n')
    vocab.write_bytes(b'{"a": 2, "' + (b"\xff" if bad == "vocab" else b"b") + b'": 3}')
    raw = json.loads(config_path.read_text())
    raw["data"] = {"source": "file", "path": str(data), "vocab_path": str(vocab), "seq_len": 6}
    text = json.dumps(raw).encode()
    cfg.write_bytes(text.replace(b'"iid"', b'"iid\xff"') if bad == "config" else text)
    code = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    cited = {"data": f"i/o failure: {data}:3: not UTF-8", "vocab": f"i/o failure: {vocab}: not UTF-8",
             "config": f"fedchain: invalid config:\n  {cfg}: not UTF-8"}[bad]
    assert code == (EXIT_CONFIG if bad == "config" else EXIT_IO)
    assert cited in err, err


def test_a_checkpoint_outside_the_f32_range_exits_3_and_keeps_the_last(config_path, tmp_path,
                                                                         capsys, monkeypatch):
    base = tmp_path / "final"
    assert main(["run", "--config", str(config_path), "--rounds", "1",
                 "--checkpoint", str(base)]) == EXIT_OK
    saved = [(tmp_path / f"final.{ext}").read_bytes() for ext in ("manifest", "blob")]
    save = fedchain.checkpoint.save_checkpoint

    def diverged(stack, path):  # finite in f64, beyond the f32 range
        stack.final_head.W.data = np.full(stack.final_head.W.shape, 1e39)
        save(stack, path)

    monkeypatch.setattr(fedchain.checkpoint, "save_checkpoint", diverged)
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--rounds", "1",
                 "--checkpoint", str(base)]) == EXIT_NUMERIC
    assert "numeric failure: final_head.W" in capsys.readouterr().err
    assert [(tmp_path / f"final.{ext}").read_bytes() for ext in ("manifest", "blob")] == saved
    assert load_checkpoint(base).L == 3


def test_numeric_blowup_exits_3(config_path, tmp_path, capsys):
    raw = json.loads(config_path.read_text())
    raw["chain"]["lr"] = 1e160  # divergent step overflows the next forward pass
    raw["chain"]["local_steps"] = 2
    cfg2 = tmp_path / "blowup.json"
    cfg2.write_text(json.dumps(raw))
    with np.errstate(all="ignore"):
        code = main(["run", "--config", str(cfg2)])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_missing_required_args_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
