"""README's Quick start config parses, and each of its `fedchain` commands runs on
that config against the package in src/."""
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fedchain.config import parse_config

ROOT = Path(__file__).resolve().parent.parent
QUICK_START = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", QUICK_START, re.S | re.M)  # (language, body)
(CONFIG,) = [json.loads(body) for language, body in BLOCKS if language == "json"]
COMMANDS = [shlex.split(line) for _, body in BLOCKS
            for line in body.splitlines() if line.startswith("fedchain ")]


def test_the_quick_start_config_parses():
    parse_config(CONFIG)


def test_the_quick_start_shows_every_subcommand():
    assert sorted(command[1] for command in COMMANDS) == ["baseline", "profile",
                                                           "report-memory", "run"]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[1])
def test_a_quick_start_command_runs(tmp_path, command):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    args = command[1:]
    if args[0] in ("run", "baseline"):
        args += ["--rounds", "1"]  # the config's 150 rounds check nothing more here
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "fedchain.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
