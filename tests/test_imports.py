"""numpy stays the only runtime dependency, and a run leaves numpy.ma unimported."""
import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedchain"


def _imported_roots(path):
    """The top-level name of every absolute import in the file at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    allowed = set(sys.stdlib_module_names) | {"numpy", "fedchain"}
    outside = {(path.name, root) for path in files for root in _imported_roots(path)
               if root not in allowed}
    assert not outside


# walk_input and dirichlet_partition avoid np.unique, which imports numpy.ma
TINY_RUN = """
import sys
from fedchain.config import parse_config
from fedchain.federation import run
cfg = parse_config({
    "model": {"L": 3, "u": 8, "v": 2, "kind": "mlp", "seed": 0},
    "data": {"kind": "cluster-tokens", "M": 120, "seq_len": 4, "vocab": 12},
    "federation": {"N": 3, "rounds": 3, "partition": "dirichlet", "alpha": 0.5,
                   "sample_count": 2, "Q": 2},
    "chain": {"lambda": 0.2, "T": 0.97, "lr": 0.5, "local_steps": 2, "batch": 8},
})
run(cfg)
run(cfg, mode="no_gpo")
print("numpy.ma" in sys.modules)
"""


def test_a_run_leaves_numpy_ma_unimported():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", TINY_RUN], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["False"]
