"""The library runs on numpy alone, in numpy's one BLAS thread pool.

The numpy and scipy wheels each bundle their own OpenBLAS, and each keeps its
own pool of spinning worker threads.  When calls alternate between the two
libraries, the pools stall each other: on a 2-core host (numpy 2.4.6, scipy
1.17.1), 20 scipy ``expm`` calls on a 128 x 128 matrix, each followed by 7
numpy products of the same size, took 304 ms interleaved and 33 ms with
``OPENBLAS_NUM_THREADS=1``.  Loading ``scipy.linalg`` also took about half of
the start-up of a run.  So ``src/wavelq`` imports no scipy module at all:
every factorization, product and exponential goes through numpy.  scipy stays a test dependency, as an oracle.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import wavelq

SRC = Path(wavelq.__file__).resolve().parent


def scipy_uses(tree: ast.AST):
    """The imported scipy modules and every dotted scipy name read, of one module."""
    imports, names = set(), set()
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports |= {(a.name, a.asname) for a in node.names if a.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            imports |= {(f"{node.module}.{a.name}", a.asname) for a in node.names}
        elif isinstance(node, ast.Name) and node.id == "scipy":
            while isinstance(parents.get(node), ast.Attribute):
                node = parents[node]
            names.add(ast.unparse(node))
    return imports, names


def test_the_library_names_no_scipy_module():
    uses = {}
    for path in sorted(SRC.rglob("*.py")):
        imports, names = scipy_uses(ast.parse(path.read_text(), filename=str(path)))
        if imports or names:
            uses[path.name] = (imports, names)
    assert uses == {}


def test_the_guard_sees_every_kind_of_use():
    code = ("import scipy.linalg\nimport scipy.sparse as sp\nfrom scipy.linalg import expm\n"
            "x = scipy.linalg.eigh(a)[0]\ny = scipy\n")
    imports, names = scipy_uses(ast.parse(code))
    assert imports == {("scipy.linalg", None), ("scipy.sparse", "sp"), ("scipy.linalg.expm", None)}
    assert names == {"scipy.linalg.eigh", "scipy"}


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports wavelq from this tree; its stdout."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_loads_no_scipy_module():
    out = run_python("import sys, wavelq.cli\n"
                     "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))")
    assert out.strip() == "[]"


# a finder that refuses every scipy module, installed before wavelq is imported
BLOCK_SCIPY = """
import importlib.abc, sys
class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, NoScipy())
"""

# small configs through every solve_are path: a stacked doubling run
# (synthetic and rectangle), a run with free directions split off (the star
# [1, 1, 1] on edge 0)
# and tracking
BLOCKED_CONFIGS = {
    "bounds_rectangle": {"model": {"kind": "rectangle", "a": 1.0, "b": 2.0, "max_frequency": 8.0},
                         "experiment": {"kind": "bounds"}},
    "bounds_star": {"model": {"kind": "star", "lengths": [1.0, 1.0, 1.0], "controlled_edge": 0,
                              "observed_edge": 0, "lambda_max": 6.0},
                    "experiment": {"kind": "bounds"}},
    "decay_riccati": {"model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 8},
                      "experiment": {"kind": "decay_riccati", "horizon": 20.0,
                                     "window": [4.0, 10.0]}},
    "turnpike": {"model": {"kind": "synthetic", "rho": 2.0, "eta": 2.0, "n_modes": 6},
                 "experiment": {"kind": "turnpike", "horizons": [5.0, 10.0], "dt_record": 0.1}},
}


def test_experiments_run_with_scipy_blocked(tmp_path):
    code = BLOCK_SCIPY + f"""
import json, os
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("the finder did not block scipy")
from wavelq.cli import run_experiment
written = {{}}
for name, cfg in json.loads({json.dumps(json.dumps(BLOCKED_CONFIGS))}).items():
    out = os.path.join({str(tmp_path)!r}, name)
    run_experiment(dict(cfg, seed=3), out, 3, 1, True)
    written[name] = sorted(os.listdir(out))
print(json.dumps(written))
"""
    written = json.loads(run_python(code))
    assert set(written) == set(BLOCKED_CONFIGS)
    for name, files in written.items():
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert files == sorted([*manifest["files"], "manifest.json"]), name
        assert "summary.json" in files and len(files) >= 3, name
