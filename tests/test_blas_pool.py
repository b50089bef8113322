"""The library's dense kernels run in one BLAS thread pool.

The numpy and scipy wheels each bundle their own OpenBLAS, and each keeps its
own pool of spinning worker threads.  When calls alternate between the two
libraries, the pools stall each other: on a 2-core host (numpy 2.4.6, scipy
1.17.1), 20 scipy ``expm`` calls on a 128 x 128 matrix, each followed by 7
numpy products of the same size, took 304 ms interleaved and 33 ms with
``OPENBLAS_NUM_THREADS=1``.  So ``src/wavelq`` runs every factorization,
product and exponential through numpy, and keeps from scipy only the
Lyapunov solve of Newton-Kleinman, for which numpy has no Schur form.
"""

import ast
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


def test_the_only_scipy_name_is_the_lyapunov_solver():
    imports, names = {}, {}
    for path in sorted(SRC.rglob("*.py")):
        i, n = scipy_uses(ast.parse(path.read_text(), filename=str(path)))
        for key in i:
            imports.setdefault(key, []).append(path.name)
        for key in n:
            names.setdefault(key, []).append(path.name)
    assert imports == {("scipy.linalg", None): ["riccati.py"]}
    assert names == {"scipy.linalg.solve_continuous_lyapunov": ["riccati.py"]}


def test_the_guard_sees_every_kind_of_use():
    code = ("import scipy.linalg\nimport scipy.sparse as sp\nfrom scipy.linalg import expm\n"
            "x = scipy.linalg.eigh(a)[0]\ny = scipy\n")
    imports, names = scipy_uses(ast.parse(code))
    assert imports == {("scipy.linalg", None), ("scipy.sparse", "sp"), ("scipy.linalg.expm", None)}
    assert names == {"scipy.linalg.eigh", "scipy"}
