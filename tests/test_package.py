import ast
import collections
import os
import pathlib
import subprocess
import sys

import qrank


def test_star_import_resolves_every_public_name():
    # a stale __all__ entry makes the star import itself fail
    namespace: dict = {}
    exec("from qrank import *", namespace)
    assert sorted(set(qrank.__all__) - namespace.keys()) == []


_IMPORTS_SCRIPT = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
from qrank.cli import COMMANDS, run_task
P = {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}}
Qi = {"min_poly": {"coeffs": ["1", "0", "1"]}}
tasks = {
    "rank": {"ring": Qi, "char_poly": {"coeffs": [["-3", "-4"], "1"]}},
    "reduct-rank": dict(P, n=2),
    "hereditary": {"field": Qi, "poly": {"coeffs": ["4", "1"]}},
    "validate": P,
    "prolong": dict(P, n=3),
    "degree-bound": {"x0": "64"},
    "fixed-field": {"q0": "2", "m": 0, "characteristic": 0},
    "oracle": {"field": "Q", "poly": {"coeffs": ["-8", "1"]}, "n_list": [1, 3, 6]},
}
assert sorted(tasks) == sorted(COMMANDS)
for command, payload in tasks.items():
    report, code = run_task(command, payload)
    assert code == 0, report
after = {name.partition(".")[0] for name in sys.modules}
print(" ".join(sorted(after - before)))
"""


def test_engine_loads_only_stdlib():
    # one task of each command in a fresh interpreter; modules loaded
    # before qrank (site hooks) are left out of the comparison
    src = str(pathlib.Path(qrank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORTS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    foreign = {m for m in out if m not in sys.stdlib_module_names}
    assert foreign == {"qrank"}


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.  Every name a module
    reads is an ast.Name, so attribute access on a module (math.gcd)
    counts for the module's name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                a.asname or a.name.partition(".")[0] for a in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_modules_import_no_unused_names():
    sample = "import math, os.path\nfrom a import b, c as d\nmath.gcd(b)\n"
    assert _unused_imports(sample) == ["d", "os"]
    # __init__.py imports names to re-export them
    package = pathlib.Path(qrank.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def _qrank_imports(source: str) -> set[str]:
    """The qrank modules a module's source imports from, by name."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "qrank"
        ):
            module = (node.module or "").removeprefix("qrank").lstrip(".")
            used.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            used.update(
                a.name.removeprefix("qrank").lstrip(".") or "qrank"
                for a in node.names
                if a.name.partition(".")[0] == "qrank"
            )
    return used


def test_intfactor_is_a_leaf_on_integer_lists():
    # the integer kernel reads only arith and errors, so it stays on
    # integer lists and the exact-gcd fallback stays in numfield
    sample = "from . import config\nfrom .poly import gcd\nimport qrank.numfield\n"
    assert _qrank_imports(sample) == {"config", "poly", "numfield"}
    source = (pathlib.Path(qrank.__file__).parent / "_intfactor.py").read_text()
    assert _qrank_imports(source) <= {"arith", "errors"}



# Floating point may only size prime bounds (README: never in a verdict):
# the module constants of these modules and these functions.
_FLOAT_SCOPES = {
    "hereditary.py": {"_unit_prime_bound"},
    "numfield.py": {"mahler_measure_upper"},
}
_FLOAT_MATH = {"log", "log2", "log10", "exp", "sqrt", "ceil", "inf", "nan", "pi", "e"}


def _float_lines(source: str, functions: set[str] | None) -> list[int]:
    """Lines with a float literal, a float(...) call or a float function
    or constant of math, outside the named top-level functions and, when
    functions is not None, the module-level assignments."""
    scanned = [
        node
        for node in ast.parse(source).body
        if functions is None
        or not (
            isinstance(node, ast.FunctionDef) and node.name in functions
            or isinstance(node, (ast.Assign, ast.AnnAssign))
        )
    ]
    lines = set()
    for node in (n for top in scanned for n in ast.walk(top)):
        if (
            isinstance(node, ast.Constant) and isinstance(node.value, float)
            or isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            or isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in _FLOAT_MATH
            or isinstance(node, ast.ImportFrom)
            and node.module == "math"
            and any(a.name in _FLOAT_MATH for a in node.names)
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_floating_point_only_sizes_prime_bounds():
    sample = (
        "from math import log\nA = 0.5\n"
        "def f(x):\n    return math.ceil(x) + float(x)\n"
        "def g() -> float:\n    return 1e-9 * math.gcd(2, 4)\n"
    )
    assert _float_lines(sample, None) == [1, 2, 4, 6]
    assert _float_lines(sample, {"f"}) == [1, 6]
    package = pathlib.Path(qrank.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _float_lines(path.read_text(), _FLOAT_SCOPES.get(path.name)))
    }
    assert found == {}


# A cache keyed by input outlives the request that filled it, so none is
# allowed.
_CACHES_ALLOWED = set()


def _cached_functions(source: str) -> list[str]:
    """Functions decorated with functools.lru_cache or functools.cache,
    called or not, by attribute, by name or by an alias of an import."""
    tree = ast.parse(source)
    names = {"lru_cache", "cache"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(a.asname for a in node.names if a.name in names and a.asname)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", None) or getattr(target, "id", None)
                if name in names:
                    found.append(node.name)
    return found


def test_no_global_caches():
    sample = (
        "import functools\nfrom functools import cache as memo\n"
        "@functools.lru_cache(maxsize=None)\ndef a(n): pass\n"
        "@memo\ndef b(n): pass\n"
        "class C:\n    @functools.cache\n    def c(self): pass\n"
        "@staticmethod\ndef d(n): pass\n"
    )
    assert _cached_functions(sample) == ["a", "b", "c"]
    package = pathlib.Path(qrank.__file__).parent
    found = {
        (path.name, name)
        for path in sorted(package.glob("*.py"))
        for name in _cached_functions(path.read_text())
    }
    assert found == _CACHES_ALLOWED


# Module-level functions that no qrank module reads and __all__ does not
# export.  They stay only because bench/spans.py patches them by name
# (ROADMAP item 9).
_UNREFERENCED_ALLOWED = {
    ("_intfactor.py", "gf_factor_count"),
    ("_intfactor.py", "gf_factor_squarefree"),
    ("poly.py", "pow_mod"),
}


def _unreferenced_functions(sources: dict[str, str], exported: set[str]) -> set[tuple[str, str]]:
    """(file, name) of each module-level function of the sources, keyed
    by file name, that is not exported and that no source reads, as a
    name or as an attribute, outside the function's own body."""
    trees = {path: ast.parse(source) for path, source in sources.items()}

    def reads(node) -> list[str]:
        return [
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)
        ]

    everywhere = collections.Counter(name for tree in trees.values() for name in reads(tree))
    return {
        (path, node.name)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in exported
        and everywhere[node.name] == reads(node).count(node.name)
    }


def test_every_function_is_called_or_exported():
    sample = {
        "m.py": "def a(n): return a(n - 1)\ndef b(): return 1\ndef c(): return b()\n",
        "n.py": "import m\ndef d(): return m.c()\ndef e(): pass\n",
    }
    assert _unreferenced_functions(sample, {"d"}) == {("m.py", "a"), ("n.py", "e")}
    package = pathlib.Path(qrank.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unreferenced_functions(sources, set(qrank.__all__)) == _UNREFERENCED_ALLOWED
