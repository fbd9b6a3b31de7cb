"""Every module-level import in the package is used by its module, every
private function is referred to elsewhere, every parameter is read, no
module reads the environment, and no lane loads scipy or numpy.

Stdlib ast checks: a name bound by a top-level import must appear as a
name (or the root of an attribute chain) somewhere else in the module;
__init__.py is left out, since its imports are the package's re-exports.
A private function or method (_name, not a dunder) must be named, as a
name or an attribute, somewhere in the package outside its own body.  Each
parameter of a function that is not a dunder must be read in its body; a
dunder's signature is fixed by the protocol it implements.  No name or
attribute environ or getenv may appear, so every setting of the package is
an argument that tests and the benchmark can see.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "incgamma"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def mentions(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_private_functions(sources: dict) -> list:
    """name:line entries of private functions that no code outside their own
    body refers to, over the modules of sources (name -> source text)."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total = sum((mentions(tree) for tree in trees.values()), Counter())
    out = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and total[node.name] == mentions(node)[node.name]):
                out.append(f"{name}:{node.lineno}: {node.name}")
    return sorted(out)


def test_checker_flags_an_unreferenced_private_function():
    sources = {"a": "def _f():\n    return _f()\n\ndef _g():\n    pass\n",
               "b": "class C:\n    def _h(self):\n        pass\n\n    def __init__(self):\n"
                    "        pass\n\nimport a\na._g()\n"}
    assert unreferenced_private_functions(sources) == ["a:1: _f", "b:2: _h"]


def test_every_private_function_is_referenced():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_private_functions(sources) == []


def unread_parameters(source: str) -> list:
    """line: function.parameter entries for the parameters of non-dunder
    functions that their bodies never read."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [f"line {node.lineno}: {node.name}.{arg.arg}"
                    for arg in params if arg.arg not in read]
    return sorted(out)


def test_checker_flags_an_unread_parameter():
    assert unread_parameters("def f(a, b, *, c=1):\n    b = a\n    return lambda: c\n") == [
        "line 1: f.b"]
    assert unread_parameters("class C:\n    def __setattr__(self, name, value):\n"
                             "        raise AttributeError(name)\n\n"
                             "    def g(self, *args, **kw):\n        return self\n") == [
        "line 5: g.args", "line 5: g.kw"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def environment_reads(source: str) -> list:
    """line: name entries for each environ or getenv, as a name or an
    attribute (os.environ, os.getenv, a bare environ after from-import)."""
    out = []
    for n in ast.walk(ast.parse(source)):
        name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
        if name in ("environ", "getenv"):
            out.append(f"line {n.lineno}: {name}")
    return sorted(out)


def test_checker_flags_an_environment_read():
    assert environment_reads("import os\nx = os.environ.get('A')\ny = os.getenv('B')\n") == [
        "line 2: environ", "line 3: getenv"]
    assert environment_reads("from os import environ\nenviron['A']\n") == ["line 2: environ"]
    assert environment_reads("env = {}\nenv.get('A')\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text()) == []


SCIPY_GUARD = """
import contextlib, io, sys
import incgamma, incgamma.cli
from incgamma import gamma_complex as gc
from incgamma.gamma_padic import compatible_cubic
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["interp-check", "--r=2", "--p", "7", "--prec", "20", "--m-max", "3"],
                 ["interp-check", "--r=-1/2", "--p", "7", "--prec", "20", "--complex",
                  "--m-max", "5"]):
        code = incgamma.cli.main(argv)
        assert code == 0, (argv, code)
value = incgamma.psi_complex(2.0, 3)
assert abs(value - 38.0) < 1e-8, value  # 2^3 psi_tilde(3) = 8 * 19/4
gc.gfn(complex(1.5, 2.0), 1.0)
gc.lgfn(2.5, -100.0)
assert gc.mellin_fe_residual(compatible_cubic(1, 0, 1), 0.5) < 1e-8
loaded = [name for name in ("scipy", "numpy") if name in sys.modules]
assert not loaded, loaded
"""


def test_package_never_loads_scipy_or_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", SCIPY_GUARD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
