"""Every module-level import in the package is used by its module, and
only the archimedean lane loads scipy.

A stdlib ast check: a name bound by a top-level import must appear as a
name (or the root of an attribute chain) somewhere else in the module.
__init__.py is left out, since its imports are the package's re-exports.
"""

import ast
import os
import subprocess
import sys
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


SCIPY_GUARD = """
import contextlib, io, sys
import incgamma, incgamma.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = incgamma.cli.main(["interp-check", "--r=2", "--p", "7", "--prec", "20",
                              "--m-max", "3"])
assert code == 0, code
loaded = [name for name in ("scipy", "numpy") if name in sys.modules]
assert not loaded, loaded
value = incgamma.psi_complex(2.0, 3)
assert abs(value - 38.0) < 1e-8, value  # 2^3 psi_tilde(3) = 8 * 19/4
assert "scipy" in sys.modules
"""


def test_p_adic_lane_leaves_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", SCIPY_GUARD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
