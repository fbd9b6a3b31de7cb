"""Mutation gate for the claim arithmetic: every mutant must fail its tests.

Each mutant is one exact text replacement in src/incgamma that makes a claim
optimistic or a tail wrong.  For each, the script copies src/, tests/ and
pyproject.toml into a temporary directory, applies the replacement (which
must match exactly once) and runs `pytest -x -q` on the mutant's test files
there, so subprocesses that the tests start see the mutant too.  The gate
fails when the unmutated copy fails those tests, when a mutant's tests end
in anything but a test failure (a collection error kills nothing), or when
a mutant survives.  Standard library only; run it from anywhere:

    python3 tools/mutation_gate.py

A surviving mutant is answered with a test that kills it, never by deleting
the mutant; a mutant goes only with the code that it mutates.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the mutant breaks, module, text, replacement, test files)
MUTANTS = (
    ("convolve claims M + max(sa, sb)", "mahler.py",
     "claim = M + min(sa, sb)", "claim = M + max(sa, sb)",
     ["tests/test_mahler.py"]),
    ("convolve's cut stops one digit early", "mahler.py",
     "bisect_left(nu, e - low) - 1", "bisect_left(nu, e - low - 1) - 1",
     ["tests/test_mahler.py"]),
    ("convolve pairs the tails beyond K_out, not K_out // 2", "mahler.py",
     "half = K_out // 2", "half = K_out",
     ["tests/test_mahler.py"]),
    ("gexp_tail_floor is one digit optimistic", "mahler.py",
     "floor = n // (2 * (p - 1)) - c - 1", "floor = n // (2 * (p - 1)) - c",
     ["tests/test_mahler.py"]),
    ("the graded exponents are one digit short", "transform.py",
     "exps = [max(0, claim - shift - vp_factorial(k, ctx.p))",
     "exps = [max(0, claim - shift - vp_factorial(k, ctx.p) - 1)",
     ["tests/test_gamma_padic.py"]),
    ("PadicNumber.__mul__ claims one digit more", "padic.py",
     "other.abs_precision + self.valuation)", "other.abs_precision + self.valuation) + 1",
     ["tests/test_padic.py"]),
    ("_passes drops coefficients one digit early", "mahler.py",
     "bisect_left(low, rec.shift + e)", "bisect_left(low, rec.shift + e - 1)",
     ["tests/test_transform.py"]),
    ("dirac claims M + v + 1 at a Fraction", "measure.py",
     "claims[n] = M + v", "claims[n] = M + v + 1",
     ["tests/test_measure.py"]),
    ("dirac reports a finite tail at x = length", "measure.py",
     "exact = q == 0 and not padic", "exact = q == 0 and n < length and not padic",
     ["tests/test_measure.py"]),
    ("the phi_r weights run one index ahead", "gamma_padic.py",
     "w = w * (k - c) % mod", "w = w * (k + 1 - c) % mod",
     ["tests/test_gamma_padic.py"]),
    ("the gexp kernel's d_n carries one power of p too many", "mahler.py",
     "(S * pw[v - E] if v >= E", "(S * pw[v - E + 1] if v >= E",
     ["tests/test_mahler.py"]),
    ("the gexp kernel's b_n carries one power of p too many", "mahler.py",
     "bn = dn * pw[E - vn] if", "bn = dn * pw[E - vn + 1] if",
     ["tests/test_mahler.py"]),
    ("_spike splits off only spikes steeper than 4000", "gamma_complex.py",
     "if slope > 40 else", "if slope > 4000 else",
     ["tests/test_gamma_complex.py"]),
    ("mellin_fe_residual scales by at least 1e6", "gamma_complex.py",
     "max(1.0, abs(lhs), abs(rhs))", "max(1e6, abs(lhs), abs(rhs))",
     ["tests/test_gamma_complex.py"]),
    ("the CLI's p-adic verdict checks one digit less", "cli.py",
     "congruent(got, want, k)", "congruent(got, want, k - 1)",
     ["tests/test_cli.py"]),
)


def copy_tree(dest: Path) -> None:
    """The package, its tests and the pytest settings, as in the checkout."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def mutate(dest: Path, module: str, text: str, replacement: str) -> None:
    path = dest / "src" / "incgamma" / module
    source = path.read_text()
    count = source.count(text)
    if count != 1:
        raise SystemExit(f"mutant text {text!r} matches {count} times in {module}, not once")
    path.write_text(source.replace(text, replacement))


def run_tests(dest: Path, tests: list) -> int:
    """pytest's exit code on the copy, importing incgamma from the copy's
    src: 0 all passed, 1 some test failed."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=dest, env={**os.environ, "PYTHONPATH": str(dest / "src")},
                          capture_output=True, text=True)
    if done.returncode not in (0, 1):
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
    return done.returncode


def main() -> int:
    every = sorted({t for *_, tests in MUTANTS for t in tests})
    failed = False
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        base = Path(tmp) / "unmutated"
        copy_tree(base)
        start = time.perf_counter()
        code = run_tests(base, every)
        print(f"unmutated: exit {code} ({time.perf_counter() - start:.1f} s)", flush=True)
        if code != 0:
            return 1
        for i, (what, module, text, replacement, tests) in enumerate(MUTANTS):
            dest = Path(tmp) / f"mutant{i}"
            copy_tree(dest)
            mutate(dest, module, text, replacement)
            start = time.perf_counter()
            code = run_tests(dest, tests)
            verdict = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (exit {code})")
            print(f"{verdict}: {what} ({time.perf_counter() - start:.1f} s)", flush=True)
            failed |= code != 1
            shutil.rmtree(dest)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
