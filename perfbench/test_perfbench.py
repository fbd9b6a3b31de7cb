"""Tests of the benchmark itself (python3 -m pytest -q perfbench)."""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracles
import run
import workloads
import worker
from tracer import TARGETS, Tracer

PACKAGE, MODS = worker.load_package()
LIB = SimpleNamespace(**MODS)
ROOT = Path(__file__).resolve().parent.parent


def first_blocks(name, seed, n=3):
    return list(itertools.islice(workloads.WORKLOADS[name].blocks(seed), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_list_is_a_function_of_the_seed(name):
    assert first_blocks(name, 7) == first_blocks(name, 7)
    assert first_blocks(name, 7) != first_blocks(name, 8)


def test_blocks_hold_every_shape_once():
    for block in first_blocks("psi-cold", 3):
        assert sorted((p, k) for _, p, k in block) == sorted(workloads.PSI_COLD_GRID)
    rs = [r for block in first_blocks("psi-cold", 3, 20) for r, _, _ in block]
    assert len(set(rs)) == len(rs)
    for block in first_blocks("operators", 3):
        assert len(block) == 2 * len(workloads.Operators.KINDS) + 1


@pytest.mark.parametrize("r,p,k", [(Fraction(2), 3, 12), (Fraction(3), 2, 16),
                                   (Fraction(-5, 3), 7, 8), (Fraction(3, 2), 11, 6)])
def test_twisted_residues_match_psi(r, p, k):
    ctx = LIB.padic.PadicContext(p, k)
    want = oracles.twisted_residues(r, p, k, 10)
    for m in range(11):
        got = LIB.gamma_padic.Psi(r, m, ctx)
        assert got.abs_precision >= k
        assert oracles.residue_of(got, k) == want[m]


def test_exact_oracles_match_the_package():
    for r in workloads.COMPLEX_R:
        for m in range(12):
            assert oracles.psi_tilde_exact(r, m) == LIB.gamma_padic.psi_tilde(r, m)
            got = LIB.gamma_complex.psi_complex(float(r), m)
            assert oracles.rel_err(got, oracles.scaled_psi_float(r, m)) <= 1e-8
    for a, b, r in [(0.0, 3.0, 1.0), (2.5, -17.0, 0.5), (4.0, 35.0, 3.0)]:
        got = LIB.gamma_complex.gfn(complex(a, b), r)
        assert oracles.rel_err(got, oracles.gfn_reference(a, b, r)) <= 1e-8


def shifted(x, k):
    """x + p^(k-1) at the same claimed precision."""
    return x + x.ctx.number(x.ctx.p ** (k - 1))


def weakened(x, k):
    """x known only mod p^(k-1)."""
    return LIB.padic.PadicNumber._make(x.ctx, 0, oracles.residue_of(x, k), k - 1)


def test_psi_warm_check_rejects_wrong_values_and_weak_claims():
    wl = workloads.PsiWarm(LIB, 0)
    for i, (r, p, k) in enumerate(workloads.WARM_KEYS):
        op = (i, 37, False)
        args, oracle = wl.prepare(op)
        good = wl.run(args)
        assert wl.check(op, oracle, good) is None
        assert wl.check(op, oracle, shifted(good, k)) is not None
        assert wl.check(op, oracle, weakened(good, k)) is not None


def test_psi_cold_check_rejects_wrong_values_and_weak_claims():
    wl = workloads.PsiCold(LIB, 0)
    op = (Fraction(-7, 4), 5, 20)
    argv, oracle = wl.prepare(op)
    code, text = wl.run(argv)
    assert wl.check(op, oracle, (code, text)) is None
    doc = json.loads(text)
    row = doc["rows"][3]
    value = row["value"]
    row["value"] = str((int(value) + 5 ** 19) % 5 ** 20)
    assert wl.check(op, oracle, (code, json.dumps(doc))) is not None
    row["value"] = value
    row["precision_claim"] = "mod 5^19"
    assert wl.check(op, oracle, (code, json.dumps(doc))) is not None
    assert wl.check(op, oracle, (1, text)) is not None


def test_operator_check_rejects_wrong_values_and_weak_claims():
    ctx = LIB.padic.PadicContext(3, 30)
    x = ctx.number(Fraction(5, 7))
    k = workloads.OP_TARGET
    assert oracles.agree(x, x, k) is None
    assert oracles.agree(x, shifted(x, k), k) is not None
    assert oracles.agree(x, weakened(x, k), k) is not None


def test_complex_check_rejects_a_small_error():
    wl = workloads.Complex(LIB, 0)
    op = ("psi", Fraction(2), 30)
    args, oracle = wl.prepare(op)
    good = wl.run(args)
    assert wl.check(op, oracle, good) is None
    assert wl.check(op, oracle, good * (1 + 1e-7)) is not None


def test_wrappers_return_what_the_originals_return():
    ctx = LIB.padic.PadicContext(5, 20)
    fn = LIB.mahler.MahlerFn(ctx, [ctx.number(c) for c in (3, 1, 4, 1, 5)],
                             LIB.mahler.Tail.exact())
    calls = [
        lambda: LIB.gamma_padic.Psi(Fraction(-2), 17, ctx),
        lambda: LIB.gamma_padic.Psi(Fraction(-2), ctx.number(17), ctx),
        lambda: fn.eval(Fraction(-3, 2)),
        lambda: LIB.transform.two_var(fn, 4, 9, target=15),
        lambda: LIB.gamma_complex.gfn(complex(2.0, 30.0), 0.5),
        lambda: LIB.gamma_complex.psi_complex(-0.5, 40),
    ]
    before = [c() for c in calls]
    originals = {(mod, attr): getattr(MODS[mod], attr) for _, mod, attr, _ in TARGETS
                 if "." not in attr}
    add = vars(LIB.padic.PadicNumber)["__add__"]
    tracer = Tracer()
    tracer.install(PACKAGE, MODS)
    try:
        assert LIB.cli.Psi is not originals["gamma_padic", "Psi"]
        assert LIB.transform.convolve is not originals["mahler", "convolve"]
        assert LIB.padic.PadicNumber.__radd__ is LIB.padic.PadicNumber.__add__
        after = [c() for c in calls]
    finally:
        tracer.uninstall()
    assert after == before
    for (mod, attr), orig in originals.items():
        assert getattr(MODS[mod], attr) is orig
    assert LIB.cli.Psi is originals["gamma_padic", "Psi"]
    assert vars(LIB.padic.PadicNumber)["__radd__"] is add
    assert tracer.stats["gamma_padic.Psi"].calls == 2
    assert tracer.stats["padic.PadicNumber.add"].calls > 0
    assert tracer.stats["gamma_complex.quad"].neval > 0


def traced_counts(name, seed, blocks):
    wl = workloads.WORKLOADS[name](LIB, seed)
    tracer = Tracer()
    tracer.install(PACKAGE, MODS)
    try:
        ops, _, failures = worker.run_loop(wl, seed, "fixed", 0, blocks, tracer)
    finally:
        tracer.uninstall()
    assert ops and not failures
    return {n: (s.calls, s.neval, s.warnings) for n, s in tracer.stats.items()}


def test_traced_counts_repeat_exactly():
    assert traced_counts("psi-warm", 4, 1) == traced_counts("psi-warm", 4, 1)
    assert traced_counts("complex", 4, 20) == traced_counts("complex", 4, 20)


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [(n, run.layer_unit(n)) for n in run.LAYER_STATS] + list(run.LAYER_DERIVED)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert name.match(m["name"])
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
