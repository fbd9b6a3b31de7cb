import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from incgamma import cli
from incgamma.cli import main
from incgamma.padic import PadicContext

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_psi_tilde_json(capsys):
    code, doc = run_json(capsys, "psi-tilde", "--r", "2", "--m-max", "3")
    assert code == 0
    assert doc["command"] == "psi-tilde"
    assert doc["pass"] is True
    assert [row["value"] for row in doc["rows"]] == ["1", "3/2", "5/2", "19/4"]
    assert all(row["precision_claim"] == "exact" for row in doc["rows"])


def test_psi_tilde_csv_header(capsys):
    code, out, _ = run(capsys, "psi-tilde", "--r", "5/3", "--m-max", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,value,precision_claim,status"
    assert len(lines) == 4


def test_eval_padic(capsys):
    code, doc = run_json(capsys, "eval", "--side", "padic", "--r", "2",
                         "--s", "2", "--p", "3", "--prec", "12")
    assert code == 0
    row = doc["rows"][0]
    # <2>^2 psi_tilde(2) = 4 * 5/2 = 10 on the nose
    assert row["value"] == "10"
    assert row["precision_claim"] == "mod 3^12"


def test_eval_complex(capsys):
    code, doc = run_json(capsys, "eval", "--side", "complex", "--r", "1",
                         "--s", "4", "--tol", "1e-3")
    assert code == 0
    assert abs(float(doc["rows"][0]["value"]) - 65.0) < 1e-8
    # --tol does not reach quad: the claim names the tolerances that ran
    assert doc["rows"][0]["precision_claim"] == "quad epsabs 1e-12, tail 1e-13"


@pytest.mark.parametrize("tol, code", [("1e-8", 1), ("0.1", 0)])
def test_eval_complex_checks_integer_s(capsys, monkeypatch, tol, code):
    # at integer s >= 0 the value is held to r^s psi_tilde(s) = 65 under --tol
    monkeypatch.setattr(cli, "psi_complex", lambda r, m: 66.0)
    got, doc = run_json(capsys, "eval", "--side", "complex", "--r", "1", "--s", "4",
                        "--tol", tol)
    assert got == code
    assert doc["params"]["tol"] == float(tol)
    assert doc["rows"][0]["value"] == "66.0"
    assert doc["rows"][0]["status"] == ("pass" if code == 0 else "fail")


def test_eval_complex_far_above_zero(capsys):
    # r^2 psi_tilde(2) = 40000400002; the integrand is a spike of width 1/r at
    # x = 0, which quad finds only through gfn's endpoint breakpoint
    code, doc = run_json(capsys, "eval", "--side", "complex", "--r", "200000", "--s", "2")
    assert code == 0
    assert abs(float(doc["rows"][0]["value"]) / 40000400002 - 1) <= 1e-8


def test_func_eq_complex_steep_linear_weight(capsys):
    # a true identity whose Phi values need mellin_phi's endpoint breakpoint
    # for the slope 1e5 at x = 0
    code, doc = run_json(capsys, "func-eq", "--poly", "100000", "--p", "3", "--complex")
    assert code == 0
    assert [row["status"] for row in doc["rows"]] == ["pass"] * 10


def test_eval_padic_needs_p(capsys):
    code, _, err = run(capsys, "eval", "--side", "padic", "--r", "2",
                       "--s", "2")
    assert code == 2
    assert "--p" in err


def test_interp_check_padic(capsys):
    code, doc = run_json(capsys, "interp-check", "--r", "2", "--p", "3",
                         "--m-max", "6", "--prec", "20")
    assert code == 0
    assert doc["pass"] is True
    assert len(doc["rows"]) == 7
    assert all(row["status"] == "pass" for row in doc["rows"])


def test_interp_check_negative_r_complex(capsys):
    code, doc = run_json(capsys, "interp-check", "--r", "-1", "--complex",
                         "--m-max", "8")
    assert code == 0
    # r = -1 gives the derangement numbers
    values = [round(float(row["value"])) for row in doc["rows"]]
    assert values == [1, 0, 1, 2, 9, 44, 265, 1854, 14833]


def test_interp_check_both_sides(capsys):
    code, doc = run_json(capsys, "interp-check", "--r", "2", "--p", "5",
                         "--complex", "--m-max", "4", "--prec", "16")
    assert code == 0
    sides = [row["side"] for row in doc["rows"]]
    assert sides == ["padic"] * 5 + ["complex"] * 5


def test_interp_check_needs_a_side(capsys):
    code, _, err = run(capsys, "interp-check", "--r", "2")
    assert code == 2
    assert "side" in err


def test_interp_check_tight_tol_fails(capsys):
    code, doc = run_json(capsys, "interp-check", "--r", "1", "--complex",
                         "--m-max", "4", "--tol", "1e-30")
    assert code == 1
    assert doc["pass"] is False
    assert any(row["status"] == "fail" for row in doc["rows"])


def test_func_eq(capsys):
    code, doc = run_json(capsys, "func-eq", "--poly", "1,1/2,1/3",
                         "--p", "5", "--samples", "3", "--seed", "1",
                         "--complex", "--prec", "16")
    assert code == 0
    assert doc["pass"] is True
    assert len(doc["rows"]) == 6
    # seeded sampling is part of the interface
    assert [row["s"] for row in doc["rows"][:3]] == [-4, -6, 0]


def test_func_eq_deterministic(capsys):
    argv = ["func-eq", "--poly", "1,1/2", "--p", "5", "--samples", "4",
            "--seed", "0", "--prec", "14"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = run(capsys, *argv[:-3], "2", "--prec", "14")
    assert out1 != out3


def test_place_excluded_exit(capsys):
    # both commands name the valuation, not the Teichmuller character
    for argv, why in ((("eval", "--side", "padic", "--r", "3", "--s", "1", "--p", "3"),
                       "v_3(3) = 1"),
                      (("interp-check", "--r", "2", "--p", "2"), "v_2(2) = 1"),
                      (("interp-check", "--r", "1/2", "--p", "2"), "v_2(1/2) = -1")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert why in err and "teichmuller" not in err


def test_incompatible_weight_exit(capsys):
    code, _, err = run(capsys, "func-eq", "--poly", "2", "--p", "5")
    assert code == 2
    assert "principal" in err


@pytest.mark.parametrize("argv", [
    ("psi-tilde", "--r", "2", "--m-max", "-1"),
    ("interp-check", "--r", "2", "--p", "3", "--m-max", "-1"),
    ("func-eq", "--poly", "1", "--p", "5", "--samples", "-3"),
    ("func-eq", "--poly", "1", "--p", "5", "--samples", "0"),
    ("psi-tilde", "--r", "2", "--prec", "0"),
    ("eval", "--side", "padic", "--r", "2", "--s", "2", "--p", "3", "--prec", "-3"),
    ("eval", "--side", "padic", "--r", "2", "--s", "2", "--p", "3", "--prec", "x"),
])
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: argument --" in captured.err


@pytest.mark.parametrize("tol", ["-1", "-0.5", "nan", "inf", "-inf", "1e400", "abc"])
@pytest.mark.parametrize("command", [
    ("interp-check", "--r", "2", "--complex", "--m-max", "2"),
    ("func-eq", "--poly", "1", "--p", "5", "--samples", "1", "--complex"),
])
def test_tol_must_be_finite_and_nonnegative(capsys, command, tol):
    with pytest.raises(SystemExit) as exc:
        main([*command, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"incgamma {command[0]}: error: argument --tol: "
        + (f"not a number: {tol!r}" if tol == "abc"
           else f"must be a finite number >= 0, got {tol}")]


@pytest.mark.parametrize("tol", ["0", "1e-8", "0.5"])
def test_tol_accepts_finite_nonnegative_values(capsys, tol):
    code, doc = run_json(capsys, "interp-check", "--r", "2", "--complex",
                         "--m-max", "2", "--tol", tol)
    assert doc["params"]["tol"] == float(tol)
    for row in doc["rows"]:
        err = float(row["precision_claim"].removeprefix("rel_err "))
        assert row["status"] == ("pass" if err <= float(tol) else "fail")
    assert code == (0 if doc["pass"] else 1)
    assert tol == "0" or code == 0


@pytest.mark.parametrize("argv", [
    ("interp-check", "--r", "1/2", "--complex", "--m-max", "175"),
    ("eval", "--side", "complex", "--r", "1/2", "--s", "180"),
])
def test_complex_overflow_is_a_domain_error(capsys, argv):
    # r^m psi_tilde(m) leaves double range at m = 171 for r = 1/2
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: complex side out of double range")


def refuse(*args):
    raise AssertionError("the request reached the expansion")


PADIC_HEADS = [("eval", "--side", "padic", "--r", "2", "--s", "3"),
               ("interp-check", "--r", "2"), ("func-eq", "--poly", "4")]


@pytest.mark.parametrize("head", PADIC_HEADS)
@pytest.mark.parametrize("p, prec", [
    ("3", "100000000000000000000"), ("1000003", "28"), ("100000000000000000039", "1")])
def test_oversized_padic_requests_are_refused(capsys, monkeypatch, head, p, prec):
    # 2(p-1) prec alone passes MAX_LENGTH: the refusal comes before the
    # primality check and before any length search or expansion, each of
    # which raises here
    for name in ("PadicContext", "gexp_length_for", "Psi", "functional_eq_parts"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, *head, "--p", p, "--prec", prec)
    assert (code, out) == (2, "")
    assert err == (f"error: p = {p}, prec = {prec} needs an expansion longer than "
                   f"{cli.MAX_LENGTH} coefficients\n")


@pytest.mark.parametrize("head", PADIC_HEADS)
def test_padic_length_limit(capsys, monkeypatch, head):
    # at p = 2, prec 1012 passes the 2(p-1) prec bound but needs 2049
    # coefficients; prec 1011 needs 2045 and is let through
    assert cli.gexp_length_for(2, 1011) <= cli.MAX_LENGTH < cli.gexp_length_for(2, 1012)
    assert cli._context(2, 1011) == PadicContext(2, 1011)
    monkeypatch.setattr(cli, "Psi", refuse)
    monkeypatch.setattr(cli, "functional_eq_parts", refuse)
    code, out, err = run(capsys, *head, "--p", "2", "--prec", "1012")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: p = 2, prec = 1012 ")


@pytest.mark.parametrize("head", [("psi-tilde", "--r", "2"),
                                  ("interp-check", "--r", "2", "--p", "3"),
                                  ("interp-check", "--r", "2", "--complex")])
def test_m_max_limit(capsys, monkeypatch, head):
    # MAX_M is let through; above it the request is refused before any row
    monkeypatch.setattr(cli, "psi_tilde_values", refuse)
    for m_max in (cli.MAX_M + 1, 100000000):
        code, out, err = run(capsys, *head, "--m-max", str(m_max))
        assert (code, out) == (2, "")
        assert err == f"error: --m-max {m_max} is above the limit of {cli.MAX_M}\n"
    monkeypatch.undo()
    code, doc = run_json(capsys, "psi-tilde", "--r", "2", "--m-max", str(cli.MAX_M))
    assert code == 0 and len(doc["rows"]) == cli.MAX_M + 1


def test_samples_limit(capsys, monkeypatch):
    # MAX_SAMPLES is let through; above it func-eq is refused before any row
    monkeypatch.setattr(cli, "functional_eq_parts", refuse)
    for samples in (cli.MAX_SAMPLES + 1, 100000000):
        code, out, err = run(capsys, "func-eq", "--poly", "1", "--p", "5",
                             "--samples", str(samples))
        assert (code, out) == (2, "")
        assert err == f"error: --samples {samples} is above the limit of {cli.MAX_SAMPLES}\n"
    monkeypatch.undo()
    code, doc = run_json(capsys, "func-eq", "--poly", "1", "--p", "5", "--prec", "5",
                         "--samples", str(cli.MAX_SAMPLES))
    assert code == 0 and len(doc["rows"]) == cli.MAX_SAMPLES


def test_exact_values_past_the_digit_limit_name_their_row(capsys):
    # psi_tilde(m) at r = 1234/4567 passes 4300 digits within MAX_M rows; the
    # package leaves the interpreter's limit as it found it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int to str conversion is unlimited in this interpreter")
    values = cli.psi_tilde_values(Fraction(1234, 4567), cli.MAX_M)
    m = next(m for m, v in enumerate(values)
             if max(abs(v.numerator), v.denominator) >= 10 ** limit)
    code, out, err = run(capsys, "psi-tilde", "--r", "1234/4567", "--m-max", str(cli.MAX_M))
    assert (code, out) == (2, "")
    assert err == (f"error: row m = {m}: the exact value has more than {limit} digits, "
                   f"the interpreter's limit for int to str conversion\n")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("head, flag, value, tail", [
    (("psi-tilde",), "--r", "-1/2", ("--m-max", "3")),
    (("eval", "--side", "padic", "--r", "2", "--p", "7"), "--s", "-1/3", ("--prec", "10")),
    (("func-eq",), "--poly", "-2,1", ("--p", "3", "--prec", "10")),
])
def test_signed_values_read_as_the_equals_form(capsys, head, flag, value, tail):
    # -1/2 and -2,1 are not argparse's negative numbers; g1 = -2 is a
    # principal unit at p = 3
    code, out, err = run(capsys, *head, flag, value, *tail)
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True
    assert run(capsys, *head, f"{flag}={value}", *tail) == (code, out, err)


def test_calls_in_one_process_match_lone_calls(capsys, monkeypatch):
    """main builds its parser once per process: calls made one after the
    other, a usage error among them, each give the output and exit code of
    the same call in a fresh interpreter."""
    calls = [
        ("interp-check", "--r", "5/3", "--p", "7", "--prec", "10", "--m-max", "4"),
        ("interp-check", "--r", "2", "--p", "3", "--m-max", "-1"),
        ("psi-tilde", "--r", "-1/2", "--m-max", "3"),
        ("func-eq", "--poly", "1,1/2,1/3", "--p", "5", "--samples", "2", "--prec", "10"),
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this width
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    codes = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        lone = subprocess.run([sys.executable, "-m", "incgamma.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (code, out, err) == (lone.returncode, lone.stdout, lone.stderr), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0]
