"""Command line front end.

Four subcommands cover the day-to-day checks:

    psi-tilde     the exact rational target sequence
    eval          one value of Psi (p-adic) or the integral side (complex,
                  checked against r^s psi_tilde(s) at integer s >= 0, else
                  against gfn(s) = s gfn(s-1) + r^s)
    interp-check  both places against <r>^m psi_tilde(m), row per m
    func-eq       the functional equation for a polynomial weight

Output is a single JSON document {command, params, rows, pass} or CSV with
columns inputs..., value, precision_claim, status.  Exit status: 0 all
checks passed, 1 a check failed, 2 usage or domain error.  --prec sets the
p-adic working precision (default 28); the complex side runs at the fixed
tolerances of gamma_complex.  A p-adic request whose default expansion,
gexp_length_for(p, prec) Mahler coefficients, would pass MAX_LENGTH is a
domain error, refused before any expansion is built; so is an --m-max above
MAX_M or a func-eq --samples above MAX_SAMPLES, before any row is built,
a rational flag with a decimal exponent above MAX_EXPONENT, before it is
parsed, and an exact psi-tilde value longer than the interpreter's int to
str limit, which the package never changes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import re
import sys
from functools import cache

from .exact import INF, as_rational
from .padic import PadicContext, PrecisionError, congruent, principal_part
from .gamma_padic import (CompatibilityError, PlaceExcludedError, Psi,
                          functional_eq_parts, psi_tilde, psi_tilde_values, require_unit)
from .gamma_complex import EPSABS, TAIL_TOL, gfn, mellin_fe_residual, psi_complex
from .mahler import gexp_length_for

# The longest default expansion of phi_r or a polynomial weight that a
# p-adic request may need.  Near it a cold interp-check --m-max 20 takes
# about 1.4 s at p 2, prec 1011 and 1.7 s at p 3, prec 504 (lengths 2045
# and 2047, on a 2-core x86 VM); p 13, prec 60 needs 1535.
MAX_LENGTH = 2048

# The most rows (--m-max) that psi-tilde and interp-check build, all in
# memory before any is printed.  At it psi-tilde --r 2 takes about 0.2 s,
# interp-check --r 2 --p 3 0.2-0.3 s, --r 1234/4567 --p 13 --prec 60
# 0.8-1.3 s and, at MAX_LENGTH, --r 9973/997 --p 2 --prec 1011 5.7-6.4 s
# (same VM).
MAX_M = 1000

# The most func-eq samples, each of which rebuilds poly_gexp and its
# L-values before any row is printed.  The samples are drawn from -8..8, so
# 100 rarely miss one of the 17 values.  At it --poly 1,5,-5 --p 5 --prec 200
# takes about 3.0 s, and --poly 1,2,3 --p 2 --prec 1011, at MAX_LENGTH,
# 11-14 s (same VM).
MAX_SAMPLES = 100

# The largest decimal exponent a rational flag may carry, as in 1e-400.
# Fraction spells 1e999999999 out as the int 10**999999999 and hangs, so
# the text is refused before it is parsed.  The bound lies far outside the
# double range of the complex side, and the exact rows of such an r pass
# the interpreter's int to str limit within a few m.
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"(?<=[\d.])e[-+]?([\d_]+)", re.IGNORECASE)


def _count(lowest: int):
    """argparse type for an integer count of at least lowest."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {n}")
        return n
    return parse


def _tolerance(text: str) -> float:
    """argparse type for a finite tolerance >= 0 (nan, inf and negatives
    would decide every complex row the same way)."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return tol


def _rational(flag: str, text: str, parse=None):
    """parse(text) (as_rational by default), the value given as flag, or
    ValueError naming the flag, its text and the cause.  A decimal exponent
    above MAX_EXPONENT is refused before the parse."""
    for exponent in _EXPONENT.findall(text):
        digits = exponent.replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"{flag} {text!r}: decimal exponent above {MAX_EXPONENT}")
    try:
        return (parse or as_rational)(text)
    except ZeroDivisionError:
        cause = "zero denominator"
    except ValueError:
        cause = "not a rational"
    raise ValueError(f"{flag} {text!r}: {cause}")


def _double(flag: str, text: str, r) -> float:
    """The nonzero rational r, given as flag, as a float for the complex
    side, or ValueError when it underflows to 0.0."""
    x = float(r)
    if x == 0 and r:
        raise ValueError(f"{flag} {text!r}: underflows to 0.0 in double precision")
    return x


def _context(p: int, prec: int) -> PadicContext:
    """The context of a p-adic request, or ValueError when its default
    expansion would pass MAX_LENGTH.  2(p-1) prec, a lower bound for
    gexp_length_for, is checked first, so a huge p never reaches the
    primality check or the length search."""
    if 2 * (p - 1) * prec <= MAX_LENGTH:
        ctx = PadicContext(p, prec)
        if gexp_length_for(p, prec) <= MAX_LENGTH:
            return ctx
    raise ValueError(f"p = {p}, prec = {prec} needs an expansion longer than "
                     f"{MAX_LENGTH} coefficients")


def _at_most(limit: int, flag: str, n: int) -> int:
    """The count n given as flag, or ValueError above limit, before any row
    is built."""
    if n > limit:
        raise ValueError(f"{flag} {n} is above the limit of {limit}")
    return n


def _exact(m: int, value) -> str:
    """The exact value of row m as a string, or ValueError naming the row
    when it passes the interpreter's limit on int to str conversion."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(f"row m = {m}: the exact value has more than "
                         f"{sys.get_int_max_str_digits()} digits, the interpreter's "
                         f"limit for int to str conversion") from None


def _fmt_value(x, k: int) -> str:
    """Residue string for a p-adic value known mod p^k."""
    if x.is_exact_zero():
        return "0"
    if x.valuation < 0:
        return repr(x)
    return str(x.residue(k))


def _row(key: dict, side: str, value: str, claim: str, good: bool = True) -> dict:
    """One verdict row: the inputs in key, then side, value, claim, status."""
    return {**key, "side": side, "value": value, "precision_claim": claim,
            "status": "pass" if good else "fail"}


def _rel_err(got: float, want: float) -> float:
    """A complex value's error against the exact one: relative, absolute below 1."""
    return abs(got - want) / max(1.0, abs(want))


def _padic_row(key: dict, ctx: PadicContext, got, want=None) -> dict:
    """The row of got, checked against want (if given) mod p^k, k the weaker
    of their claims; an exact value is claimed at the working precision."""
    k = min(got.abs_precision, (got if want is None else want).abs_precision)
    k = ctx.precision if k == INF else k
    good = want is None or congruent(got, want, k)
    return _row(key, "padic", _fmt_value(got, k), f"mod {ctx.p}^{k}", good)


def _cmd_psi_tilde(args):
    r, m_max = _rational("--r", args.r), _at_most(MAX_M, "--m-max", args.m_max)
    rows = [{"m": m, "value": _exact(m, v), "precision_claim": "exact", "status": "pass"}
            for m, v in enumerate(psi_tilde_values(r, m_max))]
    return rows, {"r": str(r), "m_max": m_max}


def _cmd_eval(args):
    r, s = _rational("--r", args.r), _rational("--s", args.s)
    params = {"r": str(r), "s": args.s, "side": args.side}
    if args.side == "padic":
        if args.p is None:
            raise ValueError("--side padic needs --p")
        ctx = _context(args.p, args.prec)
        params.update({"p": args.p, "prec": args.prec})
        return [_padic_row({"s": args.s}, ctx, Psi(r, s, ctx))], params
    claim = f"quad epsabs {EPSABS:g}, tail {TAIL_TOL:g}"
    if s.denominator == 1 and s >= 0:
        m = int(s)
        val = psi_complex(_double("--r", args.r, r), m)
        good = _rel_err(val, float(r ** m * psi_tilde(r, m))) <= args.tol
    elif r > 0:  # no exact value: hold gfn to its recurrence, which shares quad
        x, y = float(s), _double("--r", args.r, r)
        val = gfn(x, y)
        err = _rel_err(val, x * gfn(x - 1, y) + y ** x)
        good = err <= args.tol
        claim += f"; gfn(s) = s gfn(s-1) + r^s, rel_err {err:.3e}"
    else:
        raise ValueError("complex side needs integer s >= 0 when r < 0")
    params["tol"] = args.tol
    return [_row({"s": args.s}, "complex", repr(float(val)), claim, good)], params


def _cmd_interp_check(args):
    r = _rational("--r", args.r)
    if args.p is None and not getattr(args, "complex"):
        raise ValueError("pick at least one side: --p and/or --complex")
    m_max = _at_most(MAX_M, "--m-max", args.m_max)
    tildes = psi_tilde_values(r, m_max)  # one O(m_max) run for every row
    rows = []
    params = {"r": str(r), "m_max": m_max}
    if args.p is not None:
        ctx = _context(args.p, args.prec)
        pr = principal_part(ctx.number(require_unit(r, args.p)))
        params.update({"p": args.p, "prec": args.prec})
        rows += [_padic_row({"m": m}, ctx, Psi(r, m, ctx), pr ** m * ctx.number(tildes[m]))
                 for m in range(m_max + 1)]
    if getattr(args, "complex"):
        params["tol"] = args.tol
        x = _double("--r", args.r, r)
        for m in range(m_max + 1):
            got = psi_complex(x, m)
            want = float(r ** m * tildes[m])
            err = _rel_err(got, want)
            rows.append(_row({"m": m}, "complex", repr(got), f"rel_err {err:.3e}",
                             err <= args.tol))
    return rows, params


def _cmd_func_eq(args):
    count = _at_most(MAX_SAMPLES, "--samples", args.samples)
    coeffs = _rational("--poly", args.poly,
                       lambda text: [as_rational(c) for c in text.split(",")])
    ctx = _context(args.p, args.prec)
    rng = random.Random(args.seed)
    samples = [rng.randint(-8, 8) for _ in range(count)]
    rows = [_padic_row({"s": s}, ctx, *functional_eq_parts(coeffs, s, ctx))
            for s in samples]
    if getattr(args, "complex"):
        for s in samples:
            err = mellin_fe_residual(coeffs, float(s))
            rows.append(_row({"s": s}, "complex", f"{err:.3e}", f"tol {args.tol:g}",
                             err <= args.tol))
    params = {"poly": args.poly, "p": args.p, "prec": args.prec,
              "samples": count, "seed": args.seed}
    return rows, params


def _emit(doc: dict, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(doc, stream, indent=2)
        stream.write("\n")
        return
    rows = doc["rows"]
    if not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every main call, built once per process: parse_args
    leaves a parser as it found it, so one instance serves each call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--prec", type=_count(1), default=28,
                        help="p-adic working precision (default 28)")
    common.add_argument("--tol", type=_tolerance, default=1e-8,
                        help="relative tolerance on the complex side")

    ap = argparse.ArgumentParser(
        prog="incgamma",
        description="incomplete gamma values at finite and archimedean places")
    sub = ap.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("psi-tilde", parents=[common],
                        help="exact rational target sequence")
    p1.add_argument("--r", required=True, help="rational, e.g. 5/3")
    p1.add_argument("--m-max", type=_count(0), default=10)
    p1.set_defaults(handler=_cmd_psi_tilde)

    p2 = sub.add_parser("eval", parents=[common], help="a single value")
    p2.add_argument("--side", choices=("padic", "complex"), required=True)
    p2.add_argument("--r", required=True)
    p2.add_argument("--s", required=True)
    p2.add_argument("--p", type=int)
    p2.set_defaults(handler=_cmd_eval)

    p3 = sub.add_parser("interp-check", parents=[common],
                        help="compare both places against the target sequence")
    p3.add_argument("--r", required=True)
    p3.add_argument("--m-max", type=_count(0), default=10)
    p3.add_argument("--p", type=int)
    p3.add_argument("--complex", action="store_true")
    p3.set_defaults(handler=_cmd_interp_check)

    p4 = sub.add_parser("func-eq", parents=[common],
                        help="functional equation for a polynomial weight")
    p4.add_argument("--poly", required=True,
                    help="comma list g1,g2,... of coefficients of x, x^2, ...")
    p4.add_argument("--p", type=int, required=True)
    p4.add_argument("--samples", type=_count(1), default=5)
    p4.add_argument("--seed", type=int, default=0)
    p4.add_argument("--complex", action="store_true")
    p4.set_defaults(handler=_cmd_func_eq)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value such as -1/2 or -2,1 for an option: pass it as --r=-1/2
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--r", "--s", "--poly") and not argv[i].startswith("--"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _parser().parse_args(argv)
    try:
        rows, params = args.handler(args)
    except (PlaceExcludedError, CompatibilityError, PrecisionError, ValueError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: complex side out of double range: {exc}", file=sys.stderr)
        return 2
    ok = all(row["status"] == "pass" for row in rows)
    doc = {"command": args.command, "params": params, "rows": rows, "pass": ok}
    _emit(doc, args.format, sys.stdout)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
