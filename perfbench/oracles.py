"""Reference values computed without incgamma.

Every check in the benchmark compares against one of these.  They use only
plain integers, Fractions and mpmath, so a defect in the package cannot
leak into its own oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction


def twisted_residues(r: Fraction, p: int, k: int, m_max: int) -> list:
    """<r>^m psi_tilde(m) mod p^k for m = 0..m_max, in plain ints.

    r must be a p-adic unit.  psi_tilde(m) = 1 + (m/r) psi_tilde(m-1) only
    divides by r, and <r> = r / omega(r) with the Teichmuller part
    omega(r) = r^(p^(k-1)) mod p^k (omega = 1 at p = 2).
    """
    mod = p ** k
    rr = r.numerator * pow(r.denominator, -1, mod) % mod
    omega = 1 if p == 2 else pow(rr, p ** (k - 1), mod)
    principal = rr * pow(omega, -1, mod) % mod
    rinv = pow(rr, -1, mod)
    out = [1 % mod]
    psi, twist = 1, 1
    for m in range(1, m_max + 1):
        psi = (1 + m * rinv * psi) % mod
        twist = twist * principal % mod
        out.append(twist * psi % mod)
    return out


def psi_tilde_exact(r: Fraction, m: int) -> Fraction:
    """psi_tilde(m) as an exact rational."""
    val = Fraction(1)
    for j in range(1, m + 1):
        val = 1 + Fraction(j) / r * val
    return val


def scaled_psi_float(r: Fraction, m: int) -> float:
    """r^m psi_tilde(m) rounded once to a double."""
    return float(r ** m * psi_tilde_exact(r, m))


def gfn_reference(a: float, b: float, r: float) -> complex:
    """gfn(a + bi, r) = e^r Gamma(a + bi + 1, r) at 30 digits."""
    import mpmath
    with mpmath.workdps(30):
        s = mpmath.mpc(a, b)
        return complex(mpmath.exp(r) * mpmath.gammainc(s + 1, r))


def rel_err(got, want) -> float:
    if want == 0:
        return abs(got)
    return abs(got - want) / abs(want)


def padic_value(x) -> Fraction:
    """The rational p^valuation * unit that a PadicNumber stores, read from
    its raw fields; 0 when the value is indistinguishable from zero."""
    if x.valuation == math.inf or x.unit == 0:
        return Fraction(0)
    return Fraction(x.unit) * Fraction(x.ctx.p) ** x.valuation


def valuation(q: Fraction, p: int) -> float:
    if q == 0:
        return math.inf
    v = 0
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def residue_of(x, k: int) -> int | None:
    """x mod p^k from the raw fields, or None when x is not p-integral."""
    q = padic_value(x)
    if valuation(q, x.ctx.p) < 0:
        return None
    mod = x.ctx.p ** k
    return q.numerator * pow(q.denominator, -1, mod) % mod


def agree(x, y, k: int) -> str | None:
    """None when both claims reach p^k and x = y mod p^k, else why not."""
    for side, v in (("lhs", x), ("rhs", y)):
        if v.abs_precision < k:
            return f"{side} claims only O(p^{v.abs_precision}) < O(p^{k})"
    if valuation(padic_value(x) - padic_value(y), x.ctx.p) < k:
        return f"sides differ mod p^{k}"
    return None
