"""The finite-place incomplete gamma construction.

The weight function phi_r is the continuous extension of the coefficient
data of exp(f_r), where f_r(t) = r(1 - (1-t)^{1/r}) so that
f_r'(t) = (1-t)^{1/r-1}.  Its L transform

    Phi(s) = sum_k (s)_k phi_r(-1 - k)

interpolates the rational sequence psi_tilde: for integers m >= 0,
Phi((m+1)/r - 1) = psi_tilde(m), and the twisted value
Psi(s) = <r>^s Phi((s+1)/r - 1) is continuous in s.  The incomplete gamma
value itself keeps the divergent exponential E(-r) as a symbolic factor.

Everything here needs r to be a p-adic unit; other places are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import sub

from .exact import _vp, as_rational, binom
from .padic import (PadicContext, PadicNumber, congruent, principal_part,
                    principal_power)
from .series import TruncSeries
from . import mahler
from .mahler import MahlerFn, _gexp_fn, _gexp_kernel, _gexp_weights, convolve, gexp_length_for
from .measure import dirac, integrate
from .transform import factorial_length_for, l_value, l_values, one_minus_x_pow


class PlaceExcludedError(ValueError):
    """r is not a unit at p, so the weight exp(f_r) has no p-adic sense."""


# raised by mahler's gexp front door, which poly_gexp shares with from_gexp
CompatibilityError = mahler.CompatibilityError


def _nonzero(r) -> Fraction:
    """r as a rational, or ValueError at 0: f_r, phi_r and psi_tilde divide by r."""
    r = as_rational(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    return r


def f_r_series(r, order: int) -> TruncSeries:
    """f_r(t) = r(1 - (1-t)^{1/r}) = -r sum_k (-1)^k binom(1/r, k) t^k."""
    r = _nonzero(r)
    u = 1 / r
    coeffs = [Fraction(0)]
    for k in range(1, order + 1):
        coeffs.append(-r * (-1) ** k * binom(u, k))
    return TruncSeries(coeffs)


def require_unit(r, p: int) -> Fraction:
    """The place check: v_p(r) must vanish (p a PadicContext's prime)."""
    r = _nonzero(r)
    v = _vp(r, p)
    if v != 0:
        raise PlaceExcludedError(
            f"v_{p}({r}) = {v}; the construction needs a unit")
    return r


def phi_values_exact(r, count: int) -> list:
    """phi_r(0), ..., phi_r(count) as exact rationals.

    Uses the shift relation sigma phi_r = S^{1/r-1} phi_r, which at integer
    points reads phi(n+1) = sum_k (-1)^k (1/r - 1)_k binom(n,k) phi(n-k).
    Independent of the EGF route, so the two engines cross-check.
    """
    r = _nonzero(r)
    u = 1 / r - 1
    vals = [Fraction(1)]
    for n in range(count):
        acc = Fraction(0)
        w = Fraction(1)  # (-1)^k (u)_k
        for k in range(n + 1):
            acc += w * math.comb(n, k) * vals[n - k]
            w *= k - u
        vals.append(acc)
    return vals


def phi_fr(r, ctx: PadicContext, length: int | None = None,
           tail_target: int | None = None) -> MahlerFn:
    """The weight phi_r as a p-adic expansion whose tail is the gexp certificate:
    the d_n of exp(f_r - t) = sum d_n t^n/n! mod p^M, built by _phi_expansion
    (PlaceExcludedError unless r is a unit at p).

    Default sizing picks the shortest length whose gexp certificate reaches
    tail_target (default: the context precision), its only use.
    _phi_expansion is an LRU cache keyed by (r, ctx, length); a hit returns
    the cached expansion itself, which is immutable.
    """
    if length is None:
        length = gexp_length_for(ctx.p, ctx.precision if tail_target is None else tail_target)
    return _phi_expansion(as_rational(r), ctx, length)


# Bounded LRUs that hand out immutable values, so no caller can change a
# cached one; cache_info() counts hits and misses.  The bookkeeping is
# thread-safe, but two threads missing on one key may both build the value.
@lru_cache(maxsize=32)
def _phi_expansion(r: Fraction, ctx: PadicContext, length: int) -> MahlerFn:
    """phi_r through index length, for r = A/B in lowest terms, B > 0.

    r must be a unit at p (PlaceExcludedError otherwise), checked before
    either route runs: the gexp kernel or, for r of small height
    (_takes_dfinite), the D-finite recurrence of _phi_dfinite.  f_r has
    k! c_k = (-1)^(k-1) (1/r - 1)_(k-1), so the kernel weights of f_r - t
    are w_1 = 0 and w_k = W_k mod p^M, W_1 = 1, W_(k+1) = W_k (k - 1/r):
    one product per index, with 1/r = B A^-1 mod p^M.  Only the unit A is
    inverted, and both routes end in mahler._gexp_fn, so their records and
    tails are identical.
    """
    require_unit(r, ctx.p)
    A, B = r.numerator, r.denominator
    mod = ctx.p ** ctx.precision
    if _takes_dfinite(A, B, length):
        return _gexp_fn(ctx, _phi_dfinite(A, B, mod, length))
    c = B * pow(A, -1, mod) % mod
    weights, w = [0], 1
    for k in range(1, length):
        w = w * (k - c) % mod
        weights.append(w)
    return _gexp_kernel(ctx, weights, length)


def _takes_dfinite(A: int, B: int, length: int) -> bool:
    """Whether _phi_dfinite, not the gexp kernel, builds phi_(A/B) through
    index length: when h = 5 |A| + 2 |B-A| < length / 3, and for A = 1 also
    h < 40.

    Timed at the default lengths, p 2-13, prec 20-60, where the cut kernel
    sums about length/5 terms per index, one C-level product each: the
    recurrence breaks even at |A| of about 0.05-0.07 length (|B-A| = 1) and
    |B-A| of about 0.1-0.2 length (|A| = 2), some 0.6 products per unit of
    h.  At r = 1/B, f_r is a polynomial of degree B, the kernel sums at most
    B terms per index, and the break-even is B of about 12-30.  At longer
    lengths, such as the Dirac route's doubled ones, the kernel stops at its
    early index last while _phi_dfinite runs on to length, so the rule can
    pick the slower route (r = 7/2, p 3, prec 30, length 246: 1.6 ms against
    1.3 for the kernel and its weights).
    """
    h = 5 * abs(A) + 2 * abs(B - A)
    return 3 * h < length and (A != 1 or h < 40)


def _phi_dfinite(A: int, B: int, mod: int, length: int) -> list:
    """d_0..d_length mod p^M of E = exp(f_r - t), r = A/B, B > 0.

    With c = (B-A)/A, h = f_r' = (1-t)^c and G_j = F_(j+1) - F_j, the series
    F_j = h^j E, j < |A|, obey (1-t) F_j' = -jc F_j + (1-t) G_j, as E' = (h-1) E
    and (1-t) h' = -c h; in EGF coefficients, [t^n/n!] (1-t) F' = F_(n+1) - n F_n:
        F_(j,n+1) = (n - jc) F_(j,n) + G_(j,n) - n G_(j,n-1)
    (Stanley, "Differentiably finite power series", Europ. J. Combin. 1,
    1980).  F_|A| = (1-t)^e F_0, e = (B-A) sign(A), closes the system: |e|
    chained steps y_n = x_n - n x_(n-1) (e > 0) or y_n = x_n + n y_(n-1)
    (e < 0), so step i at n is F_(0,n) -+ n times a prefix sum of the steps
    at n-1.  Only the unit A is inverted; the state is the last terms of
    each F_j and step, and the G_j at n-1.
    """
    a, e = abs(A), (B - A) * (1 if A > 0 else -1)
    c = (B - A) * pow(A, -1, mod) % mod
    jc = [j * c % mod for j in range(a)]
    F, G, steps, d = [1] * a, [0] * a, [1] * (abs(e) + 1), [1]
    for n in range(length):
        k, sums = (-n, steps[:-1]) if e > 0 else (n, steps[1:])
        steps = [F[0], *[(F[0] + k * S) % mod for S in accumulate(sums)]]
        Gn = list(map(sub, F[1:] + steps[-1:], F))
        F, G = [((n - q) * f + g - n * h) % mod for q, f, g, h in zip(jc, F, Gn, G)], Gn
        d.append(F[0])
    return d


@lru_cache(maxsize=32)
def _twist_and_lvalues(r: Fraction, ctx: PadicContext, K: int) -> tuple:
    """(<r>, the LValues of phi_r's default expansion through index K):
    everything a warm Phi or Psi reads."""
    return principal_part(ctx.number(r)), l_values(phi_fr(r, ctx), K)


def poly_gexp(coeffs, ctx: PadicContext, length: int | None = None) -> MahlerFn:
    """Mahler expansion of exp(f) for a polynomial f = sum_{k>=1} g_k x^k:
    from_gexp's contract at f(0) = 0, through index length (default: the
    length whose gexp certificate reaches the precision)."""
    weights = _gexp_weights([as_rational(c) for c in coeffs], ctx)
    if length is None:
        length = gexp_length_for(ctx.p, ctx.precision)
    return _gexp_kernel(ctx, weights, length)


def psi_tilde(r, m: int) -> Fraction:
    """The interpolated rational sequence: psi_tilde(0) = 1 and
    psi_tilde(m) = 1 + (m/r) psi_tilde(m-1)."""
    return psi_tilde_values(r, m)[m]


def psi_tilde_values(r, m_max: int) -> list:
    """psi_tilde(0), ..., psi_tilde(m_max) from one run of the recurrence."""
    r = _nonzero(r)
    if m_max < 0:
        raise ValueError("m must be a nonnegative integer")
    vals = [Fraction(1)]
    for j in range(1, m_max + 1):
        vals.append(1 + Fraction(j) / r * vals[-1])
    return vals


def Phi(r, s, ctx: PadicContext, target: int | None = None,
        route: str = "direct") -> PadicNumber:
    """L-transform value sum_k (s)_k phi_r(-1 - k) for s in Z_p.

    route "direct" sums falling factorials against the cached L-values of
    phi_r's default expansion;
    route "dirac" instead convolves phi_r with (1 - x)^{*s} and pairs the
    result against the Dirac measure at -1.  Both agree within precision
    and keep each other honest.
    """
    r = require_unit(r, ctx.p)
    if target is None:
        target = ctx.precision
    if route == "direct":
        values = _twist_and_lvalues(r, ctx, factorial_length_for(ctx.p, target))[1]
        return l_value(None, s, target=target, values=values)
    if route == "dirac":
        L = 2 * gexp_length_for(ctx.p, target)
        phi = phi_fr(r, ctx, length=L)
        g = one_minus_x_pow(s, ctx, L)
        prod = convolve(g, phi)
        return integrate(prod, dirac(Fraction(-1), ctx, prod.length))
    raise ValueError(f"unknown route {route!r}")


def Psi(r, s, ctx: PadicContext, target: int | None = None,
        route: str = "direct") -> PadicNumber:
    """<r>^s Phi((s+1)/r - 1): the continuous interpolation of
    <r>^m psi_tilde(m)."""
    r = require_unit(r, ctx.p)
    s = s if isinstance(s, PadicNumber) else as_rational(s)
    value = Phi(r, (s + 1) / r - 1, ctx, target=target, route=route)
    if route == "dirac":  # <r> alone: the L-values belong to the direct route
        return principal_power(principal_part(ctx.number(r)), s) * value
    K = factorial_length_for(ctx.p, ctx.precision if target is None else target)
    return principal_power(_twist_and_lvalues(r, ctx, K)[0], s) * value


@dataclass(frozen=True)
class GammaValue:
    """A p-adic incomplete gamma value E(exp_arg) * value.

    The exponential factor is symbolic: the series for E does not converge
    at a unit argument, and every identity downstream (recurrences, the
    interpolation checks) cancels it.
    """

    exp_arg: Fraction
    value: PadicNumber

    def __repr__(self):
        return f"E({self.exp_arg}) * ({self.value!r})"


def gamma_p(r, s, ctx: PadicContext, target: int | None = None,
            route: str = "direct") -> GammaValue:
    """The incomplete gamma value at the finite place: E(-r) Psi(s - 1)."""
    r = require_unit(r, ctx.p)
    s = s if isinstance(s, PadicNumber) else as_rational(s)
    return GammaValue(-r, Psi(r, s - 1, ctx, target=target, route=route))


def fe_coefficients(coeffs) -> list:
    """Taylor coefficients of f' at 1: c_m = sum_{k>m} k binom(k-1, m) a_k."""
    a = [as_rational(c) for c in coeffs]
    deg = len(a)
    out = []
    for m in range(deg):
        out.append(sum((k * math.comb(k - 1, m) * a[k - 1] for k in range(m + 1, deg + 1)),
                       Fraction(0)))
    return out


def compatible_cubic(a, b, c) -> list:
    """The cubic with f'(x) = a - b(x-1) + c(x-1)^2, i.e. with functional
    equation 1 + s Phi(s-1) = a Phi(s) + b Phi(s+1) + c Phi(s+2)."""
    a, b, c = as_rational(a), as_rational(b), as_rational(c)
    return [a + b + c, -b / 2 - c, c / 3]


def functional_eq_parts(coeffs, s, ctx: PadicContext, target: int | None = None):
    """Both sides of 1 + s Phi_f(s-1) = sum_m (-1)^m c_m Phi_f(s+m)
    for a polynomial weight f with no constant term, as (lhs, rhs)."""
    if target is None:
        target = ctx.precision
    phi = poly_gexp(coeffs, ctx)
    vals = l_values(phi, factorial_length_for(ctx.p, target))

    def value_at(x):
        return l_value(phi, x, target=target, values=vals)

    s = s if isinstance(s, PadicNumber) else as_rational(s)
    lhs = ctx.one() + s * value_at(s - 1)
    rhs = ctx.zero()
    for m, c in enumerate(fe_coefficients(coeffs)):
        if c:
            sign = c if m % 2 == 0 else -c
            rhs = rhs + ctx.number(sign) * value_at(s + m)
    return lhs, rhs


def functional_eq_check(coeffs, s, ctx: PadicContext, target: int | None = None,
                        k: int | None = None) -> bool:
    """Whether the two sides of the functional equation agree mod p^k
    (default: the weaker of the two precision claims)."""
    return congruent(*functional_eq_parts(coeffs, s, ctx, target=target), k)
