"""Bounded measures on Z_p as bounded coefficient sequences.

A measure mu is stored through its moments b_n = mu(binom(., n)); pairing
with phi = sum a_n binom(., n) is integrate(phi, mu) = sum a_n b_n.  The
Dirac measure at x has moments binom(x, n), and the twist of a Dirac by a
continuous psi has moments binom(x, n) psi(x - n).  These are exactly the
sequences the incomplete-gamma integral representation pairs against.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import INF, as_rational, digit_count, vp
from .padic import PadicContext, PadicNumber
from .mahler import MahlerFn, Tail


class Measure:
    """Moments b_n = mu(binom(., n)) with a norm bound on the unstored ones."""

    __slots__ = ("ctx", "coeffs", "bound")

    def __init__(self, ctx: PadicContext, coeffs, bound: Tail):
        self.ctx = ctx
        self.coeffs = [c if isinstance(c, PadicNumber) else ctx.number(as_rational(c))
                       for c in coeffs]
        if not self.coeffs:
            raise ValueError("need at least one moment")
        self.bound = bound

    @property
    def length(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> PadicNumber:
        if 0 <= n <= self.length:
            return self.coeffs[n]
        if self.bound.exponent == INF:
            return self.ctx.zero()
        raise IndexError(f"moment {n} beyond stored length {self.length}")

    def _coeff_valuation(self, n: int):
        c = self.coeffs[n]
        if c.is_exact_zero():
            return INF
        return c.valuation

    def norm_exponent(self):
        stored = min((self._coeff_valuation(n) for n in range(self.length + 1)),
                     default=INF)
        return min(stored, self.bound.exponent)

    def scale(self, c) -> "Measure":
        if not isinstance(c, PadicNumber):
            c = self.ctx.number(as_rational(c))
        v = c.valuation if not c.is_exact_zero() else INF
        bexp = self.bound.exponent + v if self.bound.exponent != INF else INF
        return Measure(self.ctx, [b * c for b in self.coeffs],
                       Tail(bexp, self.bound.certified, self.bound.note))

    def add(self, other: "Measure") -> "Measure":
        if self.ctx.p != other.ctx.p:
            raise ValueError("mixed primes")
        if self.bound.exponent == INF and other.bound.exponent == INF:
            K = max(self.length, other.length)
        elif self.bound.exponent == INF:
            K = other.length
        elif other.bound.exponent == INF:
            K = self.length
        else:
            K = min(self.length, other.length)
        coeffs = [self.coeff(n) + other.coeff(n) for n in range(K + 1)]
        bexp = min(self.bound.exponent, other.bound.exponent)
        certified = self.bound.certified and other.bound.certified
        return Measure(self.ctx, coeffs, Tail(bexp, certified, "sum"))

    def __repr__(self):
        b = "inf" if self.bound.exponent == INF else str(self.bound.exponent)
        return f"Measure(p={self.ctx.p}, K={self.length}, bound >= {b})"


def dirac(x, ctx: PadicContext, length: int) -> Measure:
    """delta_x with moments binom(x, n); |binom| <= 1 certifies the bound.

    At a PadicNumber x known mod p^N the moment binom(x, n) is fixed only
    mod p^(N - floor(log_p n)) (see MahlerFn._point_claim), and claims that.
    """
    if isinstance(x, PadicNumber):
        if not x.is_exact_zero() and x.valuation < 0:
            raise ValueError("Dirac point must lie in Z_p")
        exact = x.abs_precision == INF
        M = ctx.precision if exact else x.abs_precision
        X = 0 if x.is_exact_zero() else x.residue(M)
        mod = ctx.p ** M
        coeffs = []
        b = 1
        for n in range(length + 1):
            claim = M if exact or n == 0 else M - digit_count(n, ctx.p) + 1
            coeffs.append(PadicNumber._make(ctx, 0, b % mod, claim))
            b = b * (X - n) // (n + 1)
        return Measure(ctx, coeffs, Tail(0, True, "binomials are integral"))
    x = as_rational(x)
    if vp(x, ctx.p) < 0:
        raise ValueError("Dirac point must lie in Z_p")
    coeffs = []
    b = Fraction(1)
    for n in range(length + 1):
        coeffs.append(ctx.number(b))
        b = b * (x - n) / (n + 1)
    if x.denominator == 1 and 0 <= x <= length:
        return Measure(ctx, coeffs, Tail.exact())  # binom(x, n) = 0 beyond x
    return Measure(ctx, coeffs, Tail(0, True, "binomials are integral"))


def mu_psi_x(psi: MahlerFn, x, ctx: PadicContext | None = None,
             length: int | None = None) -> Measure:
    """Twisted Dirac: moments binom(x, n) psi(x - n).

    Pairing phi against it computes the convolution value (psi * phi)(x).
    """
    ctx = ctx or psi.ctx
    if length is None:
        length = psi.length
    base = dirac(x, ctx, length)
    coeffs = []
    for n in range(length + 1):
        coeffs.append(base.coeff(n) * psi.eval(x - n))
    e = psi.min_valuation()
    bexp = base.bound.exponent
    if bexp != INF:
        bexp = bexp + (e if e != INF else 0)
    certified = base.bound.certified and psi.tail.certified
    return Measure(ctx, coeffs, Tail(bexp, certified, "twisted Dirac"))


def integrate(phi: MahlerFn, mu: Measure) -> PadicNumber:
    """sum a_n b_n, with the cross tails folded into the reported precision."""
    if phi.ctx.p != mu.ctx.p:
        raise ValueError("mixed primes")
    ctx = phi.ctx
    if phi.tail.exponent == INF and mu.bound.exponent == INF:
        K = max(phi.length, mu.length)
    elif phi.tail.exponent == INF:
        K = mu.length
    elif mu.bound.exponent == INF:
        K = phi.length
    else:
        K = min(phi.length, mu.length)
    acc = ctx.zero()
    for n in range(K + 1):
        acc = acc + phi.coeff(n) * mu.coeff(n)
    # contributions beyond K: every unseen term has index n > K in both
    # factors at once, so either cross bound applies; keep the stronger
    err = max(_beyond(phi, K) + _norm(mu), _mu_beyond(mu, K) + _phi_norm(phi))
    if err != INF:
        acc = acc + PadicNumber(ctx, err, 0, err)
    return acc


def _beyond(phi: MahlerFn, K: int):
    return phi.valuation_beyond(K)


def _phi_norm(phi: MahlerFn):
    # INF means certified zero: every product term vanishes exactly
    return phi.min_valuation()


def _mu_beyond(mu: Measure, K: int):
    stored = min((mu._coeff_valuation(n) for n in range(K + 1, mu.length + 1)),
                 default=INF)
    return min(stored, mu.bound.exponent)


def _norm(mu: Measure):
    return mu.norm_exponent()
