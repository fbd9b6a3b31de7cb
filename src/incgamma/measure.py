"""Bounded measures on Z_p as MahlerFn moment sequences.

A measure mu is stored through its moments b_n = mu(binom(., n)) in a
MahlerFn, whose tail bounds the unstored moments; pairing with
phi = sum a_n binom(., n) is integrate(phi, mu) = sum a_n b_n.  The Dirac
measure at x has moments binom(x, n), and the twist of a Dirac by a
continuous psi has moments binom(x, n) psi(x - n).  These are exactly the
sequences the incomplete-gamma integral representation pairs against.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import INF, as_rational, digit_count, vp
from .padic import PadicContext, PadicNumber
from .mahler import MahlerFn, Tail, _joint_length


def dirac(x, ctx: PadicContext, length: int) -> MahlerFn:
    """delta_x with moments binom(x, n); |binom| <= 1 certifies the tail.

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
        return MahlerFn(ctx, coeffs, Tail(0, True, "binomials are integral"))
    x = as_rational(x)
    if vp(x, ctx.p) < 0:
        raise ValueError("Dirac point must lie in Z_p")
    coeffs = []
    b = Fraction(1)
    for n in range(length + 1):
        coeffs.append(ctx.number(b))
        b = b * (x - n) / (n + 1)
    if x.denominator == 1 and 0 <= x <= length:
        return MahlerFn(ctx, coeffs, Tail.exact())  # binom(x, n) = 0 beyond x
    return MahlerFn(ctx, coeffs, Tail(0, True, "binomials are integral"))


def mu_psi_x(psi: MahlerFn, x, length: int | None = None) -> MahlerFn:
    """Twisted Dirac: moments binom(x, n) psi(x - n).

    Pairing phi against it computes the convolution value (psi * phi)(x).
    """
    ctx = psi.ctx
    if length is None:
        length = psi.length
    base = dirac(x, ctx, length)
    coeffs = [b * psi.eval(x - n) for n, b in enumerate(base.coeffs)]
    e = psi.min_valuation()
    texp = base.tail.exponent
    if texp != INF:
        texp = texp + (e if e != INF else 0)
    certified = base.tail.certified and psi.tail.certified
    return MahlerFn(ctx, coeffs, Tail(texp, certified, "twisted Dirac"))


def integrate(phi: MahlerFn, mu: MahlerFn) -> PadicNumber:
    """sum a_n b_n, with the cross tails folded into the reported precision."""
    if phi.ctx.p != mu.ctx.p:
        raise ValueError("mixed primes")
    K = _joint_length(phi, mu, max(phi.length, mu.length))
    acc = phi.ctx.zero()
    for n in range(K + 1):
        acc = acc + phi.coeff(n) * mu.coeff(n)
    # contributions beyond K: every unseen term has index n > K in both
    # factors at once, so either cross bound applies; keep the stronger
    err = max(phi.valuation_beyond(K) + mu.min_valuation(),
              mu.valuation_beyond(K) + phi.min_valuation())
    if err != INF:
        acc = acc + PadicNumber(phi.ctx, err, 0, err)
    return acc
