"""Bounded measures on Z_p as MahlerFn moment sequences.

A measure mu is stored through its moments b_n = mu(binom(., n)) in a
MahlerFn, whose tail bounds the unstored moments; pairing with
phi = sum a_n binom(., n) is integrate(phi, mu) = sum a_n b_n.  The Dirac
measure at x has moments binom(x, n), and the twist of a Dirac by a
continuous psi has moments binom(x, n) psi(x - n), the sequences the
incomplete-gamma integral representation pairs against.  dirac builds and
integrate reads the residue records of mahler, never PadicNumber sums.
"""

from __future__ import annotations

from operator import add, mul

from .exact import INF, as_rational, digit_count
from .padic import PadicContext, PadicNumber
from .mahler import MahlerFn, Tail, _factorial_units, _joint_length, _line, _new, _record


def dirac(x, ctx: PadicContext, length: int) -> MahlerFn:
    """delta_x with moments binom(x, n); |binom| <= 1 certifies the tail.

    At x = a/d, binom(x, n) = p^(w_n - nu(n)) t_n / (d^n u_n): n! = p^nu(n) u_n
    (_factorial_units), and one forward int loop carries t_n and w_n, the unit
    part mod p^M and the valuation of prod_(k<n) (a - kd), and d^-n.  At an
    int or a Fraction (M = precision) a moment claims M + v, as ctx.number
    would; past an integer 0 <= x <= length they are exact zeros, with an
    exact tail.  At a PadicNumber x known mod p^M the moment binom(x, n) is
    fixed only mod p^(M - floor(log_p n)) (see mahler._line).
    """
    p, M = ctx.p, ctx.precision
    padic = isinstance(x, PadicNumber)
    if padic:
        if not x.is_exact_zero() and x.valuation < 0:
            raise ValueError("Dirac point must lie in Z_p")
        M = M if x.abs_precision == INF else x.abs_precision
        a, d = x.residue(M), 1
        claims = [M if x.abs_precision == INF or n == 0 else M - digit_count(n, p) + 1
                  for n in range(length + 1)]
    else:
        x = as_rational(x)
        a, d = x.numerator, x.denominator
        if d % p == 0:
            raise ValueError("Dirac point must lie in Z_p")
        claims = [INF] * (length + 1)
    mod = p ** M
    nu, _, iu = _factorial_units(p, 1 << length.bit_length(), M)  # as convolve keys it
    res, t, w, dn, di = [0] * (length + 1), 1, 0, 1, pow(d, -1, mod)
    for n in range(length + 1):
        v = w - nu[n]
        res[n] = t * dn * iu[n] % mod * p ** v
        if not padic:
            claims[n] = M + v
        q = a - n * d
        if q == 0:  # binom(x, m) = 0 for every m > n
            break
        while q % p == 0:
            q, w = q // p, w + 1
        t, dn = t * q % mod, dn * di % mod
    exact = q == 0 and not padic
    return _new(ctx, _record(p, 0, res, claims),
                Tail.exact() if exact else Tail(0, "binomials are integral"))


def mu_psi_x(psi: MahlerFn, x, length: int | None = None) -> MahlerFn:
    """Twisted Dirac: moments binom(x, n) psi(x - n).

    Pairing phi against it computes the convolution value (psi * phi)(x).
    """
    base = dirac(x, psi.ctx, psi.length if length is None else length)
    e = psi.min_valuation()
    texp = base.tail.exponent + (e if e != INF else 0)
    return _new(psi.ctx, _twisted(psi, x, base), Tail(texp, "twisted Dirac"))


def _twisted(psi: MahlerFn, x, base: MahlerFn):
    """Record of binom(x, n) psi(x - n), n <= K, base = dirac(x, ., K): each
    claims min(B_n + v(psi(x - n)), A_n + v(binom)) as PadicNumber products
    do, and an exact-zero moment gives an exact zero."""
    _, _, B, Bc, Bv = base._res
    shift, _, E, Ec, Ev = _record(psi.ctx.p, *_line(psi, x, base.length))
    claims = [min(b + e, c + w) for b, w, c, e in zip(Bc, Bv, Ec, Ev)]
    return _record(psi.ctx.p, shift, list(map(mul, B, E)), claims)


def integrate(phi: MahlerFn, mu: MahlerFn) -> PadicNumber:
    """sum a_n b_n on the residue records, with the cross tails folded into
    the reported precision.  Term n claims min(A_n + v(b_n), B_n + v(a_n)),
    as a PadicNumber product does, and the sum claims the least of those."""
    if phi.ctx.p != mu.ctx.p:
        raise ValueError("mixed primes")
    K = _joint_length(phi, mu, max(phi.length, mu.length))
    sa, _, ra, Pa, va = phi._res
    sb, _, rb, Pb, vb = mu._res
    total = sum(map(mul, ra[:K + 1], rb[:K + 1]))
    claim = min([*map(add, Pa[:K + 1], vb), *map(add, Pb[:K + 1], va)], default=INF)
    # contributions beyond K: every unseen term has index n > K in both
    # factors at once, so either cross bound applies; keep the stronger
    err = max(phi.valuation_beyond(K) + mu.min_valuation(),
              mu.valuation_beyond(K) + phi.min_valuation())
    return PadicNumber._make(phi.ctx, sa + sb, total, min(claim, err))
