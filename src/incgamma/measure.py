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
from .mahler import MahlerFn, Tail, _joint_length, _line, _new, _record


def dirac(x, ctx: PadicContext, length: int) -> MahlerFn:
    """delta_x with moments binom(x, n); |binom| <= 1 certifies the tail.

    One int loop carries binom(x, n) = p^v u, u a unit mod p^M, through
    binom(x, n+1) = binom(x, n) (a - nd) / (d (n+1)) for x = a/d, with the
    unit parts of the d (n+1) inverted together by one modular pow.  At an
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
    # binom(x, n) = p^vs[n] nums[n] / D_n: nums and D_n = dens[0] ... dens[n]
    # are prefix products of the unit parts of a - kd and d (k+1), k < n
    nums, dens, vs, D = [1], [1], [0], 1
    for n in range(length):
        t = a - n * d
        if t == 0:  # binom(x, n) = 0 beyond the integer x = n
            break
        q, v = d * (n + 1), vs[-1]
        while t % p == 0:
            t, v = t // p, v + 1
        while q % p == 0:
            q, v = q // p, v - 1
        vs.append(v)
        nums.append(nums[-1] * t % mod)
        dens.append(q)
        D = D * q % mod
    else:
        t = a - length * d
    # one inversion for all: 1 / D_(n-1) = dens[n] / D_n, swept backward
    res, inv = [0] * (length + 1), pow(D, -1, mod)
    for n in range(len(vs) - 1, -1, -1):
        res[n] = nums[n] * inv % mod * p ** vs[n]
        if not padic:
            claims[n] = M + vs[n]
        inv = inv * dens[n] % mod
    exact = t == 0 and not padic
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
    claims = [INF if b == INF else min(b + e, c + w) for b, w, c, e in zip(Bc, Bv, Ec, Ev)]
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
