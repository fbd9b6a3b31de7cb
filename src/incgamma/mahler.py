"""Continuous functions on Z_p through their Mahler expansions.

phi = sum a_n binom(x, n), with ||phi|| = sup |a_n|.  A MahlerFn stores
a_0..a_K once, as p^shift times plain ints with each claim and valuation
(shift = min(0, lowest valuation)), and a Tail record bounding every
coefficient beyond K; the measures of measure are the same data, read as
moments.  Evaluation, convolution, sums, scalings, the pairing and the
L-values of transform all run on those ints; PadicNumbers appear only as
results and when coeffs is read.  ExactMahler is the finitely-supported
rational counterpart used wherever exactness matters (oracles, the
correspondence checks, small building blocks); it reduces into a MahlerFn
with an exact tail.

The exponential-generating-function correspondences of ExactMahler:
prodcorr(phi) = sum (nabla^n phi)(0) t^n/n!   (algebra map for convolution)
actcorr(phi)  = sum phi(n) t^n/n! = exp(t) * prodcorr(phi)
from_gexp inverts actcorr on grouplike exponentials through the gexp
kernel, which phi_fr and poly_gexp in gamma_padic share.  Each proof has
one home: the tail certificate in gexp_tail_floor, the kernel's cut and
trim in _gexp_kernel, the factorial-scaled convolution in convolve.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate, compress, repeat, zip_longest
from operator import add, mul, sub
from typing import NamedTuple

from .exact import INF, _vp, as_rational, digit_count
from .padic import PadicContext, PadicNumber, _exp_domain_valuation, p_exp, zp_residue
from .series import TruncSeries


@dataclass(frozen=True)
class Tail:
    """Proven bound |a_n| <= p^(-exponent) for every n beyond the stored
    range; note names the proof (finite support, factorial decay, the gexp
    certificate, a sum or a convolution)."""
    exponent: int | float
    note: str = ""

    @staticmethod
    def exact() -> "Tail":
        return Tail(INF, "finite support")


class CompatibilityError(ValueError):
    """A weight violates the hypotheses of the gexp expansion."""


def gexp_tail_floor(p: int, K: int) -> int:
    """Certified valuation floor for gexp Mahler coefficients beyond K.

    The certificate: with exp(g) = sum d_n t^n/n!, g = f - f(0) - t, a
    composition of n into j parts all >= 1 with j_1 parts equal to 1 forces
    j <= (n + j_1)/2, and each size-1 part contributes v_p >= v_p(g_1) >= 1, so
        v_p(d_n) >= v_p(n!) - v_p(floor(n/2)!) >= n/(2(p-1)) - log_p(n) - 1.
    That bound n // (2(p-1)) - c - 1 at n = K + 1, c its number of base-p
    digits, is nondecreasing on each block of n with the same c and dips by
    one where n reaches a power of p.  A floor for every index past K' <= K
    holds past K too, so this is the running maximum: the larger of the
    bound at n and at p^(c-1) - 1, where the previous block ends (the bound
    at block ends grows with the block).
    """
    n = K + 1
    c = digit_count(n, p)
    floor = n // (2 * (p - 1)) - c - 1
    if c == 1:
        return floor
    return max(floor, (p ** (c - 1) - 1) // (2 * (p - 1)) - c)


def gexp_length_for(p: int, target: int) -> int:
    """Smallest K >= max(8, 2(p-1) target) whose certified gexp tail reaches
    the target exponent.

    gexp_tail_floor is nondecreasing, and on the block of n = K + 1 with c
    base-p digits it is the larger of n // (2(p-1)) - c - 1 and the floor
    carried from the previous blocks.  So each block is solved in closed
    form, its least n being the first with n >= 2(p-1)(target + c + 1)
    unless the carried floor already reaches the target, and the search
    moves to the next block only when that n lies past the block's end.
    """
    n = max(8, 2 * (p - 1) * target) + 1
    c = digit_count(n, p)
    while True:
        if c == 1 or (p ** (c - 1) - 1) // (2 * (p - 1)) - c < target:
            n = max(n, 2 * (p - 1) * (target + c + 1))
        if n < p ** c:
            return n - 1
        n, c = p ** c, c + 1


class ExactMahler:
    """Finitely supported Mahler expansion over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [as_rational(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [Fraction(0)]
        self.coeffs = coeffs

    @property
    def length(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n <= self.length else Fraction(0)

    def eval(self, x) -> Fraction:
        x = as_rational(x)
        out = Fraction(0)
        b = Fraction(1)
        for n, a in enumerate(self.coeffs):
            out += a * b
            b = b * (x - n) / (n + 1)
        return out

    def shift(self) -> "ExactMahler":
        """sigma phi : x -> phi(x + 1), coefficients a_n + a_{n+1}."""
        K = self.length
        return ExactMahler([self.coeff(n) + self.coeff(n + 1) for n in range(K + 1)])

    def nabla(self) -> "ExactMahler":
        """(sigma - 1) phi, coefficients a_{n+1}."""
        return ExactMahler(self.coeffs[1:] or [0])

    def convolve(self, other: "ExactMahler") -> "ExactMahler":
        Kc = self.length + other.length
        out = []
        for n in range(Kc + 1):
            acc = Fraction(0)
            for k in range(max(0, n - other.length), min(n, self.length) + 1):
                acc += math.comb(n, k) * self.coeffs[k] * other.coeff(n - k)
            out.append(acc)
        return ExactMahler(out)

    def prodcorr(self, order: int) -> TruncSeries:
        return TruncSeries([self.coeff(n) / math.factorial(n) for n in range(order + 1)])

    def actcorr(self, order: int) -> TruncSeries:
        return TruncSeries([self.eval(n) / math.factorial(n) for n in range(order + 1)])

    def to_padic(self, ctx: PadicContext) -> "MahlerFn":
        return MahlerFn(ctx, [ctx.number(c) for c in self.coeffs], Tail.exact())

    def __eq__(self, other):
        if not isinstance(other, ExactMahler):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"ExactMahler({self.coeffs[:6]}{'...' if self.length > 5 else ''})"


class _Residues(NamedTuple):
    """a_n = p^shift res[n] + O(p^claims[n]) of valuation vals[n], M = min(claims);
    an exact zero has res 0 and claim INF, an O(p^A) res 0 and valuation A."""
    shift: int
    M: int | float
    res: tuple
    claims: tuple
    vals: tuple


def _record(p: int, shift: int, res, claims) -> _Residues:
    """Record of a_n = p^shift res[n] + O(p^claims[n]): each res[n] reduced,
    the valuations read off the ints, shift moved to min(0, lowest one)."""
    mods = {A: p ** (A - shift) if shift < A < INF else 1 for A in set(claims)}
    ms = list(map(mods.__getitem__, claims))
    res = list(map(int.__mod__, res, ms))
    # a nonzero r mod p^k has gcd(r, p^k) = p^vp(r), and p^k divides top = p^e
    e = max((A - shift for A in mods if shift < A < INF), default=0)
    top, log = p ** e, {p ** k: k for k in range(e + 1)}
    vals = [shift + log[g] if r else A for r, A, g in zip(res, claims, map(math.gcd, res, ms))]
    low = min(0, shift + log[math.gcd(math.gcd(*res), top)]) if any(res) else 0
    if low != shift:
        d = p ** abs(low - shift)
        res = [r * d for r in res] if low < shift else [r // d for r in res]
    return _Residues(low, min(claims, default=INF), tuple(res), tuple(claims), tuple(vals))


class MahlerFn:
    """Mahler expansion with p-adic coefficients and a tail record.

    a_0..a_K live once as a residue record (_Residues), and tail bounds
    every a_n with n > K; coeffs, the tuple of PadicNumbers, is derived on
    first read.  The same data is a bounded measure read through its
    moments (see measure), so functions and measures share this type.
    Attribute writes raise, so a cached expansion cannot be changed.
    """

    __slots__ = ("ctx", "tail", "_res", "_coeffs")

    def __init__(self, ctx: PadicContext, coeffs, tail: Tail):
        coeffs = tuple(c if isinstance(c, PadicNumber) else ctx.number(c)
                       for c in coeffs) or (ctx.zero(),)
        p, shift = ctx.p, min(0, *(c.valuation for c in coeffs))
        res = [c.unit and c.unit * p ** (c.valuation - shift) for c in coeffs]
        claims = [c.abs_precision for c in coeffs]
        _new(ctx, _record(p, shift, res, claims), tail, coeffs, self)

    def __setattr__(self, name, value):
        raise AttributeError(f"MahlerFn is immutable: cannot set {name!r}")

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            shift, _, res, claims, _ = self._res
            object.__setattr__(self, "_coeffs", tuple(
                PadicNumber._make(self.ctx, shift, r, A) for r, A in zip(res, claims)))
        return self._coeffs

    @property
    def length(self) -> int:
        return len(self._res.res) - 1

    def coeff(self, n: int) -> PadicNumber:
        if 0 <= n <= self.length:
            return self.coeffs[n]
        if self.tail.exponent == INF:
            return self.ctx.zero()
        raise IndexError(f"coefficient {n} beyond stored length {self.length}")

    # -- norms -------------------------------------------------------------

    def min_valuation(self):
        """Exponent e with ||phi|| <= p^(-e); equality when the stored
        minimum does not exceed the tail bound (the usual case).  INF means
        certified zero."""
        return self.valuation_beyond(-1)

    def valuation_beyond(self, m: int):
        """Lower bound for min valuation over indices n > m."""
        return min(min(self._res.vals[m + 1:], default=INF), self.tail.exponent)

    # -- evaluation --------------------------------------------------------

    def eval(self, x) -> PadicNumber:
        """phi(x) for x in Z_p.

        x may be an int, a Fraction with p-free denominator, or a
        PadicNumber of valuation >= 0 (evaluated at its full integer lift).
        Reported precision is min(coefficient precision, tail exponent);
        at a PadicNumber known mod p^N, also at most the claim that every
        lift allows (see _line, whose k = 0 value this is).
        """
        shift, (value,), (claim,) = _line(self, x, 0)
        return PadicNumber._make(self.ctx, shift, value, claim)

    # -- shift algebra -----------------------------------------------------

    def shift(self) -> "MahlerFn":
        """sigma phi : x -> phi(x + 1), coefficients a_n + a_{n+1}.

        With a finite tail the last stored coefficient absorbs an O(p^T)
        term for the unknown a_{K+1}; the tail exponent is unchanged.
        """
        shift, _, res, claims, _ = self._res
        T = self.tail.exponent  # a_{K+1} is O(p^T), an exact zero when T = INF
        rec = _record(self.ctx.p, shift, list(map(add, res, res[1:] + (0,))),
                      list(map(min, claims, claims[1:] + (T,))))
        return _new(self.ctx, rec, self.tail)

    def scale(self, c) -> "MahlerFn":
        """c * phi on residues: a_n c claims min(A_n + v(c), A_c + v(a_n)),
        as PadicNumber products do, and exact zeros stay exact."""
        c = c if isinstance(c, PadicNumber) else self.ctx.number(c)
        if c.ctx.p != self.ctx.p:
            raise ValueError("mixed primes")
        v = c.valuation
        shift, _, res, claims, vals = self._res
        rec = _record(self.ctx.p, shift + (0 if v == INF else v), [r * c.unit for r in res],
                      [min(A + v, c.abs_precision + w) for A, w in zip(claims, vals)])
        return _new(self.ctx, rec, replace(self.tail, exponent=self.tail.exponent + v))

    def add(self, other: "MahlerFn") -> "MahlerFn":
        """Termwise sum on residues; a_n + b_n claims min(A_n, B_n)."""
        if self.ctx.p != other.ctx.p:
            raise ValueError("mixed primes")
        p = self.ctx.p
        K = _joint_length(self, other, max(self.length, other.length))
        a, b = self._res, other._res
        shift = min(a.shift, b.shift)
        ra, rb = ([r * p ** (f.shift - shift) for r in f.res[:K + 1]] for f in (a, b))
        # past the shorter exact expansion its terms are exact zeros
        rec = _record(p, shift, [x + y for x, y in zip_longest(ra, rb, fillvalue=0)],
                      list(map(min, zip_longest(a.claims[:K + 1], b.claims[:K + 1],
                                                fillvalue=INF))))
        texp = min(self.valuation_beyond(K), other.valuation_beyond(K))
        return _new(self.ctx, rec, Tail(texp, "sum"))

    def __repr__(self):
        return f"MahlerFn(p={self.ctx.p}, K={self.length}, tail >= {self.tail.exponent})"


def _new(ctx: PadicContext, rec: _Residues, tail: Tail, coeffs=None, fn=None):
    """Fill fn (a new MahlerFn by default) past the write guard; coeffs is
    derived from rec on demand unless given."""
    fn = MahlerFn.__new__(MahlerFn) if fn is None else fn
    for name, value in zip(MahlerFn.__slots__, (ctx, tail, rec, coeffs)):
        object.__setattr__(fn, name, value)
    return fn


def _joint_length(a: MahlerFn, b: MahlerFn, exact: int) -> int:
    """Stored length of a result built termwise from a and b: exact when
    both tails are exact, else the shortest length behind a finite tail."""
    return min((f.length for f in (a, b) if f.tail.exponent != INF), default=exact)


def _line(phi: MahlerFn, x, K: int):
    """(shift, res, claims) with phi(x - k) = p^shift res[k] + O(p^claims[k])
    for k = 0..K, as eval claims it at x - k formed as x's type forms it (a
    PadicNumber x keeps its precision N; at an exact zero one, k coerces to
    precision + v_p(k) + 4).

    phi(x) = sum a_n binom(X, n), X a lift of x; lifts X + p^N t move
    binom(X, n) by valuation >= N - floor(log_p n), which caps the claim at
    a PadicNumber (a Fraction's N puts the moves below p^(M - shift)).  With
    a'_n = (-1)^n a_n, phi(x - k) is the dot of (-1)^n binom(X + 1, n) with
    the a'_n after k + 1 suffix-sum passes (_passes, every pass mod
    p^(M - shift)).
    """
    ctx, L, T = phi.ctx, phi.length, phi.tail.exponent
    p, prec = ctx.p, ctx.precision
    shift, M, res, _, vals = phi._res
    W = prec if M == INF else M
    if isinstance(x, PadicNumber):
        if not x.is_exact_zero() and x.valuation < 0:
            raise ValueError("evaluation point must lie in Z_p")
        moved = min((v - digit_count(n, p) + 1 for n, (r, v) in enumerate(zip(res, vals))
                     if n and r), default=INF)
        X, N = x.lift(), x.abs_precision
        Ns = [N] * (K + 1) if N != INF else [prec + _vp(k, p) + 4 for k in range(K + 1)]
        claims = [W if Nk == INF else min(M, Nk, T, Nk + moved) for Nk in Ns]  # INF: 0 - 0
        W = max(W, max(claims))
    else:
        x = as_rational(x)
        if x.denominator % p == 0:
            raise ValueError("evaluation point must lie in Z_p")
        X, top = x.numerator, L
        if x.denominator != 1:  # then no x - k is an integer in [0, L]
            N = W - min(0, phi.min_valuation()) + digit_count(L + 1, p)
            X, top = zp_residue(x, ctx, N)[0], -1
        claims = [W if 0 <= X - k <= top else min(W, T) for k in range(K + 1)]
    e = max(0, W - shift)
    mod = p ** e
    if not K:  # phi(x) alone: one dot with the exact binom(X, n), 0 past X >= 0
        row = [1]
        for n in range(min(L, X) if X >= 0 else L):
            row.append(row[-1] * (X - n) // (n + 1))
        return shift, [sum(map(mul, res, row)) % mod], claims
    row = [1]  # (-1)^n binom(X + 1, n) = binom(n - X - 2, n), 0 past X + 1 >= 0
    for n in range(min(L, X + 1) if X >= -1 else L):
        row.append(row[-1] * (n - X - 1) // (n + 1))
    return shift, _passes(p, phi._res, list(map(mod.__rmod__, row)), [e] * (K + 1)), claims


def _passes(p: int, rec: _Residues, row: list, exps: list) -> list:
    """The dots sum_n row[n] c_k(n) mod p^exps[k], k = 0..len(exps) - 1, for
    exps nonincreasing: c_k is a'_m = (-1)^m res[m] after k + 1 suffix-sum
    passes, c_k(n) = sum_(m>=n) binom(m-n+k, k) a'_m.

    One C-level pass per k over the residues, last first, reduced mod
    p^exps[k] once the total passes its square.  Pass k first drops the a'_m
    from the first m on whose stored valuations all reach shift + exps[k],
    residues that are 0 mod p^exps[k]: the binomials are integers, so they
    would move pass k and every later pass only by multiples of p^exps[k],
    and no later pass asks for more digits.
    """
    low = list(accumulate(reversed(rec.vals), min))[::-1]  # low[m] = min(vals[m:])
    mod = p ** exps[0]
    b = [(-a if n % 2 else a) % mod for n, a in enumerate(rec.res)][::-1]
    out = []
    for e in exps:
        mod, keep = p ** e, bisect_left(low, rec.shift + e)
        if keep < len(b):  # b[i] = c(len(b) - 1 - i); c(n) sums a'_m, m >= n, only
            b = b[len(b) - keep:]
        b = list(accumulate(b))
        out.append(sum(map(mul, reversed(b), row)) % mod)
        if b and b[-1] >= mod * mod:
            b = list(map(mod.__rmod__, b))
    return out


def _vps(p: int, top: int) -> list:
    """v_p(j) for j = 0..top (0 at j = 0), by one slice pass per power of p."""
    vs = [0] * (top + 1)
    q = p
    while q <= top:
        vs[q::q] = [v + 1 for v in vs[q::q]]
        q *= p
    return vs


@lru_cache(maxsize=16)  # convolve's and dirac's keys; the gexp kernel calls __wrapped__
def _factorial_units(p: int, top: int, e: int) -> tuple:
    """(nu, u, iu), tuples over j = 0..top: j! = p^nu[j] u_j with u_j a unit,
    u[j] = u_j and iu[j] = u_j^-1 mod p^e.  u is one running product of the
    cofactors j / p^v_p(j), and iu runs the same product down from one pow."""
    vs, mod = _vps(p, top), p ** e
    pw = list(accumulate(repeat(p, max(vs)), mul, initial=1))
    times = lambda x, y: x * y % mod
    cof = [j // pw[v] for j, v in zip(range(1, top + 1), vs[1:])]
    u = tuple(accumulate(cof, times, initial=1))
    iu = tuple(accumulate(reversed(cof), times, initial=pow(u[-1], -1, mod)))[::-1]
    return tuple(accumulate(vs)), u, iu


def convolve(a: MahlerFn, b: MahlerFn) -> MahlerFn:
    """Multiplicative convolution: c_n = sum_k binom(n,k) a_k b_{n-k}.

    Output length: full support when both tails are exact, otherwise the
    shortest certain range.  With both factors known mod p^M and factored
    as p^sa, p^sb times residues ra, rb (sa, sb <= 0), every c_n claims
    M + min(sa, sb), so its residue is needed mod p^e, e = M - max(sa, sb).
    No binomial is formed.  With j! = p^nu(j) u_j, u_j a unit, and j = n - k,
    binom(n, k) = p^(nu(n) - nu(k) - nu(j)) u_n / (u_k u_j), so
        c_n = u_n S_n / p^(Ea + Eb - nu(n)),  S_n = sum_k alpha_k beta_(n-k),
        alpha_k = p^(Ea - nu(k)) (ra_k u_k^-1 mod p^e),
        beta_j = p^(Eb - nu(j)) (rb_j u_j^-1 mod p^e),
    where k stops at ea, the last nonzero residue of the factor whose
    support ends first, or at last, the last index formed (below), if that
    comes first; Ea = nu(ea) and Eb = nu(last), so alpha and beta are
    integers.  By Kummer's theorem nu(k + j) >= nu(k) + nu(j), so
    p^(Ea + Eb - nu(n)) divides every term: the quotient is exact, and
    reducing a unit part mod p^e moves c_n by a multiple of p^e.

    The same split cuts the output short.  With A the least v(ra_k) - nu(k)
    over the nonzero residues ra_k mod p^e, and B that of rb, term k of c_n
    has valuation
        nu(n) - nu(k) - nu(n-k) + v(ra_k) + v(rb_(n-k)) >= nu(n) + A + B,
    so from the first n with nu(n) >= e - (A + B) on, every c_n is 0 mod
    p^e, and only the indices before it are formed.  A residue that is 0 mod
    p^e counts in neither minimum: it adds no term, while its claim alone
    would pin A far below the decay ((y)_n = 0 mod p^M claims M, nu(n) >> M).
    Each term is one C-level product; the unit tables come from
    _factorial_units, cached per p, e and the power of two above K, the
    output length.  The tail pairs each factor's tail beyond index floor(K/2)
    with the other factor's norm.
    """
    if a.ctx.p != b.ctx.p:
        raise ValueError("mixed primes")
    ctx, p = a.ctx, a.ctx.p
    K_out = _joint_length(a, b, a.length + b.length)
    M = min(a._res.M, b._res.M)
    if M == INF:
        M = ctx.precision
    sa, sb = a._res.shift, b._res.shift
    e = max(0, M - max(sa, sb))
    mod = p ** e
    ra, rb = ([r % mod for r in f._res.res[:K_out + 1]] for f in (a, b))
    ea, eb = (max((k for k, r in enumerate(f) if r), default=-1) for f in (ra, rb))
    out, last = [0] * (K_out + 1), -1
    if min(ea, eb) >= 0:
        # tables past K_out serve every shorter length: one key per power of two
        nu, u, iu = _factorial_units(p, 1 << K_out.bit_length(), e)
        # A + B, each the least v(r_k) - nu(k) over the nonzero residues r_k
        low = sum(min(map(sub, compress(f._res.vals, r), compress(nu, r))) - f._res.shift
                  for f, r in ((a, ra), (b, rb)))
        last = min(K_out, bisect_left(nu, e - low) - 1)  # c_n = 0 mod p^e past last
    if last >= 0:
        if eb < ea:
            ra, rb, ea = rb, ra, eb
        ea = min(ea, last)
        Ea, Eb = nu[ea], nu[last]
        pw = list(accumulate(repeat(p, Ea + Eb), mul, initial=1))
        alpha = [r * i % mod * pw[Ea - v] for r, i, v in zip(ra[:ea + 1], iu, nu)]
        rev = [r * i % mod * pw[Eb - v] for r, i, v in zip(rb[:last + 1], iu, nu)]
        rev = [0] * (last + 1 - len(rev)) + rev[::-1]  # rev[last - j] = beta_j
        out[:last + 1] = [sum(map(mul, alpha, rev[last - n:last - n + ea + 1]))
                          // pw[Ea + Eb - v] * un % mod
                          for n, v, un in zip(range(last + 1), nu, u)]
    half = K_out // 2
    texp = min(a.valuation_beyond(half) + b.min_valuation(),
               b.valuation_beyond(half) + a.min_valuation())
    claim = M + min(sa, sb)
    return _new(ctx, _record(p, sa + sb, out, [claim] * (K_out + 1)),
                Tail(texp, "convolution"))


def from_gexp(f: TruncSeries, ctx: PadicContext) -> MahlerFn:
    """The continuous phi with actcorr(phi) = gexp(f), for a rational series f.

    f(0) must lie in the exp disc and f - f(0) pass _gexp_weights, else
    CompatibilityError.  The coefficients are exp(f(0)) d_n, the d_n of
    exp(f - f(0) - t) = sum d_n t^n/n! from the gexp kernel, each claiming
    O(p^M), M = ctx.precision; the tail is the gexp certificate at
    K = f.order, below M when K < gexp_length_for(p, M).
    """
    p, f0 = ctx.p, f.coeff(0)
    v0, need = _vp(f0, p), _exp_domain_valuation(p)
    if v0 < need:  # an exact zero has v0 = INF
        raise CompatibilityError(f"f(0) outside the exp disc: v_p = {v0} < {need}")
    phi = _gexp_kernel(ctx, _gexp_weights(f.coeffs[1:], ctx), f.order)
    return phi.scale(p_exp(ctx.number(f0))) if f0 != 0 else phi


def _gexp_weights(g: list, ctx: PadicContext) -> list:
    """The kernel weights k! (g_k - [k = 1]) mod p^M of f = sum_(k>=1) g_k x^k,
    g = [g_1, g_2, ...]: the front door of from_gexp and poly_gexp.  Raises
    CompatibilityError unless g is nonempty, every g_k is p-integral and
    g_1 = f'(0) is a principal unit, the certificate's hypotheses."""
    if not g:
        raise CompatibilityError("need at least the linear coefficient")
    p, mod, fact, out = ctx.p, ctx.p ** ctx.precision, 1, []
    for k, c in enumerate(g, start=1):
        if _vp(c, p) < 0:
            raise CompatibilityError(f"coefficient of x^{k} is not p-integral: {c}")
        fact = fact * k % mod
        c = c - 1 if k == 1 else c
        # c's denominator is prime to p, so k! c mod p^M needs only k! mod p^M
        out.append(fact * c.numerator * pow(c.denominator, -1, mod) % mod)
    if _vp(g[0] - 1, p) < 1:
        raise CompatibilityError("f'(0) must be a principal unit")
    return out


def _gexp_kernel(ctx: PadicContext, weights: list, length: int) -> MahlerFn:
    """The gexp preimage through index length: d_n mod p^M, M = ctx.precision.

    weights[k-1] = w_k = k! g_k mod p^M, g = f - f(0) - t (_gexp_weights),
    and the d_n of exp(g) = sum d_n t^n/n! obey the exp ODE
        d_n = sum_{k=1}^{min(n, deg)} w_k binom(n-1, k-1) d_{n-k},
    deg the last nonzero weight.

    Cut.  The residues must meet the certificate's hypotheses, v(w_1) >= 1
    and v(w_k) >= nu(k), nu(j) = v_p(j!) (others raise ValueError), so
    v(d_j) >= min(M, nu(j) - nu(floor(j/2))) (gexp_tail_floor).  The sum
    stops at k = n - 2 m(n), m(n) the least m with nu(m) > nu(n-1) - M: a
    dropped term, j = n - k < 2 m(n), has valuation
        v(w_k) + nu(n-1) - nu(k-1) - nu(j) + v(d_j)
            >= min(M, nu(n-1) - nu(floor(j/2))) >= M,
    as nu(floor(j/2)) <= nu(m(n) - 1) <= nu(n-1) - M.  m(n) moves only at
    multiples of p, so one bisection of nu per block of p indices finds it;
    once no cut ahead is positive (past index last), the remaining d_n are 0.

    Scaled sum.  As in convolve, no binomial is formed: with j! = p^nu(j) u_j,
    d_n = u_(n-1) p^(nu(n-1) - E) S_n, S_n = sum_k a_k b_(n-k),
    a_k = w_k / (k-1)!, b_j = p^E d_j / j!, E = nu(floor(last/2)).  The
    hypotheses make a_k p-integral, and the certificate gives
    v(b_j) >= E - nu(floor(j/2)) >= 0 for j <= last (a d_j that is 0 mod p^M
    has residue 0): each term is one product, and a power of p with a
    negative exponent, in d_n or in b_n = p^(E - nu(n)) d_n / u_n, divides
    exactly.  Trim: d_n mod p^M reads S_n only mod p^(M+E-nu(n-1)), so b_j
    is kept mod p^(M+E-nu(j)) and a_k mod p^(M-nu(k-1)); an error of that
    size in a_k moves term k by valuation at least
    M + E - nu(k-1) - nu(floor(j/2)) >= M + E - nu(n-1), as nu is
    superadditive and n - 1 = (k-1) + j.  The weights are known only mod
    p^M, so a_k has no further digit, and it is 0 once nu(k-1) >= M, where
    nu(j) <= nu(n-1) - M puts the term past the cut.  So every d_n mod p^M is
    that of the full sum.  The units u_j and u_j^-1 mod p^(M+E) come from
    _factorial_units, uncached, as the tables go before the record.
    """
    p, M = ctx.p, ctx.precision
    mod = p ** M
    w = [0] + [c % mod for c in weights[:length]]
    while len(w) > 1 and w[-1] == 0:
        w.pop()
    deg = len(w) - 1
    nu = list(accumulate(_vps(p, length)))  # nu[j] = v_p(j!)
    if any(c % p ** min(v, M) for c, v in zip(w[1:], [1, *nu[2:deg + 1]])):
        raise ValueError("gexp weights outside the tail certificate: "
                         "need v(w_1) >= 1 and v(w_k) >= v_p(k!)")
    # nu(n-1), so m(n), is constant on each block n = s+1..s+p, s = 0, p, 2p, ...,
    # where the cut n - 2 m(n) rises by one per step, so a block's last cut is its
    # largest; the run ends with the last block whose end cut is positive
    twice_m = [2 * bisect_right(nu, v - M) for v in nu[:length:p]]
    last = max((end for end, t in zip([*range(p, length, p), length], twice_m) if end > t),
               default=0)
    # a_k is kept mod p^(M - nu(k-1)), so it is 0 once nu(k-1) >= M
    K, E = min(deg, last, bisect_left(nu, M)), nu[last // 2]
    pw = list(accumulate(repeat(p, max(M + E, nu[last])), mul, initial=1))
    _, u, iu = _factorial_units.__wrapped__(p, last, M + E)
    # a_k mod p^(M - nu(k-1)), ar[K-k] = a_k
    ar = [c // pw[v] * i % pw[M - v] for c, v, i in zip(w[1:K + 1], nu, iu)][::-1]
    d, b = [1], [pw[E]]
    for n in range(1, last + 1):
        top = min(n - twice_m[(n - 1) // p], K)  # the slices are empty when top <= 0
        S, v, vn = sum(map(mul, ar[K - top:K], b[n - top:n])), nu[n - 1], nu[n]
        dn = (S * pw[v - E] if v >= E else S // pw[E - v]) * u[n - 1] % mod
        d.append(dn)
        # b_n = p^(E - nu(n)) d_n / u_n, kept mod p^(M + E - nu(n))
        bn = dn * pw[E - vn] if vn <= E else dn // pw[vn - E]
        b.append(bn * iu[n] % pw[max(0, M + E - vn)])
    del nu, u, iu, ar, b  # the tables go before the record is built
    d += [0] * (length + 1 - len(d))
    return _gexp_fn(ctx, d)


def _gexp_fn(ctx: PadicContext, d: list) -> MahlerFn:
    """The gexp preimage with coefficients d_n mod p^M, n < len(d), each
    claiming O(p^M).  Its tail is the gexp certificate beyond K = len(d) - 1,
    clamped at 0: the weights are p-integral, so is every d_n."""
    p, M = ctx.p, ctx.precision
    tail = Tail(max(0, gexp_tail_floor(p, len(d) - 1)), "gexp certificate")
    return _new(ctx, _record(p, 0, d, [M] * len(d)), tail)
