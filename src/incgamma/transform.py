"""Incomplete shift operators on continuous functions of a p-adic variable.

The operator S^y convolves a function against the y-th convolution power of
1 - x; on the coefficient-series side this is multiplication by (1 - t)^y,
which makes sense for any y in Z_p.  Reading the value S^y(phi)(x) as a
function of y instead gives the L transform, whose Mahler coefficients at
x = -1 are k! phi(-1 - k).  Evaluating that expansion at s recovers the
sums sum_k (s)_k phi(-1 - k) that drive the interpolation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact import INF, _vp, as_rational, vp_factorial
from .padic import PadicContext, PadicNumber, congruent, zp_residue
from .mahler import MahlerFn, Tail, _line, _new, _passes, _record, convolve
from .measure import _twisted, dirac, integrate


@lru_cache(maxsize=256)  # a warm Psi neither searches nor re-checks p
def factorial_length_for(p: int, target: int) -> int:
    """Smallest K with v_p((K+1)!) >= target."""
    K = max(0, (p - 1) * target - 1)
    while vp_factorial(K + 1, p) < target:
        K += 1
    return K


def one_minus_x_pow(y, ctx: PadicContext, length: int) -> MahlerFn:
    """Convolution power (1 - x)^{*y}: Mahler coefficients (-1)^n (y)_n.

    (-1)^n (y)_n = prod_(k<n) (k - y) has integer coefficients in y, so mod
    p^M it depends only on y mod p^M, M = min(ctx.precision, precision of
    y): one loop runs on that residue and every coefficient claims O(p^M).
    The falling factorials (y)_n = n! binom(y, n) are integral for y in
    Z_p, so the discarded coefficients all have valuation >=
    v_p((length+1)!).  For integers 0 <= y <= length the terms past y are
    exact zeros and the tail is exact.
    """
    p = ctx.p
    Y, M = zp_residue(y, ctx, ctx.precision)
    q = None if isinstance(y, PadicNumber) else as_rational(y)
    exact = q is not None and q.denominator == 1 and 0 <= q <= length
    top = q.numerator if exact else length
    mod = p ** M
    res = [0] * (length + 1)
    c = 1
    for n in range(top + 1):
        res[n] = c
        c = c * (n - Y) % mod
    rec = _record(p, 0, res, [M] * (top + 1) + [INF] * (length - top))
    return _new(ctx, rec, Tail.exact() if exact else
                Tail(vp_factorial(length + 1, p), "factorial decay"))


def s_transform(phi: MahlerFn, y, length: int | None = None) -> MahlerFn:
    """S^y phi, computed as the convolution (1 - x)^{*y} * phi.

    The output tail is controlled by decay beyond index length // 2, so
    size length at roughly twice what a direct expansion would need.
    """
    ctx = phi.ctx
    if length is None:
        if phi.tail.exponent == INF:
            length = factorial_length_for(ctx.p, 2 * ctx.precision) + phi.length
        else:
            length = phi.length
    g = one_minus_x_pow(y, ctx, length)
    return convolve(g, phi)


def two_var(phi: MahlerFn, x, y, target: int | None = None) -> PadicNumber:
    """Direct value sum_k (-1)^k (y)_k binom(x, k) phi(x - k).

    Agrees with s_transform(phi, y).eval(x) but needs no intermediate
    expansion; the sum is cut once v_p((k)!) clears the target.  On residues
    claimed as PadicNumber arithmetic claims: factors k - y are known mod
    p^min(M + v_p(k), A_y), products min(A1 + v2, A2 + v1) (an O(p^A) has
    valuation A), and the sum its least claim that is not an exact zero's.
    """
    ctx, p, M = phi.ctx, phi.ctx.p, phi.ctx.precision
    K = factorial_length_for(p, M if target is None else target)
    yy = y if isinstance(y, PadicNumber) else ctx.number(as_rational(y))
    if not yy.is_exact_zero() and yy.valuation < 0:
        raise ValueError("exponent must lie in Z_p")
    shift, _, res, claims, vals = _twisted(phi, x, dirac(x, ctx, K))
    F, vf, Af, Y = 1, 0, M, yy.lift()  # (-1)^k (y)_k = F + O(p^Af) of valuation vf
    total, claim = 0, INF
    for k, (r, A, v) in enumerate(zip(res, claims, vals)):
        if A != INF:
            claim = min(claim, Af + v, A + vf)
            total += F * r
        c = min(M + _vp(k, p), yy.abs_precision)  # INF only at k = y = 0
        if c == INF:
            break
        D = (k - Y) % p ** c
        w = _vp(D, p) if D else c
        vf, Af = vf + w, min(Af + w, c + vf)
        F = F * D % p ** Af
    e = phi.min_valuation()
    if e != INF:
        claim = min(claim, vp_factorial(K + 1, p) + e)
    return PadicNumber._make(ctx, shift, total, claim)


def l_x(phi: MahlerFn, x, length: int | None = None) -> MahlerFn:
    """y -> S^y(phi)(x) as an expansion in y.

    Its Mahler coefficients are (-1)^k k! binom(x, k) phi(x - k); the
    factorial bounds the tail without any division.  The int
    (-1)^k k! claims as coercion pads it: v_p(k!) + 4 past its factor's claim.
    """
    ctx, p = phi.ctx, phi.ctx.p
    if length is None:
        length = factorial_length_for(p, ctx.precision)
    rec = _twisted(phi, x, dirac(x, ctx, length))
    res, claims, t, vt = [], [], 1, 0  # t = (-1)^k k!, vt = v_p(k!)
    for k, (r, A, v) in enumerate(zip(rec.res, rec.claims, rec.vals)):
        res.append(r * t)
        claims.append(A + vt + min(0, 4 + v))
        t, vt = -(k + 1) * t, vt + _vp(k + 1, p)
    e = phi.min_valuation()
    texp = INF if e == INF else vp_factorial(length + 1, p) + e
    return _new(ctx, _record(p, rec.shift, res, claims), Tail(texp, "factorial decay"))


@dataclass(frozen=True)
class LValues:
    """phi(-1 - k) = p^shift * residues[k] + O(p^claim) for k = 0..K.

    shift <= 0 is the lowest stored coefficient valuation when that is
    negative, so the residues are plain ints, read mod p^(claim - shift); norm is
    phi.min_valuation(), which bounds the terms l_value leaves out.  A graded
    record knows residues[k] only mod p^(claim - shift - v_p(k!)), all that
    l_value reads (see _graded_l_values).
    """

    ctx: PadicContext
    residues: tuple
    claim: int | float
    shift: int
    norm: int | float


def l_values(phi: MahlerFn, K: int) -> LValues:
    """phi(-1 - k) for k = 0..K, each claiming min(M, tail) as MahlerFn.eval
    does: the x = -1 case of mahler._line, whose row is then (1,), so each
    value is the total of one C-level suffix-sum pass."""
    shift, residues, claims = _line(phi, -1, K)
    return LValues(phi.ctx, tuple(residues), claims[0], shift, phi.min_valuation())


def _graded_l_values(phi: MahlerFn, K: int) -> LValues:
    """The record of l_values(phi, K) with value k known only mod
    p^(claim - v_p(k!)), all that an l_value sum reads.

    claim = min(M, T) as l_values claims it: M the least coefficient claim
    (the precision when every coefficient is exact), T the tail; every
    unstored a_n has valuation >= T, so below M the full record is right
    only mod p^T.  Pass k of mahler._passes runs mod p^e_k,
    e_k = max(0, claim - shift - v_p(k!)), on the residues
    res[n] = a_n / p^shift (which carry p^-shift when shift < 0), and first
    drops the top coefficients of valuation at least claim - v_p(k!), whose
    residues are 0 mod p^e_k; so p^shift times value k is right mod
    p^(claim - v_p(k!)).  l_value sums (S)_k times residue k mod p^n,
    n <= claim - shift, and (S)_k, even reduced mod p^n, is a multiple of
    p^min(n, v_p(k!)); so a residue right mod p^e_k moves no term mod p^n
    (once e_k = 0, term k is 0 mod p^n), and every sum, value and claim, is
    the one over l_values(phi, K).
    """
    ctx, (shift, M, _, _, _) = phi.ctx, phi._res
    claim = min(ctx.precision if M == INF else M, phi.tail.exponent)
    exps = [max(0, claim - shift - vp_factorial(k, ctx.p)) for k in range(K + 1)]
    return LValues(ctx, tuple(_passes(ctx.p, phi._res, [1], exps)), claim, shift,
                   phi.min_valuation())


def l_value(phi: MahlerFn | None, s, target: int | None = None,
            values: LValues | list | None = None) -> PadicNumber:
    """sum_k (s)_k phi(-1 - k) for k <= K: l_x(phi, -1) evaluated at s directly.

    K is the least length with v_p((K+1)!) >= target.  values caches the
    phi(-1 - k) across calls: an LValues record from l_values (phi may then
    be None), or a list of PadicNumbers, which is converted once; either
    must reach index K.  Without values the sum reads _graded_l_values(phi,
    K), which gives the sum and claim over l_values(phi, K).  The sum runs on
    residues, and claims min(values claim, M + shift, N + shift,
    v_p((K+1)!) + e), where M = ctx.precision, N is the precision of a
    PadicNumber s, shift the record's (0 unless some value has negative
    valuation) and e = phi.min_valuation() bounds the terms beyond K.
    """
    ctx = values.ctx if isinstance(values, LValues) else phi.ctx
    p = ctx.p
    if target is None:
        target = ctx.precision
    K = factorial_length_for(p, target)
    if values is None:
        values = _graded_l_values(phi, K)
    elif not isinstance(values, LValues):  # the list's residue record (empty stays empty)
        shift, claim, residues, _, _ = MahlerFn(ctx, values, Tail.exact())._res
        values = LValues(ctx, residues[:len(values)], claim, shift, phi.min_valuation())
    claim = min(values.claim, ctx.precision + values.shift)
    if values.norm != INF:
        claim = min(claim, vp_factorial(K + 1, p) + values.norm)
    S, n = zp_residue(s, ctx, max(0, claim - values.shift))
    claim = min(claim, n + values.shift)
    if len(values.residues) <= K:
        raise ValueError(f"need {K + 1} cached values, got {len(values.residues)}")
    mod = p ** n
    acc = 0
    fall = 1  # (s)_k mod p^(claim - shift)
    for k, v in enumerate(values.residues[:K + 1]):
        acc += fall * v
        fall = fall * (S - k) % mod
    return PadicNumber._make(ctx, values.shift, acc % mod, claim)


class AmiceElem:
    """Finite combination sum_n c_n (x - 1)^{*n} of convolution powers.

    Negative n is allowed since 1 - x is invertible for the convolution
    (its inverse has Mahler coefficients n!).  On the coefficient-series
    side these are Laurent polynomials in t - 1, and the derivation D
    below matches d/dt there.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: PadicContext, coeffs: dict):
        self.ctx = ctx
        self.coeffs = {}
        for n, c in coeffs.items():
            c = c if isinstance(c, PadicNumber) else ctx.number(as_rational(c))
            if not c.is_exact_zero():
                self.coeffs[int(n)] = c

    def support(self) -> list:
        return sorted(self.coeffs)

    def d(self) -> "AmiceElem":
        """Derivation: (x - 1)^{*n} -> n (x - 1)^{*(n-1)}."""
        return AmiceElem(self.ctx,
                         {n - 1: c * n for n, c in self.coeffs.items() if n != 0})

    def to_mahler(self, length: int) -> MahlerFn:
        """Expand through the given length using (x-1)^{*n} = (-1)^n (1-x)^{*n}:
        one pass over the residues, claimed as MahlerFn.scale and add claim."""
        ctx = self.ctx
        if not self.coeffs:
            return MahlerFn(ctx, [ctx.zero()], Tail.exact())
        low = min(c.valuation for c in self.coeffs.values())
        res, claims, texp = [0] * (length + 1), [INF] * (length + 1), INF
        for n, c in self.coeffs.items():
            g, v = one_minus_x_pow(n, ctx, length), c.valuation
            u = (-1 if n % 2 else 1) * c.unit * ctx.p ** (v - low)
            res = [a + r * u for a, r in zip(res, g._res.res)]
            claims = [min(a, A + v, c.abs_precision + w)
                      for a, A, w in zip(claims, g._res.claims, g._res.vals)]
            texp = min(texp, g.tail.exponent + v)
        return _new(ctx, _record(ctx.p, low, res, claims), Tail(texp, "sum"))

    def star(self, phi: MahlerFn) -> MahlerFn:
        """Convolve this element's expansion against phi."""
        length = factorial_length_for(self.ctx.p, 2 * self.ctx.precision)
        return convolve(self.to_mahler(length), phi)

    def __repr__(self):
        return f"AmiceElem(p={self.ctx.p}, support={self.support()})"


def parts_check(psi: AmiceElem, phi: MahlerFn, x, k: int | None = None) -> bool:
    """Integration by parts for the Dirac pairing:

        int (psi * sigma phi) d delta_x
            = int (psi * phi) d delta_{x+1} - int (D psi * phi) d delta_x

    where sigma is the unit shift.  Compares both sides mod p^k (defaulting
    to the weaker of the two precision claims).
    """
    def pair(fn, at):  # int fn d delta_at
        return integrate(fn, dirac(at, phi.ctx, fn.length))

    g = psi.to_mahler(factorial_length_for(psi.ctx.p, 2 * psi.ctx.precision))
    lhs = pair(convolve(g, phi.shift()), x)
    rhs = pair(convolve(g, phi), x + 1) - pair(psi.d().star(phi), x)
    return congruent(lhs, rhs, k)
