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
from itertools import accumulate

from .exact import INF, as_rational, vp_factorial
from .padic import PadicContext, PadicNumber, congruent, zp_residue
from .mahler import MahlerFn, Tail, _new, _record, convolve
from .measure import dirac, integrate


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
                Tail(vp_factorial(length + 1, p), True, "factorial decay"))


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
    expansion; the sum is cut once v_p((k)!) clears the target.
    """
    ctx = phi.ctx
    if target is None:
        target = ctx.precision
    K = factorial_length_for(ctx.p, target)
    yy = y if isinstance(y, PadicNumber) else ctx.number(as_rational(y))
    if not yy.is_exact_zero() and yy.valuation < 0:
        raise ValueError("exponent must lie in Z_p")
    binoms = dirac(x, ctx, K).coeffs
    acc = ctx.zero()
    fall = ctx.one()  # (-1)^k (y)_k
    for k in range(K + 1):
        acc = acc + fall * binoms[k] * phi.eval(x - k)
        fall = fall * (ctx.number(k) - yy)
    e = phi.min_valuation()
    if e != INF:
        T = vp_factorial(K + 1, ctx.p) + e
        acc = acc + PadicNumber(ctx, T, 0, T)
    return acc


def l_x(phi: MahlerFn, x, length: int | None = None) -> MahlerFn:
    """y -> S^y(phi)(x) as an expansion in y.

    Its Mahler coefficients are (-1)^k k! binom(x, k) phi(x - k); the
    factorial keeps the tail certified without any division.
    """
    ctx = phi.ctx
    if length is None:
        length = factorial_length_for(ctx.p, ctx.precision)
    binoms = dirac(x, ctx, length).coeffs
    coeffs = []
    t = 1  # (-1)^k k!
    for k in range(length + 1):
        coeffs.append(binoms[k] * phi.eval(x - k) * t)
        t *= -(k + 1)
    e = phi.min_valuation()
    texp = INF if e == INF else vp_factorial(length + 1, ctx.p) + e
    return MahlerFn(ctx, coeffs, Tail(texp, phi.tail.certified, "factorial decay"))


@dataclass(frozen=True)
class LValues:
    """phi(-1 - k) = p^shift * residues[k] + O(p^claim) for k = 0..K.

    shift <= 0 is the lowest stored coefficient valuation when that is
    negative, so the residues are plain ints, read mod p^(claim - shift); norm is
    phi.min_valuation(), which bounds the terms l_value leaves out.
    """

    ctx: PadicContext
    residues: tuple
    claim: int | float
    shift: int
    norm: int | float


def l_values(phi: MahlerFn, K: int) -> LValues:
    """phi(-1 - k) for k = 0..K, each claiming min(M, tail) as MahlerFn.eval does.

    binom(-1 - k, n) = (-1)^n binom(n + k, k), so with a'_n = (-1)^n a_n
    the value phi(-1 - k) is the total after k + 1 suffix-sum passes over
    the a'_n.  Every pass runs on plain ints, reduced mod p^(M - shift)
    only once the total, the largest entry, passes the square of that
    modulus: one reduction per pass would cost more than the sums.
    """
    ctx = phi.ctx
    shift, M, res, _, _ = phi._res
    if M == INF:
        M = ctx.precision
    mod = ctx.p ** max(0, M - shift)
    row = [(-a if n % 2 else a) % mod for n, a in enumerate(res)]
    row.reverse()
    out = []
    for _ in range(K + 1):
        row = list(accumulate(row))
        out.append(row[-1] % mod)
        if row[-1] >= mod * mod:
            row = list(map(mod.__rmod__, row))
    return LValues(ctx, tuple(out), min(M, phi.tail.exponent), shift,
                   phi.min_valuation())


def l_value(phi: MahlerFn | None, s, target: int | None = None,
            values: LValues | list | None = None) -> PadicNumber:
    """sum_k (s)_k phi(-1 - k) for k <= K: l_x(phi, -1) evaluated at s directly.

    K is the least length with v_p((K+1)!) >= target.  values caches the
    phi(-1 - k) across calls: an LValues record from l_values (phi may then
    be None), or a list of PadicNumbers, which is converted once; either
    must reach index K.  The sum runs on residues, and claims
    min(values claim, M + shift, N + shift, v_p((K+1)!) + e), where
    M = ctx.precision, N is the precision of a PadicNumber s, shift the
    record's (0 unless some value has negative valuation) and e =
    phi.min_valuation() bounds the terms beyond K.
    """
    ctx = values.ctx if isinstance(values, LValues) else phi.ctx
    p = ctx.p
    if target is None:
        target = ctx.precision
    K = factorial_length_for(p, target)
    if values is None:
        values = l_values(phi, K)
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
        """Expand through the given length using (x-1)^{*n} = (-1)^n (1-x)^{*n}."""
        out = MahlerFn(self.ctx, [self.ctx.zero()], Tail.exact())
        for n in sorted(self.coeffs):
            c = self.coeffs[n] if n % 2 == 0 else -self.coeffs[n]
            out = out.add(one_minus_x_pow(n, self.ctx, length).scale(c))
        return out

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

    lhs = pair(psi.star(phi.shift()), x)
    rhs = pair(psi.star(phi), x + 1) - pair(psi.d().star(phi), x)
    return congruent(lhs, rhs, k)
