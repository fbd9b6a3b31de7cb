"""Continuous functions on Z_p through their Mahler expansions.

phi = sum a_n binom(x, n), with ||phi|| = sup |a_n|.  A MahlerFn stores
a_0..a_K as an immutable tuple of PadicNumbers together with a Tail record
bounding every coefficient beyond K; the measures of measure are the same
data, read as moments.  Every sum over the coefficients (evaluation,
convolution, the L-values of transform) runs on plain ints: _residues
factors p^shift out of the coefficients, shift = min(0, lowest valuation),
and the result is PadicNumber._make(ctx, shift, total, claim).  Every
evaluation point takes the one int loop: a PadicNumber at its integer
lift, a non-integer Fraction at an integer lift of enough digits.
ExactMahler is the finitely-supported rational counterpart used wherever
exactness matters (oracles, the correspondence checks, small building
blocks); it reduces into a MahlerFn with an exact tail.

The exponential-generating-function correspondences of ExactMahler:
prodcorr(phi) = sum (nabla^n phi)(0) t^n/n!   (algebra map for convolution)
actcorr(phi)  = sum phi(n) t^n/n! = exp(t) * prodcorr(phi)
from_gexp inverts actcorr on grouplike exponentials: for f with p-integral
rational coefficients, f(0) in the exp disc and f'(0) a principal unit, the
Mahler coefficients of the preimage are exp(f(0)) * d_n where
exp(f - f(0) - t) = sum d_n t^n/n!.  One integer recurrence mod p^M
computes the d_n for every such weight (from_gexp here, phi_fr and
poly_gexp in gamma_padic).

Tail certificate for the gexp coefficients: writing g = f - f(0) - t, a
composition of n into j parts all >= 1 with j_1 parts equal to 1 forces
j <= (n + j_1)/2, and each size-1 part contributes v_p >= v_p(g_1) >= 1, so
    v_p(d_n) >= v_p(n!) - v_p(floor(n/2)!) >= n/(2(p-1)) - log_p(n) - 1,
an increasing bound; gexp_tail_floor freezes its value at K+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exact import INF, as_rational, digit_count, vp
from .padic import PadicContext, PadicNumber, p_exp, zp_residue
from .series import TruncSeries


@dataclass(frozen=True)
class Tail:
    """Bound |a_n| <= p^(-exponent) for every n beyond the stored range.

    certified tails come with a proof (finite support, falling-factorial
    counting, factorial growth, or the gexp certificate); heuristic ones
    only record a window of observed valuations.
    """
    exponent: int | float
    certified: bool
    note: str = ""

    @staticmethod
    def exact() -> "Tail":
        return Tail(INF, True, "finite support")


def gexp_tail_floor(p: int, K: int) -> int:
    """Certified valuation floor for gexp Mahler coefficients beyond K."""
    n = K + 1
    return n // (2 * (p - 1)) - digit_count(n, p) - 1


def gexp_length_for(p: int, target: int) -> int:
    """Smallest K whose certified gexp tail reaches the target exponent."""
    K = max(8, 2 * (p - 1) * target)
    while gexp_tail_floor(p, K) < target:
        K += 1
    return K


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


class MahlerFn:
    """Mahler expansion with p-adic coefficients and a tail record.

    coeffs is an immutable tuple of PadicNumbers a_0..a_K, and tail bounds
    every a_n with n > K.  The same data is a bounded measure read through
    its moments (see measure), so functions and measures share this type.
    Attribute writes raise, so a cached expansion cannot be changed.
    """

    __slots__ = ("ctx", "coeffs", "tail")

    def __init__(self, ctx: PadicContext, coeffs, tail: Tail):
        _set_ctx(self, ctx)
        _set_coeffs(self, tuple(c if isinstance(c, PadicNumber)
                                else ctx.number(as_rational(c)) for c in coeffs)
                    or (ctx.zero(),))
        _set_tail(self, tail)

    def __setattr__(self, name, value):
        raise AttributeError(f"MahlerFn is immutable: cannot set {name!r}")

    @property
    def length(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> PadicNumber:
        if 0 <= n <= self.length:
            return self.coeffs[n]
        if self.tail.exponent == INF:
            return self.ctx.zero()
        raise IndexError(f"coefficient {n} beyond stored length {self.length}")

    # -- norms -------------------------------------------------------------

    def _coeff_valuation(self, n: int):
        c = self.coeffs[n]
        if c.is_exact_zero():
            return INF
        return c.valuation

    def min_valuation(self):
        """Exponent e with ||phi|| <= p^(-e); equality when the stored
        minimum does not exceed the tail bound (the usual case).  INF means
        certified zero."""
        return self.valuation_beyond(-1)

    def valuation_beyond(self, m: int):
        """Lower bound for min valuation over indices n > m."""
        stored = min((self._coeff_valuation(n) for n in range(m + 1, self.length + 1)),
                     default=INF)
        return min(stored, self.tail.exponent)

    # -- evaluation --------------------------------------------------------

    def _arith_precision(self):
        return min((c.abs_precision for c in self.coeffs), default=INF)

    def eval(self, x) -> PadicNumber:
        """phi(x) for x in Z_p.

        x may be an int, a Fraction with p-free denominator, or a
        PadicNumber of valuation >= 0 (evaluated at its full integer lift).
        Reported precision is min(coefficient precision, tail exponent);
        at a PadicNumber known mod p^N, also at most _point_claim(N).
        """
        ctx = self.ctx
        M = self._arith_precision()
        if isinstance(x, PadicNumber):
            if not x.is_exact_zero() and x.valuation < 0:
                raise ValueError("evaluation point must lie in Z_p")
            M = min(M, x.abs_precision)
            val = self._eval_int_mod(x.lift(), ctx.precision if M == INF else M)
            if x.abs_precision == INF:
                return val
            cap = self._point_claim(x.abs_precision)
            return val + PadicNumber(ctx, cap, 0, cap) if cap < val.abs_precision else val
        x = as_rational(x)
        if vp(x, ctx.p) < 0:
            raise ValueError("evaluation point must lie in Z_p")
        if M == INF:
            M = ctx.precision
        if x.denominator == 1:
            return self._eval_int_mod(x.numerator, M)
        # X == x mod p^N gives binom(X, n) == binom(x, n) mod p^(N - floor(log_p
        # n)), at least p^(M - shift) for every stored n; adding p^N puts X
        # above the stored length, so every term enters
        N = M - min(0, self.min_valuation()) + digit_count(self.length + 1, ctx.p)
        X, _ = zp_residue(x, ctx, N)
        return self._eval_int_mod(X + ctx.p ** N, M)

    def _point_claim(self, N: int):
        """Claim of phi(x) for x known only mod p^N.

        Each lift of x is X + p^N t, and by Vandermonde binom(X + p^N t, n)
        - binom(X, n) = sum_(j>=1) binom(p^N t, j) binom(X, n - j) has
        valuation >= N - floor(log_p n).  So term n claims
        v(a_n) + N - floor(log_p n), and the unstored terms, which other
        lifts reach, claim the tail exponent.
        """
        p = self.ctx.p
        terms = (c.valuation + N - digit_count(n, p) + 1
                 for n, c in enumerate(self.coeffs) if n and c.unit != 0)
        return min(self.tail.exponent, min(terms, default=INF))

    def _eval_int_mod(self, X: int, M) -> PadicNumber:
        # binom(X, n) = 0 beyond X >= 0, so only a_0..a_X enter
        stop = min(self.length, X) if X >= 0 else self.length
        shift, mod, res = _residues(self.ctx, self.coeffs[:stop + 1], M)
        acc = 0
        b = 1  # binom(X, n), exact integer, updated incrementally
        for n, c in enumerate(res):
            if c:
                acc += c * (b % mod)
            b = b * (X - n) // (n + 1)
        claim = M if 0 <= X <= self.length else min(M, self.tail.exponent)
        return PadicNumber._make(self.ctx, shift, acc % mod, claim)

    # -- shift algebra -----------------------------------------------------

    def shift(self) -> "MahlerFn":
        """sigma phi : x -> phi(x + 1), coefficients a_n + a_{n+1}.

        With a finite tail the last stored coefficient absorbs an O(p^T)
        term for the unknown a_{K+1}; the tail exponent is unchanged.
        """
        K = self.length
        if self.tail.exponent == INF:
            coeffs = [self.coeff(n) + self.coeff(n + 1) for n in range(K + 1)]
            return MahlerFn(self.ctx, coeffs, self.tail)
        unknown = PadicNumber(self.ctx, self.tail.exponent, 0, self.tail.exponent)
        coeffs = [self.coeffs[n] + self.coeffs[n + 1] for n in range(K)]
        coeffs.append(self.coeffs[K] + unknown)
        return MahlerFn(self.ctx, coeffs, self.tail)

    def scale(self, c) -> "MahlerFn":
        if not isinstance(c, PadicNumber):
            c = self.ctx.number(as_rational(c))
        v = c.valuation if not c.is_exact_zero() else INF
        texp = self.tail.exponent + v if self.tail.exponent != INF else INF
        return MahlerFn(self.ctx, [a * c for a in self.coeffs],
                        Tail(texp, self.tail.certified, self.tail.note))

    def add(self, other: "MahlerFn") -> "MahlerFn":
        if self.ctx.p != other.ctx.p:
            raise ValueError("mixed primes")
        K = _joint_length(self, other, max(self.length, other.length))
        coeffs = [self.coeff(n) + other.coeff(n) for n in range(K + 1)]
        texp = min(self.valuation_beyond(K), other.valuation_beyond(K))
        certified = self.tail.certified and other.tail.certified
        return MahlerFn(self.ctx, coeffs, Tail(texp, certified, "sum"))

    def __repr__(self):
        t = "inf" if self.tail.exponent == INF else str(self.tail.exponent)
        kind = "certified" if self.tail.certified else "heuristic"
        return (f"MahlerFn(p={self.ctx.p}, K={self.length}, "
                f"tail {kind} >= {t})")


_set_ctx = MahlerFn.ctx.__set__
_set_coeffs = MahlerFn.coeffs.__set__
_set_tail = MahlerFn.tail.__set__


def _joint_length(a: MahlerFn, b: MahlerFn, exact: int) -> int:
    """Stored length of a result built termwise from a and b: exact when
    both tails are exact, else the shortest length behind a finite tail."""
    return min((f.length for f in (a, b) if f.tail.exponent != INF), default=exact)


def _residues(ctx: PadicContext, numbers, M) -> tuple:
    """(shift, p^(M - shift), residues of p^-shift x mod that) for PadicNumbers
    x known mod p^M, where shift = min(0, lowest valuation among them).

    Every sum over coefficients runs on these plain ints and returns
    PadicNumber._make(ctx, shift, total, claim).
    """
    p = ctx.p
    shift = min(0, min((x.valuation for x in numbers if x.unit != 0), default=0))
    mod = p ** max(0, M - shift)
    return shift, mod, [x.unit * p ** (x.valuation - shift) % mod if x.unit != 0 else 0
                        for x in numbers]


def convolve(a: MahlerFn, b: MahlerFn) -> MahlerFn:
    """Multiplicative convolution: c_n = sum_k binom(n,k) a_k b_{n-k}.

    Output length: full support when both tails are exact, otherwise the
    shortest certain range.  With both factors known mod p^M and factored
    as p^sa, p^sb times residues (sa, sb <= 0), every c_n claims
    M + min(sa, sb).  The output tail pairs each factor's tail
    beyond index floor(K/2) with the other factor's norm.
    """
    if a.ctx.p != b.ctx.p:
        raise ValueError("mixed primes")
    ctx = a.ctx
    K_out = _joint_length(a, b, a.length + b.length)
    M = min(a._arith_precision(), b._arith_precision())
    if M == INF:
        M = ctx.precision
    sa, _, ra = _residues(ctx, a.coeffs, M)
    sb, _, rb = _residues(ctx, b.coeffs, M)
    ra += [0] * (K_out + 1 - len(ra))
    rb += [0] * (K_out + 1 - len(rb))
    mod = ctx.p ** max(0, M - max(sa, sb))
    coeffs = []
    row = [1]  # Pascal row binom(n, k) mod p^(M - max(sa, sb))
    for n in range(K_out + 1):
        acc = 0
        for k in range(n + 1):
            if ra[k] and rb[n - k]:
                acc += row[k] * ra[k] * rb[n - k]
        coeffs.append(PadicNumber._make(ctx, sa + sb, acc % mod, M + min(sa, sb)))
        row = [1] + [(row[k - 1] + row[k]) % mod for k in range(1, n + 1)] + [1]

    half = K_out // 2
    texp = min(a.valuation_beyond(half) + b.min_valuation(),
               b.valuation_beyond(half) + a.min_valuation())
    certified = a.tail.certified and b.tail.certified
    return MahlerFn(ctx, coeffs, Tail(texp, certified, "convolution"))


def heuristic_tail(ctx: PadicContext, coeffs) -> Tail:
    """Window evidence: minimum valuation over the last 3p stored
    coefficients, recorded as a heuristic tail."""
    W = 3 * ctx.p
    window = coeffs[-W:]
    vals = []
    for c in window:
        if c.is_exact_zero():
            continue
        vals.append(c.valuation if c.unit != 0 else c.abs_precision)
    e = min(vals, default=INF)
    return Tail(e, False, f"window W={len(window)}")


def from_gexp(f: TruncSeries, ctx: PadicContext,
              tail_target: int | None = None) -> MahlerFn:
    """The continuous phi with actcorr(phi) = gexp(f), for a rational series f.

    Requires p-integral coefficients, f(0) inside the exp disc, and f'(0) a
    principal unit.  The EGF coefficients of exp(f - f(0) - t) come from the
    gexp kernel mod p^M (M = ctx.precision), scaled by p_exp(f(0)) when
    f(0) != 0, and every coefficient claims O(p^M).  The tail is the
    certified gexp bound whenever it reaches tail_target (default: the
    context precision); otherwise the stronger of the certificate and the
    observed heuristic window.
    """
    p = ctx.p
    if f.order < 1:
        raise ValueError("need at least the linear coefficient of f")
    for n, c in enumerate(f.coeffs):
        if vp(c, p) < 0:
            raise ValueError(f"coefficient {n} is not p-integral: {c}")
    f0 = f.coeff(0)
    _check_gexp_domain(f0, f.coeff(1), p)
    M = ctx.precision
    g = [f.coeff(1) - 1] + f.coeffs[2:]
    head = p_exp(ctx.number(f0)).residue(M) if f0 != 0 else 1
    want = M if tail_target is None else tail_target
    return _gexp_kernel(ctx, _rational_weights(g, p ** M), f.order, want, head)


def _check_gexp_domain(f0, f1: Fraction, p: int) -> None:
    v0 = vp(f0, p)
    need = 2 if p == 2 else 1
    if v0 != INF and v0 < need:
        raise ValueError(f"f(0) outside the exp disc: v_p = {v0} < {need}")
    if vp(f1 - 1, p) < 1:
        raise ValueError("f'(0) must be a principal unit")


def _rational_weights(g: list, mod: int) -> list:
    """The kernel weights k! g_k mod p^M of p-integral rationals g_1, g_2, ..."""
    out = []
    fact = 1
    for k, c in enumerate(g, start=1):
        fact *= k
        w = fact * c
        out.append(w.numerator * pow(w.denominator, -1, mod) % mod)
    return out


def _gexp_kernel(ctx: PadicContext, weights: list, length: int, want: int,
                 head: int = 1) -> MahlerFn:
    """Mahler coefficients of the gexp preimage, all mod p^M (M = ctx.precision).

    weights[k-1] = w_k = k! g_k mod p^M, where g = f - f(0) - t.  The EGF
    coefficients d_n of exp(g) obey the exp ODE in the form
        d_n = sum_{k=1}^{min(n, deg)} w_k binom(n-1, k-1) d_{n-k},
    which never divides, so the recurrence runs on plain residues; trailing
    zero weights are dropped first so deg only counts the live ones.  The
    stored coefficients are head * d_n for n <= length, each claiming
    O(p^M); head is the residue of exp(f(0)).  The tail is the gexp
    certificate, or the heuristic window when that is stronger and the
    certificate falls short of want, the tail exponent asked for.
    """
    p, M = ctx.p, ctx.precision
    mod = p ** M
    w = [0] + list(weights[:length])
    while len(w) > 1 and w[-1] == 0:
        w.pop()
    deg = len(w) - 1
    row = [0, 1] + [0] * (deg - 1)  # row[k] = binom(n-1, k-1) mod p^M
    d = [1]
    for n in range(1, length + 1):
        top = min(n, deg)
        row[2:top + 1] = [(a + b) % mod for a, b in zip(row[2:top + 1], row[1:top])]
        # sum over k = 1..top of w_k row_k d_(n-k)
        terms = map(mul, map(mul, w[1:top + 1], row[1:top + 1]), reversed(d[n - top:n]))
        d.append(sum(terms) % mod)
    coeffs = [PadicNumber._make(ctx, 0, c * head % mod, M) for c in d]
    tail = Tail(gexp_tail_floor(p, length), True, "gexp certificate")
    if tail.exponent < want:
        window = heuristic_tail(ctx, coeffs)
        if window.exponent > tail.exponent:
            tail = window
    return MahlerFn(ctx, coeffs, tail)
