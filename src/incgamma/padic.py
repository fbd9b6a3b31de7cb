"""Z_p / Q_p arithmetic with zealous (pessimistic) precision tracking.

A PadicNumber is p^valuation * unit, with the value known modulo
p^abs_precision.  Every operation propagates the worst-case absolute
precision of its result; nothing is ever claimed beyond what the inputs
support.  Exact zero is the special case valuation = abs_precision = +inf.

The unit-group structure lives here too: the Teichmuller character and
powers u^s of principal units, each one modular power, principal parts
<u> = u/omega(u), and the exponential with its convergence domain.  For
p = 2 the only root of unity of odd order in Q_2 is 1, so omega = 1 and
<u> = u on all of Z_2^x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import INF, _vp, as_rational, vp


class DivergentSeriesError(ArithmeticError):
    """Argument lies outside the disc of convergence of a p-adic series."""


class PrecisionError(ArithmeticError):
    """An operation needed more digits than its inputs carry."""


@dataclass(frozen=True, slots=True)
class PadicContext:
    """Carrier for the prime and the default working precision.

    precision is the number of p-adic digits of absolute precision that
    embeddings of exact rationals receive by default (values of positive
    valuation keep their full integral part on top of that).  Immutable,
    since cache keys and cached values hold the context.
    """

    p: int
    precision: int = 28

    def __post_init__(self):
        vp(1, self.p)  # primality check
        if self.precision < 1:
            raise ValueError("precision must be >= 1")

    def number(self, q, abs_prec=None) -> "PadicNumber":
        return from_rational(q, self, abs_prec)

    def zero(self) -> "PadicNumber":
        return PadicNumber(self, INF, 0, INF)

    def one(self) -> "PadicNumber":
        return self.number(1)


class PadicNumber:
    """p^valuation * unit, known modulo p^abs_precision.

    Immutable: caches hand out the same objects to every caller, so an
    attribute write raises instead of changing a cached value.
    """

    __slots__ = ("ctx", "valuation", "unit", "abs_precision")

    def __init__(self, ctx: PadicContext, valuation, unit: int, abs_precision):
        _set_ctx(self, ctx)
        _set_valuation(self, valuation)
        _set_unit(self, unit)
        _set_abs_precision(self, abs_precision)

    def __setattr__(self, name, value):
        raise AttributeError(f"PadicNumber is immutable: cannot set {name!r}")

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(ctx: PadicContext, valuation: int, unit: int, abs_prec) -> "PadicNumber":
        """Normalize raw (v, u, A) data: strip p-factors from u, detect zeros."""
        p = ctx.p
        if abs_prec == INF:
            if unit == 0:
                return PadicNumber(ctx, INF, 0, INF)
            raise ValueError("finite nonzero value needs finite precision")
        rel = abs_prec - valuation
        if rel <= 0:
            # nothing is known beyond "v >= abs_prec"
            return PadicNumber(ctx, abs_prec, 0, abs_prec)
        unit %= p ** rel
        if unit == 0:
            return PadicNumber(ctx, abs_prec, 0, abs_prec)
        while unit % p == 0:
            unit //= p
            valuation += 1
            rel -= 1
        return PadicNumber(ctx, valuation, unit % (p ** rel), abs_prec)

    # -- basic queries -----------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.valuation == INF

    def is_zero(self) -> bool:
        """True when the value is indistinguishable from 0 at its precision."""
        return self.unit == 0

    def residue(self, k: int) -> int:
        """Integer in [0, p^k) congruent to the value mod p^k (needs v >= 0)."""
        if k > self.abs_precision:
            raise PrecisionError(
                f"residue mod p^{k} requested, known only mod p^{self.abs_precision}")
        if self.unit == 0:
            return 0
        if self.valuation < 0:
            raise ValueError("residue undefined at negative valuation")
        return (self.unit * self.ctx.p ** self.valuation) % self.ctx.p ** k

    def lift(self) -> int:
        """Integer lift at full stated precision (needs v >= 0)."""
        if self.unit == 0:
            return 0
        return self.residue(self.abs_precision)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.ctx.p != self.ctx.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            q = as_rational(other)
            if q == 0:
                return PadicNumber(self.ctx, INF, 0, INF)
            # generous embedding so coercion never caps the other operand
            v = _vp(q, self.ctx.p)
            pad = self.abs_precision if self.abs_precision != INF else self.ctx.precision
            return from_rational(q, self.ctx, abs_prec=pad + abs(v) + 4)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        abs_prec = min(self.abs_precision, other.abs_precision)
        m = min(self.valuation, other.valuation, 0)
        p = self.ctx.p
        s = self.unit * p ** (self.valuation - m) + other.unit * p ** (other.valuation - m)
        return PadicNumber._make(self.ctx, m, s, abs_prec)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        rel = self.abs_precision - self.valuation
        return PadicNumber(self.ctx, self.valuation,
                           (-self.unit) % self.ctx.p ** rel, self.abs_precision)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_exact_zero() or other.is_exact_zero():
            return PadicNumber(self.ctx, INF, 0, INF)
        v = self.valuation + other.valuation
        abs_prec = min(self.abs_precision + other.valuation,
                       other.abs_precision + self.valuation)
        if self.unit == 0 or other.unit == 0:
            return PadicNumber(self.ctx, abs_prec, 0, abs_prec)
        rel = abs_prec - v
        return PadicNumber(self.ctx, v,
                           (self.unit * other.unit) % self.ctx.p ** rel, abs_prec)

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self.unit == 0:
            raise ZeroDivisionError(
                "inverse of a value indistinguishable from zero")
        rel = self.abs_precision - self.valuation
        inv = pow(self.unit, -1, self.ctx.p ** rel)
        return PadicNumber(self.ctx, -self.valuation, inv,
                           rel - self.valuation)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        """x^n for any integer n: valuation n*v and the relative precision
        of x, as the products and the inverse would claim."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and self.unit == 0:
            raise ZeroDivisionError("negative power of a value indistinguishable from zero")
        if self.is_exact_zero():
            return self if n else self.ctx.one()
        rel = self.abs_precision - self.valuation
        v = n * self.valuation
        return PadicNumber._make(self.ctx, v, pow(self.unit, n, self.ctx.p ** rel), v + rel)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self.ctx.p == other.ctx.p
                and self.valuation == other.valuation
                and self.unit == other.unit
                and self.abs_precision == other.abs_precision)

    def __hash__(self):
        return hash((self.ctx.p, self.valuation, self.unit, self.abs_precision))

    def __repr__(self):
        p = self.ctx.p
        if self.is_exact_zero():
            return "0"
        if self.unit == 0:
            return f"O({p}^{self.abs_precision})"
        if self.valuation >= 0:
            return f"{self.lift()} + O({p}^{self.abs_precision})"
        return f"{self.unit}*{p}^{self.valuation} + O({p}^{self.abs_precision})"


_set_ctx = PadicNumber.ctx.__set__
_set_valuation = PadicNumber.valuation.__set__
_set_unit = PadicNumber.unit.__set__
_set_abs_precision = PadicNumber.abs_precision.__set__


def from_rational(q, ctx: PadicContext, abs_prec=None) -> PadicNumber:
    """Image of a rational in Q_p.

    Default absolute precision is ctx.precision, extended by the valuation
    for values divisible by p (the claim stays true and keeps the integral
    part intact).  from_rational(0) is the exact zero with +inf valuation.
    """
    q = as_rational(q)
    if q == 0:
        return PadicNumber(ctx, INF, 0, INF)
    v = _vp(q, ctx.p)
    if abs_prec is None:
        abs_prec = ctx.precision + max(v, 0)
    rel = abs_prec - v
    if rel <= 0:
        return PadicNumber(ctx, abs_prec, 0, abs_prec)
    num = q.numerator
    den = q.denominator
    if v >= 0:
        num //= ctx.p ** v
    else:
        den //= ctx.p ** (-v)
    mod = ctx.p ** rel
    unit = (num * pow(den, -1, mod)) % mod
    return PadicNumber(ctx, v, unit, abs_prec)


def congruent(x: PadicNumber, y, k: int | None = None) -> bool:
    """True when v_p(x - y) >= k, i.e. x and y agree mod p^k; k defaults
    to the weaker of the two claims."""
    d = x - y
    if d.is_exact_zero():
        return True
    k = d.abs_precision if k is None else k
    if d.abs_precision < k:
        raise PrecisionError(
            f"congruence mod p^{k} undecidable at precision {d.abs_precision}")
    return d.valuation >= k


def teichmuller(u: PadicNumber) -> PadicNumber:
    """Teichmuller representative: the root of unity of order prime to p
    congruent to u mod p, as the one modular power u^(p^(k-1)) mod p^k.

    (Z/p^k)^x is mu_(p-1) times the principal units mod p^k, a group of
    order p^(k-1), so the power kills the principal part and fixes omega(u),
    as p^(k-1) = 1 mod p-1.  For p = 2 every unit is principal, and the
    power is 1.
    """
    if not isinstance(u, PadicNumber):
        raise TypeError("teichmuller needs a PadicNumber; embed first")
    if u.valuation != 0:
        raise ValueError("teichmuller character needs a p-adic unit")
    p, k = u.ctx.p, u.abs_precision
    return PadicNumber(u.ctx, 0, pow(u.lift(), p ** (k - 1), p ** k), k)


def principal_part(u: PadicNumber) -> PadicNumber:
    """<u> = u / omega(u), a principal unit (== 1 mod p; mod 1 trivially for
    p = 2 where omega = 1 and <u> = u)."""
    return u * teichmuller(u).inverse()


def zp_residue(s, ctx: PadicContext, k: int):
    """(S, n) with s == S mod p^n and n = min(k, precision of s), for s in
    Z_p: an int, a Fraction with p-free denominator (S is the numerator
    times the inverse of the denominator) or a PadicNumber of valuation
    >= 0.  Anything else raises ValueError."""
    if isinstance(s, PadicNumber):
        if s.valuation < 0:
            raise ValueError("exponent must lie in Z_p")
        n = min(k, s.abs_precision)
        return s.residue(n), n
    s = as_rational(s)
    if _vp(s, ctx.p) < 0:
        raise ValueError("exponent must lie in Z_p")
    mod = ctx.p ** k
    return s.numerator * pow(s.denominator, -1, mod) % mod, k


def principal_power(u: PadicNumber, s) -> PadicNumber:
    """u^s for a principal unit u and s in Z_p, as one modular power.

    With e = v(u - 1) >= 1, u^(p^k) == 1 mod p^(e+k), so u^s mod p^A
    depends only on s mod p^(A-e): it is pow(lift(u), S, p^A) for the
    residue S of zp_residue.  A PadicNumber s known mod p^N caps the claim
    at N + e.
    """
    ctx = u.ctx
    e = (u - 1).valuation
    if e < 1:
        raise DivergentSeriesError(
            f"principal_power needs a principal unit, got v(u-1) = {e}")
    S, n = zp_residue(s, ctx, u.abs_precision - e)
    return PadicNumber._make(ctx, 0, pow(u.lift(), S, ctx.p ** (n + e)), n + e)


def _exp_domain_valuation(p: int) -> int:
    # convergence needs v(x) > 1/(p-1)
    return 2 if p == 2 else 1


def p_exp(x: PadicNumber) -> PadicNumber:
    """exp(x) = sum x^n / n!, defined for v(x) >= 1 (p odd), >= 2 (p = 2)."""
    ctx = x.ctx
    p = ctx.p
    if x.is_exact_zero():
        return ctx.one()
    v = x.valuation
    if x.unit == 0:
        v = x.abs_precision  # only a lower bound on v, still enough to test
    if v < _exp_domain_valuation(p):
        raise DivergentSeriesError(
            f"exp diverges: v_p(x) = {v} <= 1/(p-1) at p = {p}")
    target = x.abs_precision
    out = ctx.number(1, abs_prec=target)
    term = x
    n = 1
    # v(x^n/n!) >= n*v - (n-1)/(p-1), increasing in n
    while n * v - (n - 1) / (p - 1) < target:
        out = out + term
        n += 1
        term = term * x / n
    return out
