"""Exact rational combinatorics and p-adic valuations of rationals.

Everything in this module is exact: inputs are ints or Fractions, outputs are
ints, Fractions, or the infinite valuation marker.  The rest of the package
builds on these helpers, so they stay free of any p-adic rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Valuation of zero.  Comparisons and min() work as expected.
INF = math.inf


def as_rational(q) -> Fraction:
    """Coerce an int, Fraction, or 'a/b' string to a Fraction."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    if isinstance(q, str):
        return Fraction(q)
    raise TypeError(f"not a rational: {q!r}")


# Miller-Rabin to the 13 prime bases 2..41 is deterministic below this bound
# (Sorenson and Webster, 2015): every composite under it fails one base.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASE_SET = frozenset(_BASES)
PRIME_BOUND = 3317044064679887385961981


def _check_prime(p: int) -> None:
    if isinstance(p, int) and p in _BASE_SET:  # every p the package meets in practice
        return
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    if p >= PRIME_BOUND:
        raise ValueError(f"p = {p} is too large: primality is decided only below "
                         f"{PRIME_BOUND}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _is_prime(n: int) -> bool:
    """Primality of 2 <= n < PRIME_BOUND: n is a base, or no base divides n
    and n is below 43^2 or a strong probable prime to every base."""
    if n in _BASE_SET:
        return True
    if not all(n % a for a in _BASES):
        return False
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vp(q, p: int):
    """p-adic valuation of a rational; vp(0) is +infinity.

    vp(a/b) = vp(a) - vp(b).
    """
    _check_prime(p)
    return _vp(as_rational(q), p)


def _vp(q, p: int):
    """vp of an int or Fraction, for a p a PadicContext has checked."""
    if q == 0:
        return INF
    v = 0
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def binom(q, k: int) -> Fraction:
    """Binomial coefficient binom(q, k) = (q)_k / k! for rational q.

    Zero for k < 0.  Agrees with math.comb on nonnegative integer q.
    """
    if k < 0:
        return Fraction(0)
    q = as_rational(q)
    if q.denominator == 1 and q >= 0:
        return Fraction(math.comb(q.numerator, k))
    return falling(q, k) / math.factorial(k)


def falling(q, k: int) -> Fraction:
    """Falling factorial (q)_k = q (q-1) ... (q-k+1); empty product is 1."""
    if k < 0:
        raise ValueError("falling factorial needs k >= 0")
    q = as_rational(q)
    out = Fraction(1)
    for j in range(k):
        out *= q - j
    return out


def digit_sum(n: int, p: int) -> int:
    """Sum of base-p digits of a nonnegative integer."""
    if n < 0:
        raise ValueError("digit_sum needs n >= 0")
    _check_prime(p)
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def vp_factorial(n: int, p: int) -> int:
    """vp(n!) = (n - digit_sum(n, p)) / (p - 1)   (Legendre)."""
    if n < 0:
        raise ValueError("vp_factorial needs n >= 0")
    return (n - digit_sum(n, p)) // (p - 1)  # digit_sum checks that p is prime


def digit_count(n: int, p: int) -> int:
    """Number of base-p digits of n >= 1 (so p^(count-1) <= n < p^count)."""
    if n < 1:
        raise ValueError("digit_count needs n >= 1")
    c = 0
    while n:
        n //= p
        c += 1
    return c
