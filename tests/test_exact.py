import math
import random
import time
from fractions import Fraction

import pytest

from incgamma.exact import (
    INF,
    PRIME_BOUND,
    as_rational,
    binom,
    digit_count,
    digit_sum,
    falling,
    vp,
    vp_factorial,
)
from incgamma.padic import PadicContext


def test_vp_known_values():
    assert vp(Fraction(5, 6), 3) == -1
    assert vp(9, 3) == 2
    assert vp(Fraction(9, 2), 3) == 2
    assert vp(1, 7) == 0
    assert vp(0, 5) == INF


def test_vp_rejects_composite_p():
    with pytest.raises(ValueError):
        vp(1, 6)
    with pytest.raises(ValueError):
        vp(1, 1)


def test_large_prime_is_accepted_at_once():
    start = time.perf_counter()
    ctx = PadicContext(100000000000000000039, 1)
    assert time.perf_counter() - start < 0.05
    assert ctx.p == 100000000000000000039


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_refused(n):
    # a Carmichael number, and strong pseudoprimes to the bases 2..7 and 2..23
    with pytest.raises(ValueError, match=f"p must be prime, got {n}"):
        PadicContext(n, 1)


def test_primes_at_or_past_the_bound_are_refused():
    # 2^89 - 1 is prime, but Miller-Rabin on the bases 2..41 decides only below
    # the bound
    for p in (PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"decided only below {PRIME_BOUND}"):
            vp(1, p)


def test_primality_matches_a_sieve():
    N = 20000
    sieve = [True] * N
    sieve[0] = sieve[1] = False
    for i in range(2, 142):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    for n in range(2, N):
        try:
            vp(1, n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == sieve[n], n


def test_binom_known_values():
    assert binom(Fraction(1, 2), 3) == Fraction(1, 16)
    assert binom(5, 2) == 10
    assert binom(Fraction(1, 2), 0) == 1
    assert binom(Fraction(1, 2), -1) == 0
    assert binom(-1, 3) == -1


def test_falling_known_values():
    assert falling(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert falling(7, 0) == 1
    assert falling(-1, 3) == -6


def test_binom_matches_comb_on_integers():
    for n in range(12):
        for k in range(14):
            assert binom(n, k) == math.comb(n, k)


def test_pascal_recurrence_random_rationals():
    rng = random.Random(1)
    for _ in range(200):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        k = rng.randint(1, 30)
        assert binom(q, k) == binom(q - 1, k - 1) + binom(q - 1, k)


def test_falling_vs_binom():
    rng = random.Random(2)
    for _ in range(100):
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        k = rng.randint(0, 20)
        assert falling(q, k) == binom(q, k) * math.factorial(k)


def test_digit_sum_known_values():
    assert digit_sum(10, 3) == 2  # 101 base 3
    assert digit_sum(0, 5) == 0
    assert digit_sum(7, 2) == 3


def test_vp_factorial_examples():
    assert vp_factorial(4, 2) == 3
    assert vp_factorial(0, 3) == 0
    assert vp_factorial(10, 5) == 2


def test_vp_factorial_matches_direct_valuation():
    for p in (2, 3, 5, 7):
        for n in range(0, 60):
            assert vp_factorial(n, p) == vp(math.factorial(n), p)


def test_legendre_digit_sum_inequality():
    # digit_sum(m+n) <= digit_sum(m) + digit_sum(n), equivalently
    # vp(binom(m+n, n)) >= 0 with the Legendre formula
    rng = random.Random(3)
    for p in (2, 3, 7):
        for _ in range(200):
            m = rng.randint(0, 10 ** 6)
            n = rng.randint(0, 10 ** 6)
            assert digit_sum(m + n, p) <= digit_sum(m, p) + digit_sum(n, p)
            carry_v = (digit_sum(m, p) + digit_sum(n, p) - digit_sum(m + n, p)) // (p - 1)
            assert vp_factorial(m + n, p) - vp_factorial(m, p) - vp_factorial(n, p) == carry_v


def test_rational_parse_format_roundtrip():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("-5") == -5
    for q in (Fraction(3, 4), Fraction(10, 2), Fraction(-7, 9)):
        assert as_rational(str(q)) == q
    assert str(Fraction(10, 2)) == "5"


def test_digit_count():
    assert digit_count(1, 3) == 1
    assert digit_count(3, 3) == 2
    assert digit_count(80, 3) == 4
    assert digit_count(81, 3) == 5
