import math
import random
from fractions import Fraction

import pytest

from incgamma.exact import INF, vp_factorial
from incgamma.padic import (
    DivergentSeriesError,
    PadicContext,
    congruent,
    from_rational,
    p_exp,
    principal_part,
    principal_power,
    teichmuller,
)


def test_from_rational_quarter():
    ctx = PadicContext(3, 4)
    x = from_rational(Fraction(1, 4), ctx)
    assert x.valuation == 0
    assert x.unit == 61  # 4*61 = 244 == 1 mod 81
    assert (4 * x.lift()) % 81 == 1


def test_from_rational_valuations():
    ctx = PadicContext(3, 6)
    assert from_rational(Fraction(9, 2), ctx).valuation == 2
    assert from_rational(Fraction(5, 6), ctx).valuation == -1
    z = from_rational(0, ctx)
    assert z.valuation == INF
    assert z.is_exact_zero()


def test_arithmetic_matches_rationals():
    rng = random.Random(11)
    ctx = PadicContext(5, 20)
    for _ in range(150):
        a = Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 4, 6, 7]))
        b = Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 4, 6, 7]))
        xa, xb = ctx.number(a), ctx.number(b)
        assert congruent(xa + xb, ctx.number(a + b), 18)
        assert congruent(xa - xb, ctx.number(a - b), 18)
        assert congruent(xa * xb, ctx.number(a * b), 18)
        if b != 0:
            assert congruent(xa / xb, ctx.number(a / b), 15)


def test_add_mixed_valuations_including_negative():
    ctx = PadicContext(5, 12)
    x = ctx.number(Fraction(1, 5))
    y = ctx.number(3)
    assert congruent(x + y, ctx.number(Fraction(16, 5)), 11)
    z = ctx.number(Fraction(7, 25)) + ctx.number(Fraction(2, 5)) + 4
    assert congruent(z, ctx.number(Fraction(117, 25)), 9)


def test_zealous_precision_add_mul():
    ctx = PadicContext(3, 8)
    x = ctx.number(2, abs_prec=5)
    y = ctx.number(7, abs_prec=3)
    assert (x + y).abs_precision == 3
    # v(x) = v(y) = 0 so the product is known mod 3^3 as well
    assert (x * y).abs_precision == 3
    z = ctx.number(9, abs_prec=6)  # valuation 2
    assert (x * z).abs_precision == min(5 + 2, 6 + 0)


def test_cancellation_gives_inexact_zero():
    ctx = PadicContext(3, 6)
    x = ctx.number(5, abs_prec=6)
    d = x - ctx.number(5, abs_prec=6)
    assert d.unit == 0
    assert d.valuation == 6
    assert not d.is_exact_zero()


def test_division_by_possible_zero_raises():
    ctx = PadicContext(3, 6)
    d = ctx.number(5) - ctx.number(5)
    with pytest.raises(ZeroDivisionError):
        ctx.number(1) / d


def test_integer_pow():
    ctx = PadicContext(7, 12)
    x = ctx.number(Fraction(3, 5))
    assert congruent(x ** 4, ctx.number(Fraction(81, 625)), 12)
    assert congruent(x ** 0, ctx.number(1), 12)
    assert congruent(x ** -2, ctx.number(Fraction(25, 9)), 10)


def test_teichmuller_fixed_points():
    ctx5 = PadicContext(5, 2)
    t = teichmuller(ctx5.number(2))
    assert t.lift() % 25 == 7
    ctx3 = PadicContext(3, 2)
    t3 = teichmuller(ctx3.number(2))
    assert t3.lift() % 9 == 8


def test_teichmuller_is_root_of_unity():
    for p in (3, 5, 7, 11):
        ctx = PadicContext(p, 25)
        rng = random.Random(p)
        for _ in range(20):
            u = rng.randrange(1, p ** 6)
            if u % p == 0:
                u += 1
            t = teichmuller(ctx.number(u))
            assert congruent(t ** (p - 1), ctx.number(1), 25)
            assert (t.lift() - u) % p == 0


def test_teichmuller_p2_is_one():
    ctx = PadicContext(2, 20)
    for u in (1, 3, 5, 7, 11, 2023):
        t = teichmuller(ctx.number(u))
        assert t.lift() == 1


def test_principal_part():
    ctx = PadicContext(3, 2)
    pp = principal_part(ctx.number(2))
    assert pp.lift() % 9 == 7  # <2> = -2 at p = 3
    # <u> is a principal unit and u = omega(u) * <u>
    ctx = PadicContext(7, 15)
    u = ctx.number(10)
    assert (principal_part(u) - 1).valuation >= 1
    assert congruent(teichmuller(u) * principal_part(u), u, 15)


def test_principal_power_integer_exponents():
    ctx = PadicContext(5, 18)
    u = ctx.number(6)
    for s in (0, 1, 2, 7, -3):
        direct = u ** s
        assert congruent(principal_power(u, s), direct, 16)


def test_principal_power_additivity_in_exponent():
    ctx = PadicContext(3, 20)
    u = ctx.number(4)
    rng = random.Random(7)
    for _ in range(25):
        s = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 5, 7]))
        t = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 5, 7]))
        lhs = principal_power(u, s + t)
        rhs = principal_power(u, s) * principal_power(u, t)
        assert congruent(lhs, rhs, 18)


def test_principal_power_p2():
    ctx = PadicContext(2, 16)
    u = ctx.number(3)  # v(u-1) = 1: still convergent via binomial series
    for s in (0, 1, 2, 5, 9):
        assert congruent(principal_power(u, s), u ** s, 14)


def test_principal_power_of_one():
    # 1 - 1 is O(p^prec), not an exact zero, so e = prec and every exponent
    # gives 1 at the precision of one
    for p, prec in ((2, 8), (3, 10), (7, 5)):
        ctx = PadicContext(p, prec)
        for s in (0, 5, -3, Fraction(2, 5), ctx.number(4)):
            got = principal_power(ctx.one(), s)
            assert (got.valuation, got.unit, got.abs_precision) == (0, 1, prec)


def test_principal_power_rejects_non_principal():
    ctx = PadicContext(5, 10)
    with pytest.raises(DivergentSeriesError):
        principal_power(ctx.number(2), 3)


def test_p_exp_known_value():
    # exp(3) in Z_3: terms 1 + 3 + 9/2 + 27/6 contribute below 3^3;
    # exact partial sums give 40/... == 13 mod 27
    acc = sum(Fraction(3 ** n, math.factorial(n)) for n in range(9))
    ctx = PadicContext(3, 3)
    x = p_exp(ctx.number(3))
    assert x.abs_precision >= 3
    num, den = acc.numerator, acc.denominator
    assert x.residue(3) == (num * pow(den, -1, 27)) % 27
    assert x.residue(3) == 13


def test_p_exp_against_rational_series():
    # independent oracle: exact rational partial sums, reduced at the end
    for p, v in ((3, 1), (5, 1), (2, 2)):
        ctx = PadicContext(p, 12)
        for mult in (1, 2, 3):
            a = mult * p ** v
            n_terms = 1
            while n_terms * v - vp_factorial(n_terms, p) < 14 or n_terms < 5:
                n_terms += 1
            acc = sum(Fraction(a ** n, math.factorial(n)) for n in range(n_terms + 1))
            mod = p ** 12
            expect = (acc.numerator * pow(acc.denominator, -1, mod)) % mod
            got = p_exp(ctx.number(a))
            assert got.abs_precision >= 12
            assert got.residue(12) == expect


def test_p_exp_domain():
    ctx = PadicContext(3, 8)
    with pytest.raises(DivergentSeriesError):
        p_exp(ctx.number(1))
    ctx2 = PadicContext(2, 8)
    with pytest.raises(DivergentSeriesError):
        p_exp(ctx2.number(2))  # p = 2 needs v >= 2
    p_exp(ctx2.number(4))


def test_exp_additivity():
    ctx = PadicContext(3, 14)
    rng = random.Random(17)
    for _ in range(15):
        a, b = 3 * rng.randint(1, 200), 3 * rng.randint(1, 200)
        lhs = p_exp(ctx.number(a + b))
        rhs = p_exp(ctx.number(a)) * p_exp(ctx.number(b))
        assert congruent(lhs, rhs, 12)


def test_repr_smoke():
    ctx = PadicContext(3, 4)
    assert "O(3^4)" in repr(ctx.number(Fraction(1, 4)))
    assert repr(ctx.zero()) == "0"
    assert "3^-1" in repr(ctx.number(Fraction(1, 3)))
