import random
from fractions import Fraction

import pytest

from incgamma.series import TruncSeries, binomial_power, gexp, one


def F(*nums):
    return [Fraction(n) if not isinstance(n, Fraction) else n for n in nums]


def rand_series(rng, order, denoms=(1, 2, 3, 4)):
    return TruncSeries([Fraction(rng.randint(-8, 8), rng.choice(denoms))
                        for _ in range(order + 1)])


def test_mul_and_add_match_polynomials():
    a = TruncSeries(F(1, 2, 3))
    b = TruncSeries(F(4, 0, -1))
    assert (a + b).coeffs == F(5, 2, 2)
    assert (a * b).coeffs == F(4, 8, 11)  # truncated at t^2


def test_truncation_to_min_order():
    a = TruncSeries(F(1, 1, 1, 1))
    b = TruncSeries(F(1, 1))
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_derivative():
    a = TruncSeries(F(5, 1, 3, 7))
    assert a.derivative().coeffs == F(1, 6, 21)
    with pytest.raises(ValueError):
        TruncSeries(F(1)).derivative()


def test_binomial_power_sqrt_of_one_minus_t():
    a = TruncSeries(F(1, -1), order=2)
    s = binomial_power(a, Fraction(1, 2))
    assert s.coeffs == F(1, Fraction(-1, 2), Fraction(-1, 8))
    # and squaring recovers 1 - t
    sq = s * s
    assert sq.coeffs == F(1, -1, 0)


def test_binomial_power_reciprocal():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_series(rng, 8)
        a.coeffs[0] = Fraction(1)
        inv = binomial_power(a, -1)
        assert (a * inv).coeffs == [1] + [0] * 8


def test_binomial_power_exponent_additivity():
    rng = random.Random(6)
    for _ in range(20):
        a = rand_series(rng, 7)
        a.coeffs[0] = Fraction(1)
        y = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
        z = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
        lhs = binomial_power(a, y) * binomial_power(a, z)
        rhs = binomial_power(a, y + z)
        assert lhs == rhs


def test_binomial_power_integer_matches_repeated_mul():
    a = TruncSeries(F(1, 2, -1, 3), order=5)
    cube = a * a * a
    assert binomial_power(a, 3) == cube


def test_binomial_power_needs_unit_constant():
    with pytest.raises(ValueError):
        binomial_power(TruncSeries(F(2, 1)), -1)


def test_gexp_example():
    f = TruncSeries([0, 1, Fraction(1, 4)])
    assert gexp(f).coeffs == F(1, 1, Fraction(3, 4))


def test_gexp_rejects_nonzero_constant_exact():
    with pytest.raises(ValueError):
        gexp(TruncSeries(F(1, 1)))


def test_gexp_product_rule():
    rng = random.Random(7)
    for _ in range(20):
        f = rand_series(rng, 9)
        g = rand_series(rng, 9)
        f.coeffs[0] = g.coeffs[0] = Fraction(0)
        assert gexp(f) * gexp(g) == gexp(f + g)


def test_gexp_derivative_rule():
    rng = random.Random(8)
    for _ in range(20):
        f = rand_series(rng, 9)
        f.coeffs[0] = Fraction(0)
        e = gexp(f)
        assert e.derivative() == (f.derivative() * e).truncate(8)


def test_one_helper():
    u = one(3)
    assert u.coeffs == F(1, 0, 0, 0)
