import random
from fractions import Fraction

import pytest

from incgamma.series import TruncSeries, gexp


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
        assert e.derivative() == f.derivative() * e

