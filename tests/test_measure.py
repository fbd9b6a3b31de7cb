import math
import random
from fractions import Fraction

import pytest

from incgamma.exact import binom
from incgamma.mahler import ExactMahler, MahlerFn, Tail
from incgamma.measure import dirac, integrate, mu_psi_x
from incgamma.padic import PadicContext, PadicNumber, congruent


def rand_exact(rng, support=6):
    return ExactMahler([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                        for _ in range(support)])


def test_dirac_minus_one_moments():
    ctx = PadicContext(3, 10)
    mu = dirac(-1, ctx, 8)
    for n in range(9):
        assert congruent(mu.coeff(n), ctx.number((-1) ** n), 10)


def test_dirac_integer_point_is_finite():
    ctx = PadicContext(5, 10)
    mu = dirac(3, ctx, 8)
    assert congruent(mu.coeff(2), ctx.number(3), 10)
    assert congruent(mu.coeff(4), ctx.number(0), 10)
    assert mu.tail.exponent == float("inf")
    # x = length: the last stored moment binom(8, 8) = 1 ends the support
    mu = dirac(8, ctx, 8)
    assert mu.coeff(8) == ctx.one()
    assert mu.tail == Tail.exact()


@pytest.mark.parametrize("p, x, length", [
    (2, Fraction(-7, 3), 40),
    (3, -13, 30),                        # a negative integer has no zero moment
    (5, Fraction(11, 10 ** 6 + 3), 25),  # a large denominator prime to p
    (7, Fraction(5, 4), 0),
    (2, 9, 20),                          # exact zeros past x
])
def test_dirac_moments_are_the_exact_binomials(p, x, length):
    # each moment is ctx.number(binom(x, n)): its value and its claim M + v
    ctx = PadicContext(p, 12)
    mu = dirac(x, ctx, length)
    assert mu.coeffs == tuple(ctx.number(binom(x, n)) for n in range(length + 1))
    finite = Fraction(x).denominator == 1 and 0 <= x <= length
    assert mu.tail == (Tail.exact() if finite else Tail(0, "binomials are integral"))


def test_integrate_against_dirac_is_evaluation():
    rng = random.Random(51)
    ctx = PadicContext(5, 14)
    for _ in range(25):
        f = rand_exact(rng)
        x = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3]))
        mu = dirac(x, ctx, f.length + 2)
        got = integrate(f.to_padic(ctx), mu)
        assert congruent(got, ctx.number(f.eval(x)), 12)


def test_integrate_with_padic_dirac_point():
    ctx = PadicContext(3, 12)
    rng = random.Random(52)
    for _ in range(10):
        f = rand_exact(rng, 5)
        n = rng.randrange(0, 3 ** 12)
        mu = dirac(ctx.number(n), ctx, f.length)
        assert congruent(integrate(f.to_padic(ctx), mu), ctx.number(f.eval(n)), 10)


def test_dirac_at_imprecise_point_does_not_overclaim():
    ctx = PadicContext(3, 10)
    mu = dirac(PadicNumber(ctx, 5, 0, 5), ctx, 9)
    # the lift 3^5 gives binom(243, 3) of valuation 4, binom(243, 9) of 3
    assert mu.coeff(3).abs_precision <= 4
    assert mu.coeff(9).abs_precision <= 3
    for n in range(10):
        assert congruent(mu.coeff(n), ctx.number(math.comb(243, n)),
                         mu.coeff(n).abs_precision)


def test_mu_psi_x_moments_example():
    # psi = identity function x; moments at x = -1: (-1)^n * (-1 - n)
    ctx = PadicContext(5, 12)
    psi = ExactMahler([0, 1]).to_padic(ctx)
    mu = mu_psi_x(psi, -1, length=6)
    for n in range(7):
        assert congruent(mu.coeff(n), ctx.number((-1) ** n * (-1 - n)), 12)


def test_integrate_mu_psi_is_convolution_value():
    rng = random.Random(53)
    ctx = PadicContext(3, 16)
    for _ in range(20):
        psi = rand_exact(rng, 5)
        phi = rand_exact(rng, 5)
        x = rng.randint(-6, 6)
        conv = psi.convolve(phi)
        mu = mu_psi_x(psi.to_padic(ctx), x, length=conv.length + 1)
        got = integrate(phi.to_padic(ctx), mu)
        assert congruent(got, ctx.number(conv.eval(x)), 13)


def test_bilinearity():
    rng = random.Random(54)
    ctx = PadicContext(5, 14)
    for _ in range(10):
        f, g = rand_exact(rng), rand_exact(rng)
        x = rng.randint(-10, 10)
        mu = dirac(x, ctx, 8)
        lhs = integrate(f.to_padic(ctx), mu) + integrate(g.to_padic(ctx), mu) * 3
        pf = f.to_padic(ctx)
        pg = g.to_padic(ctx).scale(3)
        rhs = integrate(pf.add(pg), mu)
        assert congruent(lhs, rhs, 12)
        nu = mu.scale(7).add(mu)  # (7 + 1) * mu
        assert congruent(integrate(pf, nu), integrate(pf, mu) * 8, 12)


def test_sum_of_measures_does_not_overclaim():
    # the sum keeps only b's 3 moments, so a's moment 5 lands in its tail
    ctx = PadicContext(3, 20)
    a = MahlerFn(ctx, [0, 0, 0, 0, 0, 1], Tail(10, "test"))
    b = MahlerFn(ctx, [0, 0, 0], Tail(10, "test"))
    phi = MahlerFn(ctx, [0, 0, 0, 0, 0, 1], Tail.exact())  # binom(x, 5)
    assert integrate(phi, a) == ctx.one()
    got = integrate(phi, a.add(b))
    assert congruent(got, ctx.one(), got.abs_precision)


def test_norm_exponent():
    ctx = PadicContext(3, 10)
    mu = dirac(-1, ctx, 5).scale(9)
    assert mu.min_valuation() == 2


def test_moment_access_guard():
    ctx = PadicContext(3, 10)
    mu = dirac(-1, ctx, 4)
    with pytest.raises(IndexError):
        mu.coeff(5)
