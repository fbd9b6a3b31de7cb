import math
import random
from fractions import Fraction

import pytest

from incgamma.exact import falling, vp_factorial
from incgamma.gamma_padic import phi_fr
from incgamma.mahler import ExactMahler, MahlerFn, Tail, convolve
from incgamma.padic import PadicContext, PadicNumber, congruent
from incgamma.transform import (AmiceElem, factorial_length_for, l_value, l_values,
                                l_x, one_minus_x_pow, parts_check, s_transform,
                                two_var)


def one_fn(ctx):
    """The constant function 1."""
    return MahlerFn(ctx, [1], Tail.exact())


def rand_fn(rng, ctx, support=5):
    f = ExactMahler([Fraction(rng.randint(-9, 9)) for _ in range(support)])
    return f.to_padic(ctx)


def test_factorial_length_for():
    for p in (2, 3, 7):
        for target in (1, 5, 23):
            K = factorial_length_for(p, target)
            assert vp_factorial(K + 1, p) >= target
            assert K == 0 or vp_factorial(K, p) < target


def test_one_minus_x_pow_integer_support():
    ctx = PadicContext(5, 12)
    g = one_minus_x_pow(1, ctx, 4)
    assert congruent(g.coeff(0), ctx.one(), 12)
    assert congruent(g.coeff(1), ctx.number(-1), 12)
    assert g.coeff(2).is_exact_zero() or g.coeff(2).is_zero()
    assert g.tail.exponent == float("inf")
    g2 = one_minus_x_pow(2, ctx, 5)
    for n, want in enumerate([1, -2, 2, 0, 0, 0]):
        assert congruent(g2.coeff(n), ctx.number(want), 12)


def test_one_minus_x_pow_matches_exact_convolution_powers():
    # coefficients of the third convolution power of 1 - x
    ctx = PadicContext(3, 14)
    e = ExactMahler([1, -1])
    cube = e.convolve(e).convolve(e)
    g = one_minus_x_pow(3, ctx, 6)
    for n in range(7):
        assert congruent(g.coeff(n), ctx.number(cube.coeff(n)), 14)


def test_one_minus_x_pow_negative_one_is_q():
    ctx = PadicContext(3, 12)
    g = one_minus_x_pow(-1, ctx, 8)
    for n in range(9):
        assert congruent(g.coeff(n), ctx.number(math.factorial(n)), 12)


def test_one_minus_x_pow_fractional_coeffs():
    ctx = PadicContext(3, 12)
    g = one_minus_x_pow(Fraction(1, 2), ctx, 3)
    for n, want in enumerate([1, Fraction(-1, 2), Fraction(-1, 4), Fraction(-3, 8)]):
        assert congruent(g.coeff(n), ctx.number(want), 10)
    assert g.tail == Tail(vp_factorial(4, 3), "factorial decay")


def test_one_minus_x_pow_rejects_non_integral():
    ctx = PadicContext(3, 10)
    with pytest.raises(ValueError):
        one_minus_x_pow(Fraction(1, 3), ctx, 5)


def test_s_zero_is_identity():
    ctx = PadicContext(5, 12)
    rng = random.Random(61)
    f = rand_fn(rng, ctx)
    g = s_transform(f, 0)
    for n in range(f.length + 1):
        assert congruent(g.coeff(n), f.coeff(n), 10)


def test_group_law_pointwise():
    rng = random.Random(62)
    for p in (3, 5):
        ctx = PadicContext(p, 24)
        L = factorial_length_for(p, 2 * 20)
        for _ in range(6):
            f = rand_fn(rng, ctx)
            y1 = Fraction(rng.randint(-20, 20), rng.choice([1, 1 + p]))
            y2 = Fraction(rng.randint(-20, 20), rng.choice([1, 1 + p]))
            lhs = s_transform(s_transform(f, y2, L), y1)
            rhs = s_transform(f, y1 + y2, L)
            for x in range(-2, 3):
                assert congruent(lhs.eval(x), rhs.eval(x), 16)


def test_inverse_roundtrip():
    ctx = PadicContext(3, 24)
    rng = random.Random(63)
    f = rand_fn(rng, ctx)
    y = ctx.number(7) + ctx.number(3) ** 2 * 5
    L = factorial_length_for(3, 2 * 20)
    back = s_transform(s_transform(f, y, L), -y)
    for x in range(4):
        assert congruent(back.eval(x), f.eval(x), 16)


def test_shift_commutation():
    # S^y sigma = sigma S^y + y S^{y-1}
    rng = random.Random(64)
    ctx = PadicContext(3, 24)
    L = factorial_length_for(3, 2 * 20)
    for _ in range(6):
        f = rand_fn(rng, ctx)
        y = Fraction(rng.randint(-15, 15), rng.choice([1, 2, 4]))
        lhs = s_transform(f.shift(), y, L)
        t1 = s_transform(f, y, L).shift()
        t2 = s_transform(f, y - 1, L).scale(ctx.number(y))
        for x in range(-2, 3):
            assert congruent(lhs.eval(x), t1.eval(x) + t2.eval(x), 16)


def test_isometry_and_leading_coefficient():
    rng = random.Random(65)
    ctx = PadicContext(5, 20)
    f = ExactMahler([1] + [rng.randint(-9, 9) for _ in range(5)]).to_padic(ctx)
    assert f.min_valuation() == 0
    g = s_transform(f, Fraction(7, 2), factorial_length_for(5, 2 * 16))
    assert g.min_valuation() == 0
    assert congruent(g.coeff(0), f.coeff(0), 16)


def test_two_var_matches_transform_eval():
    rng = random.Random(66)
    for p in (3, 5):
        ctx = PadicContext(p, 24)
        L = factorial_length_for(p, 2 * 20)
        for _ in range(5):
            f = rand_fn(rng, ctx)
            y = Fraction(rng.randint(-12, 12), rng.choice([1, 1 + p]))
            x = rng.randint(-6, 6)
            via_conv = s_transform(f, y, L).eval(x)
            direct = two_var(f, x, y, target=20)
            assert congruent(via_conv, direct, 16)


def test_two_var_padic_arguments():
    ctx = PadicContext(3, 24)
    f = ExactMahler([2, 0, 1, -3]).to_padic(ctx)
    x = ctx.number(-4)
    y = ctx.number(Fraction(5, 2))
    a = two_var(f, x, y, target=20)
    b = two_var(f, -4, Fraction(5, 2), target=20)
    assert congruent(a, b, 18)


def test_two_var_on_constant_function():
    ctx = PadicContext(5, 16)
    got = two_var(one_fn(ctx), 2, 3, target=12)
    assert congruent(got, ctx.one(), 12)  # (1-x)^{*3} at x = 2


def test_two_var_rejects_outside_zp():
    ctx = PadicContext(3, 12)
    f = one_fn(ctx)
    with pytest.raises(ValueError):
        two_var(f, Fraction(1, 3), 1)
    with pytest.raises(ValueError):
        two_var(f, 1, Fraction(1, 3))


def test_q_star_one_minus_x_is_one():
    ctx = PadicContext(3, 24)
    # Mahler coefficients n!, the convolution inverse of 1 - x
    q = MahlerFn(ctx, [math.factorial(n) for n in range(61)],
                 Tail(vp_factorial(61, 3), "factorial decay"))
    prod = convolve(q, one_minus_x_pow(1, ctx, 1))
    assert congruent(prod.coeff(0), ctx.one(), 20)
    for n in range(1, prod.length + 1):
        assert prod.coeff(n).is_zero()


def test_l_of_one_is_q():
    ctx = PadicContext(5, 20)
    lt = l_x(one_fn(ctx), -1, length=12)
    for k in range(13):
        assert congruent(lt.coeff(k), ctx.number(math.factorial(k)), 18)


def test_l_x_matches_two_var():
    rng = random.Random(67)
    ctx = PadicContext(3, 24)
    for _ in range(5):
        f = rand_fn(rng, ctx)
        x = rng.randint(-5, 5)
        fn_y = l_x(f, x, length=factorial_length_for(3, 20))
        for _ in range(3):
            y = rng.randint(-10, 10)
            assert congruent(fn_y.eval(y), two_var(f, x, y, target=20), 16)


def test_l_value_matches_l_transform_eval():
    rng = random.Random(68)
    ctx = PadicContext(5, 20)
    f = rand_fn(rng, ctx)
    lt = l_x(f, -1, length=factorial_length_for(5, 16))
    for s in (0, 3, -2, Fraction(1, 2)):
        assert congruent(l_value(f, s, target=16), lt.eval(s), 14)


def test_l_value_cached_values():
    ctx = PadicContext(3, 16)
    f = ExactMahler([1, 2, -1]).to_padic(ctx)
    K = factorial_length_for(3, 12)
    cache = [f.eval(Fraction(-1 - k)) for k in range(K + 1)]
    a = l_value(f, 4, target=12, values=cache)
    b = l_value(f, 4, target=12)
    assert congruent(a, b, 12)
    with pytest.raises(ValueError):
        l_value(f, 4, target=12, values=cache[:3])


def _l_values_case(name):
    ctx = PadicContext(3, 12)
    if name.startswith("phi_fr"):
        r, p = name.split()[1:]
        return phi_fr(Fraction(r), PadicContext(int(p), 12))
    if name == "exact":
        return ExactMahler([1, -2, 5, Fraction(1, 2), 7]).to_padic(ctx)
    if name == "short":  # its certificate, -1, is clamped to the trivial bound
        short = phi_fr(2, ctx, length=12)
        assert short.tail == Tail(0, "gexp certificate")
        return short
    # coefficients of valuation -2 and -1: the kernel runs on 3^2 a_n
    if name == "non-integral exact":
        return ExactMahler([Fraction(1, 3), 2, Fraction(-5, 9), 1]).to_padic(ctx)
    return MahlerFn(ctx, [Fraction(1, 3), 2, Fraction(-5, 3), 1], Tail(5, "test"))


@pytest.mark.parametrize("name", [
    "phi_fr 2 3", "phi_fr 5/3 7", "phi_fr -2 5", "phi_fr 3 2", "phi_fr 1 5",
    "phi_fr -1 3", "exact", "short", "non-integral exact", "non-integral tail"])
def test_l_values_match_eval_in_value_and_claim(name):
    # value k is eval's mod p^(claim - v_p(k!)), all that l_value reads
    phi = _l_values_case(name)
    p = phi.ctx.p
    K = factorial_length_for(p, 12)
    rec = l_values(phi, K)
    assert len(rec.residues) == K + 1
    assert rec.norm == phi.min_valuation()
    for k in range(K + 1):
        got = PadicNumber._make(phi.ctx, rec.shift, rec.residues[k], rec.claim)
        want = phi.eval(Fraction(-1 - k))
        assert want.abs_precision == rec.claim
        assert congruent(got, want, rec.claim - vp_factorial(k, p)), k


def test_l_value_at_nonnegative_integer_is_the_exact_finite_sum():
    rng = random.Random(69)
    for p in (3, 5):
        ctx = PadicContext(p, 14)
        K = factorial_length_for(p, 12)
        for _ in range(6):
            f = ExactMahler([Fraction(rng.randint(-9, 9), rng.choice((1, 2, p + 1)))
                             for _ in range(rng.randint(1, 7))])
            phi = f.to_padic(ctx)
            for s in (0, 1, rng.randint(2, K), rng.randint(K + 1, 3 * K)):
                # (s)_k vanishes for k > s, so the series is this finite sum
                exact = sum(falling(s, k) * f.eval(-1 - k) for k in range(s + 1))
                got = l_value(phi, s, target=12)
                assert got.abs_precision >= 12
                assert congruent(got, ctx.number(exact), got.abs_precision)


def test_l_value_claim_at_an_imprecise_s():
    ctx = PadicContext(5, 20)
    phi = phi_fr(2, ctx)
    rng = random.Random(70)
    for N in (3, 9, 15):
        S = rng.randrange(5 ** N)
        got = l_value(phi, PadicNumber._make(ctx, 0, S, N))
        assert got.abs_precision <= N
        for _ in range(3):
            lift = S + 5 ** N * rng.randrange(5 ** 20)
            assert congruent(got, l_value(phi, lift), got.abs_precision)


def test_amice_to_mahler_small():
    ctx = PadicContext(5, 14)
    e = AmiceElem(ctx, {1: 1})  # x - 1
    m = e.to_mahler(4)
    assert congruent(m.eval(5), ctx.number(4), 12)
    assert congruent(m.coeff(0), ctx.number(-1), 12)
    assert congruent(m.coeff(1), ctx.one(), 12)
    one = AmiceElem(ctx, {0: 1}).to_mahler(3)
    assert congruent(one.eval(7), ctx.one(), 12)


def test_amice_derivation():
    ctx = PadicContext(3, 12)
    e = AmiceElem(ctx, {2: 5, 0: 9, -1: 1})
    de = e.d()
    assert de.support() == [-2, 1]
    assert congruent(de.coeffs[1], ctx.number(10), 10)
    assert congruent(de.coeffs[-2], ctx.number(-1), 10)


def test_amice_star_against_direct_sum():
    # (x-1) * phi at x equals sum_n a_n binom(x,n) (x - n - 1)
    rng = random.Random(69)
    ctx = PadicContext(3, 20)
    f = ExactMahler([rng.randint(-9, 9) for _ in range(5)])
    g = AmiceElem(ctx, {1: 1}).star(f.to_padic(ctx))
    for x in range(-4, 5):
        want = sum(f.coeff(n) * Fraction(x - n - 1) *
                   [1, x, x * (x - 1) // 2, x * (x - 1) * (x - 2) // 6,
                    x * (x - 1) * (x - 2) * (x - 3) // 24][n]
                   for n in range(5))
        assert congruent(g.eval(x), ctx.number(want), 14)


def test_parts_check_simple():
    ctx = PadicContext(3, 16)
    phi = ExactMahler([1, 2, 0, -1]).to_padic(ctx)
    psi = AmiceElem(ctx, {1: 1})
    assert parts_check(psi, phi, 2)
    psi2 = AmiceElem(ctx, {-1: 2, 0: 1, 2: -3})
    assert parts_check(psi2, phi, -1)


def test_parts_check_random():
    rng = random.Random(70)
    ctx = PadicContext(3, 16)
    for _ in range(8):
        phi = rand_fn(rng, ctx, support=rng.randint(2, 6))
        lo = rng.randint(-3, 1)
        width = rng.randint(1, 5)
        psi = AmiceElem(ctx, {n: rng.randint(-9, 9)
                              for n in range(lo, lo + width + 1)})
        if not psi.coeffs:
            psi = AmiceElem(ctx, {0: 1})
        x = rng.randint(-4, 4)
        assert parts_check(psi, phi, x)
