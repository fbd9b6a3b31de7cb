import math
import random
import time
from fractions import Fraction

import pytest

from incgamma.exact import INF, binom, digit_count, vp_factorial
from incgamma.mahler import (
    ExactMahler,
    MahlerFn,
    Tail,
    _factorial_units,
    convolve,
    from_gexp,
    gexp_length_for,
    gexp_tail_floor,
)
from incgamma.padic import PadicContext, PadicNumber, congruent
from incgamma.series import TruncSeries, gexp


def rand_exact(rng, support=6, denoms=(1, 2, 3)):
    return ExactMahler([Fraction(rng.randint(-9, 9), rng.choice(denoms))
                        for _ in range(support)])


# -- exact lane ------------------------------------------------------------

def test_exact_eval_binomial_basis():
    # phi = binom(x, 2) alone
    phi = ExactMahler([0, 0, 1])
    assert phi.eval(5) == 10
    assert phi.eval(Fraction(1, 2)) == Fraction(-1, 8)


def test_exact_eval_one_minus_x():
    phi = ExactMahler([1, -1])
    for x in (0, 1, 5, Fraction(-7, 3)):
        assert phi.eval(x) == 1 - Fraction(x)


def test_exact_shift_and_nabla():
    phi = ExactMahler([1, -1])  # 1 - x
    assert phi.shift().coeffs == [0, -1]  # -x
    assert phi.nabla().coeffs == [-1]
    rng = random.Random(21)
    for _ in range(30):
        f = rand_exact(rng)
        x = rng.randint(-10, 10)
        assert f.shift().eval(x) == f.eval(x + 1)
        assert f.nabla().eval(x) == f.eval(x + 1) - f.eval(x)


def test_exact_convolve_one_minus_x_squared():
    a = ExactMahler([1, -1])
    assert a.convolve(a).coeffs == [1, -2, 2]


def test_exact_convolve_with_one_is_identity():
    rng = random.Random(22)
    for _ in range(20):
        f = rand_exact(rng)
        assert ExactMahler([1]).convolve(f) == f


def test_prodcorr_is_convolution_algebra_map():
    rng = random.Random(23)
    for _ in range(15):
        a, b = rand_exact(rng, 8), rand_exact(rng, 8)
        lhs = a.convolve(b).prodcorr(30)
        rhs = a.prodcorr(30) * b.prodcorr(30)
        assert lhs == rhs


def test_actcorr_module_rule():
    rng = random.Random(24)
    for _ in range(15):
        a, b = rand_exact(rng, 8), rand_exact(rng, 8)
        lhs = a.convolve(b).actcorr(30)
        rhs = a.prodcorr(30) * b.actcorr(30)
        assert lhs == rhs


def test_actcorr_shift_is_derivative():
    rng = random.Random(25)
    for _ in range(15):
        a = rand_exact(rng, 8)
        assert a.shift().actcorr(29) == a.actcorr(30).derivative()


def test_actcorr_equals_exp_times_prodcorr():
    rng = random.Random(26)
    expt = TruncSeries([Fraction(1, math.factorial(n)) for n in range(31)])
    for _ in range(10):
        a = rand_exact(rng, 8)
        assert a.actcorr(30) == expt * a.prodcorr(30)


def test_exact_roundtrip_from_prodcorr():
    rng = random.Random(27)
    for _ in range(10):
        a = rand_exact(rng, 9)
        series = a.prodcorr(8)
        back = ExactMahler([c * math.factorial(n) for n, c in enumerate(series.coeffs)])
        assert back == a


# -- p-adic lane -----------------------------------------------------------

def test_one_fn_and_sup_norm():
    ctx = PadicContext(5, 12)
    u = MahlerFn(ctx, [1], Tail.exact())
    assert u.eval(17).lift() % 5 ** 12 == 1
    # ||phi|| = p^-min_valuation
    assert u.min_valuation() == 0
    assert u.scale(5).min_valuation() == 1
    assert u.scale(0).min_valuation() == INF


def test_eval_precision_claim_uses_tail():
    ctx = PadicContext(3, 20)
    phi = MahlerFn(ctx, [1, 1, 1], Tail(7, "test"))
    v = phi.eval(5)
    assert v.abs_precision == 7


def test_eval_rejects_points_outside_zp():
    ctx = PadicContext(3, 10)
    phi = MahlerFn(ctx, [1], Tail.exact())
    with pytest.raises(ValueError):
        phi.eval(Fraction(1, 3))
    phi.eval(Fraction(1, 2))  # fine: 2 is a 3-adic unit


def test_eval_rational_point_matches_exact():
    ctx = PadicContext(7, 15)
    rng = random.Random(31)
    # 1/7 and 1/49 give coefficients of negative valuation (shift below 0)
    for denoms in ((1, 2, 3), (1, 7, 49)):
        for _ in range(10):
            f = rand_exact(rng, denoms=denoms)
            x = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 5]))
            pf = f.to_padic(ctx)
            got = pf.eval(x)
            assert congruent(got, ctx.number(f.eval(x)), 13)
            assert congruent(got, ctx.number(f.eval(x), abs_prec=30), got.abs_precision)
            # no claim above a PadicNumber sum that keeps each term's claim
            per_term = sum((c * binom(x, n) for n, c in enumerate(pf.coeffs)), ctx.zero())
            assert got.abs_precision <= per_term.abs_precision


def test_eval_padic_point_matches_integer_lift():
    ctx = PadicContext(5, 10)
    rng = random.Random(32)
    for _ in range(10):
        f = rand_exact(rng, denoms=(1, 2, 3))
        n = rng.randrange(0, 5 ** 10)
        got = f.to_padic(ctx).eval(ctx.number(n))
        assert congruent(got, ctx.number(f.eval(n)), 9)


def test_eval_at_point_more_precise_than_coefficients():
    # binom(3^10, 3) = 3^9 mod 3^10: the point must not be cut to 10 digits
    ctx = PadicContext(3, 10)
    phi = MahlerFn(ctx, [0, 0, 0, 1], Tail.exact())
    x = PadicNumber._make(ctx, 0, 3 ** 10, 20)
    got = phi.eval(x)
    assert got.valuation == 9
    assert congruent(got, ctx.number(math.comb(3 ** 10, 3)), got.abs_precision)


def test_eval_at_imprecise_point_does_not_overclaim():
    # binom(x, 3) at x = O(3^5): the lift 3^5 gives binom(243, 3) of valuation 4
    ctx = PadicContext(3, 10)
    phi = MahlerFn(ctx, [0, 0, 0, 1], Tail.exact())
    got = phi.eval(PadicNumber(ctx, 5, 0, 5))
    assert got.abs_precision <= 4
    assert congruent(got, ctx.number(math.comb(243, 3)), got.abs_precision)


def test_eval_at_imprecise_point_agrees_with_every_lift():
    ctx = PadicContext(3, 12)
    rng = random.Random(34)
    for _ in range(20):
        f = rand_exact(rng, support=rng.randint(2, 12), denoms=(1, 2, 3))
        N = rng.randint(2, 6)
        X = rng.randrange(3 ** N)
        got = f.to_padic(ctx).eval(PadicNumber._make(ctx, 0, X, N))
        for t in range(4):
            lift = X + 3 ** N * rng.randrange(3 ** 6)
            assert congruent(got, ctx.number(f.eval(lift)), got.abs_precision)


def test_eval_at_imprecise_point_sees_the_tail():
    # X = 2 lies inside the stored range, but other lifts reach the tail
    ctx = PadicContext(3, 10)
    phi = MahlerFn(ctx, [1, 1, 1], Tail(4, "test"))
    assert phi.eval(PadicNumber._make(ctx, 0, 2, 8)).abs_precision <= 4
    assert phi.eval(2).abs_precision == 10


def test_padic_shift_matches_exact():
    ctx = PadicContext(3, 14)
    rng = random.Random(33)
    for _ in range(10):
        f = rand_exact(rng)
        pf = f.to_padic(ctx)
        for x in range(-3, 4):
            assert congruent(pf.shift().eval(x), ctx.number(f.shift().eval(x)), 12)


def test_padic_convolve_matches_exact():
    ctx = PadicContext(5, 14)
    rng = random.Random(34)
    # 1/5 and 1/25 give coefficients of negative valuation (shift below 0)
    for denoms in ((1, 2, 3), (1, 5, 25)):
        for _ in range(10):
            a, b = rand_exact(rng, 5, denoms), rand_exact(rng, 7, denoms)
            c = a.convolve(b)
            pa, pb = a.to_padic(ctx), b.to_padic(ctx)
            pc = convolve(pa, pb)
            assert pc.length == c.length
            for n in range(c.length + 1):
                got = pc.coeff(n)
                assert congruent(got, ctx.number(c.coeff(n)), 12)
                assert congruent(got, ctx.number(c.coeff(n), abs_prec=30),
                                 got.abs_precision)
                per_term = sum((math.comb(n, k) * pa.coeff(k) * pb.coeff(n - k)
                                for k in range(n + 1)), ctx.zero())
                assert got.abs_precision <= per_term.abs_precision


def test_convolve_norm_submultiplicative():
    rng = random.Random(35)
    ctx = PadicContext(3, 16)
    for _ in range(15):
        a = rand_exact(rng, 6, denoms=(1,))
        b = rand_exact(rng, 6, denoms=(1,))
        pa, pb, pc = a.to_padic(ctx), b.to_padic(ctx), a.convolve(b).to_padic(ctx)
        assert pc.min_valuation() >= pa.min_valuation() + pb.min_valuation()


@pytest.mark.parametrize("p, k, va, j, vb, M", [
    (3, 3, 1, 6, 2, 5),    # A = B = 0, nu(9) = 4 = e - 1
    (2, 2, 1, 2, 1, 4),    # A = B = 0, nu(4) = 3 = e - 1
    (5, 5, -1, 5, 1, 2),   # shift -1: A = -1, B = 0, nu(10) - 1 = 1 = e - 1
])
def test_convolve_keeps_the_first_index_a_cut_one_digit_early_would_drop(p, k, va, j, vb, M):
    """One-term factors a_k and b_j: c_n, n = k + j, is their single product,
    of residue valuation nu(n) + A + B = e - 1 exactly, and n is the first
    index with nu(n) >= e - 1 - (A + B).  The cut keeps it; a cut one digit
    early would report 0."""
    ctx = PadicContext(p, M)
    ak, bj = Fraction(p) ** va * (p - 1), Fraction(p) ** vb * (p + 1)
    a = MahlerFn(ctx, [0] * k + [ctx.number(ak, abs_prec=M)], Tail.exact())
    b = MahlerFn(ctx, [0] * j + [ctx.number(bj, abs_prec=M)], Tail.exact())
    n = k + j
    assert vp_factorial(n - 1, p) < vp_factorial(n, p)
    want = math.comb(n, k) * ak * bj
    for c in (convolve(a, b), convolve(b, a)):
        assert c.length == n
        # residues in units of p^(sa + sb), known mod p^e, e = M - max(sa, sb)
        sa, sb = min(0, va), min(0, vb)
        assert c.coeffs[n].valuation - (sa + sb) == M - max(sa, sb) - 1
        assert congruent(c.coeffs[n], ctx.number(want))
        assert all(not r for r in c._res.res[:n])


def test_shift_with_finite_tail_caps_last_coefficient():
    ctx = PadicContext(3, 20)
    phi = MahlerFn(ctx, [1, 1, 1], Tail(9, "test"))
    s = phi.shift()
    assert s.length == 2
    assert s.coeffs[2].abs_precision == 9
    assert s.tail.exponent == 9


def test_convolve_tail_pairing():
    ctx = PadicContext(3, 20)
    # both factors unit-normed with finite tails
    a = MahlerFn(ctx, [1] * 13, Tail(11, "test"))
    b = MahlerFn(ctx, [1] * 13, Tail(14, "test"))
    c = convolve(a, b)
    assert c.length == 12
    assert c.tail.note == "convolution"
    # beyond index 12 one factor index exceeds 6, where both are unit-sized
    assert c.tail.exponent == 0


# -- gexp inversion --------------------------------------------------------

def test_from_gexp_linear_gives_geometric_values():
    ctx = PadicContext(5, 12)
    f = TruncSeries([0, 6], order=40)
    phi = from_gexp(f, ctx)
    for n in (0, 1, 2, 7, 11):
        assert congruent(phi.eval(n), ctx.number(6 ** n), 11)
    # Mahler coefficients are the EGF coefficients of exp(5t): 5^n
    for n in (0, 1, 2, 5):
        assert congruent(phi.coeff(n), ctx.number(5 ** n), 11)


def test_from_gexp_matches_gexp_values():
    # actcorr(phi) = gexp(f): phi(n) = n! [t^n] gexp(f)
    ctx = PadicContext(3, 16)
    rng = random.Random(41)
    for _ in range(8):
        coeffs = [Fraction(0), 1 + 3 * rng.randint(0, 5)]
        coeffs += [Fraction(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(10)]
        f = TruncSeries(coeffs)
        e = gexp(f)
        phi = from_gexp(f, ctx)
        for n in range(11):
            want = math.factorial(n) * e.coeff(n)
            assert congruent(phi.eval(n), ctx.number(want), 10)


def test_from_gexp_certified_tail():
    ctx = PadicContext(3, 10)
    K = gexp_length_for(3, 10)
    f = TruncSeries([0, 1, Fraction(1, 4)], order=K)
    phi = from_gexp(f, ctx)
    assert phi.tail == Tail(gexp_tail_floor(3, K), "gexp certificate")
    assert phi.tail.exponent >= 10
    # the certificate undersells the truth: stored coefficients obey it too
    floor_here = gexp_tail_floor(3, phi.length // 2)
    for n in range(phi.length // 2 + 1, phi.length + 1):
        v = phi.coeffs[n].valuation
        if not phi.coeffs[n].is_exact_zero():
            assert v >= gexp_tail_floor(3, n - 1)


def test_from_gexp_domain_checks():
    ctx = PadicContext(5, 10)
    with pytest.raises(ValueError):
        from_gexp(TruncSeries([0, 2, 1]), ctx)  # f'(0) not principal
    with pytest.raises(ValueError):
        from_gexp(TruncSeries([1, 1]), ctx)  # f(0) outside exp disc
    with pytest.raises(ValueError):
        from_gexp(TruncSeries([0, 1, Fraction(1, 5)]), ctx)  # not p-integral


def test_gexp_length_for_reaches_target():
    for p in (2, 3, 5, 7):
        for target in (5, 12, 30):
            K = gexp_length_for(p, target)
            assert gexp_tail_floor(p, K) >= target
            assert gexp_tail_floor(p, K - 1) < target


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_gexp_tail_floor_is_monotone(p):
    # a longer expansion never claims a weaker tail (at p = 3 the bound at
    # K + 1 alone reads 2 at K = 25 but 1 at K = 26)
    floors = [gexp_tail_floor(p, K) for K in range(400)]
    assert floors == sorted(floors)
    # the default lengths are those of the bound at K + 1 alone
    for target in range(1, 100):
        K = max(8, 2 * (p - 1) * target)
        while (K + 1) // (2 * (p - 1)) - digit_count(K + 1, p) - 1 < target:
            K += 1
        assert gexp_length_for(p, target) == K



def linear_length_for(p: int, target: int) -> int:
    """gexp_length_for as a plain search: K steps by one from its start."""
    K = max(8, 2 * (p - 1) * target)
    while gexp_tail_floor(p, K) < target:
        K += 1
    return K


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_gexp_length_for_is_the_linear_search(p):
    assert [gexp_length_for(p, t) for t in range(201)] == [
        linear_length_for(p, t) for t in range(201)]


def test_gexp_length_for_is_fast_at_a_large_p():
    # the linear search takes about 2(p-1)(c+1) steps here, seconds
    start = time.perf_counter()
    K = gexp_length_for(1000003, 28)
    assert time.perf_counter() - start < 0.01
    assert gexp_tail_floor(1000003, K) >= 28 > gexp_tail_floor(1000003, K - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_factorial_units_split_the_factorials(p):
    for top, e in ((0, 3), (1, 1), (40, 0), (90, 7), (200, 25)):
        nu, u, iu = _factorial_units(p, top, e)
        mod = p ** e
        assert len(nu) == len(u) == len(iu) == top + 1
        for j in range(top + 1):
            assert nu[j] == vp_factorial(j, p)
            assert (u[j] - math.factorial(j) // p ** nu[j]) % mod == 0
            assert (u[j] * iu[j] - 1) % mod == 0
