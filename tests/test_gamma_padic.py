import math
import random
from fractions import Fraction

import pytest

from incgamma import gamma_padic
from incgamma.gamma_padic import (CompatibilityError, GammaValue,
                                  PlaceExcludedError, Phi, Psi,
                                  compatible_cubic, f_r_series,
                                  fe_coefficients, functional_eq_check,
                                  gamma_p, phi_fr, phi_values_exact,
                                  poly_gexp, psi_tilde, require_unit)
from incgamma.exact import binom
from incgamma.mahler import Tail, from_gexp, gexp_length_for, gexp_tail_floor
from incgamma.padic import PadicContext, congruent, p_exp, principal_part
from incgamma.series import TruncSeries, gexp
from incgamma.transform import s_transform


def test_f_r_series_frozen():
    f = f_r_series(2, 2)
    assert f.coeffs == [0, 1, Fraction(1, 4)]
    assert f_r_series(1, 5).coeffs == [0, 1, 0, 0, 0, 0]


def test_f_r_derivative_is_binomial_power():
    # f_r'(t) = (1-t)^c = sum_k (-1)^k binom(c, k) t^k with c = 1/r - 1
    for r in (Fraction(2), Fraction(5, 3), Fraction(-2)):
        f = f_r_series(r, 9)
        c = 1 / r - 1
        assert f.derivative().coeffs == [(-1) ** k * binom(c, k) for k in range(9)]


def test_phi_values_exact_frozen():
    vals = phi_values_exact(2, 4)
    assert vals[0] == 1
    assert vals[1] == 1
    assert vals[2] == Fraction(3, 2)


def assert_matches_exact_gexp(fn, f, ctx):
    """fn's coefficients are p_exp(f(0)) n! [t^n] exp(f - f(0) - t) mod p^M,
    with the EGF computed in exact Q, and none claims more than M digits."""
    M = ctx.precision
    mod = ctx.p ** M
    g = TruncSeries([0, f.coeff(1) - 1] + f.coeffs[2:])
    e = gexp(g)
    head = p_exp(ctx.number(f.coeff(0))).residue(M) if f.coeff(0) else 1
    assert fn.length == f.order
    for n, c in enumerate(fn.coeffs):
        d = math.factorial(n) * e.coeff(n)
        want = d.numerator * pow(d.denominator, -1, mod) * head % mod
        assert c.abs_precision <= M
        assert c.residue(M) == want


def test_phi_fr_matches_from_gexp():
    cases = ((Fraction(2), 3), (Fraction(5, 3), 7), (Fraction(-2), 5),
             (Fraction(3), 2), (Fraction(1), 5), (Fraction(-1), 3))
    for r, p in cases:
        ctx = PadicContext(p, 12)
        f = f_r_series(r, 30)
        assert_matches_exact_gexp(phi_fr(r, ctx, length=30), f, ctx)
        assert_matches_exact_gexp(from_gexp(f, ctx), f, ctx)


def test_phi_fr_matches_shift_recurrence_values():
    for r, p in ((Fraction(2), 3), (Fraction(5, 3), 7), (Fraction(-2), 5)):
        ctx = PadicContext(p, 20)
        phi = phi_fr(r, ctx)
        vals = phi_values_exact(r, 8)
        for n in range(9):
            assert congruent(phi.eval(n), ctx.number(vals[n]), 18)


def test_phi_fr_r_one_is_constant():
    ctx = PadicContext(5, 12)
    phi = phi_fr(1, ctx, length=10)
    assert congruent(phi.coeff(0), ctx.one(), 12)
    for n in range(1, 11):
        assert phi.coeff(n).is_zero()


def refuse(*args):
    raise AssertionError("wrong route")


def test_phi_fr_routes_by_height(monkeypatch):
    """Small-height r takes the D-finite recurrence and large-height r the
    gexp kernel."""
    ctx = PadicContext(5, 10)
    L = gexp_length_for(5, 10)
    monkeypatch.setattr(gamma_padic, "_phi_dfinite", refuse)
    big = gamma_padic._phi_expansion.__wrapped__(Fraction(1234, 4567), ctx, L)
    assert big.length == L and big.tail == Tail(gexp_tail_floor(5, L), "gexp certificate")
    monkeypatch.undo()
    monkeypatch.setattr(gamma_padic, "_gexp_kernel", refuse)
    small = gamma_padic._phi_expansion.__wrapped__(Fraction(2), ctx, L)
    assert small.length == L and small.tail == big.tail


def test_phi_expansion_refuses_a_non_unit_on_either_route(monkeypatch):
    """r = 1/3 at p = 3 is routed to the D-finite recurrence, which would
    claim Tail(10, "gexp certificate") at length 59 though the exact d_60 is
    a unit; 1/12 is routed to the kernel.  Every non-unit r is refused
    before either route runs."""
    ctx = PadicContext(3, 10)
    monkeypatch.setattr(gamma_padic, "_phi_dfinite", refuse)
    monkeypatch.setattr(gamma_padic, "_gexp_kernel", refuse)
    assert gamma_padic._takes_dfinite(1, 3, 59)
    assert not gamma_padic._takes_dfinite(1, 12, 59)
    for r in (Fraction(1, 3), Fraction(1, 12), Fraction(3, 4)):
        with pytest.raises(PlaceExcludedError):
            gamma_padic._phi_expansion.__wrapped__(r, ctx, 59)
        with pytest.raises(PlaceExcludedError):
            phi_fr(r, ctx)


@pytest.mark.parametrize("r, p, prec, dfinite", [
    # the small-height r of the warm Psi benchmark keep the recurrence
    ("2", 3, 60, True), ("3", 2, 40, True), ("5/3", 7, 40, True),
    ("-2", 5, 40, True), ("3/2", 11, 30, True),
    # h = 207 is past L/3 = 120, where the kernel is faster
    ("41/42", 5, 40, False), ("1234/4567", 13, 60, False),
    # h = 287 and 297 lie either side of L/3 = 293 (L = 879)
    ("57/58", 11, 40, True), ("59/60", 11, 40, False),
    # f_(1/81) is a polynomial of degree 81: the kernel sums at most 81 terms
    # per index, though h = 165 is below L/3
    ("1/81", 11, 40, False)])
def test_phi_fr_route_at_the_default_length(r, p, prec, dfinite):
    r = Fraction(r)
    assert gamma_padic._takes_dfinite(r.numerator, r.denominator,
                                      gexp_length_for(p, prec)) == dfinite


def test_phi_fr_short_recurrence_keeps_the_certificate(monkeypatch):
    """At a length whose certificate falls short of the precision, the
    recurrence route claims the kernel's certificate and record."""
    ctx = PadicContext(3, 10)
    r = Fraction(2)
    kernel = from_gexp(f_r_series(r, 40), ctx)
    monkeypatch.setattr(gamma_padic, "_gexp_kernel", refuse)
    short = gamma_padic._phi_expansion.__wrapped__(r, ctx, 40)
    assert short.tail == kernel.tail == Tail(5, "gexp certificate")
    assert short._res == kernel._res


def test_phi_fr_certified_tail_default():
    ctx = PadicContext(3, 16)
    phi = phi_fr(2, ctx)
    assert phi.tail.note == "gexp certificate"
    assert phi.tail.exponent >= 16
    # tail_target only sizes the default length
    assert phi_fr(2, ctx, tail_target=8).length == gexp_length_for(3, 8)


def test_phi_fr_hands_out_copies():
    ctx = PadicContext(3, 10)
    before = Phi(2, 5, ctx)
    with pytest.raises(TypeError):
        phi_fr(2, ctx).coeffs[0] = ctx.number(7)
    assert phi_fr(2, ctx).coeffs[0] == ctx.one()
    assert Phi(2, 5, ctx) == before


def test_cached_values_reject_attribute_writes():
    # an attribute write on a cached coefficient used to turn this value
    # into 18864 + O(3^10)
    ctx = PadicContext(3, 10)
    L = 2 * gexp_length_for(3, 10)
    phi = phi_fr(2, ctx, length=L)
    with pytest.raises(AttributeError):
        phi.coeffs[0].unit = 2
    with pytest.raises(AttributeError):
        phi.tail = Tail.exact()
    val = Phi(2, 5, ctx, route="dirac")
    assert (val.lift(), val.abs_precision) == (18538, 10)


def test_context_rejects_attribute_writes():
    # a write of ctx.precision after phi_fr(2, ctx) used to turn the next
    # Phi(2, 5, PadicContext(3, 10)) into 70 + O(3^5)
    ctx = PadicContext(3, 10)
    phi_fr(2, ctx)
    with pytest.raises(AttributeError):
        ctx.precision = 5
    with pytest.raises(AttributeError):
        ctx.p = 5
    assert ctx == PadicContext(3, 10)
    val = Phi(2, 5, PadicContext(3, 10))  # (5 + 1)/2 - 1 = 2: psi_tilde(11)
    assert val.abs_precision == 10
    assert congruent(val, ctx.number(psi_tilde(2, 11)), 10)


def test_caches_stay_bounded():
    ctx = PadicContext(5, 4)
    caches = (gamma_padic._phi_expansion, gamma_padic._twist_and_lvalues)
    rs = [Fraction(5 * a + 1, 7) for a in range(200)]
    assert all(len(rs) > cache.cache_info().maxsize for cache in caches)
    first = Phi(rs[0], 3, ctx)
    for r in rs:
        Phi(r, 3, ctx)
        phi_fr(r, ctx, length=20)
        for cache in caches:
            info = cache.cache_info()
            assert info.currsize <= info.maxsize
    assert Phi(rs[0], 3, ctx) == first  # evicted, then rebuilt alike
    Psi(rs[0], 3, ctx)
    before = gamma_padic._twist_and_lvalues.cache_info()
    Psi(rs[0], 3, ctx)
    after = gamma_padic._twist_and_lvalues.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_dirac_route_psi_leaves_the_lvalue_cache_alone():
    # the dirac route used to build phi_fr's default expansion and its
    # L-values only to read <r> from this cache
    gamma_padic._twist_and_lvalues.cache_clear()
    ctx = PadicContext(7, 12)
    val = Psi(Fraction(11, 3), 4, ctx, route="dirac")
    assert gamma_padic._twist_and_lvalues.cache_info().misses == 0
    assert (val.lift(), val.abs_precision) == (3930242696, 12)
    assert val == Psi(Fraction(11, 3), 4, ctx)


def test_sigma_shift_relation():
    # sigma phi_r = S^{1/r - 1} phi_r
    ctx = PadicContext(3, 20)
    phi = phi_fr(2, ctx)
    lhs = phi.shift()
    rhs = s_transform(phi, Fraction(-1, 2), length=phi.length)
    for x in range(5):
        assert congruent(lhs.eval(x), rhs.eval(x), 12)


def test_psi_tilde_frozen():
    assert [psi_tilde(2, m) for m in range(4)] == \
        [1, Fraction(3, 2), Fraction(5, 2), Fraction(19, 4)]
    assert [psi_tilde(1, m) for m in range(5)] == [1, 2, 5, 16, 65]


def test_psi_tilde_closed_form():
    rng = random.Random(81)
    for _ in range(20):
        r = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        m = rng.randint(0, 12)
        # (m!/r^m) sum_{k<=m} r^k/k!
        closed = math.factorial(m) / r ** m * sum(r ** k / math.factorial(k)
                                                  for k in range(m + 1))
        assert psi_tilde(r, m) == closed


def test_psi_tilde_guards():
    with pytest.raises(ValueError):
        psi_tilde(0, 3)
    with pytest.raises(ValueError):
        psi_tilde(2, -1)


def test_interpolation_direct():
    # Phi((m+1)/r - 1) = psi_tilde(m)
    for r, p in ((Fraction(2), 3), (Fraction(-2), 5)):
        ctx = PadicContext(p, 24)
        for m in range(9):
            s = Fraction(m + 1) / r - 1
            got = Phi(r, s, ctx, target=20)
            assert congruent(got, ctx.number(psi_tilde(r, m)), 18)


def test_phi_at_r_one_gives_factorial_sums():
    ctx = PadicContext(5, 20)
    for m, want in enumerate([1, 2, 5, 16, 65]):
        assert congruent(Phi(1, m, ctx, target=16), ctx.number(want), 14)


def test_psi_frozen_mod_nine():
    ctx = PadicContext(3, 20)
    assert congruent(Psi(2, 2, ctx, target=16), ctx.number(10), 2)


def test_psi_twisted_interpolation():
    ctx = PadicContext(3, 24)
    pr = principal_part(ctx.number(2))
    for m in range(7):
        want = pr ** m * ctx.number(psi_tilde(2, m))
        assert congruent(Psi(2, m, ctx, target=20), want, 18)


def test_psi_untwisted_on_multiples_of_p_minus_one():
    # <r>^m = r^m when (p-1) | m
    ctx = PadicContext(3, 24)
    for m in (0, 2, 4, 6):
        want = ctx.number(Fraction(2) ** m * psi_tilde(2, m))
        assert congruent(Psi(2, m, ctx, target=20), want, 18)


def test_phi_is_continuous_in_s():
    ctx = PadicContext(3, 24)
    a = Phi(2, 4, ctx, target=20)
    b = Phi(2, 4 + 3 ** 8, ctx, target=20)
    assert congruent(a, b, 8)
    assert not congruent(a, b, 20)


def test_phi_dirac_route_agrees():
    ctx = PadicContext(3, 16)
    for s in (Fraction(1, 2), 3, Fraction(-5, 2)):
        a = Phi(2, s, ctx, target=12)
        b = Phi(2, s, ctx, target=12, route="dirac")
        assert congruent(a, b, 10)
    with pytest.raises(ValueError):
        Phi(2, 1, ctx, route="nope")


def test_place_exclusion():
    ctx = PadicContext(3, 12)
    with pytest.raises(PlaceExcludedError):
        phi_fr(3, ctx)
    with pytest.raises(PlaceExcludedError):
        Phi(Fraction(1, 3), 1, ctx)
    with pytest.raises(PlaceExcludedError):
        gamma_p(6, 2, ctx)
    assert require_unit(Fraction(5, 3), 7) == Fraction(5, 3)
    with pytest.raises(ValueError):
        require_unit(0, 5)


def test_gamma_value():
    ctx = PadicContext(5, 20)
    g = gamma_p(Fraction(-2), 3, ctx, target=16)
    assert isinstance(g, GammaValue)
    assert g.exp_arg == 2
    assert congruent(g.value, Psi(-2, 2, ctx, target=16), 14)
    assert "E(2)" in repr(g)


def test_gamma_dual_route():
    ctx = PadicContext(3, 16)
    a = gamma_p(2, 3, ctx, target=12)
    b = gamma_p(2, 3, ctx, target=12, route="dirac")
    assert congruent(a.value, b.value, 10)


def test_poly_gexp_matches_from_gexp():
    ctx = PadicContext(5, 18)
    coeffs = [1, Fraction(1, 2), Fraction(1, 3)]
    a = poly_gexp(coeffs, ctx, length=30)
    f = TruncSeries([Fraction(0)] + [Fraction(c) for c in coeffs] +
                    [Fraction(0)] * 27)
    b = from_gexp(f, ctx)
    assert_matches_exact_gexp(a, f, ctx)
    assert_matches_exact_gexp(b, f, ctx)


def test_from_gexp_constant_term_matches_exact_gexp():
    # f(0) = 3 at p = 3: the coefficients carry the head p_exp(3)
    ctx = PadicContext(3, 14)
    f = TruncSeries([3, 4, Fraction(1, 2), Fraction(-2, 5)], order=30)
    phi = from_gexp(f, ctx)
    assert_matches_exact_gexp(phi, f, ctx)
    assert not congruent(phi.coeff(0), ctx.one(), 2)


def test_poly_gexp_compatibility_errors():
    ctx = PadicContext(5, 12)
    with pytest.raises(CompatibilityError):
        poly_gexp([], ctx)
    with pytest.raises(CompatibilityError):
        poly_gexp([2], ctx)  # f'(0) not principal
    with pytest.raises(CompatibilityError):
        poly_gexp([1, Fraction(1, 5)], ctx)  # not p-integral


def test_fe_coefficients_of_compatible_cubic():
    a, b, c = Fraction(3), Fraction(-2), Fraction(6)
    g = compatible_cubic(a, b, c)
    assert g == [7, -5, 2]
    assert fe_coefficients(g) == [a, -b, c]
    assert fe_coefficients([1]) == [1]


def test_functional_eq_linear_weight():
    # f = t: the equation collapses to the psi_tilde recurrence at r = 1
    ctx = PadicContext(5, 18)
    for s in (3, Fraction(1, 2), -4):
        assert functional_eq_check([1], s, ctx, target=14)


def test_functional_eq_random_cubics():
    rng = random.Random(82)
    for p in (5, 7):
        ctx = PadicContext(p, 18)
        for _ in range(3):
            b = rng.randint(-9, 9)
            c = rng.randint(-9, 9) or 3
            a = 1 - b - c + p * rng.randint(-3, 3)
            g = compatible_cubic(a, b, c)
            s = rng.randint(-6, 6)
            assert functional_eq_check(g, s, ctx, target=14)
