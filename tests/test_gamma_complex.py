import math
import random
from fractions import Fraction

import mpmath
import pytest
from scipy.special import gamma as sp_gamma, gammainc, gammaincc

from incgamma import gamma_complex
from incgamma.gamma_complex import (EPSABS, _cut, _panel, gammahat, gfn, lgfn,
                                    mellin_fe_residual, mellin_phi, psi_complex, quad,
                                    upper_gamma)
from incgamma.gamma_padic import compatible_cubic, psi_tilde


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


def test_gfn_at_zero_is_one():
    for r in (0.5, 1.0, 2.0, 3.0):
        assert abs(gfn(0, r) - 1.0) <= 1e-10


def test_gfn_frozen_factorial_sums():
    for m, want in enumerate([1, 2, 5, 16, 65]):
        assert rel_err(gfn(m, 1.0), want) <= 1e-9


def test_gfn_interpolates_psi_tilde():
    for r in (Fraction(1, 2), Fraction(2), Fraction(3)):
        for m in range(9):
            want = float(r ** m * psi_tilde(r, m))
            assert rel_err(gfn(m, float(r)), want) <= 1e-9


def test_gfn_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        gfn(1, -2.0)


def test_upper_gamma_frozen():
    assert abs(upper_gamma(1, 1.0) - math.exp(-1)) <= 1e-10


def test_upper_gamma_against_scipy():
    rng = random.Random(91)
    for _ in range(10):
        s = 0.5 + 3.5 * rng.random()
        x = 0.3 + 4.7 * rng.random()
        want = float(gammaincc(s, x) * sp_gamma(s))
        assert rel_err(upper_gamma(s, x), want) <= 1e-8


def test_lgfn_frozen():
    assert abs(lgfn(0, -1.0) - (math.exp(-1) - 1.0)) <= 1e-10
    assert abs(lgfn(1, -1.0) - math.exp(-1)) <= 1e-10


def test_lower_gamma_frozen():
    # gamma(1, -1) = e lgfn(0, -1) = 1 - e
    assert abs(math.e * lgfn(0, -1.0) - (1.0 - math.e)) <= 1e-10


def test_lower_gamma_against_scipy():
    # s in (0, 1) exercises the substitution branch of lgfn
    rng = random.Random(92)
    for _ in range(10):
        s = 0.1 + 0.8 * rng.random()
        x = 0.2 + 3.0 * rng.random()
        # gamma(s, x) = e^{-x} lgfn(s - 1, x)
        want = float(gammainc(s, x) * sp_gamma(s))
        assert rel_err(math.exp(-x) * lgfn(s - 1, x), want) <= 1e-8


def test_lgfn_domain():
    with pytest.raises(ValueError):
        lgfn(-1.5, -1.0)
    with pytest.raises(ValueError):
        lgfn(complex(-0.5, 1.0), -1.0)
    with pytest.raises(ValueError):
        lgfn(1, 0.0)


def test_gammahat_exact_factorials():
    for m in range(13):
        assert gammahat(m + 1) == float(math.factorial(m))
    assert rel_err(gammahat(0.5), math.sqrt(math.pi)) <= 1e-12


def test_psi_complex_negative_r():
    assert abs(psi_complex(-1.0, 0) - 1.0) <= 1e-10
    for r in (Fraction(-1), Fraction(-1, 2)):
        for m in range(8):
            want = float(r ** m * psi_tilde(r, m))
            assert abs(psi_complex(float(r), m) - want) <= 1e-8 * max(1.0, abs(want))


def test_psi_complex_far_below_zero():
    # quad on [0, 1] used to miss the e^{rx} spike of width 1/|r| at x = 0,
    # so these values came back 100% wrong (0.0 at r = -1e6)
    for r in (Fraction(-30000), Fraction(-100000), Fraction(-1000000)):
        for m in (0, 1, 3, 10, 30):
            want = float(r ** m * psi_tilde(r, m))
            assert rel_err(psi_complex(float(r), m), want) <= 1e-8, (r, m)


def test_gfn_far_above_zero():
    # from r near 1.5e5 on, every node of quad's first panel next to x = 0
    # misses the e^{rx} spike of width 1/r there unless gfn's endpoint
    # breakpoint splits it off; the exact rationals need no mpmath
    for e in range(33):
        r = Fraction(10 ** (e / 4))
        for m in (0, 2, 7, 20):
            want = float(r ** m * psi_tilde(r, m))
            assert rel_err(gfn(m, float(r)), want) <= 1e-8, (r, m)


def test_mellin_phi_steep_linear_weight():
    # the same spike for f = c x, whose Phi(2) is (c^2 + 2c + 2) / c^3: a
    # value below 1, so the error is taken relative to it
    for e in range(33):
        c = 10 ** (e / 4)
        want = (c * c + 2 * c + 2) / c ** 3
        assert abs(mellin_phi([c], 2.0) - want) <= 1e-8 * want, c


@pytest.mark.parametrize("g1", [100, 1000])
def test_mellin_phi_spike_of_a_cubic_against_mpmath(g1):
    # f = g1 x + x^3 puts a spike of width 1/g1 at x = 0 on a contour that
    # reaches far below it; the nodes of quad's first panel there step over
    # it unless _spike splits it off, already at slopes well below 4000
    for s in (0.0, 1.5):
        with mpmath.workdps(30):
            def h(x):
                return (1 - x) ** s * mpmath.exp(g1 * x + x ** 3)
            cuts = [-mpmath.mpf(10) ** -j for j in range(-1, 6)]
            want = float(mpmath.quad(h, [-mpmath.inf, *cuts, 0]))
        assert abs(mellin_phi([g1, 0, 1], s) - want) <= 1e-10 * want, (g1, s)


def test_mellin_fe_residual_reads_a_scale_error_in_phi(monkeypatch):
    # at s = 0 the left side is 1 and the Phi terms of this cubic are near 1,
    # so a relative error of 1e-6 in every Phi value leaves a residual of
    # about 1e-6: the scale max(1, |lhs|, |rhs|) is about 1, not larger
    g = compatible_cubic(-1, 1, 1)
    assert mellin_fe_residual(g, 0.0) <= 1e-12
    exact = gamma_complex.mellin_phi
    monkeypatch.setattr(gamma_complex, "mellin_phi",
                        lambda coeffs, s: exact(coeffs, s) * (1 + 1e-6))
    assert mellin_fe_residual(g, 0.0) >= 5e-7


def test_lgfn_far_below_zero_against_mpmath():
    # the same spike in both branches of lgfn, s >= 0 and the u-substitution
    with mpmath.workdps(30):
        for s in (0, 2.5, -0.5, -0.9, complex(1.0, 3.0)):
            for r in (-1e4, -1e6):
                a = mpmath.mpmathify(s) + 1
                lower = mpmath.power(r, a) / a * mpmath.hyp1f1(a, a + 1, -r)
                want = complex(mpmath.exp(r) * lower)
                assert abs(lgfn(s, r) - want) <= 1e-8 * abs(want), (s, r)


def test_psi_complex_positive_matches_gfn():
    for r in (0.5, 2.0):
        for m in range(6):
            assert abs(psi_complex(r, m) - gfn(m, r)) <= 1e-12


def test_psi_complex_reaches_double_range():
    # m >= 98 at r = 1/2 overflowed before the integrand ran in log scale
    for r in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
        for m in range(91, 171):
            want = float(r ** m * psi_tilde(r, m))
            assert rel_err(psi_complex(float(r), m), want) <= 1e-8


def test_beyond_double_range_raises():
    for r in (0.5, 3.0, -1.0):
        with pytest.raises(OverflowError):
            psi_complex(r, 171)
    with pytest.raises(OverflowError):
        gfn(complex(400.0, 1.0), 2.0)


def test_gfn_complex_against_mpmath():
    # gfn(s, r) = e^r Gamma(s+1, r)
    rng = random.Random(94)
    with mpmath.workdps(30):
        for _ in range(12):
            s = complex(rng.uniform(-0.9, 5.0), rng.uniform(-30.0, 30.0))
            r = rng.choice((0.5, 1.0, 2.0, 3.0))
            want = complex(mpmath.exp(r) * mpmath.gammainc(s + 1, r))
            assert abs(gfn(s, r) - want) <= 1e-8 * abs(want)


def test_lgfn_negative_r_against_mpmath():
    # lgfn(s, r) = e^r gamma(s+1, r), with the principal r^{s+1} at r < 0.
    # mpmath's gammainc(a, 0, r) recurses without end at r < 0 for larger
    # a, so the lower gamma comes from its form r^a/a 1F1(a; a+1; -r).
    rng = random.Random(95)
    with mpmath.workdps(30):
        for s in [0, 3, 12, 2.5, -0.5, -0.3] + [
                complex(rng.uniform(0.0, 4.0), rng.uniform(-5.0, 5.0)) for _ in range(4)]:
            r = rng.choice((-0.5, -1.0, -2.0, -3.0))
            a = mpmath.mpmathify(s) + 1
            lower = mpmath.power(r, a) / a * mpmath.hyp1f1(a, a + 1, -r)
            want = complex(mpmath.exp(r) * lower)
            assert abs(lgfn(s, r) - want) <= 1e-10 * abs(want)


def test_cut_bounds_the_tail():
    # the cut keeps (2/lam) t^a e^{-lam t} below the target, within a
    # factor e of it once the start point is not already below
    rng = random.Random(96)
    for _ in range(200):
        a, lam = rng.uniform(-2.0, 300.0), rng.uniform(0.05, 40.0)
        t0, log_tol = rng.uniform(1.0, 50.0), rng.uniform(-60.0, 0.0)
        t = _cut(a, lam, t0, log_tol)
        a = max(a, 0.0)
        start = max(t0, 2.0 * a / lam)
        g = math.log(2.0 / lam) + a * math.log(t) - lam * t - log_tol
        assert t >= start and g <= 0
        assert g > -1 or t == start


def test_psi_complex_guards():
    with pytest.raises(ValueError):
        psi_complex(0.0, 1)
    with pytest.raises(ValueError):
        psi_complex(1.0, -2)


def recurrence_residual(s, r):
    """Relative residual of the contiguous relations
    gfn(s+1, r) - (s+1) gfn(s, r) = r^{s+1}          (r > 0)
    lgfn(s+1, r) - (s+1) lgfn(s, r) = -r^{s+1}       (r < 0)."""
    fn, sign = (gfn, 1) if r > 0 else (lgfn, -1)
    hi, lo = fn(s + 1, r), fn(s, r)
    res = hi - (s + 1) * lo - sign * complex(r) ** (s + 1)
    return abs(res) / max(1.0, abs(hi), abs(lo))


def test_recurrence_residuals():
    for s, r in ((0.3, 0.5), (2.5, 3.0), (0.0, 1.0)):
        assert recurrence_residual(s, r) <= 1e-9
    for s, r in ((0.2, -1.0), (1.5, -0.5)):
        assert recurrence_residual(s, r) <= 1e-9


def test_recurrence_complex_s():
    assert recurrence_residual(complex(1.0, 2.0), 2.0) <= 1e-9
    assert recurrence_residual(complex(0.5, -1.0), -1.0) <= 1e-9


def test_gfn_complex_matches_real_on_axis():
    a = gfn(complex(1.5, 0.7), 2.0)
    assert isinstance(a, complex)
    b = gfn(1.5, 2.0)
    assert abs(gfn(complex(1.5, 0.0), 2.0) - b) <= 1e-10


def test_mellin_phi_linear_weight_is_gfn():
    for s in (0.0, 1.0, 2.5):
        assert abs(mellin_phi([1], s) - gfn(s, 1.0)) <= 1e-9


def test_mellin_phi_rejects_growth():
    with pytest.raises(ValueError):
        mellin_phi([1, 1], 0.0)
    with pytest.raises(ValueError):
        mellin_phi([1, 0, -1], 0.0)


def test_mellin_fe_residual_random_cubics():
    rng = random.Random(93)
    for _ in range(6):
        b = rng.randint(-4, 4)
        c = rng.randint(1, 4)
        a = 1 - b - c + 5 * rng.randint(-1, 1)
        g = compatible_cubic(a, b, c)
        s = rng.choice([0.0, 0.5, 1.0, 2.0, 3.5])
        assert mellin_fe_residual(g, s) <= 1e-7


def test_mellin_phi_finds_narrow_peaks_against_mpmath():
    # the peak of e^{f(x)} near x = -5.7 (width about 0.3) once fell
    # between quad's panels on [1 - T0, 0], and the value came back 1e15
    # times too small
    for abc in ((-38, -1, 1), (-41, -2, 1)):
        g = [mpmath.mpf(c.numerator) / c.denominator for c in compatible_cubic(*abc)]
        with mpmath.workdps(30):
            def h(x):
                return (1 - x) ** 2.5 * mpmath.exp(mpmath.polyval(g[::-1] + [0], x))
            want = mpmath.quad(h, [-mpmath.inf, -20] + mpmath.linspace(-20, 0, 41))
        assert rel_err(mellin_phi(compatible_cubic(*abc), 2.5), float(want)) <= 1e-8, abc


def test_quad_one_panel_is_exact_through_degree_31():
    # K21 is exact through degree 31; G10 through 19, so there the error
    # estimate |K21 - G10| vanishes too
    for a, b in ((-1.0, 1.0), (0.0, 2.0)):
        for d in range(32):
            want = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
            neg_err, _, _, got = _panel(lambda x: x ** d, a, b)
            err = -neg_err
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (a, b, d)
            if d <= 19:
                assert err <= 1e-14 * max(1.0, abs(want)), (a, b, d)
    assert -_panel(lambda x: x ** 20, 0.0, 2.0)[0] > 1e-12


def test_quad_complex_is_the_sum_of_its_parts():
    def fn(x):
        return complex(math.cos(3.0 * x), 1.0) / (1.0 + x * x)
    re, _ = quad(lambda x: fn(x).real, -2.0, 5.0)
    im, _ = quad(lambda x: fn(x).imag, -2.0, 5.0)
    got, _ = quad(fn, -2.0, 5.0)
    assert isinstance(got, complex)
    assert abs(got - complex(re, im)) <= 1e-13


def test_quad_finds_a_bracketed_spike():
    # a Gaussian of width 1e-3 on [0, 10], which no node of one 21-point
    # panel comes near; a panel bracketing it samples it
    def spike(x):
        return math.exp(-((x - 3.7123) / 1e-3) ** 2)
    got, err = quad(spike, 0.0, 10.0, points=[3.7, 3.72])
    assert abs(got - math.sqrt(math.pi) * 1e-3) <= 1e-12 and err <= EPSABS


def test_quad_error_meets_the_tolerance_on_smooth_integrands():
    got, err = quad(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
    assert err <= EPSABS
    assert abs(got - math.pi / 4) <= EPSABS


def test_quad_limit_stops_at_one_panel(monkeypatch):
    monkeypatch.setattr(gamma_complex, "LIMIT", 1)
    calls = []

    def fn(x):
        calls.append(x)
        return math.sqrt(x)
    got, err = quad(fn, 0.0, 1.0)
    assert len(calls) == 21
    assert err > EPSABS and abs(got - 2.0 / 3.0) <= err
