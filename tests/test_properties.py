"""Property tests: every p-adic claim agrees with an exact rational result.

A stored coefficient known mod p^A stands for every rational a with
v_p(a - stored) >= A, and a finite tail T for any further coefficients of
valuation >= T.  Each drawn expansion therefore comes with several exact
ExactMahler lifts, and every result must agree with each lift's exact value
mod the power it claims.  Coefficient valuations run over -2..3, so the
p^shift-factored residue path sees negative shifts too.  principal_power
and teichmuller are held to plain pow on the integer lifts of their inputs,
and PadicNumber arithmetic to Fraction arithmetic on the lifts of its
operands.  The operator layer (integrate, dirac, add, scale,
AmiceElem.to_mahler, the values along x - k, two_var, l_x, convolutions and
gexp kernels long enough for both halves of their scaled convolution) and the
L-values (l_value, Psi at a PadicNumber s) meet the same lift oracles, and
p_exp meets Fraction partial sums.  convolve is held, record and tail
included, to the binomial sum it replaced, read off a plain Pascal row,
also on decaying factors where it stops early; one_minus_x_pow and
_gexp_weights are held to the loop and the Fraction formula they replaced.
The residue operators that replaced PadicNumber chains are also held to
those chains, claims included, and the D-finite recurrence for phi_r to the
gexp kernel, record and tail included.  The l_values record is held, mod
p^(claim - v_p(k!)), to the x = -1 case of the values along x - k, and the
l_value, Phi and Psi sums over it to the sums over those values.  Psi at
every kind of s also meets an oracle that never reads phi_r: the Mahler
series of the forward differences of <r>^m psi_tilde(m).
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from incgamma.exact import INF, binom, falling, vp, vp_factorial
from incgamma.gamma_padic import (Phi, Psi, _phi_dfinite, _phi_expansion, f_r_series,
                                  phi_fr, poly_gexp, psi_tilde)
from incgamma.mahler import (ExactMahler, MahlerFn, Tail, _gexp_fn, _gexp_kernel,
                             _gexp_weights, _joint_length, _line, _record, convolve,
                             from_gexp, gexp_length_for, gexp_tail_floor)
from incgamma.measure import dirac, integrate, mu_psi_x
from incgamma.padic import (DivergentSeriesError, PadicContext, PadicNumber, congruent,
                            p_exp, principal_part, principal_power, teichmuller, zp_residue)
from incgamma.series import TruncSeries
from incgamma.transform import (AmiceElem, LValues, factorial_length_for, l_value, l_values,
                                l_x, one_minus_x_pow, two_var)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
LIFTS = 3


@st.composite
def expansions(draw, ctx, low=-2):
    """(stored MahlerFn, LIFTS exact ExactMahler lifts of it); coefficient
    valuations run over low..3."""
    p = ctx.p
    coeffs = []  # (rational q, absolute precision A or None for an exact zero)
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("value", "value", "value", "zero", "O")))
        if kind == "zero":
            coeffs.append((Fraction(0), None))
            continue
        A = draw(st.integers(1, ctx.precision))
        if kind == "O":
            coeffs.append((Fraction(0), A))
            continue
        v = draw(st.integers(low, 3))
        unit = draw(st.integers(1, p ** 4).filter(lambda u: u % p))
        den = draw(st.sampled_from((1, 1, p + 1, 2 * p - 1)))
        coeffs.append((Fraction(unit, den) * Fraction(p) ** v, A))
    T = draw(st.one_of(st.just(INF), st.integers(0, ctx.precision)))
    stored = MahlerFn(ctx, [ctx.zero() if A is None
                            else PadicNumber(ctx, A, 0, A) if q == 0
                            else ctx.number(q, abs_prec=A) for q, A in coeffs],
                      Tail.exact() if T == INF else Tail(T, "drawn"))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    lifts = []
    for _ in range(LIFTS):
        exact = [q if A is None else q + Fraction(p) ** A * rng.randint(-p ** 3, p ** 3)
                 for q, A in coeffs]
        if T != INF:
            exact += [Fraction(p) ** T * rng.randint(-p ** 3, p ** 3)
                      for _ in range(rng.randint(0, 4))]
        lifts.append(ExactMahler(exact))
    return stored, lifts


def agrees(got: PadicNumber, exact: Fraction, ctx: PadicContext) -> bool:
    k = got.abs_precision
    if k == INF:
        return got.is_exact_zero() and exact == 0
    return congruent(got, ctx.number(exact, abs_prec=k), k)


@st.composite
def contexts(draw):
    return PadicContext(draw(st.sampled_from((2, 3, 5))), draw(st.integers(4, 12)))


@st.composite
def points(draw, ctx):
    """(point as passed to eval or dirac, exact lifts of it)."""
    p = ctx.p
    kind = draw(st.sampled_from(("int", "fraction", "padic")))
    if kind == "int":
        x = draw(st.integers(-12, 40))
        return x, [Fraction(x)]
    if kind == "fraction":
        den = draw(st.sampled_from((p + 1, 2 * p + 1, 4 * p - 1, (p + 1) ** 3)))
        x = Fraction(draw(st.integers(-30, 30).filter(lambda a: a % den)), den)
        return x, [x]
    N = draw(st.integers(1, ctx.precision + 4))
    X = draw(st.integers(0, p ** N - 1))
    ts = draw(st.lists(st.integers(0, p ** 5), min_size=LIFTS, max_size=LIFTS))
    return PadicNumber._make(ctx, 0, X, N), [Fraction(X + p ** N * t) for t in ts]


@SETTINGS
@given(st.data())
def test_eval_agrees_with_every_lift(data):
    ctx = data.draw(contexts())
    phi, lifts = data.draw(expansions(ctx))
    x, xs = data.draw(points(ctx))
    got = phi.eval(x)
    for f in lifts:
        for lift in xs:
            assert agrees(got, f.eval(lift), ctx), (phi.coeffs, phi.tail, x, lift)


@SETTINGS
@given(st.data())
def test_convolve_agrees_with_every_lift(data):
    ctx = data.draw(contexts())
    a, a_lifts = data.draw(expansions(ctx))
    b, b_lifts = data.draw(expansions(ctx))
    c = convolve(a, b)
    for fa, fb in zip(a_lifts, b_lifts):
        exact = fa.convolve(fb)
        for n in range(c.length + 1):
            assert agrees(c.coeffs[n], exact.coeff(n), ctx), (a.coeffs, b.coeffs, n)
        for n in range(c.length + 1, exact.length + 1):
            assert vp(exact.coeff(n), ctx.p) >= c.tail.exponent


@SETTINGS
@given(st.data())
def test_integrate_against_dirac_is_evaluation(data):
    ctx = data.draw(contexts())
    phi, lifts = data.draw(expansions(ctx))
    x, xs = data.draw(points(ctx))
    length = data.draw(st.integers(0, phi.length + 3))
    got = integrate(phi, dirac(x, ctx, length))
    for f in lifts:
        for lift in xs:
            assert agrees(got, f.eval(lift), ctx), (phi.coeffs, phi.tail, x, lift)


@st.composite
def exponents(draw, ctx):
    """(exponent as passed to one_minus_x_pow, exact lifts of it, its precision)."""
    p = ctx.p
    kind = draw(st.sampled_from(("int", "fraction", "padic")))
    if kind == "int":
        y = draw(st.integers(-20, 40))
        return y, [Fraction(y)], INF
    if kind == "fraction":
        den = draw(st.sampled_from((p + 1, 2 * p + 1, 4 * p - 1)))
        y = Fraction(draw(st.integers(-60, 60)), den)
        return y, [y], INF
    N = draw(st.integers(0, ctx.precision + 4))
    Y = draw(st.integers(0, p ** N - 1))
    ts = draw(st.lists(st.integers(-p ** 5, p ** 5), min_size=LIFTS, max_size=LIFTS))
    return PadicNumber._make(ctx, 0, Y, N), [Fraction(Y + p ** N * t) for t in ts], N


@SETTINGS
@given(st.data())
def test_one_minus_x_pow_agrees_with_every_lift(data):
    ctx = data.draw(contexts())
    y, ys, N = data.draw(exponents(ctx))
    length = data.draw(st.integers(0, 30))
    g = one_minus_x_pow(y, ctx, length)
    finite = (not isinstance(y, PadicNumber) and ys[0].denominator == 1
              and 0 <= ys[0] <= length)
    assert g.length == length
    assert (g.tail == Tail.exact()) == finite
    for n, c in enumerate(g.coeffs):
        if finite and n > ys[0]:
            assert c.is_exact_zero()
        else:
            assert c.abs_precision <= min(ctx.precision, N)
        for lift in ys:
            assert agrees(c, (-1) ** n * falling(lift, n), ctx), (y, n, lift)
    for lift in ys:
        for n in range(length + 1, length + 4):
            assert vp(falling(lift, n), ctx.p) >= g.tail.exponent


@SETTINGS
@given(st.data())
def test_one_minus_x_pow_matches_the_full_loop(data):
    """The loop that stops at its first residue 0 mod p^M gives the record
    and tail of the loop that forms every (-1)^n (y)_n mod p^M; at M 1-6 and
    lengths up to 60 about half the draws reach such a residue before the
    end."""
    ctx = PadicContext(data.draw(st.sampled_from((2, 3, 5, 7))), data.draw(st.integers(1, 6)))
    y, ys, _ = data.draw(exponents(ctx))
    length = data.draw(st.integers(0, 60))
    g = one_minus_x_pow(y, ctx, length)
    Y, M = zp_residue(y, ctx, ctx.precision)
    exact = (not isinstance(y, PadicNumber) and ys[0].denominator == 1
             and 0 <= ys[0] <= length)
    top = int(ys[0]) if exact else length
    res = [math.prod(k - Y for k in range(n)) % ctx.p ** M for n in range(top + 1)]
    want = _record(ctx.p, 0, res + [0] * (length - top), [M] * (top + 1) + [INF] * (length - top))
    assert g._res == want
    assert g.tail == (Tail.exact() if exact else
                      Tail(vp_factorial(length + 1, ctx.p), "factorial decay"))


@SETTINGS
@given(st.data())
def test_gexp_weights_match_the_fraction_formula(data):
    """_gexp_weights on ints is k! (g_k - [k = 1]) formed as a Fraction and
    reduced mod p^M, the first weight g_1 - 1 included, at p 2-13 and M up
    to past v_p(k!) for the larger k."""
    p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    ctx = PadicContext(p, data.draw(st.integers(1, 30)))
    nums = data.draw(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=1, max_size=40))
    g = [Fraction(a, data.draw(st.integers(1, 10 ** 4).filter(lambda d: d % p))) for a in nums]
    g[0] = 1 + p * g[0]  # a principal unit
    mod = p ** ctx.precision
    want = []
    for k, c in enumerate(g, start=1):
        w = math.factorial(k) * (c - 1 if k == 1 else c)
        want.append(w.numerator * pow(w.denominator, -1, mod) % mod)
    assert _gexp_weights(g, ctx) == want


@st.composite
def principal_units(draw):
    """(principal unit u, e = v(u - 1)): a drawn 1 + p^e t, the principal
    part of a rational, or r in (3, 5, 7/3) at p = 2, where e is 1 or 2."""
    ctx = draw(contexts())
    p, A = ctx.p, draw(st.integers(1, 30))
    kind = draw(st.sampled_from(("drawn", "drawn", "rational", "two")))
    if kind == "two":
        u = PadicContext(2, A).number(draw(st.sampled_from((3, 5, Fraction(7, 3)))))
    elif kind == "rational":
        num = draw(st.integers(1, 10 ** 4).filter(lambda n: n % p))
        den = draw(st.integers(1, 50).filter(lambda d: d % p))
        u = principal_part(ctx.number(Fraction(num, den), abs_prec=A))
    else:
        e = draw(st.integers(1, A))
        u = PadicNumber._make(ctx, 0, 1 + p ** e * draw(st.integers(0, p ** A)), A)
    return u, (u - 1).valuation


def power_mod(u: PadicNumber, s: int, k: int) -> int:
    return pow(u.lift(), s, u.ctx.p ** k)


@SETTINGS
@given(st.data())
def test_principal_power_int_is_modular_power(data):
    u, _ = data.draw(principal_units())
    p, A = u.ctx.p, u.abs_precision
    s = data.draw(st.integers(-p ** (A + 2), p ** (A + 2)))
    got = principal_power(u, s)
    assert got.abs_precision <= A
    assert got.lift() == power_mod(u, s, got.abs_precision), (u, s)


@SETTINGS
@given(st.data())
def test_principal_power_fraction_is_a_root(data):
    u, _ = data.draw(principal_units())
    p = u.ctx.p
    a = data.draw(st.integers(-10 ** 4, 10 ** 4))
    b = data.draw(st.integers(1, 99).filter(lambda d: d % p))
    got = principal_power(u, Fraction(a, b))
    k = got.abs_precision
    assert k <= u.abs_precision
    assert pow(got.lift(), b, p ** k) == power_mod(u, a, k), (u, a, b)


@SETTINGS
@given(st.data())
def test_principal_power_padic_agrees_with_every_lift(data):
    u, e = data.draw(principal_units())
    p, A = u.ctx.p, u.abs_precision
    N = data.draw(st.integers(0, A + 5))
    X = data.draw(st.integers(0, p ** N - 1))
    s = PadicNumber._make(u.ctx, 0, X, N)
    got = principal_power(u, s)
    k = got.abs_precision
    assert k <= min(A, N + e)
    for t in data.draw(st.lists(st.integers(-p ** 5, p ** 5), min_size=LIFTS,
                                max_size=LIFTS)):
        lift = X + p ** N * t
        assert got.lift() == power_mod(u, lift, k), (u, s, lift)


@SETTINGS
@given(st.data())
def test_teichmuller_is_the_root_of_unity_over_u(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13, 97)))
    ctx = PadicContext(p, 20)
    num = data.draw(st.integers(-10 ** 4, 10 ** 4).filter(lambda n: n % p))
    den = data.draw(st.integers(1, 50).filter(lambda d: d % p))
    u = ctx.number(Fraction(num, den), abs_prec=data.draw(st.integers(1, 70)))
    w = teichmuller(u)
    k = w.abs_precision
    assert k == u.abs_precision
    assert pow(w.lift(), p - 1, p ** k) == 1 % p ** k
    assert w.lift() % p == u.lift() % p


@st.composite
def numbers(draw, ctx):
    """(PadicNumber, LIFTS exact rationals it stands for): a value of
    valuation -2..3 known to a drawn precision, an O(p^A) with no digit
    known, or the exact zero."""
    p = ctx.p
    kind = draw(st.sampled_from(("value", "value", "value", "O", "zero")))
    if kind == "zero":
        return ctx.zero(), [Fraction(0)] * LIFTS
    if kind == "O":
        q, A = Fraction(0), draw(st.integers(-2, ctx.precision))
        x = PadicNumber._make(ctx, A, 0, A)
    else:
        v = draw(st.integers(-2, 3))
        unit = draw(st.integers(1, p ** 4).filter(lambda u: u % p))
        q = Fraction(unit, draw(st.sampled_from((1, p + 1, 2 * p - 1)))) * Fraction(p) ** v
        A = draw(st.integers(v + 1, v + ctx.precision))
        x = ctx.number(q, abs_prec=A)
    ts = draw(st.lists(st.integers(-p ** 3, p ** 3), min_size=LIFTS, max_size=LIFTS))
    return x, [q + Fraction(p) ** A * t for t in ts]


def is_zero_like(x) -> bool:
    return x.unit == 0 if isinstance(x, PadicNumber) else x == 0


@SETTINGS
@given(st.data())
def test_arithmetic_agrees_with_every_lift(data):
    ctx = data.draw(contexts())
    a, a_lifts = data.draw(numbers(ctx))
    if data.draw(st.booleans()):
        b, b_lifts = data.draw(numbers(ctx))
    else:  # a plain rational, coerced by the PadicNumber operand
        b = Fraction(data.draw(st.integers(-50, 50)), data.draw(st.sampled_from((1, 2, 9, 25))))
        b_lifts = [b] * LIFTS
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for x, y, xs, ys in ((a, b, a_lifts, b_lifts), (b, a, b_lifts, a_lifts)):
        for op in ops:
            if op is operator.truediv and is_zero_like(y):
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            got = op(x, y)
            for lx, ly in zip(xs, ys):
                assert agrees(got, op(lx, ly), ctx), (x, y, op.__name__, lx, ly)


@SETTINGS
@given(st.data())
def test_power_agrees_with_every_lift(data):
    ctx = data.draw(contexts())
    x, lifts = data.draw(numbers(ctx))
    n = data.draw(st.integers(-6, 9))
    if n < 0 and x.unit == 0:
        with pytest.raises(ZeroDivisionError):
            x ** n
        return
    got = x ** n
    for lift in lifts:
        assert agrees(got, lift ** n, ctx), (x, n, lift)


@SETTINGS
@given(st.data())
def test_integrate_add_and_scale_agree_with_every_lift(data):
    ctx = data.draw(contexts())
    a, a_lifts = data.draw(expansions(ctx))
    b, b_lifts = data.draw(expansions(ctx))
    c, c_lifts = data.draw(numbers(ctx))
    paired, total, scaled = integrate(a, b), a.add(b), a.scale(c)
    for fa, fb, lc in zip(a_lifts, b_lifts, c_lifts):
        top = max(fa.length, fb.length) + 2
        exact = sum((fa.coeff(n) * fb.coeff(n) for n in range(top)), Fraction(0))
        assert agrees(paired, exact, ctx), (a.coeffs, a.tail, b.coeffs, b.tail)
        for n in range(top + 1):
            exact = fa.coeff(n) + fb.coeff(n)
            if n <= total.length:
                assert agrees(total.coeffs[n], exact, ctx), (a.coeffs, b.coeffs, n)
            else:
                assert vp(exact, ctx.p) >= total.tail.exponent
            if n <= scaled.length:
                assert agrees(scaled.coeffs[n], lc * fa.coeff(n), ctx), (a.coeffs, c, n)
            else:
                assert vp(lc * fa.coeff(n), ctx.p) >= scaled.tail.exponent


@SETTINGS
@given(st.data())
def test_dirac_moments_agree_with_every_lift(data):
    ctx = data.draw(contexts())
    x, xs = data.draw(points(ctx))
    length = data.draw(st.integers(0, 45))
    mu = dirac(x, ctx, length)
    assert mu.length == length
    finite = (not isinstance(x, PadicNumber) and xs[0].denominator == 1
              and 0 <= xs[0] <= length)
    assert (mu.tail == Tail.exact()) == finite
    for n, c in enumerate(mu.coeffs):
        assert c.is_exact_zero() == (finite and n > xs[0])
        for lift in xs:
            assert agrees(c, binom(lift, n), ctx), (x, n, lift)
    for lift in xs:
        for n in range(length + 1, length + 4):
            assert vp(binom(lift, n), ctx.p) >= mu.tail.exponent


@SETTINGS
@given(st.data())
def test_to_mahler_agrees_with_every_lift(data):
    """(x - 1)^{*n} has Mahler coefficients (-1)^(n+k) (n)_k for every integer n."""
    ctx = data.draw(contexts())
    support = data.draw(st.lists(st.integers(-3, 6), min_size=1, max_size=4, unique=True))
    drawn = [data.draw(numbers(ctx)) for _ in support]
    length = data.draw(st.integers(0, 20))
    got = AmiceElem(ctx, {n: c for n, (c, _) in zip(support, drawn)}).to_mahler(length)
    for i in range(LIFTS):
        def exact(k):
            return sum((lifts[i] * (-1) ** ((n + k) % 2) * falling(n, k)
                        for n, (_, lifts) in zip(support, drawn)), Fraction(0))
        for k in range(length + 4):
            if k <= got.length:
                assert agrees(got.coeffs[k], exact(k), ctx), (support, drawn, k)
            else:
                assert vp(exact(k), ctx.p) >= got.tail.exponent


@SETTINGS
@given(st.data())
def test_l_value_at_padic_s_agrees_with_every_lift(data):
    """sum_(k <= K) (S)_k f(-1-k) over lifts S of s and f of phi: the terms
    past K are divisible by p^(v_p((K+1)!) + norm), which the claim respects."""
    ctx = data.draw(contexts())
    phi, lifts = data.draw(expansions(ctx))
    target = data.draw(st.integers(1, ctx.precision))
    N = data.draw(st.integers(0, ctx.precision + 2))
    X = data.draw(st.integers(0, ctx.p ** N - 1))
    s = PadicNumber._make(ctx, 0, X, N)
    got = l_value(phi, s, target=target)
    assert got.abs_precision <= N + min(0, phi.min_valuation())
    K = factorial_length_for(ctx.p, target)
    for f in lifts:
        values = [f.eval(-1 - k) for k in range(K + 1)]
        for t in data.draw(st.lists(st.integers(-ctx.p ** 3, ctx.p ** 3),
                                    min_size=LIFTS, max_size=LIFTS)):
            S = X + ctx.p ** N * t
            exact = sum((falling(S, k) * v for k, v in enumerate(values)), Fraction(0))
            assert agrees(got, exact, ctx), (phi.coeffs, phi.tail, s, S)


@SETTINGS
@given(st.data())
def test_psi_at_padic_s_interpolates_every_lift(data):
    """Psi(r, s) for s known mod p^N agrees with <r>^m psi_tilde(m) at every
    integer lift m >= 0 of s; <r> = r / omega(r), omega(r) = r^(p^A) mod p^A."""
    ctx = PadicContext(data.draw(st.sampled_from((2, 3, 5, 7))), data.draw(st.integers(3, 10)))
    p = ctx.p
    num = data.draw(st.integers(-60, 60).filter(lambda a: a % p))
    r = Fraction(num, data.draw(st.integers(1, 30).filter(lambda d: d % p)))
    N = data.draw(st.integers(0, 4))
    X = data.draw(st.integers(0, p ** N - 1))
    got = Psi(r, PadicNumber._make(ctx, 0, X, N), ctx)
    k = got.abs_precision
    assert k <= min(ctx.precision, N + 1)
    A = ctx.precision + 4
    mod = p ** A
    R = r.numerator * pow(r.denominator, -1, mod) % mod
    twist = R * pow(pow(R, p ** A, mod), -1, mod) % mod  # <r> mod p^A
    for t in range(LIFTS):
        m = X + p ** N * t
        want = pow(twist, m, mod) * psi_tilde(r, m)
        assert agrees(got, want, ctx), (r, X, N, m)


@st.composite
def line_points(draw, ctx):
    """points() plus the exact zero PadicNumber and non-integral Fractions
    whose residue mod a high power of p is a small integer."""
    kind = draw(st.sampled_from(("drawn", "zero", "near")))
    if kind == "zero":
        return ctx.zero(), [Fraction(0)]
    if kind == "near":
        d = ctx.p + 1
        x = Fraction(draw(st.integers(-2, 8)) * d + ctx.p ** (ctx.precision + 30), d)
        return x, [x]
    return draw(points(ctx))


@settings(SETTINGS, max_examples=100)
@given(st.data())
def test_line_is_eval_along_x_minus_k(data):
    """_line gives eval(x - k) in value and claim, and each value agrees
    with every lift of phi at every lift of x - k."""
    ctx = data.draw(contexts())
    phi, lifts = data.draw(expansions(ctx))
    x, xs = data.draw(line_points(ctx))
    K = data.draw(st.integers(0, 12))
    shift, res, claims = _line(phi, x, K)
    assert len(res) == len(claims) == K + 1
    if not isinstance(x, PadicNumber):  # M, or min(M, tail) off the integers 0..length
        M = ctx.precision if phi._res.M == INF else phi._res.M
        inside = [Fraction(x).denominator == 1 and 0 <= x - k <= phi.length for k in range(K + 1)]
        assert claims == [M if i else min(M, phi.tail.exponent) for i in inside]
    for k, (r, A) in enumerate(zip(res, claims)):
        got = PadicNumber._make(ctx, shift, r, A)
        assert got == phi.eval(x - k), (phi.coeffs, phi.tail, x, k)
        for f in lifts:
            for lift in xs:
                assert agrees(got, f.eval(lift - k), ctx), (phi.coeffs, x, k, lift)


@settings(SETTINGS, max_examples=75)
@given(st.data())
def test_two_var_and_l_x_agree_with_every_lift(data):
    """two_var is sum_(k <= K) (-1)^k (y)_k binom(x, k) f(x - k) on lifts;
    the terms past K have valuation >= v_p((K+1)!) + norm, which the claim
    respects.  l_x's coefficients are (-1)^k k! binom(x, k) f(x - k)."""
    ctx = data.draw(contexts())
    phi, lifts = data.draw(expansions(ctx))
    x, xs = data.draw(line_points(ctx))
    y, ys, _ = data.draw(exponents(ctx))
    target = data.draw(st.integers(1, ctx.precision))
    length = data.draw(st.integers(0, 12))
    got, fn = two_var(phi, x, y, target=target), l_x(phi, x, length=length)
    K = factorial_length_for(ctx.p, target)
    for f, X, Y in zip(lifts, xs * LIFTS, ys * LIFTS):
        exact = sum(((-1) ** k * falling(Y, k) * binom(X, k) * f.eval(X - k)
                     for k in range(K + 1)), Fraction(0))
        assert agrees(got, exact, ctx), (phi.coeffs, phi.tail, x, y, X, Y)
        for k in range(length + 4):
            c = (-1) ** k * falling(k, k) * binom(X, k) * f.eval(X - k)
            if k <= fn.length:
                assert agrees(fn.coeffs[k], c, ctx), (phi.coeffs, x, k, X)
            else:
                assert vp(c, ctx.p) >= fn.tail.exponent


@st.composite
def long_expansions(draw, ctx):
    """(exact-tailed MahlerFn of length 15..40, LIFTS ExactMahler lifts):
    long enough that convolve's scale p^(Ea + Eb) passes p^M several times
    over and that about half of its terms carry, nu(n) > nu(k) + nu(n - k),
    so its quotients by p^(Ea + Eb - nu(n)) are exact only by Kummer."""
    p = ctx.p
    coeffs = [(Fraction(u, den) * Fraction(p) ** v, A) for u, den, v, A in draw(st.lists(
        st.tuples(st.integers(-p ** 4, p ** 4), st.sampled_from((1, p + 1)),
                  st.integers(-1, 2), st.integers(1, ctx.precision)),
        min_size=16, max_size=41))]
    stored = MahlerFn(ctx, [ctx.number(q, abs_prec=A) if q else PadicNumber(ctx, A, 0, A)
                            for q, A in coeffs], Tail.exact())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return stored, [ExactMahler([q + Fraction(p) ** A * rng.randint(-p, p) for q, A in coeffs])
                    for _ in range(LIFTS)]


@settings(SETTINGS, max_examples=20)
@given(st.data())
def test_long_convolve_agrees_with_every_lift_in_both_orders(data):
    ctx = PadicContext(data.draw(st.sampled_from((2, 3, 5))), data.draw(st.integers(2, 5)))
    a, a_lifts = data.draw(long_expansions(ctx))
    b, b_lifts = data.draw(long_expansions(ctx))
    for c in (convolve(a, b), convolve(b, a)):
        assert c.length == a.length + b.length
        for fa, fb in zip(a_lifts, b_lifts):
            exact = fa.convolve(fb)
            for n in range(c.length + 1):
                assert agrees(c.coeffs[n], exact.coeff(n), ctx), (n, c.coeffs[n])


def pascal_convolve(a: MahlerFn, b: MahlerFn) -> tuple:
    """(record, tail) of convolve by its definition: c_n = sum_k binom(n, k)
    a_k b_(n-k) on the residues mod p^(M - max(sa, sb)), each binomial read
    off a plain Pascal row, with convolve's length, claim and tail rules."""
    p = a.ctx.p
    K = _joint_length(a, b, a.length + b.length)
    M = min(a._res.M, b._res.M)
    M = a.ctx.precision if M == INF else M
    sa, sb = a._res.shift, b._res.shift
    mod = p ** max(0, M - max(sa, sb))
    ra, rb = ([*f._res.res, *[0] * K][:K + 1] for f in (a, b))
    row, out = [], []
    for n in range(K + 1):
        row = [1, *((x + y) % mod for x, y in zip(row, row[1:])), 1][:n + 1]
        out.append(sum(c * ra[k] * rb[n - k] for k, c in enumerate(row)) % mod)
    half = K // 2
    texp = min(a.valuation_beyond(half) + b.min_valuation(),
               b.valuation_beyond(half) + a.min_valuation())
    return _record(p, sa + sb, out, [M + min(sa, sb)] * (K + 1)), Tail(texp, "convolution")


@st.composite
def convolve_factors(draw, ctx):
    """A MahlerFn of 1, 2..8 or 9..121 coefficients.  Valuations run over
    -4..3, or on a decaying factor over f(n) - s..f(n) + 3 - s, s in 0..2,
    with f(n) = nu(n) like (y)_n or nu(n) - nu(floor(n/2)) like phi_r
    (nu(n) = v_p(n!)), so that convolve's tail cut fires.  Claims run up to
    past the precision (on some factors only v + 1 and v + 2, which put the
    convolution's modulus at p^0); O(p^A) entries and exact zeros; an exact
    or a finite tail."""
    p, M = ctx.p, ctx.precision
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    size = draw(st.sampled_from((1, rng.randint(2, 8), rng.randint(9, 121))))
    coeffs, coarse = [], rng.random() < 0.15  # claims v + 1, v + 2: often e = 0
    decay = rng.choice((None, None, "falling", "gexp"))
    shift = rng.choice((0, 0, 1, 2))
    for n in range(size):
        kind = rng.choice(("value",) * 8 + ("zero", "O"))
        if kind == "zero":
            coeffs.append(ctx.zero())
        elif kind == "O":
            A = rng.randint(1, M)
            coeffs.append(PadicNumber(ctx, A, 0, A))
        else:
            if decay is None:
                v = rng.randint(-4, 3)
            else:
                floor = vp_factorial(n, p) - (decay == "gexp") * vp_factorial(n // 2, p)
                v = floor + rng.randint(0, 3) - shift
            low = v + 1 if coarse or rng.random() < 0.1 else max(v + 1, M // 2)
            high = v + 2 if coarse else max(low, M + 3)
            q = Fraction(rng.randint(1, p ** 6), rng.choice((1, p + 1))) * Fraction(p) ** v
            coeffs.append(ctx.number(q, abs_prec=rng.randint(low, high)))
    T = draw(st.one_of(st.just(INF), st.integers(-2, M)))
    return MahlerFn(ctx, coeffs, Tail.exact() if T == INF else Tail(T, "drawn"))


@settings(SETTINGS, max_examples=200)
@given(st.data())
def test_convolve_matches_the_pascal_row_sum(data):
    """The factorial-scaled convolve gives the record and tail of the
    binomial sum in both orders, at p 2-13 and M 1-40, on shifts down to -4,
    O(p^A) entries, exact zeros, claims at or below the shift (so residues
    mod p^0), supports of one coefficient up to 121, and decaying factors
    whose products are 0 mod p^e past some index, where convolve stops."""
    ctx = PadicContext(data.draw(st.sampled_from((2, 3, 5, 7, 11, 13))),
                       data.draw(st.integers(1, 40)))
    a, b = data.draw(convolve_factors(ctx)), data.draw(convolve_factors(ctx))
    for x, y in ((a, b), (b, a)):
        c = convolve(x, y)
        assert (c._res, c.tail) == pascal_convolve(x, y)


@pytest.mark.parametrize("p", [3, 5])
def test_dirac_route_convolve_matches_the_pascal_row_sum(p):
    """Phi's Dirac route at the operators' target 25, prec 30: phi_r against
    (1 - x)^{*s} at the full length 2 gexp_length_for(p, 25), 246 at p = 3
    and 478 at p = 5, in both orders."""
    ctx = PadicContext(p, 30)
    L = 2 * gexp_length_for(p, 25)
    phi = phi_fr(Fraction(7, 11), ctx, length=L)
    g = one_minus_x_pow(Fraction(-5, 13), ctx, L)
    assert L == {3: 246, 5: 478}[p]
    for x, y in ((g, phi), (phi, g)):
        c = convolve(x, y)
        assert (c._res, c.tail) == pascal_convolve(x, y)


def gexp_coefficients(g: list, length: int) -> list:
    """d_0..d_length of exp(sum_k g_k t^k) = sum d_n t^n / n!, by the
    Fraction recurrence d_n = sum_k k! g_k binom(n-1, k-1) d_(n-k)."""
    w = [math.factorial(k) * c for k, c in enumerate(g, start=1)]
    d = [Fraction(1)]
    for n in range(1, length + 1):
        d.append(sum((w[k - 1] * math.comb(n - 1, k - 1) * d[n - k]
                      for k in range(1, min(n, len(w)) + 1)), Fraction(0)))
    return d


@settings(SETTINGS, max_examples=60)
@given(st.data())
def test_long_gexp_kernels_match_the_fraction_recurrence(data):
    """phi_fr and poly_gexp run to the kernel's early stop, about 2(p-1)M
    here, or to the length: its second half, nu(n-1) > E and nu(n) > E
    (nu(j) = v_p(j!)), takes the exact quotients of the scaled convolution.
    Every stored coefficient is d_n mod p^M, and the tail is the gexp
    certificate clamped at 0, which bounds the next exact d_n at every
    length, below the one that reaches M too."""
    ctx = PadicContext(data.draw(st.sampled_from((2, 3, 5))), data.draw(st.integers(2, 8)))
    p, M = ctx.p, ctx.precision
    length = data.draw(st.integers(20, 70))
    if data.draw(st.booleans()):
        num = data.draw(st.integers(-40, 40).filter(lambda a: a % p))
        r = Fraction(num, data.draw(st.integers(1, 20).filter(lambda d: d % p)))
        fn, g = phi_fr(r, ctx, length=length), f_r_series(r, length).coeffs[1:]
    else:
        g = [1 + p * data.draw(st.integers(-3, 3))] + [
            Fraction(data.draw(st.integers(-9, 9)), data.draw(st.sampled_from((1, p + 1))))
            for _ in range(data.draw(st.integers(0, 4)))]
        fn = poly_gexp(g, ctx, length=length)
    d = gexp_coefficients([g[0] - 1] + list(g[1:]), length + 3)
    assert fn.length == length
    for n in range(length + 1):
        assert fn.coeffs[n].abs_precision == M
        assert agrees(fn.coeffs[n], d[n], ctx), (g, n)
    assert fn.tail == Tail(max(0, gexp_tail_floor(p, length)), "gexp certificate")
    assert all(vp(d[n], p) >= fn.tail.exponent for n in range(length + 1, length + 4))


@SETTINGS
@given(st.data())
def test_p_exp_agrees_with_fraction_partial_sums(data):
    """p_exp(x) against sum_(n < N) X^n / n! on lifts X of x, N past the
    point where v(X^n / n!) >= n v - (n-1)/(p-1) reaches the claim."""
    ctx = data.draw(contexts())
    p = ctx.p
    x, lifts = data.draw(numbers(ctx))
    v = x.abs_precision if x.unit == 0 else x.valuation
    if v < (2 if p == 2 else 1):
        if not x.is_exact_zero():
            with pytest.raises(DivergentSeriesError):
                p_exp(x)
        return
    got = p_exp(x)
    k = got.abs_precision
    assert k <= x.abs_precision
    N = 1
    while N * v - (N - 1) / (p - 1) < k:
        N += 1
    for X in lifts:
        exact = sum((X ** n / math.factorial(n) for n in range(N)), Fraction(0))
        assert agrees(got, exact, ctx), (x, X, N)


@settings(SETTINGS, max_examples=75)
@given(st.data())
def test_residue_operators_claim_as_padic_arithmetic(data):
    """two_var, l_x, mu_psi_x and AmiceElem.to_mahler give exactly what the
    PadicNumber chains they replace give, claims included: coefficient
    valuations down to -6 reach the padding of an int coerced against a
    value of valuation below -4."""
    ctx = data.draw(contexts())
    p = ctx.p
    phi, _ = data.draw(expansions(ctx, low=-6))
    x, _ = data.draw(line_points(ctx))
    y, _, _ = data.draw(exponents(ctx))
    target = data.draw(st.integers(1, ctx.precision))
    K = factorial_length_for(p, target)
    yy = y if isinstance(y, PadicNumber) else ctx.number(y)
    binoms = dirac(x, ctx, K).coeffs
    acc, fall = ctx.zero(), ctx.one()
    for k in range(K + 1):
        acc = acc + fall * binoms[k] * phi.eval(x - k)
        fall = fall * (ctx.number(k) - yy)
    if phi.min_valuation() != INF:
        T = vp_factorial(K + 1, p) + phi.min_valuation()
        acc = acc + PadicNumber(ctx, T, 0, T)
    assert two_var(phi, x, y, target=target) == acc
    n = data.draw(st.integers(0, 12))
    binoms = dirac(x, ctx, n).coeffs
    twisted = [b * phi.eval(x - k) for k, b in enumerate(binoms)]
    assert mu_psi_x(phi, x, length=n).coeffs == tuple(twisted)
    assert l_x(phi, x, length=n).coeffs == tuple(
        c * ((-1) ** k * math.factorial(k)) for k, c in enumerate(twisted))
    support = data.draw(st.lists(st.integers(-3, 6), max_size=4, unique=True))
    psi = AmiceElem(ctx, {m: data.draw(numbers(ctx))[0] for m in support})
    chain = MahlerFn(ctx, [ctx.zero()], Tail.exact())
    for m in sorted(psi.coeffs):
        c = psi.coeffs[m] if m % 2 == 0 else -psi.coeffs[m]
        chain = chain.add(one_minus_x_pow(m, ctx, n).scale(c))
    got = psi.to_mahler(n)
    assert (got.coeffs, got.tail) == (chain.coeffs, chain.tail)


@st.composite
def small_heights(draw, p):
    """r = A/B of small height, a unit at p (A and B prime to p), from each
    case of the D-finite system: A < 0 (so e = -(B - A) < 0), 0 < r < 1
    (e > 0), r > 1 (e < 0), and r = 1 (e = 0) or r = -1."""
    unit = st.integers(1, 12).filter(lambda a: a % p)
    kind = draw(st.sampled_from(("negative", "below one", "above one", "one", "minus one")))
    if kind in ("one", "minus one"):
        return Fraction(1 if kind == "one" else -1)
    if kind == "negative":
        return Fraction(-draw(unit), draw(unit))
    A = draw(unit.filter(lambda a: a > 1 or kind == "below one"))
    Bs = range(A + 1, 15) if kind == "below one" else range(1, A)
    return Fraction(A, draw(st.sampled_from([b for b in Bs if b % p])))


@settings(SETTINGS, max_examples=100)
@given(st.data())
def test_dfinite_phi_matches_the_gexp_kernel(data):
    """_phi_dfinite gives the kernel's residues d_n mod p^M, and the
    MahlerFn built from them the kernel's record and tail, at lengths below
    and above the one whose certificate reaches a drawn target; so does
    _phi_expansion, whichever route it takes, at every r phi_fr accepts."""
    p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    ctx = PadicContext(p, data.draw(st.integers(1, 4)))
    r = data.draw(small_heights(p))
    M, mod = ctx.precision, p ** ctx.precision
    certified = gexp_length_for(p, data.draw(st.integers(1, M + 2)))
    length = data.draw(st.one_of(st.integers(1, certified - 1),
                                 st.integers(certified, 2 * certified)))
    kernel = _gexp_kernel(ctx, phi_weights(r, length, mod), length)
    d = _phi_dfinite(r.numerator, r.denominator, mod, length)
    assert tuple(d) == kernel._res.res, (r, p, M, length)
    built = _gexp_fn(ctx, d)
    assert (built._res, built.tail) == (kernel._res, kernel.tail)
    routed = _phi_expansion.__wrapped__(r, ctx, length)
    assert (routed._res, routed.tail) == (kernel._res, kernel.tail)


def full_gexp_sum(weights: list, length: int, mod: int) -> list:
    """d_0..d_length mod `mod` of the gexp kernel's recurrence summed over
    every k = 1..min(n, deg), with a plain Pascal row binom(n-1, j)."""
    w = [0, *weights[:length]]
    row, d = [], [1]
    for n in range(1, length + 1):
        row = [1, *((a + b) % mod for a, b in zip(row, row[1:])), 1][:n]
        d.append(sum(w[k] * row[k - 1] * d[n - k] for k in range(1, min(n, len(w) - 1) + 1))
                 % mod)
    return d


def residue(q: Fraction, mod: int) -> int:
    return q.numerator * pow(q.denominator, -1, mod) % mod


def phi_weights(r: Fraction, length: int, mod: int) -> list:
    """The kernel weights w_1..w_length of f_r - t mod `mod`: w_1 = 0 and
    w_(k+1) = w_k (k - 1/r), the falling factorials of k! c_k."""
    w, weights = 1 - 1 / r, [0]
    for k in range(2, length + 1):
        weights.append(residue(w, mod))
        w *= k - 1 / r
    return weights


@settings(SETTINGS, max_examples=120)
@given(st.data())
def test_gexp_kernel_cut_matches_the_full_sum(data):
    """The kernel's cut sum k <= n - 2 m(n) gives the record and tail of the
    full sum, for the weights of generic-r phi_r, poly_gexp and from_gexp
    with f(0) != 0, at M up to 12 and lengths below, at and above the
    certified one."""
    p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    ctx = PadicContext(p, data.draw(st.integers(1, 12)))
    M, mod = ctx.precision, p ** ctx.precision
    certified = gexp_length_for(p, data.draw(st.integers(1, M + 1)))
    length = data.draw(st.one_of(st.integers(1, certified - 1), st.just(certified),
                                 st.integers(certified + 1, 2 * certified)))
    kind = data.draw(st.sampled_from(("phi", "poly", "from_gexp")))
    unit = st.integers(1, 10 ** 4).filter(lambda a: a % p)
    head = 1
    if kind == "phi":
        r = Fraction(data.draw(unit) * data.draw(st.sampled_from((1, -1))), data.draw(unit))
        weights = phi_weights(r, length, mod)
        got = _gexp_kernel(ctx, weights, length)
    else:
        def coefficient():
            return Fraction(data.draw(st.integers(-50, 50)), data.draw(unit))
        g = [1 + p * coefficient(), *(coefficient() for _ in range(data.draw(st.integers(0, 6))))]
        weights = [residue(math.factorial(k) * (c - (k == 1)), mod)
                   for k, c in enumerate(g, start=1)]
        if kind == "from_gexp":
            f0 = p ** (2 if p == 2 else 1) * Fraction(data.draw(unit), data.draw(unit))
            head = p_exp(ctx.number(f0)).residue(M)
            got = from_gexp(TruncSeries([f0, *(g + [0] * length)[:length]]), ctx)
        else:
            got = poly_gexp(g, ctx, length=length)
    expected = _gexp_fn(ctx, [d * head for d in full_gexp_sum(weights, length, mod)])
    assert (got._res, got.tail) == (expected._res, expected.tail), (kind, p, M, length)


@pytest.mark.parametrize("p, M", [(7, 30), (2, 40)])
def test_default_length_kernels_match_the_full_sum(p, M):
    """At the default length the kernel's run holds both exact quotients of
    its scaled convolution: S_n by p^(E - nu(n-1)) in its first half, d_n by
    p^(nu(n) - E) in its second; at p = 2 the second covers most n.  phi_fr
    at a generic r and a cubic poly_gexp give the record of the full sum and
    the gexp certificate as tail; weights with a unit w_1, outside the
    certificate's hypotheses, raise."""
    ctx = PadicContext(p, M)
    mod, length = p ** M, gexp_length_for(p, M)
    tail = Tail(max(0, gexp_tail_floor(p, length)), "gexp certificate")
    r = Fraction(9973, 997) if p == 2 else Fraction(1234, 4567)
    g = [1 + p * Fraction(2, 3), Fraction(-5, 3), Fraction(7, 9)]
    cubic = [residue(math.factorial(k) * (c - (k == 1)), mod) for k, c in enumerate(g, 1)]
    unit_w1 = [residue(Fraction(k + 2, p + 1), mod) for k in range(1, 6)]
    with pytest.raises(ValueError, match="outside the tail certificate"):
        _gexp_kernel(ctx, unit_w1, length)
    cases = [(phi_fr(r, ctx), phi_weights(r, length, mod)), (poly_gexp(g, ctx), cubic)]
    for got, weights in cases:
        expected = _gexp_fn(ctx, full_gexp_sum(weights, length, mod))
        assert got.length == length
        assert got._res == expected._res
        assert got.tail == expected.tail == tail


@pytest.mark.parametrize("p, M", [(3, 40), (5, 30), (11, 20)])
def test_trimmed_weights_match_the_full_sum(p, M):
    """At the default length the kernel's scale E = nu(floor(last/2)) is
    large: its sums run mod up to p^(M+E), while each weight a_k is kept
    only mod p^(M - nu(k-1)), and not at all once nu(k-1) >= M.  phi_fr at
    a generic r and a cubic poly_gexp still give the record and tail of the
    full sum."""
    ctx = PadicContext(p, M)
    mod, length = p ** M, gexp_length_for(p, M)
    r = Fraction(1234, 4567)
    g = [1 + p * Fraction(2, 13), Fraction(-5, 17), Fraction(7, 19)]
    cubic = [residue(math.factorial(k) * (c - (k == 1)), mod) for k, c in enumerate(g, 1)]
    cases = [(phi_fr(r, ctx), phi_weights(r, length, mod)), (poly_gexp(g, ctx), cubic)]
    for got, weights in cases:
        expected = _gexp_fn(ctx, full_gexp_sum(weights, length, mod))
        assert (got._res, got.tail) == (expected._res, expected.tail)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
@pytest.mark.parametrize("M", [1, 4, 20])
def test_gexp_kernel_refuses_weights_outside_the_certificate(p, M):
    """The kernel runs only on weights that meet the tail certificate's
    hypotheses, v(w_1) >= 1 and v(w_k) >= v_p(k!), and raises ValueError on
    others: a unit w_1, and the weights of f_r at an r = A/B with p | B,
    whose w_p is a unit, at length p and at the default length."""
    ctx = PadicContext(p, M)
    r = Fraction(p + 1, p * (p + 2))
    for length in (p, gexp_length_for(p, M)):
        for weights in ([1 + p * k for k in range(length)], phi_weights(r, length, p ** M)):
            with pytest.raises(ValueError, match="outside the tail certificate"):
                _gexp_kernel(ctx, weights, length)


@st.composite
def lvalue_cases(draw):
    """(ctx, phi) for the L-value records: a drawn expansion (negative shifts,
    exact tails, tails below the precision, 1-7 coefficients) or phi_r at
    its default length or a shorter one, whose certificate may fall short."""
    ctx = PadicContext(draw(st.sampled_from((2, 3, 5, 7, 11, 13))), draw(st.integers(1, 12)))
    p = ctx.p
    if draw(st.booleans()):
        return ctx, draw(expansions(ctx))[0]
    r = Fraction(draw(st.integers(-60, 60).filter(lambda a: a % p)),
                 draw(st.integers(1, 30).filter(lambda d: d % p)))
    default = gexp_length_for(p, ctx.precision)
    return ctx, phi_fr(r, ctx, length=draw(st.one_of(st.just(default), st.integers(1, default))))


def full_l_values(phi, K):
    """phi(-1 - k), k = 0..K, each mod p^claim as eval claims it: the x = -1
    case of _line, in an LValues record."""
    shift, residues, claims = _line(phi, -1, K)
    return LValues(phi.ctx, tuple(residues), claims[0], shift, phi.min_valuation())


@settings(SETTINGS, max_examples=120)
@given(st.data())
def test_graded_l_values_are_l_values_mod_the_graded_power(data):
    """Value k of l_values is that of _line at x = -1 mod
    p^(claim - shift - v_p(k!)), with the same claim, shift and norm, and
    l_value sums over it equal those over the values mod p^claim in value and
    claim."""
    ctx, phi = data.draw(lvalue_cases())
    p = ctx.p
    K = factorial_length_for(p, ctx.precision) + data.draw(st.integers(0, 3))
    full, graded = full_l_values(phi, K), l_values(phi, K)
    assert (graded.ctx, graded.claim, graded.shift, graded.norm) == \
        (full.ctx, full.claim, full.shift, full.norm)
    assert len(graded.residues) == K + 1
    for k, (a, g) in enumerate(zip(full.residues, graded.residues)):
        assert g == a % p ** max(0, full.claim - full.shift - vp_factorial(k, p)), (phi, k)
    target = data.draw(st.integers(1, ctx.precision))
    for s, _ in data.draw(st.lists(points(ctx), min_size=3, max_size=3)):
        got = l_value(phi, s, target=target)
        assert got == l_value(phi, s, target=target, values=full), (phi, s, target)


@settings(SETTINGS, max_examples=60)
@given(st.data())
def test_phi_and_psi_read_the_graded_record_as_the_full_one(data):
    """Phi and Psi, which read l_values, equal the same sums over the values
    mod p^claim of phi_r's default expansion, in value and claim."""
    ctx = PadicContext(data.draw(st.sampled_from((2, 3, 5, 7, 11, 13))),
                       data.draw(st.integers(1, 12)))
    p = ctx.p
    r = Fraction(data.draw(st.integers(-9999, 9999).filter(lambda a: a % p)),
                 data.draw(st.integers(1, 999).filter(lambda d: d % p)))
    target = data.draw(st.integers(1, ctx.precision))
    full = full_l_values(phi_fr(r, ctx), factorial_length_for(p, target))
    twist = principal_part(ctx.number(r))
    for s, _ in data.draw(st.lists(points(ctx), min_size=2, max_size=2)):
        want = l_value(None, s, target=target, values=full)
        assert Phi(r, s, ctx, target=target) == want, (r, s, target)
        want = principal_power(twist, s) * l_value(None, (s + 1) / r - 1, target=target,
                                                   values=full)
        assert Psi(r, s, ctx, target=target) == want, (r, s, target)


@settings(SETTINGS, max_examples=60)
@given(st.data())
def test_psi_matches_the_mahler_oracle_of_its_integer_values(data):
    """Psi(s) = sum_(n <= K) b_n binom(S, n) mod its claim at every lift S
    of s, K = factorial_length_for(p, M), where b_n are the forward
    differences at 0 of f(m) = <r>^m psi_tilde(m) mod p^M, m <= K.  Psi is
    sum a_n (s)_n with a_n in Z_p, so b_n = n! a_n and every term past K is
    0 mod p^M.  The oracle never reads phi_r."""
    p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    M = data.draw(st.integers(1, 10))
    ctx, mod, K = PadicContext(p, M), p ** M, factorial_length_for(p, M)
    r = Fraction(data.draw(st.integers(-9999, 9999).filter(lambda a: a % p)),
                 data.draw(st.integers(1, 999).filter(lambda d: d % p)))
    R = residue(r, mod)
    twist, Rinv = R * pow(pow(R, p ** M, mod), -1, mod) % mod, pow(R, -1, mod)
    f, psi = [1], 1  # psi_tilde(m) = 1 + (m/r) psi_tilde(m-1)
    for m in range(1, K + 1):
        psi = (1 + m * Rinv * psi) % mod
        f.append(pow(twist, m, mod) * psi % mod)
    b = []
    for _ in range(K + 1):
        b.append(f[0])
        f = [(y - x) % mod for x, y in zip(f, f[1:])]
    for s, lifts in data.draw(st.lists(points(ctx), min_size=3, max_size=3)):
        got = Psi(r, s, ctx)
        if not isinstance(s, PadicNumber):
            assert got.abs_precision == M, (r, s)
        for S in (residue(lift, mod) for lift in lifts):
            total, c = 0, 1  # c = binom(S, n)
            for n, bn in enumerate(b):
                total, c = total + bn * c, c * (S - n) // (n + 1)
            assert agrees(got, Fraction(total), ctx), (r, s, S)
