"""The archimedean incomplete gamma integrals.

Standardized forms used throughout:

    gfn(s, r)  = r^{s+1} int_{-inf}^0 (1-x)^s e^{rx} dx        (r > 0)
    lgfn(s, r) = r^{s+1} int_0^1     (1-x)^s e^{rx} dx        (Re s > -1)

At integer s = m these produce r^m psi_tilde(m), the same rational
sequence the finite places interpolate; psi_complex packages the two
orientations (r > 0 through gfn, r < 0 through lgfn and the complete
factor).  All quadrature runs on a truncated interval whose discarded
tail is bounded explicitly before integrating, so the reported tolerance
is honest rather than hopeful.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache

from .gamma_padic import fe_coefficients


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature knobs; tail_tol is the cut bound, kept below epsabs."""

    epsabs: float = 1e-12
    epsrel: float = 1e-12
    limit: int = 200
    tail_tol: float = 1e-13


DEFAULT_QUAD = QuadConfig()


@cache  # an import statement on every quad call costs about 1 us
def _scipy_quad():
    from scipy.integrate import quad as scipy_quad
    return scipy_quad


def quad(fn, a, b, **kwargs):
    """scipy's quad, imported on the first call: only this lane loads scipy."""
    return _scipy_quad()(fn, a, b, **kwargs)


def _quad_real(fn, a, b, cfg: QuadConfig) -> float:
    val, _ = quad(fn, a, b, epsabs=cfg.epsabs, epsrel=cfg.epsrel, limit=cfg.limit)
    return val


def _quad_complex(fn, a, b, cfg: QuadConfig) -> complex:
    re = _quad_real(lambda x: fn(x).real, a, b, cfg)
    im = _quad_real(lambda x: fn(x).imag, a, b, cfg)
    return complex(re, im)


def _gfn_cut(a: float, r: float, tol: float) -> float:
    """X <= 0 with int_{-inf}^X (1-x)^a e^{rx} dx <= (2/r)(1-X)^a e^{rX} <= tol.

    The closed bound needs 1 - X >= max(1, 2a/r), which the start point
    guarantees; after that the exponential drives the loop down quickly.
    """
    X = min(-1.0, 1.0 - max(1.0, 2.0 * a / r))
    while (2.0 / r) * (1.0 - X) ** a * math.exp(r * X) > tol:
        X -= max(1.0, 1.0 / r)
    return X


def gfn(s, r: float, cfg: QuadConfig = DEFAULT_QUAD):
    """r^{s+1} int_{-inf}^0 (1-x)^s e^{rx} dx for r > 0.

    Returns a float for real s, complex otherwise.  At s = m this is
    r^m psi_tilde(m); the complete limit is gammahat through
    Gamma(s, x) = e^{-x} gfn(s-1, x).
    """
    r = float(r)
    if r <= 0:
        raise ValueError("gfn needs r > 0; use lgfn/psi_complex below zero")
    if isinstance(s, complex) and s.imag != 0:
        a = s.real
        X = _gfn_cut(a, r, cfg.tail_tol)
        val = _quad_complex(lambda x: cmath.exp(s * math.log1p(-x) + r * x), X, 0.0, cfg)
        return cmath.exp((s + 1) * math.log(r)) * val
    a = float(s.real if isinstance(s, complex) else s)
    X = _gfn_cut(a, r, cfg.tail_tol)
    val = _quad_real(lambda x: (1.0 - x) ** a * math.exp(r * x), X, 0.0, cfg)
    return r ** (a + 1) * val


def lgfn(s, r: float, cfg: QuadConfig = DEFAULT_QUAD):
    """r^{s+1} int_0^1 (1-x)^s e^{rx} dx for Re s > -1.

    For real s in (-1, 0) the substitution u = (1-x)^{1+s} removes the
    endpoint singularity:

        int_0^1 (1-x)^s e^{rx} dx = (1/(1+s)) int_0^1 e^{r(1 - u^{1/(1+s)})} du.

    Non-real s below the axis strip is rejected rather than integrated
    against a singular endpoint.
    """
    r = float(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    if isinstance(s, complex) and s.imag != 0:
        if s.real < 0:
            raise ValueError("non-real s needs Re s >= 0 here")
        val = _quad_complex(lambda x: cmath.exp(s * math.log1p(-x) + r * x), 0.0, 1.0, cfg)
        return complex(r) ** (s + 1) * val
    a = float(s.real if isinstance(s, complex) else s)
    if a <= -1:
        raise ValueError("need Re s > -1")
    if a >= 0:
        val = _quad_real(lambda x: (1.0 - x) ** a * math.exp(r * x), 0.0, 1.0, cfg)
    else:
        e = 1.0 / (1.0 + a)
        val = _quad_real(lambda u: math.exp(r * (1.0 - u ** e)), 0.0, 1.0, cfg) / (1.0 + a)
    pref = complex(r) ** (a + 1) if r < 0 else r ** (a + 1)
    out = pref * val
    if isinstance(out, complex) and out.imag == 0:
        return out.real
    return out


def gammahat(s: float) -> float:
    """The complete gamma factor at real s; exact factorials at positive
    integers."""
    if float(s).is_integer() and s >= 1:
        return float(math.factorial(int(s) - 1))
    return math.gamma(s)


def upper_gamma(s, x: float, cfg: QuadConfig = DEFAULT_QUAD):
    """Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt = e^{-x} gfn(s-1, x), x > 0."""
    return math.exp(-x) * gfn(s - 1, x, cfg)


def psi_complex(r: float, m: int, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """r^m psi_tilde(m) from the integral side: the archimedean value the
    finite-place interpolation is checked against.

    Positive r reads it from gfn directly; negative r splits into the
    finite lower piece and the complete factor,
    -lgfn(m, r) + e^r gammahat(m+1).
    """
    r = float(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    if r > 0:
        return float(gfn(m, r, cfg))
    val = -lgfn(m, r, cfg) + math.exp(r) * gammahat(m + 1)
    return float(val.real if isinstance(val, complex) else val)


def _poly_shift_coeffs(g: list) -> list:
    """beta with f(1 - t) = sum_j beta_j t^j for f = sum_k g_k x^k."""
    deg = len(g)
    beta = [0.0] * (deg + 1)
    for k in range(1, deg + 1):
        for j in range(k + 1):
            beta[j] += g[k - 1] * math.comb(k, j) * (-1.0) ** j
    return beta


def _mellin_cut(beta: list, a: float, tol: float) -> float:
    """T with int_T^inf t^a e^{P(t)} dt <= (2/lam) T^a e^{-lam T} <= tol.

    P = sum beta_j t^j must have beta_n < 0.  For t >= T0 the lower-order
    terms eat at most half the leading one, so P(t) <= -lam t with
    lam = |beta_n| T0^{n-1} / 2.
    """
    n = len(beta) - 1
    while n > 0 and beta[n] == 0:
        n -= 1
    if n == 0 or beta[n] >= 0:
        raise ValueError("weight does not decay along the negative axis")
    lead = abs(beta[n])
    T0 = max(1.0, 1.0 + 2.0 * sum(abs(b) for b in beta[:n]) / lead)
    lam = lead * T0 ** (n - 1) / 2.0
    T = max(T0, 2.0 * a / lam)
    while (2.0 / lam) * T ** a * math.exp(-lam * T) > tol:
        T += max(1.0, 1.0 / lam)
    return T


def mellin_phi(coeffs, s, cfg: QuadConfig = DEFAULT_QUAD):
    """int_{-inf}^0 (1-x)^s e^{f(x)} dx for a polynomial f = sum g_k x^k.

    The archimedean Phi: same weight data as poly_gexp, so the two sides
    of the functional equation can be compared place by place.  Rejects
    weights that grow along the contour or overflow double range.
    """
    g = [float(c) for c in coeffs]
    beta = _poly_shift_coeffs(g)
    a = float(s.real if isinstance(s, complex) else s)
    T = _mellin_cut(beta, a, cfg.tail_tol)
    X = 1.0 - T

    def f(x: float) -> float:
        acc = 0.0
        for c in reversed(g):
            acc = (acc + c) * x
        return acc

    peak = max(f(X + (0.0 - X) * j / 64.0) for j in range(65))
    if peak > 700.0:
        raise ValueError("weight overflows double precision on the contour")
    if isinstance(s, complex) and s.imag != 0:
        return _quad_complex(lambda x: cmath.exp(s * math.log1p(-x) + f(x)), X, 0.0, cfg)
    return _quad_real(lambda x: (1.0 - x) ** a * math.exp(f(x)), X, 0.0, cfg)


def mellin_fe_residual(coeffs, s, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Relative residual of 1 + s Phi(s-1) = sum_m (-1)^m c_m Phi(s+m)
    for the archimedean Phi; c_m are the Taylor coefficients of f' at 1."""
    lhs = 1.0 + s * mellin_phi(coeffs, s - 1, cfg)
    rhs = 0.0
    for m, c in enumerate(fe_coefficients(coeffs)):
        if c:
            rhs += (-1.0) ** m * float(c) * mellin_phi(coeffs, s + m, cfg)
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
