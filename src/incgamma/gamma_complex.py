"""The archimedean incomplete gamma integrals.

Standardized forms used throughout:

    gfn(s, r)  = r^{s+1} int_{-inf}^0 (1-x)^s e^{rx} dx        (r > 0)
    lgfn(s, r) = r^{s+1} int_0^1     (1-x)^s e^{rx} dx        (Re s > -1)

At integer s = m these produce r^m psi_tilde(m), the same rational
sequence the finite places interpolate; psi_complex packages the two
orientations (r > 0 through gfn, r < 0 through lgfn and the complete
factor).  gfn, lgfn and mellin_phi share one quadrature, _contour, which
runs in log scale: every value inside double range is reachable, and one
beyond it raises OverflowError.  Each semi-infinite contour is cut where
an explicit bound puts the discarded tail below TAIL_TOL, so the reported
tolerance is honest rather than hopeful.  quad is QUADPACK's globally
adaptive 21-point Gauss-Kronrod scheme in pure Python: the module, like
the package, needs only the standard library.
"""

from __future__ import annotations

import cmath
import heapq
import math
from operator import mul, neg

from .gamma_padic import fe_coefficients

# quad's tolerances apply to the integrand scaled to peak 1; TAIL_TOL, the
# bound on what each cut discards, sits below EPSABS so the cut never
# dominates the reported error.
EPSABS = EPSREL = 1e-12
LIMIT = 200
TAIL_TOL = 1e-13

# QUADPACK's qk21 rule on [-1, 1]: the Kronrod nodes 1 > x_0 > ... > x_9 > 0
# and 0, with their weights, and the weights of the Gauss nodes x_1, x_3,
# ..., x_9.  K21 is exact through degree 31, G10 through degree 19.
_X = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
      0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
      0.2943928627014602, 0.14887433898163122)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
       0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
       0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
# the whole rule with ascending nodes; the Gauss nodes sit at the odd indices
_NODES = (*(-x for x in _X), 0.0, *reversed(_X))
_KRONROD = _WK + _WK[-2::-1]
_GAUSS = _WG + _WG[::-1]


def _panel(fn, lo: float, hi: float) -> tuple:
    """quad's heap entry for [lo, hi]: (-err, lo, hi, K21), err = |K21 - G10|."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    ys = [fn(c + h * x) for x in _NODES]
    k = h * sum(map(mul, _KRONROD, ys))
    return -abs(k - h * sum(map(mul, _GAUSS, ys[1::2]))), lo, hi, k


def quad(fn, a: float, b: float, *, epsabs=EPSABS, epsrel=EPSREL, limit=LIMIT, points=None):
    """int_a^b fn(x) dx for a <= b, as (value, abserr); fn may be complex.

    QUADPACK's globally adaptive Gauss-Kronrod scheme: [a, b] is split at
    points, then the panel with the largest error is bisected until the
    errors sum to at most max(epsabs, epsrel |value|) or limit panels exist.
    """
    edges = sorted({a, b, *(x for x in points or () if a < x < b)})
    heap = [_panel(fn, lo, hi) for lo, hi in zip(edges, edges[1:])]
    heapq.heapify(heap)
    while True:
        value = sum(entry[3] for entry in heap)
        error = sum(-entry[0] for entry in heap)
        if error <= max(epsabs, epsrel * abs(value)) or len(heap) >= limit:
            return value, error
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        heapq.heappush(heap, _panel(fn, lo, mid))
        heapq.heappush(heap, _panel(fn, mid, hi))


def _contour(s, f, a: float, b: float, r: float = 1.0, points=()):
    """r^{s+1} int_a^b (1-x)^s e^{f(x)} dx for real f, r > 0 and b <= 1.

    The integrand is exp(s log1p(-x) + f(x) - peak), peak the largest real
    exponent on a 17-point grid over [a, b] packed towards b; e^peak
    r^{Re s + 1} goes back on in log scale, raising OverflowError past
    double range.  Non-real s integrates the complex integrand, r^{i Im s}
    inside.  Every 4th grid point joins points as a breakpoint, so quad
    starts on four panels and samples a narrow peak away from b that one
    21-point panel over [a, b] steps over.
    """
    sr, si = float(s.real), float(s.imag)
    top = math.nextafter(b, a)  # (1-x)^s may be singular at b = 1
    grid = [top - (top - a) * (j / 16) ** 2 for j in range(17)]
    peak = max(sr * math.log1p(-x) + f(x) for x in grid)
    points = [*grid[4:-1:4], *points]
    if si == 0:
        val = quad(lambda x: math.exp(sr * math.log1p(-x) + f(x) - peak), a, b, points=points)[0]
    else:
        c = complex(-peak, si * math.log(r))  # a shared inner def costs a call per point
        val = quad(lambda x: cmath.exp(s * math.log1p(-x) + f(x) + c), a, b, points=points)[0]
    mag = abs(val)
    if mag == 0:
        return val
    return val / mag * math.exp(peak + (sr + 1.0) * math.log(r) + math.log(mag))


def _cut(a: float, lam: float, t: float, log_tol: float) -> float:
    """Some t' >= t with log((2/lam) t'^a e^{-lam t'}) <= log_tol.

    Past 2a/lam the log bound is concave and decreasing, so Newton aimed
    half a unit below log_tol is a valid cut from its first step on and
    stops within a factor e of the target.  a < 0 counts as 0 (t' >= 1).
    """
    a = max(a, 0.0)
    t = start = max(t, 2.0 * a / lam)
    for _ in range(64):
        g = math.log(2.0 / lam) + a * math.log(t) - lam * t - log_tol
        if g <= 0 and (g > -1 or t == start):
            break
        t -= (g + 0.5) / (a / t - lam)
    return t


def _spike(slope: float, at=float) -> list:
    """quad's breakpoint at(40 / slope), 40 widths into a spike of width
    1/slope at an end of the contour, when slope > 40, else none: there the
    nodes of quad's first panel at that end step over the spike."""
    return [at(40.0 / slope)] if slope > 40 else []


def gfn(s, r: float):
    """r^{s+1} int_{-inf}^0 (1-x)^s e^{rx} dx for r > 0.

    Returns a float for real s, complex otherwise.  At s = m this is
    r^m psi_tilde(m); the complete limit is gammahat through
    Gamma(s, x) = e^{-x} gfn(s-1, x).  The tail past the cut X <= -1 is
    at most (2/r)(1-X)^a e^{rX} (a = Re s) once 1 - X >= 2a/r.  The spike
    of width 1/r at x = 0 gets _spike's breakpoint.
    """
    r = float(r)
    if r <= 0:
        raise ValueError("gfn needs r > 0; use lgfn/psi_complex below zero")
    X = 1.0 - _cut(float(s.real), r, 2.0, math.log(TAIL_TOL) - r)
    return _contour(s, lambda x: r * x, X, 0.0, r, _spike(r, neg))


def lgfn(s, r: float):
    """r^{s+1} int_0^1 (1-x)^s e^{rx} dx for Re s > -1.

    For real s in (-1, 0) the substitution u = (1-x)^{1+s} removes the
    endpoint singularity:
        int_0^1 (1-x)^s e^{rx} dx = (1/(1+s)) int_0^1 e^{r(1 - u^{1/(1+s)})} du.
    Non-real s below the axis strip is rejected rather than integrated
    against a singular endpoint.  r < 0 takes the principal r^{s+1}; the
    spike of width 1/|r| at x = 0 then gets _spike's breakpoint.
    """
    r = float(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    a = float(s.real)
    if s.imag != 0 and a < 0:
        raise ValueError("non-real s needs Re s >= 0 here")
    if a <= -1:
        raise ValueError("need Re s > -1")
    if a >= 0:
        val = _contour(s, lambda x: r * x, 0.0, 1.0, abs(r), _spike(-r))
    else:  # at s = 0 the helper's r^{s+1} carries |r|^{1+a}/(1+a); near
        e = 1.0 / (1.0 + a)  # u = 1, 1 - u^e is about e (1 - u)
        val = _contour(0.0, lambda u: r * (1.0 - u ** e), 0.0, 1.0,
                       abs(r) ** (1.0 + a) * e, _spike(-r, lambda w: 1.0 - w / e))
    if r > 0:
        return val
    out = complex(-1.0) ** (s + 1) * val
    return out.real if out.imag == 0 else out


def gammahat(s: float) -> float:
    """The complete gamma factor at real s; exact factorials at positive
    integers."""
    if float(s).is_integer() and s >= 1:
        return float(math.factorial(int(s) - 1))
    return math.gamma(s)


def upper_gamma(s, x: float):
    """Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt = e^{-x} gfn(s-1, x), x > 0."""
    return math.exp(-x) * gfn(s - 1, x)


def psi_complex(r: float, m: int) -> float:
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
        return float(gfn(m, r))
    return float((-lgfn(m, r) + math.exp(r) * gammahat(m + 1)).real)


def _poly_shift_coeffs(g: list) -> list:
    """beta with f(1 - t) = sum_j beta_j t^j for f = sum_k g_k x^k."""
    deg = len(g)
    beta = [0.0] * (deg + 1)
    for k in range(1, deg + 1):
        for j in range(k + 1):
            beta[j] += g[k - 1] * math.comb(k, j) * (-1.0) ** j
    return beta


def mellin_phi(coeffs, s):
    """int_{-inf}^0 (1-x)^s e^{f(x)} dx for a polynomial f = sum g_k x^k.

    The archimedean Phi: same weight data as poly_gexp, so the two sides
    of the functional equation can be compared place by place.  Rejects
    weights that grow along the contour.  With t = 1 - x and
    f(1 - t) = P(t) = sum beta_j t^j, beta_n < 0, the lower-order terms eat
    at most half the leading one for t >= T0, so P(t) <= -lam t with
    lam = |beta_n| T0^{n-1} / 2, and the tail past T is at most
    (2/lam) T^a e^{-lam T} (a = Re s).  The slope g_1 at 0 gets _spike's
    breakpoint, as gfn's r does.
    """
    g = [float(c) for c in coeffs]
    beta = _poly_shift_coeffs(g)
    n = len(beta) - 1
    while n > 0 and beta[n] == 0:
        n -= 1
    if n == 0 or beta[n] >= 0:
        raise ValueError("weight does not decay along the negative axis")
    lead = abs(beta[n])
    T0 = max(1.0, 1.0 + 2.0 * sum(abs(b) for b in beta[:n]) / lead)
    T = _cut(float(s.real), lead * T0 ** (n - 1) / 2.0, T0, math.log(TAIL_TOL))

    def f(x: float) -> float:
        acc = 0.0
        for c in reversed(g):
            acc = (acc + c) * x
        return acc

    return _contour(s, f, 1.0 - T, 0.0, points=_spike(g[0], neg))


def mellin_fe_residual(coeffs, s) -> float:
    """Relative residual of 1 + s Phi(s-1) = sum_m (-1)^m c_m Phi(s+m)
    for the archimedean Phi; c_m are the Taylor coefficients of f' at 1."""
    lhs = 1.0 + s * mellin_phi(coeffs, s - 1)
    rhs = 0.0
    for m, c in enumerate(fe_coefficients(coeffs)):
        if c:
            rhs += (-1.0) ** m * float(c) * mellin_phi(coeffs, s + m)
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
