"""Incomplete gamma functions at the p-adic and archimedean places.

The p-adic side builds continuous functions on Z_p out of truncated
exponential generating functions, transports them through Mahler expansions
and the incomplete-Mellin-type transforms S^y and L, and evaluates the
resulting interpolation Psi_{r,p}.  The complex side evaluates the matching
incomplete gamma integrals by certified-tail quadrature.  Both sides
interpolate one rational sequence, which is what the test suite pins down.
"""

from .exact import INF, as_rational, binom, digit_sum, falling, vp, vp_factorial
from .padic import (
    DivergentSeriesError,
    PadicContext,
    PadicNumber,
    PrecisionError,
    congruent,
    from_rational,
    p_exp,
    principal_part,
    principal_power,
    teichmuller,
)
from .series import TruncSeries, gexp
from .mahler import (
    ExactMahler,
    MahlerFn,
    Tail,
    convolve,
    from_gexp,
    gexp_length_for,
    gexp_tail_floor,
)
from .measure import dirac, integrate, mu_psi_x
from .transform import (
    AmiceElem,
    factorial_length_for,
    l_value,
    l_values,
    l_x,
    one_minus_x_pow,
    parts_check,
    s_transform,
    two_var,
)
from .gamma_padic import (
    CompatibilityError,
    GammaValue,
    Phi,
    PlaceExcludedError,
    Psi,
    compatible_cubic,
    f_r_series,
    fe_coefficients,
    functional_eq_check,
    functional_eq_parts,
    gamma_p,
    phi_fr,
    phi_values_exact,
    poly_gexp,
    psi_tilde,
    require_unit,
)
from .gamma_complex import (
    gammahat,
    gfn,
    lgfn,
    mellin_fe_residual,
    mellin_phi,
    psi_complex,
    upper_gamma,
)

__version__ = "0.1.0"
