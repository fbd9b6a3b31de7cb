"""Truncated power series over Q.

A TruncSeries holds rational coefficients c_0..c_order of a series known
modulo t^(order+1).  The p-adic pipeline reduces these exact coefficients
as late as possible (mahler.from_gexp).  gexp is the exponential of a
series with f(0) = 0.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import as_rational


class TruncSeries:
    """Series known modulo t^(order+1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            coeffs = coeffs[:order + 1]
            while len(coeffs) < order + 1:
                coeffs.append(0)
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        self.coeffs = [as_rational(c) for c in coeffs]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        if n < 0:
            raise IndexError("negative index")
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def constant(self):
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, TruncSeries):
            raise TypeError("expected a TruncSeries")
        return min(self.order, other.order)

    def __add__(self, other):
        order = self._pair(other)
        return TruncSeries([self.coeffs[n] + other.coeffs[n] for n in range(order + 1)])

    def __sub__(self, other):
        order = self._pair(other)
        return TruncSeries([self.coeffs[n] - other.coeffs[n] for n in range(order + 1)])

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            order = self._pair(other)
            a, b = self.coeffs, other.coeffs
            out = []
            for n in range(order + 1):
                acc = a[0] * b[n]
                for k in range(1, n + 1):
                    acc = acc + a[k] * b[n - k]
                out.append(acc)
            return TruncSeries(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "TruncSeries":
        c = as_rational(c)
        return TruncSeries([a * c for a in self.coeffs])

    def derivative(self) -> "TruncSeries":
        if self.order == 0:
            raise ValueError("derivative of an order-0 truncation is unknown")
        return TruncSeries([(n + 1) * self.coeffs[n + 1] for n in range(self.order)])

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order > 4 else ""
        return f"TruncSeries[Q]({head}{tail}; order={self.order})"


def gexp(f: TruncSeries) -> TruncSeries:
    """Grouplike exponential exp(f) of a series with f(0) = 0, by the ODE
    n e_n = sum k f_k e_{n-k}.

    exp of a nonzero rational is not rational; mahler.from_gexp takes the
    p-adic exp of f(0) instead.
    """
    if f.constant() != 0:
        raise ValueError("exact gexp needs f(0) = 0; use mahler.from_gexp")
    e = [Fraction(1)]
    for n in range(1, f.order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += k * f.coeffs[k] * e[n - k]
        e.append(acc / n)
    return TruncSeries(e)
