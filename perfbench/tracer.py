"""Per-layer tracing from outside the package.

Tracer.install replaces a function at every name it is bound to: its
module attribute, each `from ... import` copy in a sibling module and each
class attribute (so PadicNumber.__add__ and __radd__ both count as add).
Hot helpers are only counted; the rest also record a span
(name, start, end, parent, op id) and accumulate self time, which is the
span's duration minus the time covered by its child spans.  Spans stay in
memory until dump().  uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
import warnings

# (layer name, module, attribute or Class.attribute, kind)
TARGETS = (
    ("exact.vp", "exact", "vp", "count"),
    ("padic.from_rational", "padic", "from_rational", "count"),
    ("padic.PadicNumber.add", "padic", "PadicNumber.__add__", "count"),
    ("padic.PadicNumber.mul", "padic", "PadicNumber.__mul__", "count"),
    ("padic.PadicNumber.div", "padic", "PadicNumber.__truediv__", "count"),
    ("padic.PadicNumber.div", "padic", "PadicNumber.__rtruediv__", "count"),
    ("padic.teichmuller", "padic", "teichmuller", "count"),
    ("padic.principal_power", "padic", "principal_power", "span"),
    ("mahler.MahlerFn.eval", "mahler", "MahlerFn.eval", "span"),
    ("mahler.convolve", "mahler", "convolve", "span"),
    ("mahler.from_gexp", "mahler", "from_gexp", "span"),
    ("measure.dirac", "measure", "dirac", "span"),
    ("measure.integrate", "measure", "integrate", "span"),
    ("transform.l_value", "transform", "l_value", "span"),
    ("transform.s_transform", "transform", "s_transform", "span"),
    ("transform.one_minus_x_pow", "transform", "one_minus_x_pow", "span"),
    ("transform.two_var", "transform", "two_var", "span"),
    ("transform.l_x", "transform", "l_x", "span"),
    ("gamma_padic.phi_fr", "gamma_padic", "phi_fr", "span"),
    ("gamma_padic.poly_gexp", "gamma_padic", "poly_gexp", "span"),
    ("gamma_padic.Phi", "gamma_padic", "Phi", "span"),
    ("gamma_padic.Psi", "gamma_padic", "Psi", "span"),
    ("gamma_complex.quad", "gamma_complex", "quad", "quad"),
    ("gamma_complex.gfn", "gamma_complex", "gfn", "span"),
    ("gamma_complex.lgfn", "gamma_complex", "lgfn", "span"),
    ("gamma_complex.mellin_phi", "gamma_complex", "mellin_phi", "span"),
    ("cli.main", "cli", "main", "span"),
)


class Stat:
    __slots__ = ("calls", "self_s", "neval", "warnings")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.neval = 0
        self.warnings = 0

    def as_dict(self):
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    def __init__(self, max_spans=200_000):
        self.stats = {}
        self.spans = []
        self.dropped = 0
        self.max_spans = max_spans
        self.op_id = -1
        self._stack = []       # [span id, start, child seconds]
        self._next_id = 0
        self._undo = []

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    # -- wrappers -----------------------------------------------------------

    def counted(self, name, fn):
        st = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def spanned(self, name, fn):
        st = self.stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                st.calls += 1
                st.self_s += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(self.spans) < self.max_spans:
                    self.spans.append((name, frame[1], end, parent, self.op_id, sid))
                else:
                    self.dropped += 1
        return wrapper

    def quad(self, name, fn):
        """A span around scipy's quad that also counts integrand calls and
        the IntegrationWarnings quad raises (recorded, not re-shown)."""
        from scipy.integrate import IntegrationWarning
        st = self.stat(name)

        def call(func, a, b, *args, **kwargs):
            def integrand(x, *extra):
                st.neval += 1
                return func(x, *extra)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(integrand, a, b, *args, **kwargs)
            st.warnings += sum(issubclass(w.category, IntegrationWarning)
                               for w in caught)
            return out
        return functools.wraps(fn)(self.spanned(name, call))

    # -- installation -------------------------------------------------------

    def install(self, package, modules):
        """Wrap every TARGETS entry at all of its bindings.  package is the
        imported incgamma, modules maps short names to its submodules."""
        homes = [package] + list(modules.values())
        for name, mod, attr, kind in TARGETS:
            owner = modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                orig = getattr(owner, cls_name).__dict__[meth]
            else:
                orig = getattr(owner, attr)
            wrapped = getattr(self, {"count": "counted", "span": "spanned",
                                     "quad": "quad"}[kind])(name, orig)
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is orig:
                        self._rebind(home, key, orig, wrapped)
                    elif isinstance(value, type) and value.__module__.startswith(
                            package.__name__):
                        for ckey, cval in list(vars(value).items()):
                            if cval is orig:
                                self._rebind(value, ckey, orig, wrapped)

    def _rebind(self, owner, key, orig, wrapped):
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, orig))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- output -------------------------------------------------------------

    def dump(self, path, header):
        """Write the header and every span as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, dropped_spans=self.dropped)) + "\n")
            for name, start, end, parent, op, sid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
