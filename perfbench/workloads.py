"""The four seeded workloads.

Each workload yields its ops in blocks.  A block holds every op shape of the
workload once, in a seeded order, so a run that stops at a block boundary
always measures the same mix whatever the seed.  An op goes through three
steps: prepare builds its inputs and its oracle (untimed), run calls the
package (timed), check compares the result with the oracle (untimed).

Nothing here imports incgamma at module level; the worker passes in the
loaded modules, and every call goes through a module attribute so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import oracles

CLI_M_MAX = 20
PSI_COLD_GRID = tuple((p, k) for p in (3, 5, 7, 11) for k in (20, 30, 40))

WARM_KEYS = ((Fraction(2), 3, 60), (Fraction(3), 2, 40), (Fraction(5, 3), 7, 40),
             (Fraction(-2), 5, 40), (Fraction(3, 2), 11, 30))
WARM_M_MAX = 5000

OP_PRIMES = (3, 5)
OP_PREC = 30
OP_TARGET = 25
OP_WINDOW = 48                      # expansion length for the group law
PHI_R = (Fraction(2), Fraction(-2), Fraction(7, 2), Fraction(4, 7))

COMPLEX_R = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3),
             Fraction(-1), Fraction(-1, 2))
# psi_complex starts to overflow at m = 98 for r = 1/2 (m = 129 for r = 3),
# and gfn misses 1e-8 for Re s >= 6.5 at r = 1/2 (8.5 at r = 1), so the
# timed mix stays below both; probe() keeps measuring the region above.
PSI_M_MAX_POS = 90
PSI_M_MAX_NEG = 170
GFN_A_MAX = 5.0
GFN_B_MAX = 40.0
GFN_R = (0.5, 1.0, 2.0, 3.0)
GFN_POOL = 1024      # the median gfn latency of a 256-point pool moved 10% by seed
REL_TOL = 1e-8
FE_TOL = 1e-7


def _unit_fraction(rng, p, num_max, den_max, seen):
    """A nonzero rational a/b not in seen, a unit at p; added to seen."""
    while True:
        a = rng.randrange(1, num_max) * rng.choice((1, -1))
        b = rng.randrange(1, den_max)
        r = Fraction(a, b)
        if r in seen or r.numerator % p == 0 or r.denominator % p == 0:
            continue
        seen.add(r)
        return r


def _random_coeffs(rng, p, width, scale_exp=0):
    """Mahler coefficients with a unit leading term, scaled by p^scale_exp."""
    unit = rng.randrange(1, p ** 6)
    while unit % p == 0:
        unit = rng.randrange(1, p ** 6)
    coeffs = [unit] + [rng.randrange(p ** 6) for _ in range(width)]
    return [c * p ** scale_exp for c in coeffs]


def _check_pairs(pairs, k):
    for i, (x, y) in enumerate(pairs):
        why = oracles.agree(x, y, k)
        if why is not None:
            return f"pair {i}: {why}"
    return None


class Workload:
    name = ""
    min_ops = 100      # at least ten latencies above the 90th percentile
    trace_blocks = 1   # blocks in a traced run, fixed so counts repeat

    def __init__(self, lib, seed):
        self.lib = lib

    @staticmethod
    def blocks(seed):
        raise NotImplementedError

    def prepare(self, op):
        """(args, oracle) for one op; untimed."""
        raise NotImplementedError

    def run(self, args):
        raise NotImplementedError

    def check(self, op, oracle, result):
        """None when the result is right, else the reason."""
        raise NotImplementedError

    @staticmethod
    def shape(op):
        """The op's cell in the block, for per-shape latencies."""
        return op[0]


class PsiCold(Workload):
    """In-process interp-check on a fresh r per op, so every cache misses."""

    name = "psi-cold"
    min_ops = 120      # ten blocks: the median sits between two cells

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        with contextlib.redirect_stdout(io.StringIO()):
            lib.cli.main(["psi-tilde", "--r", "2", "--m-max", "2"])

    @staticmethod
    def blocks(seed):
        rng = random.Random(f"psi-cold/{seed}")
        seen = set()
        while True:
            cells = list(PSI_COLD_GRID)
            rng.shuffle(cells)
            yield [(_unit_fraction(rng, p, 10 ** 4, 10 ** 3, seen), p, k)
                   for p, k in cells]

    @staticmethod
    def shape(op):
        return f"p={op[1]} prec={op[2]}"

    def prepare(self, op):
        r, p, k = op
        argv = ["interp-check", f"--r={r}", "--p", str(p), "--prec", str(k),
                "--m-max", str(CLI_M_MAX)]
        return argv, oracles.twisted_residues(r, p, k, CLI_M_MAX)

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(argv)
        return code, buf.getvalue()

    def check(self, op, oracle, result):
        _, p, k = op
        code, text = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        rows = doc["rows"]
        if not doc["pass"] or len(rows) != CLI_M_MAX + 1:
            return "document not passing or rows missing"
        for m, row in enumerate(rows):
            if row["m"] != m or row["status"] != "pass":
                return f"row {m}: status {row['status']}"
            if row["precision_claim"] != f"mod {p}^{k}":
                return f"row {m}: claim {row['precision_claim']}"
            if row["value"] != str(oracle[m]):
                return f"row {m}: value {row['value']} != {oracle[m]}"
        return None


class PsiWarm(Workload):
    """Psi over many s at five fixed (r, p, prec) keys with warm caches."""

    name = "psi-warm"
    trace_blocks = 20

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.ctxs = [lib.padic.PadicContext(p, k) for _, p, k in WARM_KEYS]
        self.tables = {}
        for (r, _, _), ctx in zip(WARM_KEYS, self.ctxs):
            lib.gamma_padic.Psi(r, 0, ctx)

    @staticmethod
    def blocks(seed):
        rng = random.Random(f"psi-warm/{seed}")
        while True:
            cells = [(i, as_padic) for i in range(len(WARM_KEYS))
                     for as_padic in (False, True)]
            rng.shuffle(cells)
            yield [(i, rng.randint(0, WARM_M_MAX), as_padic)
                   for i, as_padic in cells]

    @staticmethod
    def shape(op):
        r, p, k = WARM_KEYS[op[0]]
        return f"r={r} p={p} prec={k} s={'padic' if op[2] else 'int'}"

    def prepare(self, op):
        i, m, as_padic = op
        if i not in self.tables:
            r, p, k = WARM_KEYS[i]
            self.tables[i] = oracles.twisted_residues(r, p, k, WARM_M_MAX)
        ctx = self.ctxs[i]
        s = ctx.number(m) if as_padic else m
        return (WARM_KEYS[i][0], s, ctx), self.tables[i][m]

    def run(self, args):
        return self.lib.gamma_padic.Psi(*args)

    def check(self, op, oracle, result):
        k = WARM_KEYS[op[0]][2]
        if result.abs_precision < k:
            return f"claims O(p^{result.abs_precision}) < O(p^{k})"
        got = oracles.residue_of(result, k)
        if got != oracle:
            return f"value {got} != {oracle}"
        return None


class Operators(Workload):
    """The operator identities of acceptance criteria 5, 6, 8 and 9."""

    name = "operators"
    trace_blocks = 2
    KINDS = ("group", "two_var", "phi_routes", "fe", "parts")

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        pad, tr = lib.padic, lib.transform
        self.ctxs = {p: pad.PadicContext(p, OP_PREC) for p in OP_PRIMES}
        self.l3 = {p: 2 * tr.factorial_length_for(p, OP_TARGET) for p in OP_PRIMES}
        self.gexp_len = lib.mahler.gexp_length_for(3, OP_TARGET)
        for p, ctx in self.ctxs.items():
            for r in PHI_R:
                for route in ("direct", "dirac"):
                    lib.gamma_padic.Phi(r, 0, ctx, target=OP_TARGET, route=route)

    @staticmethod
    def blocks(seed):
        rng = random.Random(f"operators/{seed}")
        seen = set()
        while True:
            cells = [(kind, p) for kind in Operators.KINDS for p in OP_PRIMES]
            cells.append(("from_gexp", 3))
            rng.shuffle(cells)
            yield [Operators._draw(rng, kind, p, seen) for kind, p in cells]

    @staticmethod
    def _draw(rng, kind, p, seen):
        if kind == "group":
            coeffs = _random_coeffs(rng, p, rng.randint(2, 7), rng.choice((0, 1, 2)))
            return (kind, p, coeffs, rng.randrange(p ** 8), rng.randrange(p ** 8),
                    rng.random() < 0.5, [rng.randrange(41) for _ in range(10)])
        if kind == "two_var":
            coeffs = _random_coeffs(rng, p, rng.randint(2, 7))
            if rng.random() < 0.5:
                x = rng.randrange(p ** 10)
                x_padic = True
            else:
                x = Fraction(rng.randint(-50, 50), rng.choice((1, 2, p + 1)))
                x_padic = False
            y = rng.randrange(p ** 8) if rng.random() < 0.67 else rng.randint(-30, -1)
            return (kind, p, coeffs, x, x_padic, y)
        if kind == "phi_routes":
            return (kind, p, rng.choice(PHI_R),
                    Fraction(rng.randint(-20, 20), rng.choice((1, 2, 7))))
        if kind == "fe":
            b = rng.randint(-4, 4)
            c = rng.randint(1, 4) * (3 if p == 3 else 1)  # c/3 must be 3-integral
            a = 1 - b - c + p * rng.randint(-2, 2)         # f'(0) = 1 mod p
            return (kind, p, a, b, c, rng.randint(-6, 6))
        if kind == "parts":
            lo = rng.randint(-3, 1)
            amice = {lo + i: rng.randrange(p ** 5) for i in range(rng.randint(1, 6))}
            return (kind, p, amice, _random_coeffs(rng, p, rng.randint(0, 5)),
                    rng.randint(-4, 4))
        if kind == "from_gexp":
            return (kind, p, _unit_fraction(rng, p, 50, 50, seen))
        raise ValueError(kind)

    @staticmethod
    def shape(op):
        return f"{op[0]} p={op[1]}"

    def _fn(self, ctx, coeffs):
        m = self.lib.mahler
        return m.MahlerFn(ctx, [ctx.number(c) for c in coeffs], m.Tail.exact())

    def prepare(self, op):
        kind, p = op[0], op[1]
        ctx = self.ctxs[p]
        gp = self.lib.gamma_padic
        if kind == "group":
            _, _, coeffs, y, z, padic, pts = op
            if padic:
                y, z = ctx.number(y), ctx.number(z)
            return (kind, self._fn(ctx, coeffs), y, z, pts), None
        if kind == "two_var":
            _, _, coeffs, x, x_padic, y = op
            return (kind, self._fn(ctx, coeffs), ctx.number(x) if x_padic else x,
                    y, self.l3[p]), None
        if kind == "phi_routes":
            return (kind, op[2], op[3], ctx), None
        if kind == "fe":
            _, _, a, b, c, s = op
            return (kind, gp.compatible_cubic(a, b, c), s, ctx), None
        if kind == "parts":
            _, _, amice, coeffs, x = op
            psi = self.lib.transform.AmiceElem(ctx, amice)
            return (kind, psi, self._fn(ctx, coeffs), x), None
        r = op[2]
        return (kind, gp.f_r_series(r, self.gexp_len), r, ctx), None

    def run(self, args):
        kind = args[0]
        tr, gp, mh = self.lib.transform, self.lib.gamma_padic, self.lib.mahler
        if kind == "group":
            _, phi, y, z, pts = args
            lhs = tr.s_transform(phi, y + z, length=OP_WINDOW)
            rhs = tr.s_transform(tr.s_transform(phi, z, length=OP_WINDOW), y,
                                 length=OP_WINDOW)
            return [(lhs.eval(x), rhs.eval(x)) for x in pts]
        if kind == "two_var":
            _, phi, x, y, l3 = args
            direct = tr.two_var(phi, x, y, target=OP_TARGET)
            return [(direct, tr.s_transform(phi, y, length=l3).eval(x)),
                    (direct, tr.l_x(phi, x).eval(y))]
        if kind == "phi_routes":
            _, r, s, ctx = args
            return [(gp.Phi(r, s, ctx, target=OP_TARGET, route="direct"),
                     gp.Phi(r, s, ctx, target=OP_TARGET, route="dirac"))]
        if kind == "fe":
            _, cubic, s, ctx = args
            return [gp.functional_eq_parts(cubic, s, ctx, target=OP_TARGET)]
        if kind == "parts":
            _, psi, phi, x = args
            return tr.parts_check(psi, phi, x, k=OP_TARGET)
        _, f, r, ctx = args
        series = mh.from_gexp(f, ctx)
        direct = gp.phi_fr(r, ctx, length=self.gexp_len, tail_target=OP_TARGET)
        return series.coeffs, direct.coeffs

    def check(self, op, oracle, result):
        if op[0] == "parts":
            return None if result is True else "integration by parts fails"
        if op[0] == "from_gexp":
            series, direct = result
            if len(series) != len(direct):
                return "expansion lengths differ"
            result = list(zip(series, direct))
        return _check_pairs(result, OP_TARGET)


def gfn_pool(seed):
    """GFN_POOL seeded points (a, b, r); gfn ops draw from these so that the
    30-digit oracle is computed once per point."""
    rng = random.Random(f"complex-gfn/{seed}")
    return [(rng.uniform(0.0, GFN_A_MAX), rng.uniform(-GFN_B_MAX, GFN_B_MAX),
             rng.choice(GFN_R)) for _ in range(GFN_POOL)]


class Complex(Workload):
    """One archimedean evaluation per op: psi_complex, complex gfn, or the
    functional-equation residual of a compatible cubic."""

    name = "complex"
    trace_blocks = 200

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.psi_oracle = {}
        self.gfn_oracle = {}
        self.pool = gfn_pool(seed)
        lib.gamma_complex.psi_complex(2.0, 3)

    @staticmethod
    def blocks(seed):
        rng = random.Random(f"complex/{seed}")
        while True:
            cells = ["psi", "gfn", "fe"]
            rng.shuffle(cells)
            block = []
            for kind in cells:
                if kind == "psi":
                    r = rng.choice(COMPLEX_R)
                    top = PSI_M_MAX_POS if r > 0 else PSI_M_MAX_NEG
                    block.append((kind, r, rng.randint(0, top)))
                elif kind == "gfn":
                    block.append((kind, rng.randrange(GFN_POOL)))
                else:
                    b = rng.randint(-4, 4)
                    c = rng.randint(1, 4)  # keeps the real weight decaying
                    a = 1 - b - c + 35 * rng.randint(-1, 1)
                    block.append((kind, a, b, c, rng.uniform(-1.0, 3.5)))
            yield block

    def prepare(self, op):
        kind = op[0]
        if kind == "psi":
            _, r, m = op
            if (r, m) not in self.psi_oracle:
                self.psi_oracle[r, m] = oracles.scaled_psi_float(r, m)
            return ("psi_complex", float(r), m), self.psi_oracle[r, m]
        if kind == "gfn":
            a, b, r = self.pool[op[1]]
            if op[1] not in self.gfn_oracle:
                self.gfn_oracle[op[1]] = oracles.gfn_reference(a, b, r)
            return ("gfn", complex(a, b), r), self.gfn_oracle[op[1]]
        _, a, b, c, s = op
        cubic = self.lib.gamma_padic.compatible_cubic(a, b, c)
        return ("mellin_fe_residual", cubic, s), None

    def run(self, args):
        name, x, y = args
        return getattr(self.lib.gamma_complex, name)(x, y)

    def check(self, op, oracle, result):
        if op[0] == "fe":
            return None if result <= FE_TOL else f"residual {result:.3e}"
        err = oracles.rel_err(result, oracle)
        return None if err <= REL_TOL else f"relative error {err:.3e}"


WORKLOADS = {w.name: w for w in (PsiCold, PsiWarm, Operators, Complex)}


def probe(lib):
    """The archimedean region the timed mix leaves out, measured as it is:
    psi_complex above PSI_M_MAX_POS and gfn above GFN_A_MAX.

    Returns (attempted, failed, {reason: count}).  Fixed inputs, so the
    counts only move when the program changes.
    """
    gc = lib.gamma_complex
    attempted = 0
    reasons = {}

    def fail(reason):
        reasons[reason] = reasons.get(reason, 0) + 1

    for r in COMPLEX_R[:4]:
        for m in range(PSI_M_MAX_POS + 1, PSI_M_MAX_NEG + 1):
            attempted += 1
            try:
                got = gc.psi_complex(float(r), m)
            except OverflowError:
                fail("psi_complex OverflowError")
                continue
            if oracles.rel_err(got, oracles.scaled_psi_float(r, m)) > REL_TOL:
                fail("psi_complex inaccurate")
    for a in (5.5, 6.5, 7.5, 8.5, 9.5):
        for b in range(-40, 41, 10):
            for r in GFN_R:
                attempted += 1
                got = gc.gfn(complex(a, b), r)
                if oracles.rel_err(got, oracles.gfn_reference(a, b, r)) > REL_TOL:
                    fail("gfn inaccurate")
    return attempted, sum(reasons.values()), reasons

