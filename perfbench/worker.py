"""One benchmark process.

Reads a JSON request on stdin, imports incgamma from the checkout's src/,
runs the workload's set-up, then its ops in a closed loop (one client, one
thread), and prints one JSON result line.  run.py starts a fresh worker for
every measurement so that set-up time and cache state start from nothing.

Request keys: workload, seed, t0 (time.monotonic() just before the worker
was started), mode ("setup": stop after set-up; "timed": run whole blocks
until the ops have taken `seconds` and at least min_ops ran; "fixed": run
exactly `blocks` blocks), trace (wrap the package's layers), spans (file to
write the trace spans to).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("exact", "padic", "series", "mahler", "measure", "transform",
           "gamma_padic", "gamma_complex", "cli")
# The machine's speed drifts by 10-20% over tens of seconds.  A fixed
# pure-Python kernel, timed after every REF_EVERY_S of ops, tracks that
# drift; timings are reported as if the kernel had taken REF_NOMINAL_MS.
REF_NOMINAL_MS = 5.0
REF_EVERY_S = 0.25


def load_package():
    """Import incgamma from the checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import importlib
    package = importlib.import_module("incgamma")
    if Path(package.__file__).resolve().parent != SRC / "incgamma":
        raise ImportError(f"incgamma loaded from {package.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"incgamma.{name}") for name in MODULES}
    return package, mods


def reference_ms():
    """Wall time of a fixed kernel of big-int multiplies and reductions."""
    x, mod = 3, 7 ** 40
    t = time.perf_counter()
    for i in range(20000):
        x = (x * x + i) % mod
    return (time.perf_counter() - t) * 1e3


def run_loop(wl, seed, mode, seconds, blocks, tracer):
    """Run whole blocks; return (ops, refs, failures).

    ops holds (seconds, shape, passed, i) per op, where refs[i] and
    refs[i + 1] are the reference timings taken just before and after it.
    """
    ops = []
    failures = []
    refs = [reference_ms()]
    timed = since_ref = 0.0
    clock = time.perf_counter
    for b, block in enumerate(wl.blocks(seed)):
        if mode == "fixed" and b >= blocks:
            break
        if mode == "timed" and timed >= seconds and len(ops) >= wl.min_ops:
            break
        for op in block:
            if since_ref >= REF_EVERY_S:
                refs.append(reference_ms())
                since_ref = 0.0
            args, oracle = wl.prepare(op)
            if tracer is not None:
                tracer.op_id = len(ops)
            t = clock()
            try:
                result = wl.run(args)
                why = None
            except (Exception, SystemExit) as exc:  # a raising op is a failed op
                why = f"{type(exc).__name__}: {exc}"
            dt = clock() - t
            timed += dt
            since_ref += dt
            if why is None:
                try:
                    why = wl.check(op, oracle, result)
                except Exception as exc:  # an unreadable result is a failed op
                    why = f"check raised {type(exc).__name__}: {exc}"
            if why is not None:
                failures.append(f"{op!r:.120}: {why}")
            ops.append((dt, wl.shape(op), why is None, len(refs) - 1))
    refs.append(reference_ms())
    return ops, refs, failures


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    all order statistics, steadier than one order statistic when the op
    mix leaves gaps between the latencies of its shapes."""
    import numpy as np
    from scipy.special import betainc
    n = len(values)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), np.sort(values)))


def timings(values, total):
    out = {"ops_per_s": len(values) / total if total else 0.0}
    if len(values) >= 2:
        out["op_p50_ms"] = hd_quantile(values, 0.5) * 1e3
        out["op_p90_ms"] = hd_quantile(values, 0.9) * 1e3
        out["sample_p50_ms"] = statistics.median(values) * 1e3
        out["sample_p90_ms"] = statistics.quantiles(values, n=10)[8] * 1e3
    return out


def summarize(ops, refs):
    """Raw timings, and the same with every op scaled by REF_NOMINAL_MS over
    the mean of the reference timings around it."""
    scaled = [(dt * 2 * REF_NOMINAL_MS / (refs[i] + refs[i + 1]), shape, ok)
              for dt, shape, ok, i in ops]
    shapes = {}
    for dt, shape, ok in scaled:
        if ok:
            shapes.setdefault(shape, []).append(dt)
    passed = [dt for dt, _, ok in scaled if ok]
    out = timings(passed, sum(dt for dt, _, _ in scaled))
    out.update(attempted=len(ops), passed=len(passed),
               timed_s=sum(dt for dt, _, _, _ in ops),
               ref_ms=statistics.median(refs),
               raw=timings([dt for dt, _, ok, _ in ops if ok],
                           sum(dt for dt, _, _, _ in ops)),
               shape_p50_ms={k: statistics.median(v) * 1e3
                             for k, v in sorted(shapes.items())})
    return out


def main():
    req = json.loads(sys.stdin.read())
    package, mods = load_package()
    lib = SimpleNamespace(**mods)
    wl = workloads.WORKLOADS[req["workload"]](lib, req["seed"])
    setup_s = time.monotonic() - req["t0"]
    ref = statistics.median(reference_ms() for _ in range(5))
    out = {"setup_raw_s": setup_s, "setup_s": setup_s * REF_NOMINAL_MS / ref}
    if req["mode"] != "setup":
        tracer = None
        if req["trace"]:
            tracer = Tracer()
            tracer.install(package, mods)
        ops, refs, failures = run_loop(wl, req["seed"], req["mode"],
                                       req.get("seconds", 0.0), req.get("blocks", 0),
                                       tracer)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(summarize(ops, refs))
        out["failures"] = failures[:5]
        out["failed"] = len(failures)
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = {name: st.as_dict() for name, st in tracer.stats.items()}
            out["spans"] = len(tracer.spans)
            out["dropped_spans"] = tracer.dropped
            tracer.dump(req["spans"], {"workload": req["workload"],
                                       "seed": req["seed"]})
            out["probe"] = workloads.probe(lib)
    import mpmath
    import scipy
    out["versions"] = {"python": sys.version.split()[0], "scipy": scipy.__version__,
                       "mpmath": mpmath.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
