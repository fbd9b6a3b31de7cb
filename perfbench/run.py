"""incgamma benchmark: one workload, one seed, every output checked.

    python3 perfbench/run.py --workload psi-cold --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the package from src/.
With --trace 0 it starts two set-up-only workers and one timed worker, each
a fresh interpreter, and reports the end-to-end metrics.  With --trace 1 it
runs a fixed number of op blocks twice, untraced and traced, and reports
the per-layer metrics and the tracing overhead; the traced spans go to
.perfbench_out/.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it records
the environment (git sha, Python, scipy, mpmath, nproc) and the failures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0
SETUP_ONLY_RUNS = 2     # plus the timed worker's own set-up: a median of three

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("pass_rate", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

LAYER_STATS = (
    "exact.vp.calls",
    "padic.from_rational.calls",
    "padic.PadicNumber.add.calls",
    "padic.PadicNumber.mul.calls",
    "padic.PadicNumber.div.calls",
    "padic.principal_power.calls",
    "padic.principal_power.self_s",
    "padic.teichmuller.calls",
    "mahler.MahlerFn.eval.calls",
    "mahler.MahlerFn.eval.self_s",
    "mahler.convolve.calls",
    "mahler.convolve.self_s",
    "mahler.from_gexp.self_s",
    "measure.dirac.self_s",
    "measure.integrate.self_s",
    "transform.l_value.calls",
    "transform.l_value.self_s",
    "transform.s_transform.self_s",
    "transform.one_minus_x_pow.self_s",
    "transform.two_var.self_s",
    "transform.l_x.self_s",
    "gamma_padic.phi_fr.calls",
    "gamma_padic.phi_fr.self_s",
    "gamma_padic.poly_gexp.self_s",
    "gamma_padic.Phi.self_s",
    "gamma_padic.Psi.calls",
    "gamma_padic.Psi.self_s",
    "gamma_complex.quad.calls",
    "gamma_complex.quad.self_s",
    "gamma_complex.quad.neval",
    "gamma_complex.quad.warnings",
    "gamma_complex.gfn.self_s",
    "gamma_complex.lgfn.self_s",
    "gamma_complex.mellin_phi.self_s",
    "cli.main.self_s",
)
# derived per-layer metrics: (name, unit)
LAYER_DERIVED = (
    ("gamma_complex.quad.neval_per_call", "ratio"),
    ("mahler.MahlerFn.eval.calls_per_Psi", "ratio"),
    ("gamma_complex.probe.attempted", "count"),
    ("gamma_complex.probe.failed", "count"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.slowdown", "ratio"),
)


def layer_unit(name):
    return "s" if name.endswith("_s") else "count"


class BenchError(RuntimeError):
    pass


def spawn(request, deadline):
    """Run one worker to completion and return its result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before starting a worker")
    request = dict(request, t0=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(request),
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ran past the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_run(args, deadline):
    base = {"workload": args.workload, "seed": args.seed, "trace": False}
    setup_runs = [spawn(dict(base, mode="setup"), deadline)
                  for _ in range(SETUP_ONLY_RUNS)]
    res = spawn(dict(base, mode="timed", seconds=args.seconds), deadline)
    setup_runs.append(res)
    setups = [s["setup_s"] for s in setup_runs]
    values = {"ops_per_s": res["ops_per_s"],
              "op_p50_ms": res.get("op_p50_ms", 0.0),
              "op_p90_ms": res.get("op_p90_ms", 0.0),
              "pass_rate": res["passed"] / res["attempted"],
              "setup_s": statistics.median(setups),
              "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    info = {"setup_samples_s": setups, "timed_s": res["timed_s"], "ref_ms": res["ref_ms"],
            "sample_p50_ms": res.get("sample_p50_ms"), "sample_p90_ms": res.get("sample_p90_ms"),
            "shape_p50_ms": res["shape_p50_ms"],
            "raw": dict(res["raw"], setup_s=statistics.median(
                [s["setup_raw_s"] for s in setup_runs]))}
    return res, metrics, info


def traced_run(args, deadline):
    blocks = WORKLOADS[args.workload].trace_blocks
    base = {"workload": args.workload, "seed": args.seed, "mode": "fixed",
            "blocks": blocks}
    plain = spawn(dict(base, trace=False), deadline)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    res = spawn(dict(base, trace=True, spans=str(spans)), deadline)
    if plain["failed"]:
        res["failed"] += plain["failed"]
        res["failures"] = plain["failures"] + res["failures"]
    layers = res["layers"]
    values = {}
    for name in LAYER_STATS:
        layer, stat = name.rsplit(".", 1)
        values[name] = layers.get(layer, {}).get(stat, 0)
    quad_calls = values["gamma_complex.quad.calls"]
    psi_calls = values["gamma_padic.Psi.calls"]
    probe_attempted, probe_failed, probe_reasons = res["probe"]
    values.update({
        "gamma_complex.quad.neval_per_call":
            values["gamma_complex.quad.neval"] / quad_calls if quad_calls else 0.0,
        "mahler.MahlerFn.eval.calls_per_Psi":
            values["mahler.MahlerFn.eval.calls"] / psi_calls if psi_calls else 0.0,
        "gamma_complex.probe.attempted": probe_attempted,
        "gamma_complex.probe.failed": probe_failed,
        "trace.ops_per_s_untraced": plain["ops_per_s"],
        "trace.ops_per_s_traced": res["ops_per_s"],
        "trace.slowdown":
            plain["ops_per_s"] / res["ops_per_s"] if res["ops_per_s"] else 0.0,
    })
    units = dict([(n, layer_unit(n)) for n in LAYER_STATS] + list(LAYER_DERIVED))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    info = {"blocks": blocks, "spans_file": str(spans.relative_to(ROOT)),
            "spans": res["spans"], "dropped_spans": res["dropped_spans"],
            "probe_failures": probe_reasons,
            "bases": {"gamma_complex.quad.neval_per_call": quad_calls,
                      "mahler.MahlerFn.eval.calls_per_Psi": psi_calls}}
    return res, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        res, metrics, info = (traced_run if args.trace else timed_run)(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
           **res["versions"]}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "env": env,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "failures": res["failures"], **info}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
