"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload psi-cold --seeds 1 2 3 4 5 --seconds 20

Runs run.py once per seed, one after another, and prints for each metric
the median and the distance between the first and third quartiles as a
share of the median, next to a third of the bound in BENCHMARK.json.
--out appends every result line to a JSON-lines file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "info": json.loads(lines[-2]), **result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed ops", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{args.workload:10} {name:12} median {med:12.5g}  spread {spread:7.4f}"
              f"  bound/3 {bounds.get(name, float('nan')) / 3:7.4f}")


if __name__ == "__main__":
    main()
