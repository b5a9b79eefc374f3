"""Self-test of the traced run: two traced runs of the same workload and
seed must give identical values for every count metric.

    python3 perfbench/selftest.py [--workload NAME|all] [--seed N]

Defaults to the two quick workloads.  Exits 1 and names each count that
differs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
QUICK = ("scalar-stabilize", "planar-metric")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="quick")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = {"quick": QUICK,
             "all": [w["name"] for w in spec["workloads"]]}.get(
        args.workload, [args.workload])
    bad = 0
    for name in names:
        runs = [traced_run(name, args.seed) for _ in range(2)]
        counts = [k for k in runs[0] if units[k] in ("count", "ratio")]
        diff = {k: (runs[0][k], runs[1][k]) for k in counts
                if runs[0][k] != runs[1][k]}
        bad += bool(diff)
        print(f"{name}: {len(counts)} count metrics "
              + ("identical" if not diff else f"DIFFER {diff}")
              + f"; {runs[0]['trace.spans']} spans, tracing overhead "
              + ", ".join(f"{r['trace.overhead_s']:.3f} s" for r in runs))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
