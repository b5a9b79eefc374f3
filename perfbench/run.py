"""End-to-end benchmark of the lyapmetric command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # + probes

Run from the repository root.  Each operation is one CLI command in a fresh
Python process (closed loop, one client, `--threads 1`).  With `--trace 0`
commands repeat for S seconds; each input runs twice in a row, and the two
`report.json` files must be byte-identical.  Outputs are checked after each
command, outside its timed section.  With `--trace 1` one command runs with
layer wrappers (see tracer.py) and the same command runs once more without,
which gives the tracing overhead.  The last stdout line is one JSON object
with the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import IMPORT_MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
RUN_LIMIT_S = 165        # a run must exit within 180 s
SETUP_SAMPLES = 3        # import times per run, at least


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LYAPMETRIC_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cwd, child_args, timeout):
    """Run child.py in `cwd`; returns its result dict, or None on a crash or
    timeout (subprocess.run kills and reaps the child on timeout)."""
    cwd.mkdir(parents=True, exist_ok=True)
    result = cwd / "result.json"
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(result), *child_args],
                cwd=cwd, env=child_env(), stdout=out, stderr=err,
                timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not result.exists():
        return None
    return json.loads(result.read_text())


def run_command(cmd, cwd, timeout, trace=None):
    cwd.mkdir(parents=True, exist_ok=True)
    for name, text in cmd.files.items():
        (cwd / name).write_text(text, encoding="utf-8")
    extra = ["--trace", str(trace), "--points", json.dumps(cmd.points)] \
        if trace else []
    return spawn(cwd, [*extra, "--", *cmd.argv], timeout)


def import_profile(env_dir):
    """Cumulative import seconds per lyapmetric module, from -X importtime."""
    env_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lyapmetric.cli"],
        cwd=env_dir, env=child_env(), capture_output=True, text=True,
        timeout=60)
    out = dict.fromkeys(IMPORT_MODULES, 0.0)
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in out:
            out[parts[2]] = int(parts[1]) * 1e-6
    return {f"setup.import.{m}_s": v for m, v in out.items()}


class Run:
    """One workload measured for one seed."""

    def __init__(self, workload, seed):
        # bytecode as an installed package has it, so imports compile nothing
        compileall.compile_dir(SRC / "lyapmetric", quiet=1)
        self.wl = workloads.WORKLOADS[workload]
        self.seed = seed
        self.t0 = time.perf_counter()
        self.dir = OUT / f"{workload}-s{seed}-{os.getpid()}"
        self.samples = []       # per command: result dict + "problems"
        self.imports = []       # child results, import-only ones included

    def elapsed(self):
        return time.perf_counter() - self.t0

    def left(self):
        return RUN_LIMIT_S - self.elapsed()

    def command(self, k, index, trace=None):
        """Run, time and check command k on input `index`."""
        cmd = self.wl.make(self.seed, index)
        cwd = self.dir / f"cmd{k}"
        res = run_command(cmd, cwd, self.left(), trace)
        if res is None:
            err = (cwd / "stderr.txt").read_text(errors="replace")[-400:]
            res = {"problems": [f"crashed or timed out: {err.strip()}"]}
        else:
            self.imports.append(res)
            try:
                res["problems"] = self.wl.check(res["rc"], cwd)
            except Exception as exc:   # a malformed output is a failure
                res["problems"] = [f"check raised {exc!r}"]
        res["report"] = cwd / "report.json"
        self.samples.append(res)
        return res

    def same_reports(self, a, b):
        if a["report"].exists() and b["report"].exists() and \
                a["report"].read_bytes() == b["report"].read_bytes():
            return True
        b["problems"].append("report.json differs from the previous run "
                             "of the same input")
        return False

    def failed(self):
        return sum(1 for s in self.samples if s["problems"])

    def measure(self, seconds):
        longest = 0.0
        k = 0
        while k == 0 or self.elapsed() + longest <= seconds:
            start = self.elapsed()
            res = self.command(k, k // 2)
            if k % 2:
                self.same_reports(self.samples[-2], res)
                shutil.rmtree(self.dir / f"cmd{k - 1}", ignore_errors=True)
            longest = max(longest, self.elapsed() - start)
            k += 1
            if "cmd_s" not in res:
                break
        # import-only processes fill what is left of the window
        j = 0
        while len(self.imports) < SETUP_SAMPLES or \
                self.elapsed() + longest <= seconds:
            start = self.elapsed()
            res = spawn(self.dir / f"setup{j}", ["--import-only"], self.left())
            if res is None:
                break
            self.imports.append(res)
            longest = self.elapsed() - start
            j += 1
        done = [s for s in self.samples if "cmd_s" in s]
        n = len(self.samples)
        return {
            "cmd_s.p50": statistics.median(s["cmd_cal_s"] for s in done),
            "setup_s": statistics.median(r["import_cal_s"]
                                         for r in self.imports),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in done),
            "ok_frac": (n - self.failed()) / n,
            "wall.cmd_s.p50": statistics.median(s["cmd_s"] for s in done),
            "wall.setup_s": statistics.median(r["import_s"]
                                              for r in self.imports),
        }, [s["cmd_cal_s"] for s in done]

    def measure_traced(self):
        layers = import_profile(self.dir / "importtime")
        spans = OUT / "spans" / f"{self.wl.name}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        traced = self.command(0, 0, trace=spans)
        plain = self.command(1, 0)
        self.same_reports(traced, plain)
        if "layers" not in traced or "cmd_s" not in plain:
            raise SystemExit(f"traced run failed: {traced['problems']} "
                             f"{plain['problems']}")
        layers.update(traced["layers"])
        layers["trace.overhead_s"] = traced["cmd_cal_s"] - plain["cmd_cal_s"]
        return layers, spans

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def tail_percentile(times):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(times)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(times, n=100)[p - 1]
    return None, None


def run_workload(name, seed, seconds, trace, declared):
    run = Run(name, seed)
    try:
        if trace:
            values, spans = run.measure_traced()
            print(f"{name} seed {seed}: traced run, spans in "
                  f"{spans.relative_to(ROOT)}")
        else:
            values, times = run.measure(seconds)
            p, tail = tail_percentile(times)
            tail_text = f"p{p} {tail:.4f} s" if p else \
                "no tail percentile (fewer than 20 samples)"
            n, failed = len(run.samples), run.failed()
            print(f"{name} seed {seed}: {n} commands in "
                  f"{run.elapsed():.1f} s; cmd_s {tail_text}, n = {len(times)};"
                  f" fail_frac {failed / n:.4g} ({failed}/{n}); "
                  f"determinism pairs checked: {n // 2}; wall time, not "
                  f"rescaled: cmd_s.p50 {values['wall.cmd_s.p50']:.4f} s, "
                  f"setup_s {values['wall.setup_s']:.4f} s")
        for s in run.samples:
            for problem in s["problems"]:
                print(f"  FAIL: {problem}")
        metrics = {}
        for m in declared:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
        return metrics, len(run.samples), run.failed()
    finally:
        run.close()


def run_probes():
    print("known-failing probes (untimed; a fix changes the exit status):")
    for probe in workloads.PROBES:
        cwd = OUT / f"probe-{probe.name}-{os.getpid()}"
        t0 = time.perf_counter()
        try:
            res = run_command(probe.command, cwd, 150)
            rc = None if res is None else res["rc"]
            msg = (cwd / "stderr.txt").read_text(errors="replace").strip()
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        print(f"  {probe.name}: exit {rc} (known defect: exit "
              f"{probe.expected_rc}, {probe.defect}) in "
              f"{time.perf_counter() - t0:.1f} s; "
              f"{msg.splitlines()[-1] if msg else ''}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "lyapmetric" / "cli.py").is_file() or \
            not spec_path.is_file():
        print(f"error: no lyapmetric sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))      # output checks use catalog oracles
    declared = spec["per_layer" if args.trace else "end_to_end"]

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, args.trace,
                               declared)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    if args.workload == "all":
        run_probes()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
