"""Run one lyapmetric command in this fresh process and record its cost.

    python3 child.py RESULT.json [--trace SPANS.npz --points JSON] -- CLI_ARGS
    python3 child.py RESULT.json --import-only

Writes to RESULT.json the time to import lyapmetric.cli, the time of one
cli.main call and its exit code, and the process's peak resident memory.
With --trace the layer wrappers are installed before the call, the spans
are saved, and the per-layer metrics are added.

Both times are also reported at a fixed reference speed (`*_cal_s`).  The
CPU this runs on changes speed by up to 1.7x for seconds to minutes at a
time, with load from outside the process.  A thread samples that speed
every 10 ms by timing a fixed unit of interpreter work on the same CPU, and
a time is rescaled by NOMINAL_UNIT_S / (mean unit time over its interval).
"""

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

NOMINAL_UNIT_S = 25e-6   # about one unit on an idle 2-core x86-64 VM
SAMPLE_PERIOD_S = 0.01


def _unit():
    s = 0
    for i in range(400):
        s += (i * i) % 7
    return s


class SpeedSampler:
    """Times `_unit` every SAMPLE_PERIOD_S on a daemon thread.  The unit
    holds the interpreter lock throughout, and the process is pinned to one
    CPU, so each sample measures the CPU the command runs on."""

    def __init__(self):
        self.samples = []           # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        clock = time.perf_counter
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t0 = clock()
            _unit()
            self.samples.append((t0, clock() - t0))

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def calibrated(self, start, end):
        """Seconds that [start, end] would take at the nominal speed."""
        inside = [d for t, d in self.samples if start <= t <= end] or \
            [d for _, d in self.samples]
        return (end - start) * NOMINAL_UNIT_S / statistics.fmean(inside)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--points", default="[]")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.cli_args = argv[split + 1:]

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = SpeedSampler()
    sampler.start()

    t0 = time.perf_counter()
    import lyapmetric.cli as cli
    t1 = time.perf_counter()
    result = {"import_s": t1 - t0}

    if not args.import_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t2 = time.perf_counter()
        try:
            rc = cli.main(args.cli_args)
        except SystemExit as exc:          # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        t3 = time.perf_counter()
        result.update(cmd_s=t3 - t2, rc=rc)
    sampler.stop()
    result["import_cal_s"] = sampler.calibrated(t0, t1)
    if not args.import_only:
        result["cmd_cal_s"] = sampler.calibrated(t2, t3)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.write(args.trace)
            from tracer import time_expressions
            spec = args.cli_args[args.cli_args.index("--system") + 1]
            text = Path(spec).read_text() if Path(spec).exists() \
                else cli.catalog.get(spec).spec_text
            parse_ms, f_us, jac_us = time_expressions(
                text, json.loads(args.points))
            result["layers"].update({"expressions.parse_ms": parse_ms,
                                     "expressions.f_us": f_us,
                                     "expressions.jac_us": jac_us,
                                     "trace.span_cost_us":
                                         Tracer.span_cost_us()})

    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
