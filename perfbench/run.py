"""Benchmark of the khovanov package: one workload per invocation.

    python3 perfbench/run.py --workload {homology,jones,moves} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is pure Python and is imported
from ``src`` of this checkout, so there is nothing to build.  Set-up is
timed from process start to the first timed op: the workload process is
started ``SETUP_SAMPLES`` times, each start is timed until it reports
``ready``, and the last one goes on to measure.  The result is the last
line of standard output: ``{"correct", "attempted", "failed", "metrics"}``,
with the end-to-end metrics under ``--trace 0`` and the per-layer metrics,
from spans, under ``--trace 1``.  A copy of the result and, when traced,
the spans are written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("homology", "jones", "moves")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170      # the whole invocation, set-up included


def parse_args(argv):
    p = argparse.ArgumentParser(description="khovanov benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start(cmd, deadline):
    """Start one workload process with a watchdog that kills it at
    ``deadline``; return the process, the watchdog and the seconds until it
    printed ``ready``, or None if it ended before that."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONHASHSEED="0"))
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0 if line.strip() == "ready" else None
    return proc, killer, setup_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "khovanov" / "__init__.py").is_file():
        print(f"error: no khovanov package under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setup_times = []
    proc = killer = None
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        for k in range(SETUP_SAMPLES):
            last = k == SETUP_SAMPLES - 1
            reference = hostspeed.sample(5)
            proc, killer, setup_s = start(
                cmd if last else cmd + ["--setup-only"], deadline)
            if setup_s is None:
                proc.wait()
                print(f"error: workload process exited {proc.returncode} "
                      "during set-up", file=sys.stderr)
                return 1
            setup_times.append((setup_s, hostspeed.scale([reference])))
            if not last:
                proc.wait()
                killer.cancel()
        out = proc.stdout.read()
        proc.wait()
    finally:
        if killer:
            killer.cancel()
        if proc and proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    rounds, unscaled = result.pop("rounds"), result.pop("unscaled")
    unscaled["setup_s"] = statistics.median(t for t, _ in setup_times)
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(t * f for t, f in setup_times),
            "unit": "s"}
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, "
          f"{result['attempted']} ops, unscaled {json.dumps(unscaled)}",
          file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w") as f:
        json.dump(dict(result, rounds=rounds, unscaled=unscaled), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
