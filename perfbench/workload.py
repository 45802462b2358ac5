"""One workload's process: set up, then timed rounds of operations.

Started by ``run.py``; not meant to be run by hand.  Set-up imports
``khovanov`` from the checkout's ``src``, reads the shipped corpus, grows
the round's diagrams from ``--seed`` and parses their PD texts, then prints
``ready``.  With ``--setup-only`` the process stops there.  Otherwise it
runs whole rounds of the same operations until ``--seconds`` have passed,
checks every output, and prints its result as one JSON line.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (the benchmark's own modules, beside this file)
import hostspeed  # noqa: E402
import spans  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = spans.Tracer() if args.trace else None

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    with span("setup.import"):
        import khovanov
        from khovanov import cli, parse_pd, states
    if Path(khovanov.__file__).resolve().parent != ROOT / "src" / "khovanov":
        print(f"error: imported khovanov from {khovanov.__file__}, not from "
              "this checkout's src", file=sys.stderr)
        return 2
    import inputs

    with open(cli.default_corpus_path()) as f:
        corpus = {entry["name"]: entry for entry in json.load(f)}
    with span("setup.generate"):
        ops = inputs.make_round(args.workload, args.seed, corpus)
    with span("diagram.parse"):
        diagrams = [parse_pd(op.pd) for op in ops]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        tracer.install()
    attempted = failed = 0
    errors = []
    # per op, one time per round: raw, and scaled to the reference host by
    # the reference loop timed just before and just after the op
    raw_times = [[] for _ in ops]
    op_times = [[] for _ in ops]
    reference = [hostspeed.sample()]
    round_times = []
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for k, (op, diagram) in enumerate(zip(ops, diagrams)):
            attempted += 1
            if tracer:
                tracer.op = (len(round_times), k, op.kind)
            buf = io.StringIO()
            try:
                t0 = time.perf_counter()
                if op.kind == "jones":
                    poly = states.jones_kauffman(
                        diagram, max_crossings=inputs.JONES_MAX_CROSSINGS)
                else:
                    with span("cli.main"), redirect_stdout(buf):
                        rc = cli.main(list(op.argv))
                raw = time.perf_counter() - t0
                reference.append(hostspeed.sample())
                raw_times[k].append(raw)
                op_times[k].append(
                    raw * hostspeed.scale(reference[-2:]))
                if op.kind == "jones":
                    error = checks.check_jones(poly.to_json(),
                                               corpus[op.base]["jones"])
                elif rc not in (0, 1):
                    raise RuntimeError(f"exit code {rc}")
                elif op.kind == "homology":
                    error = checks.check_homology(
                        rc, json.loads(buf.getvalue()),
                        corpus[op.base]["homology"])
                else:
                    error = checks.check_move(op.kind, rc,
                                              json.loads(buf.getvalue()))
            except (Exception, SystemExit):
                failed += 1
                print(f"op {op.label} failed:", file=sys.stderr)
                traceback.print_exc()
                continue
            if error:
                errors.append(f"{op.label}: {error}")
        round_times.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.mean(round_times) / 2 >= args.seconds:
            break
    if tracer:
        tracer.uninstall()
    for line in errors[:10]:
        print(f"wrong output: {line}", file=sys.stderr)

    # a round's time with each op at its median over the rounds, so a stall
    # in one round moves it less
    wall = {name: sum(statistics.median(t) for t in times if t)
            for name, times in (("scaled", op_times), ("raw", raw_times))}
    if tracer:
        metrics = spans.per_layer_metrics(
            tracer, wall["scaled"], hostspeed.scale(reference))
        write_trace(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
                    tracer)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": wall["scaled"], "unit": "s"},
            "op_p50_s": {"value": median_op(op_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "rounds": len(round_times),
        "unscaled": {"wall_s": wall["raw"], "op_p50_s": median_op(raw_times),
                "reference_loop_s": statistics.median(reference)},
    }))
    return 0


def median_op(times) -> float:
    samples = [t for per_op in times for t in per_op]
    return statistics.median(samples) if samples else 0.0


def write_trace(path, tracer):
    def op_id(op):
        return op if op == "setup" else f"r{op[0]}/{op[1]}/{op[2]}"

    payload = {
        "spans": [{"name": name, "start": start, "end": end,
                   "parent": parent, "op": op_id(op)}
                  for name, start, end, parent, op in tracer.spans],
        "counts": [{"op": op_id(op), "name": name, "value": value}
                   for op, name, value in tracer.counts],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f)


if __name__ == "__main__":
    sys.exit(main())
