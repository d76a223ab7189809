"""One workload run in a fresh interpreter; ``run.py`` starts it.

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1
                            --workdir DIR [--setup-only]

quivalg is imported from the checkout's ``src`` and nowhere else.  The
set-up (importing quivalg, then building the workload's inputs) is timed;
with ``--setup-only`` the worker stops there.  Otherwise it runs whole
rounds until ``--seconds`` have passed and prints one JSON line.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def import_quivalg():
    sys.path.insert(0, SRC)
    import quivalg
    if not os.path.abspath(quivalg.__file__).startswith(os.path.join(SRC, "quivalg") + os.sep):
        raise ImportError(f"quivalg was imported from {quivalg.__file__}, not from {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import_quivalg()
    import workloads
    from accounting import CheckLog, OpLog
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        for name in tracer.missing:
            print(f"trace: {name} not found; its metrics read 0", file=sys.stderr)
    log = OpLog()
    checks = CheckLog()
    # whole rounds only; a round starts when the mean round so far would
    # still end within --seconds, so a run lasts about --seconds, or one
    # round when a round takes longer
    rounds = 0
    begin = time.perf_counter()
    while True:
        workload.run_round(log, checks)
        rounds += 1
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / rounds > args.seconds:
            break
    wall_s = time.perf_counter() - begin
    result = {
        "correct": checks.ok,
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": log.failures,
        "checks": checks.checked,
        "check_errors": checks.errors,
        "rounds": rounds,
        "wall_s": wall_s,
        "timed_s": log.timed_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "metrics": log.metrics(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(rounds)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.tsv")
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path, os.path.dirname(HERE))
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
