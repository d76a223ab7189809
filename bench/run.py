#!/usr/bin/env python3
"""quivalg benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a checkout.  Each workload runs in fresh
interpreters with PYTHONHASHSEED fixed: ``SETUPS - 1`` of them only time
the set-up, the last one also runs whole rounds for T seconds.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics of a traced run with ``--trace 1``.
The exit status is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("corpus-sweep", "endo-qf2", "cli-queries")
SETUPS = 7
HASH_SEED = "0"
DEADLINE_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_worker(args, index, setup_only, deadline):
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}-{index}")
    os.makedirs(workdir, exist_ok=True)
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def summarize(args, setups, run):
    """The result object; end-to-end metrics without tracing, per-layer
    metrics with it."""
    if args.trace:
        from layertrace import metric_units
        metrics = {name: {"value": run["layers"][name], "unit": unit}
                   for name, unit in metric_units().items()}
    else:
        values = dict(run["metrics"], setup_s=statistics.median(setups),
                      peak_rss_mb=run["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker(args, k, True, deadline)["setup_s"] for k in range(SETUPS - 1)]
        run = run_worker(args, SETUPS - 1, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    for message in run["check_errors"]:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {run['rounds']} rounds, "
          f"{run['attempted']} ops ({run['failed']} failed: {run['failures']}), "
          f"{run['checks']} checks, wall {run['wall_s']:.2f} s, timed {run['timed_s']:.2f} s",
          file=sys.stderr)
    if "trace_file" in run:
        print(f"bench: {run['spans']} spans written to {run['trace_file']}", file=sys.stderr)
    print(json.dumps(summarize(args, setups, run)))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
