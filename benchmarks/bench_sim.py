"""Benchmark the what-if sweep runner: serial vs parallel wall time.

Runs one fixed Monte-Carlo sweep twice — ``workers=1`` and ``workers=K`` —
verifies the aggregates are bit-for-bit identical (the runner's determinism
contract), and writes the timings to ``BENCH_sim.json``.

Standalone on purpose, not a test: process-pool timing wants a quiet
interpreter, and CI runs the same script in ``--smoke`` mode as a cheap
shape check::

    PYTHONPATH=src python benchmarks/bench_sim.py            # full timing
    PYTHONPATH=src python benchmarks/bench_sim.py --smoke    # CI shape check
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from repro.sim import SweepConfig, run_sweep


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="a100-256")
    parser.add_argument("--policy", default="spare:2")
    parser.add_argument("--replicas", type=int, default=24)
    parser.add_argument("--workers", type=int,
                        default=max(2, min(4, os.cpu_count() or 1)))
    parser.add_argument("--gpus", type=int, default=128)
    parser.add_argument("--useful-hours", type=float, default=48.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default="BENCH_sim.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep for CI: verifies output shape and "
                        "determinism, skips the speedup assertion")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.smoke:
        args.replicas, args.gpus, args.useful_hours = 4, 32, 12.0
        args.workers = min(args.workers, 2)
    config = SweepConfig(
        scenario=args.scenario,
        policy=args.policy,
        replicas=args.replicas,
        seed=args.seed,
        n_gpus=args.gpus,
        useful_hours=args.useful_hours,
    )

    # Warm the per-process caches (placement, calibrated rates) so the
    # serial leg is not charged for one-time setup the parallel leg pays
    # inside its workers anyway.
    run_sweep(dataclasses.replace(config, replicas=1))

    t0 = time.perf_counter()
    serial = run_sweep(config, workers=1)
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_sweep(config, workers=args.workers)
    parallel_seconds = time.perf_counter() - t0

    identical = serial.runs == parallel.runs and json.dumps(
        serial.aggregate, sort_keys=True
    ) == json.dumps(parallel.aggregate, sort_keys=True)
    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else 0.0

    report = {
        "config": {
            "scenario": config.scenario,
            "policy": config.policy,
            "replicas": config.replicas,
            "seed": config.seed,
            "n_gpus": config.n_gpus,
            "useful_hours": config.useful_hours,
            "workers": args.workers,
            "smoke": args.smoke,
        },
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(speedup, 3),
        "aggregates_identical": identical,
        "aggregate": serial.aggregate,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    print(f"sweep: {config.scenario} / {config.policy} "
          f"x{config.replicas} replicas")
    print(f"serial   : {serial_seconds:7.2f} s")
    print(f"parallel : {parallel_seconds:7.2f} s  "
          f"({args.workers} workers, speedup {speedup:.2f}x)")
    print(f"aggregates identical: {identical}")
    print(f"wrote {args.output}")

    if not identical:
        print("ERROR: serial and parallel aggregates differ", file=sys.stderr)
        return 1
    if not args.smoke and args.workers > 1 and speedup <= 1.0:
        # On a single-core box the pool can only add overhead; flag it
        # rather than fail so CI hosts of any width can run this.
        print(f"WARNING: no parallel speedup measured "
              f"(cpu_count={os.cpu_count()})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
