#!/usr/bin/env python3
"""Quickstart: synthesize a small Delta-like dataset and characterize it.

Runs the full loop in under a minute:

1. build a synthetic dataset (cluster + fault injection + Slurm workload +
   rendered syslog) at 5% of the paper's 855-day window;
2. run the paper's pipeline over the *observables only* (log text + job DB);
3. print the key findings next to the paper's numbers.

Usage::

    python examples/quickstart.py [scale] [seed]
"""

import sys

from repro import DeltaStudy, synthesize_delta
from repro.core.report import figure5_result, table1_result
from repro.faults import AMPERE_CALIBRATION


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    print(f"Synthesizing Delta at scale={scale} (seed={seed})...")
    dataset = synthesize_delta(scale=scale, seed=seed)
    print(
        f"  {len(dataset.trace):,} ground-truth errors, "
        f"{len(dataset.slurm_db):,} jobs, "
        f"{len(dataset.slurm_db.node_events):,} repair incidents"
    )

    print("Running the characterization pipeline (parse -> coalesce -> analyze)...")
    study = DeltaStudy.from_dataset(dataset)
    stats = study.error_statistics()

    print()
    print(table1_result(stats, AMPERE_CALIBRATION, scale=scale).render_text())
    print()
    print(figure5_result(study.propagation()).render_text())
    print()

    availability = study.availability().report()
    print("Key findings (paper values in parentheses):")
    print(
        f"  overall per-node MTBE      : {stats.overall_mtbe_node_hours():6.1f} h   (67 h)"
    )
    print(
        f"  memory vs hardware MTBE    : {stats.memory_vs_hardware_ratio():6.1f}x  (>30x)"
    )
    print(
        f"  node availability          : {availability.availability*100:6.2f} %  (99.5 %)"
    )
    print(
        f"  downtime per node-day      : {availability.downtime_minutes_per_day:6.1f} min (7 min)"
    )


if __name__ == "__main__":
    main()
