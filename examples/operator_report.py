#!/usr/bin/env python3
"""A complete operator post-mortem report for one observation window.

Combines the secondary analyses into the document an SRE team would
actually circulate after a review period: concentration (who to replace),
reliability statistics with uncertainty (how bad is it really), trend
(is it getting better), the generational context, and the projected
capacity cost.

Usage::

    python examples/operator_report.py [scale] [seed]
"""

import sys

from repro import DeltaStudy, synthesize_delta
from repro.core import (
    GenerationComparison,
    OverprovisionConfig,
    SpatialAnalyzer,
    fit_weibull,
    mtbe_confidence_interval,
    required_overprovision_analytic,
    trend_test,
)
from repro.core.reliability import interarrival_times
from repro.core.report import generations_result, spatial_result
from repro.faults.xid import XID_CATALOG, Xid


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    print(f"Building the window (scale={scale}, seed={seed})...\n")
    dataset = synthesize_delta(scale=scale, seed=seed)
    study = DeltaStudy.from_dataset(dataset)
    stats = study.error_statistics()
    errors = stats.errors

    print("=" * 74)
    print("GPU FLEET POST-MORTEM")
    print("=" * 74)

    # 1. Reliability with uncertainty.
    print("\n1. MTBE with 95% bootstrap confidence intervals (system-hours)")
    for xid in (Xid.MMU, Xid.NVLINK, Xid.GSP, Xid.UNCONTAINED):
        subset = [e for e in errors if e.xid == int(xid)]
        if len(subset) < 3:
            continue
        interval = mtbe_confidence_interval(subset)
        shape = fit_weibull(interarrival_times(subset)).shape
        arrival = "bursty" if shape < 0.95 else "memoryless" if shape < 1.05 else "wear-out"
        print(
            f"   XID {int(xid):>3} {XID_CATALOG[xid].abbreviation:<20}: "
            f"{interval.point:6.2f} h  [{interval.low:6.2f}, {interval.high:6.2f}]"
            f"   arrivals: {arrival} (Weibull k={shape:.2f})"
        )

    # 2. Trend.
    result = trend_test(errors, dataset.window_seconds)
    verdict = (
        "improving (burn-in replacements working)" if result.improving
        else "degrading" if result.degrading else "stationary"
    )
    print(f"\n2. Laplace trend over the window: u={result.statistic:+.2f} -> {verdict}")

    # 3. Who to replace.
    print("\n3. " + spatial_result(SpatialAnalyzer(errors, n_gpus=848)).render_text())
    offenders = SpatialAnalyzer(errors, n_gpus=848).offenders(95)
    for offender in offenders[:3]:
        print(
            f"   replace {offender.gpu[0]} {offender.gpu[1]}: "
            f"{offender.count:,} uncontained errors "
            f"(P(chance) < 1e-{offender.surprise:.0f})"
        )

    # 4. Generational context.
    print("\n4. " + generations_result(
        GenerationComparison(stats, study.propagation())
    ).render_text())

    # 5. Capacity cost.
    availability = study.availability().report().availability
    fraction = required_overprovision_analytic(
        OverprovisionConfig(availability=max(0.99, min(availability, 0.9999)))
    )
    print(
        f"\n5. At the measured {availability*100:.2f}% node availability, an "
        f"800-GPU month-long job needs ~{fraction*100:.0f}% spare capacity "
        f"({fraction*800:.0f} GPUs) at a 40-minute recovery time."
    )


if __name__ == "__main__":
    main()
