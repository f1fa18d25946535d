"""Benchmark the staged ingestion pipeline: serial vs sharded extraction.

Synthesizes a dataset, writes it out as per-node log files (the paper's
collection layout), then runs Stage I+II twice through the unified
pipeline — ``workers=1`` and ``workers=K`` — and verifies the identity
contract end to end:

* the extracted record streams are identical, order included;
* both paths coalesce to the same error count;
* the resulting ``StudyReport`` statistics (overall and per-XID MTBE)
  match exactly.

Timings land in ``BENCH_pipeline.json``.  Standalone on purpose, not a
test: process-pool timing wants a quiet interpreter, and CI runs the
same script in ``--smoke`` mode as a cheap identity check::

    PYTHONPATH=src python benchmarks/bench_pipeline.py            # full timing
    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke    # CI check
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.core import DeltaStudy
from repro.datasets import synthesize_delta
from repro.pipeline import FileSetSource, extract_records


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale (1.0 = the paper's 855-day window)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int,
                        default=max(2, min(4, os.cpu_count() or 1)))
    parser.add_argument("--logs-dir", type=Path, default=None,
                        help="reuse an existing synthesized log directory "
                        "(default: synthesize into a temp dir)")
    parser.add_argument("--output", default="BENCH_pipeline.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny dataset for CI: verifies serial/parallel "
                        "identity, skips the speedup expectation")
    return parser.parse_args(argv)


def _stream_digest(records) -> str:
    """Order-sensitive digest of a record stream."""
    digest = hashlib.sha256()
    for r in records:
        digest.update(
            f"{r.time!r}|{r.node_id}|{r.pci_bus}|{r.xid}|{r.pid}|{r.message}\n".encode()
        )
    return digest.hexdigest()


def _study_stats(source, window_hours: float, n_nodes: int, workers: int):
    """Stage I-III headline numbers for one extraction configuration."""
    study = DeltaStudy(
        source, window_hours=window_hours, n_nodes=n_nodes, workers=workers
    )
    stats = study.error_statistics()
    return {
        "n_errors": stats.total_count,
        "overall_mtbe_node_hours": stats.overall_mtbe_node_hours(),
        "counts_by_xid": {str(x): c for x, c in sorted(stats.counts().items())},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.smoke:
        args.scale = min(args.scale, 0.01)
        args.workers = min(args.workers, 2)

    tmp = None
    if args.logs_dir is not None:
        logs_dir = args.logs_dir
        dataset = synthesize_delta(scale=args.scale, seed=args.seed)
    else:
        tmp = tempfile.TemporaryDirectory(prefix="bench-pipeline-")
        logs_dir = Path(tmp.name) / "logs"
        print(f"synthesizing dataset (scale={args.scale}, seed={args.seed})...")
        t0 = time.perf_counter()
        dataset = synthesize_delta(scale=args.scale, seed=args.seed)
        paths = dataset.write_logs(logs_dir)
        print(f"  wrote {len(paths)} node log files in "
              f"{time.perf_counter() - t0:.1f} s")

    window_hours = dataset.window_seconds / 3600.0
    n_nodes = dataset.reference_node_count

    # Warm the page cache so the serial leg is not charged for cold I/O.
    extract_records(FileSetSource(logs_dir), workers=1)

    t0 = time.perf_counter()
    serial_records = extract_records(FileSetSource(logs_dir), workers=1)
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel_records = extract_records(FileSetSource(logs_dir), workers=args.workers)
    parallel_seconds = time.perf_counter() - t0

    streams_identical = serial_records == parallel_records
    serial_digest = _stream_digest(serial_records)
    parallel_digest = _stream_digest(parallel_records)
    del serial_records, parallel_records

    serial_stats = _study_stats(
        FileSetSource(logs_dir), window_hours, n_nodes, workers=1
    )
    parallel_stats = _study_stats(
        FileSetSource(logs_dir), window_hours, n_nodes, workers=args.workers
    )
    stats_identical = serial_stats == parallel_stats
    identical = (
        streams_identical and serial_digest == parallel_digest and stats_identical
    )
    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else 0.0

    report = {
        "config": {
            "scale": args.scale,
            "seed": args.seed,
            "workers": args.workers,
            "smoke": args.smoke,
        },
        "cpu_count": os.cpu_count(),
        "n_log_files": len(FileSetSource(logs_dir).paths),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(speedup, 3),
        "streams_identical": streams_identical,
        "stream_digest": serial_digest,
        "stats_identical": stats_identical,
        "identity_ok": identical,
        "study": {
            "n_errors": serial_stats["n_errors"],
            "overall_mtbe_node_hours": round(
                serial_stats["overall_mtbe_node_hours"], 3
            ),
        },
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    print(f"extraction: {report['n_log_files']} files, "
          f"{serial_stats['n_errors']:,} coalesced errors")
    print(f"serial   : {serial_seconds:7.2f} s")
    print(f"parallel : {parallel_seconds:7.2f} s  "
          f"({args.workers} workers, speedup {speedup:.2f}x)")
    print(f"record streams identical: {streams_identical}  "
          f"study statistics identical: {stats_identical}")
    print(f"wrote {args.output}")

    if tmp is not None:
        tmp.cleanup()
    if not identical:
        print("ERROR: serial and parallel paths diverge", file=sys.stderr)
        return 1
    if not args.smoke and args.workers > 1 and speedup <= 1.0:
        # On a single-core box the pool can only add overhead; flag it
        # rather than fail so CI hosts of any width can run this.
        print(f"WARNING: no parallel speedup measured "
              f"(cpu_count={os.cpu_count()})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
