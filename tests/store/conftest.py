"""Store fixtures: hand-made record streams.

Unit tests over segments/queries/recovery use tiny synthetic records;
the identity and ingest-worker tests reuse the shared session dataset's
on-disk logs (``logs_dir`` in the suite-wide conftest).
"""

from __future__ import annotations

import pytest

from repro.core.parsing import RawXidRecord


def make_record(
    t,
    *,
    node="gpua001",
    pci="0000:07:00",
    xid=63,
    msg="Row remap",
    pid=1234,
):
    return RawXidRecord(
        time=float(t), node_id=node, pci_bus=pci, xid=xid, message=msg, pid=pid
    )


@pytest.fixture
def records():
    """Four records over two GPUs, with a timestamp tie and a None pid."""
    return [
        make_record(0.0, xid=63),
        make_record(1.0, node="gpub002", pci="0000:46:00", xid=79, pid=None),
        make_record(1.0, xid=31, msg="MMU fault"),  # tie with the previous row
        make_record(5.0, node="gpub002", pci="0000:46:00", xid=94),
    ]
