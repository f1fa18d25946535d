"""Shared fixtures.

The expensive synthetic datasets are session-scoped: many test modules share
one small Ampere dataset (scale 0.02, ~1,300 errors, ~29k jobs) and one H100
dataset, so the suite stays fast while still exercising the full substrate.
"""

from __future__ import annotations

import pytest

from repro.cluster import DeltaShape, build_delta_cluster
from repro.core import DeltaStudy
from repro.datasets import synthesize_delta, synthesize_h100
from repro.pipeline import FileSetSource
from repro.store import EventStore

#: One fixed seed for the shared datasets; individual tests that probe
#: seed-sensitivity build their own.
SEED = 1234

#: Scale of the shared Ampere dataset (fraction of the 855-day window).
SCALE = 0.02


@pytest.fixture(scope="session")
def delta_cluster():
    """The full Delta-shaped cluster (286 GPU nodes, 1,168 GPUs)."""
    return build_delta_cluster()


@pytest.fixture(scope="session")
def small_cluster():
    """A miniature cluster with every node kind present."""
    return build_delta_cluster(DeltaShape(2, 3, 3, 1, 2))


@pytest.fixture(scope="session")
def dataset():
    """The shared small Ampere dataset (jobs + errors + logs)."""
    return synthesize_delta(scale=SCALE, seed=SEED)


@pytest.fixture(scope="session")
def logs_dir(dataset, tmp_path_factory):
    """The shared dataset as on-disk per-node log files."""
    directory = tmp_path_factory.mktemp("shared-logs") / "logs"
    paths = dataset.write_logs(directory)
    assert len(paths) > 4  # genuinely multi-node
    return directory


@pytest.fixture(scope="session")
def history_logs_dir(tmp_path_factory):
    """Node logs of the history the store and replay speed floors are
    measured on (scale 0.01, seed 7)."""
    directory = tmp_path_factory.mktemp("history") / "logs"
    synthesize_delta(scale=0.01, seed=7).write_logs(directory)
    return directory


@pytest.fixture(scope="session")
def history_store(history_logs_dir):
    """That history ingested into a store with the default segment size."""
    store = EventStore.create(history_logs_dir.parent / "events")
    store.ingest(FileSetSource(history_logs_dir), workers=1)
    return store


@pytest.fixture(scope="session")
def study(dataset):
    """A DeltaStudy over the shared dataset with stages pre-run."""
    built = DeltaStudy.from_dataset(dataset)
    built.errors  # force Stage I+II once for the whole session
    return built


@pytest.fixture(scope="session")
def h100_dataset():
    return synthesize_h100(seed=SEED)


@pytest.fixture(scope="session")
def h100_study(h100_dataset):
    built = DeltaStudy.from_dataset(h100_dataset)
    built.errors
    return built
