"""Paper-shape fixtures: one Ampere study and one H100 study at scale 0.1.

The checks under ``tests/paper/`` assert the paper's headline findings
(Tables 1-3, Figures 5-9, Sections 4.3-6 and the mechanism ablations)
with tolerances calibrated at this window scale.  The shared ``study``
fixture (scale 0.02) is too small for several of them: NVLink incidents
and long completed jobs are rare events.

The studies are package-scoped: released once ``tests/paper/`` finishes,
so the ~800k raw records do not stay resident (and keep the cyclic
garbage collector busy) for the rest of the suite.
"""

from __future__ import annotations

import pytest

from repro.core import DeltaStudy
from repro.datasets import synthesize_delta, synthesize_h100

#: Window scale and seed the paper-shape tolerances were calibrated at.
PAPER_SCALE = 0.1
PAPER_SEED = 7


@pytest.fixture(scope="package")
def paper_study():
    built = DeltaStudy.from_dataset(synthesize_delta(scale=PAPER_SCALE, seed=PAPER_SEED))
    built.errors  # run Stage I+II once up front
    return built


@pytest.fixture(scope="package")
def paper_h100_study():
    built = DeltaStudy.from_dataset(synthesize_h100(seed=PAPER_SEED))
    built.errors
    return built


@pytest.fixture(scope="package")
def paper_impact(paper_study):
    """Job-impact analyzer with every job classified once."""
    analyzer = paper_study.job_impact()
    analyzer.classify_jobs()
    return analyzer
