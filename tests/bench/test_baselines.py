"""Quick payloads do exactly the work the committed baselines recorded.

``repro bench compare`` gates wall time loosely (it must survive a
change of machine); this pins the deterministic side exactly: each
quick payload's work units and every metric must equal its
``baselines/`` artifact's.  Only the two timing-derived engine metrics
are left out.  A mismatch means the payload now does different work —
or runs in a different execution mode — than its baseline measured.
"""

import pathlib

import pytest

from repro.bench.experiments import discover
from repro.bench.schema import load_artifact_dir

BASELINES = pathlib.Path(__file__).resolve().parents[2] / "baselines"

#: Metrics computed from wall time, so they differ on every run.
TIMING_DERIVED = {"engine_utilization", "engine_runs_per_second"}


def deterministic(metrics):
    """The metrics without the timing-derived ones."""
    return {k: v for k, v in metrics.items() if k not in TIMING_DERIVED}


@pytest.fixture(scope="module")
def baselines():
    return load_artifact_dir(BASELINES)


@pytest.mark.parametrize("experiment", discover(), ids=lambda e: e.eid)
def test_quick_work_counts_match_baseline(experiment, baselines):
    baseline = baselines[experiment.artifact_name]
    result = experiment.run(quick=True)
    assert result.units == baseline.units
    assert deterministic(result.metrics) == deterministic(baseline.metrics)
    assert result.tables is None
