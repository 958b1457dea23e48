"""Quick payloads do exactly the work the committed baselines recorded.

``repro bench compare`` gates work exactly and wall time loosely; this
runs the work side of that gate without timing anything: each quick
payload's work units and every metric outside the comparator's
``TIMING_DERIVED`` set must equal its ``baselines/`` artifact's.  A
mismatch means the payload now does different work — or runs in a
different execution mode — than its baseline measured.
"""

import dataclasses
import pathlib

import pytest

from repro.bench.compare import work_difference
from repro.bench.experiments import discover
from repro.bench.schema import load_artifact_dir

BASELINES = pathlib.Path(__file__).resolve().parents[2] / "baselines"


@pytest.fixture(scope="module")
def baselines():
    return load_artifact_dir(BASELINES)


@pytest.mark.parametrize("experiment", discover(), ids=lambda e: e.eid)
def test_quick_work_counts_match_baseline(experiment, baselines):
    baseline = baselines[experiment.artifact_name]
    assert baseline.mode == "quick"
    result = experiment.run(quick=True)
    current = dataclasses.replace(
        baseline, units=result.units, metrics=result.metrics
    )
    assert work_difference(baseline, current) is None
    assert result.tables is None
