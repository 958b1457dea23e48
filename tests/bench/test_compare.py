"""The regression comparator: every verdict class, exercised."""

import json

import pytest

from repro.bench.compare import (
    DEFAULT_THRESHOLD,
    compare_artifacts,
    compare_runs,
    work_difference,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchArtifact,
    write_artifact,
)
from repro.errors import BenchSchemaError, ValidationError


def artifact(eid="E2", name="bounds", median=1.0, iqr=0.0, mode="quick",
             units=10, **metrics):
    """Synthetic artifact with an exact median and IQR.

    Three equal samples give median == the sample and IQR 0; a spread is
    injected by widening the outer samples to median ± iqr, which puts
    the inclusive quartiles at median ± iqr/2 and hence the IQR at
    exactly ``iqr``.
    """
    samples = (median - iqr, median, median + iqr)
    built = BenchArtifact.from_samples(
        experiment=eid, name=name, title=f"{eid} synthetic", mode=mode,
        units=units, warmup=0, samples_seconds=samples, metrics=metrics,
    )
    assert built.median_seconds == pytest.approx(median)
    assert built.iqr_seconds == pytest.approx(iqr)
    return built


class TestCompareArtifacts:
    def test_identical_is_ok(self):
        base = artifact()
        verdict = compare_artifacts(base, base)
        assert verdict.status == "ok"
        assert not verdict.failed

    def test_regression_detected(self):
        verdict = compare_artifacts(artifact(median=1.0),
                                    artifact(median=2.0))
        assert verdict.status == "regression"
        assert verdict.failed
        assert verdict.ratio == pytest.approx(2.0)

    def test_within_threshold_tolerated(self):
        verdict = compare_artifacts(artifact(median=1.0),
                                    artifact(median=1.4))
        assert verdict.status == "ok"

    def test_iqr_noise_widens_the_allowance(self):
        # 2.2x exceeds the bare 1.5x threshold, but the baseline is
        # noisy (IQR 0.5s): allowance = 1.0*1.5 + 2.0*0.5 = 2.5s.
        noisy_base = artifact(median=1.0, iqr=0.5)
        verdict = compare_artifacts(noisy_base, artifact(median=2.2))
        assert verdict.status == "ok"
        # The same 2.2x against a steady baseline is a regression.
        steady = compare_artifacts(artifact(median=1.0),
                                   artifact(median=2.2))
        assert steady.status == "regression"

    def test_improvement_reported_as_faster(self):
        verdict = compare_artifacts(artifact(median=1.0),
                                    artifact(median=0.3))
        assert verdict.status == "faster"
        assert not verdict.failed

    def test_injected_slowdown_trips_the_gate(self):
        base = artifact(median=1.0)
        assert compare_artifacts(base, base, slowdown=2.0).failed


class TestCompareRuns:
    def test_clean_pass(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        for directory in (base, cur):
            write_artifact(artifact("E2", "bounds"), directory)
            write_artifact(artifact("E13", "campaign"), directory)
        report = compare_runs(base, cur)
        assert report.ok
        assert "PASS" in report.summary()

    def test_missing_experiment_fails(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        write_artifact(artifact("E2", "bounds"), base)
        write_artifact(artifact("E13", "campaign"), base)
        write_artifact(artifact("E2", "bounds"), cur)
        report = compare_runs(base, cur)
        assert not report.ok
        [failure] = report.failures
        assert failure.status == "missing"
        assert failure.artifact_name == "E13_campaign"

    def test_new_experiment_is_informational(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        write_artifact(artifact("E2", "bounds"), base)
        write_artifact(artifact("E2", "bounds"), cur)
        write_artifact(artifact("E14", "explore"), cur)
        report = compare_runs(base, cur)
        assert report.ok
        statuses = {c.artifact_name: c.status for c in report.comparisons}
        assert statuses["E14_explore"] == "new"

    def test_schema_version_mismatch_aborts(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        write_artifact(artifact("E2", "bounds"), base)
        data = artifact("E2", "bounds").to_dict()
        data["schema_version"] = SCHEMA_VERSION + 7
        cur.mkdir()
        (cur / "BENCH_E2_bounds.json").write_text(json.dumps(data))
        with pytest.raises(BenchSchemaError, match="schema_version"):
            compare_runs(base, cur)

    def test_empty_baseline_rejected(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        base.mkdir()
        write_artifact(artifact("E2", "bounds"), cur)
        with pytest.raises(ValidationError, match="no BENCH_"):
            compare_runs(base, cur)

    def test_verdicts_sorted_by_experiment_number(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        for eid, name in (("E14", "explore"), ("E2", "bounds"),
                          ("E9", "snapshot")):
            write_artifact(artifact(eid, name), base)
            write_artifact(artifact(eid, name), cur)
        report = compare_runs(base, cur)
        assert [c.artifact_name for c in report.comparisons] == [
            "E2_bounds", "E9_snapshot", "E14_explore",
        ]

    def test_bad_threshold_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="threshold"):
            compare_runs(tmp_path, tmp_path, threshold=0.0)

#: The metrics of a campaign-backed artifact (E14's quick baseline).
ENGINE = dict(engine_workers=1, engine_mode="in-process", engine_chunks=4,
              engine_utilization=0.9988, engine_runs_per_second=191.38,
              violations=0)


class TestIncomparable:
    @pytest.mark.parametrize("changes, difference", [
        (dict(mode="full"), "mode quick != full"),
        (dict(units=23386), "units 23385 != 23386"),
        (dict(engine_mode="pool:fork"), "engine_mode in-process != pool:fork"),
        (dict(violations=1), "violations 0 != 1"),
        (dict(symmetry=True), "symmetry <absent> != True"),
    ], ids=["mode", "units", "engine_mode", "metric", "absent-metric"])
    def test_different_work_is_incomparable(self, changes, difference):
        base = artifact(units=23385, **ENGINE)
        current = artifact(**{**dict(units=23385, **ENGINE), **changes})
        verdict = compare_artifacts(base, current)
        assert verdict.status == "incomparable"
        assert verdict.failed
        assert verdict.difference == difference
        assert difference in verdict.summary()

    def test_work_is_checked_before_time(self):
        # A 10x faster run of different work is not 'faster'.
        verdict = compare_artifacts(artifact(units=10),
                                    artifact(units=11, median=0.1))
        assert verdict.status == "incomparable"

    def test_timing_derived_metrics_never_make_a_pair_incomparable(self):
        base = artifact(**ENGINE)
        current = artifact(**{**ENGINE, "engine_utilization": 0.5,
                              "engine_runs_per_second": 9999.0})
        assert compare_artifacts(base, current).status == "ok"
        assert work_difference(base, current) is None

    def test_full_against_quick_fails_the_run_gate(self, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        write_artifact(artifact("E2", "bounds", mode="full"), base)
        write_artifact(artifact("E2", "bounds", mode="quick"), cur)
        report = compare_runs(base, cur)
        assert not report.ok
        [failure] = report.failures
        assert failure.status == "incomparable"
        assert "mode full != quick" in report.summary()


class TestDefaults:
    def test_default_threshold_catches_a_2x_slowdown(self):
        # The CI contract: an injected 2x slowdown on a steady baseline
        # must always trip the default gate.
        base = artifact(median=0.5)
        verdict = compare_artifacts(base, base, slowdown=2.0)
        assert DEFAULT_THRESHOLD < 2.0
        assert verdict.status == "regression"
