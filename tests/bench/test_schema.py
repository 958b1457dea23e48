"""Artifact schema: round-trip, validation, and fingerprinting."""

import json

import pytest

from repro.bench.schema import (
    ARTIFACT_PREFIX,
    SCHEMA_VERSION,
    BenchArtifact,
    EnvironmentFingerprint,
    load_artifact,
    load_artifact_dir,
    median_iqr,
    write_artifact,
)
from repro.errors import BenchSchemaError


def make_artifact(eid="E2", name="bounds", samples=(1.0, 1.1, 1.2),
                  units=100, mode="quick"):
    return BenchArtifact.from_samples(
        experiment=eid, name=name, title=f"{eid} test artifact",
        mode=mode, units=units, warmup=1, samples_seconds=samples,
        metrics={"rows": units},
    )


class TestMedianIqr:
    def test_single_sample_has_zero_iqr(self):
        assert median_iqr([2.5]) == (2.5, 0.0)

    def test_median_and_spread(self):
        med, iqr = median_iqr([1.0, 2.0, 3.0, 4.0, 5.0])
        assert med == 3.0
        assert iqr == pytest.approx(2.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(BenchSchemaError):
            median_iqr([])


class TestArtifactRoundTrip:
    def test_to_from_dict_round_trips(self):
        artifact = make_artifact()
        clone = BenchArtifact.from_dict(artifact.to_dict())
        assert clone == artifact

    def test_filename_uses_prefix_and_stem(self):
        artifact = make_artifact(eid="E13", name="campaign")
        assert artifact.filename() == f"{ARTIFACT_PREFIX}E13_campaign.json"
        assert artifact.artifact_name == "E13_campaign"

    def test_write_and_load(self, tmp_path):
        artifact = make_artifact()
        path = write_artifact(artifact, tmp_path)
        assert path.name == artifact.filename()
        assert load_artifact(path) == artifact

    def test_throughput_derived_from_median(self):
        artifact = make_artifact(samples=(2.0,), units=100)
        assert artifact.median_seconds == 2.0
        assert artifact.units_per_second == pytest.approx(50.0)


class TestSchemaValidation:
    def test_version_mismatch_rejected(self, tmp_path):
        artifact = make_artifact()
        data = artifact.to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / artifact.filename()
        path.write_text(json.dumps(data))
        with pytest.raises(BenchSchemaError, match="schema_version"):
            load_artifact(path)

    def test_missing_version_rejected(self):
        data = make_artifact().to_dict()
        del data["schema_version"]
        with pytest.raises(BenchSchemaError):
            BenchArtifact.from_dict(data)

    def test_missing_timing_key_rejected(self):
        data = make_artifact().to_dict()
        del data["timing"]["median_seconds"]
        with pytest.raises(BenchSchemaError, match="malformed"):
            BenchArtifact.from_dict(data)

    def test_empty_samples_rejected(self):
        data = make_artifact().to_dict()
        data["timing"]["samples_seconds"] = []
        with pytest.raises(BenchSchemaError, match="empty"):
            BenchArtifact.from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(BenchSchemaError):
            BenchArtifact.from_dict(["not", "an", "object"])

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / f"{ARTIFACT_PREFIX}E1_bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchSchemaError, match="not valid JSON"):
            load_artifact(path)


class TestArtifactDir:
    def test_loads_all_artifacts_keyed_by_stem(self, tmp_path):
        write_artifact(make_artifact(eid="E2", name="bounds"), tmp_path)
        write_artifact(make_artifact(eid="E13", name="campaign"), tmp_path)
        loaded = load_artifact_dir(tmp_path)
        assert set(loaded) == {"E2_bounds", "E13_campaign"}

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(BenchSchemaError, match="no such"):
            load_artifact_dir(tmp_path / "nope")

    def test_ignores_non_artifact_files(self, tmp_path):
        write_artifact(make_artifact(), tmp_path)
        (tmp_path / "README.md").write_text("not an artifact")
        assert len(load_artifact_dir(tmp_path)) == 1

    def test_two_files_of_one_experiment_rejected(self, tmp_path):
        # A stale copy beside a fresh artifact must not silently win
        # (or lose) by sort order: the directory is ambiguous.
        write_artifact(make_artifact(eid="E14", name="explore"), tmp_path)
        stale = make_artifact(eid="E14", name="explore", samples=(99.0,))
        (tmp_path / "BENCH_E14_explore.old.json").write_text(
            json.dumps(stale.to_dict())
        )
        with pytest.raises(BenchSchemaError,
                           match=r"BENCH_E14_explore\.json and .*"
                                 r"BENCH_E14_explore\.old\.json both hold "
                                 r"experiment E14_explore"):
            load_artifact_dir(tmp_path)


class TestFingerprint:
    def test_capture_fields(self):
        fingerprint = EnvironmentFingerprint.capture()
        assert fingerprint.cpu_count >= 1
        assert fingerprint.python.count(".") == 2
        assert fingerprint.git_sha  # "unknown" at worst, never empty

    def test_round_trip(self):
        fingerprint = EnvironmentFingerprint.capture()
        clone = EnvironmentFingerprint.from_dict(fingerprint.to_dict())
        assert clone == fingerprint
