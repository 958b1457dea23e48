"""JobSpec validation and the spec → campaign-job construction."""

import pytest

from repro.__main__ import main
from repro.campaign import engine, run_campaign
from repro.campaign.checkpoint import job_fingerprint
from repro.serve.jobspec import (
    EXPLORE_SCENARIOS,
    JobSpec,
    JobSpecError,
    build_job,
)


class TestValidation:
    def test_defaults_match_cli(self):
        spec = JobSpec.from_dict({"experiment": "fuzz"})
        assert spec.runs == 200
        assert spec.schedule_length == 40
        assert spec.seeds == 50
        assert spec.packed is True
        assert spec.verify_certificates is False

    def test_round_trips_through_dict(self):
        spec = JobSpec.from_dict({
            "experiment": "explore", "scenario": "racing",
            "symmetry": True, "chunk_size": 7,
        })
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_experiment(self):
        with pytest.raises(JobSpecError, match="unknown experiment"):
            JobSpec.from_dict({"experiment": "mine-bitcoin"})

    def test_rejects_unknown_keys(self):
        with pytest.raises(JobSpecError, match="unknown job spec key"):
            JobSpec.from_dict({"experiment": "fuzz", "runz": 10})

    def test_rejects_missing_experiment(self):
        with pytest.raises(JobSpecError, match="experiment"):
            JobSpec.from_dict({"seeds": 10})

    def test_rejects_non_object(self):
        with pytest.raises(JobSpecError, match="JSON object"):
            JobSpec.from_dict(["fuzz"])

    def test_rejects_wrong_types(self):
        with pytest.raises(JobSpecError, match="must be an integer"):
            JobSpec.from_dict({"experiment": "fuzz", "runs": "many"})
        with pytest.raises(JobSpecError, match="must be a boolean"):
            JobSpec.from_dict({"experiment": "explore", "packed": 1})

    def test_rejects_out_of_range_sizes(self):
        with pytest.raises(JobSpecError, match="seeds"):
            JobSpec.from_dict({"experiment": "protocol", "seeds": 0})
        with pytest.raises(JobSpecError, match="runs"):
            JobSpec.from_dict({"experiment": "fuzz",
                               "runs": 100_000_000})

    def test_rejects_symmetry_without_packed(self):
        with pytest.raises(JobSpecError, match="symmetry"):
            JobSpec.from_dict({"experiment": "explore",
                               "symmetry": True, "packed": False})


class TestBuildJob:
    @pytest.mark.parametrize("spec_dict", [
        {"experiment": "falsify", "seeds": 4},
        {"experiment": "protocol", "protocol": "racing", "seeds": 4},
        {"experiment": "protocol", "protocol": "minseen", "seeds": 3},
        {"experiment": "fuzz", "runs": 8},
        {"experiment": "explore", "scenario": "racing",
         "max_configs": 500},
    ])
    def test_builds_runnable_jobs(self, spec_dict):
        job = build_job(JobSpec.from_dict(spec_dict))
        result = run_campaign(job, workers=1)
        assert result.complete
        assert result.report is not None

    def test_same_spec_builds_fingerprint_identical_jobs(self):
        # Checkpoint fingerprints must be stable across constructions —
        # that is what makes resume-after-restart accept the journal a
        # previous process wrote for the same persisted spec.
        from repro.campaign.checkpoint import job_fingerprint

        spec = JobSpec.from_dict({"experiment": "fuzz", "runs": 16})
        first = build_job(spec)
        second = build_job(spec)
        assert job_fingerprint(
            first, first.total_units(), 4
        ) == job_fingerprint(second, second.total_units(), 4)

    def test_verify_certificates_spec_runs_gated(self):
        spec = JobSpec.from_dict({
            "experiment": "falsify", "seeds": 4,
            "verify_certificates": True,
        })
        result = run_campaign(
            build_job(spec), workers=1,
            verify_certificates=spec.verify_certificates,
        )
        assert result.telemetry.certificates_verified > 0


def fingerprint(job):
    return job_fingerprint(job, job.total_units(), 4)


class TestScenarioTable:
    """The CLI and the service build explore jobs from one table."""

    @pytest.mark.parametrize("scenario", EXPLORE_SCENARIOS)
    def test_cli_and_service_build_the_same_job(self, scenario, monkeypatch):
        class Captured(Exception):
            pass

        def capture(job, **kwargs):
            raise Captured(job)

        monkeypatch.setattr(engine, "run_campaign", capture)
        with pytest.raises(Captured) as excinfo:
            main(["explore", "--scenario", scenario])
        [cli_job] = excinfo.value.args
        service_job = build_job(JobSpec.from_dict(
            {"experiment": "explore", "scenario": scenario}
        ))
        assert fingerprint(cli_job) == fingerprint(service_job)

    @pytest.mark.parametrize("spec_dict, expected", [
        ({"experiment": "explore", "scenario": "truncated"},
         "ea2e48c7df42cbf9"),
        ({"experiment": "explore", "scenario": "racing"},
         "3e6f17d23278fce4"),
        ({"experiment": "explore", "scenario": "minseen"},
         "78a6a1d7649e538b"),
        ({"experiment": "explore", "scenario": "anonymous"},
         "881b708574dcf69d"),
        ({"experiment": "protocol", "protocol": "racing"},
         "3d150bccbb4c1b73"),
        ({"experiment": "protocol", "protocol": "minseen"},
         "ae58474fc853a6b8"),
    ])
    def test_fingerprints_are_pinned(self, spec_dict, expected):
        """Journals written by earlier servers must still resume."""
        assert fingerprint(build_job(JobSpec.from_dict(spec_dict))) == (
            expected
        )
