"""JobSpec validation and the spec → campaign-job construction."""

from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.campaign import engine, run_campaign
from repro.campaign.checkpoint import job_fingerprint
from repro.protocols.scenarios import BASE_OBJECT_SWEEPS
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
        assert spec.symmetry is False
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
            JobSpec.from_dict({"experiment": "explore", "symmetry": 1})

    def test_rejects_null_seed_and_keeps_every_integer(self):
        with pytest.raises(JobSpecError, match="seed must be an integer"):
            JobSpec.from_dict({"experiment": "fuzz", "seed": None,
                               "runs": 5})
        for seed in (-3, 0, 2**40):
            spec = JobSpec.from_dict({"experiment": "fuzz", "seed": seed})
            assert spec.seed == seed

    def test_rejects_out_of_range_sizes(self):
        with pytest.raises(JobSpecError, match="seeds"):
            JobSpec.from_dict({"experiment": "protocol", "seeds": 0})
        with pytest.raises(JobSpecError, match="runs"):
            JobSpec.from_dict({"experiment": "fuzz",
                               "runs": 100_000_000})

    def test_rejects_null_for_bounded_sizes(self):
        """Only the open-ended sizes (max_steps, chunk_size) take null;
        a null seed count is a 400, not a crash."""
        for key in ("seeds", "runs", "max_configs", "prefix_depth"):
            with pytest.raises(JobSpecError, match=f"{key} must be in"):
                JobSpec.from_dict({"experiment": "fuzz", key: None})

    def test_rejects_retired_packed_key(self):
        """The explorer's ``packed`` option is retired: the key is now
        unknown, whatever its value."""
        for value in (True, False):
            with pytest.raises(JobSpecError, match="unknown job spec key"):
                JobSpec.from_dict({"experiment": "explore",
                                   "packed": value})


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


class Captured(Exception):
    """Carries the job the CLI handed the engine."""


def cli_job(argv, monkeypatch, index=0):
    """The ``index``-th job ``main(argv)`` hands the engine.

    Earlier jobs run with no seeds, so the command reaches the one
    wanted; that one is captured before it runs.
    """
    seen = []

    def capture(job, **kwargs):
        seen.append(job)
        if len(seen) > index:
            raise Captured(job)
        return run_campaign(replace(job, seeds=()), workers=1)

    monkeypatch.setattr(engine, "run_campaign", capture)
    with pytest.raises(Captured) as excinfo:
        main(argv)
    [job] = excinfo.value.args
    return job


#: ``(CLI argv, index of the job among those it builds, service spec)``
#: for every route both front ends offer.
ROUTES = [
    *(
        pytest.param(
            ["explore", "--scenario", scenario], 0,
            {"experiment": "explore", "scenario": scenario}, id=scenario,
        )
        for scenario in EXPLORE_SCENARIOS
    ),
    pytest.param(
        ["campaign", "--experiment", "falsify"], 0,
        {"experiment": "falsify"}, id="falsify",
    ),
    pytest.param(
        ["campaign", "--experiment", "fuzz"], 0,
        {"experiment": "fuzz"}, id="fuzz",
    ),
    *(
        pytest.param(
            ["campaign", "--experiment", "protocol",
             "--base-object", base_object], index,
            {"experiment": "protocol", "protocol": name},
            id=f"protocol-{name}",
        )
        for base_object, names in BASE_OBJECT_SWEEPS.items()
        for index, name in enumerate(names)
    ),
]


class TestScenarioTable:
    """The CLI and the service build their jobs from one registry."""

    @pytest.mark.parametrize("argv, index, spec_dict", ROUTES)
    def test_cli_and_service_build_the_same_job(
        self, argv, index, spec_dict, monkeypatch
    ):
        cli = cli_job(argv, monkeypatch, index)
        service_job = build_job(JobSpec.from_dict(spec_dict))
        assert fingerprint(cli) == fingerprint(service_job)

    @pytest.mark.parametrize("spec_dict, expected", [
        ({"experiment": "explore", "scenario": "truncated"},
         "c1caa2ea47d0b70b"),
        ({"experiment": "explore", "scenario": "racing"},
         "735db2d69f639c4b"),
        ({"experiment": "explore", "scenario": "minseen"},
         "ae7189879625bc68"),
        ({"experiment": "explore", "scenario": "anonymous"},
         "2a3bca923f4ffc21"),
        ({"experiment": "protocol", "protocol": "racing"},
         "3d150bccbb4c1b73"),
        ({"experiment": "protocol", "protocol": "minseen"},
         "ae58474fc853a6b8"),
        ({"experiment": "falsify"}, "55f2072852522a9e"),
        ({"experiment": "fuzz"}, "60bebf3994029c28"),
        ({"experiment": "protocol", "protocol": "swap"},
         "5fc63eb085576530"),
        ({"experiment": "protocol", "protocol": "tas"},
         "325c29433434461d"),
        ({"experiment": "protocol", "protocol": "cas"},
         "43c7a2071b018137"),
    ])
    def test_fingerprints_are_pinned(self, spec_dict, expected):
        """Journals written by earlier servers must still resume."""
        assert fingerprint(build_job(JobSpec.from_dict(spec_dict))) == (
            expected
        )
