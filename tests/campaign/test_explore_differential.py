"""Differential suite: sharded exploration equals serial exploration.

For a grid of (protocol, instance, worker count, chunk size), the
campaign engine's merged :class:`ExplorationReport` must equal a serial
``explore_protocol`` call with the same ``prefix_depth`` field-for-field
— including ``counterexample`` and ``truncated`` — and even as a byte
string (``repr``).  Both truncated-racing (violating) and safe
instances are covered, with ``stop_at_first_violation`` in both
positions, so neither verdict path can drift between the serial and
sharded explorers.
"""

import pytest

from repro.analysis import explore_protocol
from repro.campaign import ExploreJob, explore_campaign, run_campaign
from repro.protocols import (
    AnonymousSweepConsensus,
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    TruncatedProtocol,
)

WORKER_GRID = [1, 2, 4]


def assert_reports_identical(parallel, serial):
    assert parallel == serial
    assert repr(parallel) == repr(serial)
    assert parallel.summary() == serial.summary()


EXPLORE_CASES = [
    # (protocol factory, inputs, task, bounds, expect_safe)
    (lambda: TruncatedProtocol(RacingConsensus(3), 1), [0, 1, 2],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=20), False),
    (lambda: RacingConsensus(2), [0, 1],
     KSetAgreementTask(1), dict(max_configs=50_000, max_steps=14), True),
    (lambda: MinSeen(2), [0, 1],
     KSetAgreementTask(2), dict(max_configs=100_000, max_steps=None), True),
]


class TestExploreDifferential:
    @pytest.mark.parametrize("case", range(len(EXPLORE_CASES)))
    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_matches_serial(self, case, workers):
        make, inputs, task, bounds, expect_safe = EXPLORE_CASES[case]
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=2, **bounds
        )
        result = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=workers,
            chunk_size=2, **bounds
        )
        assert_reports_identical(result.report, serial)
        assert result.report.safe == expect_safe

    @pytest.mark.parametrize("workers", [2, 4])
    def test_collect_all_matches_serial(self, workers):
        make, inputs, task, bounds, _ = EXPLORE_CASES[0]
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=2,
            stop_at_first_violation=False, **bounds
        )
        result = explore_campaign(
            make(), inputs, task, prefix_depth=2,
            stop_at_first_violation=False, workers=workers, chunk_size=3,
            **bounds
        )
        assert_reports_identical(result.report, serial)
        assert len(result.report.violations) >= 1
        assert result.report.counterexample == serial.counterexample

    @pytest.mark.parametrize("chunk_size", [1, 2, 4, 100])
    def test_chunking_invariant(self, chunk_size):
        make, inputs, task, bounds, _ = EXPLORE_CASES[0]
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=2, **bounds
        )
        result = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=2,
            chunk_size=chunk_size, **bounds
        )
        assert_reports_identical(result.report, serial)

    @pytest.mark.parametrize("prefix_depth", [0, 1, 2, 3])
    def test_prefix_depth_grid_matches_serial(self, prefix_depth):
        make, inputs, task, bounds, _ = EXPLORE_CASES[1]
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=prefix_depth, **bounds
        )
        result = explore_campaign(
            make(), inputs, task, prefix_depth=prefix_depth, workers=2,
            chunk_size=1, **bounds
        )
        assert_reports_identical(result.report, serial)

    def test_job_units_cover_prefix_tree(self):
        make, inputs, task, bounds, _ = EXPLORE_CASES[0]
        job = ExploreJob(
            protocol=make(), inputs=tuple(inputs), task=task,
            prefix_depth=2, **bounds
        )
        # 3 undecided processes → 9 depth-2 prefixes; run_campaign over
        # those units reproduces the serial report.
        assert job.total_units() == 9
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=2, **bounds
        )
        result = run_campaign(job, workers=2, chunk_size=2)
        assert_reports_identical(result.report, serial)


class TestModeDifferential:
    """serial == sharded must survive symmetry reduction: the campaign
    engine threads ``symmetry`` through
    :class:`~repro.campaign.jobs.ExploreJob` into every worker, and the
    merged report must stay byte-identical to a serial run in the same
    mode."""

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_symmetry_sharded_matches_symmetry_serial(self, workers):
        protocol = AnonymousSweepConsensus(3, m=2)
        inputs, task = [0, 1, 1], KSetAgreementTask(1)
        bounds = dict(max_configs=300_000, max_steps=12)
        serial = explore_protocol(
            protocol, inputs, task, prefix_depth=2, symmetry=True,
            **bounds
        )
        result = explore_campaign(
            protocol, inputs, task, prefix_depth=2, workers=workers,
            chunk_size=2, symmetry=True, **bounds
        )
        assert_reports_identical(result.report, serial)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_symmetry_on_identity_protocol_is_inert_sharded(self, workers):
        make, inputs, task, bounds, _ = EXPLORE_CASES[1]
        plain = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=workers,
            chunk_size=2, **bounds
        )
        requested = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=workers,
            chunk_size=2, symmetry=True, **bounds
        )
        assert_reports_identical(requested.report, plain.report)

    def test_explore_job_carries_modes_into_checkpoint_fingerprint(self):
        from repro.campaign.checkpoint import job_fingerprint

        make, inputs, task, bounds, _ = EXPLORE_CASES[1]
        jobs = [
            ExploreJob(protocol=make(), inputs=tuple(inputs), task=task,
                       prefix_depth=2, **bounds),
            ExploreJob(protocol=make(), inputs=tuple(inputs), task=task,
                       prefix_depth=2, symmetry=True, **bounds),
        ]
        prints = {job_fingerprint(job, 4, 1) for job in jobs}
        # A checkpoint written in one mode must not resume in another.
        assert len(prints) == 2
