"""Engine mechanics: sharding policy, fallback, and telemetry."""

import os
from dataclasses import dataclass

import pytest

from repro.campaign import (
    FaultPlan,
    RetryPolicy,
    ShardingPolicy,
    auto_chunk_size,
    auto_workers,
    plan_chunks,
    run_campaign,
    sweep_protocol_campaign,
)
from repro.campaign import engine as engine_module
from repro.campaign.jobs import SweepProtocolJob
from repro.core.sweep import sweep_protocol
from repro.protocols import KSetAgreementTask, MinSeen


@dataclass(frozen=True)
class DiesInWorkers(SweepProtocolJob):
    """A sweep whose chunk at unit 3 kills any process but ``parent``."""

    parent: int = 0

    def run_range(self, start, stop):
        if start == 3 and os.getpid() != self.parent:
            os._exit(1)
        return super().run_range(start, stop)


def minseen_job(seed_count=10):
    return SweepProtocolJob(
        protocol=MinSeen(3, rounds=2), inputs=(4, 1, 9),
        seeds=tuple(range(seed_count)), task=KSetAgreementTask(3),
    )


class TestPartition:
    def test_plan_chunks_covers_range_disjointly(self):
        for total, size in [(10, 3), (1, 1), (7, 7), (7, 100), (12, 4)]:
            chunks = plan_chunks(total, size)
            units = [u for start, stop in chunks for u in range(start, stop)]
            assert units == list(range(total))
            assert all(stop - start <= size for start, stop in chunks)
            assert all(
                stop - start == size for start, stop in chunks[:-1]
            )

    def test_plan_chunks_empty_and_invalid(self):
        assert plan_chunks(0, 5) == []
        with pytest.raises(ValueError):
            plan_chunks(10, 0)

    def test_auto_workers_bounded_by_units_and_positive(self):
        assert auto_workers(0) == 1
        assert 1 <= auto_workers(2) <= 2
        assert auto_workers(10_000) >= 1

    def test_auto_chunk_size_gives_multiple_chunks_per_worker(self):
        size = auto_chunk_size(100, 2)
        assert 1 <= size <= 100 // 2
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(3, 8) == 1

    def test_policy_resolution_and_validation(self):
        policy = ShardingPolicy.resolve(100, workers=2, chunk_size=None)
        assert policy.workers == 2
        assert policy.chunk_size >= 1
        with pytest.raises(ValueError):
            ShardingPolicy.resolve(10, workers=0)
        with pytest.raises(ValueError):
            ShardingPolicy.resolve(10, chunk_size=-1)


class TestEngineExecution:
    def test_workers_1_stays_in_process(self):
        result = run_campaign(minseen_job(), workers=1, chunk_size=4)
        assert result.telemetry.mode == "in-process"
        assert all(
            stats.worker == f"pid:{__import__('os').getpid()}"
            for stats in result.telemetry.chunks
        )

    def test_single_chunk_stays_in_process(self):
        # One chunk can't use more than one worker; no pool is spun up.
        result = run_campaign(minseen_job(5), workers=4, chunk_size=5)
        assert result.telemetry.mode == "in-process"

    def test_empty_campaign(self):
        result = run_campaign(minseen_job(0), workers=4)
        assert result.report.runs == 0
        assert result.telemetry.total_units == 0
        assert result.telemetry.chunks == []

    def test_pool_failure_falls_back_in_process(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no processes on this platform")

        monkeypatch.setattr(engine_module, "_worker_pool", broken_pool)
        serial = sweep_protocol(
            MinSeen(3, rounds=2), [4, 1, 9], range(10),
            task=KSetAgreementTask(3),
        )
        result = run_campaign(minseen_job(), workers=4, chunk_size=3)
        assert result.telemetry.mode == "in-process (pool unavailable: OSError)"
        assert result.report == serial

    def test_dead_pool_hands_its_chunks_back(self):
        """A worker dying mid-chunk breaks the pool; the chunks it held
        finish in-process at the same attempt, counting no retry."""
        job = DiesInWorkers(
            protocol=MinSeen(3, rounds=2), inputs=(4, 1, 9),
            seeds=tuple(range(12)), task=KSetAgreementTask(3),
            parent=os.getpid(),
        )
        result = run_campaign(job, workers=2, chunk_size=3)
        assert result.telemetry.mode == (
            "in-process (pool unavailable: BrokenProcessPool)"
        )
        assert result.report == minseen_job(12).run_range(0, 12)
        assert result.complete
        assert result.telemetry.retries == 0

    def test_unpicklable_job_falls_back_in_process(self):
        # A task defined inside a function can't cross a process
        # boundary: pickling it raises out of the pool path
        # (PicklingError/AttributeError depending on interpreter), which
        # must take the documented in-process fallback, not crash.
        class LocalTask:
            def check(self, inputs, outputs):
                return []

        job = SweepProtocolJob(
            protocol=MinSeen(3, rounds=2), inputs=(4, 1, 9),
            seeds=tuple(range(10)),
            task=LocalTask(),
        )
        serial = job.run_range(0, 10)
        result = run_campaign(job, workers=4, chunk_size=3)
        assert result.telemetry.mode.startswith(
            "in-process (pool unavailable:"
        )
        assert result.report == serial

    def test_pooled_worker_exception_retried_not_fatal(self):
        """Regression: a worker exception used to abort the whole pooled
        campaign (falling back to a full in-process rerun).  It must be
        routed through the retry policy instead — the chunk is
        re-dispatched, the pool stays up, and telemetry.mode records the
        cause."""
        job = minseen_job(12)
        serial = job.run_range(0, 12)
        result = run_campaign(
            job, workers=2, chunk_size=3,
            retry=RetryPolicy(base_delay=0.001),
            faults=FaultPlan.flaky(1, failures=1),
        )
        assert result.report == serial
        assert result.complete
        assert result.telemetry.retries == 1
        assert result.telemetry.mode.startswith("pool:")
        assert "retries: 1" in result.telemetry.mode
        assert "InjectedCrash" in result.telemetry.mode

    def test_pooled_chunk_exhausting_retries_degrades_gracefully(self):
        """A chunk that fails every attempt is recorded as failed; the
        campaign still completes with the other chunks' results."""
        job = minseen_job(12)
        result = run_campaign(
            job, workers=2, chunk_size=3,
            retry=RetryPolicy(max_retries=1, base_delay=0.001),
            faults=FaultPlan.crash(2),
        )
        assert not result.complete
        assert result.missing_ranges() == [(6, 9)]
        assert result.report.runs == 9
        assert "failed chunks: 1" in result.telemetry.mode
        [failure] = result.failed_chunks
        assert failure.attempts == 2
        assert "InjectedCrash" in failure.error

    def test_telemetry_accounts_every_unit_once(self):
        result = sweep_protocol_campaign(
            MinSeen(3, rounds=2), [4, 1, 9], range(17),
            task=KSetAgreementTask(3), workers=2, chunk_size=4,
        )
        telemetry = result.telemetry
        assert telemetry.total_units == 17
        assert [
            (stats.start, stats.stop) for stats in telemetry.chunks
        ] == [(0, 4), (4, 8), (8, 12), (12, 16), (16, 17)]
        assert telemetry.wall_seconds > 0
        assert 0.0 <= telemetry.utilization <= 1.0
        assert telemetry.runs_per_second > 0

    def test_summary_mentions_throughput_and_mode(self):
        result = run_campaign(minseen_job(), workers=1)
        text = result.summary()
        assert "runs/sec" in text
        assert "in-process" in text
        assert "10 runs" in text
