"""Chaos suite: campaigns under injected faults stay deterministic.

Two properties anchor the fault-tolerance layer:

1. **Fault-transparency.**  For any :class:`FaultPlan` whose chunks all
   eventually succeed (flaky/slow/hang-then-recover), the merged report
   is ``==`` and ``repr``-identical to the fault-free run — retries,
   backoff, and re-dispatch never leak into the science.
2. **Kill-and-resume determinism.**  A campaign killed after *any*
   prefix of chunks, then resumed from its checkpoint, merges to a
   report identical to an uninterrupted run — for sweep, fuzz, and
   explore jobs alike.

Both hold because chunk reports are pure functions of their unit ranges
and merge through an associative monoid (docs/CAMPAIGNS.md); these
tests are the proof that the fault machinery preserves that purity.
"""

import random

import pytest

from repro.campaign import (
    CampaignKilled,
    ExploreJob,
    FakeClock,
    FaultPlan,
    FaultSpec,
    FuzzJob,
    RetryPolicy,
    SweepProtocolJob,
    plan_chunks,
    run_campaign,
)
from repro.errors import CampaignError
from repro.protocols import (
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    TruncatedProtocol,
)

CHUNK_SIZE = 3

#: Retry policy for chaos runs: generous attempts, fake-clock paced.
CHAOS_RETRY = RetryPolicy(max_retries=4, base_delay=0.01)


def sweep_job():
    return SweepProtocolJob(
        protocol=MinSeen(3, rounds=2), inputs=(4, 1, 9),
        seeds=tuple(range(12)), task=KSetAgreementTask(3),
    )


def fuzz_job():
    return FuzzJob(
        protocol=TruncatedProtocol(RacingConsensus(3), 1),
        inputs=(0, 1, 2), task=KSetAgreementTask(1),
        runs=12, schedule_length=25, seed=7,
    )


def explore_job():
    return ExploreJob(
        protocol=TruncatedProtocol(RacingConsensus(3), 1),
        inputs=(0, 1, 2), task=KSetAgreementTask(1),
        max_configs=4_000, max_steps=9, prefix_depth=2,
    )


ALL_JOBS = [sweep_job, fuzz_job, explore_job]


def chunk_count(job):
    return len(plan_chunks(job.total_units(), CHUNK_SIZE))


def run(job, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("chunk_size", CHUNK_SIZE)
    kwargs.setdefault("retry", CHAOS_RETRY)
    kwargs.setdefault("clock", FakeClock())
    return run_campaign(job, **kwargs)


def random_recoverable_plan(rng, chunks):
    """A seeded random FaultPlan where every chunk eventually succeeds."""
    faults = {}
    for index in range(chunks):
        roll = rng.random()
        if roll < 0.3:
            faults[index] = FaultSpec(
                "flaky", attempts=rng.randint(1, CHAOS_RETRY.max_retries)
            )
        elif roll < 0.45:
            faults[index] = FaultSpec(
                "hang", attempts=rng.randint(1, CHAOS_RETRY.max_retries)
            )
        elif roll < 0.6:
            faults[index] = FaultSpec("slow", delay=rng.uniform(0.01, 0.5))
    return FaultPlan(faults)


class TestFaultTransparency:
    @pytest.mark.parametrize("make_job", ALL_JOBS)
    @pytest.mark.parametrize("seed", range(6))
    def test_recoverable_faults_never_change_the_report(
        self, make_job, seed
    ):
        """Property: any eventually-succeeding plan == the fault-free run."""
        job = make_job()
        clean = run(job)
        plan = random_recoverable_plan(
            random.Random(seed), chunk_count(job)
        )
        chaotic = run(job, faults=plan)
        assert chaotic.report == clean.report
        assert repr(chaotic.report) == repr(clean.report)
        assert chaotic.report.summary() == clean.report.summary()
        assert chaotic.complete

    @pytest.mark.parametrize("make_job", ALL_JOBS)
    def test_every_chunk_flaky_still_identical(self, make_job):
        job = make_job()
        clean = run(job)
        plan = FaultPlan.flaky(*range(chunk_count(job)), failures=2)
        chaotic = run(job, faults=plan)
        assert chaotic.report == clean.report
        assert repr(chaotic.report) == repr(clean.report)
        assert chaotic.telemetry.retries == 2 * chunk_count(job)

    def test_injected_hang_is_counted_as_timeout(self):
        job = sweep_job()
        result = run(
            job,
            retry=RetryPolicy(max_retries=0),
            faults=FaultPlan({1: FaultSpec("hang")}),
        )
        [failure] = result.failed_chunks
        assert failure.kind == "timeout"
        assert "ChunkTimeout" in failure.error


class TestGracefulDegradation:
    @pytest.mark.parametrize("make_job", ALL_JOBS)
    def test_partial_result_names_missing_ranges(self, make_job):
        job = make_job()
        clean = run(job)
        result = run(
            job, retry=RetryPolicy(max_retries=1, base_delay=0.01),
            faults=FaultPlan.crash(1),
        )
        assert not result.complete
        assert result.missing_ranges() == [(3, 6)]
        assert len(result.missing) == 1
        assert "chunk 1 failed after 2 attempts" in result.missing[0]
        assert "PARTIAL RESULT" in result.summary()
        # The partial report is the clean run minus exactly that chunk.
        partial_serial = job.empty_report()
        for start, stop in plan_chunks(job.total_units(), CHUNK_SIZE):
            if (start, stop) != (3, 6):
                partial_serial = partial_serial.merge(
                    job.run_range(start, stop)
                )
        assert result.report == job.finalize(partial_serial)
        assert clean.complete  # sanity: faults were the only difference

    def test_strict_raises_with_partial_result_attached(self):
        job = sweep_job()
        with pytest.raises(CampaignError) as excinfo:
            run(
                job, retry=RetryPolicy(max_retries=0),
                faults=FaultPlan.crash(0), strict=True,
            )
        assert "missing" in str(excinfo.value)
        attached = excinfo.value.result
        assert attached is not None and not attached.complete
        assert attached.report.runs == job.total_units() - CHUNK_SIZE

    def test_strict_completes_normally_without_failures(self):
        job = sweep_job()
        result = run(job, strict=True)
        assert result.complete


class TestKillAndResume:
    @pytest.mark.parametrize("make_job", ALL_JOBS)
    def test_kill_at_every_chunk_then_resume_is_identical(
        self, make_job, tmp_path
    ):
        """Kill-at-chunk-k → resume == uninterrupted, for every k."""
        job = make_job()
        clean = run(job)
        for k in range(chunk_count(job)):
            path = str(tmp_path / f"kill_{k}.ckpt")
            with pytest.raises(CampaignKilled):
                run(job, checkpoint=path, faults=FaultPlan.kill_at(k))
            resumed = run(job, checkpoint=path, resume=True)
            assert resumed.report == clean.report, f"kill at chunk {k}"
            assert repr(resumed.report) == repr(clean.report)
            assert resumed.telemetry.skipped_chunks == k
            assert resumed.complete

    def test_resume_after_kill_mid_faulty_run(self, tmp_path):
        """Faults before the kill don't poison the journal: chunks that
        retried to success are checkpointed like any other."""
        job = sweep_job()
        clean = run(job)
        path = str(tmp_path / "mid.ckpt")
        plan = FaultPlan({
            0: FaultSpec("flaky", attempts=2),
            2: FaultSpec("kill"),
        })
        with pytest.raises(CampaignKilled):
            run(job, checkpoint=path, faults=plan)
        resumed = run(job, checkpoint=path, resume=True)
        assert resumed.report == clean.report
        assert resumed.telemetry.skipped_chunks == 2

    def test_double_resume_is_a_no_op_rerun(self, tmp_path):
        """Resuming a fully-checkpointed campaign reruns nothing."""
        job = sweep_job()
        path = str(tmp_path / "full.ckpt")
        first = run(job, checkpoint=path)
        again = run(job, checkpoint=path, resume=True)
        assert again.report == first.report
        assert repr(again.report) == repr(first.report)
        assert again.telemetry.total_units == 0
        assert again.telemetry.skipped_chunks == chunk_count(job)

    def test_resume_ignores_missing_checkpoint(self, tmp_path):
        """resume=True with no file starts fresh — the same invocation
        works for first runs and recoveries."""
        job = sweep_job()
        clean = run(job)
        path = str(tmp_path / "fresh.ckpt")
        result = run(job, checkpoint=path, resume=True)
        assert result.report == clean.report
        assert result.telemetry.skipped_chunks == 0


class TestPooledChaos:
    def test_pooled_recoverable_faults_identical_to_clean(self):
        """The fault seam is live on the pooled path too."""
        job = sweep_job()
        clean = run(job)
        chaotic = run_campaign(
            job, workers=2, chunk_size=CHUNK_SIZE,
            retry=RetryPolicy(max_retries=3, base_delay=0.001),
            faults=FaultPlan({
                0: FaultSpec("flaky", attempts=1),
                2: FaultSpec("hang", attempts=1),
            }),
        )
        assert chaotic.report == clean.report
        assert repr(chaotic.report) == repr(clean.report)
        assert chaotic.telemetry.retries == 2

    def test_pooled_checkpoint_then_inprocess_resume(self, tmp_path):
        """Journals written by the pooled path resume in-process (and
        vice versa): the checkpoint format is mode-agnostic."""
        job = sweep_job()
        clean = run(job)
        path = str(tmp_path / "pooled.ckpt")
        pooled = run_campaign(
            job, workers=2, chunk_size=CHUNK_SIZE, checkpoint=path,
        )
        assert pooled.report == clean.report
        resumed = run(job, checkpoint=path, resume=True)
        assert resumed.report == clean.report
        assert resumed.telemetry.skipped_chunks == chunk_count(job)

    def test_pooled_real_timeout_retries_to_identical_report(self):
        """A worker really stuck past RetryPolicy.timeout is abandoned,
        and the chunk's retry lands the clean report."""
        job = sweep_job()
        clean = run(job)
        result = run_campaign(
            job, workers=2, chunk_size=CHUNK_SIZE,
            retry=RetryPolicy(max_retries=2, base_delay=0.001,
                              timeout=1.0),
            faults=FaultPlan({1: FaultSpec("slow", attempts=1,
                                           delay=4.0)}),
        )
        assert result.report == clean.report
        assert repr(result.report) == repr(clean.report)
        assert result.complete
        assert result.telemetry.retries == 1
        assert "ChunkTimeout" in result.telemetry.mode

    @pytest.mark.parametrize("k", range(4))
    def test_pooled_kill_then_inprocess_resume(self, k, tmp_path):
        """A pooled campaign killed at chunk k resumes in-process to the
        uninterrupted report."""
        job = sweep_job()
        assert chunk_count(job) == 4
        clean = run(job)
        path = str(tmp_path / "killed.ckpt")
        with pytest.raises(CampaignKilled):
            run_campaign(
                job, workers=2, chunk_size=CHUNK_SIZE, checkpoint=path,
                faults=FaultPlan.kill_at(k),
            )
        resumed = run(job, checkpoint=path, resume=True)
        assert resumed.report == clean.report
        assert repr(resumed.report) == repr(clean.report)
        assert resumed.complete
