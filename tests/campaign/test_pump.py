"""CampaignPump: chunk-granular execution equals the blocking engine.

The pump is the tentpole seam the service stands on, so the tests here
are differential: drive a campaign chunk-by-chunk (with failures and
retries, across a simulated crash) and demand the finalized
:class:`~repro.campaign.engine.CampaignResult` match what
``run_campaign`` produces for the same job.  Drains of every matrix row
against the serial harness are differential matrix columns
(``tests/test_matrix.py``): in hand-out order ``sharded-1``,
``kill-resume`` and ``torn-resume``, in reverse ``pump-reversed``;
the sweep and fuzz campaigns drained at 1, 2 and 4 workers, in either
order, are in ``test_differential.py``.
"""

import pytest

from repro.campaign import (
    FakeClock,
    RetryPolicy,
    SweepProtocolJob,
    run_campaign,
)
from repro.campaign.pump import CampaignPump, execute_chunk
from repro.errors import CampaignError
from repro.protocols import KSetAgreementTask, MinSeen


def make_job(seed_count=12):
    return SweepProtocolJob(
        protocol=MinSeen(3, rounds=2), inputs=(4, 1, 9),
        seeds=tuple(range(seed_count)), task=KSetAgreementTask(3),
    )


def drain(pump):
    """Run a pump to completion on the calling thread, in handed order."""
    while not pump.done:
        task = pump.next_chunk()
        assert task is not None, "pump stalled with work outstanding"
        index, report, stats = execute_chunk(
            pump.job, task.index, task.start, task.stop, task.attempt
        )
        assert index == task.index
        pump.complete(task, report, stats)
    return pump.finalize()


class TestRetries:
    def test_failed_chunk_requeues_with_backoff_deadline(self):
        clock = FakeClock()
        retry = RetryPolicy(max_retries=2, base_delay=1.0, jitter=0.0)
        pump = CampaignPump(
            make_job(), workers=1, chunk_size=3, retry=retry,
            clock=clock,
        )
        task = pump.next_chunk()
        ready_at = pump.fail(task, RuntimeError("boom"))
        assert ready_at is not None and ready_at > clock.now()
        # Other chunks flow while the retry waits out its backoff; the
        # retried chunk is withheld until the clock reaches it.
        seen = set()
        while True:
            other = pump.next_chunk()
            if other is None:
                break
            assert other.index != task.index
            seen.add(other.index)
            _, report, stats = execute_chunk(
                pump.job, other.index, other.start, other.stop
            )
            pump.complete(other, report, stats)
        assert seen  # progress happened despite the waiting retry
        clock.current = ready_at
        retried = pump.next_chunk()
        assert retried is not None
        assert retried.index == task.index
        assert retried.attempt == task.attempt + 1

    def test_ready_retry_goes_out_before_higher_chunks(self):
        """Once its backoff has passed, a retry is handed out ahead of
        every higher-indexed first attempt."""
        clock = FakeClock()
        retry = RetryPolicy(max_retries=1, base_delay=1.0, jitter=0.0)
        pump = CampaignPump(
            make_job(), workers=1, chunk_size=3, retry=retry,
            clock=clock,
        )
        first = pump.next_chunk()
        clock.current = pump.fail(first, RuntimeError("boom"))
        retried = pump.next_chunk()
        assert (retried.index, retried.attempt) == (first.index, 1)
        assert pump.next_chunk().index == first.index + 1

    def test_release_requeues_without_counting_a_retry(self):
        pump = CampaignPump(make_job(), workers=2, chunk_size=3)
        handed = [pump.next_chunk(), pump.next_chunk()]
        pump.release_in_flight()
        assert pump.in_flight == 0
        again = [pump.next_chunk(), pump.next_chunk()]
        assert again == handed
        assert pump.retries == 0

    def test_exhausted_budget_degrades_to_partial_result(self):
        retry = RetryPolicy(max_retries=0)
        pump = CampaignPump(
            make_job(), workers=1, chunk_size=3, retry=retry,
            clock=FakeClock(),
        )
        failed_index = None
        while not pump.done:
            task = pump.next_chunk()
            if failed_index is None:
                failed_index = task.index
            if task.index == failed_index:
                assert pump.fail(task, RuntimeError("boom")) is None
                continue
            _, report, stats = execute_chunk(
                pump.job, task.index, task.start, task.stop
            )
            pump.complete(task, report, stats)
        result = pump.finalize()
        assert not result.complete
        assert len(result.missing) == 1
        assert "boom" in result.missing[0]
        assert result.telemetry.failures[0].index == failed_index

    def test_finalize_refuses_while_work_outstanding(self):
        pump = CampaignPump(make_job(), workers=1, chunk_size=3)
        pump.next_chunk()
        with pytest.raises(CampaignError, match="in flight"):
            pump.finalize()


class TestCheckpointHandoff:
    def test_new_pump_resumes_a_dead_pumps_journal(self, tmp_path):
        """Crash-and-rebuild: a fresh pump over the same journal skips
        the settled chunks and merges to the identical report."""
        path = str(tmp_path / "pump.ckpt")
        job = make_job()
        first = CampaignPump(job, workers=1, chunk_size=3,
                             checkpoint=path, resume=True)
        for _ in range(2):
            task = first.next_chunk()
            _, report, stats = execute_chunk(
                first.job, task.index, task.start, task.stop
            )
            first.complete(task, report, stats)
        # The first pump dies here — no finalize, journal left behind.

        second = CampaignPump(job, workers=1, chunk_size=3,
                              checkpoint=path, resume=True)
        assert second.completed_chunks == 2
        result = drain(second)
        assert result.telemetry.skipped_chunks == 2
        expected = run_campaign(job, workers=1, chunk_size=3)
        assert result.report == expected.report
        assert repr(result.report) == repr(expected.report)
