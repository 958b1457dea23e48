"""Chunk-granular campaign execution: the one place a chunk is settled.

Every campaign — a blocking
:func:`~repro.campaign.engine.run_campaign` or a job multiplexed by
:mod:`repro.serve` — runs through the pieces here:

* :func:`prepare_campaign` — everything that happens before the first
  chunk runs: resolve the sharding policy, plan chunks, validate and
  replay a resume journal (re-verifying resumed certificates under the
  untrusted-worker gate), and open the checkpoint writer.
* :func:`execute_chunk` — run one chunk attempt (in a pool worker or on
  the calling thread) and time it.
* :func:`merge_campaign` — the ascending, deterministic merge fold that
  turns chunk reports back into one report, naming missing ranges.
* :class:`CampaignPump` — a non-blocking state machine over the three:
  hand out :class:`ChunkTask`\\ s (lowest ready chunk index first,
  retries once their backoff has passed), accept completions and
  failures, and finalize into a
  :class:`~repro.campaign.engine.CampaignResult`.

Retry, backoff, certificate gating, journaling and the merge fold live
only in :class:`CampaignPump`; its owners merely decide where chunk
attempts run and how to wait.  The engine drains one pump on its own
call stack, the service round-robins ``next_chunk()`` across many, so
the two cannot drift.
"""

from __future__ import annotations

import heapq
import math
import os
import time
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.campaign.checkpoint import (
    CheckpointWriter,
    job_fingerprint,
    load_checkpoint,
)
from repro.campaign.faults import (
    ChunkTimeout,
    Clock,
    FaultPlan,
    RetryPolicy,
    SystemClock,
)
from repro.campaign.partition import ShardingPolicy, plan_chunks
from repro.campaign.telemetry import (
    CampaignTelemetry,
    ChunkFailure,
    ChunkStats,
)
from repro.errors import CampaignError, CertificateError, CheckpointError


def execute_chunk(
    job: Any,
    index: int,
    start: int,
    stop: int,
    attempt: int = 0,
    faults: Optional[FaultPlan] = None,
    clock: Optional[Clock] = None,
) -> Tuple[int, Any, ChunkStats]:
    """Run one chunk attempt, timing its body; executes in worker or parent.

    Fault injection happens here — inside the worker on the pooled
    path, on the calling thread in-process — so both modes observe
    identical faults for the same ``(index, attempt)``.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    if faults is not None:
        faults.apply(index, attempt, clock)
    report = job.run_range(start, stop)
    stats = ChunkStats(
        index=index,
        start=start,
        stop=stop,
        wall_seconds=time.perf_counter() - wall_start,
        cpu_seconds=time.process_time() - cpu_start,
        worker=f"pid:{os.getpid()}",
        attempts=attempt + 1,
    )
    return index, report, stats


@dataclass(frozen=True)
class ChunkTask:
    """One dispatchable unit of campaign work: a chunk attempt.

    ``attempt`` counts from 0 (the first try); a retry of the same
    chunk is a fresh task with ``attempt + 1``.
    """

    index: int
    start: int
    stop: int
    attempt: int = 0

    @property
    def units(self) -> int:
        """Number of campaign units this chunk covers."""
        return self.stop - self.start


@dataclass
class PreparedCampaign:
    """A campaign after setup, before any chunk has run.

    Holds the (possibly certificate-flipped) job, the resolved
    sharding policy and chunk plan, the chunks replayed from a resume
    journal, and the open checkpoint writer.  Every
    :class:`CampaignPump` starts from one of these, so setup semantics
    — validation errors included — are the same for every owner.
    """

    job: Any
    total_units: int
    policy: ShardingPolicy
    chunks: List[Tuple[int, int]]
    fingerprint: str
    completed: Dict[int, Any]
    writer: Optional[CheckpointWriter]
    resumed_certificates: int = 0

    @property
    def remaining(self) -> List[int]:
        """Chunk indices still to run, ascending."""
        return [
            index for index in range(len(self.chunks))
            if index not in self.completed
        ]

    def record(self, index: int, report: Any) -> None:
        """Journal one completed chunk to the checkpoint, if one is open."""
        if self.writer is not None:
            start, stop = self.chunks[index]
            self.writer.record_chunk(index, start, stop, report)


def prepare_campaign(
    job: Any,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    *,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    verify_certificates: bool = False,
) -> PreparedCampaign:
    """Resolve policy, plan chunks, replay a resume journal, open a writer.

    The setup phase of every :class:`CampaignPump`, batch or service,
    with one contract:

    * ``verify_certificates=True`` flips the job into
      certificate-emitting mode via its ``with_certificates`` hook;
    * a resume journal must match this campaign's fingerprint, unit
      count, and chunk geometry (``chunk_size=None`` adopts the
      journal's), else :class:`~repro.errors.CheckpointError`;
    * resumed chunk reports are re-verified under the untrusted-worker
      gate, and chunks whose certificates no longer replay are re-run
      instead of merged;
    * a missing journal file starts fresh — the writer creates the
      file (and any missing parent directories) on the first flush.
    """
    total = job.total_units()
    if verify_certificates:
        with_certificates = getattr(job, "with_certificates", None)
        if with_certificates is not None:
            job = with_certificates(True)

    state = None
    if checkpoint is not None and resume and os.path.exists(checkpoint):
        state = load_checkpoint(checkpoint)
        if chunk_size is not None and chunk_size != state.chunk_size:
            raise CheckpointError(
                f"checkpoint {checkpoint!r} was written with "
                f"chunk_size={state.chunk_size}, but chunk_size="
                f"{chunk_size} was requested; resume must reuse the "
                f"original chunk geometry"
            )
        chunk_size = state.chunk_size

    policy = ShardingPolicy.resolve(total, workers, chunk_size)
    chunks = plan_chunks(total, policy.chunk_size)
    fingerprint = job_fingerprint(job, total, policy.chunk_size)

    completed: Dict[int, Any] = {}
    if state is not None:
        if state.total_units != total:
            raise CheckpointError(
                f"checkpoint {checkpoint!r} covers {state.total_units} "
                f"units, but this campaign has {total}"
            )
        if state.fingerprint != fingerprint:
            raise CheckpointError(
                f"checkpoint {checkpoint!r} fingerprint "
                f"{state.fingerprint} does not match this campaign "
                f"({fingerprint}); refusing to merge reports from a "
                f"different job"
            )
        for index, chunk_record in state.records.items():
            if index >= len(chunks) or (
                chunk_record.start, chunk_record.stop
            ) != chunks[index]:
                raise CheckpointError(
                    f"checkpoint {checkpoint!r} chunk {index} range "
                    f"({chunk_record.start}, {chunk_record.stop}) does "
                    f"not match the campaign's chunk plan"
                )
            completed[index] = chunk_record.report

    resumed_certificates = 0
    if verify_certificates and completed:
        # Resumed chunks came from a journal a (possibly different)
        # worker wrote; re-verify them and re-run any that fail rather
        # than merging an unvouched-for report.
        from repro.certify.verify import verify_certificates as check

        for index in sorted(completed):
            certificates = getattr(
                completed[index], "certificates", None
            ) or []
            if not certificates:
                continue
            if check(certificates).accepted:
                resumed_certificates += len(certificates)
            else:
                del completed[index]

    writer = None
    if checkpoint is not None:
        writer = CheckpointWriter(
            checkpoint, fingerprint, total, policy.chunk_size,
            state=state,
        )
    return PreparedCampaign(
        job=job, total_units=total, policy=policy, chunks=chunks,
        fingerprint=fingerprint, completed=completed, writer=writer,
        resumed_certificates=resumed_certificates,
    )


def merge_campaign(
    job: Any,
    chunks: Sequence[Tuple[int, int]],
    completed: Dict[int, Any],
    outcomes: CampaignPump,
) -> Tuple[Any, List[ChunkStats], List[str]]:
    """Fold chunk reports into one, in ascending chunk order.

    ``completed`` holds the chunks replayed from a resume journal;
    ``outcomes`` is the pump whose ``results`` and ``failures`` settled
    the rest.  Returns ``(finalized_report, stats_in_order, missing)``
    where ``missing`` names the unit ranges of permanently failed
    chunks.
    The ascending fold is what makes the merged report byte-identical
    across worker counts, completion orders, and resume boundaries.
    The finalized report's certificates are re-verified under the
    untrusted-worker gate (a rejection here is a
    :class:`~repro.errors.CertificateError` — the coordinator itself
    minted the lie, so it is not retryable).
    """
    report = job.empty_report()
    stats_in_order: List[ChunkStats] = []
    missing: List[str] = []
    for index in range(len(chunks)):
        if index in completed:
            report = report.merge(completed[index])
        elif index in outcomes.results:
            chunk_report, stats = outcomes.results[index]
            report = report.merge(chunk_report)
            stats_in_order.append(stats)
        else:
            failure = outcomes.failures[index]
            missing.append(
                f"{job.describe_range(failure.start, failure.stop)} "
                f"(chunk {failure.index} failed after "
                f"{failure.attempts} attempt"
                f"{'s' if failure.attempts != 1 else ''}: "
                f"{failure.error})"
            )
    report = job.finalize(report)
    # The finalized report may carry certificates no chunk ever did —
    # sweeps mint at finalize, fuzz re-derives its shrink certificate —
    # so the gate audits the merged result as well.
    outcomes._verify_chunk(report)
    return report, stats_in_order, missing


class CampaignPump:
    """A non-blocking, chunk-granular view of one campaign.

    A pump owns *no* execution resources: its owner asks for work with
    :meth:`next_chunk`, runs the returned :class:`ChunkTask` wherever
    it likes (process pool, thread, inline), and reports back with
    :meth:`complete` or :meth:`fail`.  The blocking
    :func:`~repro.campaign.engine.run_campaign` drains one pump on its
    own call stack; :mod:`repro.serve` interleaves calls across many
    pumps to multiplex many campaigns over one shared pool.  Either
    way every per-campaign invariant lives here, once:

    * completed chunks are journaled crash-safely the moment they are
      accepted, so a killed-and-restarted owner resumes by building a
      fresh pump with ``resume=True`` and merges to an ``==``-identical
      report;
    * a failed attempt is retried under the
      :class:`~repro.campaign.faults.RetryPolicy`: it waits out its
      deterministic backoff on ``clock``, then joins the ready work,
      which is handed out lowest chunk index first;
    * under ``verify_certificates=True`` a chunk whose certificates
      fail independent replay is rejected and retried, never merged.

    :meth:`finalize` folds the settled chunks into a
    :class:`~repro.campaign.engine.CampaignResult` whose
    ``telemetry.mode`` is ``mode`` (default ``"pump"``) plus any
    retry/failure annotations.
    """

    def __init__(
        self,
        job: Any,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        *,
        retry: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        strict: bool = False,
        verify_certificates: bool = False,
        clock: Optional[Clock] = None,
    ):
        self.clock = SystemClock() if clock is None else clock
        self.retry = RetryPolicy() if retry is None else retry
        self.strict = strict
        self.verify_certificates = verify_certificates
        self.prepared = prepare_campaign(
            job, workers, chunk_size, checkpoint=checkpoint,
            resume=resume, verify_certificates=verify_certificates,
        )
        self.job = self.prepared.job
        #: Chunks settled by this run: accepted reports and permanent
        #: failures.  Resumed chunks stay in ``prepared.completed``.
        self.results: Dict[int, Tuple[Any, ChunkStats]] = {}
        self.failures: Dict[int, ChunkFailure] = {}
        self.retries = 0
        #: Failure-cause type names, used to tag ``telemetry.mode``.
        self.causes: Set[str] = set()
        self.certificates_verified = 0
        # Retries waiting out their backoff, as (ready time, chunk
        # index, attempt); and ready work as (chunk index, attempt) —
        # the ascending remaining list is already a valid heap.
        self._backoff: List[Tuple[float, int, int]] = []
        self._ready: List[Tuple[int, int]] = [
            (index, 0) for index in self.prepared.remaining
        ]
        # Handed-out attempts: chunk index -> attempt.
        self._in_flight: Dict[int, int] = {}
        self._wall_start = time.perf_counter()

    # ------------------------------------------------------------------
    # Introspection

    @property
    def total_chunks(self) -> int:
        """Chunks in the campaign's plan (including resumed ones)."""
        return len(self.prepared.chunks)

    @property
    def completed_chunks(self) -> int:
        """Chunks settled successfully so far (resumed + this run)."""
        return len(self.prepared.completed) + len(self.results)

    @property
    def failed_chunks(self) -> int:
        """Chunks that exhausted their retry budget."""
        return len(self.failures)

    @property
    def total_units(self) -> int:
        """Campaign units across all chunks."""
        return self.prepared.total_units

    @property
    def completed_units(self) -> int:
        """Units inside successfully settled chunks."""
        chunks = self.prepared.chunks
        done = set(self.prepared.completed) | set(self.results)
        return sum(chunks[i][1] - chunks[i][0] for i in done)

    @property
    def in_flight(self) -> int:
        """Chunks currently handed out and not yet reported back."""
        return len(self._in_flight)

    @property
    def done(self) -> bool:
        """True when every chunk has settled (succeeded or failed)."""
        return not (self._ready or self._backoff or self._in_flight)

    # ------------------------------------------------------------------
    # The pump

    def next_chunk(self, now: Optional[float] = None) -> Optional[ChunkTask]:
        """Hand out the ready chunk attempt with the lowest index, or ``None``.

        ``None`` means either nothing is ready *yet* (a retry is
        waiting out its backoff — see :meth:`next_ready_at`) or the
        campaign has no undispatched work left.  The returned task is
        tracked as in-flight until :meth:`complete`, :meth:`fail` or
        :meth:`release_in_flight`.  The clock is read only while a
        retry is backing off, so a fault-free campaign never touches it.
        """
        if self._backoff:
            now = self.clock.now() if now is None else now
            while self._backoff and self._backoff[0][0] <= now:
                _, index, attempt = heapq.heappop(self._backoff)
                heapq.heappush(self._ready, (index, attempt))
        if not self._ready:
            return None
        index, attempt = heapq.heappop(self._ready)
        self._in_flight[index] = attempt
        start, stop = self.prepared.chunks[index]
        return ChunkTask(index=index, start=start, stop=stop,
                         attempt=attempt)

    def next_ready_at(self) -> Optional[float]:
        """Clock time when the earliest queued chunk becomes ready.

        ``-inf`` when work is ready now; ``None`` when nothing is
        queued at all.
        """
        if self._ready:
            return -math.inf
        if self._backoff:
            return self._backoff[0][0]
        return None

    def _verify_chunk(self, report: Any) -> None:
        """Re-check a report's certificates under the untrusted-worker gate.

        The verifier is independent of the searchers, so a worker
        cannot vouch for its own result; a rejected certificate raises
        :class:`~repro.errors.CertificateError`.  A no-op unless the
        pump was built with ``verify_certificates=True``.
        """
        if not self.verify_certificates:
            return
        certificates = getattr(report, "certificates", None) or []
        if not certificates:
            return
        from repro.certify.verify import verify_certificates as check

        verdict = check(certificates)
        if not verdict.accepted:
            raise CertificateError(
                f"chunk certificate rejected ({verdict.reason}): "
                f"{verdict.detail}"
            )
        self.certificates_verified += len(certificates)

    def complete(
        self, task: ChunkTask, report: Any, stats: ChunkStats
    ) -> bool:
        """Accept a finished chunk attempt's report.

        Verifies certificates first when the untrusted-worker gate is
        on; a rejected report is routed through :meth:`fail` (and so
        retried) instead of merged.  Returns ``True`` when the report
        was accepted and journaled, ``False`` when it was rejected.
        """
        try:
            self._verify_chunk(report)
        except CertificateError as error:
            self.fail(task, error)
            return False
        self._in_flight.pop(task.index, None)
        self.results[task.index] = (report, stats)
        self.prepared.record(task.index, report)
        return True

    def fail(self, task: ChunkTask, error: BaseException) -> Optional[float]:
        """Record a failed chunk attempt.

        Returns the clock time at which the retry becomes ready, or
        ``None`` when the chunk's budget is spent and it was recorded
        as a permanent :class:`~repro.campaign.telemetry.ChunkFailure`.
        """
        self._in_flight.pop(task.index, None)
        self.causes.add(type(error).__name__)
        if task.attempt + 1 >= self.retry.max_attempts:
            kind = "timeout" if isinstance(error, ChunkTimeout) else "error"
            self.failures[task.index] = ChunkFailure(
                index=task.index, start=task.start, stop=task.stop,
                attempts=task.attempt + 1,
                error=f"{type(error).__name__}: {error}", kind=kind,
            )
            return None
        self.retries += 1
        ready_at = self.clock.now() + self.retry.delay_before(
            task.index, task.attempt + 1
        )
        heapq.heappush(
            self._backoff, (ready_at, task.index, task.attempt + 1)
        )
        return ready_at

    def release_in_flight(self) -> None:
        """Requeue every handed-out attempt, counting no retry.

        For attempts lost with their executor (a dead pool) rather
        than failed by their chunk: each goes back to the ready work at
        the same attempt number.
        """
        for index, attempt in self._in_flight.items():
            heapq.heappush(self._ready, (index, attempt))
        self._in_flight.clear()

    def finalize(self, mode: str = "pump"):
        """Merge all settled chunks into a CampaignResult.

        Must only be called once :attr:`done` is true.  Raises
        :class:`~repro.errors.CampaignError` — with the partial result
        attached — when the pump is ``strict`` and chunks failed.
        """
        from repro.campaign.engine import CampaignResult

        if not self.done:
            raise CampaignError(
                f"cannot finalize: "
                f"{len(self._ready) + len(self._backoff)} chunk(s) "
                f"queued and {len(self._in_flight)} in flight"
            )
        prepared = self.prepared
        report, stats_in_order, missing = merge_campaign(
            self.job, prepared.chunks, prepared.completed, self
        )
        notes = []
        if self.retries:
            notes.append(f"retries: {self.retries}")
        if self.failures:
            notes.append(f"failed chunks: {len(self.failures)}")
        if notes and self.causes:
            notes.append("causes: " + ",".join(sorted(self.causes)))
        telemetry = CampaignTelemetry(
            workers=prepared.policy.workers,
            chunk_size=prepared.policy.chunk_size,
            mode=f"{mode} ({'; '.join(notes)})" if notes else mode,
            wall_seconds=time.perf_counter() - self._wall_start,
            chunks=stats_in_order,
            failures=[self.failures[i] for i in sorted(self.failures)],
            retries=self.retries,
            skipped_chunks=len(prepared.completed),
            skipped_units=sum(
                prepared.chunks[i][1] - prepared.chunks[i][0]
                for i in prepared.completed
            ),
            certificates_verified=(
                self.certificates_verified
                + prepared.resumed_certificates
            ),
        )
        result = CampaignResult(
            report=report, telemetry=telemetry, missing=tuple(missing)
        )
        if self.strict and not result.complete:
            raise CampaignError(
                "strict campaign incomplete — missing "
                + "; ".join(missing),
                result=result,
            )
        return result
