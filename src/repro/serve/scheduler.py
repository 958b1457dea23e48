"""Fair multiplexing of many campaigns over one shared worker pool.

One :class:`Scheduler` owns the service's single worker pool and a set
of active jobs, each wrapped in a
:class:`~repro.campaign.pump.CampaignPump`.  Dispatch is round-robin at
*chunk* granularity: every pass over the rotation hands out at most one
chunk per job, so a tenant's 10,000-seed sweep and another tenant's
4-seed smoke test interleave chunk-for-chunk instead of queueing behind
each other — the small job finishes while the big one is still
running.  Two quotas bound a tenant (API key):

* ``max_active_jobs`` — queued+running jobs; exceeding it rejects the
  submission (HTTP 429) without touching anything already running;
* ``max_inflight_chunks`` — chunks of that tenant's jobs simultaneously
  occupying pool workers; at the cap the tenant's jobs are simply
  skipped in the rotation until a chunk completes.

Durability is delegated to the pieces PRs 5–7 built: every accepted
chunk is journaled by the pump's checkpoint writer before the next one
is handed out, and job status files are atomically replaced
(:mod:`repro.serve.store`), so a SIGKILL at any instant is recoverable:
on restart the scheduler finds non-terminal jobs, rebuilds their pumps
with ``resume=True``, and their final reports come out ``==``-identical
to uninterrupted runs.

The scheduler holds live jobs only (a cancelled one until its chunks
leave the workers); a finished job lives in the store alone, so cost
and memory do not grow with job history.
"""

from __future__ import annotations

import asyncio
import collections
import math
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.campaign.partition import auto_workers
from repro.campaign.pump import CampaignPump, ChunkTask, execute_chunk
from repro.errors import CampaignError, CertificateError, ReproError
from repro.serve.jobspec import JobSpec, build_job
from repro.serve.store import JobStore, ServeJob, StoreError


class QuotaExceeded(ReproError):
    """A tenant asked for more than its quota allows (HTTP 429)."""


@dataclass(frozen=True)
class TenantQuotas:
    """Per-tenant (per API key) resource bounds."""

    max_inflight_chunks: int = 4
    max_active_jobs: int = 8


@dataclass
class JobRuntime:
    """In-memory companion of one job: pump, events, counters."""

    job: ServeJob
    pump: Optional[CampaignPump] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    event_added: "asyncio.Event" = field(default_factory=asyncio.Event)
    inflight: int = 0

    def progress(self) -> Dict[str, Any]:
        """Chunk/unit progress counters of a live job (``{}`` once it
        is terminal; a done job's final progress is in its result)."""
        if self.pump is None or self.job.terminal:
            return {}
        return {
            "total_chunks": self.pump.total_chunks,
            "completed_chunks": self.pump.completed_chunks,
            "failed_chunks": self.pump.failed_chunks,
            "in_flight_chunks": self.pump.in_flight,
            "total_units": self.pump.total_units,
            "completed_units": self.pump.completed_units,
        }


class Scheduler:
    """The service's job scheduler: one shared pool, many campaigns.

    Built to run inside one asyncio event loop; all public methods are
    loop-affine (the HTTP handlers run on the same loop).  ``executor``
    selects where chunk bodies run: ``"process"`` (the default; a
    forking :class:`~concurrent.futures.ProcessPoolExecutor` exactly
    like the batch engine) or ``"thread"`` (in-process threads).  Every
    spec :class:`~repro.serve.jobspec.JobSpec` accepts builds a picklable
    job, so both run every job.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        workers: Optional[int] = None,
        quotas: Optional[TenantQuotas] = None,
        executor: str = "process",
    ):
        if executor not in ("process", "thread"):
            raise ValueError(
                f"executor must be 'process' or 'thread', got {executor!r}"
            )
        self.store = store
        self.workers = auto_workers(1 << 30) if workers is None else workers
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.quotas = TenantQuotas() if quotas is None else quotas
        self.executor_kind = executor
        self._jobs: Dict[str, JobRuntime] = {}
        self._rotation: Deque[str] = collections.deque()
        self._inflight_total = 0
        self._pool = None
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._runner: Optional[asyncio.Task] = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> int:
        """Recover persisted jobs and start the dispatch loop.

        Returns the number of jobs recovered from the state directory —
        every non-terminal job found on disk is re-queued and will
        resume from its checkpoint journal.
        """
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        recovered = self.store.recoverable()
        for job in recovered:
            runtime = JobRuntime(
                job=job, events=self.store.read_events(job.id)
            )
            if job.state == "running":
                # The previous process died mid-run; rewind the status
                # so the dispatch loop re-starts (and resumes) it.
                job.state = "queued"
                self.store.save(job)
            self._jobs[job.id] = runtime
            self._rotation.append(job.id)
            self._emit(runtime, {"event": "job-recovered"})
        self._runner = asyncio.create_task(self._run())
        self._wake.set()
        return len(recovered)

    async def stop(self) -> None:
        """Stop dispatching and release the pool.

        Deliberately *not* a drain: in-flight chunk results are
        discarded and job states stay as persisted, so stopping is
        indistinguishable from a crash — the restart path (resume from
        journals) is the single recovery mechanism and is exercised by
        every shutdown.
        """
        self._stopping = True
        if self._runner is not None:
            self._runner.cancel()
            try:
                await self._runner
            except (asyncio.CancelledError, Exception):
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=False, cancel_futures=True)
            self._thread_pool = None

    # ------------------------------------------------------------------
    # Public API (called by the HTTP handlers, same loop)

    def submit(self, tenant: str, spec: JobSpec) -> ServeJob:
        """Accept a job for ``tenant``, enforcing its active-job quota."""
        active = sum(
            1 for runtime in self._jobs.values()
            if runtime.job.tenant == tenant and not runtime.job.terminal
        )
        if active >= self.quotas.max_active_jobs:
            raise QuotaExceeded(
                f"tenant {tenant!r} already has {active} active job(s); "
                f"quota is {self.quotas.max_active_jobs}"
            )
        job = self.store.create(tenant, spec)
        runtime = JobRuntime(job=job)
        self._jobs[job.id] = runtime
        self._rotation.append(job.id)
        self._emit(runtime, {"event": "job-queued", "tenant": tenant})
        if self._wake is not None:
            self._wake.set()
        return job

    def live(self, job_id: str) -> Optional[JobRuntime]:
        """The runtime of a live job (queued, running, or terminal with
        a chunk still on a worker), or ``None``; never reads the store."""
        return self._jobs.get(job_id)

    def get(self, job_id: str) -> Optional[JobRuntime]:
        """The runtime for ``job_id``, or ``None`` if unknown; a
        finished job's is rebuilt from the store on every call."""
        runtime = self._jobs.get(job_id)
        if runtime is not None:
            return runtime
        try:
            job = self.store.load(job_id)
        except StoreError:
            return None
        return JobRuntime(job=job, events=self.store.read_events(job_id))

    def runtimes(self) -> List[JobRuntime]:
        """The live job runtimes, oldest submission first."""
        return sorted(
            self._jobs.values(),
            key=lambda runtime: (runtime.job.created_at, runtime.job.id),
        )

    def cancel(self, job_id: str) -> Optional[ServeJob]:
        """Cancel a queued or running job.

        Returns the job (now terminal), or ``None`` if unknown.
        Raises :class:`QuotaExceeded` never; cancelling an
        already-terminal job is a no-op that returns the job as-is.
        Chunks already handed to the pool finish and are discarded;
        running jobs elsewhere are untouched.
        """
        runtime = self.get(job_id)
        if runtime is None:
            return None
        if runtime.job.terminal:
            return runtime.job
        self.store.transition(runtime.job, "cancelled")
        self._emit(runtime, {"event": "job-cancelled"})
        self._maybe_finish(runtime)
        if self._wake is not None:
            self._wake.set()
        return runtime.job

    def tenant_inflight(self, tenant: str) -> int:
        """Chunks of ``tenant``'s jobs currently occupying workers."""
        return sum(
            runtime.inflight for runtime in self._jobs.values()
            if runtime.job.tenant == tenant
        )

    # ------------------------------------------------------------------
    # Dispatch loop

    async def _run(self) -> None:
        """The dispatch loop: start queued jobs, hand out ready chunks."""
        assert self._wake is not None
        while True:
            self._start_queued()
            self._dispatch()
            timeout = self._backoff_timeout()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()

    def _start_queued(self) -> None:
        """Build pumps for queued jobs and move them to ``running``."""
        for runtime in list(self._jobs.values()):
            if runtime.job.state != "queued" or runtime.pump is not None:
                continue
            job_id = runtime.job.id
            journal = self.store.journal_path(job_id)
            try:
                campaign_job = build_job(runtime.job.spec)
                runtime.pump = CampaignPump(
                    campaign_job,
                    workers=self.workers,
                    chunk_size=runtime.job.spec.chunk_size,
                    checkpoint=journal,
                    resume=True,
                    verify_certificates=(
                        runtime.job.spec.verify_certificates
                    ),
                )
            except ReproError as error:
                self.store.transition(
                    runtime.job, "failed",
                    error=f"{type(error).__name__}: {error}",
                )
                self._emit(runtime, {
                    "event": "job-failed", "error": str(error),
                })
                self._maybe_finish(runtime)
                continue
            self.store.transition(runtime.job, "running")
            self._emit(runtime, {
                "event": "job-started",
                "total_chunks": runtime.pump.total_chunks,
                "resumed_chunks": len(runtime.pump.prepared.completed),
            })

    def _dispatch(self) -> None:
        """Round-robin: at most one chunk per job per rotation pass."""
        progressed = True
        while progressed and self._inflight_total < self.workers:
            progressed = False
            for _ in range(len(self._rotation)):
                if self._inflight_total >= self.workers:
                    break
                job_id = self._rotation.popleft()
                runtime = self._jobs.get(job_id)
                if runtime is None or runtime.job.terminal:
                    continue  # leaves the rotation for good
                self._rotation.append(job_id)
                if runtime.pump is None or runtime.job.state != "running":
                    continue
                tenant = runtime.job.tenant
                if (
                    self.tenant_inflight(tenant)
                    >= self.quotas.max_inflight_chunks
                ):
                    continue
                task = runtime.pump.next_chunk()
                if task is None:
                    self._maybe_finish(runtime)
                    continue
                self._spawn(runtime, task)
                progressed = True

    def _backoff_timeout(self) -> Optional[float]:
        """Seconds until the earliest queued retry becomes ready.

        Only backoff deadlines count.  Work that is ready now but was
        not dispatched is waiting for a worker slot or its tenant's
        in-flight quota, and the chunk completion that frees either one
        sets ``_wake``; a zero timeout here would only spin the loop.
        """
        deadlines = []
        now = time.monotonic()
        for runtime in self._jobs.values():
            if runtime.pump is None or runtime.job.terminal:
                continue
            ready_at = runtime.pump.next_ready_at()
            if ready_at is not None and ready_at != -math.inf:
                deadlines.append(max(0.0, ready_at - now))
        return min(deadlines) if deadlines else None

    def _executor(self):
        """The executor chunks run on, built on first use."""
        if self.executor_kind == "thread":
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="serve-chunk",
                )
            return self._thread_pool
        if self._pool is None:
            from repro.campaign.engine import _worker_pool

            self._pool = _worker_pool(self.workers)
        return self._pool

    def _spawn(self, runtime: JobRuntime, task: ChunkTask) -> None:
        """Hand one chunk attempt to the pool and track it."""
        runtime.inflight += 1
        self._inflight_total += 1
        asyncio.create_task(self._run_chunk(runtime, task))

    async def _run_chunk(self, runtime: JobRuntime, task: ChunkTask) -> None:
        """Await one chunk attempt and feed the outcome back to the pump."""
        assert self._loop is not None and runtime.pump is not None
        pump = runtime.pump
        try:
            try:
                _index, report, stats = await self._loop.run_in_executor(
                    self._executor(), execute_chunk, pump.job, task.index,
                    task.start, task.stop, task.attempt,
                )
            except asyncio.CancelledError:
                raise
            except BrokenExecutor as error:
                # The pool died under us (e.g. a worker was killed).
                # Rebuild it and treat the attempt as retryable.
                if self._pool is not None:
                    self._pool.shutdown(wait=False, cancel_futures=True)
                    self._pool = None
                self._record_failure(runtime, task, error)
            except Exception as error:
                self._record_failure(runtime, task, error)
            else:
                if runtime.job.terminal:
                    return  # cancelled while in flight: discard
                accepted = pump.complete(task, report, stats)
                if accepted:
                    self._emit(runtime, {
                        "event": "chunk",
                        "index": task.index,
                        "start": task.start,
                        "stop": task.stop,
                        "attempt": task.attempt,
                        "wall_seconds": stats.wall_seconds,
                        "cpu_seconds": stats.cpu_seconds,
                        "worker": stats.worker,
                        "completed_chunks": pump.completed_chunks,
                        "total_chunks": pump.total_chunks,
                    })
                else:
                    self._emit_retry_or_failure(runtime, task,
                                                "certificate rejected")
        finally:
            runtime.inflight -= 1
            self._inflight_total -= 1
            self._maybe_finish(runtime)
            if self._wake is not None:
                self._wake.set()

    def _record_failure(
        self, runtime: JobRuntime, task: ChunkTask, error: BaseException
    ) -> None:
        """Route a chunk attempt failure through the pump's retry policy."""
        if runtime.job.terminal or runtime.pump is None:
            return
        runtime.pump.fail(task, error)
        self._emit_retry_or_failure(
            runtime, task, f"{type(error).__name__}: {error}"
        )

    def _emit_retry_or_failure(
        self, runtime: JobRuntime, task: ChunkTask, detail: str
    ) -> None:
        """Emit chunk-retry (budget left) or chunk-failed (permanent)."""
        permanent = task.index in runtime.pump.failures
        self._emit(runtime, {
            "event": "chunk-failed" if permanent else "chunk-retry",
            "index": task.index,
            "attempt": task.attempt,
            "error": detail,
        })

    def _maybe_finish(self, runtime: JobRuntime) -> None:
        """Finalize a job whose chunks have all settled, and drop a
        terminal job, pump and all, once no chunk of it occupies a
        worker: from then on the store is its only record."""
        if runtime.inflight > 0:
            return
        if runtime.job.state == "running" and runtime.pump.done:
            try:
                result = runtime.pump.finalize(mode="service")
            except (CertificateError, CampaignError) as error:
                self.store.transition(
                    runtime.job, "failed",
                    error=f"{type(error).__name__}: {error}",
                )
                self._emit(runtime, {
                    "event": "job-failed", "error": str(error),
                })
            else:
                # The job-done event emitted below is the job's last.
                self.store.save_result(runtime.job, result,
                                       runtime.progress(),
                                       events=len(runtime.events) + 1)
                self.store.transition(runtime.job, "done")
                self._emit(runtime, {
                    "event": "job-done",
                    "complete": result.complete,
                    "summary": result.report.summary(),
                    "telemetry": result.telemetry.summary(),
                    "missing": list(result.missing),
                })
        if runtime.job.terminal:
            self._jobs.pop(runtime.job.id, None)

    # ------------------------------------------------------------------
    # Events

    def _emit(self, runtime: JobRuntime, event: Dict[str, Any]) -> None:
        """Append an event to the job's log and wake stream listeners."""
        event = dict(event)
        event.setdefault("job", runtime.job.id)
        event["seq"] = len(runtime.events)
        event["time"] = time.time()
        runtime.events.append(event)
        try:
            self.store.append_event(runtime.job.id, event)
        except OSError:
            pass  # event log is advisory; never fail the job for it
        waiters = runtime.event_added
        runtime.event_added = asyncio.Event()
        waiters.set()
