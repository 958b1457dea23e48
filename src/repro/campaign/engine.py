"""The blocking campaign executor.

:func:`run_campaign` builds one
:class:`~repro.campaign.pump.CampaignPump` for a job and drains it on
the calling thread: chunks run on a ``multiprocessing`` worker pool when
one is usable, in-process otherwise, and the pump folds the partial
reports back into one with the report class's associative ``merge()``
— always in ascending chunk order, so the result is byte-identical
regardless of worker count or which worker finished first.

The pump owns everything that makes a long campaign survivable — retry
with deterministic backoff (:class:`~repro.campaign.faults.RetryPolicy`),
crash-safe checkpoint journaling and exact resume
(:mod:`repro.campaign.checkpoint`), graceful degradation to a partial
result naming the missing unit ranges (``strict=True`` upgrades it to a
:class:`~repro.errors.CampaignError`), and the certificate gate.  This
module only decides where chunk attempts run and how to wait:

* **Pool drain.**  Ready attempts go to a process pool as soon as the
  pump hands them out, so backoff overlaps other chunks; each attempt
  gets a real-time :attr:`RetryPolicy.timeout`, enforced here because
  only real time passes while a worker hangs.
* **In-process drain.**  Attempts run on the calling thread; a failed
  attempt backs off on the pump's clock right away and retries in
  place.  Tests inject a :class:`~repro.campaign.faults.FakeClock` and
  never block.

``workers=1``, a single chunk, an unpicklable job or fault plan, and a
platform without usable process pools all take the in-process drain;
a pool that dies mid-run hands its unfinished attempts back to the pump
and the campaign finishes in-process.  A
:class:`~repro.campaign.faults.FaultPlan` injects the same faults on
both drains — the seam the chaos suite (tests/campaign/test_chaos.py)
drives.  Timing telemetry lives in a
:class:`~repro.campaign.telemetry.CampaignTelemetry` alongside — never
inside — the merged report.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.faults import (
    CampaignKilled,
    ChunkTimeout,
    Clock,
    FaultPlan,
    RetryPolicy,
)
from repro.campaign.jobs import (
    ExploreJob,
    FuzzJob,
    SweepProtocolJob,
    SweepSimulationJob,
)
from repro.campaign.pump import CampaignPump, ChunkTask, execute_chunk
from repro.campaign.telemetry import (
    CampaignTelemetry,
    ChunkFailure,
)


@dataclass
class CampaignResult:
    """A merged report plus the telemetry of producing it.

    ``missing`` names the unit ranges lost to permanently failed chunks
    (empty on a complete campaign) — partial results are explicit,
    never silent.
    """

    report: Any
    telemetry: CampaignTelemetry
    missing: Tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        """True when every chunk succeeded (no units are missing)."""
        return not self.telemetry.failures

    @property
    def failed_chunks(self) -> List[ChunkFailure]:
        """Chunks that exhausted their retry budget, ascending by index."""
        return list(self.telemetry.failures)

    def missing_ranges(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` unit ranges absent from the merged report."""
        return [(f.start, f.stop) for f in self.telemetry.failures]

    def summary(self) -> str:
        """The scientific summary, the throughput line, and — for a
        partial result — the exact missing ranges."""
        lines = [self.report.summary(), self.telemetry.summary()]
        if not self.complete:
            lines.append(
                "PARTIAL RESULT — missing " + "; ".join(self.missing)
            )
        return "\n".join(lines)


def _pool_context() -> "multiprocessing.context.BaseContext":
    """The multiprocessing context to use: fork when the platform has it.

    Fork keeps worker startup cheap (no re-import of the library); on
    platforms without it the default start method is used, and failures
    at pool-construction time fall back to in-process execution.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_CHECK_INTERVAL = 1.0


def _init_worker(parent: int) -> None:
    """Pool worker initializer: answer SIGTERM, and die with the parent.

    A forked worker inherits the parent's signal handlers — under
    ``repro serve``, asyncio's, which swallow SIGTERM — and nothing
    tells it to exit if the parent is SIGKILLed: it would sleep forever,
    holding the parent's stdout pipe open.  A daemon thread exits the
    worker once it has been re-parented.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_CHECK_INTERVAL)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers cannot outlive this process.

    The one pool constructor of the batch engine and the job service.
    """
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context(),
        initializer=_init_worker, initargs=(os.getpid(),),
    )


def _drain_pooled(
    pump: CampaignPump, workers: int, faults: Optional[FaultPlan]
) -> str:
    """Drain ``pump`` on a process pool; returns the mode tag.

    Every ready attempt is submitted at once and gets a real-time
    deadline of ``retry.timeout`` from submission; a breach fails the
    attempt with :class:`ChunkTimeout`.  Raises only on pool
    infrastructure failures (construction, a broken executor) or an
    injected :class:`CampaignKilled`.
    """
    timeout = pump.retry.timeout
    pool = _worker_pool(workers)
    inflight: Dict[Any, Tuple[ChunkTask, Optional[float]]] = {}
    abandoned = 0
    try:
        while not pump.done:
            task = pump.next_chunk()
            while task is not None:
                future = pool.submit(
                    execute_chunk, pump.job, task.index, task.start,
                    task.stop, task.attempt, faults,
                )
                inflight[future] = (task, None if timeout is None
                                    else time.monotonic() + timeout)
                task = pump.next_chunk()

            waits = [deadline - time.monotonic()
                     for _, deadline in inflight.values()
                     if deadline is not None]
            ready_at = pump.next_ready_at()
            if ready_at is not None:
                waits.append(ready_at - pump.clock.now())
            pause = max(0.0, min(waits)) if waits else None
            if not inflight:
                pump.clock.sleep(pause)
                continue

            done, _ = wait(inflight, timeout=pause,
                           return_when=FIRST_COMPLETED)
            for future in done:
                error = future.exception()
                if isinstance(error, (CampaignKilled, BrokenExecutor)):
                    raise error
                task, _ = inflight.pop(future)
                if error is None:
                    _, report, stats = future.result()
                    pump.complete(task, report, stats)
                else:
                    pump.fail(task, error)
            now = time.monotonic()
            for future, (task, deadline) in list(inflight.items()):
                if deadline is not None and now >= deadline:
                    del inflight[future]
                    if not future.cancel():
                        # Still running: its result, if it ever comes, is
                        # discarded, and the worker slot is lost until
                        # the attempt finishes or the pool shuts down.
                        abandoned += 1
                    pump.fail(task, ChunkTimeout(
                        f"chunk {task.index} attempt {task.attempt} "
                        f"exceeded the {timeout}s per-attempt timeout"
                    ))
    finally:
        # Don't block campaign completion on genuinely hung workers.
        pool.shutdown(wait=abandoned == 0, cancel_futures=True)
    return f"pool:{_pool_context().get_start_method()}"


def _drain_inprocess(
    pump: CampaignPump, faults: Optional[FaultPlan]
) -> None:
    """Drain ``pump`` on the calling thread.

    A failed attempt backs off on the pump's clock immediately, so its
    retry is the next ready work: chunks retry in place, in index order.
    Per-attempt timeouts cannot preempt the calling thread; injected
    ``hang`` faults still exercise the timeout handling.
    """
    clock = pump.clock
    while not pump.done:
        task = pump.next_chunk()
        if task is None:
            clock.sleep(pump.next_ready_at() - clock.now())
            continue
        try:
            _, report, stats = execute_chunk(
                pump.job, task.index, task.start, task.stop,
                task.attempt, faults, clock,
            )
        except CampaignKilled:
            raise
        except Exception as error:
            pump.fail(task, error)
        else:
            pump.complete(task, report, stats)
        if task.index not in pump.results and task.index not in pump.failures:
            clock.sleep(
                pump.retry.delay_before(task.index, task.attempt + 1)
            )


#: Exception types that mean "the pool itself is unusable" — the
#: campaign continues in-process.  Worker exceptions never surface here;
#: the pump retries them per chunk.
_POOL_INFRA_ERRORS = (
    OSError,
    ValueError,
    RuntimeError,        # includes BrokenExecutor / BrokenProcessPool
    ImportError,
    AttributeError,
    TypeError,
    pickle.PicklingError,
)


def run_campaign(
    job: Any,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    *,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    strict: bool = False,
    clock: Optional[Clock] = None,
    verify_certificates: bool = False,
) -> CampaignResult:
    """Execute a campaign job, in parallel when possible, surviving faults.

    ``workers``/``chunk_size`` default to the auto policy
    (:meth:`~repro.campaign.partition.ShardingPolicy.resolve`).  The
    merged report is identical — including summaries — for every choice
    of ``workers`` and ``chunk_size``, and across checkpoint/resume
    boundaries; only the telemetry differs.

    Keyword options:

    * ``retry`` — the :class:`~repro.campaign.faults.RetryPolicy` for
      failed/hung chunks (default: 2 retries, exponential backoff);
    * ``faults`` — a :class:`~repro.campaign.faults.FaultPlan` for
      deterministic fault injection (chaos testing);
    * ``checkpoint`` — journal completed chunk reports to this path
      (atomic write-rename, fsync'd) as they finish;
    * ``resume`` — when the checkpoint file exists, validate it against
      this job and skip its completed chunks (a missing file starts
      fresh, so the same command line works for first runs and
      retries);
    * ``strict`` — raise :class:`~repro.errors.CampaignError` instead
      of returning a partial result when chunks failed permanently;
    * ``clock`` — time source for retry backoff on both the pooled and
      the in-process path, and for injected ``slow`` faults on the
      in-process path (tests inject a FakeClock); per-attempt timeouts
      always use real time;
    * ``verify_certificates`` — treat workers as untrusted: flip the
      job into certificate-emitting mode (via its
      ``with_certificates`` hook, when it has one) and re-check every
      chunk report's certificates with the independent verifier
      (:mod:`repro.certify.verify`) before the merge fold accepts the
      chunk.  A rejected certificate is a retryable chunk failure;
      resumed checkpoint chunks are re-verified too, and failing ones
      are re-run instead of merged.  Note the flag changes the job —
      and therefore the checkpoint fingerprint — so a campaign must be
      resumed with the same setting it started with.
    """
    pump = CampaignPump(
        job, workers, chunk_size, retry=retry, checkpoint=checkpoint,
        resume=resume, strict=strict,
        verify_certificates=verify_certificates, clock=clock,
    )
    mode = "in-process"
    workers = pump.prepared.policy.workers
    if workers > 1 and len(pump.prepared.remaining) > 1:
        # Pre-flight: a job (or plan) that cannot cross a process
        # boundary — e.g. a lambda task — takes the in-process drain
        # immediately, cleanly separated from worker exceptions (which
        # the pump retries per chunk, never fatal).
        try:
            pickle.dumps(pump.job)
            if faults is not None:
                pickle.dumps(faults)
        except Exception as error:
            mode = f"in-process (pool unavailable: {type(error).__name__})"
        else:
            try:
                mode = _drain_pooled(pump, workers, faults)
            except _POOL_INFRA_ERRORS as error:
                # The pool died (or never came up).  Settled chunks
                # stay settled and journaled; the rest finish here.
                pump.release_in_flight()
                mode = (
                    f"in-process (pool unavailable: "
                    f"{type(error).__name__})"
                )
    _drain_inprocess(pump, faults)
    return pump.finalize(mode)


def sweep_simulation_campaign(
    protocol,
    k: int,
    x: int,
    inputs,
    seeds,
    task=None,
    verify_correspondence: bool = False,
    max_steps: int = 500_000,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    strict: bool = False,
    verify_certificates: bool = False,
    **run_kwargs,
) -> CampaignResult:
    """Sharded :func:`~repro.core.sweep.sweep_simulation` over seeds."""
    job = SweepSimulationJob(
        protocol=protocol, k=k, x=x, inputs=tuple(inputs),
        seeds=tuple(seeds), task=task,
        verify_correspondence=verify_correspondence, max_steps=max_steps,
        run_kwargs=dict(run_kwargs),
    )
    return run_campaign(
        job, workers=workers, chunk_size=chunk_size, retry=retry,
        faults=faults, checkpoint=checkpoint, resume=resume,
        strict=strict, verify_certificates=verify_certificates,
    )


def sweep_protocol_campaign(
    protocol,
    inputs,
    seeds,
    task=None,
    max_steps: int = 100_000,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    strict: bool = False,
    verify_certificates: bool = False,
) -> CampaignResult:
    """Sharded :func:`~repro.core.sweep.sweep_protocol` over seeds."""
    job = SweepProtocolJob(
        protocol=protocol, inputs=tuple(inputs), seeds=tuple(seeds),
        task=task, max_steps=max_steps,
    )
    return run_campaign(
        job, workers=workers, chunk_size=chunk_size, retry=retry,
        faults=faults, checkpoint=checkpoint, resume=resume,
        strict=strict, verify_certificates=verify_certificates,
    )


def explore_campaign(
    protocol,
    inputs,
    task,
    max_configs: int = 200_000,
    max_steps: Optional[int] = None,
    stop_at_first_violation: bool = True,
    prefix_depth: int = 2,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    strict: bool = False,
    verify_certificates: bool = False,
    packed: bool = True,
    symmetry: bool = False,
) -> CampaignResult:
    """Sharded bounded-exhaustive exploration over schedule-prefix subtrees.

    Equivalent to :func:`~repro.analysis.explore.explore_protocol` with
    the same ``prefix_depth`` (and the same ``packed``/``symmetry``
    modes): the merged
    :class:`~repro.analysis.explore.ExplorationReport` is field-for-field
    identical for every ``workers``/``chunk_size`` choice.
    """
    job = ExploreJob(
        protocol=protocol, inputs=tuple(inputs), task=task,
        max_configs=max_configs, max_steps=max_steps,
        stop_at_first_violation=stop_at_first_violation,
        prefix_depth=prefix_depth, packed=packed, symmetry=symmetry,
    )
    return run_campaign(
        job, workers=workers, chunk_size=chunk_size, retry=retry,
        faults=faults, checkpoint=checkpoint, resume=resume,
        strict=strict, verify_certificates=verify_certificates,
    )


def fuzz_campaign(
    protocol,
    inputs,
    task,
    runs: int = 200,
    schedule_length: int = 60,
    seed: int = 0,
    shrink: bool = True,
    max_saved_violations: Optional[int] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    strict: bool = False,
    verify_certificates: bool = False,
) -> CampaignResult:
    """Sharded :func:`~repro.analysis.fuzz.fuzz_protocol` over runs."""
    from repro.analysis.fuzz import DEFAULT_MAX_SAVED_VIOLATIONS

    job = FuzzJob(
        protocol=protocol, inputs=tuple(inputs), task=task, runs=runs,
        schedule_length=schedule_length, seed=seed, shrink=shrink,
        max_saved_violations=(
            DEFAULT_MAX_SAVED_VIOLATIONS
            if max_saved_violations is None
            else max_saved_violations
        ),
    )
    return run_campaign(
        job, workers=workers, chunk_size=chunk_size, retry=retry,
        faults=faults, checkpoint=checkpoint, resume=resume,
        strict=strict, verify_certificates=verify_certificates,
    )
