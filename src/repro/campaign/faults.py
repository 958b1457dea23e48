"""Fault tolerance primitives: retry policy, clocks, and fault injection.

A production campaign must survive the failures the happy path never
sees — a worker that raises, hangs, or dies, an operator Ctrl-C mid
sweep.  This module supplies the three seams the engine uses to both
*tolerate* and *test* those failures:

* :class:`RetryPolicy` — how many times a failed/hung chunk is
  re-dispatched and how long to back off between attempts (exponential
  with deterministic, bounded jitter);
* :class:`Clock` / :class:`SystemClock` / :class:`FakeClock` — the time
  source behind backoff sleeps, so tier-1 tests assert exact backoff
  sequences without ever sleeping for real;
* :class:`FaultPlan` / :class:`FaultSpec` — deterministic fault
  injection at named chunk indices (crash, hang, slow,
  flaky-then-succeed, kill), active on both the pooled and in-process
  execution paths, which is what the chaos suite
  (tests/campaign/test_chaos.py) drives.

Injection is deterministic by construction: whether a given ``(chunk
index, attempt)`` pair faults depends only on the plan, never on timing
or which worker picked the chunk up — so a chaos run either equals the
fault-free run (when every chunk eventually succeeds) or degrades to a
partial report naming exactly the ranges that failed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError, ValidationError


class InjectedFault(ReproError):
    """Base class for failures raised by a :class:`FaultPlan`."""


class InjectedCrash(InjectedFault):
    """A simulated worker crash: the chunk body raised before running."""


class ChunkTimeout(ReproError):
    """A chunk attempt exceeded its per-attempt timeout.

    Raised synthetically by an injected ``hang`` fault (both execution
    modes) and by the engine's pooled drain when a real worker blows
    past :attr:`RetryPolicy.timeout`.  Routed through the retry policy like
    any other chunk failure.
    """


class CampaignKilled(ReproError):
    """A simulated operator kill (the deterministic Ctrl-C seam).

    Unlike every other injected fault this is **never retried**: it
    propagates straight out of ``run_campaign``, exactly like a real
    interrupt would, leaving the checkpoint journal (if any) holding
    every chunk completed so far.  The kill-and-resume chaos tests
    raise it at chunk *k*, then resume from the journal and assert the
    merged report is identical to an uninterrupted run.
    """


class Clock:
    """Time-source seam for retry scheduling and injected slowness.

    A :class:`~repro.campaign.pump.CampaignPump` stamps every retry's
    backoff deadline with :meth:`now`, and the engine waits them out
    with :meth:`sleep` — on the pooled and the in-process path alike —
    so a test can swap in a :class:`FakeClock` and observe the exact
    backoff sequence with zero real waiting.  Per-attempt timeouts are
    the exception: they always use real time, the only time that
    passes while a worker hangs.  Scientific results never depend on
    the clock — it only paces retries.
    """

    def now(self) -> float:
        """Current monotonic time in seconds."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (or pretend to, for fake clocks)."""
        raise NotImplementedError


class SystemClock(Clock):
    """The real wall clock: ``time.monotonic`` + ``time.sleep``."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Really sleep (only ever called between retry attempts)."""
        if seconds > 0:
            time.sleep(seconds)


class FakeClock(Clock):
    """A deterministic virtual clock for tier-1 tests.

    ``sleep`` advances virtual time instantly and records the requested
    duration in :attr:`sleeps`, so a test asserts the whole backoff
    sequence (including jitter bounds) in microseconds of real time.
    """

    def __init__(self, start: float = 0.0):
        self.current = float(start)
        self.sleeps: List[float] = []

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.current

    def sleep(self, seconds: float) -> None:
        """Advance virtual time and record the sleep, without blocking."""
        self.sleeps.append(seconds)
        self.current += max(0.0, seconds)


@dataclass(frozen=True)
class RetryPolicy:
    """How failed or hung chunks are retried.

    A chunk gets ``1 + max_retries`` attempts.  The delay before retry
    attempt *a* (``a >= 1``) is exponential —
    ``min(max_delay, base_delay * backoff_factor**(a-1))`` — widened by
    a deterministic jitter of at most ``±jitter`` (a fraction), derived
    from the chunk index and attempt number so two runs of the same
    campaign back off identically.  ``timeout`` (real seconds, counted
    from submission to the pool) bounds each attempt's wall time; a
    breach counts as a failed attempt (:class:`ChunkTimeout`) and is
    retried like a crash.  Only the pooled path enforces it — an
    attempt on the calling thread cannot be preempted.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    timeout: Optional[float] = None

    def __post_init__(self):
        """Reject nonsensical policies at construction time."""
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValidationError("delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValidationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValidationError(
                f"timeout must be positive, got {self.timeout}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts a chunk gets: the first try plus the retries."""
        return 1 + self.max_retries

    def delay_before(self, chunk_index: int, attempt: int) -> float:
        """Backoff delay (seconds) before retry ``attempt`` of a chunk.

        ``attempt`` counts from 1 (the first *retry*).  Deterministic:
        the jitter is drawn from an RNG seeded by ``(chunk_index,
        attempt)``, so the same campaign always backs off identically
        and tests can pin the exact sequence.  The result is always in
        ``[base * (1 - jitter), base * (1 + jitter)]`` where ``base`` is
        the capped exponential term.
        """
        if attempt < 1:
            raise ValidationError(
                f"retry attempt numbers start at 1, got {attempt}"
            )
        base = min(
            self.max_delay,
            self.base_delay * self.backoff_factor ** (attempt - 1),
        )
        if not self.jitter or not base:
            return base
        rng = random.Random(
            (chunk_index + 1) * 0x9E3779B97F4A7C15 + attempt
        )
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


#: Fault kinds a :class:`FaultSpec` may inject.
FAULT_KINDS = ("crash", "hang", "slow", "flaky", "kill")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault at a single chunk index.

    ``kind`` selects the behavior; ``attempts`` limits how many of the
    chunk's attempts (counted from 0) are affected — ``None`` means
    every attempt, so the chunk can never succeed:

    * ``crash`` — raise :class:`InjectedCrash` on affected attempts;
    * ``flaky`` — same as ``crash`` but ``attempts`` defaults to 1:
      fail, then succeed on retry;
    * ``hang`` — raise :class:`ChunkTimeout` on affected attempts (a
      deterministic stand-in for a worker stuck past its timeout);
    * ``slow`` — sleep ``delay`` seconds on affected attempts, then run
      the chunk normally;
    * ``kill`` — raise :class:`CampaignKilled`, which is never retried
      and aborts the whole campaign (the checkpoint keeps what
      finished).
    """

    kind: str
    attempts: Optional[int] = None
    delay: float = 0.05

    def __post_init__(self):
        """Validate the kind and normalize flaky's attempt default."""
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.kind == "flaky" and self.attempts is None:
            object.__setattr__(self, "attempts", 1)
        if self.attempts is not None and self.attempts < 1:
            raise ValidationError(
                f"attempts must be >= 1 or None, got {self.attempts}"
            )
        if self.delay < 0:
            raise ValidationError(f"delay must be >= 0, got {self.delay}")

    def affects(self, attempt: int) -> bool:
        """True when this spec fires on (0-based) ``attempt``."""
        return self.attempts is None or attempt < self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault-injection schedule, keyed by chunk index.

    Picklable (so it ships to pool workers unchanged) and purely a
    function of ``(chunk_index, attempt)`` — the same plan injects the
    same faults whether chunks run pooled, in-process, or resumed.  An
    empty plan is a no-op; the engine skips injection entirely when no
    plan is supplied, keeping the fault machinery off the hot path.
    """

    faults: Dict[int, FaultSpec] = field(default_factory=dict)

    @staticmethod
    def flaky(*chunk_indices: int, failures: int = 1) -> "FaultPlan":
        """A plan where each named chunk fails ``failures`` times, then succeeds."""
        return FaultPlan({
            index: FaultSpec("flaky", attempts=failures)
            for index in chunk_indices
        })

    @staticmethod
    def crash(*chunk_indices: int) -> "FaultPlan":
        """A plan where each named chunk crashes on every attempt."""
        return FaultPlan({
            index: FaultSpec("crash") for index in chunk_indices
        })

    @staticmethod
    def kill_at(chunk_index: int) -> "FaultPlan":
        """A plan that kills the whole campaign at one chunk (Ctrl-C seam)."""
        return FaultPlan({chunk_index: FaultSpec("kill")})

    def apply(
        self, chunk_index: int, attempt: int, clock: Optional[Clock] = None
    ) -> None:
        """Inject the configured fault for ``(chunk_index, attempt)``.

        Called by the engine just before a chunk body runs — in the
        worker process on the pooled path, on the calling thread
        in-process — so both modes observe identical faults.  Raises
        the fault's exception, sleeps (``slow``), or does nothing.
        """
        spec = self.faults.get(chunk_index)
        if spec is None or not spec.affects(attempt):
            return
        if spec.kind == "kill":
            raise CampaignKilled(
                f"injected kill at chunk {chunk_index} "
                f"(attempt {attempt})"
            )
        if spec.kind in ("crash", "flaky"):
            raise InjectedCrash(
                f"injected {spec.kind} at chunk {chunk_index} "
                f"(attempt {attempt})"
            )
        if spec.kind == "hang":
            raise ChunkTimeout(
                f"injected hang at chunk {chunk_index} "
                f"(attempt {attempt})"
            )
        # slow: delay, then let the chunk body run normally.
        (clock or SystemClock()).sleep(spec.delay)
