"""Schedulers: the adversary that owns interleaving.

In asynchronous shared memory, "the adversary" is simply the entity that
decides which process takes the next step.  Each scheduler below is one
adversary family used in the paper and its surrounding literature:

* :class:`RoundRobinScheduler` — the fair synchronous-ish baseline.
* :class:`RandomScheduler` — a seeded stochastic adversary; drives the
  randomized interleaving search used by the correctness experiments.
* :class:`CrashAfterScheduler` — the random adversary that crashes one
  victim after its first few steps (the crash-tolerance experiments).
* :class:`SoloScheduler` — runs one process alone (solo executions, used for
  obstruction-freedom and the Appendix A construction).
* :class:`ObstructionScheduler` — after an arbitrary prefix, lets a set of at
  most *x* processes run alone forever: the schedules under which an
  x-obstruction-free protocol must terminate.
* :class:`AdversarialScheduler` — replays an explicit script of process ids
  (with optional crash directives); used to build the hand-crafted bad
  executions from covering arguments and FLP-style proofs.

A scheduler's :meth:`~Scheduler.next_pid` receives the set of schedulable
process ids and returns the id of the process that takes the next step.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchedulerError


class Scheduler:
    """Base scheduler interface."""

    def next_pid(self, active: Sequence[int]) -> int:
        """Return the pid (from ``active``) that takes the next step."""
        raise NotImplementedError

    def reset(self) -> None:
        """Reset any internal position; called when a run starts."""


class RoundRobinScheduler(Scheduler):
    """Cycle through active processes in increasing pid order."""

    def __init__(self) -> None:
        self._last: Optional[int] = None

    def reset(self) -> None:
        self._last = None

    def next_pid(self, active: Sequence[int]) -> int:
        if not active:
            raise SchedulerError("no active processes to schedule")
        ordered = sorted(active)
        if self._last is None:
            chosen = ordered[0]
        else:
            later = [pid for pid in ordered if pid > self._last]
            chosen = later[0] if later else ordered[0]
        self._last = chosen
        return chosen


class RandomScheduler(Scheduler):
    """Uniformly random choice among active processes, from an explicit seed.

    Optionally biased: ``weights`` maps pid -> relative weight, letting
    experiments model slow/fast processes without changing the model.
    """

    def __init__(self, seed: int, weights: Optional[dict] = None) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        self._weights = dict(weights) if weights else None
        self._sorted_cache: Optional[tuple] = None

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._sorted_cache = None

    def next_pid(self, active: Sequence[int]) -> int:
        if not active:
            raise SchedulerError("no active processes to schedule")
        # `System.run` hands the scheduler the *same* list object every turn
        # until the READY set changes, so re-sorting it is pure waste; a
        # one-entry cache keyed by identity + contents skips that.  The
        # equality check keeps this exact even for callers that mutate a
        # list in place between turns.
        cached = self._sorted_cache
        if cached is not None and cached[0] is active and cached[1] == active:
            pids = cached[2]
        else:
            pids = sorted(active)
            self._sorted_cache = (active, list(active), pids)
        if self._weights:
            weights = [self._weights.get(pid, 1.0) for pid in pids]
            return self._rng.choices(pids, weights=weights, k=1)[0]
        # ``self._rng.choice(pids)`` as CPython 3.9-3.13 computes it, minus
        # two frames (tests/runtime/test_scheduler.py pins the equality).
        count = len(pids)
        getrandbits = self._rng.getrandbits
        bits = count.bit_length()
        draw = getrandbits(bits)
        while draw >= count:
            draw = getrandbits(bits)
        return pids[draw]


class CrashAfterScheduler(RandomScheduler):
    """Random scheduling, but crash ``victim`` after its ``after``-th step.

    The crash is requested through ``pending_crashes`` (which
    :class:`~repro.runtime.system.System` polls), and the turn the
    victim would have taken goes to another active process.
    """

    def __init__(self, seed: int, victim: int, after: int) -> None:
        super().__init__(seed)
        self.victim = victim
        self.after = after
        self._victim_steps = 0
        self.pending_crashes: List[int] = []

    def reset(self) -> None:
        super().reset()
        self._victim_steps = 0
        self.pending_crashes = []

    def next_pid(self, active: Sequence[int]) -> int:
        pid = super().next_pid(active)
        if pid == self.victim:
            self._victim_steps += 1
            if self._victim_steps > self.after:
                self.pending_crashes.append(self.victim)
                others = [p for p in active if p != self.victim]
                if others:
                    return super().next_pid(others)
        return pid


class SoloScheduler(Scheduler):
    """Run a single process alone.

    If the designated process finishes, scheduling stops (callers typically
    run with that process as the only one of interest).  If ``fallback`` is
    True, remaining active processes are scheduled round-robin once the solo
    process is done — convenient for draining a system.
    """

    def __init__(self, pid: int, fallback: bool = False) -> None:
        self.pid = pid
        self.fallback = fallback
        self._rr = RoundRobinScheduler()

    def reset(self) -> None:
        self._rr.reset()

    def next_pid(self, active: Sequence[int]) -> int:
        if self.pid in active:
            return self.pid
        if self.fallback and active:
            return self._rr.next_pid(active)
        raise SchedulerError(
            f"solo process {self.pid} is not active and fallback is disabled"
        )


class ObstructionScheduler(Scheduler):
    """An x-obstruction-free compliant adversary.

    Runs an arbitrary (seeded random) prefix of ``prefix_steps`` steps over
    all processes, then forever schedules only the processes in ``group``
    (at most *x* of them), round-robin.  Any x-obstruction-free protocol must
    have every member of ``group`` terminate under this scheduler.
    """

    def __init__(self, group: Iterable[int], prefix_steps: int, seed: int) -> None:
        self.group = sorted(set(group))
        if not self.group:
            raise SchedulerError("obstruction group must be non-empty")
        self.prefix_steps = prefix_steps
        self._seed = seed
        self._rng = random.Random(seed)
        self._count = 0
        self._rr = RoundRobinScheduler()

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._count = 0
        self._rr.reset()

    def next_pid(self, active: Sequence[int]) -> int:
        if not active:
            raise SchedulerError("no active processes to schedule")
        self._count += 1
        if self._count <= self.prefix_steps:
            return self._rng.choice(sorted(active))
        members = [pid for pid in active if pid in self.group]
        if members:
            return self._rr.next_pid(members)
        # Whole group finished; let the rest run so the system can drain.
        return self._rr.next_pid(active)


class AdversarialScheduler(Scheduler):
    """Replay an explicit schedule script.

    ``script`` is a sequence of pids, or ``("crash", pid)`` tuples.  When the
    script is exhausted, behaviour is controlled by ``then``: ``"roundrobin"``
    continues fairly, ``"stop"`` raises (ending the run at the script
    boundary).  Crash directives are consumed without using a step.

    ``skip_inactive=True`` silently drops scripted pids that have already
    finished instead of raising — useful when enumerating schedule prefixes
    over processes whose lifetimes the caller cannot predict.
    """

    def __init__(
        self,
        script: Sequence,
        then: str = "roundrobin",
        skip_inactive: bool = False,
    ) -> None:
        if then not in ("roundrobin", "stop"):
            raise SchedulerError(f"unknown continuation {then!r}")
        self.script: List = list(script)
        self.then = then
        self.skip_inactive = skip_inactive
        self._pos = 0
        self._rr = RoundRobinScheduler()
        self.pending_crashes: List[int] = []

    def reset(self) -> None:
        self._pos = 0
        self._rr.reset()
        self.pending_crashes = []

    def next_pid(self, active: Sequence[int]) -> int:
        # Consume crash directives eagerly; the system polls pending_crashes.
        while self._pos < len(self.script):
            entry = self.script[self._pos]
            if isinstance(entry, tuple) and entry[0] == "crash":
                self.pending_crashes.append(entry[1])
                self._pos += 1
                continue
            break
        while self._pos < len(self.script):
            pid = self.script[self._pos]
            self._pos += 1
            if pid in active:
                return pid
            if not self.skip_inactive:
                raise SchedulerError(
                    f"scripted pid {pid} is not active (active={sorted(active)})"
                )
            # Skipped; also consume any crash directives that follow.
            while self._pos < len(self.script):
                entry = self.script[self._pos]
                if isinstance(entry, tuple) and entry[0] == "crash":
                    self.pending_crashes.append(entry[1])
                    self._pos += 1
                    continue
                break
        if self.then == "roundrobin":
            return self._rr.next_pid(active)
        raise SchedulerError("adversarial script exhausted")


def interleavings(
    pids: Sequence[int], length: int
) -> Iterable[Tuple[int, ...]]:
    """Enumerate all schedule scripts of ``length`` steps over ``pids``.

    Exhaustive-exploration helper for small model-checking experiments; the
    number of scripts is ``len(pids) ** length``, so keep both small.
    """
    if length == 0:
        yield ()
        return
    for rest in interleavings(pids, length - 1):
        for pid in pids:
            yield (pid,) + rest
