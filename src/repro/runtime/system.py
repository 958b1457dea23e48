"""The shared-memory system executor.

:class:`System` owns a set of processes and a trace, and runs them under a
scheduler one atomic step at a time.  Per scheduled turn, exactly one shared
memory operation is applied:

1. the chosen process is resumed with the response of its previously applied
   operation (local computation is free in the model);
2. zero-cost :class:`~repro.runtime.events.Annotate` markers it yields are
   recorded without consuming the turn;
3. the next :class:`~repro.runtime.events.Invoke` it yields is applied
   atomically, recorded in the trace, and its response is buffered for the
   process's next turn.

Between turns each process is therefore *poised* to perform a specific
pending operation — exactly the notion of "poised" used throughout the paper
(e.g. a covering process poised to update a component of M).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.errors import DivergenceError, ModelError, SchedulerError
from repro.runtime.events import Annotate, Event, Invoke, Trace
from repro.runtime.process import DONE, READY, Process
from repro.runtime.scheduler import Scheduler


@dataclass
class ExecutionResult:
    """Outcome of a :meth:`System.run` call.

    Attributes:
        completed: True if every process is DONE or CRASHED.
        steps: total atomic steps applied during this run call.
        outputs: pid -> return value, for processes that are DONE.
        diverged: True if the run stopped because it hit ``max_steps``.
    """

    completed: bool
    steps: int
    outputs: Dict[int, Any] = field(default_factory=dict)
    diverged: bool = False


class System:
    """A shared-memory system: processes + objects + trace.

    Shared objects are not pre-registered; they are discovered from the
    operations applied to them, and must expose ``apply(pid, op, args)``,
    ``name`` and ``register_count()``.
    """

    def __init__(self) -> None:
        self.processes: Dict[int, Process] = {}
        self.trace = Trace()
        self._events = self.trace.events
        self.objects: Dict[str, Any] = {}
        self._seq = 0
        # READY processes, maintained incrementally (insertion-ordered, so
        # iteration matches registration order).  Processes only ever
        # *leave* READY; `active_pids` prunes defensively in case a
        # Process was crashed behind the System's back.  The version
        # counter bumps on every READY-set change so `run` can reuse its
        # active list across turns.
        self._ready: Dict[int, Process] = {}
        self._ready_version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_process(
        self,
        body: Callable[[Process], Generator],
        pid: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Process:
        """Create and register a process running ``body``; returns it."""
        if pid is None:
            pid = len(self.processes)
        if pid in self.processes:
            raise ModelError(f"duplicate pid {pid}")
        proc = Process(pid, body, name=name)
        self.processes[pid] = proc
        if proc.status == READY:
            self._ready[pid] = proc
            self._ready_version += 1
        return proc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_pids(self) -> List[int]:
        """Pids of processes that can still be scheduled."""
        ready = self._ready
        for proc in ready.values():
            if proc.status != READY:
                # Rare: a Process was crashed behind the System's back.
                stale = [pid for pid, p in ready.items() if p.status != READY]
                for pid in stale:
                    del ready[pid]
                self._ready_version += 1
                break
        return list(ready)

    def outputs(self) -> Dict[int, Any]:
        """pid -> output for all DONE processes."""
        return {
            pid: p.output for pid, p in self.processes.items() if p.status == DONE
        }

    def total_registers(self) -> int:
        """Total registers used by all shared objects touched so far."""
        return sum(obj.register_count() for obj in self.objects.values())

    def pending_operation(self, pid: int) -> Optional[Invoke]:
        """The operation ``pid`` is poised to perform, if any."""
        proc = self.processes.get(pid)
        if proc is None or proc.status != READY:
            return None
        return proc._pending

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def crash(self, pid: int) -> None:
        """Crash a process (it permanently stops taking steps)."""
        proc = self.processes.get(pid)
        if proc is None:
            raise ModelError(f"unknown pid {pid}")
        proc.crash()
        if self._ready.pop(pid, None) is not None:
            self._ready_version += 1
        self._record_lifecycle(pid, "crash")

    def step(self, pid: int) -> bool:
        """Apply one atomic step of process ``pid``.

        Returns True if a shared-memory operation was applied, False if the
        process finished (or had no further operations) during this turn.
        """
        proc = self.processes.get(pid)
        if proc is None:
            raise ModelError(f"unknown pid {pid}")
        if proc.status != READY:
            raise SchedulerError(f"process {pid} is {proc.status}, cannot step")
        return self._step_ready(proc)

    def _step_ready(self, proc: Process) -> bool:
        """:meth:`step` after validation (caller checked READY).

        The one per-step path, in one frame: apply the pending Invoke,
        then resume the body, recording its annotations, until it yields
        the next Invoke or returns.  A first turn starts the body first.
        """
        pid = proc.pid
        generator = proc._generator
        events = self._events
        request = proc._pending
        applied = False
        try:
            if request is None:
                request = next(generator)
            while True:
                if isinstance(request, Invoke):
                    if applied:
                        break
                    obj = request.obj
                    name = getattr(obj, "name", None)
                    if name is None:
                        raise ModelError("shared object has no name")
                    if self.objects.setdefault(name, obj) is not obj:
                        raise ModelError("two distinct shared objects "
                                         f"named {name!r}")
                    args = request.args
                    result = obj.apply(pid, request.op, args)
                    proc.steps_taken += 1
                    self._seq += 1
                    events.append(Event(self._seq, pid, "step", name,
                                        request.op, args, result))
                    applied = True
                    request = generator.send(result)
                elif isinstance(request, Annotate):
                    self._seq += 1
                    events.append(
                        Event(self._seq, pid, "annotate", None, None, (),
                              None, request.tag, request.payload)
                    )
                    request = generator.send(None)
                else:
                    raise ModelError(
                        f"process {pid} yielded {type(request).__name__}; "
                        "expected Invoke or Annotate"
                    )
        except StopIteration as stop:
            proc.status = DONE
            proc.output = stop.value
            proc._pending = None
            self._record_lifecycle(pid, "done")
            if self._ready.pop(pid, None) is not None:
                self._ready_version += 1
            return applied
        proc._pending = request
        return True

    def run(
        self,
        scheduler: Scheduler,
        max_steps: int = 100_000,
        on_limit: str = "return",
        stop_when: Optional[Callable[["System"], bool]] = None,
    ) -> ExecutionResult:
        """Run under ``scheduler`` until completion, limit, or predicate.

        Args:
            scheduler: interleaving policy; ``reset()`` is called first.
            max_steps: scheduler-turn budget for this call.  Most turns
                apply one atomic step, but a turn can also be consumed
                without one (a body that finishes without invoking, or a
                scheduler that keeps naming a just-crashed pid) — counting
                turns rather than applied steps is what guarantees the
                budget is always reachable, so ``run`` terminates even
                against a scheduler that never names a READY process.
            on_limit: ``"return"`` yields a diverged result; ``"raise"``
                raises :class:`~repro.errors.DivergenceError`.
            stop_when: optional predicate checked after every step; a truthy
                return stops the run early (not treated as divergence).
        """
        if on_limit not in ("return", "raise"):
            raise ModelError(f"unknown on_limit {on_limit!r}")
        scheduler.reset()
        steps = 0
        turns = 0
        active: List[int] = []
        active_version = self._ready_version - 1
        # Hot loop: bind attribute lookups once.  `pending_crashes` is read
        # from the scheduler's instance dict rather than getattr so the
        # common no-crash-support case is one dict probe, not a raised and
        # swallowed AttributeError; every scheduler that supports crash
        # directives sets it as an instance attribute.
        processes = self.processes
        next_pid = scheduler.next_pid
        sched_state = scheduler.__dict__
        step_ready = self._step_ready
        while True:
            if active_version != self._ready_version:
                active = self.active_pids()
                active_version = self._ready_version
                if not active:
                    return ExecutionResult(True, steps, self.outputs())
            if turns >= max_steps:
                if on_limit == "raise":
                    raise DivergenceError(
                        f"execution exceeded {max_steps} steps", steps_taken=steps
                    )
                return ExecutionResult(False, steps, self.outputs(), diverged=True)
            turns += 1
            pid = next_pid(active)
            victims = sched_state.get("pending_crashes")
            if victims:
                for victim in victims:
                    if processes[victim].status == READY:
                        self.crash(victim)
                scheduler.pending_crashes = []
            proc = processes[pid]
            if proc.status != READY:
                continue
            if step_ready(proc):
                steps += 1
            if stop_when is not None and stop_when(self):
                return ExecutionResult(
                    not self.active_pids(), steps, self.outputs()
                )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record_lifecycle(self, pid: int, kind: str) -> None:
        self._seq += 1
        self._events.append(Event(self._seq, pid, kind))
