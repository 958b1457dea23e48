"""The BG simulation [BG93] — the paper's explicit point of contrast.

Section 1: "in our simulation, a simulating process may revise the past of
a simulated process ... This is possible because each process is simulated
by a single simulator.  In contrast, in the BG simulation, different steps
of simulated processes can be performed by different simulators."  This
module supplies that contrast object, so the repository contains both
simulation styles:

* :class:`SafeAgreement` — the classic two-level safe-agreement object
  from a single-writer snapshot: wait-free *propose*, non-blocking
  *resolve*, agreement + validity always, but a proposer that crashes in
  its unsafe window (between its level-1 and level-2/0 writes) can block
  resolution forever.
* :class:`BGSimulation` — k+1 simulators cooperatively run n simulated
  processes of a normal-form protocol.  Updates are deterministic given
  earlier agreed scans, so simulators apply them locally; every simulated
  *scan* outcome goes through one safe-agreement instance, making all
  simulators adopt the same view.  A simulator finding an instance
  unresolved (some rival is mid-window) *skips* that simulated process and
  works on another — so a crashed simulator blocks at most the one
  simulated process whose window it died in, and n − f simulated processes
  still finish when f ≤ k simulators crash.

The structural difference from the revisionist simulation is now
executable: here the simulated past is immutable and shared (steps of one
simulated process interleave simulators), whereas
:mod:`repro.core.simulation` gives each simulated process one owner who may
rewrite its history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import ModelError, ValidationError
from repro.memory.snapshot import SingleWriterSnapshot
from repro.protocols.base import DECIDE, SCAN, Protocol, poised_update
from repro.runtime.events import Annotate, Invoke
from repro.runtime.scheduler import Scheduler
from repro.runtime.system import ExecutionResult, System

#: Resolution statuses of a safe-agreement instance.
AGREED = "agreed"
PENDING = "pending"  # some proposer is in its unsafe window
EMPTY = "empty"  # nobody has proposed yet

BG_DECISION_TAG = "bg.decision"


class SafeAgreement:
    """Two-level safe agreement for a fixed set of proposers.

    Component ``i`` of the backing snapshot holds ``(value, level)`` with
    level 0 (retreated), 1 (unsafe window) or 2 (committed); the agreed
    value is the minimum-rank committed value once no proposer is at
    level 1.  Validity: the outcome was somebody's proposal.  The unsafe
    window is exactly the crash-vulnerability the BG simulation's skipping
    discipline tolerates.
    """

    def __init__(self, name: str, pids: Sequence[int]) -> None:
        self.name = name
        self.pids = list(pids)
        self._rank = {pid: i for i, pid in enumerate(self.pids)}
        if len(self._rank) != len(self.pids):
            raise ValidationError("duplicate pids")
        self.snap = SingleWriterSnapshot(
            f"{name}.S", writers=self.pids, initial=(None, 0)
        )
        self._proposed: Dict[int, bool] = {}

    def has_proposed(self, pid: int) -> bool:
        """Whether ``pid`` already proposed on this instance."""
        return self._proposed.get(pid, False)

    def propose(self, pid: int, value: Any) -> Generator[Any, Any, None]:
        """Wait-free: write level 1, scan, commit (2) or retreat (0)."""
        rank = self._rank.get(pid)
        if rank is None:
            raise ModelError(f"pid {pid} is not a proposer of {self.name}")
        if self._proposed.get(pid):
            raise ModelError(f"pid {pid} already proposed on {self.name}")
        self._proposed[pid] = True
        yield Invoke(self.snap, "update", (rank, (value, 1)))
        view = yield Invoke(self.snap, "scan")
        if any(level == 2 for _v, level in view):
            yield Invoke(self.snap, "update", (rank, (value, 0)))
        else:
            yield Invoke(self.snap, "update", (rank, (value, 2)))
        return None

    def resolve(self, pid: int) -> Generator[Any, Any, Tuple[str, Any]]:
        """Non-blocking: one scan; returns (status, value-or-None)."""
        view = yield Invoke(self.snap, "scan")
        if any(level == 1 for _v, level in view):
            return (PENDING, None)
        committed = [
            (rank, value)
            for rank, (value, level) in enumerate(view)
            if level == 2
        ]
        if not committed:
            return (EMPTY, None)
        committed.sort()
        return (AGREED, committed[0][1])


@dataclass
class BGOutcome:
    """Result of one BG simulation run."""

    system: System
    result: ExecutionResult
    simulated_outputs: Dict[int, Any] = field(default_factory=dict)
    blocked: Dict[int, List[int]] = field(default_factory=dict)
    # pid -> list of simulated processes that pid saw permanently blocked

    @property
    def completed_processes(self) -> int:
        return len(self.simulated_outputs)


class BGSimulation:
    """k+1 simulators run all n processes of a wait-free protocol.

    Each simulator executes every simulated process's steps against its
    own local memory copy; scan outcomes are channelled through one
    :class:`SafeAgreement` per (process, scan-index), so all simulators
    absorb identical views and local copies can only differ in the order
    not-yet-agreed updates land.  A simulator that finds an agreement
    pending (a rival mid-window) skips that process for now; if every
    remaining process is pending and no progress is possible, those
    processes are reported blocked — at most one per crashed simulator.
    """

    def __init__(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        simulator_pids: Sequence[int],
        name: str = "BG",
    ) -> None:
        if len(inputs) > protocol.n:
            raise ValidationError(
                f"{protocol.name} supports n={protocol.n}, got "
                f"{len(inputs)} inputs"
            )
        if len(simulator_pids) < 1:
            raise ValidationError("need at least one simulator")
        self.protocol = protocol
        self.inputs = list(inputs)
        self.simulator_pids = list(simulator_pids)
        self.name = name
        self._agreements: Dict[Tuple[int, int], SafeAgreement] = {}

    def _agreement(self, process: int, scan_index: int) -> SafeAgreement:
        key = (process, scan_index)
        if key not in self._agreements:
            self._agreements[key] = SafeAgreement(
                f"{self.name}.sa[{process},{scan_index}]",
                self.simulator_pids,
            )
        return self._agreements[key]

    def register_count(self) -> int:
        """Registers spent on safe-agreement instances so far."""
        return sum(
            sa.snap.register_count() for sa in self._agreements.values()
        )

    def simulator_body(
        self, announce: Dict[int, Any], give_up_after: Optional[int] = None
    ):
        """Build one simulator's body.

        ``give_up_after``: number of consecutive full passes without any
        progress after which the simulator declares the still-pending
        processes blocked and stops.  ``None`` (default) spins forever —
        correct when all simulators are live, since a pending window always
        belongs to a simulator that will eventually be scheduled; crash
        experiments pass a bound to surface the blocked set.
        """
        protocol = self.protocol

        def body(proc):
            stalled_passes = 0
            states = [
                protocol.initial_state(i, v)
                for i, v in enumerate(self.inputs)
            ]
            memory: List[Any] = [None] * protocol.m
            scan_counts = [0] * len(self.inputs)
            done: Dict[int, Any] = {}
            while len(done) < len(self.inputs):
                progressed = False
                skipped: List[int] = []
                for process in range(len(self.inputs)):
                    if process in done:
                        continue
                    kind, payload = protocol.poised(states[process])
                    if kind == DECIDE:
                        done[process] = payload
                        if process not in announce:
                            announce[process] = payload
                            yield Annotate(
                                BG_DECISION_TAG,
                                {"process": process, "value": payload,
                                 "simulator": proc.pid},
                            )
                        progressed = True
                        continue
                    if kind != SCAN:
                        component, value = poised_update(
                            protocol, process, kind, payload
                        )
                        memory[component] = value
                        states[process] = protocol.advance(
                            states[process], None
                        )
                        progressed = True
                        continue
                    # A scan: agree on its outcome.
                    agreement = self._agreement(
                        process, scan_counts[process]
                    )
                    status, view = yield from agreement.resolve(proc.pid)
                    if status == EMPTY and not agreement.has_proposed(proc.pid):
                        yield from agreement.propose(
                            proc.pid, tuple(memory)
                        )
                        status, view = yield from agreement.resolve(proc.pid)
                    if status != AGREED:
                        skipped.append(process)  # rival mid-window: skip
                        continue
                    states[process] = protocol.advance(states[process], view)
                    scan_counts[process] += 1
                    progressed = True
                if progressed:
                    stalled_passes = 0
                else:
                    # No progress this pass: every remaining process sits
                    # behind a pending window.  A live rival will finish its
                    # propose eventually (each pass still takes scan steps,
                    # so the scheduler keeps interleaving); a crashed rival
                    # never will — after enough stalled passes, give up and
                    # report the blocked set.
                    stalled_passes += 1
                    if give_up_after is not None and (
                        stalled_passes >= give_up_after
                    ):
                        return {"outputs": done, "blocked": skipped}
            return {"outputs": done, "blocked": []}

        return body


def run_bg_simulation(
    protocol: Protocol,
    inputs: Sequence[Any],
    simulators: int,
    scheduler: Scheduler,
    max_steps: int = 500_000,
    give_up_after: Optional[int] = None,
) -> BGOutcome:
    """Run the BG simulation with ``simulators`` simulating processes."""
    simulation = BGSimulation(protocol, inputs, list(range(simulators)))
    system = System()
    announce: Dict[int, Any] = {}
    for pid in range(simulators):
        system.add_process(
            simulation.simulator_body(announce, give_up_after=give_up_after),
            pid=pid,
            name=f"bg-sim{pid}",
        )
    result = system.run(scheduler, max_steps=max_steps)
    outcome = BGOutcome(system=system, result=result)
    for event in system.trace.annotations(BG_DECISION_TAG):
        outcome.simulated_outputs[event.payload["process"]] = (
            event.payload["value"]
        )
    for pid, process in system.processes.items():
        if process.status == "done" and isinstance(process.output, dict):
            outcome.blocked[pid] = list(process.output.get("blocked", []))
    return outcome
