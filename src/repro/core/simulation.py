"""The revisionist simulation (Section 4, iterative form of Appendix C).

Given an x-obstruction-free protocol Π in scan/update normal form that uses
an m-component snapshot, k+1 simulators q_0 < q_1 < ... < q_k run Π's
processes through one m-component augmented snapshot M:

* ranks k-x+1..k are **direct simulators**: each runs a single process of Π
  verbatim — Scan for scan, a one-component Block-Update for update (result
  ignored).
* ranks 0..k-x are **covering simulators**: each owns m processes of Π and
  tries to drive them to cover all m components.  Its engine is the
  iterative construction: when its first process is poised to update, it
  extends the pending update set one process at a time — iteration r looks
  for the last atomic Block-Update it applied to exactly the currently
  pending r components (with no wider Block-Update since); if found, the
  Block-Update's returned view V is a consistent *past* point of the real
  execution with nothing but ☡-updates after it, so the simulator **revises
  the past**: it locally re-runs process p_{i,r+1} from V until that process
  is poised to update a fresh component, silently inserting those hidden
  steps at V's point of the simulated execution.  When all m components are
  pending, the block update would obliterate M's contents, so the simulator
  decides by locally running its first process solo after the (never
  actually applied) full block update.

If Π is correct for (k+1-x)·m + x processes, this yields a wait-free k-set
agreement protocol for k+1 processes — which Theorem 1 forbids; hence no
such Π exists (Theorem 3).  Run on deliberately under-provisioned protocols
(:class:`~repro.protocols.kset.TruncatedProtocol`), the simulation is a
*falsifier*: it terminates with a safety violation among the simulators'
outputs, or exposes Π's own divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.augmented.object import AugmentedSnapshot
from repro.augmented.views import YIELD
from repro.errors import SimulationError, ValidationError
from repro.protocols.base import DECIDE, SCAN, Protocol, solo_run
from repro.runtime.events import Annotate
from repro.runtime.process import Process
from repro.runtime.scheduler import Scheduler
from repro.runtime.system import ExecutionResult, System

#: Annotation tags emitted by simulators (consumed by the invariant checker
#: and the experiment harnesses).
SIM_DECISION_TAG = "sim.decision"
SIM_REVISION_TAG = "sim.revision"
SIM_BLOCK_TAG = "sim.block_update"


@dataclass
class SimulationSetup:
    """Static structure of one simulation instance.

    Attributes:
        protocol: the protocol Π under simulation.
        k, x: task and obstruction parameters (1 <= x <= k).
        inputs: the k+1 simulator inputs, by rank.
        covering_ranks / direct_ranks: the partition of ranks.
        process_map: rank -> tuple of Π process indices it simulates.
    """

    protocol: Protocol
    k: int
    x: int
    inputs: Tuple[Any, ...]
    covering_ranks: Tuple[int, ...]
    direct_ranks: Tuple[int, ...]
    process_map: Dict[int, Tuple[int, ...]]

    @property
    def simulator_count(self) -> int:
        return self.k + 1

    @property
    def simulated_count(self) -> int:
        return sum(len(v) for v in self.process_map.values())


def build_setup(
    protocol: Protocol, k: int, x: int, inputs: Sequence[Any]
) -> SimulationSetup:
    """Validate parameters and compute the simulator/process partition.

    Covering simulators take the *lower* ranks — the property that
    guarantees (Lemma 16) rank 0's Block-Updates are always atomic and
    drives the Lemma 30 termination induction.
    """
    if k < 1 or not 1 <= x <= k:
        raise ValidationError(f"need k >= 1 and 1 <= x <= k (k={k}, x={x})")
    if len(inputs) != k + 1:
        raise ValidationError(
            f"need exactly k+1={k + 1} simulator inputs, got {len(inputs)}"
        )
    m = protocol.m
    needed = (k + 1 - x) * m + x
    if protocol.n < needed:
        raise ValidationError(
            f"{protocol.name} is specified for n={protocol.n} processes; the "
            f"simulation needs (k+1-x)*m + x = {needed}"
        )
    covering = tuple(range(k - x + 1))
    direct = tuple(range(k - x + 1, k + 1))
    process_map: Dict[int, Tuple[int, ...]] = {}
    cursor = 0
    for rank in covering:
        process_map[rank] = tuple(range(cursor, cursor + m))
        cursor += m
    for rank in direct:
        process_map[rank] = (cursor,)
        cursor += 1
    return SimulationSetup(
        protocol=protocol,
        k=k,
        x=x,
        inputs=tuple(inputs),
        covering_ranks=covering,
        direct_ranks=direct,
        process_map=process_map,
    )


# ----------------------------------------------------------------------
# Simulator bodies
# ----------------------------------------------------------------------
def direct_simulator_body(
    setup: SimulationSetup, aug: AugmentedSnapshot, rank: int
):
    """Body of a direct simulator: run one process of Π verbatim."""
    protocol = setup.protocol
    (index,) = setup.process_map[rank]

    def body(proc: Process) -> Generator:
        state = protocol.initial_state(index, setup.inputs[rank])
        while True:
            kind, payload = protocol.poised(state)
            if kind == DECIDE:
                yield Annotate(
                    SIM_DECISION_TAG,
                    {"rank": rank, "value": payload,
                     "via": "simulated_process", "process_index": index},
                )
                return payload
            if kind == SCAN:
                view = yield from aug.scan(proc.pid)
                state = protocol.advance(state, view)
            else:
                component, value = payload
                yield from aug.block_update(proc.pid, [component], [value])
                state = protocol.advance(state, None)

    return body


@dataclass
class _BlockRecord:
    """A covering simulator's memory of one of its Block-Updates."""

    components: Tuple[int, ...]
    atomic: bool
    view: Any = None

    @property
    def size(self) -> int:
        return len(self.components)


def _find_anchor(
    log: List[_BlockRecord],
    components: Sequence[int],
    unsafe_skip_disqualification: bool = False,
) -> Optional[_BlockRecord]:
    """The last atomic Block-Update applied to exactly ``components``, if no
    wider Block-Update was applied after it (Appendix C's condition).

    ``unsafe_skip_disqualification=True`` drops the "no wider Block-Update
    since" check — an *ablation switch* used by experiment E8 to show that
    the condition is load-bearing: without it, a simulator revises a
    process whose past already contains simulated steps after the anchor,
    and the Lemma 28 correspondence breaks (ablation A1, ``run_e8`` in
    :mod:`repro.bench.experiments`).
    """
    wanted = set(components)
    size = len(wanted)
    for offset in range(len(log) - 1, -1, -1):
        record = log[offset]
        if record.atomic and set(record.components) == wanted:
            if not unsafe_skip_disqualification and any(
                later.size > size for later in log[offset + 1:]
            ):
                return None
            return record
    return None


def covering_simulator_body(
    setup: SimulationSetup,
    aug: AugmentedSnapshot,
    rank: int,
    solo_budget: int = 100_000,
    unsafe_anchor: bool = False,
):
    """Body of a covering simulator: the iterative Appendix C engine.

    ``unsafe_anchor`` is the ablation switch forwarded to
    :func:`_find_anchor`; never enable it outside ablation experiments.
    """
    protocol = setup.protocol
    indices = setup.process_map[rank]
    m = protocol.m

    def decide(value: Any, via: str, process_index: Optional[int]):
        return Annotate(
            SIM_DECISION_TAG,
            {"rank": rank, "value": value, "via": via,
             "process_index": process_index},
        )

    def body(proc: Process) -> Generator:
        states: List[Any] = [
            protocol.initial_state(indices[g], setup.inputs[rank])
            for g in range(m)
        ]
        log: List[_BlockRecord] = []
        while True:
            kind, payload = protocol.poised(states[0])
            if kind == DECIDE:
                yield decide(payload, "simulated_process", indices[0])
                return payload
            if kind == SCAN:
                view = yield from aug.scan(proc.pid)
                states[0] = protocol.advance(states[0], view)
                continue

            # p_{i,1} is poised to update: build the widest pending block.
            updates: List[Tuple[int, Any]] = [payload]
            while len(updates) < m:
                r = len(updates)
                components = [j for j, _ in updates]
                anchor = _find_anchor(
                    log, components,
                    unsafe_skip_disqualification=unsafe_anchor,
                )
                if anchor is None:
                    break
                # Revise the past of p_{i,r+1}: run it locally from the
                # anchor's view; its hidden steps may only touch the
                # anchor's components.
                new_state, _contents, pending, decision = solo_run(
                    protocol,
                    states[r],
                    anchor.view,
                    stop_before_update_outside=components,
                    max_steps=solo_budget,
                )
                states[r] = new_state
                yield Annotate(
                    SIM_REVISION_TAG,
                    {"rank": rank, "process_index": indices[r],
                     "anchor_components": anchor.components,
                     "pending": pending, "decision": decision},
                )
                if decision is not None:
                    yield decide(decision, "simulated_process", indices[r])
                    return decision
                if pending is None:  # pragma: no cover - solo_run contract
                    raise SimulationError(
                        "solo run ended without decision or pending update"
                    )
                updates.append(pending)

            if len(updates) == m:
                # Full cover: the pending block update obliterates M, so
                # p_{i,1}'s solo decision after it is schedule-independent.
                contents: List[Any] = [None] * m
                for component, value in updates:
                    contents[component] = value
                state_after = protocol.advance(states[0], None)
                _s, _c, _p, decision = solo_run(
                    protocol, state_after, contents, max_steps=solo_budget
                )
                if decision is None:  # pragma: no cover - solo_run contract
                    raise SimulationError("post-cover solo run did not decide")
                yield decide(decision, "full_cover", indices[0])
                return decision

            components = tuple(j for j, _ in updates)
            values = tuple(v for _, v in updates)
            result = yield from aug.block_update(proc.pid, components, values)
            atomic = result is not YIELD
            log.append(
                _BlockRecord(
                    components=components,
                    atomic=atomic,
                    view=result if atomic else None,
                )
            )
            yield Annotate(
                SIM_BLOCK_TAG,
                {"rank": rank, "components": components, "atomic": atomic},
            )
            # The block's updates happened: move each writer past its write.
            for g in range(len(updates)):
                states[g] = protocol.advance(states[g], None)
                decided = protocol.decision(states[g])
                if decided is not None:
                    yield decide(decided, "simulated_process", indices[g])
                    return decided

    return body


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
@dataclass
class SimulationOutcome:
    """Result of one simulation run.

    ``decisions`` maps simulator rank -> decided value (ranks that did not
    decide within the budget are absent).
    """

    setup: SimulationSetup
    system: System
    aug: AugmentedSnapshot
    result: ExecutionResult
    decisions: Dict[int, Any] = field(default_factory=dict)

    @property
    def all_decided(self) -> bool:
        return len(self.decisions) == self.setup.simulator_count

    def task_violations(self, task) -> List[str]:
        """Check the simulators' outputs against a task specification."""
        return task.check(list(self.setup.inputs), self.decisions)

    def revision_count(self) -> int:
        """How many times any simulator revised a process's past."""
        return len(self.system.trace.annotations(SIM_REVISION_TAG))

    def block_update_count(self) -> int:
        """Total Block-Updates applied by covering simulators."""
        return len(self.system.trace.annotations(SIM_BLOCK_TAG))


def run_simulation(
    protocol: Protocol,
    k: int,
    x: int,
    inputs: Sequence[Any],
    scheduler: Scheduler,
    max_steps: int = 500_000,
    solo_budget: int = 100_000,
    object_name: str = "M",
    unsafe_anchor: bool = False,
    register_level: bool = False,
    aug_annotations: bool = True,
) -> SimulationOutcome:
    """Run the revisionist simulation end to end.

    Args:
        protocol: Π, in normal form, with ``protocol.m`` components and
            ``protocol.n >= (k+1-x)*protocol.m + x``.
        k, x: the k-set agreement / x-obstruction-freedom parameters.
        inputs: the k+1 simulator inputs.
        scheduler: interleaving of the k+1 simulators.
        max_steps: primitive-step budget (divergence -> ``result.diverged``).
        solo_budget: step bound for local (hidden) solo runs; exceeding it
            raises :class:`~repro.errors.DivergenceError`, the signature of
            a protocol that is not actually x-obstruction-free.
        unsafe_anchor: ablation switch — drop the anchor disqualification
            rule (see :func:`_find_anchor`).  For experiments only.
        register_level: back the augmented snapshot's H with the [AAD+93]
            register construction, so the whole reduction executes on raw
            reads and writes (trace analysis unavailable in this mode).
        aug_annotations: emit the augmented object's begin/end markers into
            the trace (needed only by the Appendix B analysis; sweeps that
            discard traces turn this off).
    """
    setup = build_setup(protocol, k, x, inputs)
    aug = AugmentedSnapshot(
        object_name,
        components=protocol.m,
        pids=list(range(k + 1)),
        register_level=register_level,
        annotate=aug_annotations,
    )
    system = System()
    for rank in range(k + 1):
        if rank in setup.covering_ranks:
            body = covering_simulator_body(
                setup, aug, rank, solo_budget, unsafe_anchor=unsafe_anchor
            )
            name = f"cover-q{rank}"
        else:
            body = direct_simulator_body(setup, aug, rank)
            name = f"direct-q{rank}"
        system.add_process(body, pid=rank, name=name)
    result = system.run(scheduler, max_steps=max_steps)
    decisions = {
        event.payload["rank"]: event.payload["value"]
        for event in system.trace.annotations(SIM_DECISION_TAG)
    }
    return SimulationOutcome(
        setup=setup, system=system, aug=aug, result=result, decisions=decisions
    )
