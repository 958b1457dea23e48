"""The scan/update normal-form protocol interface.

A protocol specifies, for each of its ``n`` processes, a deterministic state
machine over an ``m``-component snapshot ``M``:

* :meth:`Protocol.initial_state` gives the state of process ``i`` on input
  ``v``;
* :meth:`Protocol.poised` says what the process is poised to do in a state —
  ``(SCAN, None)``, ``(UPDATE, (j, value))``, ``(RMW, (j, op, args))``, or
  ``(DECIDE, output)``;
* :meth:`Protocol.advance` applies the step: for a scan, it absorbs the
  returned view; for an update, it moves past the write; for a
  read-modify-write, it absorbs the operation's return value (the old
  contents of component ``j`` — see :func:`repro.memory.rmw.apply_rmw`).

:func:`apply_step` is the one place the rule "take the poised step, apply
it to M, ``advance``" is written for a memory tuple; solo runs, the
seeded runs of the protocol sweeps (:func:`seeded_run`), valence search,
the covering builder and the space replay all call it.  (The packed
explorer and the certificate verifiers keep independent copies, checked
against it.)

States must be *immutable and hashable* and transitions must be *pure*.
This buys three guarantees the rest of the library depends on:

1. executions are replayable (the runtime drives the same machine);
2. a covering simulator can re-run a process locally from a revised past
   (Section 4's hidden steps) and get exactly what the process "would have"
   done — see :func:`solo_run`;
3. small instances can be exhaustively model-checked, because a
   configuration (all states + M contents) is hashable.

Protocols must also alternate: after a scan the machine must be poised to
update or decide; after an update it must be poised to scan.  This is the
paper's w.l.o.g. normal form and :func:`protocol_body` enforces it.  The
normal form is stated for read/write memory; RMW steps are atomic
read-*and*-write steps, so they are exempt from the alternation check,
and protocols over non-read/write base objects (or emulation families
whose readers take consecutive scans) may opt out entirely by overriding
:meth:`Protocol.alternates`.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.errors import DivergenceError, ProtocolError, ValidationError
from repro.memory.rmw import RMWSnapshot, apply_rmw
from repro.memory.snapshot import AtomicSnapshot
from repro.runtime.events import Annotate, Invoke
from repro.runtime.process import Process
from repro.runtime.scheduler import RandomScheduler, Scheduler
from repro.runtime.system import ExecutionResult, System

SCAN = "scan"
UPDATE = "update"
RMW = "rmw"
DECIDE = "decide"

#: Annotation tag recorded when a protocol process decides.
DECISION_TAG = "protocol.decision"

#: Symmetry groups a protocol may declare via :meth:`Protocol.symmetry`.
#: ``identity`` promises nothing; ``full`` declares the protocol anonymous
#: (any process permutation maps executions to executions).
SYMMETRY_IDENTITY = "identity"
SYMMETRY_FULL = "full"


class Protocol:
    """Base class for scan/update normal-form protocols.

    Attributes:
        n: number of processes the protocol is specified for.
        m: number of components of the snapshot M it uses (its space).
        name: human-readable protocol name.
    """

    n: int
    m: int
    name: str = "protocol"

    def initial_state(self, index: int, value: Any) -> Any:
        """State of process ``index`` with input ``value`` (poised to scan
        or update, never decided)."""
        raise NotImplementedError

    def poised(self, state: Any) -> Tuple[str, Any]:
        """What the process does next: ``(SCAN, None)``,
        ``(UPDATE, (component, value))``, ``(RMW, (component, op, args))``
        or ``(DECIDE, output)``."""
        raise NotImplementedError

    def advance(self, state: Any, observation: Any = None) -> Any:
        """The state after performing the poised step.

        ``observation`` is the scan's returned view for SCAN steps, the
        operation's return value (the component's old contents) for RMW
        steps, and must be ``None`` for UPDATE steps.  Calling this on a
        decided state is a :class:`~repro.errors.ProtocolError`.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Conveniences shared by all protocols
    # ------------------------------------------------------------------
    def decision(self, state: Any) -> Optional[Any]:
        """The decided value, or ``None`` if the state is not final."""
        kind, payload = self.poised(state)
        return payload if kind == DECIDE else None

    def check_index(self, index: int) -> None:
        """Validate a process index against n."""
        if not 0 <= index < self.n:
            raise ValidationError(
                f"{self.name}: process index {index} out of range (n={self.n})"
            )

    def symmetry(self) -> str:
        """The protocol's process-symmetry group.

        :data:`SYMMETRY_IDENTITY` (the default) promises nothing:
        processes may behave differently, so configurations that differ
        by a process permutation are not interchangeable.
        :data:`SYMMETRY_FULL` declares the protocol *anonymous*:
        ``initial_state`` validates but never stores the index and
        transitions depend only on the state, so any permutation of
        processes maps executions to executions.  Symmetry-reduced
        exploration (:mod:`repro.analysis.explore`) canonicalizes
        configurations under the declared group; declaring ``full`` for
        a protocol that is not anonymous makes that reduction unsound.
        """
        return SYMMETRY_IDENTITY

    def alternates(self) -> bool:
        """Whether the protocol promises scan/update alternation.

        ``True`` (the default) asserts the paper's w.l.o.g. normal form
        for the protocol's read/write steps, and :func:`protocol_body`
        enforces it as a sanity check.  RMW steps are exempt either way
        (an RMW is both the read and the write of its component).
        Emulation families whose machines legitimately take consecutive
        same-kind steps — e.g. the bit-probing reader of
        :class:`~repro.protocols.largereg.LargeRegisterEmulation` —
        override this to return ``False``.
        """
        return True


def _unknown_kind(protocol: Protocol, kind: Any) -> ProtocolError:
    return ProtocolError(f"{protocol.name}: unknown poised kind {kind!r}")


def _broken_alternation(
    protocol: Protocol, index: int, kind: str
) -> ProtocolError:
    return ProtocolError(
        f"{protocol.name}: process {index} broke scan/update "
        f"alternation (two consecutive {kind} steps)"
    )


def _check_inputs(protocol: Protocol, inputs: Sequence[Any]) -> None:
    if len(inputs) > protocol.n:
        raise ValidationError(
            f"{protocol.name} supports n={protocol.n} processes, got "
            f"{len(inputs)} inputs"
        )


def apply_step(
    protocol: Protocol, state: Any, memory: Tuple[Any, ...]
) -> Tuple[Any, Tuple[Any, ...], Tuple]:
    """Take the poised step of ``state`` on the memory tuple (pure).

    Returns ``(new_state, new_memory, step)``.  ``step`` records what the
    step read, wrote or returned: ``(SCAN, view)``, ``(UPDATE, component,
    value)`` or ``(RMW, component, op, args, result)``, where ``result``
    is :func:`~repro.memory.rmw.apply_rmw`'s return value and ``args`` a
    tuple.  A decided state is a :class:`~repro.errors.ValidationError`;
    any other kind this function cannot apply is a
    :class:`~repro.errors.ProtocolError` naming the protocol and the kind.
    """
    kind, payload = protocol.poised(state)
    if kind == SCAN:
        return protocol.advance(state, memory), memory, (SCAN, memory)
    if kind == UPDATE:
        component, value = payload
        observation = None
        step = (UPDATE, component, value)
    elif kind == RMW:
        component, op, args = payload
        value, observation = apply_rmw(op, memory[component], args)
        step = (RMW, component, op, tuple(args), observation)
    elif kind == DECIDE:
        raise ValidationError(
            f"{protocol.name}: cannot step a process that decided {payload!r}"
        )
    else:
        raise _unknown_kind(protocol, kind)
    return (
        protocol.advance(state, observation),
        memory[:component] + (value,) + memory[component + 1:],
        step,
    )


def poised_update(
    protocol: Protocol, index: int, kind: str, payload: Any
) -> Tuple[int, Any]:
    """The ``(component, value)`` of a non-scan step on read/write memory.

    For executors whose memory is built from read/write registers (the
    register-level runner, the revisionist and BG simulators): an RMW
    step is a :class:`~repro.errors.ProtocolError` naming the protocol,
    process ``index`` and the operation, and so is a kind that is not
    an update.
    """
    if kind == UPDATE:
        return payload
    if kind == RMW:
        raise ProtocolError(
            f"{protocol.name}: process {index} is poised for a "
            f"read-modify-write step ({payload[1]!r}); a snapshot "
            "built from read/write registers cannot implement it"
        )
    raise _unknown_kind(protocol, kind)


def check_schedule(
    protocol: Protocol, processes: int, schedule: Sequence[int]
) -> None:
    """Reject a schedule entry outside ``range(processes)``.

    The :class:`~repro.errors.ValidationError` names the entry and its
    position, instead of letting a negative entry silently step a
    process counted from the end or a large one fail on indexing.
    """
    for position, index in enumerate(schedule):
        if not 0 <= index < processes:
            raise ValidationError(
                f"{protocol.name}: schedule entry {index} at position "
                f"{position} out of range for {processes} processes"
            )


def protocol_body(
    protocol: Protocol,
    index: int,
    value: Any,
    snapshot: AtomicSnapshot,
    max_own_steps: Optional[int] = None,
) -> Callable[[Process], Generator]:
    """Build a runtime process body that executes one protocol process.

    The body alternates scans and updates on ``snapshot`` per the machine's
    poised steps, annotates its decision, and returns the decided value.
    ``max_own_steps`` bounds the process's own steps (used to surface
    livelock as :class:`~repro.errors.DivergenceError` data, not a hang).
    """
    protocol.check_index(index)

    check_alternation = protocol.alternates()

    def body(proc: Process) -> Generator:
        state = protocol.initial_state(index, value)
        taken = 0
        previous_kind = None
        while True:
            kind, payload = protocol.poised(state)
            if kind == DECIDE:
                yield Annotate(
                    DECISION_TAG,
                    {"protocol": protocol.name, "index": index, "value": payload},
                )
                return payload
            if (
                check_alternation
                and kind == previous_kind
                and kind != RMW
            ):
                raise _broken_alternation(protocol, index, kind)
            if max_own_steps is not None and taken >= max_own_steps:
                return None  # give up silently; the runner reports divergence
            if kind == SCAN:
                view = yield Invoke(snapshot, "scan")
                state = protocol.advance(state, view)
            elif kind == UPDATE:
                component, written = payload
                yield Invoke(snapshot, "update", (component, written))
                state = protocol.advance(state, None)
            elif kind == RMW:
                component, op, args = payload
                result = yield Invoke(snapshot, "rmw", (component, op, args))
                state = protocol.advance(state, result)
            else:
                raise _unknown_kind(protocol, kind)
            previous_kind = kind
            taken += 1

    return body


def run_protocol(
    protocol: Protocol,
    inputs: Sequence[Any],
    scheduler: Scheduler,
    max_steps: int = 100_000,
    snapshot_name: str = "M",
) -> Tuple[System, ExecutionResult]:
    """Execute a protocol instance end to end on a fresh system.

    ``inputs[i]`` is process i's input; processes get pids 0..len-1.
    Returns the system (for trace analysis) and the execution result, whose
    ``outputs`` map pids to decided values (absent for undecided processes).
    Traces come only from here, the runtime.  The protocol sweeps keep
    no trace, so they run on the step rule instead: :func:`seeded_run`
    returns this function's result under ``RandomScheduler(seed)``
    without building a system.
    """
    _check_inputs(protocol, inputs)
    system = System()
    # An RMWSnapshot behaves exactly like an AtomicSnapshot unless the
    # protocol issues RMW steps, so every protocol gets one.
    snapshot = RMWSnapshot(snapshot_name, components=protocol.m)
    for index, value in enumerate(inputs):
        system.add_process(
            protocol_body(protocol, index, value, snapshot),
            name=f"{protocol.name}[{index}]",
        )
    result = system.run(scheduler, max_steps=max_steps)
    return system, result


_STEP_KINDS = (SCAN, UPDATE, RMW)


def seeded_run(
    protocol: Protocol,
    inputs: Sequence[Any],
    seed: int,
    max_steps: int = 100_000,
) -> ExecutionResult:
    """:func:`run_protocol` under ``RandomScheduler(seed)``, without a trace.

    Steps the configuration ``(states, memory)`` with :func:`apply_step`
    and takes each turn from ``RandomScheduler(seed)`` over the ascending
    list of processes still running, so it draws exactly the turns the
    runtime draws and returns an equal :class:`ExecutionResult`:
    ``max_steps`` bounds turns, a process whose initial state is decided
    spends its first turn deciding without a step, ``outputs`` lists the
    decided processes in pid order, and a broken scan/update alternation
    or an unknown poised kind raises the runtime's
    :class:`~repro.errors.ProtocolError` at the same turn.  No system,
    process or event is built; the one-process sibling is
    :func:`solo_run`.
    """
    _check_inputs(protocol, inputs)
    next_pid = RandomScheduler(seed).next_pid
    check_alternation = protocol.alternates()
    memory = (None,) * protocol.m
    states: List[Any] = [None] * len(inputs)
    # The kind each running process is poised for; None before its
    # first turn.
    kinds: List[Optional[str]] = [None] * len(inputs)
    decided: Dict[int, Any] = {}
    running = list(range(len(inputs)))
    steps = turns = 0
    while running and turns < max_steps:
        turns += 1
        pid = next_pid(running)
        kind = kinds[pid]
        if kind is None:
            state = protocol.initial_state(pid, inputs[pid])
            kind, payload = protocol.poised(state)
            if kind == DECIDE:
                decided[pid] = payload
                running.remove(pid)
                continue
            if kind not in _STEP_KINDS:
                raise _unknown_kind(protocol, kind)
        else:
            state = states[pid]
        state, memory, _ = apply_step(protocol, state, memory)
        steps += 1
        new_kind, payload = protocol.poised(state)
        if new_kind == DECIDE:
            decided[pid] = payload
            running.remove(pid)
            continue
        if check_alternation and new_kind == kind and kind != RMW:
            raise _broken_alternation(protocol, pid, kind)
        if new_kind not in _STEP_KINDS:
            raise _unknown_kind(protocol, new_kind)
        states[pid] = state
        kinds[pid] = new_kind
    outputs = {pid: decided[pid] for pid in sorted(decided)}
    return ExecutionResult(
        not running, steps, outputs, diverged=bool(running)
    )


def solo_run(
    protocol: Protocol,
    state: Any,
    contents: Sequence[Any],
    stop_before_update_outside: Optional[Sequence[int]] = None,
    max_steps: int = 100_000,
    on_step: Optional[Callable[[Tuple], Any]] = None,
) -> Tuple[Any, Tuple[Any, ...], Optional[Tuple[int, Any]], Optional[Any]]:
    """Locally run one protocol process solo from given snapshot contents.

    This is the paper's *local simulation*: the covering simulator runs a
    process ``p`` from a configuration where M's contents are a view ``V``
    it obtained from an atomic Block-Update, inserting hidden steps into the
    past.  Each step is :func:`apply_step` on a local copy of the
    contents; the run stops when

    * the process decides — returns its decision; or
    * it is poised to update a component **not** in
      ``stop_before_update_outside`` (when given) — the paper's "until it is
      about to perform an update to a component j ∉ {j_1..j_r}".
      With ``stop_before_update_outside=[]`` the run stops before the very
      first update (the base case: direct simulation until poised).  An
      RMW writes its component, so it stops the run the same way.

    Returns ``(state, final_contents, pending_update, decision)`` where
    ``pending_update`` is the ``(component, value)`` the process is poised
    to write (or None if it decided); for an RMW the value is the one the
    current contents determine.  ``on_step``, when given, receives the
    step record of every step taken (the stopping write is not taken) —
    the hidden execution ξ that the Lemma 28 correspondence checker
    splices into the simulated execution.

    Raises :class:`~repro.errors.DivergenceError` if the process neither
    decides nor reaches a stopping update within ``max_steps`` — for an
    obstruction-free protocol this cannot happen (a solo run must decide).
    """
    memory = tuple(contents)
    if len(memory) != protocol.m:
        raise ValidationError(
            f"{protocol.name}: contents have {len(memory)} components, "
            f"expected {protocol.m}"
        )
    allowed = None
    if stop_before_update_outside is not None:
        allowed = set(stop_before_update_outside)
    for _ in range(max_steps):
        kind, payload = protocol.poised(state)
        if kind == DECIDE:
            return state, memory, None, payload
        new_state, new_memory, step = apply_step(protocol, state, memory)
        if allowed is not None and kind != SCAN and step[1] not in allowed:
            return state, memory, (step[1], new_memory[step[1]]), None
        if on_step is not None:
            on_step(step)
        state, memory = new_state, new_memory
    raise DivergenceError(
        f"{protocol.name}: solo run did not decide or reach a stopping "
        f"update within {max_steps} steps",
        steps_taken=max_steps,
    )


def decided_values(system: System) -> Dict[int, Any]:
    """pid -> decided value, read from decision annotations in the trace."""
    decisions: Dict[int, Any] = {}
    for event in system.trace.annotations(DECISION_TAG):
        decisions[event.pid] = event.payload["value"]
    return decisions
