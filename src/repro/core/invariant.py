"""The Lemma 28 correspondence checker.

Lemma 28 is the paper's main invariant: every real execution σ of the
simulation corresponds to a possible execution **σ** of the protocol Π in
which the simulated processes' states match the states the simulators
store, with hidden (revised-past) steps inserted at the views returned by
atomic Block-Updates.

This module *independently reconstructs* **σ** from the real execution's
linearization (:mod:`repro.augmented.linearization`) and the protocol's
pure transition functions, then checks, step by step:

* every Scan by a simulator returned exactly the contents of M at its
  point of **σ** (case 1 of the proof);
* every Update simulating a first process ``p_{i,1}`` was that process's
  poised step (Observation 25);
* every Update simulating a later process ``p_{i,g}`` (g > 1) is justified:
  there is an anchor Block-Update whose returned view matches the contents
  of M at a valid insertion point T (only ☡-updates by other simulators
  after T), and re-running ``p_{i,g}`` from T lands it poised on exactly
  the update that was performed (case 3);
* the decisions the simulators announced match the decisions of the
  corresponding simulated processes in **σ** (or, for full-cover
  terminations, the solo value after the pending block update).

The checker shares only the protocol's pure transitions with the simulator
— all execution-side facts (views, orders, atomicity) come from the trace,
so a bug in the simulation machinery shows up as a concrete mismatch.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.augmented.linearization import (
    BlockUpdateRecord,
    Linearization,
    linearize,
)
from repro.core.simulation import (
    SIM_DECISION_TAG,
    SimulationSetup,
    _find_anchor,
    _BlockRecord,
)
from repro.errors import DivergenceError
from repro.protocols.base import (
    SCAN,
    UPDATE,
    Protocol,
    solo_run,
)


@dataclass
class SimEntry:
    """One step of the reconstructed simulated execution **σ**."""

    kind: str  # "scan" | "update"
    process: int  # protocol process index
    component: Optional[int] = None
    value: Any = None
    hidden: bool = False  # inserted by a past revision
    bu_op_id: Optional[str] = None
    bu_atomic: bool = False
    bu_rank: Optional[int] = None


@dataclass
class Correspondence:
    """The reconstructed execution plus any violations found."""

    entries: List[SimEntry] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    hidden_steps: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


class _Replayer:
    """Replays a prefix of **σ** to recover states and contents of M.

    ``replay`` is a pure function of the entry prefix it is asked about,
    but the checker asks about ever-growing prefixes of the same list —
    one per linearization point — so replaying from scratch every time is
    quadratic in σ.  The replayer therefore keeps a *tip*: the states and
    contents after the prefix it most recently replayed, advanced
    incrementally when asked about a longer prefix and rebuilt from
    scratch only when asked about a shorter one.  Callers that mutate
    ``entries`` anywhere before the tip (hidden-step insertion) must call
    :meth:`invalidate` with the insertion position.
    """

    def __init__(self, setup: SimulationSetup):
        self.setup = setup
        protocol = setup.protocol
        self.initial_states: Dict[int, Any] = {}
        for rank, indices in setup.process_map.items():
            for index in indices:
                self.initial_states[index] = protocol.initial_state(
                    index, setup.inputs[rank]
                )
        self._reset()

    def _reset(self) -> None:
        self._pos = 0
        self._states: Dict[int, Any] = dict(self.initial_states)
        self._contents: List[Any] = [None] * self.setup.protocol.m

    def invalidate(self, position: int) -> None:
        """Entries at/after ``position`` changed; drop a stale tip."""
        if position < self._pos:
            self._reset()

    def replay(
        self, entries: Sequence[SimEntry], upto: Optional[int] = None
    ) -> Tuple[Dict[int, Any], Tuple[Any, ...]]:
        advance = self.setup.protocol.advance
        count = len(entries) if upto is None else upto
        if count < self._pos:
            self._reset()
        states = self._states
        contents = self._contents
        for position in range(self._pos, count):
            entry = entries[position]
            process = entry.process
            if entry.kind == "scan":
                states[process] = advance(states[process], tuple(contents))
            else:
                contents[entry.component] = entry.value
                states[process] = advance(states[process], None)
        self._pos = count
        return dict(states), tuple(contents)


def _rank_blocks(lin: Linearization) -> Dict[int, Tuple[List, List, List]]:
    """rank -> its Block-Updates in application order (it is sequential),
    as ``(records, their _BlockRecord log, their begin_seq)``; built once
    per linearization."""
    by_rank: Dict[int, Tuple[List, List, List]] = {}
    for b in sorted(lin.block_updates, key=lambda b: b.begin_seq):
        records, log, begins = by_rank.setdefault(b.rank, ([], [], []))
        records.append(b)
        log.append(_BlockRecord(b.components, b.result == "view",
                                b.returned_view))
        begins.append(b.begin_seq)
    return by_rank


def _anchor_for(
    blocks: Dict[int, Tuple[List, List, List]],
    record: BlockUpdateRecord,
    prefix_size: int,
) -> Optional[BlockUpdateRecord]:
    """The anchor Block-Update the revision of p_{i,prefix_size+1} used:
    the last atomic Block-Update by the same rank on exactly the first
    ``prefix_size`` components of ``record``, with no wider one after it."""
    own, log, begins = blocks[record.rank]
    before = bisect_left(begins, record.begin_seq)
    found = _find_anchor(log[:before], record.components[:prefix_size])
    if found is None:
        return None
    for b in reversed(own[:before]):
        if b.components == found.components and b.result == "view":
            return b
    return None  # pragma: no cover - found implies a matching record


def check_correspondence(outcome) -> Correspondence:
    """Reconstruct **σ** for a simulation outcome and verify Lemma 28.

    ``outcome`` is a :class:`~repro.core.simulation.SimulationOutcome`,
    from :func:`~repro.core.simulation.run_simulation` or
    :func:`~repro.core.approx.run_approx_simulation`.
    """
    setup: SimulationSetup = outcome.setup
    protocol: Protocol = setup.protocol
    lin = linearize(outcome.system.trace, outcome.aug)
    blocks = _rank_blocks(lin)
    replayer = _Replayer(setup)
    out = Correspondence()
    entries = out.entries
    # Anchor insertion points: bu op_id -> index into `entries`.
    anchor_at: Dict[str, int] = {}
    seen_first_update: Dict[str, bool] = {}

    def fail(message: str) -> None:
        out.violations.append(message)

    def shift_anchors(position: int, amount: int) -> None:
        for op_id, index in anchor_at.items():
            if index > position:
                anchor_at[op_id] = index + amount

    for point in lin.sigma:
        if out.violations:
            break
        if point.kind == "scan":
            rank = point.scan.rank
            process = setup.process_map[rank][0]
            states, contents = replayer.replay(entries)
            kind, _payload = protocol.poised(states[process])
            if kind != SCAN:
                fail(
                    f"Scan {point.scan.op_id}: simulated process {process} "
                    f"is poised to {kind}, not scan"
                )
                break
            if tuple(point.scan.returned_view) != contents:
                fail(
                    f"Scan {point.scan.op_id} returned "
                    f"{point.scan.returned_view} but M's contents in σ are "
                    f"{contents}"
                )
                break
            entries.append(SimEntry(kind="scan", process=process))
            continue

        # An Update point.
        record = point.block_update
        rank = record.rank
        position_in_block = record.components.index(point.component)
        process = setup.process_map[rank][position_in_block]

        if record.op_id not in seen_first_update and record.result == "view":
            # First update of an atomic Block-Update: locate its view's
            # insertion point T — walk back over trailing ☡-updates by
            # other ranks until the replayed contents match the view.
            candidate = len(entries)
            found = None
            while True:
                _states, contents = replayer.replay(entries, upto=candidate)
                if contents == tuple(record.returned_view):
                    found = candidate
                    break
                if candidate == 0:
                    break
                previous = entries[candidate - 1]
                if previous.kind != "update":
                    break
                if previous.bu_atomic or previous.bu_rank == rank:
                    break
                candidate -= 1
            if found is None:
                fail(
                    f"Block-Update {record.op_id} returned "
                    f"{record.returned_view}, which matches no admissible "
                    "insertion point in σ"
                )
                break
            anchor_at[record.op_id] = found
        seen_first_update[record.op_id] = True

        if position_in_block > 0:
            # A hidden-past update: justify it from its anchor.
            anchor = _anchor_for(blocks, record, position_in_block)
            if anchor is None:
                fail(
                    f"Update of {record.op_id} simulating process {process} "
                    "has no anchor Block-Update to justify its revision"
                )
                break
            if anchor.op_id not in anchor_at:
                fail(
                    f"anchor {anchor.op_id} of {record.op_id} has no "
                    "recorded insertion point"
                )
                break
            at = anchor_at[anchor.op_id]
            states_at, contents_at = replayer.replay(entries, upto=at)
            if contents_at != tuple(anchor.returned_view):
                fail(
                    f"insertion point of anchor {anchor.op_id} drifted: "
                    f"contents {contents_at} != view {anchor.returned_view}"
                )
                break
            allowed = record.components[:position_in_block]
            steps: List[Tuple] = []
            try:
                _state, _c, pending, decision = solo_run(
                    protocol,
                    states_at[process],
                    anchor.returned_view,
                    stop_before_update_outside=allowed,
                    on_step=steps.append,
                )
            except DivergenceError:
                fail(
                    f"hidden run of process {process} from anchor "
                    f"{anchor.op_id} diverged"
                )
                break
            if decision is not None or pending != (point.component, point.value):
                fail(
                    f"hidden run of process {process} from anchor "
                    f"{anchor.op_id} ended at {pending!r}/{decision!r}, "
                    f"expected pending update "
                    f"({point.component}, {point.value!r})"
                )
                break
            hidden_entries = [
                SimEntry(kind=SCAN, process=process, hidden=True)
                if step[0] == SCAN else
                SimEntry(kind=UPDATE, process=process, component=step[1],
                         value=step[2], hidden=True)
                for step in steps
            ]
            entries[at:at] = hidden_entries
            replayer.invalidate(at)
            out.hidden_steps += len(hidden_entries)
            shift_anchors(at, len(hidden_entries))

        # Now the update itself must be the process's poised step.
        states, _contents = replayer.replay(entries)
        kind, payload = protocol.poised(states[process])
        if kind != UPDATE or payload != (point.component, point.value):
            fail(
                f"Update of {record.op_id}: simulated process {process} is "
                f"poised to {kind} {payload!r}, expected update "
                f"({point.component}, {point.value!r})"
            )
            break
        entries.append(
            SimEntry(
                kind="update",
                process=process,
                component=point.component,
                value=point.value,
                bu_op_id=record.op_id,
                bu_atomic=record.result == "view",
                bu_rank=rank,
            )
        )

    if out.violations:
        return out

    # Decision checks: every announced decision must be justified by σ.
    final_states, final_contents = replayer.replay(entries)
    for event in outcome.system.trace.annotations(SIM_DECISION_TAG):
        info = event.payload
        rank, value, via = info["rank"], info["value"], info["via"]
        if via == "simulated_process":
            process = info["process_index"]
            decided = protocol.decision(final_states[process])
            if decided != value:
                fail(
                    f"simulator q{rank} decided {value!r} via process "
                    f"{process}, but that process's state in σ decides "
                    f"{decided!r}"
                )
        else:  # full_cover
            # The final (never-applied) revision chain lives only in the
            # simulator's head; re-derive it exactly as the simulator would,
            # but driven entirely by σ's states and the trace's anchors.
            derived = _derive_full_cover(setup, blocks, rank, final_states)
            if derived is None:
                fail(
                    f"simulator q{rank} decided {value!r} via full cover, "
                    "but its pending block cannot be reconstructed from σ"
                )
                continue
            poised, state_after = derived
            contents: List[Any] = [None] * protocol.m
            for component, written in poised.values():
                contents[component] = written
            try:
                _s, _c, _p, decided = solo_run(protocol, state_after, contents)
            except DivergenceError:
                fail(
                    f"simulator q{rank}'s full-cover solo run diverged in σ"
                )
                continue
            if decided != value:
                fail(
                    f"simulator q{rank} decided {value!r} via full cover, "
                    f"but σ's solo run decides {decided!r}"
                )
    return out


def _derive_full_cover(
    setup: SimulationSetup,
    blocks: Dict[int, Tuple[List, List, List]],
    rank: int,
    final_states: Dict[int, Any],
):
    """Re-derive the terminating revision chain of a covering simulator.

    The last turn of a full-cover termination revises processes locally
    without applying a Block-Update, so those pending updates are not in σ.
    This reconstructs them from σ's final states plus the anchors recorded
    in the trace, mirroring the simulator's own iteration — but driven
    entirely by checker-side state.  Returns ``(poised, state_after)``
    where ``poised`` maps each process to its pending (component, value)
    covering all m components, and ``state_after`` is the first process's
    state after its own write; or ``None`` if no such chain exists.
    """
    protocol = setup.protocol
    indices = setup.process_map[rank]
    _own, log, _begins = blocks.get(rank, ([], [], []))
    states = {process: final_states[process] for process in indices}
    kind, payload = protocol.poised(states[indices[0]])
    if kind != UPDATE:
        return None
    updates = [payload]
    poised = {indices[0]: payload}
    while len(updates) < protocol.m:
        r = len(updates)
        components = [j for j, _ in updates]
        anchor = _find_anchor(log, components)
        if anchor is None:
            return None
        try:
            new_state, _c, pending, decision = solo_run(
                protocol,
                states[indices[r]],
                anchor.view,
                stop_before_update_outside=components,
            )
        except DivergenceError:
            return None
        if decision is not None or pending is None:
            return None
        states[indices[r]] = new_state
        poised[indices[r]] = pending
        updates.append(pending)
    if len({component for component, _v in poised.values()}) != protocol.m:
        return None
    return poised, protocol.advance(states[indices[0]], None)
