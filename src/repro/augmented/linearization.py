"""Appendix B as executable analysis: linearization points and lemma checks.

The augmented snapshot's Block-Update is deliberately *not* linearizable, but
the Updates comprising it and all Scans are.  Appendix B defines where they
linearize:

* a completed ``Scan`` linearizes at its last scan of H (line 19);
* the ``Update`` to component ``j`` with associated timestamp ``t`` linearizes
  at the *first* point where H contains a triple with component ``j`` and
  timestamp ``t' ≽ t`` (Updates linearized at the same point are ordered by
  timestamp, then component).

This module reconstructs operations from a system trace (using the begin/end
annotations emitted by :class:`~repro.augmented.object.AugmentedSnapshot`,
read under the object's ``OP_TAG``, so the partially augmented snapshot of
:mod:`repro.augmented.partial` is analysed too), computes those
linearization points, and provides one checker per Appendix B result.
Checkers return lists of human-readable violation strings — empty means
the lemma held on this execution — so the test-suite and the E1
experiment can assert emptiness over thousands of schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.augmented.object import AugmentedSnapshot
from repro.errors import ValidationError
from repro.runtime.events import Trace
from repro.timestamps import VectorTimestamp


@dataclass
class BlockUpdateRecord:
    """One Block-Update operation reconstructed from the trace.

    A one-component ``update`` of the partially augmented snapshot is
    recorded the same way, with ``result="update"``: it is never ☡ and
    returns no view, so the checkers treat it like the Updates of a ☡
    Block-Update.
    """

    op_id: str
    rank: int
    begin_seq: int
    components: Tuple[int, ...]
    values: Tuple[Any, ...]
    end_seq: Optional[int] = None
    # "view" | "yield" | "update" | None if incomplete
    result: Optional[str] = None
    returned_view: Any = None
    timestamp: Optional[VectorTimestamp] = None
    h_scan_seq: Optional[int] = None  # line 23 scan
    x_seq: Optional[int] = None  # line 25 update to H

    @property
    def completed(self) -> bool:
        return self.end_seq is not None

    @property
    def atomic(self) -> bool:
        return self.result == "view"


@dataclass
class ScanRecord:
    """One Scan operation reconstructed from the trace."""

    op_id: str
    rank: int
    begin_seq: int
    end_seq: Optional[int] = None
    returned_view: Any = None
    lin_seq: Optional[int] = None  # last scan of H (line 19)

    @property
    def completed(self) -> bool:
        return self.end_seq is not None


@dataclass
class LinPoint:
    """One entry of the linearized sequence σ."""

    kind: str  # "update" | "scan"
    seq: int  # trace sequence number of the linearization point
    order: Tuple  # full sort key, including same-point tie-breaks
    component: Optional[int] = None
    value: Any = None
    timestamp: Optional[VectorTimestamp] = None
    block_update: Optional[BlockUpdateRecord] = None
    scan: Optional[ScanRecord] = None


@dataclass
class Linearization:
    """The result of analysing one execution of one augmented snapshot."""

    block_updates: List[BlockUpdateRecord]
    scans: List[ScanRecord]
    sigma: List[LinPoint]
    m: int

    def views_after_prefixes(self) -> List[Tuple[Any, ...]]:
        """Contents of M after each prefix of σ (index p = after p entries)."""
        contents: List[Any] = [None] * self.m
        out = [tuple(contents)]
        for point in self.sigma:
            if point.kind == "update":
                contents[point.component] = point.value
            out.append(tuple(contents))
        return out


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def extract_operations(
    trace: Trace, obj: AugmentedSnapshot
) -> Tuple[List[BlockUpdateRecord], List[ScanRecord]]:
    """Reconstruct all Scan and Block-Update operations on ``obj``.

    Uses the begin/end annotations plus the raw H steps between them.  Steps
    of incomplete operations (process crashed or still running) are handled:
    a Block-Update that performed its update to H (line 25) has a timestamp
    and participates in linearization; one that did not is invisible.
    """
    return _walk(trace, obj)[:2]


def _walk(
    trace: Trace, obj: AugmentedSnapshot
) -> Tuple[List[BlockUpdateRecord], List[ScanRecord], List[Tuple]]:
    """:func:`extract_operations` plus, in the same trace pass, one
    ``(seq, rank, appended triples)`` per update to H, in trace order."""
    if obj.H is None:
        raise ValidationError(
            f"{obj.name} ran in register-level mode: H is an [AAD+93] "
            "construction, so the Appendix B trace analysis (which reads "
            "native H steps) is unavailable — run in native mode to analyse"
        )
    h_name, tag = obj.H.name, obj.OP_TAG
    open_ops: Dict[int, Any] = {}  # pid is unique per op at a time: rank -> record
    bus: List[BlockUpdateRecord] = []
    scans: List[ScanRecord] = []
    h_updates: List[Tuple] = []
    by_id: Dict[str, Any] = {}
    # Track H contents to attribute appended triples (for timestamps).
    h_state: List[Tuple] = [()] * obj.k_plus_1

    for event in trace:
        kind = event.kind
        if kind == "annotate":
            if event.tag != tag:
                continue
            info = event.payload
            if info.get("object") != obj.name:
                continue
            rank = info["rank"]
            if info["phase"] == "begin":
                if info["kind"] != "scan":
                    record = BlockUpdateRecord(
                        op_id=info["op_id"],
                        rank=rank,
                        begin_seq=event.seq,
                        components=info["components"],
                        values=info["values"],
                    )
                    bus.append(record)
                else:
                    record = ScanRecord(
                        op_id=info["op_id"], rank=rank, begin_seq=event.seq
                    )
                    scans.append(record)
                open_ops[rank] = record
                by_id[info["op_id"]] = record
            else:  # end
                record = by_id.get(info["op_id"])
                if record is None:
                    raise ValidationError(
                        f"end annotation for unknown op {info['op_id']}"
                    )
                record.end_seq = event.seq
                if isinstance(record, BlockUpdateRecord):
                    record.result = info["result"]
                    record.timestamp = info.get("timestamp", record.timestamp)
                    record.returned_view = info.get("view")
                else:
                    record.returned_view = info.get("view")
                open_ops.pop(rank, None)
            continue

        if kind != "step" or event.obj_name != h_name:
            continue
        # A primitive step on H; attribute it to the issuing process's op.
        rank = obj.rank_of(event.pid)
        record = open_ops.get(rank)
        if event.op == "scan":
            if isinstance(record, ScanRecord):
                record.lin_seq = event.seq  # overwritten until the last one
            elif isinstance(record, BlockUpdateRecord):
                if record.h_scan_seq is None:
                    record.h_scan_seq = event.seq  # line 23
        elif event.op == "update":
            slot, new_history = event.args
            appended = new_history[len(h_state[slot]):]
            h_state[slot] = new_history
            h_updates.append((event.seq, rank, appended))
            if isinstance(record, BlockUpdateRecord) and record.x_seq is None:
                record.x_seq = event.seq
                if appended:
                    record.timestamp = appended[0][2]
    return bus, scans, h_updates


def _components(ts: VectorTimestamp, size: int) -> Tuple[int, ...]:
    """``ts``'s component tuple, which must have one entry per process."""
    stamp = ts.components
    if len(stamp) != size:
        raise ValidationError(
            f"timestamp {ts!r} has {len(stamp)} components; the object is "
            f"shared by {size} processes"
        )
    return stamp


# ----------------------------------------------------------------------
# Linearization (Appendix B rules)
# ----------------------------------------------------------------------
def linearize(trace: Trace, obj: AugmentedSnapshot) -> Linearization:
    """Compute σ, the linearized sequence of Updates and Scans on ``obj``."""
    bus, scans, h_updates = _walk(trace, obj)
    size = obj.k_plus_1

    # Pending Updates: one per (component, value) of each Block-Update whose
    # update to H happened (it has a timestamp), as checked component tuples.
    pending: List[Tuple] = []
    for record in bus:
        if record.timestamp is None:
            continue
        stamp = _components(record.timestamp, size)
        for component, value in zip(record.components, record.values):
            pending.append((component, value, stamp, record))

    # Walk H updates in trace order, tracking the max timestamp per component.
    points: List[LinPoint] = []
    max_ts: Dict[int, Tuple[int, ...]] = {}
    for seq, _rank, appended in h_updates:
        for component, _value, ts in appended:
            stamp = _components(ts, size)
            if component not in max_ts or stamp > max_ts[component]:
                max_ts[component] = stamp
        still_pending = []
        for item in pending:
            component, value, stamp, record = item
            if component in max_ts and max_ts[component] >= stamp:
                points.append(
                    LinPoint(
                        kind="update",
                        seq=seq,
                        order=(seq, 0, stamp, component),
                        component=component,
                        value=value,
                        timestamp=record.timestamp,
                        block_update=record,
                    )
                )
            else:
                still_pending.append(item)
        pending = still_pending

    for record in scans:
        if record.completed and record.lin_seq is not None:
            points.append(
                LinPoint(
                    kind="scan",
                    seq=record.lin_seq,
                    order=(record.lin_seq, 1, (), -1),
                    scan=record,
                )
            )

    points.sort(key=lambda p: p.order)
    return Linearization(block_updates=bus, scans=scans, sigma=points, m=obj.m)


# ----------------------------------------------------------------------
# Lemma checkers — each returns a list of violations (empty = lemma held)
# ----------------------------------------------------------------------
def check_scan_views(lin: Linearization) -> List[str]:
    """Corollary 18: every completed Scan returns the contents of M at its
    linearization point (the value of the last Update to each component
    linearized before it, or ⊥)."""
    violations = []
    views = lin.views_after_prefixes()
    for index, point in enumerate(lin.sigma):
        if point.kind != "scan":
            continue
        expected = views[index]
        actual = point.scan.returned_view
        if tuple(actual) != expected:
            violations.append(
                f"Scan {point.scan.op_id} returned {actual}, but contents at "
                f"its linearization point were {expected}"
            )
    return violations


def check_atomic_block_updates(lin: Linearization) -> List[str]:
    """Lemma 14: the Updates of each non-☡ Block-Update linearize at its
    update to H, consecutively, in component order."""
    violations = []
    position: Dict[str, List[int]] = {}
    for index, point in enumerate(lin.sigma):
        if point.kind == "update":
            position.setdefault(point.block_update.op_id, []).append(index)
    for record in lin.block_updates:
        if not record.atomic:
            continue
        indices = position.get(record.op_id, [])
        if len(indices) != len(record.components):
            violations.append(
                f"Block-Update {record.op_id}: expected "
                f"{len(record.components)} linearized Updates, found "
                f"{len(indices)}"
            )
            continue
        if indices != list(range(indices[0], indices[0] + len(indices))):
            violations.append(
                f"Block-Update {record.op_id}: Updates are not consecutive "
                f"in σ (positions {indices})"
            )
        seqs = {lin.sigma[i].seq for i in indices}
        if seqs != {record.x_seq}:
            violations.append(
                f"Block-Update {record.op_id}: Updates linearized at {seqs}, "
                f"not at its update to H ({record.x_seq})"
            )
        comps = [lin.sigma[i].component for i in indices]
        if comps != sorted(comps):
            violations.append(
                f"Block-Update {record.op_id}: Updates not in component "
                f"order: {comps}"
            )
    return violations


def check_updates_within_intervals(lin: Linearization) -> List[str]:
    """Lemma 15: each Update linearizes after its Block-Update's first scan
    of H and no later than its update to H."""
    violations = []
    for point in lin.sigma:
        if point.kind != "update":
            continue
        record = point.block_update
        if record.h_scan_seq is not None and point.seq <= record.h_scan_seq:
            violations.append(
                f"Update of {record.op_id} linearized at {point.seq}, before "
                f"its scan of H at {record.h_scan_seq}"
            )
        if record.x_seq is not None and point.seq > record.x_seq:
            violations.append(
                f"Update of {record.op_id} linearized at {point.seq}, after "
                f"its update to H at {record.x_seq}"
            )
    return violations


def check_yield_rule(trace: Trace, obj: AugmentedSnapshot) -> List[str]:
    """Specification of ☡ (and Lemma 16): a Block-Update returns ☡ only if a
    lower-rank process performed an update to H (line 25) during its
    execution interval."""
    violations = []
    bus, _scans, h_updates = _walk(trace, obj)
    for record in bus:
        if record.result != "yield":
            continue
        interval_has_lower = any(
            record.begin_seq <= seq <= record.end_seq and rank < record.rank
            for seq, rank, _appended in h_updates
        )
        if not interval_has_lower:
            violations.append(
                f"Block-Update {record.op_id} (rank {record.rank}) returned ☡ "
                "with no lower-rank update to H in its interval"
            )
    return violations


def check_returned_views(lin: Linearization) -> List[str]:
    """Lemma 22: an atomic Block-Update B returns the contents of M at a
    point T before its linearization point Z, such that between T and Z only
    Updates of ☡ Block-Updates (by other processes) are linearized — in
    particular no Scans and no other atomic Block-Updates."""
    violations = []
    views = lin.views_after_prefixes()
    first_index: Dict[str, int] = {}
    for index, point in enumerate(lin.sigma):
        if point.kind == "update":
            first_index.setdefault(point.block_update.op_id, index)
    for record in lin.block_updates:
        if not record.atomic or record.op_id not in first_index:
            continue
        z_index = first_index[record.op_id]
        expected = tuple(record.returned_view)
        # Scan back from Z over entries that are Updates of ☡ Block-Updates
        # by other ranks; T must be one of the positions passed (inclusive).
        candidate = z_index
        found = False
        while True:
            if views[candidate] == expected:
                found = True
                break
            if candidate == 0:
                break
            previous = lin.sigma[candidate - 1]
            if previous.kind != "update":
                break  # a Scan linearized here; T cannot be earlier
            bu = previous.block_update
            if bu.atomic or bu.rank == record.rank:
                break  # an atomic Block-Update's Update; window boundary Z'
            candidate -= 1
        if not found:
            violations.append(
                f"Block-Update {record.op_id} returned {expected}, which does "
                "not match the contents of M at any admissible point T before "
                f"its linearization point (position {z_index})"
            )
    return violations


def check_all(trace: Trace, obj: AugmentedSnapshot) -> List[str]:
    """Run every Appendix B checker; returns all violations found."""
    lin = linearize(trace, obj)
    violations = []
    violations += check_scan_views(lin)
    violations += check_atomic_block_updates(lin)
    violations += check_updates_within_intervals(lin)
    violations += check_yield_rule(trace, obj)
    violations += check_returned_views(lin)
    return violations
