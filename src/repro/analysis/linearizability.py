"""A Wing–Gong style linearizability checker.

Given the completed operations of a concurrent history — each with its
real-time interval and recorded result — and a *sequential specification*
of the object, decide whether some linearization exists: a total order of
the operations, consistent with real time (an operation that ended before
another began comes first), in which every recorded result matches what the
sequential object would return.

The search is the classic backtracking over minimal-in-precedence pending
operations, memoized on ``(remaining operation ids, object state)``; the
specification must therefore expose *pure* transitions over hashable
states:

    class SnapshotSpec:
        def initial_state(self): ...
        def apply(self, state, op, args): return new_state, result

Checking is NP-hard in general, so this is meant for the moderate histories
produced by the test workloads (dozens of operations), which is exactly the
regime needed to machine-check the [AAD+93] snapshot constructions and the
augmented snapshot's Update/Scan sub-operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.runtime.events import OBJECT_OP_TAG


@dataclass(frozen=True)
class CompletedOperation:
    """One completed operation of a concurrent history.

    ``start``/``end`` are real-time coordinates (trace sequence numbers);
    operation A precedes B iff ``A.end < B.start``.
    """

    op_id: str
    pid: int
    op: str
    args: Tuple[Any, ...]
    result: Any
    start: int
    end: int

    def __post_init__(self):
        if self.end < self.start:
            raise ValidationError(
                f"operation {self.op_id}: end {self.end} < start {self.start}"
            )


class SnapshotSpec:
    """Sequential specification of an m-component atomic snapshot."""

    kind = "snapshot"

    def __init__(self, components: int, initial: Any = None) -> None:
        self.m = components
        self.initial = initial

    def initial_state(self) -> Tuple:
        """All components hold the initial value."""
        return (self.initial,) * self.m

    def apply(self, state: Tuple, op: str, args: Tuple) -> Tuple[Tuple, Any]:
        """Sequentially apply scan/update; returns (state, result)."""
        if op == "scan":
            return state, state
        if op == "update":
            component, value = args
            new_state = state[:component] + (value,) + state[component + 1:]
            return new_state, None
        raise ValidationError(f"snapshot spec has no operation {op!r}")


class RegisterSpec:
    """Sequential specification of a single read/write register."""

    kind = "register"

    def __init__(self, initial: Any = None) -> None:
        self.initial = initial

    def initial_state(self) -> Any:
        """The register holds its initial value."""
        return self.initial

    def apply(self, state: Any, op: str, args: Tuple) -> Tuple[Any, Any]:
        """Sequentially apply read/write; returns (state, result)."""
        if op == "read":
            return state, state
        if op == "write":
            (value,) = args
            return value, value
        raise ValidationError(f"register spec has no operation {op!r}")


class SwapSpec:
    """Sequential specification of a swap object."""

    kind = "swap"

    def __init__(self, initial: Any = None) -> None:
        self.initial = initial

    def initial_state(self) -> Any:
        """The cell holds its initial value."""
        return self.initial

    def apply(self, state: Any, op: str, args: Tuple) -> Tuple[Any, Any]:
        """Sequentially apply read/swap; returns (state, result)."""
        if op == "read":
            return state, state
        if op == "swap":
            (value,) = args
            return value, state
        raise ValidationError(f"swap spec has no operation {op!r}")


class TestAndSetSpec:
    """Sequential specification of a (resettable) test-and-set bit."""

    kind = "test-and-set"

    def __init__(self, initial: Any = 0) -> None:
        self.initial = initial

    def initial_state(self) -> Any:
        """The bit holds its initial value."""
        return self.initial

    def apply(self, state: Any, op: str, args: Tuple) -> Tuple[Any, Any]:
        """Sequentially apply read/test_and_set/reset."""
        if op == "read":
            return state, state
        if op == "test_and_set":
            return 1, state
        if op == "reset":
            return self.initial, self.initial
        raise ValidationError(f"test-and-set spec has no operation {op!r}")


class CompareAndSwapSpec:
    """Sequential specification of a compare-and-swap object."""

    kind = "compare-and-swap"

    def __init__(self, initial: Any = None) -> None:
        self.initial = initial

    def initial_state(self) -> Any:
        """The cell holds its initial value."""
        return self.initial

    def apply(self, state: Any, op: str, args: Tuple) -> Tuple[Any, Any]:
        """Sequentially apply read/compare_and_swap."""
        if op == "read":
            return state, state
        if op == "compare_and_swap":
            expected, new = args
            if state == expected:
                return new, state
            return state, state
        raise ValidationError(f"CAS spec has no operation {op!r}")


#: Base-object kind -> sequential spec class, for parameterizing the
#: checker (and the certificate descriptors) over the primitive type.
BASE_OBJECT_SPECS = {
    "register": RegisterSpec,
    "swap": SwapSpec,
    "test-and-set": TestAndSetSpec,
    "compare-and-swap": CompareAndSwapSpec,
}


def spec_for_base_object(kind: str, initial: Any = None):
    """The sequential spec for a one-word base object of ``kind``.

    ``kind`` is one of ``register`` / ``swap`` / ``test-and-set`` /
    ``compare-and-swap``; ``initial`` seeds the object's initial value
    (defaulting to 0 for test-and-set, whose unset value is 0).
    """
    try:
        cls = BASE_OBJECT_SPECS[kind]
    except KeyError:
        raise ValidationError(
            f"unknown base-object kind {kind!r} (expected one of "
            f"{sorted(BASE_OBJECT_SPECS)})"
        ) from None
    if kind == "test-and-set" and initial is None:
        return cls()
    return cls(initial)


def crossing_pairs(history: Sequence[CompletedOperation]) -> int:
    """Number of concurrent (interval-overlapping) operation pairs — a
    quick measure of how contended a history is."""
    count = 0
    for i, a in enumerate(history):
        for b in history[i + 1:]:
            if not (a.end < b.start or b.end < a.start):
                count += 1
    return count


def check_linearizable(
    history: Sequence[CompletedOperation],
    spec,
    max_nodes: int = 2_000_000,
) -> Tuple[bool, Optional[List[str]]]:
    """Decide linearizability of ``history`` against ``spec``.

    Returns ``(True, witness)`` with a witness order of op_ids, or
    ``(False, None)``.  Raises :class:`~repro.errors.ValidationError` if the
    search exceeds ``max_nodes`` (history too large to decide).
    """
    ops = list(history)
    ids = {op.op_id for op in ops}
    if len(ids) != len(ops):
        raise ValidationError("duplicate operation ids in history")
    by_id = {op.op_id: op for op in ops}

    # Precompute precedence: preds[x] = ids that must come before x.
    preds: Dict[str, set] = {op.op_id: set() for op in ops}
    for a in ops:
        for b in ops:
            if a.end < b.start:
                preds[b.op_id].add(a.op_id)

    failed = set()
    nodes = 0
    witness: List[str] = []

    def search(remaining: frozenset, state: Any) -> bool:
        nonlocal nodes
        if not remaining:
            return True
        key = (remaining, state)
        if key in failed:
            return False
        nodes += 1
        if nodes > max_nodes:
            raise ValidationError(
                f"linearizability search exceeded {max_nodes} nodes"
            )
        for op_id in sorted(remaining):
            if preds[op_id] & remaining:
                continue  # a predecessor is still pending
            op = by_id[op_id]
            new_state, result = spec.apply(state, op.op, op.args)
            if result != op.result:
                continue
            witness.append(op_id)
            if search(remaining - {op_id}, new_state):
                return True
            witness.pop()
        failed.add(key)
        return False

    ok = search(frozenset(ids), spec.initial_state())
    return (True, list(witness)) if ok else (False, None)


def certified_linearization(
    history: Sequence[CompletedOperation],
    spec,
    max_nodes: int = 2_000_000,
):
    """Like :func:`check_linearizable`, but also certify the witness.

    Returns ``(ok, witness, certificate)`` where ``certificate`` is a
    :class:`~repro.certify.certificates.Certificate` for the witness
    order (``None`` when the history is not linearizable): the
    independent verifier re-applies the order against its own
    sequential spec, so the linearization claim no longer rests on this
    checker's search being correct.
    """
    ok, witness = check_linearizable(history, spec, max_nodes=max_nodes)
    if not ok:
        return ok, witness, None
    from repro.certify.emit import linearization_certificate

    return ok, witness, linearization_certificate(spec, history, witness)


def history_from_trace(trace, object_name: str) -> List[CompletedOperation]:
    """Collect the completed operations recorded via OBJECT_OP_TAG markers.

    Composed objects (e.g. the [AAD+93] snapshots) annotate each high-level
    operation's begin/end; this converts those markers into
    :class:`CompletedOperation` records with trace-seq intervals.
    """
    prefix = object_name + "."
    open_ops: Dict[str, Dict] = {}
    completed: List[CompletedOperation] = []
    for event in trace:
        if event.is_step() and event.obj_name and (
            event.obj_name == object_name or event.obj_name.startswith(prefix)
        ):
            # Tighten intervals to the operation's own primitive steps: the
            # issuing process is sequential, so any step it takes between an
            # op's begin and end markers belongs to that op.
            for started in open_ops.values():
                if started["pid"] == event.pid:
                    if started["first_step"] is None:
                        started["first_step"] = event.seq
                    started["last_step"] = event.seq
            continue
        if not event.is_annotation() or event.tag != OBJECT_OP_TAG:
            continue
        info = event.payload
        if info.get("object") != object_name:
            continue
        if info["phase"] == "begin":
            open_ops[info["op_id"]] = {
                "pid": event.pid,
                "op": info["op"],
                "args": tuple(info.get("args", ())),
                "start": event.seq,
                "first_step": None,
                "last_step": None,
            }
        else:
            started = open_ops.pop(info["op_id"], None)
            if started is None:
                raise ValidationError(
                    f"end marker without begin for op {info['op_id']}"
                )
            start = started["first_step"]
            end = started["last_step"]
            if start is None:
                start, end = started["start"], event.seq
            completed.append(
                CompletedOperation(
                    op_id=info["op_id"],
                    pid=started["pid"],
                    op=started["op"],
                    args=started["args"],
                    result=info.get("result"),
                    start=start,
                    end=end,
                )
            )
    return completed
