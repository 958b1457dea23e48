"""Step requests and trace events.

A *step* in the model (Section 2 of the paper) is a single atomic operation
on a shared object.  Process bodies request steps by yielding
:class:`Invoke`; the system applies the operation atomically and sends the
response back into the generator.  :class:`Annotate` is a zero-cost marker
(it does not consume a scheduling step) used by composed objects to record
the begin/end of high-level operations, which the Appendix B linearization
analysis needs in order to know execution intervals.  :class:`OpMarkers`
builds the ones composed objects share, under :data:`OBJECT_OP_TAG`.

Every applied step is recorded as an :class:`Event` in the system trace with
a globally unique, monotonically increasing sequence number.  The trace is
the ground truth from which all post-hoc analyses work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

# Invoke/Annotate/Event are plain ``__slots__`` classes rather than frozen
# dataclasses: one is allocated per applied step (plus one per annotation),
# so they sit on the runtime's hot path, and frozen-dataclass construction
# costs an ``object.__setattr__`` per field.  They keep dataclass-style
# value equality and repr; treat instances as immutable.


class Invoke:
    """A request to atomically apply ``op(*args)`` on a shared object.

    Attributes:
        obj: the target shared object; must expose ``apply(pid, op, args)``.
        op: operation name, e.g. ``"read"``, ``"write"``, ``"scan"``.
        args: positional arguments for the operation.
    """

    __slots__ = ("obj", "op", "args")

    def __init__(self, obj: Any, op: str, args: Tuple[Any, ...] = ()) -> None:
        self.obj = obj
        self.op = op
        self.args = args

    def __repr__(self) -> str:
        return (
            f"Invoke(obj={self.obj!r}, op={self.op!r}, args={self.args!r})"
        )

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Invoke:
            return NotImplemented
        return (
            self.obj == other.obj
            and self.op == other.op
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return hash((self.obj, self.op, self.args))


class Annotate:
    """A zero-cost trace marker.

    Yielding an :class:`Annotate` records an event but does not consume the
    process's scheduling turn: the system immediately resumes the process.
    Used to mark operation boundaries (``"begin"``/``"end"`` of a Scan or
    Block-Update) and decisions.
    """

    __slots__ = ("tag", "payload")

    def __init__(self, tag: str, payload: Any = None) -> None:
        self.tag = tag
        self.payload = payload

    def __repr__(self) -> str:
        return f"Annotate(tag={self.tag!r}, payload={self.payload!r})"

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Annotate:
            return NotImplemented
        return self.tag == other.tag and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.tag, self.payload))


#: Tag of the begin/end markers composed objects put around each operation;
#: :func:`repro.analysis.linearizability.history_from_trace` reads
#: operation histories back from them.
OBJECT_OP_TAG = "object.op"


class OpMarkers:
    """Mixin: numbered :data:`OBJECT_OP_TAG` markers for a composed object.

    A composed object (its operations are generators of primitive steps,
    like the [AAD+93] snapshots) yields ``_marker("begin", op, op_id)``
    before an operation and ``_marker("end", op, op_id, result=...)``
    after it.  Op ids are ``"<name>#<n>"``, numbered per object from 1;
    the object needs only a ``name``.
    """

    name: str
    _op_counter = 0  # per instance once the first op id is drawn

    def _next_op_id(self) -> str:
        self._op_counter += 1
        return f"{self.name}#{self._op_counter}"

    def _marker(self, phase: str, op: str, op_id: str, **extra) -> Annotate:
        payload = {"object": self.name, "phase": phase, "op": op,
                   "op_id": op_id}
        payload.update(extra)
        return Annotate(OBJECT_OP_TAG, payload)


class Event:
    """One entry of an execution trace.

    Attributes:
        seq: global sequence number; atomic steps of the whole execution are
            totally ordered by ``seq``.
        pid: identifier of the process that took the step.
        kind: ``"step"`` for an applied :class:`Invoke`, ``"annotate"`` for a
            marker, ``"crash"``/``"done"`` for lifecycle events.
        obj_name: name of the shared object accessed (steps only).
        op: operation name (steps only).
        args: operation arguments (steps only).
        result: the operation's response (steps only).
        tag: annotation tag (annotations only).
        payload: annotation payload (annotations only).
    """

    __slots__ = (
        "seq", "pid", "kind", "obj_name", "op", "args", "result", "tag",
        "payload",
    )

    def __init__(
        self,
        seq: int,
        pid: int,
        kind: str,
        obj_name: Optional[str] = None,
        op: Optional[str] = None,
        args: Tuple[Any, ...] = (),
        result: Any = None,
        tag: Optional[str] = None,
        payload: Any = None,
    ) -> None:
        self.seq = seq
        self.pid = pid
        self.kind = kind
        self.obj_name = obj_name
        self.op = op
        self.args = args
        self.result = result
        self.tag = tag
        self.payload = payload

    def _key(self) -> Tuple:
        return (
            self.seq, self.pid, self.kind, self.obj_name, self.op,
            self.args, self.result, self.tag, self.payload,
        )

    def __repr__(self) -> str:
        return (
            f"Event(seq={self.seq!r}, pid={self.pid!r}, kind={self.kind!r}, "
            f"obj_name={self.obj_name!r}, op={self.op!r}, args={self.args!r}, "
            f"result={self.result!r}, tag={self.tag!r}, "
            f"payload={self.payload!r})"
        )

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Event:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def is_step(self) -> bool:
        """True for applied shared-memory steps."""
        return self.kind == "step"

    def is_annotation(self) -> bool:
        """True for zero-cost trace markers."""
        return self.kind == "annotate"


@dataclass
class Trace:
    """A mutable, append-only execution trace.

    The trace mixes atomic steps and annotations; helpers select subsets.
    """

    events: list = field(default_factory=list)

    def append(self, event: Event) -> None:
        """Append one event (the runtime's only mutation point)."""
        self.events.append(event)

    def steps(self) -> list:
        """All atomic steps, in execution order."""
        return [e for e in self.events if e.kind == "step"]

    def annotations(self, tag: Optional[str] = None) -> list:
        """All annotations, optionally filtered by tag."""
        return [
            e
            for e in self.events
            if e.kind == "annotate" and (tag is None or e.tag == tag)
        ]

    def by_process(self, pid: int) -> list:
        """All events of one process, in order."""
        return [e for e in self.events if e.pid == pid]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
