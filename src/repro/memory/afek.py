"""Wait-free atomic snapshot implementations from registers [AAD+93].

The paper assumes snapshots "without loss of generality" because Afek,
Attiya, Dolev, Gafni, Merritt, and Shavit showed an m-component multi-writer
atomic snapshot is implementable from m registers, wait-free and
linearizably.  This module supplies that justification as running code:

* :class:`AfekSnapshot` — the classic single-writer construction: one
  register per process holding ``(value, seq, embedded_view)``; a scanner
  either sees two identical collects (a *direct* scan, linearized between
  them) or sees some writer move twice and *borrows* that writer's embedded
  view (which was taken inside the scanner's interval).
* :class:`AfekMWSnapshot` — the multi-writer variant over m registers, with
  changes attributed to ``(writer, seq)`` tags; a scanner that observes the
  same writer install two new values borrows the second value's embedded
  view.

Both are *composed* objects: their methods are generators yielding one
primitive register step at a time, so schedulers interleave them freely and
the linearizability checker can validate them against the
:class:`~repro.memory.snapshot.AtomicSnapshot` specification.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Sequence, Tuple

from repro.errors import ModelError
from repro.memory.registers import Register
from repro.runtime.events import Invoke, OpMarkers


class _DoubleCollectSnapshot(OpMarkers):
    """The scan frame both constructions share: markers around the
    construction's own double-collect loop, ``_scan_inner``."""

    def scan(self, pid: int) -> Generator[Invoke, Any, Tuple[Any, ...]]:
        """Wait-free linearizable scan; one value per component, in order."""
        op_id = self._next_op_id()
        yield self._marker("begin", "scan", op_id)
        view = yield from self._scan_inner(pid)
        yield self._marker("end", "scan", op_id, result=view)
        return view


class AfekSnapshot(_DoubleCollectSnapshot):
    """Single-writer atomic snapshot from one register per writer.

    Register ``i`` holds ``(seq, value, view)`` where ``view`` is the result
    of the scan embedded in the writer's update.  ``scan`` and ``update`` are
    generator methods: drive them with ``yield from`` inside a process body.
    """

    def __init__(
        self, name: str, writers: Sequence[int], initial: Any = None
    ) -> None:
        self.name = name
        self.writers = list(writers)
        if len(set(self.writers)) != len(self.writers):
            raise ModelError("duplicate writer pids")
        self.initial = initial
        self.registers: Dict[int, Register] = {
            pid: Register(f"{name}.R[{pid}]", initial=(0, initial, None), writer=pid)
            for pid in self.writers
        }
        self._local_seq: Dict[int, int] = {pid: 0 for pid in self.writers}

    def register_count(self) -> int:
        """One register per writer."""
        return len(self.registers)

    # ------------------------------------------------------------------
    def _collect(self) -> Generator[Invoke, Any, Dict[int, Tuple]]:
        """Read every register once, in pid order."""
        collected: Dict[int, Tuple] = {}
        for pid in self.writers:
            collected[pid] = yield Invoke(self.registers[pid], "read")
        return collected

    def _scan_inner(self, pid: int) -> Generator[Invoke, Any, Tuple[Any, ...]]:
        moved: Dict[int, int] = {w: 0 for w in self.writers}
        previous = yield from self._collect()
        while True:
            current = yield from self._collect()
            if all(previous[w][0] == current[w][0] for w in self.writers):
                # Two identical collects: a direct scan, linearizable between
                # the end of the first and the start of the second.
                return tuple(current[w][1] for w in self.writers)
            for w in self.writers:
                if previous[w][0] != current[w][0]:
                    moved[w] += 1
                    if moved[w] >= 2 and current[w][2] is not None:
                        # w completed an entire update during our scan; its
                        # embedded view was taken inside our interval.
                        return current[w][2]
            previous = current

    def update(
        self, pid: int, value: Any
    ) -> Generator[Invoke, Any, None]:
        """Wait-free linearizable update of the caller's own component."""
        if pid not in self.registers:
            raise ModelError(f"pid {pid} is not a writer of {self.name}")
        op_id = self._next_op_id()
        slot = self.writers.index(pid)
        yield self._marker("begin", "update", op_id, args=(slot, value))
        view = yield from self._scan_inner(pid)
        self._local_seq[pid] += 1
        yield Invoke(
            self.registers[pid], "write", ((self._local_seq[pid], value, view),)
        )
        yield self._marker("end", "update", op_id, result=None)
        return None


class AfekMWSnapshot(_DoubleCollectSnapshot):
    """Multi-writer m-component atomic snapshot from m registers.

    Register ``j`` holds ``(tag, value, view)`` where ``tag = (writer, seq)``
    uniquely identifies the installing update and ``view`` is the embedded
    scan taken by that update.  A scan terminates either with two identical
    collects (direct) or by borrowing from a writer observed to install two
    new values (its second embedded view lies inside the scan interval).
    Termination is guaranteed because each differing collect attributes at
    least one change to a writer, and with ``n`` writers some writer repeats
    after at most ``n + 1`` changes.
    """

    def __init__(
        self, name: str, components: int, initial: Any = None
    ) -> None:
        if components < 1:
            raise ModelError("snapshot needs at least one component")
        self.name = name
        self.m = components
        self.initial = initial
        self.registers: List[Register] = [
            Register(f"{name}.R[{j}]", initial=((None, 0), initial, None))
            for j in range(components)
        ]
        self._local_seq: Dict[int, int] = {}

    def register_count(self) -> int:
        """Exactly m registers, as [AAD+93] promises."""
        return self.m

    # ------------------------------------------------------------------
    def _collect(self) -> Generator[Invoke, Any, List[Tuple]]:
        collected: List[Tuple] = []
        for reg in self.registers:
            cell = yield Invoke(reg, "read")
            collected.append(cell)
        return collected

    def _scan_inner(self, pid: int) -> Generator[Invoke, Any, Tuple[Any, ...]]:
        seen_writers: Dict[Any, int] = {}
        previous = yield from self._collect()
        while True:
            current = yield from self._collect()
            if all(previous[j][0] == current[j][0] for j in range(self.m)):
                return tuple(current[j][1] for j in range(self.m))
            for j in range(self.m):
                if previous[j][0] != current[j][0]:
                    writer = current[j][0][0]
                    seen_writers[writer] = seen_writers.get(writer, 0) + 1
                    if seen_writers[writer] >= 2 and current[j][2] is not None:
                        return current[j][2]
            previous = current

    def update(
        self, pid: int, component: int, value: Any
    ) -> Generator[Invoke, Any, None]:
        """Wait-free linearizable update of any component."""
        if not 0 <= component < self.m:
            raise ModelError(
                f"component {component} out of range for {self.name}"
            )
        op_id = self._next_op_id()
        yield self._marker("begin", "update", op_id, args=(component, value))
        view = yield from self._scan_inner(pid)
        seq = self._local_seq.get(pid, 0) + 1
        self._local_seq[pid] = seq
        yield Invoke(
            self.registers[component],
            "write",
            (((pid, seq), value, view),),
        )
        yield self._marker("end", "update", op_id, result=None)
        return None
