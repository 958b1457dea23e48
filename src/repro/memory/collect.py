"""The collect object — the paper's analogy for Block-Update.

Section 3 justifies the augmented snapshot's non-linearizable Block-Update
by analogy: "a collect operation [Bea86, ALS94] is not linearizable, but
the individual reads that comprise it are."  This module supplies that
object so the analogy is executable: a :class:`Collect` over one
single-writer register per process, whose

* ``store`` is a single atomic write, and
* ``collect`` is a plain read of every register, one step at a time, with
  **no** double-collect retry loop — so it admits the classic *new-old
  inversion*: a collect can observe a new value in one component and, in a
  later-read component, miss an older write that precedes it.

Tests demonstrate the inversion concretely and show the linearizability
checker rejecting collect-as-snapshot histories while accepting the
component reads individually — exactly the status Figure 1's Block-Update
has with respect to its Updates.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Sequence, Tuple

from repro.errors import ModelError
from repro.memory.registers import Register
from repro.runtime.events import Invoke, OpMarkers


class Collect(OpMarkers):
    """A store/collect object over one single-writer register per process."""

    def __init__(self, name: str, writers: Sequence[int], initial: Any = None):
        self.name = name
        self.writers = list(writers)
        if len(set(self.writers)) != len(self.writers):
            raise ModelError("duplicate writer pids")
        self.registers: Dict[int, Register] = {
            pid: Register(f"{name}.R[{pid}]", initial=initial, writer=pid)
            for pid in self.writers
        }

    def register_count(self) -> int:
        """One register per writer."""
        return len(self.registers)

    def store(self, pid: int, value: Any) -> Generator[Any, Any, None]:
        """Atomically write the caller's own register (one step)."""
        if pid not in self.registers:
            raise ModelError(f"pid {pid} is not a writer of {self.name}")
        slot = self.writers.index(pid)
        op_id = self._next_op_id()
        yield self._marker("begin", "update", op_id, args=(slot, value))
        yield Invoke(self.registers[pid], "write", (value,))
        yield self._marker("end", "update", op_id, result=None)
        return None

    def collect(self, pid: int) -> Generator[Any, Any, Tuple[Any, ...]]:
        """Read every register once, in writer order.  NOT atomic."""
        op_id = self._next_op_id()
        yield self._marker("begin", "scan", op_id)
        values: List[Any] = []
        for writer in self.writers:
            values.append((yield Invoke(self.registers[writer], "read")))
        view = tuple(values)
        yield self._marker("end", "scan", op_id, result=view)
        return view
