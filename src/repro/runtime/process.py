"""Process wrapper over generator-based protocol bodies.

A process in the model is a deterministic sequential program whose only
interaction with the world is through atomic steps on shared objects.  Here a
process *body* is a Python generator function: it receives the
:class:`Process` handle, yields :class:`~repro.runtime.events.Invoke`
requests (one per atomic step) or :class:`~repro.runtime.events.Annotate`
markers (free), and terminates by returning (its return value, if any, is
recorded as the process output).

The wrapper tracks lifecycle: READY (can be scheduled), DONE (returned),
CRASHED (explicitly crashed by the scheduler, modelling a faulty process).
Only :meth:`repro.runtime.system.System.step` resumes a body.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

READY = "ready"
DONE = "done"
CRASHED = "crashed"


class Process:
    """One sequential process.

    Attributes:
        pid: unique non-negative identifier.
        name: human-readable label for traces.
        output: the value returned by the body once DONE, else ``None``.
        steps_taken: number of atomic steps this process has performed.
    """

    def __init__(
        self,
        pid: int,
        body: Callable[["Process"], Generator],
        name: Optional[str] = None,
    ):
        self.pid = pid
        self.name = name if name is not None else f"p{pid}"
        self.output: Any = None
        self.steps_taken = 0
        self.status = READY
        self._generator = body(self)
        self._pending: Any = None  # next Invoke awaiting the system

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, name={self.name!r}, status={self.status})"

    @property
    def is_active(self) -> bool:
        """True while the process can still be scheduled."""
        return self.status == READY

    def crash(self) -> None:
        """Mark the process crashed; it will never take another step."""
        if self.status == READY:
            self.status = CRASHED
            self._generator.close()
