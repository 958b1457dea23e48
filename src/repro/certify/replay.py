"""The verifier's own replay machinery — independent of the searchers.

Certificate verification must not trust the code that produced the
claim, so this module re-implements, from the
:class:`~repro.protocols.base.Protocol` contract alone, the few
execution semantics a verifier needs:

* schedule replay (:func:`replay_configuration`,
  :func:`replay_decisions`) with the library-wide replay convention —
  a scheduled step by an already-decided process is a no-op, and
  ``None`` decision payloads are "undecided" to a task checker;
* sequential object specs (:class:`SequentialSnapshot`,
  :class:`SequentialRegister`, :class:`SequentialSwap`,
  :class:`SequentialTestAndSet`, :class:`SequentialCompareAndSwap`) for
  re-checking linearization orders;
* its own read-modify-write semantics (:func:`verifier_rmw`) for
  replaying RMW poised steps — re-derived from the operations'
  definitions, not imported from the substrate the claims are about.

It deliberately imports nothing from :mod:`repro.analysis`: the module
graph of :mod:`repro.certify.verify` is the trust boundary that makes
campaign workers untrusted, and a test enforces it.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from repro.errors import CertificateError
from repro.protocols.base import DECIDE, RMW, SCAN, UPDATE, Protocol


def verifier_rmw(
    op: str, current: Any, args: Sequence[Any]
) -> Tuple[Any, Any]:
    """The verifier's own read-modify-write semantics.

    Returns ``(new_value, result)``; every operation returns the old
    value.  This mirrors :func:`repro.memory.rmw.apply_rmw` by
    *definition* (swap installs its argument; test-and-set installs 1;
    compare-and-swap installs ``new`` iff the old value equals
    ``expected``) rather than by import, keeping the replay independent
    of the substrate under test.
    """
    if op == "swap":
        (value,) = args
        return value, current
    if op == "test_and_set":
        if args:
            raise CertificateError("test_and_set takes no arguments")
        return 1, current
    if op == "compare_and_swap":
        expected, new = args
        if current == expected:
            return new, current
        return current, current
    raise CertificateError(f"unknown read-modify-write operation {op!r}")


def initial_configuration(
    protocol: Protocol, inputs: Sequence[Any]
) -> Tuple[Tuple, Tuple]:
    """``(states, memory)`` where every process holds its input and M
    is fresh — the configuration all certified schedules start from."""
    if len(inputs) > protocol.n:
        raise CertificateError(
            f"{protocol.name}: {len(inputs)} inputs for n={protocol.n}"
        )
    states = tuple(
        protocol.initial_state(index, value)
        for index, value in enumerate(inputs)
    )
    return states, (None,) * protocol.m


def step_process(
    protocol: Protocol, states: Tuple, memory: Tuple, index: int
) -> Tuple[Tuple, Tuple]:
    """One replay step of process ``index`` (pure; decided = no-op)."""
    if not 0 <= index < len(states):
        raise CertificateError(
            f"schedule step {index} out of range for {len(states)} "
            f"processes"
        )
    state = states[index]
    kind, payload = protocol.poised(state)
    if kind == DECIDE:
        return states, memory
    if kind == SCAN:
        new_state = protocol.advance(state, memory)
        new_memory = memory
    elif kind == UPDATE:
        component, value = payload
        new_state = protocol.advance(state, None)
        new_memory = (
            memory[:component] + (value,) + memory[component + 1:]
        )
    elif kind == RMW:
        component, op, args = payload
        if not 0 <= component < len(memory):
            raise CertificateError(
                f"{protocol.name}: RMW component {component} out of range"
            )
        new_value, result = verifier_rmw(op, memory[component], args)
        new_state = protocol.advance(state, result)
        new_memory = (
            memory[:component] + (new_value,) + memory[component + 1:]
        )
    else:
        raise CertificateError(
            f"{protocol.name}: unknown poised kind {kind!r}"
        )
    return states[:index] + (new_state,) + states[index + 1:], new_memory


def replay_configuration(
    protocol: Protocol, inputs: Sequence[Any], schedule: Sequence[int]
) -> Tuple[Tuple, Tuple]:
    """The ``(states, memory)`` a schedule reaches from the start."""
    states, memory = initial_configuration(protocol, inputs)
    for index in schedule:
        states, memory = step_process(protocol, states, memory, index)
    return states, memory


def decisions_of(protocol: Protocol, states: Tuple) -> Dict[int, Any]:
    """index -> decided value for decided processes; ``None`` payloads
    are dropped (they read as "undecided" to every task checker)."""
    decisions: Dict[int, Any] = {}
    for index, state in enumerate(states):
        kind, payload = protocol.poised(state)
        if kind == DECIDE and payload is not None:
            decisions[index] = payload
    return decisions


def replay_decisions(
    protocol: Protocol, inputs: Sequence[Any], schedule: Sequence[int]
) -> Dict[int, Any]:
    """Replay a schedule and report the decisions it produces."""
    states, _memory = replay_configuration(protocol, inputs, schedule)
    return decisions_of(protocol, states)


class SequentialSnapshot:
    """Independent sequential spec of an m-component atomic snapshot.

    Shape-compatible with the analysis-side spec (``.m``, ``.initial``,
    ``initial_state``, ``apply``) but owned by the verifier.
    """

    kind = "snapshot"

    def __init__(self, components: int, initial: Any = None) -> None:
        self.m = components
        self.initial = initial

    def initial_state(self) -> Tuple:
        """All components at the initial value."""
        return (self.initial,) * self.m

    def apply(
        self, state: Tuple, op: str, args: Sequence[Any]
    ) -> Tuple[Tuple, Any]:
        """Apply ``scan`` or ``update`` to a state; returns
        ``(new_state, result)``."""
        if op == "scan":
            return state, state
        if op == "update":
            component, value = args
            if not 0 <= component < self.m:
                raise CertificateError(
                    f"snapshot update to component {component} out of "
                    f"range (m={self.m})"
                )
            new_state = (
                state[:component] + (value,) + state[component + 1:]
            )
            return new_state, None
        raise CertificateError(f"snapshot spec has no operation {op!r}")


class SequentialRegister:
    """Independent sequential spec of a single read/write register."""

    kind = "register"

    def __init__(self, initial: Any = None) -> None:
        self.initial = initial

    def initial_state(self) -> Any:
        """The register's initial value."""
        return self.initial

    def apply(
        self, state: Any, op: str, args: Sequence[Any]
    ) -> Tuple[Any, Any]:
        """Apply ``read`` or ``write`` to a state; returns
        ``(new_state, result)``."""
        if op == "read":
            return state, state
        if op == "write":
            (value,) = args
            return value, value
        raise CertificateError(f"register spec has no operation {op!r}")


class SequentialSwap:
    """Independent sequential spec of a swap object."""

    kind = "swap"

    def __init__(self, initial: Any = None) -> None:
        self.initial = initial

    def initial_state(self) -> Any:
        """The cell's initial value."""
        return self.initial

    def apply(
        self, state: Any, op: str, args: Sequence[Any]
    ) -> Tuple[Any, Any]:
        """Apply ``read`` or ``swap`` to a state; returns
        ``(new_state, result)``."""
        if op == "read":
            return state, state
        if op == "swap":
            (value,) = args
            return value, state
        raise CertificateError(f"swap spec has no operation {op!r}")


class SequentialTestAndSet:
    """Independent sequential spec of a (resettable) test-and-set bit."""

    kind = "test-and-set"

    def __init__(self, initial: Any = 0) -> None:
        self.initial = initial

    def initial_state(self) -> Any:
        """The bit's initial value."""
        return self.initial

    def apply(
        self, state: Any, op: str, args: Sequence[Any]
    ) -> Tuple[Any, Any]:
        """Apply ``read``, ``test_and_set`` or ``reset`` to a state;
        returns ``(new_state, result)``."""
        if op == "read":
            return state, state
        if op == "test_and_set":
            return 1, state
        if op == "reset":
            return self.initial, self.initial
        raise CertificateError(
            f"test-and-set spec has no operation {op!r}"
        )


class SequentialCompareAndSwap:
    """Independent sequential spec of a compare-and-swap object."""

    kind = "compare-and-swap"

    def __init__(self, initial: Any = None) -> None:
        self.initial = initial

    def initial_state(self) -> Any:
        """The cell's initial value."""
        return self.initial

    def apply(
        self, state: Any, op: str, args: Sequence[Any]
    ) -> Tuple[Any, Any]:
        """Apply ``read`` or ``compare_and_swap`` to a state; returns
        ``(new_state, result)``."""
        if op == "read":
            return state, state
        if op == "compare_and_swap":
            expected, new = args
            if state == expected:
                return new, state
            return state, state
        raise CertificateError(f"CAS spec has no operation {op!r}")
