"""Gadget protocols shared by more than one test module.

Each is a small hand-written :class:`~repro.protocols.base.Protocol`
built to hit one edge case of the explorer, the step rule or the
executors; the certify suite registers certificate descriptors for some
of them (``tests/certify/gadgets.py``).  :data:`EXPLORE_CORPUS` is the
instance list the packed-vs-reference and symmetry suites share.
"""

from repro.protocols import (
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    TruncatedProtocol,
)
from repro.protocols.base import DECIDE, RMW, SCAN, UPDATE, Protocol


class DiamondTrap(Protocol):
    """Regression gadget for the depth-memoization soundness bug.

    The configuration after p0's first update is reachable both by the
    one-step schedule ``[0]`` and by the three-step diamond ``[1, 0, 1]``
    (p1's idle scan/update round-trips through component 1 without
    changing it).  Under ``max_steps=3``, DFS reaches that configuration
    first at depth 3 — already at the horizon, so its subtree (where p1
    observes "go", arms, and decides 999 against p0's input 0) is cut
    off.  The later depth-1 arrival via ``[0]`` must re-expand it to find
    the violation; a memo on ``(states, memory)`` alone prunes it and
    reports safe.
    """

    n, m, name = 2, 2, "diamond-trap"

    def initial_state(self, index, value):
        return ("p0", 0, value) if index == 0 else ("p1", "idle-scan")

    def poised(self, state):
        if state[0] == "p0":
            steps = [(UPDATE, (0, "go")), (SCAN, None), (DECIDE, state[2])]
            return steps[min(state[1], 2)]
        phase = state[1]
        if phase == "idle-scan":
            return (SCAN, None)
        if phase == "idle-upd":
            return (UPDATE, (1, None))
        if phase == "armed":
            return (UPDATE, (1, "bomb"))
        return (DECIDE, 999)

    def advance(self, state, observation=None):
        if state[0] == "p0":
            return ("p0", state[1] + 1, state[2])
        phase = state[1]
        if phase == "idle-scan":
            if observation[0] == "go":
                return ("p1", "armed")
            return ("p1", "idle-upd")
        if phase == "idle-upd":
            return ("p1", "idle-scan")
        return ("p1", "fire")


class LastConfigBad(Protocol):
    """Regression gadget for the budget off-by-one: the single successor
    configuration (where the lone process decides a non-input) is the
    ``max_configs``-th one counted, and must still be safety-checked."""

    n, m, name = 1, 1, "last-config-bad"

    def initial_state(self, index, value):
        return "start"

    def poised(self, state):
        if state == "start":
            return (UPDATE, (0, "x"))
        return (DECIDE, 999)

    def advance(self, state, observation=None):
        return "done"


class SwapThenWrite(Protocol):
    """Gadget mixing an RMW step with updates and scans.

    Each process swaps its input through shared component 0 (so the
    second swapper's RMW lands on an already-written component — the
    cache-sensitive case for the explorer's RMW successor table), posts
    what it got back to its own component, scans, and decides what it
    sees in component 0.
    """

    def __init__(self, n: int = 2) -> None:
        self.n = n
        self.m = 1 + n
        self.name = f"swap-then-write(n={n})"

    def initial_state(self, index, value):
        self.check_index(index)
        return ("swap", index, value)

    def poised(self, state):
        phase, index, value = state
        if phase == "swap":
            return (RMW, (0, "swap", (value,)))
        if phase == "write":
            return (UPDATE, (1 + index, value))
        if phase == "scan":
            return (SCAN, None)
        return (DECIDE, value)

    def advance(self, state, observation=None):
        phase, index, value = state
        if phase == "swap":
            taken = value if observation is None else observation
            return ("write", index, taken)
        if phase == "write":
            return ("scan", index, value)
        return ("done", index, observation[0])


class FetchAndAdd(Protocol):
    """Poised for a base-object kind no stepper knows.

    The payload has the shape of an update's, so a stepper that treats
    every unknown kind as an update misreads it silently.
    """

    def __init__(self):
        self.n = 2
        self.m = 1
        self.name = "fetch-and-add-gadget"

    def initial_state(self, index, value):
        self.check_index(index)
        return ("add", value)

    def poised(self, state):
        phase, value = state
        if phase == "add":
            return ("fetch_and_add", (0, 1))
        return (DECIDE, value)

    def advance(self, state, observation=None):
        return ("done", state[1])


#: ``(protocol factory, inputs, task, bounds)`` — the explorer corpus
#: that the packed-vs-reference and symmetry suites share; the bounds
#: exercise the horizon, the configuration budget and the unbounded
#: cases.
EXPLORE_CORPUS = [
    (lambda: TruncatedProtocol(RacingConsensus(3), 1), [0, 1, 2],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=20)),
    (lambda: RacingConsensus(2), [0, 1],
     KSetAgreementTask(1), dict(max_configs=50_000, max_steps=14)),
    (lambda: MinSeen(2), [0, 1],
     KSetAgreementTask(2), dict(max_configs=100_000, max_steps=None)),
    (lambda: DiamondTrap(), [0, 1],
     KSetAgreementTask(1), dict(max_configs=200_000, max_steps=3)),
    (lambda: DiamondTrap(), [0, 1],
     KSetAgreementTask(1), dict(max_configs=200_000, max_steps=2)),
    (lambda: LastConfigBad(), [0],
     KSetAgreementTask(1), dict(max_configs=2, max_steps=None)),
]
