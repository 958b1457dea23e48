"""The scenario registry: every campaign target, for every front end.

``repro explore``, ``repro campaign``, the job service's ``build_job``
and ``repro certify emit`` take their targets from here and construct
no protocol themselves, so they accept the same names and build the
same jobs — hence ``==``-identical reports and the same checkpoint
fingerprints.  :data:`SCENARIOS` holds the exploration targets (the
fuzz campaign runs :data:`FUZZ_SCENARIO`), :data:`SWEEPS` the
protocol-safety seed sweeps, and :func:`falsify_target` the Theorem 3
falsifier.  Each entry builds a fresh :class:`Scenario` per call, so no
protocol object is shared between jobs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro.protocols import (
    AnonymousSweepConsensus,
    CASConsensus,
    KSetAgreementTask,
    LargeRegisterEmulation,
    MinSeen,
    RacingConsensus,
    RegularRegisterTask,
    SwapConsensus,
    TASConsensus,
    TruncatedProtocol,
)


class Scenario(NamedTuple):
    """One campaign target and the verdict the checker must reach."""

    protocol: Any
    inputs: Tuple[int, ...]
    task: Any
    expect_safe: bool


#: Scenario name -> builder of a fresh :class:`Scenario`.
SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "truncated": lambda: Scenario(
        TruncatedProtocol(RacingConsensus(3), 1), (0, 1, 2),
        KSetAgreementTask(1), False,
    ),
    "racing": lambda: Scenario(
        RacingConsensus(2), (0, 1), KSetAgreementTask(1), True,
    ),
    "minseen": lambda: Scenario(
        MinSeen(2), (0, 1), KSetAgreementTask(2), True,
    ),
    # Genuinely unsafe at m < n: the checker finds (and the runtime
    # replays) a two-value decision, the covering-attack frontier the
    # anonymous module's docstring describes.
    "anonymous": lambda: Scenario(
        AnonymousSweepConsensus(3, m=2), (0, 1, 1),
        KSetAgreementTask(1), False,
    ),
    # Base-object scenarios: a single swap cell solves consensus for
    # n=2 but not n=3 (the third process can adopt a chained-out
    # value); one test-and-set bit plus posted proposals likewise break
    # at n=3; compare-and-swap has infinite consensus number, so its
    # scenario is expected safe.
    "swap": lambda: Scenario(
        SwapConsensus(3), (0, 1, 2), KSetAgreementTask(1), False,
    ),
    "cas": lambda: Scenario(
        CASConsensus(3), (0, 1, 2), KSetAgreementTask(1), True,
    ),
    "tas": lambda: Scenario(
        TASConsensus(3), (0, 1, 2), KSetAgreementTask(1), False,
    ),
    # The deliberately broken clear-then-set sweep order: some
    # reader/writer interleaving sees no set bit at all.
    "large-register": lambda: Scenario(
        LargeRegisterEmulation(3, (2,), safe=False), (0, 0),
        RegularRegisterTask(3, (2,)), False,
    ),
}

#: ``repro explore --base-object`` -> the :data:`SCENARIOS` entry built
#: on that memory primitive (``register``: the paper's read/write form).
BASE_OBJECT_SCENARIOS: Dict[str, str] = {
    "register": "racing",
    "swap": "swap",
    "tas": "tas",
    "cas": "cas",
    "large-register": "large-register",
}

#: The schedule-fuzz target, which a fuzz campaign must catch violating.
FUZZ_SCENARIO = "truncated"

#: Sweep name -> builder of a fresh :class:`Scenario`.  Each is the safe
#: instance of its family (swap and test-and-set solve consensus for
#: two processes), expected clean under every schedule a sweep draws.
SWEEPS: Dict[str, Callable[[], Scenario]] = {
    "racing": lambda: Scenario(
        RacingConsensus(3), (0, 1, 1), KSetAgreementTask(1), True,
    ),
    "minseen": lambda: Scenario(
        MinSeen(3, rounds=2), (4, 1, 9), KSetAgreementTask(3), True,
    ),
    "swap": lambda: Scenario(
        SwapConsensus(2), (0, 1), KSetAgreementTask(1), True,
    ),
    "tas": lambda: Scenario(
        TASConsensus(2), (0, 1), KSetAgreementTask(1), True,
    ),
    "cas": lambda: Scenario(
        CASConsensus(3), (0, 1, 2), KSetAgreementTask(1), True,
    ),
}

#: ``repro campaign --base-object`` -> the :data:`SWEEPS` built on that
#: memory primitive.
BASE_OBJECT_SWEEPS: Dict[str, Tuple[str, ...]] = {
    "register": ("racing", "minseen"),
    "swap": ("swap",),
    "tas": ("tas",),
    "cas": ("cas",),
}

#: ``(k, x)`` of the falsifier's revisionist simulation: consensus.
FALSIFY_KX = (1, 1)


def falsify_target() -> Scenario:
    """The Theorem 3 falsifier: two-process consensus on one register.

    The bound for ``n = 2`` at :data:`FALSIFY_KX` is two registers, so
    every seed of the simulated sweep must violate agreement.
    """
    return Scenario(
        TruncatedProtocol(RacingConsensus(2), 1), (0, 1),
        KSetAgreementTask(1), False,
    )
