"""Named exploration scenarios: one table for every front end.

``repro explore --scenario NAME`` and the job service's
``{"experiment": "explore", "scenario": NAME}`` both build their
exploration target from :data:`SCENARIOS`, so they accept the same
names and build the same job — hence ``==``-identical reports and the
same checkpoint fingerprint.  Each entry builds a fresh
:class:`Scenario` per call, so no protocol object is shared between
jobs.
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
    """One exploration target and the verdict the checker must reach."""

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
