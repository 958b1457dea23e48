"""The Appendix D simulation: approximate agreement in O(f(m)²) steps.

Two simulators q_0, q_1 each own m processes of an ε-approximate-agreement
protocol Π and both run the *covering* simulator algorithm (there are no
direct simulators here).  Lemma 33 shows each decides within a number of
shared-memory steps that depends only on m — not on ε.  Theorem 2
(Hoest–Shavit) says wait-free 2-process ε-approximate agreement needs
log₃(1/ε) steps, so if Π used m ≤ ⌊n/2⌋ registers the simulation would beat
that bound for small ε: the Appendix D space lower bound ⌊n/2⌋+1.

The reduction reuses Section 4's construction whole — the augmented
snapshot, the covering simulator body, the harness of
:func:`~repro.core.simulation.run_simulation` and its
:class:`~repro.core.simulation.SimulationOutcome`.  What it adds is the
setup: k = 1 with both ranks covering (x = 0, which
:func:`~repro.core.simulation.build_setup` rejects for k-set agreement)
and a larger solo budget.

Experiment E7 runs this harness over the real
:class:`~repro.protocols.approximate.AveragingApprox` protocol for varying
ε and m and measures the simulators' step counts
(:attr:`~repro.core.simulation.SimulationOutcome.max_steps_taken`),
exhibiting the ε-independence the contradiction rests on.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.augmented.object import AugmentedSnapshot
from repro.core.simulation import (
    SimulationOutcome,
    SimulationSetup,
    _run_simulators,
)
from repro.errors import ValidationError
from repro.protocols.base import Protocol
from repro.runtime.scheduler import Scheduler


def run_approx_simulation(
    protocol: Protocol,
    inputs: Sequence[Any],
    scheduler: Scheduler,
    max_steps: int = 500_000,
    solo_budget: int = 200_000,
) -> SimulationOutcome:
    """Run the two-covering-simulator reduction of Appendix D.

    ``protocol`` must be specified for at least ``2 * protocol.m``
    processes; each simulator owns m of them and inherits one of the two
    ``inputs``.
    """
    if len(inputs) != 2:
        raise ValidationError("the Appendix D simulation takes 2 inputs")
    m = protocol.m
    if protocol.n < 2 * m:
        raise ValidationError(
            f"{protocol.name} is specified for n={protocol.n} processes; "
            f"the Appendix D simulation needs 2m = {2 * m}"
        )
    setup = SimulationSetup(
        protocol=protocol,
        k=1,
        x=0,  # both simulators cover; no direct simulators
        inputs=tuple(inputs),
        covering_ranks=(0, 1),
        direct_ranks=(),
        process_map={0: tuple(range(m)), 1: tuple(range(m, 2 * m))},
    )
    aug = AugmentedSnapshot("M", components=m, pids=[0, 1])
    return _run_simulators(setup, aug, scheduler, max_steps, solo_budget)
