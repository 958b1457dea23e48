"""The paper's contribution: the revisionist simulation and its bounds.

* :mod:`repro.core.bounds` — the Theorem 3 / Appendix D space-bound
  formulas and the comparison tables of experiment E2.
* :mod:`repro.core.simulation` — the Section 4 / Appendix C simulation:
  k+1 simulators (x direct, k+1-x covering) run an x-obstruction-free
  k-set-agreement protocol through an augmented snapshot; covering
  simulators build ever-wider Block-Updates, revising their processes'
  pasts from atomic Block-Update views.
* :mod:`repro.core.invariant` — the Lemma 28 correspondence checker: it
  independently reconstructs, from the real execution's linearization, the
  simulated protocol execution (with hidden-step insertions) and verifies
  every Scan result, Block-Update view, and decision against it.
* :mod:`repro.core.approx` — the Appendix D variant: two covering
  simulators over an ε-approximate-agreement protocol, with the step
  accounting that contradicts the Hoest–Shavit bound.
"""

from repro.core.bounds import (
    approx_space_lower_bound,
    bound_table,
    consensus_space_bound,
    kset_space_lower_bound,
    kset_space_upper_bound,
    max_simulatable_registers,
    simulated_process_count,
)
from repro.core.simulation import (
    SimulationOutcome,
    SimulationSetup,
    run_simulation,
)
from repro.core.approx import run_approx_simulation
from repro.core.bg import (
    BGOutcome,
    BGSimulation,
    SafeAgreement,
    run_bg_simulation,
)
from repro.core.invariant import check_correspondence

__all__ = [
    "kset_space_lower_bound",
    "kset_space_upper_bound",
    "consensus_space_bound",
    "approx_space_lower_bound",
    "simulated_process_count",
    "max_simulatable_registers",
    "bound_table",
    "SimulationSetup",
    "SimulationOutcome",
    "run_simulation",
    "check_correspondence",
    "run_approx_simulation",
    "SafeAgreement",
    "BGSimulation",
    "BGOutcome",
    "run_bg_simulation",
]
