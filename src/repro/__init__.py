"""Revisionist Simulations — executable reproduction of Ellen, Gelashvili &
Zhu, "Revisionist Simulations: A New Approach to Proving Space Lower Bounds"
(PODC 2018).

The package is layered exactly like the paper:

* :mod:`repro.runtime` / :mod:`repro.memory` — the asynchronous shared-memory
  model of Section 2 (processes, schedulers, registers, atomic snapshots, and
  the [AAD+93] snapshot construction from registers).
* :mod:`repro.timestamps` — lexicographic vector timestamps.
* :mod:`repro.augmented` — the augmented snapshot object of Section 3 /
  Figure 1, plus the Appendix B linearization analysis.
* :mod:`repro.protocols` — the protocols the bounds are about: consensus,
  x-obstruction-free k-set agreement, ε-approximate agreement.
* :mod:`repro.core` — the paper's contribution: the revisionist simulation
  (Section 4 / Appendix C), its Appendix D approximate-agreement variant, and
  the Theorem 3 bound formulas.
* :mod:`repro.solo` — the Appendix A conversion from nondeterministic solo
  termination to obstruction-freedom.
* :mod:`repro.analysis` — linearizability checking, FLP bivalence adversary,
  Burns–Lynch covering machinery.
"""

from repro.errors import (
    BenchSchemaError,
    DivergenceError,
    ModelError,
    ProtocolError,
    ReproError,
    SchedulerError,
    SimulationError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ModelError",
    "ProtocolError",
    "SchedulerError",
    "SimulationError",
    "DivergenceError",
    "ValidationError",
    "BenchSchemaError",
    "__version__",
]
