"""Structured experiment sweeps: many seeds, one report.

The experiments run the same harness across schedule seeds and aggregate
what happened.  This module centralizes that pattern so the experiment
registry (:mod:`repro.bench.experiments`), the CLI, and user code
produce consistent, comparable reports:

* :func:`sweep_simulation` — the revisionist simulation across seeds, with
  task checking and optional Lemma 28 verification per run;
* :func:`sweep_protocol` — plain protocol executions across seeds;
* :class:`SweepReport` — outcome tallies plus extremes (slowest run, first
  violating seed) that the write-ups quote.

Reports form a commutative monoid under :meth:`SweepReport.merge` with
:class:`SweepReport()` as the identity, which is what lets the parallel
campaign engine (:mod:`repro.campaign`) shard a seed range across workers
and fold the partial reports back together in any order without changing
the result.  The determinism contract is spelled out in docs/CAMPAIGNS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.invariant import check_correspondence
from repro.core.simulation import run_simulation
from repro.protocols.base import Protocol, run_protocol
from repro.runtime.scheduler import RandomScheduler


@dataclass
class SweepReport:
    """Aggregated outcomes of a seed sweep.

    ``first_violating_seed`` is the *minimum* violating seed (not the
    first encountered), so that merging partial reports from a sharded
    sweep is order-independent.
    """

    runs: int = 0
    completed: int = 0
    all_decided: int = 0
    safety_violations: int = 0
    divergences: int = 0
    correspondence_failures: int = 0
    first_violating_seed: Optional[int] = None
    max_steps_observed: int = 0
    decisions_histogram: Dict[Any, int] = field(default_factory=dict)
    #: Witness certificate (:mod:`repro.certify`) for the first
    #: (minimum-seed) violating run; excluded from equality and repr so
    #: carrying it never changes report comparisons.
    certificates: List[Any] = field(
        default_factory=list, compare=False, repr=False
    )
    #: Raw witness for the minimum-seed violating run: ``(seed,
    #: decisions)``.  Carried (never compared) so a sharded sweep's
    #: coordinator can mint the certificate once at finalize time
    #: instead of once per chunk.
    best_violation: Optional[Tuple[int, Dict[int, Any]]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def clean(self) -> bool:
        """No safety violations and no correspondence failures."""
        return (
            self.safety_violations == 0
            and self.correspondence_failures == 0
        )

    def record_decisions(self, decisions: Dict[int, Any]) -> None:
        """Fold one run's decided values into the histogram."""
        for value in decisions.values():
            self.decisions_histogram[value] = (
                self.decisions_histogram.get(value, 0) + 1
            )

    def record_violation(self, seed: int) -> None:
        """Count a safety violation, keeping the minimum violating seed."""
        self.safety_violations += 1
        if (
            self.first_violating_seed is None
            or seed < self.first_violating_seed
        ):
            self.first_violating_seed = seed

    def merge(self, other: "SweepReport") -> "SweepReport":
        """Combine two partial reports into a new one (pure).

        The operation is associative and commutative, and
        ``SweepReport()`` is its identity: tallies sum, histograms fold,
        ``max_steps_observed`` takes the max, and
        ``first_violating_seed`` takes the minimum of the non-``None``
        sides — so a sharded sweep merges to the same report no matter
        how the shards are grouped or ordered.
        """
        seeds = [
            s for s in (self.first_violating_seed, other.first_violating_seed)
            if s is not None
        ]
        histogram: Dict[Any, int] = {}
        for part in (self, other):
            for value, count in part.decisions_histogram.items():
                histogram[value] = histogram.get(value, 0) + count
        merged = SweepReport(
            runs=self.runs + other.runs,
            completed=self.completed + other.completed,
            all_decided=self.all_decided + other.all_decided,
            safety_violations=self.safety_violations + other.safety_violations,
            divergences=self.divergences + other.divergences,
            correspondence_failures=(
                self.correspondence_failures + other.correspondence_failures
            ),
            first_violating_seed=min(seeds) if seeds else None,
            max_steps_observed=max(
                self.max_steps_observed, other.max_steps_observed
            ),
            decisions_histogram=histogram,
        )
        if self.certificates or other.certificates:
            # Keep exactly the certificate(s) of the merged minimum
            # violating seed, so sharded sweeps carry the same
            # certificate set as serial ones.
            from repro.certify.certificates import sorted_certificates

            merged.certificates = sorted_certificates([
                certificate
                for certificate in self.certificates + other.certificates
                if certificate.payload.get("seed")
                == merged.first_violating_seed
            ])
        for part in (self, other):
            if part.best_violation is not None and (
                merged.best_violation is None
                or part.best_violation[0] < merged.best_violation[0]
            ):
                merged.best_violation = part.best_violation
        return merged

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"{self.runs} runs: {self.all_decided} fully decided, "
            f"{self.safety_violations} safety violations, "
            f"{self.divergences} divergences, "
            f"{self.correspondence_failures} correspondence failures"
        )


def _attach_sweep_certificate(
    report: SweepReport,
    best: Optional[Tuple[int, Dict[int, Any]]],
    protocol: Protocol,
    inputs: Sequence[Any],
    task,
    run: str,
    max_steps: int,
    k: Optional[int] = None,
    x: Optional[int] = None,
) -> None:
    """Certify the minimum-seed violating run, if any.

    A protocol or decision value without a canonical certificate form
    just leaves the report uncertified — sweeps aggregate arbitrary
    user protocols and must not fail because one is unregistered.
    """
    if best is None:
        return
    from repro.certify.emit import sweep_run_certificate
    from repro.errors import CertificateError

    seed, decisions = best
    try:
        report.certificates = [
            sweep_run_certificate(
                protocol, inputs, task, seed, decisions, run=run,
                max_steps=max_steps, k=k, x=x,
            )
        ]
    except CertificateError:
        pass


def sweep_simulation(
    protocol: Protocol,
    k: int,
    x: int,
    inputs: Sequence[Any],
    seeds: Sequence[int],
    task=None,
    verify_correspondence: bool = False,
    max_steps: int = 500_000,
    certificates: bool = False,
    **run_kwargs,
) -> SweepReport:
    """Run the revisionist simulation across seeds and aggregate outcomes.

    ``task`` (optional) is checked against each run's decisions;
    ``verify_correspondence`` additionally runs the Lemma 28 checker per
    run (slower).  Extra keyword arguments go to
    :func:`~repro.core.simulation.run_simulation`.

    Per-run traces are discarded (only the aggregate report survives), so
    the augmented object's begin/end markers default to off here — unless
    ``verify_correspondence`` is set, whose Lemma 28 checker linearizes
    them.  Pass ``aug_annotations=True`` to force them back on.

    With ``certificates=True`` the report carries a witness certificate
    (:mod:`repro.certify`) for the minimum violating seed's run —
    the same extreme the report itself quotes — when the protocol and
    task have registered certificate descriptors.
    """
    run_kwargs.setdefault("aug_annotations", verify_correspondence)
    report = SweepReport()
    best: Optional[Tuple[int, Dict[int, Any]]] = None
    for seed in seeds:
        outcome = run_simulation(
            protocol, k=k, x=x, inputs=list(inputs),
            scheduler=RandomScheduler(seed), max_steps=max_steps,
            **run_kwargs,
        )
        report.runs += 1
        report.completed += outcome.result.completed
        report.all_decided += outcome.all_decided
        report.max_steps_observed = max(
            report.max_steps_observed, outcome.result.steps
        )
        report.record_decisions(outcome.decisions)
        if outcome.result.diverged:
            report.divergences += 1
        if task is not None and outcome.task_violations(task):
            report.record_violation(seed)
            if best is None or seed < best[0]:
                best = (seed, dict(outcome.decisions))
        if verify_correspondence and not check_correspondence(outcome).ok:
            report.correspondence_failures += 1
    report.best_violation = best
    if certificates:
        _attach_sweep_certificate(
            report, best, protocol, inputs, task, "simulation",
            max_steps, k=k, x=x,
        )
    return report


def sweep_protocol(
    protocol: Protocol,
    inputs: Sequence[Any],
    seeds: Sequence[int],
    task=None,
    max_steps: int = 100_000,
    certificates: bool = False,
) -> SweepReport:
    """Run a protocol instance across seeds and aggregate outcomes.

    With ``certificates=True`` the report carries a witness certificate
    (:mod:`repro.certify`) for the minimum violating seed's run, when
    the protocol and task have registered certificate descriptors.
    """
    report = SweepReport()
    best: Optional[Tuple[int, Dict[int, Any]]] = None
    for seed in seeds:
        _system, result = run_protocol(
            protocol, list(inputs), RandomScheduler(seed),
            max_steps=max_steps,
        )
        report.runs += 1
        report.completed += result.completed
        report.all_decided += len(result.outputs) == len(inputs)
        report.max_steps_observed = max(
            report.max_steps_observed, result.steps
        )
        report.record_decisions(result.outputs)
        if result.diverged:
            report.divergences += 1
        if task is not None and task.check(list(inputs), result.outputs):
            report.record_violation(seed)
            if best is None or seed < best[0]:
                best = (seed, dict(result.outputs))
    report.best_violation = best
    if certificates:
        _attach_sweep_certificate(
            report, best, protocol, inputs, task, "protocol", max_steps
        )
    return report
