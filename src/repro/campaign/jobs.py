"""Campaign job types: picklable descriptions of sharded experiments.

A job captures everything a worker process needs to run one chunk of a
campaign — protocol, task, parameters, and the full unit range — as a
frozen (hence picklable) dataclass.  The engine ships the job to workers
with ``(start, stop)`` chunk bounds; :meth:`run_range` executes the
chunk through the ordinary serial harness (:mod:`repro.core.sweep`,
:mod:`repro.analysis.fuzz`) and returns a partial report for merging.

Because workers call the *same* serial functions over sub-ranges, the
parallel path cannot drift from the serial one: the ``sharded`` column
of the differential matrix (tests/test_matrix.py) holds them
byte-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.analysis.explore import (
    ExplorationContext,
    ExplorationReport,
    effective_prefix_depth,
    explore_prefix_range,
    schedule_prefixes,
)
from repro.analysis.fuzz import (
    DEFAULT_MAX_SAVED_VIOLATIONS,
    FuzzReport,
    fuzz_protocol,
)
from repro.analysis.shrink import shrink_schedule
from repro.core.sweep import (
    SweepReport,
    _attach_sweep_certificate,
    sweep_protocol,
    sweep_simulation,
)
from repro.protocols.base import Protocol

#: One exploration slot per thread: ``(job, context, prefixes)`` for the
#: last :class:`ExploreJob` object the thread ran.  A context's intern
#: tables are not thread-safe, so threads never share one; a single slot
#: per thread (not one per job) bounds a long-lived thread's memory to
#: one context, however many jobs it runs.  The slot holds the job
#: itself, so the identity match can never hit a recycled ``id``.
_EXPLORE_SLOT = threading.local()


class _CertifiableJob:
    """Shared mixin: flip a job into certificate-emitting mode.

    ``certificates`` is a regular job field (it changes what workers
    compute, hence the job fingerprint); :meth:`with_certificates`
    is how :func:`~repro.campaign.engine.run_campaign` turns the flag
    on when the caller asks for ``verify_certificates=True``.
    """

    def with_certificates(self, certificates: bool = True):
        """A copy of this job with certificate emission toggled."""
        if getattr(self, "certificates", None) == certificates:
            return self
        return replace(self, certificates=certificates)


def _describe_seed_range(seeds: Tuple[int, ...], start: int, stop: int) -> str:
    """Human name for a seed sub-range, quoting the actual seed values."""
    values = seeds[start:stop]
    if not values:
        return "no seeds"
    if len(values) == 1:
        return f"seed {values[0]}"
    return f"seeds {values[0]}..{values[-1]} ({len(values)} seeds)"


@dataclass(frozen=True)
class SweepSimulationJob(_CertifiableJob):
    """A :func:`~repro.core.sweep.sweep_simulation` campaign over seeds."""

    protocol: Protocol
    k: int
    x: int
    inputs: Tuple[Any, ...]
    seeds: Tuple[int, ...]
    task: Any = None
    verify_correspondence: bool = False
    max_steps: int = 500_000
    run_kwargs: Dict[str, Any] = field(default_factory=dict)
    certificates: bool = False

    def total_units(self) -> int:
        """Number of schedulable units: one per seed."""
        return len(self.seeds)

    def empty_report(self) -> SweepReport:
        """The merge identity for this job's report type."""
        return SweepReport()

    def run_range(self, start: int, stop: int) -> SweepReport:
        """Execute seeds ``start..stop-1`` through the serial harness.

        Chunks never mint certificates themselves (the raw witness
        rides along as ``report.best_violation``); :meth:`finalize`
        mints once from the merged minimum, so a sharded sweep pays
        one canonicalization instead of one per chunk.
        """
        return sweep_simulation(
            self.protocol, k=self.k, x=self.x, inputs=list(self.inputs),
            seeds=list(self.seeds[start:stop]), task=self.task,
            verify_correspondence=self.verify_correspondence,
            max_steps=self.max_steps,
            **self.run_kwargs,
        )

    def describe_range(self, start: int, stop: int) -> str:
        """Name units ``start..stop-1`` for partial-result reports."""
        return _describe_seed_range(self.seeds, start, stop)

    def finalize(self, report: SweepReport) -> SweepReport:
        """Mint the merged minimum-seed witness certificate, if asked."""
        if self.certificates:
            _attach_sweep_certificate(
                report, report.best_violation, self.protocol,
                list(self.inputs), self.task, "simulation",
                self.max_steps, k=self.k, x=self.x,
            )
        return report


@dataclass(frozen=True)
class SweepProtocolJob(_CertifiableJob):
    """A :func:`~repro.core.sweep.sweep_protocol` campaign over seeds."""

    protocol: Protocol
    inputs: Tuple[Any, ...]
    seeds: Tuple[int, ...]
    task: Any = None
    max_steps: int = 100_000
    certificates: bool = False

    def total_units(self) -> int:
        """Number of schedulable units: one per seed."""
        return len(self.seeds)

    def empty_report(self) -> SweepReport:
        """The merge identity for this job's report type."""
        return SweepReport()

    def run_range(self, start: int, stop: int) -> SweepReport:
        """Execute seeds ``start..stop-1`` through the serial harness.

        Certificates are minted once in :meth:`finalize`, not per
        chunk; the chunk report carries the raw ``best_violation``
        witness instead.
        """
        return sweep_protocol(
            self.protocol, list(self.inputs),
            list(self.seeds[start:stop]), task=self.task,
            max_steps=self.max_steps,
        )

    def describe_range(self, start: int, stop: int) -> str:
        """Name units ``start..stop-1`` for partial-result reports."""
        return _describe_seed_range(self.seeds, start, stop)

    def finalize(self, report: SweepReport) -> SweepReport:
        """Mint the merged minimum-seed witness certificate, if asked."""
        if self.certificates:
            _attach_sweep_certificate(
                report, report.best_violation, self.protocol,
                list(self.inputs), self.task, "protocol",
                self.max_steps,
            )
        return report


@dataclass(frozen=True)
class FuzzJob(_CertifiableJob):
    """A :func:`~repro.analysis.fuzz.fuzz_protocol` campaign over runs.

    Workers fuzz their run range with shrinking disabled (shrinking
    mid-chunk would duplicate work and is not merge-stable); if
    ``shrink`` is requested, :meth:`finalize` shrinks the overall first
    violation once, in the parent — exactly what a serial
    ``fuzz_protocol`` call would have shrunk.
    """

    protocol: Protocol
    inputs: Tuple[Any, ...]
    task: Any
    runs: int = 200
    schedule_length: int = 60
    seed: int = 0
    shrink: bool = True
    max_saved_violations: int = DEFAULT_MAX_SAVED_VIOLATIONS
    certificates: bool = False

    def total_units(self) -> int:
        """Number of schedulable units: one per fuzz run."""
        return self.runs

    def empty_report(self) -> FuzzReport:
        """The merge identity, carrying this job's retention cap."""
        return FuzzReport(max_saved_violations=self.max_saved_violations)

    def run_range(self, start: int, stop: int) -> FuzzReport:
        """Fuzz runs ``start..stop-1`` (no shrinking inside workers)."""
        return fuzz_protocol(
            self.protocol, list(self.inputs), self.task,
            runs=stop - start, schedule_length=self.schedule_length,
            seed=self.seed, shrink=False, run_offset=start,
            max_saved_violations=self.max_saved_violations,
            certificates=self.certificates,
        )

    def describe_range(self, start: int, stop: int) -> str:
        """Name units ``start..stop-1`` for partial-result reports."""
        return f"fuzz runs {start}..{stop - 1} (seed {self.seed})"

    def finalize(self, report: FuzzReport) -> FuzzReport:
        """Shrink the merged report's first violation, if requested.

        When certificates are on, the merge fold dropped any per-chunk
        shrink certificates (the first violation can change across
        merges); re-derive the one for the final shrink here, so the
        campaign's certificate set matches a serial ``fuzz_protocol``
        call exactly.
        """
        if self.shrink and report.violations and report.minimized is None:
            report.minimized = shrink_schedule(
                self.protocol, list(self.inputs), self.task,
                report.first_violation_schedule,
            )
        if self.certificates and report.violations:
            from repro.certify.emit import fuzz_certificates

            report.certificates = fuzz_certificates(
                self.protocol, list(self.inputs), self.task, report
            )
        return report


@dataclass(frozen=True)
class ExploreJob(_CertifiableJob):
    """A sharded :func:`~repro.analysis.explore.explore_protocol` campaign.

    The schedulable units are the viable schedule prefixes of length
    ``prefix_depth`` (:func:`~repro.analysis.explore.schedule_prefixes`):
    each unit is the interleaving subtree below one prefix, explored with
    a fresh memo table and a per-unit budget derived from ``max_configs``
    over the whole decomposition.  Workers run disjoint prefix ranges
    through the same serial function
    (:func:`~repro.analysis.explore.explore_prefix_range`), so the merged
    :class:`~repro.analysis.explore.ExplorationReport` is identical to a
    serial ``explore_protocol`` call with the same ``prefix_depth``.

    Like ``explore_protocol``, the job explores with one
    :class:`~repro.analysis.explore.ExplorationContext` (and one prefix
    decomposition) per job object per executing thread, built on first
    use and reused by :meth:`total_units` and every chunk that thread
    runs, so a chunk starts with warm transition caches.  Each thread
    keeps only its most recent job's context, and none of it is part of
    the job: pickles, fingerprints and reports are unchanged.  A pooled
    worker unpickles a fresh job per chunk and so builds one per chunk.

    ``symmetry`` selects symmetry reduction exactly as on
    ``explore_protocol``; it is part of the job (and therefore of
    checkpoint fingerprints), and serial == sharded holds in both modes
    because each context is built from the same flag.
    """

    protocol: Protocol
    inputs: Tuple[Any, ...]
    task: Any
    max_configs: int = 200_000
    max_steps: Optional[int] = None
    stop_at_first_violation: bool = True
    prefix_depth: int = 2
    certificates: bool = False
    symmetry: bool = False

    def _exploration(
        self,
    ) -> Tuple[ExplorationContext, Tuple[Tuple[int, ...], ...]]:
        """This thread's context and canonical unit decomposition for
        this job object, built on the thread's first use."""
        slot = getattr(_EXPLORE_SLOT, "slot", None)
        if slot is not None and slot[0] is self:
            return slot[1], slot[2]
        # Release the previous job's caches before growing new ones, so
        # the thread's peak holds one context, not two.
        _EXPLORE_SLOT.slot = None
        depth = effective_prefix_depth(self.prefix_depth, self.max_steps)
        context = ExplorationContext(
            self.protocol, self.inputs, self.task, symmetry=self.symmetry
        )
        prefixes = schedule_prefixes(
            self.protocol, self.inputs, depth, context=context
        )
        _EXPLORE_SLOT.slot = (self, context, prefixes)
        return context, prefixes

    def total_units(self) -> int:
        """Number of schedulable units: one per schedule prefix."""
        return len(self._exploration()[1])

    def empty_report(self) -> ExplorationReport:
        """The merge identity for this job's report type."""
        return ExplorationReport()

    def run_range(self, start: int, stop: int) -> ExplorationReport:
        """Explore prefix subtrees ``start..stop-1`` serially and merge."""
        context, prefixes = self._exploration()
        return explore_prefix_range(
            self.protocol, list(self.inputs), self.task, prefixes,
            start, stop, max_configs=self.max_configs,
            max_steps=self.max_steps,
            stop_at_first_violation=self.stop_at_first_violation,
            context=context,
            certificates=self.certificates,
            symmetry=self.symmetry,
        )

    def describe_range(self, start: int, stop: int) -> str:
        """Name units ``start..stop-1`` for partial-result reports."""
        return (
            f"schedule-prefix subtrees {start}..{stop - 1} "
            f"(prefix depth {self.prefix_depth})"
        )

    def finalize(self, report: ExplorationReport) -> ExplorationReport:
        """Post-merge hook; exploration needs no finalization."""
        return report
