"""The baseline comparator: diff a benchmark run against a baseline.

:func:`compare_runs` matches current ``BENCH_*.json`` artifacts against
a committed baseline directory and classifies each experiment:

* ``incomparable`` — the two artifacts did different work: they differ
  in ``mode``, in ``units``, or in a metric other than the
  :data:`TIMING_DERIVED` ones (see :func:`work_difference`), so their
  times say nothing about each other;
* ``ok`` — current median within the allowance;
* ``faster`` — current median beat the baseline by the threshold
  (informational);
* ``regression`` — current median exceeded the allowance;
* ``missing`` — the baseline has an experiment the current run lacks
  (a silently-dropped benchmark must fail the gate);
* ``new`` — the current run has an experiment the baseline lacks
  (informational: commit a refreshed baseline to start tracking it).

The allowance is noise-aware: a regression requires

    current_median > baseline_median * threshold + iqr_factor * IQR

where IQR is the larger of the two runs' inter-quartile ranges, so a
jittery experiment needs a genuinely larger slowdown to trip the gate
than a rock-steady one.  Work is gated exactly and wall time loosely:
``incomparable``, ``regression`` and ``missing`` fail the gate.
Schema-version mismatches surface as
:class:`~repro.errors.BenchSchemaError` from artifact loading — they
abort the comparison rather than producing a verdict.

``cpu_count`` is not compared: campaign-backed payloads pin one
in-process worker, and their ``engine_mode``/``engine_workers`` metrics
already record the execution path.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.bench.schema import BenchArtifact, load_artifact_dir
from repro.errors import ValidationError

#: Default regression threshold: fail when the current median is more
#: than 1.5x the baseline median (plus the IQR allowance).
DEFAULT_THRESHOLD = 1.5

#: Default IQR multiplier in the noise allowance.
DEFAULT_IQR_FACTOR = 2.0

#: Metrics computed from wall time, so they differ on every run; every
#: other metric records the work done or the execution path taken.
TIMING_DERIVED = frozenset({"engine_utilization", "engine_runs_per_second"})


def work_difference(
    baseline: BenchArtifact, current: BenchArtifact
) -> Optional[str]:
    """The first field on which two artifacts measured different work.

    Compares ``mode``, then ``units``, then every metric outside
    :data:`TIMING_DERIVED` in name order (a metric only one side has
    differs too), and returns e.g. ``"units 23385 != 23386"``; ``None``
    when the two did the same work.
    """
    fields = [("mode", baseline.mode, current.mode),
              ("units", baseline.units, current.units)]
    names = (baseline.metrics.keys() | current.metrics.keys()) - TIMING_DERIVED
    for name in sorted(names):
        fields.append((name, baseline.metrics.get(name, "<absent>"),
                       current.metrics.get(name, "<absent>")))
    for name, before, after in fields:
        if before != after:
            return f"{name} {before} != {after}"
    return None


@dataclass(frozen=True)
class Comparison:
    """Verdict for one experiment: baseline vs current medians."""

    artifact_name: str           # "E13_campaign"
    #: incomparable | ok | faster | regression | missing | new
    status: str
    baseline_median: Optional[float]
    current_median: Optional[float]
    allowance_seconds: Optional[float]
    ratio: Optional[float]
    #: The :func:`work_difference` of an ``incomparable`` verdict.
    difference: Optional[str] = None

    @property
    def failed(self) -> bool:
        """True when this verdict must fail the gate."""
        return self.status in ("incomparable", "regression", "missing")

    def summary(self) -> str:
        """One aligned line for the comparison report."""
        if self.status == "incomparable":
            detail = f"different work: {self.difference}"
        elif self.status == "missing":
            detail = "baseline experiment absent from the current run"
        elif self.status == "new":
            detail = "no baseline yet (commit one to start tracking)"
        else:
            detail = (
                f"{self.baseline_median:.3f}s -> {self.current_median:.3f}s "
                f"({self.ratio:.2f}x, allowed <= "
                f"{self.allowance_seconds:.3f}s)"
            )
        return f"{self.status:>12}  {self.artifact_name:<24} {detail}"


@dataclass(frozen=True)
class CompareReport:
    """All per-experiment verdicts of one comparator invocation."""

    comparisons: List[Comparison]
    threshold: float
    iqr_factor: float

    @property
    def failures(self) -> List[Comparison]:
        """The verdicts that fail the gate."""
        return [c for c in self.comparisons if c.failed]

    @property
    def ok(self) -> bool:
        """True when the gate passes."""
        return not self.failures

    def summary(self) -> str:
        """Multi-line report: one verdict per line plus a tail line."""
        lines = [c.summary() for c in self.comparisons]
        verdict = (
            "PASS: no regressions"
            if self.ok
            else f"FAIL: {len(self.failures)} gate failure(s)"
        )
        lines.append(
            f"{verdict} (threshold {self.threshold:.2f}x, "
            f"iqr factor {self.iqr_factor:.1f})"
        )
        return "\n".join(lines)


def compare_artifacts(
    baseline: BenchArtifact,
    current: BenchArtifact,
    threshold: float = DEFAULT_THRESHOLD,
    iqr_factor: float = DEFAULT_IQR_FACTOR,
    slowdown: float = 1.0,
) -> Comparison:
    """Compare one experiment's current artifact against its baseline.

    Artifacts that did different work (:func:`work_difference`) are
    ``incomparable`` before any time is looked at.  ``slowdown``
    multiplies the current median before the check — an injected
    handicap used by CI to prove the gate actually trips (a comparator
    that passes everything is worse than none).
    """
    current_median = current.median_seconds * slowdown
    difference = work_difference(baseline, current)
    if difference is not None:
        return Comparison(
            artifact_name=baseline.artifact_name, status="incomparable",
            baseline_median=baseline.median_seconds,
            current_median=current_median, allowance_seconds=None,
            ratio=None, difference=difference,
        )
    noise = iqr_factor * max(baseline.iqr_seconds, current.iqr_seconds)
    allowance = baseline.median_seconds * threshold + noise
    ratio = (
        current_median / baseline.median_seconds
        if baseline.median_seconds > 0
        else float("inf")
    )
    if current_median > allowance:
        status = "regression"
    elif current_median * threshold < baseline.median_seconds:
        status = "faster"
    else:
        status = "ok"
    return Comparison(
        artifact_name=baseline.artifact_name,
        status=status,
        baseline_median=baseline.median_seconds,
        current_median=current_median,
        allowance_seconds=allowance,
        ratio=ratio,
    )


def compare_runs(
    baseline_dir: Union[str, pathlib.Path],
    current_dir: Union[str, pathlib.Path],
    threshold: float = DEFAULT_THRESHOLD,
    iqr_factor: float = DEFAULT_IQR_FACTOR,
    slowdown: float = 1.0,
) -> CompareReport:
    """Compare every baseline experiment against the current run.

    Raises :class:`~repro.errors.ValidationError` when either directory
    holds no artifacts (an empty gate would vacuously pass), and
    :class:`~repro.errors.BenchSchemaError` when any artifact is
    malformed or carries an unsupported schema version.
    """
    if threshold <= 0:
        raise ValidationError(f"threshold must be > 0, got {threshold}")
    if iqr_factor < 0:
        raise ValidationError(f"iqr-factor must be >= 0, got {iqr_factor}")
    if slowdown <= 0:
        raise ValidationError(f"slowdown must be > 0, got {slowdown}")
    baselines = load_artifact_dir(baseline_dir)
    currents = load_artifact_dir(current_dir)
    if not baselines:
        raise ValidationError(
            f"no BENCH_*.json artifacts in baseline dir {baseline_dir}"
        )
    if not currents:
        raise ValidationError(
            f"no BENCH_*.json artifacts in current dir {current_dir}"
        )
    comparisons: List[Comparison] = []
    for name in sorted(baselines, key=_artifact_sort_key):
        baseline = baselines[name]
        current = currents.get(name)
        if current is None:
            comparisons.append(Comparison(
                artifact_name=name, status="missing",
                baseline_median=baseline.median_seconds,
                current_median=None, allowance_seconds=None, ratio=None,
            ))
            continue
        comparisons.append(compare_artifacts(
            baseline, current, threshold=threshold,
            iqr_factor=iqr_factor, slowdown=slowdown,
        ))
    for name in sorted(set(currents) - set(baselines),
                       key=_artifact_sort_key):
        comparisons.append(Comparison(
            artifact_name=name, status="new", baseline_median=None,
            current_median=currents[name].median_seconds,
            allowance_seconds=None, ratio=None,
        ))
    return CompareReport(
        comparisons=comparisons, threshold=threshold, iqr_factor=iqr_factor,
    )


def _artifact_sort_key(name: str):
    """Sort ``E<num>_<name>`` stems numerically, odd names last."""
    eid = name.split("_", 1)[0]
    if eid.startswith("E") and eid[1:].isdigit():
        return (0, int(eid[1:]), name)
    return (1, 0, name)

