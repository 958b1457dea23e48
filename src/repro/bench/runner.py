"""The benchmark runner: measure experiments, write ``BENCH_*.json``.

:func:`run_experiments` executes each selected experiment payload
``warmup`` times untimed, then ``repeats`` times under
``time.perf_counter``, folds the samples into median/IQR/throughput, and
writes one schema-versioned artifact per experiment
(:mod:`repro.bench.schema`).  In full mode it then builds the final
repeat's EXPERIMENTS.md tables, untimed: the samples cover exactly the
work the artifact's ``units`` count.  Per-experiment timing telemetry is
reported in the same one-line style as
:class:`~repro.campaign.telemetry.CampaignTelemetry.summary`, followed
by those tables.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.bench.experiments import (
    Experiment,
    PayloadResult,
    Table,
    resolve,
)
from repro.bench.schema import (
    BenchArtifact,
    EnvironmentFingerprint,
    write_artifact,
)
from repro.errors import ValidationError


@dataclass(frozen=True)
class BenchTelemetry:
    """Timing telemetry for one measured experiment."""

    experiment: str
    name: str
    units: int
    samples_seconds: Sequence[float]
    median_seconds: float
    iqr_seconds: float
    warmup: int
    mode: str

    @property
    def units_per_second(self) -> float:
        """Throughput at the median sample."""
        if self.median_seconds <= 0:
            return 0.0
        return self.units / self.median_seconds

    def summary(self) -> str:
        """One line in the :class:`CampaignTelemetry` house style."""
        return (
            f"{self.experiment} {self.name}: {self.units} units in "
            f"{self.median_seconds:.3f}s median "
            f"(iqr {self.iqr_seconds:.3f}s, "
            f"{self.units_per_second:,.1f} units/sec) — "
            f"{len(self.samples_seconds)} repeat"
            f"{'s' if len(self.samples_seconds) != 1 else ''} + "
            f"{self.warmup} warmup [{self.mode}]"
        )


@dataclass(frozen=True)
class RunReport:
    """What one ``repro bench run`` produced: artifacts and their paths."""

    artifacts: List[BenchArtifact]
    paths: List[pathlib.Path]
    telemetry: List[BenchTelemetry]

    def summary(self) -> str:
        """Multi-line human summary: one telemetry line per experiment."""
        return "\n".join(t.summary() for t in self.telemetry)


def measure_experiment(
    experiment: Experiment,
    quick: bool,
    repeats: int,
    warmup: int,
    environment: Optional[EnvironmentFingerprint] = None,
) -> BenchArtifact:
    """Measure one experiment and return its (unwritten) artifact.

    The payload runs ``warmup + repeats`` times; only the last
    ``repeats`` executions are timed.  The payload's work units and
    metrics are taken from the final repeat (payloads are deterministic
    at a given scale, so any repeat would do).  In full mode the final
    repeat's tables are then built, untimed, so their shape claims are
    checked before an artifact is returned.
    """
    return _measure(experiment, quick, repeats, warmup, environment)[0]


def _measure(
    experiment: Experiment,
    quick: bool,
    repeats: int,
    warmup: int,
    environment: Optional[EnvironmentFingerprint],
) -> Tuple[BenchArtifact, List[Table]]:
    """:func:`measure_experiment`, also returning the final repeat's tables."""
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValidationError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        experiment.run(quick)
    samples: List[float] = []
    result: Optional[PayloadResult] = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = experiment.run(quick)
        samples.append(time.perf_counter() - start)
    assert result is not None
    tables = result.tables() if result.tables is not None else []
    return BenchArtifact.from_samples(
        experiment=experiment.eid,
        name=experiment.name,
        title=experiment.title,
        mode="quick" if quick else "full",
        units=result.units,
        warmup=warmup,
        samples_seconds=samples,
        metrics=result.metrics,
        environment=environment,
    ), tables


def run_experiments(
    selectors: Optional[List[str]] = None,
    quick: bool = False,
    repeats: int = 3,
    warmup: int = 1,
    out_dir: Union[str, pathlib.Path] = ".",
    experiments: Optional[Sequence[Experiment]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> RunReport:
    """Measure experiments and write one ``BENCH_*.json`` each.

    ``selectors`` picks experiments from the registry (``None`` = all);
    tests can instead inject an explicit ``experiments`` sequence.
    ``progress`` (e.g. ``print``) receives one telemetry line per
    finished experiment, then each of its tables (full mode only).
    """
    chosen = list(experiments) if experiments is not None else resolve(
        selectors
    )
    environment = EnvironmentFingerprint.capture()
    artifacts: List[BenchArtifact] = []
    paths: List[pathlib.Path] = []
    telemetry: List[BenchTelemetry] = []
    for experiment in chosen:
        artifact, tables = _measure(
            experiment, quick, repeats, warmup, environment
        )
        path = write_artifact(artifact, out_dir)
        line = BenchTelemetry(
            experiment=artifact.experiment,
            name=artifact.name,
            units=artifact.units,
            samples_seconds=artifact.samples_seconds,
            median_seconds=artifact.median_seconds,
            iqr_seconds=artifact.iqr_seconds,
            warmup=artifact.warmup,
            mode=artifact.mode,
        )
        if progress is not None:
            progress(f"{line.summary()} -> {path}")
            for table in tables:
                progress(f"\n{table.render()}")
        artifacts.append(artifact)
        paths.append(path)
        telemetry.append(line)
    return RunReport(artifacts=artifacts, paths=paths, telemetry=telemetry)
