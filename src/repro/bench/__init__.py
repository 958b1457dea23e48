"""The benchmark harness: measured experiments as first-class artifacts.

The experiments of EXPERIMENTS.md (E1–E17) back every empirical claim
in this reproduction.  This package is their one harness:

* :mod:`repro.bench.experiments` — the registry: one function per
  experiment holding its workload, its quick/full parameters, its
  shape assertions and (full mode) its EXPERIMENTS.md tables;
* :mod:`repro.bench.runner` — ``repro bench run``: warmup/repeat
  measurement, median/IQR/throughput, environment fingerprint, one
  schema-versioned ``BENCH_<name>.json`` per experiment, and the
  tables, built untimed after the repeats, printed after each
  experiment's telemetry line;
* :mod:`repro.bench.schema` — the artifact format and its validation;
* :mod:`repro.bench.compare` — ``repro bench compare``: the noise-aware
  baseline regression gate CI runs (see docs/BENCHMARKS.md).

Campaign-backed experiments (E4, E13–E17) execute through
:mod:`repro.campaign` on one in-process worker, so their artifacts
record the engine's own telemetry (mode, workers, utilization)
alongside the timing.
"""

from repro.bench.compare import (
    DEFAULT_IQR_FACTOR,
    DEFAULT_THRESHOLD,
    Comparison,
    CompareReport,
    compare_artifacts,
    compare_runs,
)
from repro.bench.experiments import (
    Experiment,
    PayloadResult,
    Table,
    discover,
    resolve,
)
from repro.bench.runner import (
    BenchTelemetry,
    RunReport,
    measure_experiment,
    run_experiments,
)
from repro.bench.schema import (
    ARTIFACT_PREFIX,
    SCHEMA_VERSION,
    BenchArtifact,
    EnvironmentFingerprint,
    load_artifact,
    load_artifact_dir,
    median_iqr,
    write_artifact,
)

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_PREFIX",
    "BenchArtifact",
    "EnvironmentFingerprint",
    "load_artifact",
    "load_artifact_dir",
    "median_iqr",
    "write_artifact",
    "Experiment",
    "PayloadResult",
    "Table",
    "discover",
    "resolve",
    "BenchTelemetry",
    "RunReport",
    "measure_experiment",
    "run_experiments",
    "Comparison",
    "CompareReport",
    "compare_artifacts",
    "compare_runs",
    "DEFAULT_THRESHOLD",
    "DEFAULT_IQR_FACTOR",
]
