"""Schema-versioned benchmark artifacts (``BENCH_<name>.json``).

One artifact records one experiment's measurement: timing statistics
(median / inter-quartile range over the repeats), throughput, the
experiment's scalar metrics, and an environment fingerprint (python,
platform, cpu count, git sha) so a number can always be traced back to
the machine that produced it.  Artifacts are plain JSON with an explicit
``schema_version``; :func:`load_artifact` refuses to parse versions it
does not understand, which is what lets the comparator fail loudly on a
baseline written by an incompatible harness instead of mis-reading it.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.errors import BenchSchemaError

#: Current artifact schema version.  Bump on any incompatible change to
#: the JSON layout; the comparator treats a version mismatch as an error.
SCHEMA_VERSION = 1

#: Artifact filename prefix: artifacts are ``BENCH_<name>.json``.
ARTIFACT_PREFIX = "BENCH_"


@dataclass(frozen=True)
class EnvironmentFingerprint:
    """Where a measurement came from: interpreter, host, and revision."""

    python: str
    implementation: str
    platform: str
    cpu_count: int
    git_sha: str

    @classmethod
    def capture(cls, repo_root: Optional[pathlib.Path] = None
                ) -> "EnvironmentFingerprint":
        """Fingerprint the current interpreter, host, and git revision."""
        return cls(
            python=platform.python_version(),
            implementation=platform.python_implementation(),
            platform=platform.platform(),
            cpu_count=os.cpu_count() or 1,
            git_sha=_git_sha(repo_root),
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, for embedding in artifact JSON."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EnvironmentFingerprint":
        """Rebuild a fingerprint from its :meth:`to_dict` form."""
        return cls(
            python=str(data["python"]),
            implementation=str(data["implementation"]),
            platform=str(data["platform"]),
            cpu_count=int(data["cpu_count"]),
            git_sha=str(data["git_sha"]),
        )


def _git_sha(repo_root: Optional[pathlib.Path] = None) -> str:
    """Short git sha of the working tree, or ``"unknown"`` outside git."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def median_iqr(samples: Sequence[float]) -> Tuple[float, float]:
    """Median and inter-quartile range of a non-empty sample list.

    With fewer than two samples the IQR is 0.0 (there is no spread to
    measure); with two or three the quartiles come from
    :func:`statistics.quantiles` with inclusive edges, which is defined
    down to n=2.
    """
    if not samples:
        raise BenchSchemaError("median_iqr() needs at least one sample")
    med = statistics.median(samples)
    if len(samples) < 2:
        return med, 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return med, q3 - q1


@dataclass(frozen=True)
class BenchArtifact:
    """One experiment's measurement, as written to ``BENCH_<name>.json``."""

    experiment: str            # e.g. "E13"
    name: str                  # e.g. "campaign"
    title: str                 # one-line description
    mode: str                  # "quick" | "full"
    units: int                 # work units one payload run performs
    repeats: int
    warmup: int
    samples_seconds: Tuple[float, ...]
    median_seconds: float
    iqr_seconds: float
    units_per_second: float
    metrics: Dict[str, Any] = field(default_factory=dict)
    environment: EnvironmentFingerprint = field(
        default_factory=EnvironmentFingerprint.capture
    )
    created_unix: float = field(default_factory=time.time)
    schema_version: int = SCHEMA_VERSION

    @property
    def artifact_name(self) -> str:
        """Canonical ``<eid>_<name>`` stem, e.g. ``E13_campaign``."""
        return f"{self.experiment}_{self.name}"

    def filename(self) -> str:
        """The ``BENCH_<name>.json`` filename for this artifact."""
        return f"{ARTIFACT_PREFIX}{self.artifact_name}.json"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict, with the schema version first."""
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "name": self.name,
            "title": self.title,
            "mode": self.mode,
            "environment": self.environment.to_dict(),
            "created_unix": self.created_unix,
            "timing": {
                "units": self.units,
                "repeats": self.repeats,
                "warmup": self.warmup,
                "samples_seconds": list(self.samples_seconds),
                "median_seconds": self.median_seconds,
                "iqr_seconds": self.iqr_seconds,
                "units_per_second": self.units_per_second,
            },
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchArtifact":
        """Validate and rebuild an artifact from parsed JSON.

        Raises :class:`~repro.errors.BenchSchemaError` on a missing or
        unsupported ``schema_version``, missing keys, or ill-typed
        timing fields — the comparator turns these into hard failures.
        """
        if not isinstance(data, dict):
            raise BenchSchemaError(
                f"artifact must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise BenchSchemaError(
                f"unsupported artifact schema_version {version!r} "
                f"(this harness reads version {SCHEMA_VERSION})"
            )
        try:
            timing = data["timing"]
            samples = tuple(float(s) for s in timing["samples_seconds"])
            artifact = cls(
                experiment=str(data["experiment"]),
                name=str(data["name"]),
                title=str(data["title"]),
                mode=str(data["mode"]),
                units=int(timing["units"]),
                repeats=int(timing["repeats"]),
                warmup=int(timing["warmup"]),
                samples_seconds=samples,
                median_seconds=float(timing["median_seconds"]),
                iqr_seconds=float(timing["iqr_seconds"]),
                units_per_second=float(timing["units_per_second"]),
                metrics=dict(data.get("metrics", {})),
                environment=EnvironmentFingerprint.from_dict(
                    data["environment"]
                ),
                created_unix=float(data.get("created_unix", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise BenchSchemaError(
                f"malformed benchmark artifact: {error!r}"
            ) from error
        if not artifact.samples_seconds:
            raise BenchSchemaError(
                "malformed benchmark artifact: empty samples_seconds"
            )
        return artifact

    @classmethod
    def from_samples(
        cls,
        experiment: str,
        name: str,
        title: str,
        mode: str,
        units: int,
        warmup: int,
        samples_seconds: Sequence[float],
        metrics: Optional[Dict[str, Any]] = None,
        environment: Optional[EnvironmentFingerprint] = None,
    ) -> "BenchArtifact":
        """Build an artifact from raw per-repeat wall-time samples."""
        med, iqr = median_iqr(samples_seconds)
        return cls(
            experiment=experiment,
            name=name,
            title=title,
            mode=mode,
            units=units,
            repeats=len(samples_seconds),
            warmup=warmup,
            samples_seconds=tuple(samples_seconds),
            median_seconds=med,
            iqr_seconds=iqr,
            units_per_second=(units / med) if med > 0 else 0.0,
            metrics=dict(metrics or {}),
            environment=environment or EnvironmentFingerprint.capture(),
        )


def write_artifact(
    artifact: BenchArtifact, out_dir: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / artifact.filename()
    path.write_text(json.dumps(artifact.to_dict(), indent=2) + "\n")
    return path


def load_artifact(path: Union[str, pathlib.Path]) -> BenchArtifact:
    """Parse and schema-validate one ``BENCH_*.json`` file."""
    text = pathlib.Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise BenchSchemaError(f"{path}: not valid JSON: {error}") from error
    try:
        return BenchArtifact.from_dict(data)
    except BenchSchemaError as error:
        raise BenchSchemaError(f"{path}: {error}") from error


def load_artifact_dir(
    directory: Union[str, pathlib.Path]
) -> Dict[str, BenchArtifact]:
    """Load every ``BENCH_*.json`` in a directory, keyed by artifact name.

    Raises :class:`~repro.errors.BenchSchemaError` if the directory does
    not exist, any artifact in it fails schema validation (a corrupt
    baseline must fail the gate, not silently shrink it), or two files
    hold the same experiment (whichever sorted last would silently win).
    """
    root = pathlib.Path(directory)
    if not root.is_dir():
        raise BenchSchemaError(f"no such artifact directory: {root}")
    artifacts: Dict[str, BenchArtifact] = {}
    paths: Dict[str, pathlib.Path] = {}
    for path in sorted(root.glob(f"{ARTIFACT_PREFIX}*.json")):
        artifact = load_artifact(path)
        name = artifact.artifact_name
        if name in paths:
            raise BenchSchemaError(
                f"{paths[name]} and {path} both hold experiment {name}"
            )
        artifacts[name], paths[name] = artifact, path
    return artifacts
