"""Validated job submissions: JSON in, campaign jobs out.

A :class:`JobSpec` is the service's unit of work — the same
experiment/seeds/fuzz-runs/explore parameters the ``repro campaign``
and ``repro explore`` CLIs take, as a JSON object::

    {"experiment": "falsify",  "seeds": 50}
    {"experiment": "protocol", "protocol": "racing", "seeds": 50}
    {"experiment": "fuzz",     "runs": 200, "schedule_length": 40}
    {"experiment": "explore",  "scenario": "truncated", "symmetry": false}

plus the engine options every experiment accepts: ``chunk_size``,
``verify_certificates``, and (explore only) ``symmetry``.
:func:`build_job` turns a validated spec into the exact same frozen
campaign job the CLI would build, so a service job's merged report is
``==``-identical to the batch run of the same parameters — and the
spec JSON is what the job store persists, so a restarted server
rebuilds byte-identical jobs (and hence matching checkpoint
fingerprints) from disk.

Validation is strict: unknown experiments, unknown keys, and
out-of-range sizes all raise :class:`JobSpecError`, which the HTTP
layer maps to 400.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.protocols.scenarios import (
    FALSIFY_KX,
    FUZZ_SCENARIO,
    SCENARIOS,
    SWEEPS,
    falsify_target,
)

#: Experiments the service accepts; each mirrors a CLI code path.
EXPERIMENTS = ("falsify", "protocol", "fuzz", "explore")

#: Named protocols for ``experiment=protocol`` sweeps.
SWEEP_PROTOCOLS = tuple(SWEEPS)

#: Exploration scenarios: ``repro explore --scenario``'s table.
EXPLORE_SCENARIOS = tuple(SCENARIOS)

#: Upper bounds keeping one tenant's job from monopolizing the service.
MAX_SEEDS = 100_000
MAX_RUNS = 100_000
MAX_CONFIGS = 5_000_000

#: Name field -> the names it accepts.
_NAMES = {
    "experiment": EXPERIMENTS,
    "protocol": SWEEP_PROTOCOLS,
    "scenario": EXPLORE_SCENARIOS,
}

#: Integer field -> inclusive ``(low, high)`` range; a field without a
#: high bound may also be null.
_RANGES = {
    "seeds": (1, MAX_SEEDS),
    "runs": (1, MAX_RUNS),
    "schedule_length": (1, 10_000),
    "max_configs": (1, MAX_CONFIGS),
    "max_steps": (1, None),
    "prefix_depth": (0, 8),
    "chunk_size": (1, None),
}


class JobSpecError(ReproError):
    """A job submission failed validation (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """One validated campaign job submission.

    Defaults match the CLI defaults, so ``{"experiment": "fuzz"}`` is
    the service spelling of ``repro campaign --experiment fuzz``.
    """

    experiment: str
    seeds: int = 50
    protocol: str = "racing"
    runs: int = 200
    schedule_length: int = 40
    seed: int = 0
    scenario: str = "truncated"
    max_configs: int = 200_000
    max_steps: Optional[int] = 30
    prefix_depth: int = 2
    symmetry: bool = False
    chunk_size: Optional[int] = None
    verify_certificates: bool = False

    def __post_init__(self):
        """Reject invalid parameter combinations at construction time."""
        for name, legal in _NAMES.items():
            value = getattr(self, name)
            if value not in legal:
                raise JobSpecError(
                    f"unknown {name} {value!r}; expected one of {legal}"
                )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise JobSpecError(f"seed must be an integer, got {self.seed!r}")
        for name, (low, high) in _RANGES.items():
            value = getattr(self, name)
            if high is None:
                if value is not None and value < low:
                    raise JobSpecError(
                        f"{name} must be >= {low} or null, got {value}"
                    )
            elif value is None or not low <= value <= high:
                raise JobSpecError(
                    f"{name} must be in [{low}, {high}], got {value}"
                )

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-ready dict (the persisted wire form).

        Every field holds a str, int, bool or None, so a shallow copy
        of the fields, in declaration order, is the whole wire form.
        """
        return dict(vars(self))

    @staticmethod
    def from_dict(data: Any) -> "JobSpec":
        """Parse and validate a submission object.

        Unknown keys are rejected (a typo'd option silently ignored
        would silently run the wrong campaign); type errors surface as
        :class:`JobSpecError`.
        """
        if not isinstance(data, dict):
            raise JobSpecError(
                f"job spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        unknown = sorted(data.keys() - _FIELD_NAMES)
        if unknown:
            raise JobSpecError(
                f"unknown job spec key(s): {', '.join(unknown)}"
            )
        if "experiment" not in data:
            raise JobSpecError("job spec needs an \"experiment\" key")
        checked: Dict[str, Any] = {}
        for name in _FIELD_NAMES:
            if name not in data:
                continue
            value = data[name]
            if name in ("symmetry", "verify_certificates"):
                if not isinstance(value, bool):
                    raise JobSpecError(
                        f"{name} must be a boolean, got {value!r}"
                    )
            elif name in ("experiment", "protocol", "scenario"):
                if not isinstance(value, str):
                    raise JobSpecError(
                        f"{name} must be a string, got {value!r}"
                    )
            elif value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise JobSpecError(
                    f"{name} must be an integer, got {value!r}"
                )
            checked[name] = value
        return JobSpec(**checked)


#: The spec's keys in declaration order (read once, not per parse).
_FIELD_NAMES = tuple(spec_field.name for spec_field in fields(JobSpec))


def build_job(spec: JobSpec):
    """Build the campaign job a spec describes.

    Every target comes from :mod:`repro.protocols.scenarios`, the
    registry ``repro campaign`` and ``repro explore`` read too, so a
    service job and the equivalent batch invocation produce
    ``==``-identical reports — and identical checkpoint fingerprints,
    which is what lets a restarted server resume a journal written
    before the crash.
    """
    from repro.campaign.jobs import (
        ExploreJob,
        FuzzJob,
        SweepProtocolJob,
        SweepSimulationJob,
    )

    seeds = tuple(range(spec.seeds))
    if spec.experiment == "falsify":
        protocol, inputs, task, _expect_safe = falsify_target()
        k, x = FALSIFY_KX
        return SweepSimulationJob(
            protocol=protocol, k=k, x=x, inputs=inputs, seeds=seeds,
            task=task,
        )
    if spec.experiment == "protocol":
        protocol, inputs, task, _expect_safe = SWEEPS[spec.protocol]()
        return SweepProtocolJob(
            protocol=protocol, inputs=inputs, seeds=seeds, task=task,
        )
    if spec.experiment == "fuzz":
        protocol, inputs, task, _expect_safe = SCENARIOS[FUZZ_SCENARIO]()
        return FuzzJob(
            protocol=protocol, inputs=inputs, task=task, runs=spec.runs,
            schedule_length=spec.schedule_length, seed=spec.seed,
        )
    protocol, inputs, task, _expect_safe = SCENARIOS[spec.scenario]()
    return ExploreJob(
        protocol=protocol, inputs=inputs, task=task,
        max_configs=spec.max_configs, max_steps=spec.max_steps,
        prefix_depth=spec.prefix_depth, symmetry=spec.symmetry,
    )
