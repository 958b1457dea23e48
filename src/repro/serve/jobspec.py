"""Validated job submissions: JSON in, campaign jobs out.

A :class:`JobSpec` is the service's unit of work — the same
experiment/seeds/fuzz-runs/explore parameters the ``repro campaign``
and ``repro explore`` CLIs take, as a JSON object::

    {"experiment": "falsify",  "seeds": 50}
    {"experiment": "protocol", "protocol": "racing", "seeds": 50}
    {"experiment": "fuzz",     "runs": 200, "schedule_length": 40}
    {"experiment": "explore",  "scenario": "truncated", "symmetry": false}

plus the engine options every experiment accepts: ``chunk_size``,
``verify_certificates``, and (explore only) ``packed``/``symmetry``.
:func:`build_job` turns a validated spec into the exact same frozen
campaign job the CLI would build, so a service job's merged report is
``==``-identical to the batch run of the same parameters — and the
spec JSON is what the job store persists, so a restarted server
rebuilds byte-identical jobs (and hence matching checkpoint
fingerprints) from disk.

Validation is strict: unknown experiments, unknown keys, out-of-range
sizes, and the unsupported ``symmetry`` + ``packed=False`` combination
all raise :class:`JobSpecError`, which the HTTP layer maps to 400.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.protocols.scenarios import SCENARIOS

#: Experiments the service accepts; each mirrors a CLI code path.
EXPERIMENTS = ("falsify", "protocol", "fuzz", "explore")

#: Named protocols for ``experiment=protocol`` sweeps.
SWEEP_PROTOCOLS = ("racing", "minseen")

#: Exploration scenarios: ``repro explore --scenario``'s table.
EXPLORE_SCENARIOS = tuple(SCENARIOS)

#: Upper bounds keeping one tenant's job from monopolizing the service.
MAX_SEEDS = 100_000
MAX_RUNS = 100_000
MAX_CONFIGS = 5_000_000


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
    packed: bool = True
    symmetry: bool = False
    chunk_size: Optional[int] = None
    verify_certificates: bool = False

    def __post_init__(self):
        """Reject invalid parameter combinations at construction time."""
        if self.experiment not in EXPERIMENTS:
            raise JobSpecError(
                f"unknown experiment {self.experiment!r}; expected one "
                f"of {EXPERIMENTS}"
            )
        if self.protocol not in SWEEP_PROTOCOLS:
            raise JobSpecError(
                f"unknown protocol {self.protocol!r}; expected one of "
                f"{SWEEP_PROTOCOLS}"
            )
        if self.scenario not in EXPLORE_SCENARIOS:
            raise JobSpecError(
                f"unknown scenario {self.scenario!r}; expected one of "
                f"{EXPLORE_SCENARIOS}"
            )
        if not 1 <= self.seeds <= MAX_SEEDS:
            raise JobSpecError(
                f"seeds must be in [1, {MAX_SEEDS}], got {self.seeds}"
            )
        if not 1 <= self.runs <= MAX_RUNS:
            raise JobSpecError(
                f"runs must be in [1, {MAX_RUNS}], got {self.runs}"
            )
        if not 1 <= self.schedule_length <= 10_000:
            raise JobSpecError(
                f"schedule_length must be in [1, 10000], got "
                f"{self.schedule_length}"
            )
        if not 1 <= self.max_configs <= MAX_CONFIGS:
            raise JobSpecError(
                f"max_configs must be in [1, {MAX_CONFIGS}], got "
                f"{self.max_configs}"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise JobSpecError(
                f"max_steps must be >= 1 or null, got {self.max_steps}"
            )
        if not 0 <= self.prefix_depth <= 8:
            raise JobSpecError(
                f"prefix_depth must be in [0, 8], got {self.prefix_depth}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise JobSpecError(
                f"chunk_size must be >= 1 or null, got {self.chunk_size}"
            )
        if self.symmetry and not self.packed:
            raise JobSpecError(
                "symmetry requires the packed encoding "
                "(drop \"packed\": false)"
            )

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-ready dict (the persisted wire form)."""
        return asdict(self)

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
        known = {spec_field.name for spec_field in fields(JobSpec)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobSpecError(
                f"unknown job spec key(s): {', '.join(unknown)}"
            )
        if "experiment" not in data:
            raise JobSpecError("job spec needs an \"experiment\" key")
        checked: Dict[str, Any] = {}
        for spec_field in fields(JobSpec):
            if spec_field.name not in data:
                continue
            value = data[spec_field.name]
            if spec_field.name in ("packed", "symmetry",
                                   "verify_certificates"):
                if not isinstance(value, bool):
                    raise JobSpecError(
                        f"{spec_field.name} must be a boolean, got "
                        f"{value!r}"
                    )
            elif spec_field.name in ("experiment", "protocol", "scenario"):
                if not isinstance(value, str):
                    raise JobSpecError(
                        f"{spec_field.name} must be a string, got "
                        f"{value!r}"
                    )
            elif value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise JobSpecError(
                    f"{spec_field.name} must be an integer, got {value!r}"
                )
            checked[spec_field.name] = value
        return JobSpec(**checked)


def build_job(spec: JobSpec):
    """Build the campaign job a spec describes.

    Mirrors the CLI construction paths exactly (``cmd_campaign`` /
    ``cmd_explore`` in :mod:`repro.__main__`), so a service job and the
    equivalent batch invocation produce ``==``-identical reports — and
    identical checkpoint fingerprints, which is what lets a restarted
    server resume a journal written before the crash.
    """
    from repro.analysis.fuzz import DEFAULT_MAX_SAVED_VIOLATIONS
    from repro.campaign.jobs import (
        ExploreJob,
        FuzzJob,
        SweepProtocolJob,
        SweepSimulationJob,
    )
    from repro.protocols import (
        KSetAgreementTask,
        MinSeen,
        RacingConsensus,
        TruncatedProtocol,
    )

    if spec.experiment == "falsify":
        return SweepSimulationJob(
            protocol=TruncatedProtocol(RacingConsensus(2), 1), k=1, x=1,
            inputs=(0, 1), seeds=tuple(range(spec.seeds)),
            task=KSetAgreementTask(1),
        )
    if spec.experiment == "protocol":
        protocol, inputs, task = {
            "racing": (
                RacingConsensus(3), (0, 1, 1), KSetAgreementTask(1)
            ),
            "minseen": (
                MinSeen(3, rounds=2), (4, 1, 9), KSetAgreementTask(3)
            ),
        }[spec.protocol]
        return SweepProtocolJob(
            protocol=protocol, inputs=inputs,
            seeds=tuple(range(spec.seeds)), task=task,
        )
    if spec.experiment == "fuzz":
        return FuzzJob(
            protocol=TruncatedProtocol(RacingConsensus(3), 1),
            inputs=(0, 1, 2), task=KSetAgreementTask(1), runs=spec.runs,
            schedule_length=spec.schedule_length, seed=spec.seed,
            max_saved_violations=DEFAULT_MAX_SAVED_VIOLATIONS,
        )
    # explore — the CLI's scenario table.
    protocol, inputs, task, _expect_safe = SCENARIOS[spec.scenario]()
    return ExploreJob(
        protocol=protocol, inputs=inputs, task=task,
        max_configs=spec.max_configs, max_steps=spec.max_steps,
        prefix_depth=spec.prefix_depth, packed=spec.packed,
        symmetry=spec.symmetry,
    )
