"""The experiment registry (E1–E17): one function per experiment.

Each :class:`Experiment` binds an experiment id to a *payload*: a
callable taking ``quick`` (bool) and returning a :class:`PayloadResult`
with the number of work units performed, the experiment's scalar
metrics and, in full mode, a builder of its EXPERIMENTS.md tables.  A
payload is the whole experiment: its workload, its quick and full
parameters, and every shape claim it makes, checked with ``assert`` (a
benchmark number for a broken run is worse than no number).  ``quick``
selects the CI-sized parameterisation the committed ``baselines/``
record; full mode runs the EXPERIMENTS.md scale.  The runner times
payload calls from the outside, so a payload does only the work its
``units`` count; the table workloads — the ablations among them, which
ride with the experiment whose workload they share (A1 with E8, A2 with
E10, A3 with E2) — run in the table builder, which the runner calls
once, untimed, after the final repeat.

Campaign-backed experiments (E4, E13–E17) run through
:mod:`repro.campaign` on one in-process worker, the mode every
committed baseline recorded, and surface the engine's telemetry (mode,
worker count, utilization) in their metrics, so a ``BENCH_*.json``
records not just *how fast* but *which execution path* produced the
number.  Only the E13/E14 table builders run four workers, for the
speedup tables.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ValidationError


@dataclass(frozen=True)
class Table:
    """One EXPERIMENTS.md table: a title, column headers and rows."""

    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[Any]]

    def render(self) -> str:
        """``### title`` followed by the left-aligned columns."""
        cells = [[str(cell) for cell in row]
                 for row in [self.headers, *self.rows]]
        widths = [max(len(row[i]) for row in cells)
                  for i in range(len(self.headers))]
        lines = [" | ".join(cell.ljust(width)
                            for cell, width in zip(row, widths))
                 for row in cells]
        lines.insert(1, "-+-".join("-" * width for width in widths))
        return "\n".join([f"### {self.title}", *lines])


@dataclass(frozen=True)
class PayloadResult:
    """What one payload execution did: units, metrics, full-mode tables.

    ``tables`` (full mode only) builds the experiment's tables, running
    any further workloads they need and asserting their shape claims;
    it does work the timed call did not, so it is never timed.
    """

    units: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    tables: Optional[Callable[[], List[Table]]] = None


@dataclass(frozen=True)
class Experiment:
    """One discoverable experiment: id, name, and its payload callable."""

    eid: str                    # "E13"
    name: str                   # "campaign"
    title: str                  # one line, shown by `repro bench list`
    payload: Callable[[bool], PayloadResult]
    campaign_backed: bool = False

    @property
    def artifact_name(self) -> str:
        """Canonical ``<eid>_<name>`` stem used in artifact filenames."""
        return f"{self.eid}_{self.name}"

    def run(self, quick: bool) -> PayloadResult:
        """Execute the payload once at the requested scale."""
        return self.payload(quick)


_REGISTRY: Dict[str, Experiment] = {}


def _register(eid: str, name: str, title: str, campaign_backed: bool = False):
    """Decorator factory: register a payload function as an experiment."""

    def decorate(payload: Callable[[bool], PayloadResult]):
        experiment = Experiment(
            eid=eid, name=name, title=title, payload=payload,
            campaign_backed=campaign_backed,
        )
        _REGISTRY[eid] = experiment
        return payload

    return decorate


def discover() -> List[Experiment]:
    """All registered experiments, in numeric id order (E1, E2, …)."""
    return sorted(_REGISTRY.values(), key=lambda e: int(e.eid[1:]))


def resolve(selectors: Optional[List[str]]) -> List[Experiment]:
    """Resolve user selectors to experiments.

    Accepts ids (``E13``), names (``campaign``), or ``<eid>_<name>``
    stems, case-insensitively; ``None`` or an empty list selects every
    experiment.  Unknown selectors raise
    :class:`~repro.errors.ValidationError` listing what exists.
    """
    experiments = discover()
    if not selectors:
        return experiments
    by_key = {}
    for experiment in experiments:
        by_key[experiment.eid.lower()] = experiment
        by_key[experiment.name.lower()] = experiment
        by_key[experiment.artifact_name.lower()] = experiment
    chosen: List[Experiment] = []
    for selector in selectors:
        experiment = by_key.get(selector.strip().lower())
        if experiment is None:
            known = ", ".join(e.eid for e in experiments)
            raise ValidationError(
                f"unknown experiment {selector!r} (known: {known})"
            )
        if experiment not in chosen:
            chosen.append(experiment)
    return sorted(chosen, key=lambda e: int(e.eid[1:]))


def _campaign_metrics(result) -> Dict[str, Any]:
    """Engine telemetry worth persisting next to a campaign-backed number."""
    telemetry = result.telemetry
    return {
        "engine_workers": telemetry.workers,
        "engine_mode": telemetry.mode,
        "engine_chunks": len(telemetry.chunks),
        "engine_utilization": round(telemetry.utilization, 4),
        "engine_runs_per_second": round(telemetry.runs_per_second, 2),
    }


def _speedup_table(title: str, rate_header: str, serial, parallel,
                   rate: Callable[[Any], str]) -> Table:
    """The E13/E14 workers=1 vs workers=4 table.

    Asserts a ≥2× speedup only where it can show: a host with at least
    four CPUs on which the pool path engaged.
    """
    wall = parallel.telemetry.wall_seconds
    speedup = serial.telemetry.wall_seconds / wall if wall > 0 else math.inf
    if (os.cpu_count() or 1) >= 4 and parallel.telemetry.mode.startswith(
        "pool"
    ):
        assert speedup >= 2.0, (
            f"expected >=2x speedup at workers=4, got {speedup:.2f}x"
        )
    rows = []
    for result in (serial, parallel):
        t = result.telemetry
        rows.append((t.workers, t.mode, f"{t.wall_seconds:.2f}",
                     rate(result), f"{t.utilization:.0%}"))
    return Table(
        f"{title} (host cpus={os.cpu_count()}, speedup={speedup:.2f}x, "
        "reports identical)",
        ("workers", "mode", "wall s", rate_header, "utilization"), rows,
    )


def _augmented_run(k_plus_1: int, m: int, rounds: int, seed: int):
    """A mixed Scan/Block-Update workload run to completion."""
    from repro.augmented import AugmentedSnapshot
    from repro.runtime import RandomScheduler, System

    system = System()
    aug = AugmentedSnapshot("M", components=m, pids=list(range(k_plus_1)))

    def body(proc):
        for r in range(rounds):
            comps = [(proc.pid + r) % m]
            yield from aug.block_update(proc.pid, comps, [f"{proc.pid}.{r}"])
            yield from aug.scan(proc.pid)

    for _ in range(k_plus_1):
        system.add_process(body)
    assert system.run(RandomScheduler(seed), max_steps=1_000_000).completed
    return system, aug


@_register("E1", "augmented",
           "Augmented snapshot: Appendix B lemma battery over schedules")
def run_e1(quick: bool) -> PayloadResult:
    """E1: Appendix B lemmas on every schedule; Block-Update outcomes."""
    from repro.augmented.linearization import check_all, linearize

    seeds = 4 if quick else 40
    steps = 0
    for seed in range(seeds):
        system, aug = _augmented_run(3, 3, 3, seed)
        assert check_all(system.trace, aug) == []
        steps += len(system.trace.steps())
    metrics = {"schedules": seeds, "violations": 0}
    if quick:
        return PayloadResult(steps, metrics)

    def build_tables() -> List[Table]:
        tables = []
        for k_plus_1, m in ((2, 2), (3, 3), (5, 4)):
            system, aug = _augmented_run(k_plus_1, m, 4, 12345)
            assert check_all(system.trace, aug) == []
            linearize(system.trace, aug)
            assert aug.yield_counts[0] == 0  # Lemma 16: rank 0 never yields
            tables.append(Table(
                f"E1: Block-Update outcomes by rank (k+1={k_plus_1}, m={m})",
                ("rank", "atomic", "yield ☡"),
                [(rank, aug.atomic_counts[rank], aug.yield_counts[rank])
                 for rank in range(k_plus_1)],
            ))
        tables.append(Table(
            "E1b: Appendix B lemma checks over random schedules",
            ("schedules checked", "violations"), [(seeds, 0)],
        ))
        for k_plus_1 in (2, 3, 4, 6):
            # Block-Updates are wait-free with cost linear in k.
            system, aug = _augmented_run(k_plus_1, 2, 3, 7)
            primitive = len(system.trace.steps())
            ops = (sum(aug.atomic_counts.values())
                   + sum(aug.yield_counts.values()))
            ratio = primitive / max(ops, 1)
            assert ratio < 10 * k_plus_1
            tables.append(Table(
                f"E1c: primitive steps per operation (k+1={k_plus_1})",
                ("k+1", "total primitive steps", "ops", "steps/op"),
                [(k_plus_1, primitive, ops, round(ratio, 1))],
            ))
        return tables

    return PayloadResult(steps, metrics, build_tables)


@_register("E2", "bounds", "Theorem 3 bound table across the (n, k, x) grid")
def run_e2(quick: bool) -> PayloadResult:
    """E2: the bound grid, consensus tightness, the simulation pivot; A3."""
    import random

    from repro.analysis import measure_protocol_space
    from repro.core import (
        bound_table,
        kset_space_lower_bound,
        kset_space_upper_bound,
        max_simulatable_registers,
        simulated_process_count,
    )
    from repro.protocols import RacingConsensus

    rows = bound_table(ns=range(2, (32 if quick else 64) + 1),
                       ks=range(1, 9), xs=range(1, 9))
    assert rows and all(row.tight for row in rows if row.k == 1)
    metrics = {"tight_rows": sum(1 for row in rows if row.tight)}
    if quick:
        return PayloadResult(len(rows), metrics)

    def build_tables() -> List[Table]:
        series = [
            (n, kset_space_lower_bound(n, 1, 1),
             kset_space_upper_bound(n, 1, 1))
            for n in range(2, 513)
        ]
        assert all(low == up == n for n, low, up in series)
        pivot = []
        for k in (1, 2, 4):
            for x in range(1, k + 1):
                for m in (1, 2, 4, 8):
                    n = simulated_process_count(m, k, x)
                    max_m = max_simulatable_registers(n, k, x)
                    lower = kset_space_lower_bound(n, k, x)
                    assert max_m >= m and lower >= m + 1
                    pivot.append((k, x, m, n, max_m, lower))
        tables = [
            Table(
                "E2: space bounds for x-obstruction-free k-set agreement "
                "(x=1 slice)",
                ("n", "k", "x", "lower ⌊(n-x)/(k+1-x)⌋+1", "upper n-k+x",
                 "gap", "tight"),
                [(r.n, r.k, r.x, r.lower, r.upper, r.gap,
                  "yes" if r.tight else "")
                 for r in rows
                 if r.x == 1 and r.n in (4, 8, 16, 32, 64)
                 and r.k in (1, 2, 4, 8)],
            ),
            Table("E2b: consensus bounds meet at exactly n registers",
                  ("n", "lower", "upper"),
                  [row for row in series if row[0] in (2, 8, 64, 512)]),
            Table("E2c: simulation pivot — n processes needed to simulate m "
                  "registers",
                  ("k", "x", "m", "n=(k+1-x)m+x", "max simulatable m",
                   "Thm 3 bound"), pivot),
        ]
        for n in (3, 4, 6):
            # A3: space is a max over executions — solo runs write one
            # component, contended ones approach the declared m = bound = n.
            rng = random.Random(n)
            schedules = [[0] * 30] + [
                [rng.randrange(n) for _ in range(120)] for _ in range(10)
            ]
            report = measure_protocol_space(
                RacingConsensus(n), [i % 2 for i in range(n)], schedules
            )
            bound = kset_space_lower_bound(n, 1, 1)
            assert report.declared_m == bound == n
            assert report.min_used == 1 and report.max_used <= n
            tables.append(Table(
                f"A3: components written, racing consensus n={n}",
                ("declared m", "Theorem 3 bound", "min per run (solo)",
                 "max per run", "mean"),
                [(report.declared_m, bound, report.min_used, report.max_used,
                  round(report.mean_used, 2))],
            ))
        return tables

    return PayloadResult(len(rows), metrics, build_tables)


def _positive_run(k: int, x: int, m: int, seed: int):
    """One verified positive run of the revisionist simulation.

    The simulated-process count n is derived from (k, x, m) via the
    paper's pivot; every simulator must decide one of the inputs.
    """
    from repro.core import run_simulation
    from repro.protocols import RotatingWrites
    from repro.runtime import RandomScheduler

    inputs = list(range(10, 10 + k + 1))
    outcome = run_simulation(
        RotatingWrites((k + 1 - x) * m + x, m, rounds=4), k=k, x=x,
        inputs=inputs, scheduler=RandomScheduler(seed), max_steps=600_000,
    )
    assert outcome.result.completed and outcome.all_decided
    assert set(outcome.decisions.values()) <= set(inputs)  # validity
    return outcome


@_register("E3", "simulation",
           "Revisionist simulation, verified positive runs")
def run_e3(quick: bool) -> PayloadResult:
    """E3: positive simulation runs; wait-freedom; covering work vs m."""
    from repro.core import run_simulation
    from repro.protocols import RotatingWrites
    from repro.runtime import RandomScheduler

    seeds = (31,) if quick else (31, 32, 33)
    outcomes = [_positive_run(2, 1, 3, seed) for seed in seeds]
    steps = sum(len(outcome.system.trace.steps()) for outcome in outcomes)
    metrics = {"runs": len(seeds),
               "revisions": sum(o.revision_count() for o in outcomes)}
    if quick:
        return PayloadResult(steps, metrics)

    def build_tables() -> List[Table]:
        tables = []
        for k, x, m in ((1, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2)):
            outcome = _positive_run(k, x, m, 31)
            tables.append(Table(
                f"E3: simulation run (k={k}, x={x}, m={m}, "
                f"n={(k + 1 - x) * m + x})",
                ("simulators", "decided", "Block-Updates", "revisions",
                 "primitive steps"),
                [(k + 1, len(outcome.decisions), outcome.block_update_count(),
                  outcome.revision_count(), outcome.result.steps)],
            ))
        # Lemma 30's conclusion: every schedule decides in bounded steps.
        sweep = [
            run_simulation(RotatingWrites(7, 3, rounds=5), k=2, x=1,
                           inputs=[7, 8, 9], scheduler=RandomScheduler(seed),
                           max_steps=600_000)
            for seed in range(15)
        ]
        decided = sum(1 for outcome in sweep if outcome.all_decided)
        assert decided == 15
        tables.append(Table(
            "E3b: wait-freedom sweep (k=2, x=1, m=3)",
            ("schedules", "all-decided", "max primitive steps"),
            [(15, decided, max(outcome.result.steps for outcome in sweep))],
        ))
        for m in (2, 3, 4):
            # Lemma 30's counting: covering needs more Block-Updates as m
            # rises.
            outcome = run_simulation(
                RotatingWrites(2 * m + 1, m, rounds=2 * m + 2), k=2, x=1,
                inputs=[1, 2, 3], scheduler=RandomScheduler(11),
                max_steps=800_000,
            )
            tables.append(Table(
                f"E3c: covering work vs m (m={m})",
                ("m", "Block-Updates", "revisions", "steps"),
                [(m, outcome.block_update_count(), outcome.revision_count(),
                  outcome.result.steps)],
            ))
        return tables

    return PayloadResult(steps, metrics, build_tables)


def _falsify(k: int, x: int, m: int, seeds):
    """Theorem 3 as a falsifier: consensus truncated to ``m`` registers.

    Returns ``(n, CampaignResult)`` of the seed sweep through the
    campaign engine on one in-process worker.
    """
    from repro.campaign import sweep_simulation_campaign
    from repro.core import simulated_process_count
    from repro.protocols import (
        KSetAgreementTask,
        RacingConsensus,
        TruncatedProtocol,
    )

    n = simulated_process_count(m, k, x)
    return n, sweep_simulation_campaign(
        TruncatedProtocol(RacingConsensus(n), m), k=k, x=x,
        inputs=list(range(k + 1)), seeds=seeds,
        task=KSetAgreementTask(k), max_steps=400_000, workers=1,
    )


@_register("E4", "falsifier",
           "Theorem 3 falsifier sweep through the campaign engine",
           campaign_backed=True)
def run_e4(quick: bool) -> PayloadResult:
    """E4: under-provisioned consensus must violate on every seed."""
    from repro.campaign import sweep_simulation_campaign
    from repro.core import kset_space_lower_bound
    from repro.protocols import RacingConsensus, TruncatedProtocol

    _n, result = _falsify(1, 1, 1, range(8 if quick else 30))
    report = result.report
    assert report.safety_violations == report.runs
    metrics = {"violations": report.safety_violations}
    metrics.update(_campaign_metrics(result))
    if quick:
        return PayloadResult(report.runs, metrics)

    def build_tables() -> List[Table]:
        tables = []
        for k, x, m in ((1, 1, 1), (2, 1, 1), (2, 1, 2)):
            n, sweep = _falsify(k, x, m, range(15))
            bound = kset_space_lower_bound(n, k, x)
            assert m < bound and sweep.report.runs == 15
            if (k, x, m) in ((1, 1, 1), (2, 1, 1)):
                # Far below the bound, random schedules break safety every
                # time.
                assert sweep.report.safety_violations == 15
                assert sweep.report.first_violating_seed == 0
            tables.append(Table(
                f"E4: outcomes below the bound (k={k}, x={x}, m={m}, n={n}, "
                f"bound={bound})",
                ("safety violations", "divergences", "fully decided",
                 "runs/sec"),
                [(sweep.report.safety_violations, sweep.report.divergences,
                  sweep.report.all_decided,
                  f"{sweep.telemetry.runs_per_second:.1f}")],
            ))
        # The violation belongs to the protocol, never to the simulation.
        faithful = 10 - sweep_simulation_campaign(
            TruncatedProtocol(RacingConsensus(3), 1), k=1, x=1, inputs=[0, 1],
            seeds=range(10), max_steps=300_000, verify_correspondence=True,
            workers=1,
        ).report.correspondence_failures
        assert faithful == 10
        tables.append(Table("E4b: correspondence on falsifier runs",
                            ("runs", "faithful"), [(10, faithful)]))
        return tables

    return PayloadResult(report.runs, metrics, build_tables)


def _solo_probe():
    """Converted TokenRace terminates solo from all 9 register contents.

    Returns ``(configurations, worst_solo_steps)``.
    """
    from repro.solo import ConvertedMachine, TokenRace
    from repro.solo.conversion import solo_run_machine

    machine = TokenRace()
    converted = ConvertedMachine(machine)
    assert converted.registers == machine.registers
    configurations = 0
    worst = 0
    for a in (None, 0, 1):
        for b in (None, 0, 1):
            output, measures, _covered = solo_run_machine(
                converted, 1, initial_contents={0: a, 1: b}
            )
            assert output is not None
            configurations += 1
            worst = max(worst, len(measures))
    assert worst <= 20
    return configurations, worst


@_register("E5", "solo_conversion",
           "Appendix A conversion: solo termination from all contents")
def run_e5(quick: bool) -> PayloadResult:
    """E5: conversion preserves space; solo termination; solo blow-up."""
    from repro.runtime import RandomScheduler, System
    from repro.solo import (
        ConvertedMachine,
        SpinOrCommit,
        TokenRace,
        converted_body,
        shortest_solo_path,
    )
    from repro.solo.conversion import make_registers, solo_run_machine

    configurations = 0
    worst = 0
    for _ in range(2 if quick else 8):
        probed, steps = _solo_probe()
        configurations += probed
        worst = max(worst, steps)
    metrics = {"worst_solo_steps": worst}
    if quick:
        return PayloadResult(configurations, metrics)

    def build_tables() -> List[Table]:
        tables = []
        for machine, value in ((SpinOrCommit(), "v"), (TokenRace(), 1)):
            converted = ConvertedMachine(machine)
            output, measures, _covered = solo_run_machine(converted, value)
            assert output is not None
            assert converted.registers == machine.registers
            tables.append(Table(
                f"E5: conversion of {machine.name}",
                ("registers before", "registers after", "solo steps",
                 "decided"),
                [(machine.registers, converted.registers, len(measures),
                  repr(output))],
            ))
        tables.append(Table(
            "E5b: solo termination from all 9 register contents",
            ("configurations probed", "worst solo steps"),
            [(probed, worst)],
        ))
        # The conversion preserves space, not solo step complexity: it can
        # take more solo steps than the luckiest nondeterministic chooser.
        machine = TokenRace()
        converted = ConvertedMachine(machine)
        lucky = len(shortest_solo_path(machine, machine.initial_state(1), {}))
        _out, measures, _cov = solo_run_machine(
            converted, 1, initial_contents={0: 0, 1: 0}
        )
        assert len(measures) >= lucky
        tables.append(Table(
            "E5c: solo steps — luckiest chooser vs converted machine",
            ("luckiest nondeterministic", "converted (adversarial contents)"),
            [(lucky, len(measures))],
        ))
        finished = 0
        for seed in range(10):
            registers = make_registers(machine, prefix=f"R{seed}")
            system = System()
            for value in (0, 1):
                system.add_process(converted_body(converted, registers, value))
            result = system.run(RandomScheduler(seed), max_steps=3_000)
            finished += len(result.outputs)
        assert finished >= 15  # obstruction-free, not wait-free
        tables.append(Table(
            "E5d: concurrent converted processes over 10 schedules",
            ("process runs", "decided"), [(20, finished)],
        ))
        return tables

    return PayloadResult(configurations, metrics, build_tables)


def _approx_steps(protocol, inputs, scheduler) -> int:
    """Max per-process step count of one approximate-agreement run."""
    from repro.protocols import run_protocol

    system, result = run_protocol(
        protocol, inputs, scheduler, max_steps=200_000
    )
    assert result.completed
    return max(proc.steps_taken for proc in system.processes.values())


@_register("E6", "approx_steps",
           "Approximate agreement steps vs the Hoest–Shavit bound")
def run_e6(quick: bool) -> PayloadResult:
    """E6: bisection/averaging step counts against log₃(1/ε)."""
    from repro.protocols import (
        ApproxAgreementTask,
        AveragingApprox,
        BisectionApprox,
        run_protocol,
    )
    from repro.runtime import RandomScheduler, RoundRobinScheduler

    bisection_rows = []
    averaging_rows = []
    total = 0
    worst = 0
    for exponent in (4, 8, 16) if quick else (4, 8, 16, 24):
        eps = 2.0 ** -exponent
        lower = math.log(1 / eps, 3)
        bisection = _approx_steps(
            BisectionApprox(eps), [0, 1], RoundRobinScheduler()
        )
        averaging = _approx_steps(
            AveragingApprox(2, eps), [0, 1], RoundRobinScheduler()
        )
        # Theorem 2 holds on the implementation; bisection is Θ(log 1/ε).
        assert bisection >= lower and averaging >= lower
        assert bisection <= 4 * exponent
        total += bisection + averaging
        worst = max(worst, bisection)
        bisection_rows.append((exponent, lower, bisection))
        averaging_rows.append((exponent, lower, averaging))
    metrics = {"epsilons": len(bisection_rows),
               "worst_bisection_steps": worst}
    if quick:
        return PayloadResult(total, metrics)

    def build_tables() -> List[Table]:
        tables = []
        for exponent, lower, steps in bisection_rows:
            tables.append(Table(
                f"E6: bisection protocol steps (ε=2^-{exponent})",
                ("ε", "log3(1/ε) lower bound", "measured steps", "ratio"),
                [(f"2^-{exponent}", round(lower, 1), steps,
                  round(steps / lower, 2))],
            ))
        for exponent, lower, steps in averaging_rows:
            tables.append(Table(
                f"E6b: averaging protocol steps (ε=2^-{exponent})",
                ("ε", "log3(1/ε) lower bound", "measured steps"),
                [(f"2^-{exponent}", round(lower, 1), steps)],
            ))
        eps = 2.0 ** -10
        gap = 0.0
        for seed in range(10):
            inputs = [0, 1, seed % 2]
            _system, result = run_protocol(
                AveragingApprox(3, eps), inputs, RandomScheduler(seed),
                max_steps=200_000,
            )
            assert ApproxAgreementTask(eps).check(inputs, result.outputs) == []
            values = list(result.outputs.values())
            gap = max(gap, max(values) - min(values))
        assert gap <= eps
        tables.append(Table("E6c: worst observed output gap (ε=2^-10)",
                            ("ε", "worst gap"), [("2^-10", gap)]))
        return tables

    return PayloadResult(total, metrics, build_tables)


@_register("E7", "approx_reduction",
           "Appendix D reduction: ε-independent simulator steps")
def run_e7(quick: bool) -> PayloadResult:
    """E7: the two-simulator reduction across (m, ε); Lemma 33's shape."""
    from repro.core import check_correspondence, run_approx_simulation
    from repro.protocols import AveragingApprox, TruncatedProtocol
    from repro.runtime import RoundRobinScheduler

    def simulate(m, exponent):
        protocol = TruncatedProtocol(AveragingApprox(2 * m, 2.0 ** -exponent),
                                     m)
        outcome = run_approx_simulation(protocol, [0, 1],
                                        RoundRobinScheduler())
        assert outcome.all_decided
        return outcome

    ms = (1, 2) if quick else (1, 2, 3)
    # Very large ε (2^-2) can decide in one round, before the covering
    # machinery engages; the Lemma 33 claims are about 2^-8 and below.
    exponents = (8, 16, 32) if quick else (2, 8, 16, 32)
    outcomes = {(m, exp): simulate(m, exp) for m in ms for exp in exponents}
    steps = {key: outcome.max_steps_taken for key, outcome in outcomes.items()}
    for m in ms:
        # Lemma 33: from modest ε down the count depends on m alone …
        assert len({steps[m, exp] for exp in exponents if exp >= 8}) == 1
        # … so for small enough ε the simulation beats Theorem 2's bound.
        assert steps[m, 32] < math.log(2.0 ** 32, 3) or m >= 3
    metrics = {"m_values": len(ms)}
    if quick:
        return PayloadResult(sum(steps.values()), metrics)

    def build_tables() -> List[Table]:
        tables = [
            Table(
                f"E7: simulator steps vs ε (m={m})",
                ("ε", "log3(1/ε)", "simulator steps", "crossover"),
                [(f"2^-{exp}", round(math.log(2.0 ** exp, 3), 1),
                  steps[m, exp],
                  "below bound" if steps[m, exp] < math.log(2.0 ** exp, 3)
                  else "")
                 for exp in exponents],
            )
            for m in ms
        ]
        by_m = [(m, simulate(m, 12).max_steps_taken) for m in ms]
        counts = [count for _m, count in by_m]
        assert counts == sorted(counts)  # f(m) grows with m
        tables.append(Table("E7b: simulator steps vs m (ε fixed at 2^-12)",
                            ("m", "simulator steps (f(m)² shape)"), by_m))
        correspondence = check_correspondence(outcomes[2, 16])
        assert correspondence.ok
        tables.append(Table(
            "E7c: Lemma 28 correspondence on the Appendix D reduction",
            ("σ length", "hidden steps", "ok"),
            [(len(correspondence.entries), correspondence.hidden_steps,
              "yes")],
        ))
        return tables

    return PayloadResult(sum(steps.values()), metrics, build_tables)


def _rotating_simulation(seed: int, rounds: int, unsafe_anchor: bool = False):
    """The E8 simulation run (n=7, m=3, k=2, x=1) on one random schedule."""
    from repro.core import run_simulation
    from repro.protocols import RotatingWrites
    from repro.runtime import RandomScheduler

    return run_simulation(
        RotatingWrites(7, 3, rounds=rounds), k=2, x=1, inputs=[5, 2, 8],
        scheduler=RandomScheduler(seed), max_steps=600_000,
        unsafe_anchor=unsafe_anchor,
    )


@_register("E8", "invariant", "Lemma 28 correspondence checker cost")
def run_e8(quick: bool) -> PayloadResult:
    """E8: Lemma 28 on every schedule; revision statistics; A1."""
    from repro.core import check_correspondence

    seeds, rounds = (3, 6) if quick else (20, 8)
    outcomes = [_rotating_simulation(seed, rounds) for seed in range(seeds)]
    checks = [check_correspondence(outcome) for outcome in outcomes]
    for check in checks:
        assert check.ok, check.violations
    hidden = sum(check.hidden_steps for check in checks)
    metrics = {"runs": seeds, "hidden_steps": hidden}
    sigma = sum(len(check.entries) for check in checks)
    if quick:
        return PayloadResult(sigma, metrics)
    assert hidden > 0  # the machinery genuinely revises pasts

    def build_tables() -> List[Table]:
        tables = [
            Table(f"E8: correspondence check (seed={seed})",
                  ("real ops", "σ length", "hidden steps"),
                  [(len(outcomes[seed].system.trace.steps()),
                    len(checks[seed].entries), checks[seed].hidden_steps)])
            for seed in (0, 7, 13)
        ]
        tables.append(Table(
            "E8b: revision statistics over 20 schedules (k=2, x=1, m=3)",
            ("runs checked", "revisions", "hidden steps validated"),
            [(seeds, sum(o.revision_count() for o in outcomes), hidden)],
        ))
        # A1: without Appendix C's anchor disqualification, Lemma 28 breaks.
        broken_safe = sum(1 for check in checks[:10] if not check.ok)
        broken_unsafe = sum(
            1 for seed in range(10)
            if not check_correspondence(
                _rotating_simulation(seed, rounds, unsafe_anchor=True)
            ).ok
        )
        assert broken_safe == 0 and broken_unsafe == 10
        tables.append(Table(
            "A1: dropping the anchor disqualification rule",
            ("variant", "runs", "Lemma 28 violations"),
            [("paper rule", 10, broken_safe),
             ("ablated (no disqualification)", 10, broken_unsafe)],
        ))
        return tables

    return PayloadResult(sigma, metrics, build_tables)


def _single_writer(n: int, rounds: int, seed: int):
    """An AADGMS single-writer snapshot workload run to completion."""
    from repro.memory import AfekSnapshot
    from repro.runtime import RandomScheduler, System

    snapshot = AfekSnapshot("S", writers=list(range(n)), initial=None)
    system = System()

    def body(proc):
        for r in range(rounds):
            yield from snapshot.update(proc.pid, (proc.pid, r))
            yield from snapshot.scan(proc.pid)

    for _ in range(n):
        system.add_process(body)
    assert system.run(RandomScheduler(seed), max_steps=2_000_000).completed
    return system


@_register("E9", "snapshot", "AADGMS snapshot-from-registers cost")
def run_e9(quick: bool) -> PayloadResult:
    """E9: snapshot-from-registers cost, linearizability, multi-writer."""
    from repro.analysis.linearizability import (
        SnapshotSpec,
        check_linearizable,
        history_from_trace,
    )
    from repro.memory.afek import AfekMWSnapshot
    from repro.runtime import RandomScheduler, System

    costs = []
    for n in (6,) if quick else (2, 4, 8, 12):
        steps = len(_single_writer(n, 3, seed=99).trace.steps())
        ops = n * 3 * 2
        # Wait-free: the run is bounded by O(ops · n²) register steps.
        assert steps <= ops * (4 * n * n + 4 * n + 4)
        costs.append((n, ops, steps))
    ops = sum(row[1] for row in costs)
    steps = sum(row[2] for row in costs)
    metrics = {"register_steps": steps, "steps_per_op": round(steps / ops, 2)}
    if quick:
        return PayloadResult(ops, metrics)

    def build_tables() -> List[Table]:
        tables = [
            Table(f"E9: AADGMS single-writer snapshot cost (n={n})",
                  ("n", "ops", "register steps", "steps/op"),
                  [(n, n_ops, n_steps, round(n_steps / n_ops, 1))])
            for n, n_ops, n_steps in costs
        ]
        for seed in (0, 1, 2):
            history = history_from_trace(_single_writer(3, 2, seed).trace, "S")
            ok, _witness = check_linearizable(history, SnapshotSpec(3))
            assert ok
            tables.append(Table(f"E9b: linearizability check (seed={seed})",
                                ("operations", "linearizable"),
                                [(len(history), "yes")]))
        for writers, m in ((3, 2), (4, 3), (6, 3)):
            snapshot = AfekMWSnapshot("MW", components=m, initial=None)
            system = System()

            def body(proc):
                for r in range(2):
                    yield from snapshot.update(proc.pid, (proc.pid + r) % m, r)
                    yield from snapshot.scan(proc.pid)

            for _ in range(writers):
                system.add_process(body)
            result = system.run(RandomScheduler(5), max_steps=2_000_000)
            assert result.completed
            assert snapshot.register_count() == m
            tables.append(Table(
                f"E9c: multi-writer snapshot from m registers "
                f"({writers} writers)",
                ("writers", "m", "registers used", "primitive steps"),
                [(writers, m, snapshot.register_count(),
                  len(system.trace.steps()))],
            ))
        return tables

    return PayloadResult(ops, metrics, build_tables)


@_register("E10", "classical",
           "Classical baselines: FLP valence, covering, exhaustive check")
def run_e10(quick: bool) -> PayloadResult:
    """E10: bivalence, covering, exhaustive falsification; A2."""
    from repro.analysis import (
        bivalent_initial_configurations,
        build_covering,
        classify_valence,
        explore_protocol,
        replay_schedule,
    )
    from repro.analysis.covering import release_covering
    from repro.protocols import RacingConsensus, run_protocol
    from repro.protocols.commit_adopt import (
        CommitAdopt,
        CommitAdoptConsensus,
        CommitAdoptTask,
    )
    from repro.protocols.scenarios import SCENARIOS
    from repro.runtime import RandomScheduler

    valence = classify_valence(RacingConsensus(2), [0, 1])
    assert valence.bivalent
    covering = build_covering(RacingConsensus(3), [0, 1, 0])
    assert covering.size == 3
    # The 1-register impossibility instance, exhausted by the checker.
    target = SCENARIOS["truncated"]()
    report = explore_protocol(
        target.protocol, list(target.inputs), target.task,
        max_configs=50_000 if quick else 300_000,
        max_steps=30 if quick else 40,
    )
    assert report.safe == target.expect_safe
    metrics = {"covering_steps": covering.steps_used,
               "counterexample_length": len(report.counterexample)}
    if quick:
        return PayloadResult(report.configurations, metrics)

    def build_tables() -> List[Table]:
        bivalent = bivalent_initial_configurations(
            RacingConsensus(2), [(a, b) for a in (0, 1) for b in (0, 1)]
        )
        assert {vector for vector, _ in bivalent} == {(0, 1), (1, 0)}
        tables = [
            Table("E10: FLP valence of racing consensus, inputs (0, 1)",
                  ("reachable decisions", "bivalent", "witness for 0",
                   "witness for 1"),
                  [(sorted(valence.values), "yes", valence.witnesses.get(0),
                    valence.witnesses.get(1))]),
            Table("E10b: bivalent initial input vectors (FLP Lemma 2 shape)",
                  ("bivalent vectors",),
                  [(sorted(vector for vector, _ in bivalent),)]),
        ]
        for n in (2, 3, 4):
            cover = build_covering(RacingConsensus(n),
                                   [i % 2 for i in range(n)])
            assert cover.size == n
            contents = release_covering(cover)
            tables.append(Table(
                f"E10c: Burns-Lynch covering of n={n} components",
                ("covered", "steps used", "block write obliterates"),
                [(cover.size, cover.steps_used,
                  "yes" if all(c is not None for c in contents) else "no")],
            ))
        tables.append(Table(
            "E10d: exhaustive falsification of 3-process consensus on 1 "
            "register",
            ("configurations", "violation found", "counterexample length"),
            [(report.configurations, "yes", len(report.counterexample))],
        ))
        certified = 0
        for inputs in ((0, 1), (1, 0), (0, 0), (1, 1)):
            exhausted = explore_protocol(
                CommitAdopt(2), list(inputs), CommitAdoptTask(),
                max_configs=2_000_000,
            )
            assert exhausted.safe and not exhausted.truncated
            certified += exhausted.configurations
        tables.append(Table(
            "E10e: commit-adopt certified exhaustively (n=2, all input pairs)",
            ("input vectors", "configurations", "violations"),
            [(4, certified, 0)],
        ))
        budgets = [(rounds, CommitAdoptConsensus(2, max_rounds=rounds).m)
                   for rounds in (1, 2, 4, 8, 16)]
        assert budgets[-1][1] == 64  # 2n fresh registers per round
        tables.append(Table("E10f: CA-consensus register count vs round "
                            "budget (n=2)",
                            ("round budget", "registers (2n per round)"),
                            budgets))
        # A2: replaying a schedule over the pure configuration space decides
        # exactly what the runtime decided.
        protocol = RacingConsensus(3)
        agree = 0
        for seed in range(10):
            system, result = run_protocol(protocol, [0, 1, 1],
                                          RandomScheduler(seed),
                                          max_steps=50_000)
            schedule = [event.pid for event in system.trace.steps()]
            agree += replay_schedule(protocol, [0, 1, 1],
                                     schedule) == result.outputs
        assert agree == 10
        tables.append(Table("A2: pure replay vs runtime execution (same "
                            "schedules)",
                            ("schedules", "identical decisions"),
                            [(10, agree)]))
        return tables

    return PayloadResult(report.configurations, metrics, build_tables)


@_register("E11", "bg", "Cooperative BG simulation baseline")
def run_e11(quick: bool) -> PayloadResult:
    """E11: BG completion across simulator counts; crash tolerance."""
    from repro.core import run_bg_simulation
    from repro.protocols import RotatingWrites
    from repro.runtime import CrashAfterScheduler, RandomScheduler

    inputs = [5, 2, 8, 1]
    outcomes = []
    for simulators in (3,) if quick else (1, 2, 3, 4):
        outcome = run_bg_simulation(
            RotatingWrites(4, 3, rounds=3), inputs, simulators=simulators,
            scheduler=RandomScheduler(13), max_steps=500_000,
        )
        assert outcome.completed_processes == len(inputs)
        outcomes.append((simulators, outcome))
    steps = sum(outcome.result.steps for _s, outcome in outcomes)
    metrics = {"simulator_counts": len(outcomes)}
    if quick:
        return PayloadResult(steps, metrics)

    def build_tables() -> List[Table]:
        tables = [
            Table(f"E11: BG simulation ({simulators} simulators, 4 processes)",
                  ("simulators", "processes completed", "primitive steps",
                   "safe-agreement registers"),
                  [(simulators, outcome.completed_processes,
                    outcome.result.steps, outcome.system.total_registers())])
            for simulators, outcome in outcomes
        ]
        stranded = []
        for after in (1, 2, 3, 5, 8):
            outcome = run_bg_simulation(
                RotatingWrites(4, 3, rounds=3), inputs, simulators=3,
                scheduler=CrashAfterScheduler(seed=3, victim=0, after=after),
                max_steps=500_000, give_up_after=60,
            )
            stranded.append(len(inputs) - outcome.completed_processes)
        assert max(stranded) <= 1  # f = 1 crash strands at most 1 process
        tables.append(Table(
            "E11b: simulated processes stranded by one simulator crash",
            ("crash points tried", "max stranded", "bound (f=1)"),
            [(len(stranded), max(stranded), 1)],
        ))
        return tables

    return PayloadResult(steps, metrics, build_tables)


@_register("E12", "registers", "The stack lowered to raw registers")
def run_e12(quick: bool) -> PayloadResult:
    """E12: protocols and the whole reduction over raw registers."""
    from repro.core import run_simulation
    from repro.protocols import MinSeen, RotatingWrites, run_protocol
    from repro.protocols.registers_runtime import run_protocol_on_registers
    from repro.protocols.scenarios import FALSIFY_KX, falsify_target
    from repro.runtime import RandomScheduler

    lowered = []
    for n in (3,) if quick else (2, 3, 4):
        protocol = MinSeen(n, rounds=2)
        _system, result, snapshot = run_protocol_on_registers(
            protocol, list(range(n)), RandomScheduler(5),
            max_steps=1_000_000,
        )
        assert result.completed
        assert snapshot.register_count() == protocol.m
        lowered.append((n, result, snapshot))
    steps = sum(result.steps for _n, result, _snapshot in lowered)
    metrics = {"protocols": len(lowered),
               "registers_used": sum(snapshot.register_count()
                                     for _n, _r, snapshot in lowered)}
    if quick:
        return PayloadResult(steps, metrics)

    def build_tables() -> List[Table]:
        tables = []
        for n, result, snapshot in lowered:
            _native_system, native = run_protocol(
                MinSeen(n, rounds=2), list(range(n)), RandomScheduler(5)
            )
            tables.append(Table(
                f"E12: register-level lowering (min-seen, n={n})",
                ("native snapshot steps", "register steps", "blow-up",
                 "registers used"),
                [(native.steps, result.steps,
                  round(result.steps / native.steps, 1),
                  snapshot.register_count())],
            ))

        def simulate(register_level):
            return run_simulation(
                RotatingWrites(5, 2, rounds=3), k=1, x=1, inputs=[4, 7],
                scheduler=RandomScheduler(2), max_steps=1_000_000,
                register_level=register_level,
            )

        on_registers = simulate(True)
        assert on_registers.all_decided
        tables.append(Table(
            "E12b: the whole reduction on raw registers",
            ("native steps", "register steps", "registers (H + helping)"),
            [(simulate(False).result.steps, on_registers.result.steps,
              on_registers.aug.register_count())],
        ))
        target = falsify_target()
        k, x = FALSIFY_KX
        hits = sum(
            1 for seed in range(5)
            if run_simulation(
                target.protocol, k=k, x=x, inputs=list(target.inputs),
                scheduler=RandomScheduler(seed), max_steps=800_000,
                register_level=True,
            ).task_violations(target.task)
        )
        assert hits == 5
        tables.append(Table("E12c: Theorem 3 falsified on raw registers",
                            ("runs", "agreement violations"), [(5, hits)]))
        return tables

    return PayloadResult(steps, metrics, build_tables)


@_register("E13", "campaign",
           "Parallel campaign engine: verified seed sweep throughput",
           campaign_backed=True)
def run_e13(quick: bool) -> PayloadResult:
    """E13: the Lemma-28-verified sweep; full mode adds the 4-worker run."""
    from repro.campaign import sweep_simulation_campaign
    from repro.protocols import RotatingWrites

    seeds = 40 if quick else 240

    def sweep(workers):
        result = sweep_simulation_campaign(
            RotatingWrites(7, 3, rounds=6), k=2, x=1, inputs=[5, 2, 8],
            seeds=range(seeds), verify_correspondence=True, workers=workers,
        )
        assert result.report.clean and result.report.runs == seeds
        return result

    serial = sweep(1)
    metrics = _campaign_metrics(serial)
    if quick:
        return PayloadResult(serial.report.runs, metrics)

    def build_tables() -> List[Table]:
        parallel = sweep(4)
        assert parallel.report == serial.report
        assert parallel.report.summary() == serial.report.summary()
        return [_speedup_table(
            f"E13: campaign speedup on a {seeds}-seed verified sweep",
            "runs/sec", serial, parallel,
            lambda result: f"{result.telemetry.runs_per_second:.1f}",
        )]

    return PayloadResult(serial.report.runs, metrics, build_tables)


@_register("E14", "explore",
           "Sharded bounded-exhaustive exploration throughput",
           campaign_backed=True)
def run_e14(quick: bool) -> PayloadResult:
    """E14: prefix-sharded exploration; full mode adds the 4-worker run."""
    from repro.campaign import explore_campaign
    from repro.protocols import KSetAgreementTask, RacingConsensus

    def explore(workers):
        result = explore_campaign(
            RacingConsensus(3), [0, 1, 2], KSetAgreementTask(1),
            max_configs=400_000, max_steps=13 if quick else 17,
            prefix_depth=3, workers=workers,
        )
        assert result.report.safe
        return result

    serial = explore(1)
    report = serial.report
    metrics = _campaign_metrics(serial)
    metrics["violations"] = len(report.violations)
    if quick:
        return PayloadResult(report.configurations, metrics)

    def build_tables() -> List[Table]:
        parallel = explore(4)
        assert parallel.report == report
        assert repr(parallel.report) == repr(report)
        assert parallel.report.summary() == report.summary()

        def configs_per_second(result):
            wall = result.telemetry.wall_seconds
            rate = report.configurations / wall if wall > 0 else math.inf
            return f"{rate:,.0f}"

        return [_speedup_table(
            f"E14: sharded exploration of {report.configurations} "
            "configurations over 27 prefix subtrees",
            "configs/sec", serial, parallel, configs_per_second,
        )]

    return PayloadResult(report.configurations, metrics, build_tables)


@_register("E15", "chaos",
           "Fault-tolerance overhead: retry, checkpoint, and resume",
           campaign_backed=True)
def run_e15(quick: bool) -> PayloadResult:
    """E15: a checkpointed sweep under flaky faults, then its resume.

    Every third chunk fails once and is retried through the backoff
    machinery on a fake clock (no real sleeping); each chunk is
    journaled, then the journal is resumed, which must replay every
    chunk and run none.  Full mode also times the bare sweep.
    """
    import shutil
    import tempfile
    import time

    from repro.campaign import (
        FakeClock,
        FaultPlan,
        RetryPolicy,
        SweepProtocolJob,
        plan_chunks,
        run_campaign,
    )
    from repro.protocols.scenarios import SWEEPS

    seeds = 48 if quick else 120
    target = SWEEPS["minseen"]()
    job = SweepProtocolJob(protocol=target.protocol, inputs=target.inputs,
                           seeds=tuple(range(seeds)), task=target.task)
    chunks = len(plan_chunks(job.total_units(), 8))
    faults = FaultPlan.flaky(*range(0, chunks, 3), failures=1)
    retry = RetryPolicy(max_retries=2, base_delay=0.01)
    directory = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        path = f"{directory}/chaos.ckpt"
        faulted = run_campaign(
            job, workers=1, chunk_size=8, retry=retry, faults=faults,
            checkpoint=path, clock=FakeClock(),
        )
        resumed = run_campaign(
            job, workers=1, chunk_size=8, retry=retry, checkpoint=path,
            resume=True, clock=FakeClock(),
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    assert faulted.complete and resumed.complete
    assert resumed.report == faulted.report
    assert repr(resumed.report) == repr(faulted.report)
    assert resumed.telemetry.total_units == 0  # resume re-runs nothing
    metrics = _campaign_metrics(faulted)
    metrics["retried_attempts"] = faulted.telemetry.retries
    metrics["resumed_chunks"] = resumed.telemetry.skipped_chunks
    if quick:
        return PayloadResult(faulted.report.runs, metrics)

    def build_tables() -> List[Table]:
        start = time.perf_counter()
        bare = run_campaign(job, workers=1, chunk_size=8)
        bare_seconds = time.perf_counter() - start
        assert faulted.report == bare.report
        assert repr(faulted.report) == repr(bare.report)
        rows = [
            ("bare", f"{bare_seconds:.3f}", 0, 0,
             f"{bare.telemetry.runs_per_second:.1f}"),
            ("faulted+checkpointed", f"{faulted.telemetry.wall_seconds:.3f}",
             faulted.telemetry.retries, 0,
             f"{faulted.telemetry.runs_per_second:.1f}"),
            ("resumed", f"{resumed.telemetry.wall_seconds:.3f}",
             resumed.telemetry.retries, resumed.telemetry.skipped_chunks, "-"),
        ]
        return [Table(
            f"E15: fault-tolerance overhead on a {seeds}-seed sweep "
            "(reports identical across all three runs)",
            ("run", "wall s", "retries", "resumed chunks", "runs/sec"), rows,
        )]

    return PayloadResult(faulted.report.runs, metrics, build_tables)


@_register("E16", "symmetry",
           "Symmetry-reduced exploration of an anonymous protocol",
           campaign_backed=True)
def run_e16(quick: bool) -> PayloadResult:
    """E16: symmetry-reduced anonymous-sweep exploration.

    Units are *visited* (canonical) configurations, so units/second is
    not comparable to E14 — the win shows up in wall time against the
    unreduced ``baselines/pre_symmetry`` artifact, which explored the
    same protocol instance (``symmetry=False``) without the reduction.
    Full mode tables both modes across n and asserts the collapse is
    superlinear: the unreduced/reduced ratio grows with every process.
    """
    from repro.campaign import explore_campaign
    from repro.protocols import AnonymousSweepConsensus, KSetAgreementTask

    def explore(n, max_steps, symmetry):
        result = explore_campaign(
            AnonymousSweepConsensus(n, m=2), [0] + [1] * (n - 1),
            KSetAgreementTask(1), max_configs=10_000_000,
            max_steps=max_steps, prefix_depth=2, workers=1,
            symmetry=symmetry,
        )
        assert result.report.safe
        return result

    result = explore(5, 10 if quick else 12, True)
    metrics = _campaign_metrics(result)
    metrics["symmetry"] = True
    if quick:
        return PayloadResult(result.report.configurations, metrics)

    def build_tables() -> List[Table]:
        rows, ratios = [], []
        for n in (2, 3, 4, 5):
            full, reduced = explore(n, 10, False), explore(n, 10, True)
            ratio = full.report.configurations / reduced.report.configurations
            ratios.append(ratio)
            rows.append((
                n, f"{full.report.configurations:,}",
                f"{reduced.report.configurations:,}", f"{ratio:.2f}x",
                f"{full.telemetry.wall_seconds:.3f}",
                f"{reduced.telemetry.wall_seconds:.3f}",
            ))
        assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
        assert ratios[-1] > 2 * ratios[0], ratios
        return [Table(
            "E16: symmetry-reduced exploration of anonymous-sweep(m=2), "
            "10-step horizon (verdicts identical in every row)",
            ("n", "configs (full)", "configs (reduced)", "ratio",
             "full wall s", "reduced wall s"), rows,
        )]

    return PayloadResult(result.report.configurations, metrics, build_tables)


@_register("E17", "base_objects",
           "Multi-primitive exploration: swap/TAS/CAS and large-register",
           campaign_backed=True)
def run_e17(quick: bool) -> PayloadResult:
    """E17: certified full enumeration of the base-object zoo.

    Units are reachable configurations summed over the four families
    (swap / test-and-set / compare-and-swap consensus and the safe
    large-register emulation), explored with
    ``stop_at_first_violation=False`` and the untrusted-worker
    certificate gate on — so the number prices the certified path, not
    the trusting one.  Each family must reach its known verdict: swap
    and test-and-set solve consensus only for two processes,
    compare-and-swap for any number, and the set-then-clear sweep order
    never invents a value.
    """
    from repro.campaign import explore_campaign
    from repro.protocols import (
        CASConsensus,
        KSetAgreementTask,
        LargeRegisterEmulation,
        RegularRegisterTask,
        SwapConsensus,
        TASConsensus,
    )

    n, domain = (3, 3) if quick else (4, 5)
    inputs = list(range(n))
    writes = (domain - 1, 0)
    families = (
        ("swap", SwapConsensus(n), inputs, KSetAgreementTask(1), n <= 2),
        ("tas", TASConsensus(n), inputs, KSetAgreementTask(1), n <= 2),
        ("cas", CASConsensus(n), inputs, KSetAgreementTask(1), True),
        ("large-register", LargeRegisterEmulation(domain, writes, safe=True),
         [0, 0], RegularRegisterTask(domain, writes), True),
    )
    results = []
    for _label, protocol, protocol_inputs, task, expect_safe in families:
        result = explore_campaign(
            protocol, protocol_inputs, task, stop_at_first_violation=False,
            workers=1, verify_certificates=True,
        )
        assert result.complete and result.report.safe == expect_safe
        results.append(result)
    metrics = _campaign_metrics(results[-1])
    metrics["families"] = len(results)
    metrics["certificates_verified"] = sum(
        r.telemetry.certificates_verified for r in results
    )
    metrics["violating_families"] = sum(
        1 for r in results if not r.report.safe
    )
    units = sum(r.report.configurations for r in results)
    if quick:
        return PayloadResult(units, metrics)

    def build_tables() -> List[Table]:
        return [Table(
            f"E17: base-object families, full enumeration (n={n}, "
            f"domain={domain}, certificate gate on)",
            ("family", "configurations", "safe", "certificates verified"),
            [(family[0], r.report.configurations, r.report.safe,
              r.telemetry.certificates_verified)
             for family, r in zip(families, results)],
        )]

    return PayloadResult(units, metrics, build_tables)
