"""Differential suite: the pure seeded executor against the runtime.

:func:`repro.protocols.base.seeded_run` steps ``(states, memory)`` with
:func:`~repro.protocols.base.apply_step` and draws its turns from
``RandomScheduler(seed)``; :func:`~repro.protocols.base.run_protocol`
drives generator processes on an RMW snapshot through the traced
:class:`~repro.runtime.System`.  The protocol sweeps run on the first,
so it must return what the second returns — completion, step count,
outputs *in pid order* and divergence — on every registered campaign
target, on diverged runs too, and must fail with the same error at the
same turn.
"""

import pytest

from repro.core.sweep import sweep_protocol
from repro.errors import ProtocolError, ValidationError
from repro.protocols import (
    DECIDE,
    SCAN,
    UPDATE,
    ImmediateDecide,
    KSetAgreementTask,
    Protocol,
    run_protocol,
    seeded_run,
)
from repro.protocols.scenarios import SCENARIOS, SWEEPS, falsify_target
from repro.runtime import RandomScheduler
from tests.gadgets import FetchAndAdd

SEEDS = range(60)

#: 7 and 40 turns cut most runs short (diverged), the default none.
MAX_STEPS = (7, 40, 100_000)


class LateStarters(Protocol):
    """Process 0 starts decided; the others write, scan and decide the
    minimum they saw.

    A decided initial state spends a turn without a step, which no
    registered target exercises.
    """

    def __init__(self):
        self.n = 3
        self.m = 3
        self.name = "late-starters-gadget"

    def initial_state(self, index, value):
        self.check_index(index)
        return ("done" if index == 0 else "write", index, value)

    def poised(self, state):
        phase, index, value = state
        if phase == "write":
            return (UPDATE, (index, value))
        if phase == "scan":
            return (SCAN, None)
        return (DECIDE, value)

    def advance(self, state, observation=None):
        phase, index, value = state
        if phase == "write":
            return ("scan", index, value)
        seen = [v for v in observation if v is not None]
        return ("done", index, min(seen + [value]))


TARGETS = {
    **{f"sweep:{name}": build for name, build in SWEEPS.items()},
    **{f"scenario:{name}": build for name, build in SCENARIOS.items()},
    "falsify": falsify_target,
    "late-starters": lambda: (LateStarters(), (5, 3, 9)),
}


def outcome(result):
    return (
        result.completed,
        result.steps,
        list(result.outputs.items()),
        result.diverged,
    )


@pytest.mark.parametrize("max_steps", MAX_STEPS)
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_seeded_run_matches_run_protocol(name, max_steps):
    protocol, inputs = TARGETS[name]()[:2]
    for seed in SEEDS:
        _system, expected = run_protocol(
            protocol, list(inputs), RandomScheduler(seed),
            max_steps=max_steps,
        )
        assert outcome(seeded_run(
            protocol, inputs, seed, max_steps=max_steps
        )) == outcome(expected), (name, seed, max_steps)


def test_the_matrix_covers_diverged_runs_and_stepless_turns():
    """The comparison above is only as strong as its runs: some must
    diverge, and a decided initial state must cost a turn."""
    protocol, inputs, _task, _safe = SWEEPS["racing"]()
    assert any(
        seeded_run(protocol, inputs, seed, max_steps=7).diverged
        for seed in SEEDS
    )
    result = seeded_run(LateStarters(), (5, 3, 9), 0)
    assert result.completed and result.steps == 4
    assert result.outputs[0] == 5


class Misbehaving(Protocol):
    """Every process scans and updates, then misbehaves.

    Process 0 updates twice in a row (broken alternation); process 1
    goes on to an unknown poised kind; process 2 starts decided.  Which
    error surfaces depends on the turn order a seed draws.
    """

    def __init__(self):
        self.n = 3
        self.m = 1
        self.name = "misbehaving-gadget"

    def initial_state(self, index, value):
        self.check_index(index)
        return (index, 0)

    def poised(self, state):
        index, taken = state
        if index == 2:
            return (DECIDE, "quiet")
        if index == 0 and taken == 2:
            return (UPDATE, (0, "again"))
        if index == 1 and taken == 2:
            return ("fetch_and_add", (0, 1))
        return (SCAN, None) if taken % 2 == 0 else (UPDATE, (0, index))

    def advance(self, state, observation=None):
        index, taken = state
        return (index, taken + 1)


def failure(run):
    with pytest.raises(ProtocolError) as excinfo:
        run()
    return type(excinfo.value), str(excinfo.value)


@pytest.mark.parametrize("protocol, inputs", [
    (Misbehaving(), (0, 0, 0)),
    (FetchAndAdd(), (0, 1)),
], ids=["alternation", "unknown-kind"])
def test_errors_match_run_protocol(protocol, inputs):
    seen = set()
    for seed in SEEDS:
        expected = failure(lambda: run_protocol(
            protocol, list(inputs), RandomScheduler(seed)
        ))
        assert failure(
            lambda: seeded_run(protocol, inputs, seed)
        ) == expected, seed
        seen.add(expected[1])
    if isinstance(protocol, Misbehaving):
        # Seeds disagree on which process misbehaves first, so the
        # comparison pins the turn each error is raised at.
        assert seen == {
            "misbehaving-gadget: process 0 broke scan/update alternation "
            "(two consecutive update steps)",
            "misbehaving-gadget: unknown poised kind 'fetch_and_add'",
        }


def test_too_many_inputs_is_the_runtime_validation_error():
    protocol = ImmediateDecide(2)
    with pytest.raises(ValidationError) as runtime:
        run_protocol(protocol, [1, 2, 3], RandomScheduler(0))
    with pytest.raises(ValidationError) as pure:
        seeded_run(protocol, [1, 2, 3], 0)
    assert str(pure.value) == str(runtime.value)


def runtime_run(protocol, inputs, seed, max_steps):
    return run_protocol(
        protocol, list(inputs), RandomScheduler(seed), max_steps=max_steps
    )[1]


@pytest.mark.parametrize("max_steps", MAX_STEPS)
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_sweep_reports_equal_the_runtime_sweep(name, max_steps, monkeypatch):
    """``sweep_protocol`` reports (and certifies) the same on the pure
    path as on the runtime path it replaced."""
    protocol, inputs = TARGETS[name]()[:2]
    task = KSetAgreementTask(1)

    def sweep():
        report = sweep_protocol(
            protocol, inputs, SEEDS, task=task, max_steps=max_steps,
            certificates=True,
        )
        return report, repr(report), [c.payload for c in report.certificates]

    pure = sweep()
    monkeypatch.setattr("repro.core.sweep.seeded_run", runtime_run)
    assert pure == sweep()
