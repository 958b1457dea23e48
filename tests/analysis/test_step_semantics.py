"""Differential suite for the one step semantics.

:func:`repro.protocols.base.apply_step` is the single place the rule
"take the poised scan/update/RMW, apply it to M, ``advance``" is written
for the pure analyses (solo runs, valence search, the covering builder
and the space replay).  The packed explorer's ``child`` keeps its own,
cached copy of the rule, so it is an independent code path: the replay
built on :func:`apply_step` must reach the same states and memory on
every registered scenario.  A kind the rule does not know must fail by
name in every analysis and executor, the explorer included, and
valence search must run on every scenario, the read-modify-write ones
included.
"""

import random

import pytest

from repro.analysis import (
    ExplorationContext,
    build_covering,
    classify_valence,
    components_written,
    explore_protocol,
)
from repro.analysis.space import replay_steps
from repro.certify import verify
from repro.core import run_simulation
from repro.core.bg import run_bg_simulation
from repro.core.sweep import sweep_protocol
from repro.errors import ProtocolError
from repro.protocols import (
    KSetAgreementTask,
    TASConsensus,
    TruncatedProtocol,
    seeded_run,
    solo_run,
)
from repro.protocols.scenarios import SCENARIOS
from repro.runtime import RoundRobinScheduler
from tests.gadgets import FetchAndAdd


def random_schedules(processes, seed, count=12, longest=24):
    rng = random.Random(seed)
    return [
        [rng.randrange(processes) for _ in range(rng.randrange(longest + 1))]
        for _ in range(count)
    ]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_replay_matches_the_packed_explorer(name):
    """Every prefix of seeded random schedules reaches the same states
    and memory through apply_step as through the explorer's child."""
    protocol, inputs, _task, _expect_safe = SCENARIOS[name]()
    ctx = ExplorationContext(protocol, inputs)
    for seed in range(3):
        for schedule in random_schedules(len(inputs), seed):
            for end in range(len(schedule) + 1):
                prefix = schedule[:end]
                config = ctx.replay(prefix)
                assert replay_steps(protocol, inputs, prefix) == (
                    ctx.states_of(config), ctx.memory_of(config)
                ), (name, prefix)


@pytest.mark.parametrize("drive", [
    lambda p: classify_valence(p, [0, 1]),
    lambda p: build_covering(p, [0, 1]),
    lambda p: components_written(p, [0, 1], [0, 1]),
    lambda p: solo_run(p, p.initial_state(0, 0), (None,)),
    lambda p: run_simulation(p, 1, 1, [0, 1], RoundRobinScheduler()),
    lambda p: run_bg_simulation(p, [0, 1], 1, RoundRobinScheduler()),
    lambda p: explore_protocol(p, [0, 1], KSetAgreementTask(1)),
    lambda p: seeded_run(p, [0, 1], 0),
], ids=[
    "classify_valence", "build_covering", "components_written",
    "solo_run", "run_simulation", "run_bg_simulation",
    "explore_protocol", "seeded_run",
])
def test_unknown_kind_is_a_named_protocol_error(drive):
    protocol = FetchAndAdd()
    with pytest.raises(ProtocolError) as excinfo:
        drive(protocol)
    assert str(excinfo.value) == (
        "fetch-and-add-gadget: unknown poised kind 'fetch_and_add'"
    )


@pytest.mark.parametrize("drive", [
    lambda p: solo_run(p, p.initial_state(0, 0), (None, None)),
    lambda p: classify_valence(p, [0, 1]),
    lambda p: explore_protocol(p, [0, 1], KSetAgreementTask(1)),
    lambda p: sweep_protocol(p, [0, 1], range(3)),
], ids=["solo_run", "classify_valence", "explore_protocol", "sweep_protocol"])
def test_truncating_an_rmw_protocol_is_a_named_protocol_error(drive):
    """Truncation aliases read/write components only; a base process
    poised for test-and-set fails by name instead of reaching memory
    unaliased."""
    protocol = TruncatedProtocol(TASConsensus(4), 2)
    with pytest.raises(ProtocolError) as excinfo:
        drive(protocol)
    assert str(excinfo.value) == (
        "tas-consensus(n=4)|truncated-to-2: the base protocol is poised "
        "for a read-modify-write step ('test_and_set'); truncation "
        "aliases read/write components only, and read/write registers "
        "cannot implement it"
    )


RMW_SCENARIOS = ("swap", "cas", "tas")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_classify_valence_runs_on_every_scenario(name):
    """Every scenario is bivalent from its initial configuration; the
    read-modify-write ones carry valence certificates that a deep
    verification accepts."""
    protocol, inputs, _task, _expect_safe = SCENARIOS[name]()
    report = classify_valence(
        protocol, inputs, certificates=name in RMW_SCENARIOS
    )
    expected = {0, "writer-done"} if name == "large-register" else {0, 1}
    assert report.values == expected
    assert not report.truncated
    if name in RMW_SCENARIOS:
        (certificate,) = report.certificates
        verdict = verify(certificate, deep=True)
        assert verdict.accepted, verdict
