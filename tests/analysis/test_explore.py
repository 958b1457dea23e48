"""Tests for the bounded-exhaustive protocol model checker."""

import pytest

from repro.analysis import (
    check_obstruction_freedom,
    explore_prefix_range,
    explore_protocol,
    schedule_prefixes,
    unit_budget,
)
from repro.errors import ValidationError
from repro.protocols import (
    ImmediateDecide,
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    TruncatedProtocol,
)
from repro.protocols.base import DECIDE, SCAN, UPDATE, Protocol
from tests.gadgets import DiamondTrap, LastConfigBad


class TestDepthMemoizationRegression:
    def test_shallower_arrival_reexpanded(self):
        # Fails on the pre-fix explorer (memo on configuration alone):
        # it reports safe under max_steps=3 because the depth-3 arrival
        # poisons the memo before the depth-1 arrival gets there.
        report = explore_protocol(
            DiamondTrap(), [0, 1], KSetAgreementTask(1), max_steps=3
        )
        assert not report.safe
        assert report.counterexample == [0, 1, 1]

    def test_deep_only_violation_stays_out_of_reach(self):
        # Soundness cuts both ways: the violation needs 3 steps past
        # p0's update, so max_steps=2 must NOT report it.
        report = explore_protocol(
            DiamondTrap(), [0, 1], KSetAgreementTask(1), max_steps=2
        )
        assert report.safe
        assert report.truncated

    def test_final_budgeted_config_checked(self):
        # Fails on the pre-fix explorer (budget break before the safety
        # check): the 2nd configuration is the violating one.
        report = explore_protocol(
            LastConfigBad(), [0], KSetAgreementTask(1), max_configs=2
        )
        assert not report.safe

    def test_budget_is_respected(self):
        report = explore_protocol(
            RacingConsensus(2), [0, 1], KSetAgreementTask(1), max_configs=10
        )
        assert report.configurations <= 10


class TestScheduleSharding:
    def test_prefixes_are_viable_and_lexicographic(self):
        prefixes = schedule_prefixes(RacingConsensus(2), [0, 1], 3)
        assert prefixes == tuple(sorted(prefixes))
        assert all(len(p) == 3 for p in prefixes)
        assert all(all(i in (0, 1) for i in p) for p in prefixes)

    def test_early_decided_prefixes_kept_short(self):
        # When every process is decided before the sharding depth, the
        # prefix is kept at its shorter length instead of being padded
        # with unviable steps.
        class BornDecided(Protocol):
            n, m, name = 2, 1, "born-decided"

            def initial_state(self, index, value):
                return value

            def poised(self, state):
                return (DECIDE, state)

            def advance(self, state, observation=None):
                return state

        assert schedule_prefixes(BornDecided(), [0, 1], 4) == ((),)
        # ImmediateDecide takes two steps (update, decide); at depth 4
        # every viable prefix is a complete 4-step interleaving.
        prefixes = schedule_prefixes(ImmediateDecide(2), [0, 1], 4)
        assert all(sorted(p) == [0, 0, 1, 1] for p in prefixes)

    def test_depth_zero_is_single_empty_prefix(self):
        assert schedule_prefixes(RacingConsensus(2), [0, 1], 0) == ((),)

    def test_depth_beyond_recursion_headroom(self):
        """The decomposition must not recurse once per depth level.

        A single never-deciding process yields exactly one prefix — a
        path as deep as requested — so any per-level stack frame would
        blow the interpreter's recursion limit long before depth 5000.
        """
        import sys

        class Spinner(Protocol):
            n, m, name = 1, 1, "spinner"

            def initial_state(self, index, value):
                return ("scan", 0)

            def poised(self, state):
                phase, count = state
                if phase == "scan":
                    return (SCAN, None)
                return (UPDATE, (0, count))

            def advance(self, state, observation=None):
                phase, count = state
                if phase == "scan":
                    return ("update", count + 1)
                return ("scan", count)

        depth = sys.getrecursionlimit() + 4000
        prefixes = schedule_prefixes(Spinner(), [0], depth)
        assert prefixes == ((0,) * depth,)

    def test_unit_budget_ceil_division(self):
        assert unit_budget(10, 4) == 3
        assert unit_budget(12, 4) == 3
        assert unit_budget(1, 100) == 1
        assert unit_budget(100, 0) == 100

    def test_negative_prefix_depth_rejected(self):
        with pytest.raises(ValidationError):
            explore_protocol(
                RacingConsensus(2), [0, 1], KSetAgreementTask(1),
                prefix_depth=-1,
            )

    def test_prefix_range_halves_merge_to_serial(self):
        protocol = TruncatedProtocol(RacingConsensus(3), 1)
        task = KSetAgreementTask(1)
        bounds = dict(max_configs=100_000, max_steps=20)
        serial = explore_protocol(
            protocol, [0, 1, 2], task, prefix_depth=2, **bounds
        )
        prefixes = schedule_prefixes(protocol, [0, 1, 2], 2)
        half = len(prefixes) // 2
        left = explore_prefix_range(
            protocol, [0, 1, 2], task, prefixes, 0, half, **bounds
        )
        right = explore_prefix_range(
            protocol, [0, 1, 2], task, prefixes, half, len(prefixes),
            **bounds
        )
        merged = left.merge(right)
        assert merged == serial
        assert repr(merged) == repr(serial)

    def test_prefix_depths_agree_on_safety(self):
        # Determinism is a per-decomposition contract: different prefix
        # depths may stop at different first violations, but every depth
        # must agree on the verdict and return a replayable schedule.
        from repro.analysis.bivalence import (
            initial_configuration,
            step_configuration,
        )

        protocol = TruncatedProtocol(RacingConsensus(3), 1)
        task = KSetAgreementTask(1)
        for depth in (0, 1, 2):
            report = explore_protocol(
                protocol, [0, 1, 2], task, max_configs=200_000,
                max_steps=20, prefix_depth=depth,
            )
            assert not report.safe
            assert len(report.counterexample) <= 20
            config = initial_configuration(protocol, [0, 1, 2])
            for index in report.counterexample:
                config = step_configuration(protocol, config, index)
            states, _memory = config
            decided = {
                i: protocol.decision(state)
                for i, state in enumerate(states)
                if protocol.decision(state) is not None
            }
            assert task.check([0, 1, 2], decided) != []


class TestExploreBasics:
    def test_trivial_protocol_fully_explored(self):
        report = explore_protocol(
            ImmediateDecide(2), [0, 1], KSetAgreementTask(2)
        )
        assert report.safe
        assert not report.truncated
        assert report.fully_decided > 0

    def test_input_count_validated(self):
        with pytest.raises(ValidationError):
            explore_protocol(ImmediateDecide(1), [0, 1], KSetAgreementTask(1))

    def test_config_budget_truncates(self):
        report = explore_protocol(
            RacingConsensus(2), [0, 1], KSetAgreementTask(1), max_configs=10
        )
        assert report.truncated

    def test_depth_bound_truncates(self):
        report = explore_protocol(
            RacingConsensus(2), [0, 1], KSetAgreementTask(1),
            max_configs=100_000, max_steps=3,
        )
        assert report.truncated

    def test_counterexample_replayable(self):
        """The schedule returned for a violation reproduces it when
        replayed step by step."""
        from repro.analysis.bivalence import (
            initial_configuration,
            step_configuration,
        )

        broken = TruncatedProtocol(RacingConsensus(3), 1)
        task = KSetAgreementTask(1)
        report = explore_protocol(
            broken, [0, 1, 2], task, max_configs=500_000, max_steps=40
        )
        assert not report.safe
        config = initial_configuration(broken, [0, 1, 2])
        for index in report.counterexample:
            config = step_configuration(broken, config, index)
        states, _memory = config
        decided = {}
        for i, state in enumerate(states):
            value = broken.decision(state)
            if value is not None:
                decided[i] = value
        assert task.check([0, 1, 2], decided) != []

    def test_collect_multiple_violations(self):
        broken = TruncatedProtocol(RacingConsensus(3), 1)
        report = explore_protocol(
            broken, [0, 1, 2], KSetAgreementTask(1),
            max_configs=200_000, max_steps=30,
            stop_at_first_violation=False,
        )
        assert len(report.violations) >= 1

    def test_min_seen_is_safe_for_weak_task(self):
        report = explore_protocol(
            MinSeen(2), [0, 1], KSetAgreementTask(2), max_configs=100_000
        )
        assert report.safe
        assert not report.truncated

    def test_slot_overflow_is_rejected_naming_the_protocol(
        self, monkeypatch
    ):
        """More distinct states/values than a packed slot id can hold
        is a ValidationError, never a silently mis-keyed configuration."""
        from repro.analysis import explore

        protocol = RacingConsensus(2)
        monkeypatch.setattr(explore, "_SLOT_LIMIT", 8)
        with pytest.raises(ValidationError) as excinfo:
            explore_protocol(
                protocol, [0, 1], KSetAgreementTask(1),
                max_configs=100_000, max_steps=30,
            )
        message = str(excinfo.value)
        assert message.startswith(f"{protocol.name}: ")
        assert "more than 8 distinct states/values" in message


class TestObstructionProbes:
    def test_wait_free_protocol_always_passes(self):
        schedules = [[0, 1, 0, 1], [], [1, 1, 1]]
        violations = check_obstruction_freedom(
            MinSeen(2), [5, 3], schedules
        )
        assert violations == []

    def test_livelocking_protocol_detected(self):
        """A protocol whose solo runs never decide fails the probe."""
        from repro.protocols.base import SCAN, UPDATE, Protocol

        class NeverDecide(Protocol):
            n, m, name = 1, 1, "never"

            def initial_state(self, index, value):
                return ("scan", 0)

            def poised(self, state):
                phase, count = state
                if phase == "scan":
                    return (SCAN, None)
                return (UPDATE, (0, count))

            def advance(self, state, observation=None):
                phase, count = state
                if phase == "scan":
                    return ("update", count + 1)
                return ("scan", count)

        violations = check_obstruction_freedom(
            NeverDecide(), [0], [[0, 0, 0]], solo_budget=200
        )
        assert violations

    def test_out_of_range_schedule_entry_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            check_obstruction_freedom(MinSeen(2), [5, 3], [[0, 2, 1]])
        assert "out of range" in str(excinfo.value)
        with pytest.raises(ValidationError):
            check_obstruction_freedom(MinSeen(2), [5, 3], [[-1]])

    def test_decided_processes_skipped(self):
        # Schedule longer than the protocol's life: decided steps skipped.
        violations = check_obstruction_freedom(
            ImmediateDecide(1), [4], [[0] * 50]
        )
        assert violations == []
