"""Tests for counterexample shrinking, fuzzing, and space measurement."""

import pytest

from repro.analysis import (
    base_object_profile,
    components_written,
    explore_protocol,
    fuzz_protocol,
    measure_protocol_space,
    measure_system_registers,
    replay_schedule,
    shrink_schedule,
    violates,
)
from repro.errors import ValidationError
from repro.protocols import (
    ImmediateDecide,
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    RotatingWrites,
    TruncatedProtocol,
    run_protocol,
)
from repro.runtime import RandomScheduler


def broken_consensus():
    return TruncatedProtocol(RacingConsensus(3), 1)


def violating_schedule():
    report = explore_protocol(
        broken_consensus(), [0, 1, 2], KSetAgreementTask(1),
        max_configs=500_000, max_steps=40,
    )
    assert not report.safe
    return report.counterexample


class TestReplay:
    def test_replay_reaches_decisions(self):
        schedule = violating_schedule()
        decisions = replay_schedule(broken_consensus(), [0, 1, 2], schedule)
        assert len(set(decisions.values())) >= 2

    def test_decided_indices_are_noops(self):
        protocol = ImmediateDecide(2)
        # Way more steps than needed: extra entries are skipped.
        decisions = replay_schedule(protocol, [7, 8], [0] * 20 + [1] * 20)
        assert decisions == {0: 7, 1: 8}

    def test_violates_predicate(self):
        schedule = violating_schedule()
        assert violates(
            broken_consensus(), [0, 1, 2], KSetAgreementTask(1), schedule
        )
        assert not violates(
            broken_consensus(), [0, 1, 2], KSetAgreementTask(1), []
        )


class TestShrink:
    def test_shrinks_padded_schedule(self):
        # Suffix padding keeps the violation (decisions only accumulate);
        # prefix padding would change the execution entirely.
        schedule = violating_schedule()
        padded = list(schedule) + [2, 1, 0] * 8
        assert violates(
            broken_consensus(), [0, 1, 2], KSetAgreementTask(1), padded
        )
        result = shrink_schedule(
            broken_consensus(), [0, 1, 2], KSetAgreementTask(1), padded
        )
        assert len(result.minimized) <= len(schedule)
        assert violates(
            broken_consensus(), [0, 1, 2], KSetAgreementTask(1),
            result.minimized,
        )

    def test_result_is_one_minimal(self):
        schedule = violating_schedule()
        result = shrink_schedule(
            broken_consensus(), [0, 1, 2], KSetAgreementTask(1), schedule
        )
        minimized = result.minimized
        for position in range(len(minimized)):
            candidate = minimized[:position] + minimized[position + 1:]
            assert not (
                candidate
                and violates(
                    broken_consensus(), [0, 1, 2],
                    KSetAgreementTask(1), candidate,
                )
            )

    def test_non_violating_input_rejected(self):
        with pytest.raises(ValueError):
            shrink_schedule(
                broken_consensus(), [0, 1, 2], KSetAgreementTask(1), [0, 1]
            )


class TestFuzz:
    def test_finds_and_shrinks_violation(self):
        report = fuzz_protocol(
            broken_consensus(), [0, 1, 2], KSetAgreementTask(1),
            runs=300, schedule_length=40, seed=1,
        )
        assert not report.clean
        assert report.minimized is not None
        assert len(report.minimized.minimized) <= 40

    def test_safe_protocol_stays_clean(self):
        report = fuzz_protocol(
            RacingConsensus(3), [0, 1, 1], KSetAgreementTask(1),
            runs=150, schedule_length=50, seed=2,
        )
        assert report.clean

    def test_deterministic_given_seed(self):
        a = fuzz_protocol(
            broken_consensus(), [0, 1, 2], KSetAgreementTask(1),
            runs=100, seed=5, shrink=False,
        )
        b = fuzz_protocol(
            broken_consensus(), [0, 1, 2], KSetAgreementTask(1),
            runs=100, seed=5, shrink=False,
        )
        assert a.violating_runs == b.violating_runs
        assert a.first_violation_schedule == b.first_violation_schedule


class TestSpaceMeasurement:
    def test_components_written_counts_distinct(self):
        protocol = RotatingWrites(3, 3, rounds=3)
        # One process stepping 3 rounds: writes 3 distinct components.
        schedule = [0] * 6
        assert len(components_written(protocol, [9], schedule)) == 3

    @pytest.mark.parametrize("measure", [
        components_written, base_object_profile,
    ], ids=lambda measure: measure.__name__)
    @pytest.mark.parametrize("schedule, entry, position", [
        ([-1, -1], -1, 0),  # would silently step the last process
        ([0, 1, 5], 5, 2),  # would fail on indexing
    ], ids=["negative", "too-large"])
    def test_schedule_entries_are_range_checked(
        self, measure, schedule, entry, position
    ):
        """An entry outside range(len(inputs)) is a ValidationError naming
        it and its position, not a silent step or a bare IndexError."""
        protocol = RacingConsensus(3)
        with pytest.raises(ValidationError) as excinfo:
            measure(protocol, [0, 1, 2], schedule)
        assert (
            f"schedule entry {entry} at position {position} out of range"
            in str(excinfo.value)
        )

    def test_solo_runs_touch_few_components(self):
        """Space complexity is a max over executions: solo executions of
        grouped k-set touch only the solo process's group's components."""
        protocol = RacingConsensus(4)
        report = measure_protocol_space(
            protocol, [0, 1, 0, 1],
            schedules=[[0] * 20, [0, 1] * 20, [0, 1, 2, 3] * 10],
        )
        assert report.declared_m == 4
        assert report.min_used == 1  # solo run writes only its component
        assert report.max_used <= 4

    def test_mean_and_max(self):
        protocol = MinSeen(2)
        report = measure_protocol_space(
            protocol, [1, 2], schedules=[[0, 0], [0, 1, 0, 1]]
        )
        assert report.per_run == [1, 2]
        assert report.max_used == 2
        assert report.mean_used == 1.5

    def test_system_register_breakdown(self):
        system, _result = run_protocol(
            MinSeen(3), [1, 2, 3], RandomScheduler(0)
        )
        usage = measure_system_registers(system)
        assert usage == {"M": 3}
