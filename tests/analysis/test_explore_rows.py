"""The explorer's configurations are int rows of flat tables.

* schedule entries outside ``range(len(inputs))`` are rejected by name
  on every replay path, even once the root's successors are cached, and
  so is a row the context never interned, on every row accessor;
* the shrinker's entry points reject a context built for another
  protocol or inputs instead of replaying the wrong system;
* exploring, fuzzing and replaying leave no reference cycle behind: with
  the cyclic collector paused, everything they allocate is freed by
  reference counting alone.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.analysis import (
    ExplorationContext,
    explore_protocol,
    fuzz_protocol,
    replay_schedule,
    shrink_schedule,
    violates,
)
from repro.errors import ValidationError
from repro.protocols import KSetAgreementTask, MinSeen, RacingConsensus
from repro.protocols.scenarios import SCENARIOS

#: Each process runs solo until it decides, then keeps being scheduled:
#: every step after its decision is a no-op step by a decided process.
SOLO_RUNS = [0] * 30 + [1] * 30 + [2] * 30


class TestScheduleEntries:
    @pytest.mark.parametrize("entry", [-1, 3, 5])
    def test_replay_rejects_an_out_of_range_entry(self, entry):
        ctx = ExplorationContext(RacingConsensus(3), (0, 1, 2))
        # Cache every successor of the root first: an unchecked index
        # would then read a cached row instead of failing.
        for index in range(3):
            ctx.replay([index])
        with pytest.raises(
            ValidationError, match=rf"schedule entry {entry} at position 1"
        ):
            ctx.replay([0, entry])

    @pytest.mark.parametrize("entry", [-1, 3])
    def test_child_rejects_an_out_of_range_index(self, entry):
        ctx = ExplorationContext(RacingConsensus(3), (0, 1, 2))
        ctx.child(ctx.root, 2)
        with pytest.raises(ValidationError, match=f"index {entry}"):
            ctx.child(ctx.root, entry)

    @pytest.mark.parametrize("accessor", [
        "states_of", "memory_of", "decided_of", "canon_key", "check",
        "child",
    ])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=[
        "negative", "one-past-the-end", "far-past-the-end",
    ])
    def test_row_accessors_reject_a_row_never_interned(
        self, accessor, offset
    ):
        """A negative row would read a row counted from the end of the
        tables (``decided_of(-1)`` was the newest row's decisions)."""
        ctx = ExplorationContext(
            RacingConsensus(3), (0, 1, 2), KSetAgreementTask(1)
        )
        ctx.replay([0] * 30)
        rows = len(ctx._keys)
        row = -1 if offset < 0 else rows + offset * 1000
        call = getattr(ctx, accessor)
        args = (row, 0) if accessor == "child" else (row,)
        with pytest.raises(
            ValidationError,
            match=rf"configuration row {row} out of range for {rows} rows",
        ):
            call(*args)

    def test_replay_schedule_rejects_a_negative_entry(self):
        with pytest.raises(ValidationError, match="schedule entry -1"):
            replay_schedule(RacingConsensus(3), (7, 8, 9), [-1])

    def test_decided_of_reads_the_replayed_decisions(self):
        ctx = ExplorationContext(RacingConsensus(3), (7, 8, 9))
        row = ctx.replay(SOLO_RUNS)
        assert ctx.decided_of(row) == {0: 7, 1: 7, 2: 7}
        assert ctx.decided_of(ctx.root) == {}


class TestSuppliedContext:
    def mismatched(self):
        """Contexts built for other inputs, and for another protocol."""
        return [
            ExplorationContext(RacingConsensus(3), (0, 1, 2)),
            ExplorationContext(MinSeen(3), (7, 8, 9)),
        ]

    def test_a_matching_context_replays(self):
        protocol = RacingConsensus(3)
        ctx = ExplorationContext(protocol, (7, 8, 9))
        assert replay_schedule(
            protocol, (7, 8, 9), SOLO_RUNS, context=ctx
        ) == {0: 7, 1: 7, 2: 7}

    def test_replay_schedule_rejects_a_mismatched_context(self):
        for ctx in self.mismatched():
            with pytest.raises(ValidationError, match="another"):
                replay_schedule(
                    RacingConsensus(3), (7, 8, 9), SOLO_RUNS, context=ctx
                )

    def test_violates_rejects_a_mismatched_context(self):
        for ctx in self.mismatched():
            with pytest.raises(ValidationError, match="another"):
                violates(
                    RacingConsensus(3), (7, 8, 9), KSetAgreementTask(1),
                    SOLO_RUNS, context=ctx,
                )

    def test_shrink_schedule_rejects_a_mismatched_context(self):
        protocol, inputs, task, _safe = SCENARIOS["truncated"]()
        schedule = fuzz_protocol(
            protocol, inputs, task, runs=50, shrink=False
        ).first_violation_schedule
        other = ExplorationContext(protocol, (1, 0, 2), task)
        with pytest.raises(ValidationError, match="inputs"):
            shrink_schedule(protocol, inputs, task, schedule, context=other)


@contextmanager
def collector_paused():
    """Run the body with the cyclic collector off, starting clean."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestNoReferenceCycles:
    def test_exploration_leaves_no_cycles(self):
        protocol, inputs, task, _safe = SCENARIOS["truncated"]()
        with collector_paused():
            report = explore_protocol(
                protocol, inputs, task, max_steps=12, prefix_depth=2,
                stop_at_first_violation=False,
            )
            assert report.configurations > 1_000
            del report
            assert gc.collect() == 0

    def test_fuzzing_leaves_no_cycles(self):
        protocol, inputs, task, _safe = SCENARIOS["truncated"]()
        with collector_paused():
            report = fuzz_protocol(protocol, inputs, task, runs=50)
            assert report.violations and report.minimized is not None
            del report
            assert gc.collect() == 0

    def test_replay_past_decided_processes_leaves_no_cycles(self):
        with collector_paused():
            ctx = ExplorationContext(RacingConsensus(3), (7, 8, 9))
            row = ctx.replay(SOLO_RUNS)
            # Decided processes' steps stay on the same row.
            assert ctx.child(row, 0) == row
            del ctx
            assert gc.collect() == 0
