"""Unit tests for schedulers."""

import random

import pytest

from repro.errors import SchedulerError
from repro.runtime.scheduler import (
    AdversarialScheduler,
    ObstructionScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    SoloScheduler,
    interleavings,
)


class TestRoundRobin:
    def test_cycles_in_pid_order(self):
        sched = RoundRobinScheduler()
        picks = [sched.next_pid([0, 1, 2]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_missing_pids(self):
        sched = RoundRobinScheduler()
        assert sched.next_pid([0, 1, 2]) == 0
        assert sched.next_pid([0, 2]) == 2
        assert sched.next_pid([0, 2]) == 0

    def test_empty_active_raises(self):
        with pytest.raises(SchedulerError):
            RoundRobinScheduler().next_pid([])

    def test_reset_restarts_cycle(self):
        sched = RoundRobinScheduler()
        sched.next_pid([0, 1])
        sched.reset()
        assert sched.next_pid([0, 1]) == 0


class TestRandom:
    def test_deterministic_given_seed(self):
        a = [RandomScheduler(5).next_pid([0, 1, 2]) for _ in range(1)]
        b = [RandomScheduler(5).next_pid([0, 1, 2]) for _ in range(1)]
        assert a == b

    def test_reset_replays_sequence(self):
        sched = RandomScheduler(9)
        first = [sched.next_pid([0, 1, 2, 3]) for _ in range(20)]
        sched.reset()
        second = [sched.next_pid([0, 1, 2, 3]) for _ in range(20)]
        assert first == second

    def test_covers_all_pids_eventually(self):
        sched = RandomScheduler(1)
        picks = {sched.next_pid([0, 1, 2]) for _ in range(100)}
        assert picks == {0, 1, 2}

    def test_weights_bias_choice(self):
        sched = RandomScheduler(2, weights={0: 1000.0, 1: 1e-9})
        picks = [sched.next_pid([0, 1]) for _ in range(50)]
        assert picks.count(0) > 45

    def test_empty_active_raises(self):
        with pytest.raises(SchedulerError):
            RandomScheduler(0).next_pid([])

    @pytest.mark.parametrize("seed", range(200))
    def test_draws_match_random_choice(self, seed):
        # The scheduler's draw must be exactly random.Random(seed).choice
        # over the sorted active pids, turn for turn, as processes finish:
        # every recorded schedule (and every pinned trace) depends on it.
        sched = RandomScheduler(seed)
        reference = random.Random(seed)
        budget = {pid: 3 + (seed + pid) % 5 for pid in (4, 0, 3, 1, 2)}
        active = list(budget)
        while active:
            pid = sched.next_pid(active)
            assert pid == reference.choice(sorted(active))
            budget[pid] -= 1
            if not budget[pid]:
                active = [p for p in active if p != pid]


class TestSolo:
    def test_always_picks_designated(self):
        sched = SoloScheduler(2)
        assert sched.next_pid([0, 1, 2]) == 2
        assert sched.next_pid([2]) == 2

    def test_raises_without_fallback(self):
        with pytest.raises(SchedulerError):
            SoloScheduler(2).next_pid([0, 1])

    def test_fallback_drains_rest(self):
        sched = SoloScheduler(2, fallback=True)
        assert sched.next_pid([0, 1]) == 0
        assert sched.next_pid([0, 1]) == 1


class TestObstruction:
    def test_prefix_then_group_only(self):
        sched = ObstructionScheduler(group=[0], prefix_steps=10, seed=4)
        prefix = [sched.next_pid([0, 1, 2]) for _ in range(10)]
        assert set(prefix) <= {0, 1, 2}
        tail = [sched.next_pid([0, 1, 2]) for _ in range(5)]
        assert tail == [0] * 5

    def test_group_of_x_alternates(self):
        sched = ObstructionScheduler(group=[1, 2], prefix_steps=0, seed=0)
        tail = [sched.next_pid([0, 1, 2]) for _ in range(4)]
        assert tail == [1, 2, 1, 2]

    def test_drains_after_group_done(self):
        sched = ObstructionScheduler(group=[1], prefix_steps=0, seed=0)
        assert sched.next_pid([0, 2]) == 0

    def test_empty_group_rejected(self):
        with pytest.raises(SchedulerError):
            ObstructionScheduler(group=[], prefix_steps=0, seed=0)


class TestAdversarial:
    def test_replays_script(self):
        sched = AdversarialScheduler([2, 0, 1])
        assert [sched.next_pid([0, 1, 2]) for _ in range(3)] == [2, 0, 1]

    def test_roundrobin_after_script(self):
        sched = AdversarialScheduler([1], then="roundrobin")
        assert sched.next_pid([0, 1]) == 1
        assert sched.next_pid([0, 1]) == 0

    def test_stop_after_script(self):
        sched = AdversarialScheduler([1], then="stop")
        sched.next_pid([0, 1])
        with pytest.raises(SchedulerError):
            sched.next_pid([0, 1])

    def test_crash_directives_are_queued(self):
        sched = AdversarialScheduler([("crash", 0), 1])
        assert sched.next_pid([0, 1]) == 1
        assert sched.pending_crashes == [0]

    def test_scripted_inactive_pid_raises(self):
        sched = AdversarialScheduler([5])
        with pytest.raises(SchedulerError):
            sched.next_pid([0, 1])

    def test_skip_inactive_drops_finished_pids(self):
        sched = AdversarialScheduler([5, 1, 0], skip_inactive=True)
        assert sched.next_pid([0, 1]) == 1  # 5 silently skipped
        assert sched.next_pid([0, 1]) == 0

    def test_skip_inactive_consumes_following_crashes(self):
        sched = AdversarialScheduler(
            [5, ("crash", 1), 0], skip_inactive=True
        )
        assert sched.next_pid([0, 1]) == 0
        assert sched.pending_crashes == [1]

    def test_skip_inactive_falls_through_to_continuation(self):
        sched = AdversarialScheduler([5, 5], skip_inactive=True)
        assert sched.next_pid([0, 1]) == 0  # round-robin continuation

    def test_unknown_continuation_rejected(self):
        with pytest.raises(SchedulerError):
            AdversarialScheduler([], then="loop")


class TestInterleavings:
    def test_count(self):
        assert len(list(interleavings([0, 1], 3))) == 8

    def test_zero_length(self):
        assert list(interleavings([0, 1], 0)) == [()]

    def test_all_unique(self):
        scripts = list(interleavings([0, 1, 2], 2))
        assert len(scripts) == len(set(scripts)) == 9
