"""Tests for the BG simulation and its safe-agreement substrate."""

import pytest

from repro.core.bg import (
    AGREED,
    EMPTY,
    PENDING,
    BGSimulation,
    SafeAgreement,
    run_bg_simulation,
)
from repro.errors import ModelError, ValidationError
from repro.protocols import ImmediateDecide, MinSeen, RotatingWrites
from repro.runtime import (
    AdversarialScheduler,
    CrashAfterScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    System,
)


class TestSafeAgreement:
    def run_proposers(self, values, scheduler=None, crash_script=None):
        sa = SafeAgreement("SA", pids=list(range(len(values))))
        system = System()

        def proposer(value):
            def body(proc):
                yield from sa.propose(proc.pid, value)
                status, agreed = yield from sa.resolve(proc.pid)
                return status, agreed

            return body

        for value in values:
            system.add_process(proposer(value))
        result = system.run(
            scheduler or RoundRobinScheduler(), max_steps=10_000
        )
        return sa, system, result

    def test_solo_proposer_agrees_on_own_value(self):
        _sa, _system, result = self.run_proposers(["only"])
        assert result.outputs[0] == (AGREED, "only")

    @pytest.mark.parametrize("seed", range(15))
    def test_agreement_and_validity(self, seed):
        values = ["a", "b", "c"]
        _sa, _system, result = self.run_proposers(
            values, RandomScheduler(seed)
        )
        outcomes = {
            agreed for status, agreed in result.outputs.values()
            if status == AGREED
        }
        assert len(outcomes) == 1
        assert outcomes <= set(values)

    def test_resolution_is_stable(self):
        """Once AGREED, later resolves return the same value."""
        sa = SafeAgreement("SA", pids=[0, 1])
        system = System()
        log = []

        def body(proc):
            yield from sa.propose(proc.pid, f"v{proc.pid}")
            for _ in range(3):
                log.append((yield from sa.resolve(proc.pid)))

        for _ in range(2):
            system.add_process(body)
        system.run(RandomScheduler(3), max_steps=10_000)
        agreed = {value for status, value in log if status == AGREED}
        assert len(agreed) == 1

    def test_empty_before_any_proposal(self):
        sa = SafeAgreement("SA", pids=[0, 1])
        system = System()

        def body(proc):
            return (yield from sa.resolve(proc.pid))

        system.add_process(body)
        result = system.run(RoundRobinScheduler())
        assert result.outputs[0] == (EMPTY, None)

    def test_pending_while_rival_in_window(self):
        """A proposer crashed between its level-1 and level-2 writes leaves
        the object permanently PENDING — the BG blocking behaviour."""
        sa = SafeAgreement("SA", pids=[0, 1])
        system = System()

        def victim(proc):
            yield from sa.propose(proc.pid, "dead")

        def observer(proc):
            return (yield from sa.resolve(proc.pid))

        system.add_process(victim, pid=0)
        system.add_process(observer, pid=1)
        # Victim takes its level-1 write, then crashes before the scan.
        script = [0, ("crash", 0), 1]
        result = system.run(AdversarialScheduler(script), max_steps=1_000)
        assert result.outputs[1] == (PENDING, None)

    def test_double_propose_rejected(self):
        sa = SafeAgreement("SA", pids=[0])
        system = System()

        def body(proc):
            yield from sa.propose(proc.pid, "x")
            yield from sa.propose(proc.pid, "y")

        system.add_process(body)
        with pytest.raises(ModelError):
            system.run(RoundRobinScheduler(), max_steps=1_000)

    def test_unknown_proposer_rejected(self):
        sa = SafeAgreement("SA", pids=[0])
        with pytest.raises(ModelError):
            list(sa.propose(5, "v"))


class TestBGSimulation:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_simulated_processes_complete(self, seed):
        inputs = [5, 2, 8, 1]
        outcome = run_bg_simulation(
            RotatingWrites(4, 3, rounds=3), inputs, simulators=3,
            scheduler=RandomScheduler(seed), max_steps=400_000,
        )
        assert outcome.result.completed
        assert set(outcome.simulated_outputs) == {0, 1, 2, 3}
        for value in outcome.simulated_outputs.values():
            assert value in inputs

    @pytest.mark.parametrize("seed", range(10))
    def test_simulators_agree_per_process(self, seed):
        """All simulators derive identical decisions for each simulated
        process (scan outcomes are agreed, updates deterministic)."""
        inputs = [5, 2, 8]
        simulation = BGSimulation(
            MinSeen(3, rounds=2), inputs, simulator_pids=[0, 1]
        )
        system = System()
        announce = {}
        for pid in (0, 1):
            system.add_process(simulation.simulator_body(announce), pid=pid)
        result = system.run(RandomScheduler(seed), max_steps=400_000)
        assert result.completed
        per_simulator = [
            system.processes[pid].output["outputs"] for pid in (0, 1)
        ]
        assert per_simulator[0] == per_simulator[1]

    def test_single_simulator_degenerates_to_sequential(self):
        inputs = ["x", "y"]
        outcome = run_bg_simulation(
            ImmediateDecide(2), inputs, simulators=1,
            scheduler=RoundRobinScheduler(), max_steps=50_000,
        )
        assert outcome.simulated_outputs == {0: "x", 1: "y"}

    def test_too_many_inputs_rejected(self):
        with pytest.raises(ValidationError):
            run_bg_simulation(
                ImmediateDecide(1), [1, 2], simulators=2,
                scheduler=RoundRobinScheduler(),
            )


class TestBGCrashTolerance:
    """The defining property: f crashed simulators block at most f
    simulated processes; the rest finish."""

    @pytest.mark.parametrize("after", [1, 2, 4, 7])
    def test_one_crash_blocks_at_most_one_process(self, after):
        inputs = [5, 2, 8, 1]
        scheduler = CrashAfterScheduler(seed=3, victim=0, after=after)
        outcome = run_bg_simulation(
            RotatingWrites(4, 3, rounds=3), inputs, simulators=3,
            scheduler=scheduler, max_steps=400_000, give_up_after=60,
        )
        assert outcome.result.completed
        # At least n - 1 simulated processes decided.
        assert outcome.completed_processes >= len(inputs) - 1
        for pid, blocked in outcome.blocked.items():
            assert len(blocked) <= 1

    def test_crash_free_run_blocks_nothing(self):
        outcome = run_bg_simulation(
            RotatingWrites(3, 2, rounds=2), [7, 8, 9], simulators=2,
            scheduler=RandomScheduler(5), max_steps=400_000,
            give_up_after=60,
        )
        assert outcome.completed_processes == 3
        assert all(not blocked for blocked in outcome.blocked.values())
