"""Failure injection: the crash-tolerance claims, exercised.

The paper's progress properties are all statements about surviving
crashes: the simulation is *wait-free* (Lemma 30), so simulators must
decide no matter which other simulators stop; the augmented snapshot is
*non-blocking* with wait-free Block-Updates and Scans blockable only by
ongoing Block-Updates (Lemma 23) — a process that crashes mid-operation
must not wedge anyone.  These tests crash processes at adversarial points
and assert the survivors' progress.
"""

import pytest

from repro.augmented import AugmentedSnapshot
from repro.augmented.linearization import check_all
from repro.core import check_correspondence, run_simulation
from repro.protocols import (
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    RotatingWrites,
    run_protocol,
)
from repro.runtime import (
    AdversarialScheduler,
    CrashAfterScheduler,
    System,
)


class TestAugmentedSnapshotCrashTolerance:
    @pytest.mark.parametrize("victim,after", [(0, 2), (1, 3), (2, 1)])
    def test_crash_mid_block_update_does_not_wedge_scans(self, victim, after):
        """A process that dies inside a Block-Update stops updating H, so
        other processes' Scans stabilize and complete."""
        aug = AugmentedSnapshot("M", components=2, pids=[0, 1, 2])
        system = System()

        def body(proc):
            for round_no in range(3):
                yield from aug.block_update(
                    proc.pid, [proc.pid % 2], [f"{proc.pid}.{round_no}"]
                )
                yield from aug.scan(proc.pid)

        for _ in range(3):
            system.add_process(body)
        scheduler = CrashAfterScheduler(seed=9, victim=victim, after=after)
        result = system.run(scheduler, max_steps=100_000)
        survivors = [pid for pid in (0, 1, 2) if pid != victim]
        for pid in survivors:
            assert system.processes[pid].status == "done"
        # The Appendix B lemmas hold on the crashed execution too: the
        # analysis handles incomplete operations.
        assert check_all(system.trace, aug) == []

    def test_crash_between_update_and_help_is_harmless(self):
        """Crash exactly after the update to H (line 25), before the
        helping writes: other processes can still complete (the victim's
        Updates linearize; nobody waits on its help)."""
        aug = AugmentedSnapshot("M", components=2, pids=[0, 1])
        system = System()

        def victim(proc):
            yield from aug.block_update(proc.pid, [0, 1], ["a", "b"])

        def survivor(proc):
            view1 = yield from aug.scan(proc.pid)
            yield from aug.block_update(proc.pid, [0], ["mine"])
            view2 = yield from aug.scan(proc.pid)
            return view1, view2

        system.add_process(victim, pid=0)
        system.add_process(survivor, pid=1)
        # Victim takes scan(23) + update(25) = 2 steps, then crashes.
        script = [0, 0, ("crash", 0)] + [1] * 50
        result = system.run(AdversarialScheduler(script), max_steps=10_000)
        assert system.processes[1].status == "done"
        view1, view2 = system.processes[1].output
        # The victim's Updates linearized at its update to H, so the
        # survivor's first scan already sees them.
        assert view1 == ("a", "b")
        assert view2 == ("mine", "b")
        assert check_all(system.trace, aug) == []


class TestSimulationCrashTolerance:
    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_surviving_simulators_decide(self, victim):
        """Wait-freedom (Lemma 30): crash any one simulator mid-run; the
        other k simulators still decide."""
        protocol = RotatingWrites(7, 3, rounds=4)
        scheduler = CrashAfterScheduler(seed=21, victim=victim, after=6)
        outcome = run_simulation(
            protocol, k=2, x=1, inputs=[5, 2, 8],
            scheduler=scheduler, max_steps=500_000,
        )
        assert outcome.result.completed
        survivors = {0, 1, 2} - {victim}
        assert survivors <= set(outcome.decisions)
        for rank in survivors:
            assert outcome.decisions[rank] in (5, 2, 8)

    @pytest.mark.parametrize("victim", [0, 1])
    def test_validity_preserved_under_crashes(self, victim):
        protocol = RotatingWrites(7, 3, rounds=4)
        inputs = [4, 9, 6]
        scheduler = CrashAfterScheduler(seed=33, victim=victim, after=10)
        outcome = run_simulation(
            protocol, k=2, x=1, inputs=inputs,
            scheduler=scheduler, max_steps=500_000,
        )
        for value in outcome.decisions.values():
            assert value in inputs

    def test_correspondence_holds_on_crashed_runs(self):
        """Lemma 28 with an incomplete simulator: the reconstruction covers
        whatever the crashed simulator managed to linearize."""
        protocol = RotatingWrites(7, 3, rounds=4)
        scheduler = CrashAfterScheduler(seed=17, victim=1, after=5)
        outcome = run_simulation(
            protocol, k=2, x=1, inputs=[5, 2, 8],
            scheduler=scheduler, max_steps=500_000,
        )
        correspondence = check_correspondence(outcome)
        assert correspondence.ok, correspondence.violations


class TestProtocolCrashTolerance:
    @pytest.mark.parametrize("seed", range(5))
    def test_wait_free_protocol_ignores_crashes(self, seed):
        """MinSeen is wait-free: crashing any process leaves the others'
        termination and validity untouched."""
        inputs = [7, 3, 9]
        scheduler = CrashAfterScheduler(seed=seed, victim=seed % 3, after=1)
        system, result = run_protocol(
            MinSeen(3, rounds=2), inputs, scheduler, max_steps=50_000
        )
        survivors = {0, 1, 2} - {seed % 3}
        for pid in survivors:
            assert pid in result.outputs
            assert result.outputs[pid] in inputs

    def test_consensus_survivor_decides_solo_after_crash(self):
        """Obstruction-freedom with a crash: once the other process dies,
        the survivor runs solo and must decide."""
        inputs = [0, 1]
        scheduler = CrashAfterScheduler(seed=2, victim=0, after=3)
        system, result = run_protocol(
            RacingConsensus(2), inputs, scheduler, max_steps=50_000
        )
        assert 1 in result.outputs
        assert KSetAgreementTask(1).check(inputs, result.outputs) == []
