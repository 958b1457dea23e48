"""Register-level execution: the whole stack on raw reads and writes."""

import pytest

from repro.core import run_simulation
from repro.errors import ProtocolError, ValidationError
from repro.augmented import AugmentedSnapshot
from repro.augmented.linearization import extract_operations
from repro.protocols import (
    CASConsensus,
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    RotatingWrites,
    SwapConsensus,
    TASConsensus,
    TruncatedProtocol,
)
from repro.protocols.registers_runtime import run_protocol_on_registers
from repro.runtime import RandomScheduler, RoundRobinScheduler, System


class TestProtocolOnRegisters:
    @pytest.mark.parametrize("seed", range(8))
    def test_min_seen_validity(self, seed):
        inputs = [5, 2, 8]
        system, result, snapshot = run_protocol_on_registers(
            MinSeen(3, rounds=2), inputs, RandomScheduler(seed)
        )
        assert result.completed
        for value in result.outputs.values():
            assert value in inputs

    def test_space_is_exactly_m_registers(self):
        _sys, _res, snapshot = run_protocol_on_registers(
            RotatingWrites(3, 3, rounds=2), [1, 2, 3], RoundRobinScheduler()
        )
        assert snapshot.register_count() == 3

    def test_every_step_is_a_register_access(self):
        system, _res, _snap = run_protocol_on_registers(
            MinSeen(2), [1, 2], RoundRobinScheduler()
        )
        for event in system.trace.steps():
            assert event.op in ("read", "write")

    @pytest.mark.parametrize("seed", range(5))
    def test_racing_consensus_safety_on_registers(self, seed):
        inputs = [0, 1, 1]
        _sys, result, _snap = run_protocol_on_registers(
            RacingConsensus(3), inputs, RandomScheduler(seed),
            max_steps=500_000,
        )
        assert KSetAgreementTask(1).check(inputs, result.outputs) == []

    def test_too_many_inputs_rejected(self):
        with pytest.raises(ValidationError):
            run_protocol_on_registers(
                MinSeen(1), [1, 2], RoundRobinScheduler()
            )


    @pytest.mark.parametrize("protocol, operation", [
        (SwapConsensus(2), "swap"),
        (CASConsensus(2), "compare_and_swap"),
        (TASConsensus(2), "test_and_set"),
    ])
    def test_rmw_protocol_is_a_named_protocol_error(
        self, protocol, operation
    ):
        """Registers cannot implement a read-modify-write step; the
        error says so, naming the protocol and the operation."""
        with pytest.raises(ProtocolError) as excinfo:
            run_protocol_on_registers(
                protocol, [0, 1], RoundRobinScheduler()
            )
        message = str(excinfo.value)
        assert message.startswith(f"{protocol.name}: ")
        assert repr(operation) in message
        assert "read/write registers cannot implement it" in message


class TestRegisterLevelAugmented:
    def test_registers_only_trace(self):
        system = System()
        aug = AugmentedSnapshot(
            "M", components=2, pids=[0, 1], register_level=True
        )

        def body(proc):
            yield from aug.block_update(proc.pid, [proc.pid % 2], ["v"])
            return (yield from aug.scan(proc.pid))

        for _ in range(2):
            system.add_process(body)
        result = system.run(RandomScheduler(4), max_steps=100_000)
        assert result.completed
        for event in system.trace.steps():
            assert event.op in ("read", "write")

    def test_analysis_unavailable_with_clear_error(self):
        system = System()
        aug = AugmentedSnapshot(
            "M", components=1, pids=[0], register_level=True
        )

        def body(proc):
            yield from aug.block_update(proc.pid, [0], ["v"])

        system.add_process(body)
        system.run(RoundRobinScheduler(), max_steps=10_000)
        with pytest.raises(ValidationError, match="register-level"):
            extract_operations(system.trace, aug)

    def test_register_count_counts_afek_registers(self):
        aug = AugmentedSnapshot(
            "M", components=3, pids=[0, 1, 2], register_level=True
        )
        # H is one register per sharing process in the Afek construction.
        assert aug.register_count() == 3


class TestRegisterLevelSimulation:
    @pytest.mark.parametrize("seed", range(5))
    def test_positive_run(self, seed):
        inputs = [4, 7]
        outcome = run_simulation(
            RotatingWrites(5, 2, rounds=3), k=1, x=1, inputs=inputs,
            scheduler=RandomScheduler(seed), max_steps=800_000,
            register_level=True,
        )
        assert outcome.result.completed
        assert outcome.all_decided
        for value in outcome.decisions.values():
            assert value in inputs

    @pytest.mark.parametrize("seed", range(5))
    def test_falsifier_on_raw_registers(self, seed):
        """Theorem 3's violation manifests even when the entire reduction
        bottoms out in reads and writes."""
        broken = TruncatedProtocol(RacingConsensus(2), 1)
        outcome = run_simulation(
            broken, k=1, x=1, inputs=[0, 1],
            scheduler=RandomScheduler(seed), max_steps=800_000,
            register_level=True,
        )
        assert outcome.task_violations(KSetAgreementTask(1))

    def test_matches_native_mode_decisions_under_quiet_schedule(self):
        """Under a sequential-ish schedule both modes decide the same."""
        inputs = [4, 7]
        native = run_simulation(
            RotatingWrites(5, 2, rounds=3), k=1, x=1, inputs=inputs,
            scheduler=RoundRobinScheduler(), max_steps=800_000,
        )
        registers = run_simulation(
            RotatingWrites(5, 2, rounds=3), k=1, x=1, inputs=inputs,
            scheduler=RoundRobinScheduler(), max_steps=800_000,
            register_level=True,
        )
        assert set(native.decisions.values()) == set(
            registers.decisions.values()
        )
