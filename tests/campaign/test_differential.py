"""Pump drains of the sweep and fuzz campaigns equal serial runs exactly.

The campaign helpers' ``run_campaign`` becomes the differential
matrix's pump drain (``tests/test_matrix.py``) at 1, 2 and 4 workers,
completing chunks in hand-out or reverse order, and the merged report
must equal the serial harness call by ``==``, ``repr`` and
``summary()``.  The matrix's ``sharded`` column runs the same
instances through ``run_campaign``; folding these drains into it is
open in ROADMAP.md.
"""

import functools

import pytest

from repro.analysis.fuzz import fuzz_protocol
from repro.campaign import (
    engine,
    fuzz_campaign,
    sweep_protocol_campaign,
    sweep_simulation_campaign,
)
from repro.core.sweep import sweep_protocol, sweep_simulation
from repro.protocols import (
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    TruncatedProtocol,
)
from tests.test_matrix import assert_identical, drain_pump

WORKER_GRID = [1, 2, 4]


@pytest.fixture(params=["handed", "reversed"])
def pump_drain(request, monkeypatch):
    """Route the campaign helpers through the matrix's pump drain."""
    monkeypatch.setattr(engine, "run_campaign",
                        functools.partial(drain_pump, order=request.param))


PROTOCOL_CASES = [
    # (protocol factory, inputs, task) — n varies across cases.
    (lambda: MinSeen(3, rounds=2), [4, 1, 9], KSetAgreementTask(3)),
    (lambda: RacingConsensus(3), [0, 1, 1], KSetAgreementTask(1)),
    (lambda: TruncatedProtocol(RacingConsensus(4), 1), [0, 1, 0, 1],
     KSetAgreementTask(1)),
]


class TestSweepProtocolDifferential:
    def test_histogram_and_min_seed_fields(self):
        # The violating case: every field the write-ups quote must agree.
        make, inputs, task = PROTOCOL_CASES[2]
        serial = sweep_protocol(make(), inputs, range(10), task=task)
        result = sweep_protocol_campaign(
            make(), inputs, range(10), task=task, workers=4, chunk_size=3,
        )
        assert result.report.decisions_histogram == (
            serial.decisions_histogram
        )
        assert result.report.first_violating_seed == (
            serial.first_violating_seed
        )


@pytest.mark.usefixtures("pump_drain")
class TestPumpSweepProtocolDifferential(TestSweepProtocolDifferential):
    """The sweep-protocol grid, drained through a pump."""

    @pytest.mark.parametrize("case", range(len(PROTOCOL_CASES)))
    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_matches_serial(self, case, workers):
        make, inputs, task = PROTOCOL_CASES[case]
        seeds = range(12)
        serial = sweep_protocol(make(), inputs, seeds, task=task)
        result = sweep_protocol_campaign(
            make(), inputs, seeds, task=task, workers=workers,
            chunk_size=5,
        )
        assert_identical(result.report, serial, "pump drain")


@pytest.mark.usefixtures("pump_drain")
class TestPumpSweepSimulationDifferential:
    """The falsifier sweep, drained through a pump."""

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_falsifier_matches_serial(self, workers):
        protocol = TruncatedProtocol(RacingConsensus(2), 1)
        serial = sweep_simulation(
            protocol, k=1, x=1, inputs=[0, 1], seeds=range(8),
            task=KSetAgreementTask(1),
        )
        result = sweep_simulation_campaign(
            TruncatedProtocol(RacingConsensus(2), 1), k=1, x=1,
            inputs=[0, 1], seeds=range(8), task=KSetAgreementTask(1),
            workers=workers, chunk_size=3,
        )
        assert_identical(result.report, serial, "pump drain")
        assert result.report.first_violating_seed == 0


@pytest.mark.usefixtures("pump_drain")
class TestPumpFuzzDifferential:
    """The fuzz grid, drained through a pump."""

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_violating_fuzz_matches_serial(self, workers):
        protocol = TruncatedProtocol(RacingConsensus(3), 1)
        serial = fuzz_protocol(
            protocol, [0, 1, 2], KSetAgreementTask(1), runs=80,
            schedule_length=40, seed=3,
        )
        result = fuzz_campaign(
            TruncatedProtocol(RacingConsensus(3), 1), [0, 1, 2],
            KSetAgreementTask(1), runs=80, schedule_length=40, seed=3,
            workers=workers, chunk_size=9,
        )
        assert_identical(result.report, serial, "pump drain")
        # The shrunken counterexample is the same object content-wise.
        assert result.report.minimized == serial.minimized
        assert result.report.first_violation_schedule == (
            serial.first_violation_schedule
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_clean_fuzz_matches_serial(self, workers):
        serial = fuzz_protocol(
            RacingConsensus(3), [0, 1, 1], KSetAgreementTask(1),
            runs=60, schedule_length=50, seed=2,
        )
        result = fuzz_campaign(
            RacingConsensus(3), [0, 1, 1], KSetAgreementTask(1),
            runs=60, schedule_length=50, seed=2, workers=workers,
        )
        assert_identical(result.report, serial, "pump drain")
        assert result.report.clean
