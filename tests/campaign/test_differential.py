"""Differential suite: parallel campaigns equal serial runs exactly.

For a grid of (harness, protocol, instance, worker count), the campaign
engine's merged report must equal the plain serial harness call
field-for-field — including ``decisions_histogram`` and
``first_violating_seed`` — and even as a byte string (``repr``).  This
is the evidence that parallelism never changes a scientific result.

The ``TestPump*`` classes rerun the same grid with one more drain: the
campaign helpers' ``run_campaign`` is replaced by a
:class:`~repro.campaign.pump.CampaignPump` driven chunk-by-chunk on the
calling thread, completing chunks in the order it hands them out or in
reverse, and the merged report must still equal the serial harness.
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
from repro.campaign.pump import CampaignPump, execute_chunk
from repro.core.sweep import sweep_protocol, sweep_simulation
from repro.protocols import (
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    RotatingWrites,
    TruncatedProtocol,
)

WORKER_GRID = [1, 2, 4]


def drain_pump(job, workers=None, chunk_size=None, *, order,
               faults=None, **options):
    """Run a campaign through a pump on this thread.

    ``order="handed"`` completes each chunk as it is handed out;
    ``order="reversed"`` hands out every ready chunk first and completes
    them in reverse, so the merge sees out-of-order completions.
    """
    assert faults is None
    pump = CampaignPump(job, workers, chunk_size, **options)
    while not pump.done:
        tasks = []
        while order == "reversed" or not tasks:
            task = pump.next_chunk()
            if task is None:
                break
            tasks.append(task)
        assert tasks, "pump stalled with work outstanding"
        if order == "reversed":
            tasks.reverse()
        for task in tasks:
            _, report, stats = execute_chunk(
                pump.job, task.index, task.start, task.stop, task.attempt
            )
            pump.complete(task, report, stats)
    result = pump.finalize()
    assert result.complete
    return result


@pytest.fixture(params=["handed", "reversed"])
def pump_drain(request, monkeypatch):
    """Route the campaign helpers through :func:`drain_pump`."""
    monkeypatch.setattr(engine, "run_campaign",
                        functools.partial(drain_pump, order=request.param))


def assert_reports_identical(parallel, serial):
    assert parallel == serial
    assert repr(parallel) == repr(serial)
    assert parallel.summary() == serial.summary()


PROTOCOL_CASES = [
    # (protocol factory, inputs, task) — n varies across cases.
    (lambda: MinSeen(3, rounds=2), [4, 1, 9], KSetAgreementTask(3)),
    (lambda: RacingConsensus(3), [0, 1, 1], KSetAgreementTask(1)),
    (lambda: TruncatedProtocol(RacingConsensus(4), 1), [0, 1, 0, 1],
     KSetAgreementTask(1)),
]


class TestSweepProtocolDifferential:
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
        assert_reports_identical(result.report, serial)

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


class TestSweepSimulationDifferential:
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
        assert_reports_identical(result.report, serial)
        assert result.report.first_violating_seed == 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_verified_positive_matches_serial(self, workers):
        serial = sweep_simulation(
            RotatingWrites(7, 3, rounds=6), k=2, x=1, inputs=[5, 2, 8],
            seeds=range(6), verify_correspondence=True,
        )
        result = sweep_simulation_campaign(
            RotatingWrites(7, 3, rounds=6), k=2, x=1, inputs=[5, 2, 8],
            seeds=range(6), verify_correspondence=True, workers=workers,
            chunk_size=2,
        )
        assert_reports_identical(result.report, serial)
        assert result.report.clean


class TestFuzzDifferential:
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
        assert_reports_identical(result.report, serial)
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
        assert_reports_identical(result.report, serial)
        assert result.report.clean


@pytest.mark.usefixtures("pump_drain")
class TestPumpSweepProtocolDifferential(TestSweepProtocolDifferential):
    """The sweep-protocol grid, drained through a pump."""


@pytest.mark.usefixtures("pump_drain")
class TestPumpSweepSimulationDifferential(TestSweepSimulationDifferential):
    """The sweep-simulation grid, drained through a pump."""


@pytest.mark.usefixtures("pump_drain")
class TestPumpFuzzDifferential(TestFuzzDifferential):
    """The fuzz grid, drained through a pump."""
