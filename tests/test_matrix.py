"""The differential matrix: one report, however a registry target runs.

The reproduction's results rest on one contract: a campaign's report
is the same whichever way it is computed.  This module checks that
contract for every target of the scenario registry
(:mod:`repro.protocols.scenarios`) as one matrix of (row, column)
cells.

**Rows** are the registry targets at one fixed small size, each built
from the job service spec that names it: the ``SCENARIOS`` explored
(``explore:<name>``), the ``SWEEPS`` swept (``protocol:<name>``), the
fuzz target ``FUZZ_SCENARIO`` and the ``falsify_target()`` simulation
sweep.  Three more spec rows vary the explorer's modes
(``explore:<name>+symmetry``, ``explore:racing+prefix0``), and
``JOB_ROWS`` holds the jobs no spec can name, built here: a violating
four-process sweep, a Lemma-28-verified simulation sweep, a clean fuzz
and an exploration that collects every violation.

**Columns** are the ways to compute a row's report:

* ``serial`` — the plain harness call the campaign job shards; the
  SHA-256 of its ``repr`` must equal the row's entry in
  ``tests/data/matrix_digests.json``;
* ``pump-reversed`` — a :class:`~repro.campaign.pump.CampaignPump`
  whose ready chunks complete in reverse order;
* ``kill-resume`` — killed at each chunk in turn, then resumed from
  the journal;
* ``torn-resume`` — journaled, the last record cut mid-line, resumed;
* ``sharded-<w>`` — :func:`~repro.campaign.run_campaign` at ``w`` = 1,
  2 and 4 workers: in-process at 1, on a process pool otherwise
  whenever there is more than one chunk (the cell checks the
  telemetry's ``pool:`` mode, so a silent in-process fallback fails
  it).  Explore rows shard at the chunk sizes of
  ``SHARDED_CHUNK_SIZE`` (1, 2, 4 and 100 all occur), the other rows
  at their own;
* ``service`` — submitted to a running job service (spec rows only).

The ``kill-resume``, ``torn-resume`` and ``sharded-1`` cells drain the
campaign pump on the calling thread in the order it hands chunks out,
and ``pump-reversed`` in reverse.

Every other cell must equal the ``serial`` cell by ``==``, ``repr``
and ``summary()``, and a failure names its row, its column and the
digest of the report it got.  A ``serial`` digest mismatch is a report
drift: if the drift is intended, review the report change and commit
the new digest, so every drift is one reviewed diff of the golden file.

The frozen reference explorer, symmetry reduced vs unreduced runs,
pump drains at several worker counts and the runtime replay of the
pure seeded executor are checked by the per-suite grids
(docs/CAMPAIGNS.md lists them).
"""

import asyncio
import functools
import hashlib
import json
import os

import pytest

from repro.analysis import explore_protocol, fuzz_protocol
from repro.campaign import (
    CampaignKilled,
    ExploreJob,
    FaultPlan,
    FuzzJob,
    SweepProtocolJob,
    SweepSimulationJob,
    plan_chunks,
    run_campaign,
)
from repro.campaign.pump import CampaignPump, execute_chunk
from repro.core.sweep import sweep_protocol, sweep_simulation
from repro.protocols import (
    KSetAgreementTask,
    RacingConsensus,
    RotatingWrites,
    TruncatedProtocol,
)
from repro.protocols.scenarios import FUZZ_SCENARIO, SCENARIOS, SWEEPS
from repro.serve import TenantQuotas
from repro.serve.jobspec import JobSpec, build_job
from tests.serve.conftest import call, running_app, wait_state

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "matrix_digests.json"
)

#: Explore-row bounds per registry scenario: the horizon, the budget
#: and the prefix depth vary across rows, so each is covered somewhere.
EXPLORE_SIZES = {
    "truncated": dict(max_configs=100_000, max_steps=20, prefix_depth=2),
    "racing": dict(max_configs=50_000, max_steps=14, prefix_depth=3),
    "minseen": dict(max_configs=100_000, max_steps=None, prefix_depth=1),
    "anonymous": dict(max_configs=100_000, max_steps=None, prefix_depth=2),
    "swap": dict(max_configs=100_000, max_steps=None, prefix_depth=2),
    "cas": dict(max_configs=100_000, max_steps=None, prefix_depth=2),
    "tas": dict(max_configs=100_000, max_steps=None, prefix_depth=2),
    "large-register": dict(
        max_configs=100_000, max_steps=None, prefix_depth=2
    ),
}

#: Row name -> the job service spec that builds the row's campaign job.
SPEC_ROWS = {
    **{
        f"explore:{scenario}": dict(
            experiment="explore", scenario=scenario, chunk_size=1, **size
        )
        for scenario, size in EXPLORE_SIZES.items()
    },
    # Symmetry reduction sharded: a protocol it reduces, and one it
    # leaves alone (whose report must be explore:racing's).
    **{
        f"explore:{scenario}+symmetry": dict(
            experiment="explore", scenario=scenario, chunk_size=2,
            symmetry=True, **EXPLORE_SIZES[scenario],
        )
        for scenario in ("anonymous", "racing")
    },
    # Prefix depth 0: the whole tree is one unit.
    "explore:racing+prefix0": dict(
        experiment="explore", scenario="racing", chunk_size=1,
        **{**EXPLORE_SIZES["racing"], "prefix_depth": 0},
    ),
    **{
        f"protocol:{name}": dict(
            experiment="protocol", protocol=name, seeds=60, chunk_size=5
        )
        for name in SWEEPS
    },
    f"fuzz:{FUZZ_SCENARIO}": dict(
        experiment="fuzz", runs=40, schedule_length=40, seed=3,
        chunk_size=9,
    ),
    "falsify": dict(experiment="falsify", seeds=8, chunk_size=3),
}

#: Row name -> (builder of the campaign job, chunk size) for the rows
#: no service spec names.
JOB_ROWS = {
    # Violating, with a decisions histogram and a first violating seed.
    "protocol:truncated-racing4": (lambda: SweepProtocolJob(
        protocol=TruncatedProtocol(RacingConsensus(4), 1),
        inputs=(0, 1, 0, 1), seeds=tuple(range(12)),
        task=KSetAgreementTask(1),
    ), 3),
    "simulate:rotating-writes": (lambda: SweepSimulationJob(
        protocol=RotatingWrites(7, 3, rounds=6), k=2, x=1,
        inputs=(5, 2, 8), seeds=tuple(range(6)),
        verify_correspondence=True,
    ), 2),
    "fuzz:racing-clean": (lambda: FuzzJob(
        protocol=RacingConsensus(3), inputs=(0, 1, 1),
        task=KSetAgreementTask(1), runs=60, schedule_length=50, seed=2,
    ), 15),
    # Collects every violation, under a budget that binds: each unit
    # stops at its share of max_configs over the whole decomposition.
    "explore:truncated+collect-all": (lambda: ExploreJob(
        protocol=TruncatedProtocol(RacingConsensus(3), 1),
        inputs=(0, 1, 2), task=KSetAgreementTask(1), max_configs=6_000,
        max_steps=12, stop_at_first_violation=False, prefix_depth=2,
    ), 3),
}

ROWS = [*SPEC_ROWS, *JOB_ROWS]

#: Chunk size of each explore row's ``sharded`` cells, where it differs
#: from the row's own.
SHARDED_CHUNK_SIZE = {
    "explore:truncated": 2,
    "explore:anonymous": 4,
    "explore:swap": 100,
    "explore:cas": 2,
    "explore:tas": 4,
    "explore:truncated+collect-all": 4,
}


def build(name):
    """A fresh campaign job for the row (spec rows as the service
    builds them)."""
    if name in SPEC_ROWS:
        return build_job(JobSpec.from_dict(SPEC_ROWS[name]))
    return JOB_ROWS[name][0]()


def chunk_size_of(name):
    """The row's chunk size."""
    if name in SPEC_ROWS:
        return SPEC_ROWS[name]["chunk_size"]
    return JOB_ROWS[name][1]


def serial_run(job):
    """The plain serial harness call a campaign job shards."""
    if isinstance(job, ExploreJob):
        return explore_protocol(
            job.protocol, list(job.inputs), job.task,
            max_configs=job.max_configs, max_steps=job.max_steps,
            stop_at_first_violation=job.stop_at_first_violation,
            prefix_depth=job.prefix_depth, symmetry=job.symmetry,
        )
    if isinstance(job, SweepProtocolJob):
        return sweep_protocol(
            job.protocol, list(job.inputs), list(job.seeds),
            task=job.task, max_steps=job.max_steps,
        )
    if isinstance(job, FuzzJob):
        return fuzz_protocol(
            job.protocol, list(job.inputs), job.task, runs=job.runs,
            schedule_length=job.schedule_length, seed=job.seed,
            shrink=job.shrink,
            max_saved_violations=job.max_saved_violations,
        )
    return sweep_simulation(
        job.protocol, k=job.k, x=job.x, inputs=list(job.inputs),
        seeds=list(job.seeds), task=job.task,
        verify_correspondence=job.verify_correspondence,
        max_steps=job.max_steps, **job.run_kwargs,
    )


@functools.lru_cache(maxsize=None)
def serial(name):
    """The row's serial report, computed once per test session (cells
    only compare against it)."""
    return serial_run(build(name))


def digest(report):
    """SHA-256 of a report's ``repr``: the bytes the contract pins."""
    return hashlib.sha256(repr(report).encode()).hexdigest()


def assert_identical(report, expected, cell):
    """``repr`` (by digest), ``==`` and ``summary()`` all agree."""
    got, want = digest(report), digest(expected)
    assert got == want, f"{cell}: report digest {got}, serial {want}"
    assert report == expected, cell
    assert report.summary() == expected.summary(), cell


# -- columns ---------------------------------------------------------------
#
# Each column computes the row's report its own way and checks it
# against the serial cell.  The service column reads the shared service
# fixture instead.


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


def pump_reversed(name, tmp_path):
    result = drain_pump(build(name), 1, chunk_size_of(name),
                        order="reversed")
    assert_identical(result.report, serial(name), f"{name}/pump-reversed")


def kill_resume(name, tmp_path):
    """Kill at chunk k, resume from the journal: for every k."""
    chunk_size = chunk_size_of(name)
    chunks = len(plan_chunks(build(name).total_units(), chunk_size))
    expected = serial(name)
    for k in range(chunks):
        path = str(tmp_path / f"kill_{k}.ckpt")
        with pytest.raises(CampaignKilled):
            run_campaign(
                build(name), workers=1, chunk_size=chunk_size,
                checkpoint=path, faults=FaultPlan.kill_at(k),
            )
        result = run_campaign(
            build(name), workers=1, chunk_size=chunk_size, checkpoint=path,
            resume=True,
        )
        assert result.complete
        assert result.telemetry.skipped_chunks == k
        assert_identical(
            result.report, expected, f"{name}/kill-resume at chunk {k}"
        )


def torn_resume(name, tmp_path):
    """Cut the journal's last record mid-line: the resume re-runs that
    chunk alone and appends the same bytes back."""
    chunk_size = chunk_size_of(name)
    path = tmp_path / "journal.ckpt"
    run_campaign(
        build(name), workers=1, chunk_size=chunk_size, checkpoint=str(path)
    )
    journal = path.read_bytes()
    last = journal.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(journal[: (last + len(journal)) // 2])
    result = run_campaign(
        build(name), workers=1, chunk_size=chunk_size,
        checkpoint=str(path), resume=True,
    )
    chunks = result.telemetry.skipped_chunks + 1
    assert [stats.index for stats in result.telemetry.chunks] == [chunks - 1]
    assert path.read_bytes() == journal
    assert_identical(result.report, serial(name), f"{name}/torn-resume")


def sharded(name, tmp_path, workers):
    """Run the campaign at ``workers`` workers: on a process pool when
    there is more than one worker and more than one chunk."""
    result = run_campaign(
        build(name), workers=workers,
        chunk_size=SHARDED_CHUNK_SIZE.get(name, chunk_size_of(name)),
    )
    cell = f"{name}/sharded-{workers}"
    assert result.complete, cell
    if workers > 1 and len(result.telemetry.chunks) > 1:
        assert result.telemetry.mode.startswith("pool:"), (
            f"{cell}: ran {result.telemetry.mode}"
        )
    assert_identical(result.report, serial(name), cell)


COLUMNS = {
    "serial": None,
    "pump-reversed": pump_reversed,
    "kill-resume": kill_resume,
    "torn-resume": torn_resume,
    **{
        f"sharded-{workers}": functools.partial(sharded, workers=workers)
        for workers in (1, 2, 4)
    },
    "service": None,
}

#: Every (row, column) cell; only spec rows have a ``service`` cell.
CELLS = [
    (name, column)
    for name in ROWS
    for column in COLUMNS
    if column != "service" or name in SPEC_ROWS
]


@pytest.fixture(scope="module")
def service_reports(tmp_path_factory):
    """Every row submitted to one running job service at once; row name
    -> the finished job's report."""

    async def scenario():
        quotas = TenantQuotas(max_active_jobs=len(SPEC_ROWS))
        state = tmp_path_factory.mktemp("service")
        async with running_app(state, quotas=quotas) as (_app, client):
            submitted = {
                name: (await call(client.submit, spec))["id"]
                for name, spec in SPEC_ROWS.items()
            }
            reports = {}
            for name, job_id in submitted.items():
                await wait_state(client, job_id, ("done",))
                reports[name] = await call(client.report, job_id)
            return reports

    return asyncio.run(scenario())


@pytest.mark.parametrize(
    "name, column",
    [pytest.param(*cell, id="/".join(cell)) for cell in CELLS],
)
def test_cell(name, column, tmp_path, request):
    if column == "serial":
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle).get(name)
        got = digest(serial(name))
        assert got == golden, (
            f"{name}/serial: report digest {got}, golden {golden} in "
            f"{os.path.relpath(GOLDEN_PATH)}"
        )
    elif column == "service":
        report = request.getfixturevalue("service_reports")[name]
        assert_identical(report, serial(name), f"{name}/service")
    else:
        COLUMNS[column](name, tmp_path)


def test_rows_cover_the_registry_and_the_golden_file():
    """Every registry target is a row, the golden file holds exactly one
    digest per row, and only spec rows go through the service."""
    specs = SPEC_ROWS.values()
    assert {s["scenario"] for s in specs if s["experiment"] == "explore"} == (
        set(SCENARIOS)
    )
    assert {s["protocol"] for s in specs if s["experiment"] == "protocol"} == (
        set(SWEEPS)
    )
    assert sorted(
        s["experiment"] for s in specs
        if s["experiment"] in ("fuzz", "falsify")
    ) == ["falsify", "fuzz"]
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(ROWS)
    assert {name for name, column in CELLS if column == "service"} == (
        set(SPEC_ROWS)
    )


def test_symmetry_on_identity_protocol_is_inert():
    """Symmetry reduction leaves a protocol without symmetric processes
    alone: the racing row's report is the same bytes with and without
    it, so its serial, sharded and service cells all pin one digest."""
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert golden["explore:racing+symmetry"] == golden["explore:racing"]
