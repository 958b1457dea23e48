"""Differential suite: sharded exploration equals serial exploration.

For a grid of (protocol, instance, worker count, chunk size), the
campaign engine's merged :class:`ExplorationReport` must equal a serial
``explore_protocol`` call with the same ``prefix_depth`` field-for-field
— including ``counterexample`` and ``truncated`` — and even as a byte
string (``repr``).  Both truncated-racing (violating) and safe
instances are covered, with ``stop_at_first_violation`` in both
positions, so neither verdict path can drift between the serial and
sharded explorers.
"""

import gc
import pickle
import sys
import threading
import weakref

import pytest

from repro.analysis import ExplorationContext, explore_protocol
from repro.campaign import ExploreJob, explore_campaign, run_campaign
from repro.campaign.checkpoint import job_fingerprint
from repro.protocols import (
    AnonymousSweepConsensus,
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    TruncatedProtocol,
)

WORKER_GRID = [1, 2, 4]


def assert_reports_identical(parallel, serial):
    assert parallel == serial
    assert repr(parallel) == repr(serial)
    assert parallel.summary() == serial.summary()


EXPLORE_CASES = [
    # (protocol factory, inputs, task, bounds, expect_safe)
    (lambda: TruncatedProtocol(RacingConsensus(3), 1), [0, 1, 2],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=20), False),
    (lambda: RacingConsensus(2), [0, 1],
     KSetAgreementTask(1), dict(max_configs=50_000, max_steps=14), True),
    (lambda: MinSeen(2), [0, 1],
     KSetAgreementTask(2), dict(max_configs=100_000, max_steps=None), True),
]


class TestExploreDifferential:
    @pytest.mark.parametrize("case", range(len(EXPLORE_CASES)))
    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_matches_serial(self, case, workers):
        make, inputs, task, bounds, expect_safe = EXPLORE_CASES[case]
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=2, **bounds
        )
        result = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=workers,
            chunk_size=2, **bounds
        )
        assert_reports_identical(result.report, serial)
        assert result.report.safe == expect_safe

    @pytest.mark.parametrize("workers", [2, 4])
    def test_collect_all_matches_serial(self, workers):
        make, inputs, task, bounds, _ = EXPLORE_CASES[0]
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=2,
            stop_at_first_violation=False, **bounds
        )
        result = explore_campaign(
            make(), inputs, task, prefix_depth=2,
            stop_at_first_violation=False, workers=workers, chunk_size=3,
            **bounds
        )
        assert_reports_identical(result.report, serial)
        assert len(result.report.violations) >= 1
        assert result.report.counterexample == serial.counterexample

    @pytest.mark.parametrize("chunk_size", [1, 2, 4, 100])
    def test_chunking_invariant(self, chunk_size):
        make, inputs, task, bounds, _ = EXPLORE_CASES[0]
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=2, **bounds
        )
        result = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=2,
            chunk_size=chunk_size, **bounds
        )
        assert_reports_identical(result.report, serial)

    @pytest.mark.parametrize("prefix_depth", [0, 1, 2, 3])
    def test_prefix_depth_grid_matches_serial(self, prefix_depth):
        make, inputs, task, bounds, _ = EXPLORE_CASES[1]
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=prefix_depth, **bounds
        )
        result = explore_campaign(
            make(), inputs, task, prefix_depth=prefix_depth, workers=2,
            chunk_size=1, **bounds
        )
        assert_reports_identical(result.report, serial)

    def test_job_units_cover_prefix_tree(self):
        make, inputs, task, bounds, _ = EXPLORE_CASES[0]
        job = ExploreJob(
            protocol=make(), inputs=tuple(inputs), task=task,
            prefix_depth=2, **bounds
        )
        # 3 undecided processes → 9 depth-2 prefixes; run_campaign over
        # those units reproduces the serial report.
        assert job.total_units() == 9
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=2, **bounds
        )
        result = run_campaign(job, workers=2, chunk_size=2)
        assert_reports_identical(result.report, serial)


class TestModeDifferential:
    """serial == sharded must survive symmetry reduction: the campaign
    engine threads ``symmetry`` through
    :class:`~repro.campaign.jobs.ExploreJob` into every worker, and the
    merged report must stay byte-identical to a serial run in the same
    mode."""

    @pytest.mark.parametrize("workers", WORKER_GRID)
    def test_symmetry_sharded_matches_symmetry_serial(self, workers):
        protocol = AnonymousSweepConsensus(3, m=2)
        inputs, task = [0, 1, 1], KSetAgreementTask(1)
        bounds = dict(max_configs=300_000, max_steps=12)
        serial = explore_protocol(
            protocol, inputs, task, prefix_depth=2, symmetry=True,
            **bounds
        )
        result = explore_campaign(
            protocol, inputs, task, prefix_depth=2, workers=workers,
            chunk_size=2, symmetry=True, **bounds
        )
        assert_reports_identical(result.report, serial)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_symmetry_on_identity_protocol_is_inert_sharded(self, workers):
        make, inputs, task, bounds, _ = EXPLORE_CASES[1]
        plain = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=workers,
            chunk_size=2, **bounds
        )
        requested = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=workers,
            chunk_size=2, symmetry=True, **bounds
        )
        assert_reports_identical(requested.report, plain.report)

    def test_explore_job_carries_modes_into_checkpoint_fingerprint(self):
        from repro.campaign.checkpoint import job_fingerprint

        make, inputs, task, bounds, _ = EXPLORE_CASES[1]
        jobs = [
            ExploreJob(protocol=make(), inputs=tuple(inputs), task=task,
                       prefix_depth=2, **bounds),
            ExploreJob(protocol=make(), inputs=tuple(inputs), task=task,
                       prefix_depth=2, symmetry=True, **bounds),
        ]
        prints = {job_fingerprint(job, 4, 1) for job in jobs}
        # A checkpoint written in one mode must not resume in another.
        assert len(prints) == 2


@pytest.fixture
def built_contexts(monkeypatch):
    """Every ExplorationContext constructed while the test runs, as
    ``(thread ident, weak reference)`` pairs."""
    built = []
    original = ExplorationContext.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append((threading.get_ident(), weakref.ref(self)))

    monkeypatch.setattr(ExplorationContext, "__init__", recording)
    return built


def _job(case=1):
    make, inputs, task, bounds, _ = EXPLORE_CASES[case]
    return ExploreJob(protocol=make(), inputs=tuple(inputs), task=task,
                      prefix_depth=2, **bounds)


class TestSharedContext:
    """An ExploreJob explores with one context per job object per
    executing thread: chunks after a thread's first start with warm
    caches, threads never share a context, each thread keeps at most
    one, and none of it leaks into the job's pickle or fingerprint."""

    def test_inprocess_campaign_builds_one_context(self, built_contexts):
        make, inputs, task, bounds, _ = EXPLORE_CASES[1]
        serial = explore_protocol(
            make(), inputs, task, prefix_depth=2, **bounds
        )
        del built_contexts[:]
        result = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=1,
            chunk_size=1, **bounds
        )
        assert result.telemetry.mode == "in-process"
        assert len(result.telemetry.chunks) > 1
        assert len(built_contexts) == 1
        assert_reports_identical(result.report, serial)

    def test_certificate_gated_campaign_builds_one_context(
        self, built_contexts
    ):
        """The gate flips the job into certificate mode before counting
        its units, so the count and every chunk share one context."""
        make, inputs, task, bounds, _ = EXPLORE_CASES[0]
        plain = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=1,
            chunk_size=1, **bounds
        )
        del built_contexts[:]
        result = explore_campaign(
            make(), inputs, task, prefix_depth=2, workers=1,
            chunk_size=1, verify_certificates=True, **bounds
        )
        assert result.telemetry.mode == "in-process"
        assert len(result.telemetry.chunks) > 1
        assert result.telemetry.certificates_verified > 0
        assert len(built_contexts) == 1
        assert result.report == plain.report

    def test_threads_running_one_job_keep_separate_contexts(
        self, built_contexts
    ):
        job = _job(case=0)
        serial = explore_protocol(
            job.protocol, list(job.inputs), job.task, prefix_depth=2,
            max_configs=job.max_configs, max_steps=job.max_steps,
        )
        units = job.total_units()
        reports = {}
        barrier = threading.Barrier(2, timeout=30)

        def run(offset):
            barrier.wait()
            for start in range(offset, units, 2):
                reports[start] = job.run_range(start, start + 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(offset,))
                for offset in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(reports) == list(range(units))
        # Each worker thread built exactly one context of its own.
        workers = sorted(thread.ident for thread in threads)
        assert sorted(ident for ident, _ in built_contexts
                      if ident in workers) == workers
        merged = job.empty_report()
        for start in sorted(reports):
            merged = merged.merge(reports[start])
        assert_reports_identical(merged, serial)

    def test_at_most_one_context_per_thread_survives(self, built_contexts):
        for case in (0, 1, 2, 1, 0):
            make, inputs, task, bounds, _ = EXPLORE_CASES[case]
            explore_campaign(
                make(), inputs, task, prefix_depth=2, workers=1,
                chunk_size=2, **bounds
            )
        assert len(built_contexts) >= 5
        gc.collect()
        alive = [ref for _ident, ref in built_contexts if ref() is not None]
        assert len(alive) <= 1

    def test_running_leaves_pickle_and_fingerprint_unchanged(self):
        job = _job()
        blob = pickle.dumps(job, 4)
        fingerprint = job_fingerprint(job, 9, 2)
        job.run_range(0, job.total_units())
        assert pickle.dumps(job, 4) == blob
        assert job_fingerprint(job, 9, 2) == fingerprint
