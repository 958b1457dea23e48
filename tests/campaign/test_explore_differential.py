"""Sharded exploration: the unit decomposition, the job's modes and
the exploration context one job shares across chunks.

That a sharded exploration's merged :class:`ExplorationReport` equals
the serial ``explore_protocol`` call field-for-field and as a byte
string (``repr``) is the ``sharded`` column of the differential matrix
(tests/test_matrix.py): workers 1, 2 and 4, chunk sizes 1, 2, 4 and
100, prefix depths 0–3, both ``stop_at_first_violation`` modes and
symmetry reduction.
"""

import gc
import pickle
import sys
import threading
import weakref

import pytest

from repro.analysis import ExplorationContext, explore_protocol
from repro.campaign import ExploreJob, explore_campaign
from repro.campaign.checkpoint import job_fingerprint
from repro.protocols import (
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    TruncatedProtocol,
)


def assert_reports_identical(parallel, serial):
    assert parallel == serial
    assert repr(parallel) == repr(serial)
    assert parallel.summary() == serial.summary()


EXPLORE_CASES = [
    # (protocol factory, inputs, task, bounds)
    (lambda: TruncatedProtocol(RacingConsensus(3), 1), [0, 1, 2],
     KSetAgreementTask(1), dict(max_configs=100_000, max_steps=20)),
    (lambda: RacingConsensus(2), [0, 1],
     KSetAgreementTask(1), dict(max_configs=50_000, max_steps=14)),
    (lambda: MinSeen(2), [0, 1],
     KSetAgreementTask(2), dict(max_configs=100_000, max_steps=None)),
]


class TestExploreDifferential:
    """serial == sharded over every worker count, chunk size, prefix
    depth and stop mode is the ``sharded`` column of the differential
    matrix (tests/test_matrix.py); what stays here is the unit count it
    shards."""

    def test_job_units_cover_prefix_tree(self):
        make, inputs, task, bounds = EXPLORE_CASES[0]
        job = ExploreJob(
            protocol=make(), inputs=tuple(inputs), task=task,
            prefix_depth=2, **bounds
        )
        # 3 undecided processes → 9 depth-2 prefixes; the matrix cell
        # explore:truncated/sharded-2 runs this job in chunks of 2 and
        # matches the serial report.
        assert job.total_units() == 9


class TestModeDifferential:
    """The campaign engine threads ``symmetry`` through
    :class:`~repro.campaign.jobs.ExploreJob` into every worker (the
    matrix's ``explore:<name>+symmetry`` rows check the reports)."""

    def test_explore_job_carries_modes_into_checkpoint_fingerprint(self):
        make, inputs, task, bounds = EXPLORE_CASES[1]
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
    make, inputs, task, bounds = EXPLORE_CASES[case]
    return ExploreJob(protocol=make(), inputs=tuple(inputs), task=task,
                      prefix_depth=2, **bounds)


class TestSharedContext:
    """An ExploreJob explores with one context per job object per
    executing thread: chunks after a thread's first start with warm
    caches, threads never share a context, each thread keeps at most
    one, and none of it leaks into the job's pickle or fingerprint."""

    def test_inprocess_campaign_builds_one_context(self, built_contexts):
        make, inputs, task, bounds = EXPLORE_CASES[1]
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
        make, inputs, task, bounds = EXPLORE_CASES[0]
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
            make, inputs, task, bounds = EXPLORE_CASES[case]
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
