"""The durable job store: atomic status files, event log, results."""

import asyncio
import json
import os

import pytest

from repro.campaign import run_campaign
from repro.serve.jobspec import JobSpec, build_job
from repro.serve.scheduler import Scheduler
from repro.serve.store import JobStore, ServeJob, StoreError

SPEC = JobSpec.from_dict({"experiment": "fuzz", "runs": 6})


class TestLifecycle:
    def test_create_save_load_round_trip(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        loaded = store.load(job.id)
        assert loaded.id == job.id
        assert loaded.tenant == "alice"
        assert loaded.spec == SPEC
        assert loaded.state == "queued"

    def test_transition_stamps_timestamps(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        assert job.started_at is None
        store.transition(job, "running")
        assert job.started_at is not None
        store.transition(job, "done")
        assert job.finished_at is not None
        assert store.load(job.id).state == "done"

    def test_terminal_jobs_refuse_transitions(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        store.transition(job, "cancelled")
        with pytest.raises(StoreError, match="already cancelled"):
            store.transition(job, "running")

    def test_unknown_state_rejected(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        with pytest.raises(StoreError, match="unknown job state"):
            store.transition(job, "paused")

    def test_recoverable_returns_only_non_terminal(self, tmp_path):
        store = JobStore(str(tmp_path))
        queued = store.create("a", SPEC)
        running = store.create("a", SPEC)
        store.transition(running, "running")
        finished = store.create("b", SPEC)
        store.transition(finished, "running")
        store.transition(finished, "done")
        recoverable = {job.id for job in store.recoverable()}
        assert recoverable == {queued.id, running.id}

    def test_list_skips_corrupt_job_dirs(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        bad = os.path.join(store.jobs_dir, "deadbeef")
        os.makedirs(bad)
        with open(os.path.join(bad, "job.json"), "w") as handle:
            handle.write("{not json")
        assert [j.id for j in store.list_jobs()] == [job.id]

    @staticmethod
    def _store_with_stale_spec(tmp_path, spec_dict):
        """A store holding one valid queued job plus one record whose
        persisted spec no longer validates."""
        store = JobStore(str(tmp_path))
        valid = store.create("alice", SPEC)
        stale = store.create("bob", SPEC)
        record = stale.to_dict()
        record["spec"] = spec_dict
        path = os.path.join(store.job_dir(stale.id), "job.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        return store, valid, stale

    @pytest.mark.parametrize("spec_dict", [
        {"experiment": "explore", "scenario": "no-such-scenario"},
        # Records written before the explorer's ``packed`` option was
        # retired carry the key, which is now unknown.
        {"experiment": "explore", "packed": True},
    ])
    def test_invalid_persisted_spec_is_skipped(self, tmp_path, spec_dict):
        store, valid, stale = self._store_with_stale_spec(
            tmp_path, spec_dict
        )
        with pytest.raises(StoreError, match=stale.id):
            store.load(stale.id)
        assert [job.id for job in store.list_jobs()] == [valid.id]
        assert [job.id for job in store.recoverable()] == [valid.id]

    def test_scheduler_boots_past_invalid_persisted_spec(self, tmp_path):
        store, valid, _stale = self._store_with_stale_spec(
            tmp_path, {"experiment": "explore", "scenario": "gone"}
        )

        async def boot():
            scheduler = Scheduler(store, workers=1, executor="thread")
            try:
                recovered = await scheduler.start()
                return recovered, [r.job.id for r in scheduler.runtimes()]
            finally:
                await scheduler.stop()

        recovered, job_ids = asyncio.run(boot())
        assert recovered == 1
        assert job_ids == [valid.id]

    def test_rejects_foreign_schema_version(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        record = job.to_dict()
        record["schema_version"] = 99
        with pytest.raises(StoreError, match="schema_version"):
            ServeJob.from_dict(record)


class TestEvents:
    def test_append_and_read(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        store.append_event(job.id, {"event": "job-queued", "seq": 0})
        store.append_event(job.id, {"event": "chunk", "seq": 1})
        events = store.read_events(job.id)
        assert [event["event"] for event in events] == [
            "job-queued", "chunk",
        ]

    def test_truncated_last_line_is_skipped(self, tmp_path):
        # A crash can cut the final append short; replay must keep
        # every complete line and drop the torn one.
        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        store.append_event(job.id, {"event": "job-queued", "seq": 0})
        with open(store.events_path(job.id), "a") as handle:
            handle.write('{"event": "chu')
        events = store.read_events(job.id)
        assert [event["event"] for event in events] == ["job-queued"]

    def test_corrupt_middle_line_costs_only_itself(self, tmp_path):
        # A damaged line in the middle must not hide the later events.
        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        store.append_event(job.id, {"event": "job-queued", "seq": 0})
        with open(store.events_path(job.id), "ab") as handle:
            handle.write(b'{"event": "chu\n')
            handle.write(b'\xff\xfe not utf-8\n')
        store.append_event(job.id, {"event": "chunk", "seq": 2})
        store.append_event(job.id, {"event": "job-done", "seq": 3})
        with open(store.events_path(job.id), "a") as handle:
            handle.write('{"event": "tor')
        events = store.read_events(job.id)
        assert [event["event"] for event in events] == [
            "job-queued", "chunk", "job-done",
        ]

    def test_missing_log_reads_empty(self, tmp_path):
        store = JobStore(str(tmp_path))
        assert store.read_events("nothing") == []


class TestResults:
    def test_save_and_load_result(self, tmp_path):
        import pickle

        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        result = run_campaign(build_job(SPEC), workers=1)
        store.save_result(job, result)

        summary = store.load_result(job.id)
        assert summary["summary"] == result.report.summary()
        assert summary["complete"] is True
        assert summary["missing"] == []

        raw = store.load_report_pickle(job.id)
        assert pickle.loads(raw) == result.report

    def test_result_json_is_valid_json_on_disk(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = store.create("alice", SPEC)
        result = run_campaign(build_job(SPEC), workers=1)
        store.save_result(job, result)
        with open(store.result_path(job.id)) as handle:
            assert json.load(handle)["repr"] == repr(result.report)

    def test_absent_result_loads_none(self, tmp_path):
        store = JobStore(str(tmp_path))
        assert store.load_result("nope") is None
        assert store.load_report_pickle("nope") is None
