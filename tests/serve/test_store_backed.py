"""The job store is the only record of finished jobs.

The scheduler holds live jobs only (queued, running, or terminal with a
chunk still on a worker); everything about a finished job — status,
progress, events, report — is served from the store, and so reads the
same before and after a restart.
"""

import asyncio
import http.client
import json
import os
import pickle
import threading

import pytest

from repro.campaign.pump import CampaignPump
from repro.protocols.scenarios import SCENARIOS, SWEEPS
from repro.serve import JobStore, Scheduler, ServeApp, ServeJob
from repro.serve import scheduler as scheduler_module
from repro.serve.http import Request
from repro.serve.jobspec import EXPERIMENTS, JobSpec, build_job
from tests.serve.conftest import call, running_app, wait_state

#: A small campaign: 2 chunks.
SMALL_SPEC = {"experiment": "fuzz", "runs": 4, "chunk_size": 2}


async def wait_until(predicate, timeout=60.0):
    """Yield to the loop until ``predicate()`` holds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def hold_first_chunk(monkeypatch):
    """Block the first chunk body until the returned ``release`` is set."""
    release, held = threading.Event(), threading.Event()
    real_execute = scheduler_module.execute_chunk

    def held_execute(*args, **kwargs):
        if not held.is_set():
            held.set()
            assert release.wait(timeout=60)
        return real_execute(*args, **kwargs)

    monkeypatch.setattr(scheduler_module, "execute_chunk", held_execute)
    return held, release


class TestStart:
    def test_finished_jobs_stay_on_disk(self, tmp_path, monkeypatch):
        """Start over 1,000 finished jobs: no runtime, no event log read."""
        store = JobStore(str(tmp_path))
        spec = JobSpec.from_dict(SMALL_SPEC)
        for index in range(1000):
            job = ServeJob(id=f"{index:012x}", tenant="alice", spec=spec,
                           state="done")
            os.makedirs(store.job_dir(job.id))
            with open(os.path.join(store.job_dir(job.id), "job.json"),
                      "w", encoding="utf-8") as handle:
                json.dump(job.to_dict(), handle)
        reads = []
        real_read = JobStore.read_events

        def counting_read(self, job_id):
            reads.append(job_id)
            return real_read(self, job_id)

        monkeypatch.setattr(JobStore, "read_events", counting_read)

        async def boot():
            scheduler = Scheduler(store, workers=1, executor="thread")
            try:
                recovered = await scheduler.start()
                assert recovered == 0
                assert scheduler.runtimes() == []
                assert reads == []
                # A finished job is still found, rebuilt from the store.
                runtime = scheduler.get(f"{999:012x}")
                assert runtime.job.state == "done"
                assert scheduler.runtimes() == []
            finally:
                await scheduler.stop()

        asyncio.run(boot())


class TestLiveJobsOnly:
    def test_finished_and_failed_jobs_leave_the_scheduler(self, tmp_path):
        async def scenario():
            store = JobStore(str(tmp_path))
            scheduler = Scheduler(store, workers=2, executor="thread")
            await scheduler.start()
            try:
                spec = JobSpec.from_dict(SMALL_SPEC)
                jobs = [scheduler.submit("tenant-a", spec)
                        for _ in range(4)]
                # A corrupt journal fails the last job at start.
                with open(store.journal_path(jobs[-1].id), "w") as handle:
                    handle.write("not a journal\n")
                await wait_until(lambda: all(j.terminal for j in jobs))
                assert [j.state for j in jobs] == ["done"] * 3 + ["failed"]
                await wait_until(lambda: not scheduler._jobs)
                assert scheduler.runtimes() == []
                assert scheduler.tenant_inflight("tenant-a") == 0
            finally:
                await scheduler.stop()

        asyncio.run(scenario())

    def test_cancelled_job_holds_its_quota_until_its_chunk_settles(
        self, tmp_path, monkeypatch
    ):
        held, release = hold_first_chunk(monkeypatch)

        async def scenario():
            scheduler = Scheduler(JobStore(str(tmp_path)), workers=1,
                                  executor="thread")
            await scheduler.start()
            try:
                job = scheduler.submit("tenant-a",
                                       JobSpec.from_dict(SMALL_SPEC))
                loop = asyncio.get_running_loop()
                while not held.is_set():
                    await loop.run_in_executor(None, held.wait, 0.05)
                assert scheduler.cancel(job.id).state == "cancelled"
                assert scheduler.tenant_inflight("tenant-a") == 1
                assert [r.job.id for r in scheduler.runtimes()] == [job.id]
                release.set()
                await wait_until(lambda: not scheduler._jobs)
                assert scheduler.tenant_inflight("tenant-a") == 0
                assert scheduler.get(job.id).job.state == "cancelled"
            finally:
                release.set()
                await scheduler.stop()

        asyncio.run(scenario())


class TestRestartIdentity:
    def test_done_job_reads_the_same_across_a_restart(self, tmp_path):
        async def observe(client, job_id):
            status = await call(client.status, job_id)
            events = await call(
                lambda: list(client.events(job_id, follow=False))
            )
            result = await call(client.result, job_id, True)
            return status, events, result

        async def scenario():
            async with running_app(tmp_path) as (_app, client):
                job_id = (await call(client.submit, SMALL_SPEC))["id"]
                await wait_state(client, job_id, ("done",))
                before = await observe(client, job_id)
            async with running_app(tmp_path) as (_app, client):
                after = await observe(client, job_id)
            return before, after

        before, after = asyncio.run(scenario())
        assert before == after
        progress = before[0]["progress"]
        assert progress["completed_chunks"] == progress["total_chunks"] == 2
        assert progress["completed_units"] == 4
        assert before[1][-1]["event"] == "job-done"


class TestFinishedReads:
    def test_done_status_counts_events_without_reading_them(
        self, tmp_path, monkeypatch
    ):
        """A done job's event count comes from ``result.json``; it equals
        the length of the event stream, in its status and its listing,
        and neither those nor its report parse the event log."""
        async def scenario():
            async with running_app(tmp_path) as (_app, client):
                job_id = (await call(client.submit, SMALL_SPEC))["id"]
                await wait_state(client, job_id, ("done",))
                events = await call(
                    lambda: list(client.events(job_id, follow=False))
                )
                reads = []
                real_read = JobStore.read_events
                monkeypatch.setattr(
                    JobStore, "read_events",
                    lambda self, job: reads.append(job) or real_read(
                        self, job
                    ),
                )
                status = await call(client.status, job_id)
                listed = await call(client.list_jobs)
                await call(client.result, job_id, True)
                return events, status, listed, reads

        events, status, listed, reads = asyncio.run(scenario())
        assert reads == []
        assert status["events"] == status["result"]["events"] == len(events)
        assert listed == [status]

    def test_list_and_health_read_no_event_log(self, tmp_path, monkeypatch):
        """Over 1,000 finished jobs, ``GET /jobs`` parses no event log and
        ``/healthz`` parses no job record."""
        store = JobStore(str(tmp_path))
        spec = JobSpec.from_dict(SMALL_SPEC)
        for index in range(1000):
            job = ServeJob(id=f"{index:012x}", tenant="alice", spec=spec,
                           state="done")
            os.makedirs(store.job_dir(job.id))
            with open(os.path.join(store.job_dir(job.id), "job.json"),
                      "w", encoding="utf-8") as handle:
                json.dump(job.to_dict(), handle)
            with open(store.result_path(job.id), "w",
                      encoding="utf-8") as handle:
                json.dump({"events": 5, "progress": {"total_chunks": 2}},
                          handle)
        touched = []
        for name in ("load", "read_events"):
            real = getattr(JobStore, name)

            def spy(self, job_id, _real=real, _name=name):
                touched.append(_name)
                return _real(self, job_id)

            monkeypatch.setattr(JobStore, name, spy)
        app = ServeApp(store, Scheduler(store, workers=1, executor="thread"))

        assert app._health()["jobs"] == 1000
        assert touched == []
        listed = json.loads(app._list(Request("GET", "/jobs")).split(
            b"\r\n\r\n", 1
        )[1])["jobs"]
        assert touched == ["load"] * 1000
        assert len(listed) == 1000
        assert {job["events"] for job in listed} == {5}
        assert {job["progress"]["total_chunks"] for job in listed} == {2}


class TestUrlJobIds:
    @pytest.mark.parametrize("method, path", [
        ("GET", "/jobs/.."),
        ("GET", "/jobs/%2e%2e"),
        ("GET", "/jobs/x/../y"),
        ("GET", "/jobs/%2e%2e/events"),
        ("GET", "/jobs/%2e%2e/report"),
        ("POST", "/jobs/%2e%2e/cancel"),
    ])
    def test_non_ids_404_without_touching_disk(self, tmp_path, monkeypatch,
                                               method, path):
        """A decoy job record one level above ``jobs/`` stays unread."""
        decoy = ServeJob(id="0" * 12, tenant="alice",
                         spec=JobSpec.from_dict(SMALL_SPEC), state="done")
        with open(tmp_path / "job.json", "w", encoding="utf-8") as handle:
            json.dump(decoy.to_dict(), handle)
        touched = []
        for name in ("load", "read_events", "load_result",
                     "load_report_pickle"):
            real = getattr(JobStore, name)

            def spy(self, job_id, *args, _real=real, **kwargs):
                touched.append(job_id)
                return _real(self, job_id, *args, **kwargs)

            monkeypatch.setattr(JobStore, name, spy)

        def request(port):
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=30)
            try:
                connection.request(method, path)
                return connection.getresponse().status
            finally:
                connection.close()

        async def scenario():
            async with running_app(tmp_path) as (_app, client):
                return await call(request, client.port)

        assert asyncio.run(scenario()) == 404
        assert touched == []


def accepted_specs():
    """Every experiment × registry entry × certificate gate."""
    targets = {
        "falsify": [{}],
        "fuzz": [{}],
        "protocol": [{"protocol": name} for name in SWEEPS],
        "explore": [{"scenario": name} for name in SCENARIOS],
    }
    assert set(targets) == set(EXPERIMENTS)
    return [
        dict(target, experiment=experiment, verify_certificates=verify)
        for experiment in EXPERIMENTS
        for target in targets[experiment]
        for verify in (False, True)
    ]


@pytest.mark.parametrize(
    "spec", accepted_specs(),
    ids=lambda spec: "-".join(str(value) for value in spec.values()),
)
def test_every_accepted_spec_builds_a_picklable_job(spec):
    """In process mode every chunk crosses a process boundary."""
    job_spec = JobSpec.from_dict(spec)
    job = CampaignPump(
        build_job(job_spec), workers=1,
        verify_certificates=job_spec.verify_certificates,
    ).job
    clone = pickle.loads(pickle.dumps(job))
    assert pickle.dumps(clone, protocol=4) == pickle.dumps(job, protocol=4)
