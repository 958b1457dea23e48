"""Fair scheduling and tenant quotas over the shared pool."""

import asyncio
import threading

import pytest

from repro.serve import (
    JobStore,
    Scheduler,
    ServeClient,
    ServeClientError,
    TenantQuotas,
)
from repro.serve import scheduler as scheduler_module
from repro.serve.jobspec import JobSpec
from tests.serve.conftest import call, running_app, wait_state

#: A deliberately long campaign: 200 chunks of 2 seeds each.
SLOW_SPEC = {"experiment": "protocol", "seeds": 400, "chunk_size": 2}

#: A deliberately small campaign: 2 chunks.
SMALL_SPEC = {"experiment": "fuzz", "runs": 4, "chunk_size": 2}


class TestFairness:
    def test_small_job_finishes_while_slow_job_runs(self, tmp_path):
        """Round-robin interleaving: tenant B is never starved by A.

        Tenant A's 200-chunk sweep is submitted *first* and would, under
        FIFO draining, own every worker until it finished.  The fairness
        contract says tenant B's 2-chunk job completes while A is still
        mid-run.
        """
        async def scenario():
            async with running_app(tmp_path) as (_app, client):
                alice = ServeClient(client.host, client.port,
                                    api_key="tenant-a")
                bob = ServeClient(client.host, client.port,
                                  api_key="tenant-b")
                slow = (await call(alice.submit, SLOW_SPEC))["id"]
                small = (await call(bob.submit, SMALL_SPEC))["id"]

                final = await wait_state(bob, small, ("done", "failed"))
                assert final["state"] == "done"

                slow_status = await call(alice.status, slow)
                assert slow_status["state"] == "running", (
                    "the slow job monopolized the pool: it finished "
                    "before the 2-chunk job"
                )
                progress = slow_status["progress"]
                assert (
                    progress["completed_chunks"]
                    < progress["total_chunks"]
                )
                await call(alice.cancel, slow)

        asyncio.run(scenario())

    def test_inflight_quota_is_never_exceeded(self, tmp_path):
        """A tenant capped at 1 in-flight chunk never occupies 2 workers."""
        async def scenario():
            quotas = TenantQuotas(max_inflight_chunks=1,
                                  max_active_jobs=8)
            async with running_app(
                tmp_path, workers=4, quotas=quotas
            ) as (app, client):
                alice = ServeClient(client.host, client.port,
                                    api_key="tenant-a")
                job_id = (await call(alice.submit, {
                    "experiment": "fuzz", "runs": 60, "chunk_size": 3,
                }))["id"]
                peak = 0
                while True:
                    peak = max(
                        peak, app.scheduler.tenant_inflight("tenant-a")
                    )
                    status = app.scheduler.get(job_id)
                    if status is not None and status.job.terminal:
                        break
                    await asyncio.sleep(0.002)
                assert peak == 1

        asyncio.run(scenario())


class TestQuotas:
    def test_excess_job_gets_429_without_perturbing_running_jobs(
        self, tmp_path
    ):
        async def scenario():
            quotas = TenantQuotas(max_inflight_chunks=4,
                                  max_active_jobs=1)
            async with running_app(
                tmp_path, quotas=quotas
            ) as (_app, client):
                alice = ServeClient(client.host, client.port,
                                    api_key="tenant-a")
                bob = ServeClient(client.host, client.port,
                                  api_key="tenant-b")
                slow = (await call(alice.submit, SLOW_SPEC))["id"]

                with pytest.raises(ServeClientError) as exc:
                    await call(alice.submit, SMALL_SPEC)
                assert exc.value.status == 429

                # The rejection cost the running job nothing: it keeps
                # completing chunks afterwards ...
                before = (await call(alice.status, slow))[
                    "progress"]["completed_chunks"]
                deadline = asyncio.get_running_loop().time() + 60
                while True:
                    after = (await call(alice.status, slow))[
                        "progress"]["completed_chunks"]
                    if after > before:
                        break
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    ), "running job stalled after a 429"
                    await asyncio.sleep(0.02)

                # ... and another tenant is unaffected by A's quota.
                small = (await call(bob.submit, SMALL_SPEC))["id"]
                final = await wait_state(bob, small, ("done",))
                assert final["state"] == "done"
                await call(alice.cancel, slow)

        asyncio.run(scenario())

    def test_quota_frees_when_jobs_finish(self, tmp_path):
        async def scenario():
            quotas = TenantQuotas(max_active_jobs=1)
            async with running_app(
                tmp_path, quotas=quotas
            ) as (_app, client):
                alice = ServeClient(client.host, client.port,
                                    api_key="tenant-a")
                first = (await call(alice.submit, SMALL_SPEC))["id"]
                await wait_state(alice, first, ("done",))
                second = (await call(alice.submit, SMALL_SPEC))["id"]
                await wait_state(alice, second, ("done",))

        asyncio.run(scenario())


class TestCancel:
    def test_cancel_stops_a_running_job(self, tmp_path):
        async def scenario():
            async with running_app(tmp_path) as (_app, client):
                job_id = (await call(client.submit, SLOW_SPEC))["id"]
                await wait_state(client, job_id, ("running",))
                cancelled = await call(client.cancel, job_id)
                assert cancelled["state"] == "cancelled"
                # Terminal states are sticky: cancelling again is a
                # no-op, and the job never becomes done.
                again = await call(client.cancel, job_id)
                assert again["state"] == "cancelled"
                await asyncio.sleep(0.1)
                status = await call(client.status, job_id)
                assert status["state"] == "cancelled"

        asyncio.run(scenario())


class TestDispatchLoop:
    @pytest.mark.parametrize("workers, quotas", [
        (1, TenantQuotas()),
        (2, TenantQuotas(max_inflight_chunks=1)),
    ], ids=["worker-slots-full", "tenant-quota-full"])
    def test_blocked_ready_work_does_not_spin_the_loop(
        self, tmp_path, monkeypatch, workers, quotas
    ):
        """Ready work that cannot be dispatched (every worker slot, or
        the tenant's in-flight quota, is taken) waits for the chunk
        completion that frees it; the dispatch loop must not rescan the
        jobs while it waits."""
        release = threading.Event()
        held = threading.Event()
        real_execute = scheduler_module.execute_chunk

        def held_execute(*args, **kwargs):
            if not held.is_set():
                held.set()
                assert release.wait(timeout=60)
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "execute_chunk", held_execute)
        passes = []
        real_dispatch = Scheduler._dispatch

        def counting_dispatch(self):
            passes.append(None)
            return real_dispatch(self)

        monkeypatch.setattr(Scheduler, "_dispatch", counting_dispatch)

        async def scenario():
            scheduler = Scheduler(JobStore(str(tmp_path)),
                                  workers=workers, quotas=quotas,
                                  executor="thread")
            await scheduler.start()
            try:
                spec = JobSpec.from_dict(SMALL_SPEC)
                jobs = [scheduler.submit("tenant-a", spec)
                        for _ in range(2)]
                loop = asyncio.get_running_loop()
                while not held.is_set():
                    await loop.run_in_executor(None, held.wait, 0.05)
                before = len(passes)
                await asyncio.sleep(0.3)
                during_hold = len(passes) - before
                release.set()
                deadline = loop.time() + 60
                while not all(job.terminal for job in jobs):
                    assert loop.time() < deadline, "jobs never finished"
                    await asyncio.sleep(0.01)
                assert [job.state for job in jobs] == ["done", "done"]
                return during_hold
            finally:
                release.set()
                await scheduler.stop()

        during_hold = asyncio.run(scenario())
        assert during_hold <= 3, (
            f"the dispatch loop ran {during_hold} passes while a held "
            f"chunk blocked all dispatch"
        )
