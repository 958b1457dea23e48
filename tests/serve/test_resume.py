"""The service durability contract: restarts lose nothing.

Two escalation levels:

* in-process — stop a running app mid-job (no drain, exactly the crash
  path), bring up a fresh scheduler over the same state directory, and
  demand the finished report be ``==``-identical to a batch baseline;
* subprocess — a real ``repro serve`` process SIGKILLed mid-job and
  restarted, driven entirely over HTTP (the miniature of
  ``tools/serve_drill.py`` that runs in tier-1).
"""

import asyncio
import glob
import os
import signal
import subprocess
import sys
import time

from repro.campaign import run_campaign
from repro.serve import ServeClient
from repro.serve.client import read_server_address
from repro.serve.jobspec import JobSpec, build_job
from tests.serve.conftest import call, running_app, wait_state

SPEC = {"experiment": "protocol", "seeds": 40, "chunk_size": 2}


def baseline_report(spec_dict):
    """The uninterrupted batch-engine report for a spec."""
    spec = JobSpec.from_dict(spec_dict)
    return run_campaign(
        build_job(spec), workers=2, chunk_size=spec.chunk_size,
        verify_certificates=spec.verify_certificates,
    ).report


class TestInProcessRestart:
    def test_restarted_scheduler_resumes_to_identical_report(
        self, tmp_path
    ):
        async def scenario():
            async with running_app(tmp_path) as (_app, client):
                job_id = (await call(client.submit, SPEC))["id"]
                # Let it get some chunks done, then "crash" (stop
                # without drain).
                deadline = asyncio.get_running_loop().time() + 60
                while True:
                    status = await call(client.status, job_id)
                    done = status.get("progress", {}).get(
                        "completed_chunks", 0
                    )
                    if 1 <= done < 20:
                        break
                    assert status["state"] != "done", (
                        "job finished before the crash; enlarge SPEC"
                    )
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    )
                    await asyncio.sleep(0.005)

            # The context exit stopped the app mid-job.  A fresh app
            # over the same state dir must recover and finish it.
            async with running_app(tmp_path) as (_app, client):
                status = await call(client.status, job_id)
                assert status["state"] in ("queued", "running", "done")
                final = await wait_state(client, job_id, ("done",))
                assert final["progress"]["completed_chunks"] == 20
                report = await call(client.report, job_id)
                return report

        report = asyncio.run(scenario())
        expected = baseline_report(SPEC)
        assert report == expected
        assert repr(report) == repr(expected)


def _start_server(state):
    """Start a real ``repro serve`` subprocess; wait for its address."""
    marker = os.path.join(state, "server.json")
    if os.path.exists(marker):
        os.unlink(marker)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.abspath(src), env.get("PYTHONPATH"),
    ]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state", state,
         "--port", "0", "--workers", "2"],
        env=env, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while not os.path.exists(marker):
        if process.poll() is not None:
            raise RuntimeError(
                f"server exited early: {process.returncode}"
            )
        assert time.monotonic() < deadline, "server never came up"
        time.sleep(0.05)
    address = read_server_address(state)
    client = ServeClient(address["host"], address["port"], timeout=30)
    while True:
        try:
            client.health()
            return process, client
        except Exception:
            assert time.monotonic() < deadline
            time.sleep(0.05)


def _children(pid):
    """Pids of ``pid``'s child processes, or ``None`` without /proc."""
    paths = glob.glob(f"/proc/{pid}/task/*/children")
    if not paths:
        return None
    children = []
    for path in paths:
        with open(path) as handle:
            children.extend(int(child) for child in handle.read().split())
    return children


def _running(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestSigkillRestart:
    def test_sigkilled_server_resumes_to_identical_report(self, tmp_path):
        state = str(tmp_path)
        process, client = _start_server(state)
        try:
            job_id = client.submit(SPEC)["id"]
            deadline = time.monotonic() + 120
            while True:
                status = client.status(job_id)
                done = status.get("progress", {}).get(
                    "completed_chunks", 0
                )
                if 1 <= done < 20:
                    break
                assert status["state"] != "done", (
                    "job finished before the kill; enlarge SPEC"
                )
                assert time.monotonic() < deadline
                time.sleep(0.01)
        except BaseException:
            process.kill()
            raise
        workers = _children(process.pid)
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=60)
        if workers is not None:
            # The killed server's pool workers must not outlive it.
            assert workers, "the server never started its worker pool"
            deadline = time.monotonic() + 10
            while any(_running(pid) for pid in workers):
                assert time.monotonic() < deadline, (
                    f"orphaned pool workers still running: {workers}"
                )
                time.sleep(0.1)

        process, client = _start_server(state)
        try:
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done"
            report = client.report(job_id)
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
        expected = baseline_report(SPEC)
        assert report == expected
        assert repr(report) == repr(expected)
