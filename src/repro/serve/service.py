"""The campaign service: routes, server wiring, and ``repro serve``.

:class:`ServeApp` binds the HTTP layer to the scheduler and store::

    GET  /healthz            liveness + pool/quota configuration
    POST /jobs               submit a job spec (tenant = X-Api-Key)
    GET  /jobs               list jobs (``?tenant=`` to filter)
    GET  /jobs/<id>          status + chunk progress + result summary
    GET  /jobs/<id>/events   NDJSON event stream (``?since=``, ``?follow=``)
    GET  /jobs/<id>/report   result summary + base64 report pickle
    POST /jobs/<id>/cancel   cancel a queued/running job

Every response closes the connection; clients poll or hold one stream
per job.  The server writes ``server.json`` (host, bound port, pid)
into its state directory on startup so drills and scripts can start it
with ``--port 0`` and discover the real port — and so an operator can
tell which process owns a state directory.

:func:`serve_main` is the blocking entry point behind ``repro serve``:
it recovers unfinished jobs from the state directory, serves until
SIGINT/SIGTERM, and shuts down *without* draining — by design, a
shutdown is indistinguishable from a crash, so the resume path is
exercised on every restart rather than only on bad days.
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import json
import os
import re
import signal
import sys
from typing import Any, Dict, List, Optional

from repro.durable import atomic_write
from repro.errors import ReproError
from repro.serve.http import (
    HttpError,
    Request,
    error_response,
    json_response,
    read_request,
    stream_head,
)
from repro.serve.jobspec import JobSpec, JobSpecError
from repro.serve.scheduler import (
    JobRuntime,
    QuotaExceeded,
    Scheduler,
    TenantQuotas,
)
from repro.serve.store import JobStore, ServeJob, StoreError

#: Tenant assigned to requests that send no ``X-Api-Key`` header.
DEFAULT_TENANT = "anonymous"

#: A job id (:meth:`JobStore.create`); anything else 404s before disk.
_JOB_ID = re.compile(r"[0-9a-f]{12}")


class ServeApp:
    """Routes HTTP requests onto one scheduler + store pair."""

    def __init__(self, store: JobStore, scheduler: Scheduler):
        self.store = store
        self.scheduler = scheduler
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Server lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Recover jobs, bind the listener, write ``server.json``.

        Returns the bound port (useful with ``port=0``).
        """
        recovered = await self.scheduler.start()
        if recovered:
            print(f"serve: recovered {recovered} unfinished job(s) from "
                  f"{self.store.root}", file=sys.stderr)
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        bound = self._server.sockets[0].getsockname()[1]
        atomic_write(os.path.join(self.store.root, "server.json"), json.dumps(
            {"host": host, "port": bound, "pid": os.getpid()},
            sort_keys=True,
        ) + "\n")
        return bound

    async def stop(self) -> None:
        """Close the listener and stop the scheduler (no drain)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    # ------------------------------------------------------------------
    # Connection handling

    async def _handle_connection(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        """Serve one request on one connection, then close it."""
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, writer)
            except HttpError as error:
                writer.write(error_response(error.status, error.message))
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as error:  # route bugs become 500s
                writer.write(error_response(
                    500, f"{type(error).__name__}: {error}"
                ))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: "asyncio.StreamWriter"
    ) -> None:
        """Route one request to its handler."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            writer.write(json_response(200, self._health()))
            return
        if path == "/jobs":
            if method == "POST":
                writer.write(self._submit(request))
                return
            if method == "GET":
                writer.write(self._list(request))
                return
            raise HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            parts = path[len("/jobs/"):].split("/")
            job_id = parts[0]
            tail = parts[1] if len(parts) == 2 else None
            if len(parts) > 2 or not _JOB_ID.fullmatch(job_id):
                raise HttpError(404, f"no such resource: {path}")
            if tail is None and method == "GET":
                writer.write(self._status(job_id))
                return
            if tail == "report" and method == "GET":
                writer.write(self._report(job_id, request))
                return
            if tail == "cancel" and method == "POST":
                writer.write(self._cancel(job_id))
                return
            if tail == "events" and method == "GET":
                await self._stream_events(job_id, request, writer)
                return
            if tail in (None, "report", "cancel", "events"):
                raise HttpError(405, f"{method} not allowed on {path}")
        raise HttpError(404, f"no such resource: {path}")

    # ------------------------------------------------------------------
    # Handlers

    def _health(self) -> Dict[str, Any]:
        """The /healthz payload."""
        quotas = self.scheduler.quotas
        return {
            "ok": True,
            "workers": self.scheduler.workers,
            "executor": self.scheduler.executor_kind,
            "quotas": {
                "max_inflight_chunks": quotas.max_inflight_chunks,
                "max_active_jobs": quotas.max_active_jobs,
            },
            "jobs": self.store.count_jobs(),
        }

    def _tenant(self, request: Request) -> str:
        """The tenant (API key) a request acts as."""
        return request.headers.get("x-api-key", DEFAULT_TENANT)

    def _submit(self, request: Request) -> bytes:
        """POST /jobs — validate, enforce quota, enqueue."""
        try:
            spec = JobSpec.from_dict(request.json())
        except JobSpecError as error:
            raise HttpError(400, str(error)) from error
        try:
            job = self.scheduler.submit(self._tenant(request), spec)
        except QuotaExceeded as error:
            raise HttpError(429, str(error)) from error
        return json_response(202, self._job_payload(job.id))

    def _list(self, request: Request) -> bytes:
        """GET /jobs — all jobs, optionally one tenant's."""
        tenant = request.query.get("tenant")
        return json_response(200, {"jobs": [
            self._job_payload(job.id, job) for job in self.store.list_jobs()
            if tenant is None or job.tenant == tenant
        ]})

    def _runtime(self, job_id: str) -> JobRuntime:
        """The runtime for ``job_id``, or 404."""
        runtime = self.scheduler.get(job_id)
        if runtime is None:
            raise HttpError(404, f"no such job: {job_id}")
        return runtime

    def _stored(self, job_id: str) -> ServeJob:
        """A job's store record (its event log unread), or 404."""
        try:
            return self.store.load(job_id)
        except StoreError:
            raise HttpError(404, f"no such job: {job_id}") from None

    def _job_payload(
        self, job_id: str, job: Optional[ServeJob] = None
    ) -> Dict[str, Any]:
        """The status object served for one job.

        A live job's comes from its runtime.  A finished job's comes
        from its store record (``job``, when the caller already loaded
        it) plus, once done, ``result.json``, which holds its final
        progress and event count; only a failed or cancelled job's
        event log is read, to count it.
        """
        runtime = self.scheduler.live(job_id)
        if runtime is not None:
            payload = runtime.job.to_dict()
            payload["progress"] = runtime.progress()
            payload["events"] = len(runtime.events)
            return payload
        if job is None:
            job = self._stored(job_id)
        payload = job.to_dict()
        payload["progress"] = {}
        events = None
        if job.state == "done":
            result = self.store.load_result(job_id)
            payload["result"] = result
            payload["progress"] = (result or {}).get("progress", {})
            events = (result or {}).get("events")
        if events is None:
            events = len(self.store.read_events(job_id))
        payload["events"] = events
        return payload

    def _status(self, job_id: str) -> bytes:
        """GET /jobs/<id>."""
        return json_response(200, self._job_payload(job_id))

    def _report(self, job_id: str, request: Request) -> bytes:
        """GET /jobs/<id>/report — summary plus the report pickle."""
        runtime = self.scheduler.live(job_id)
        job = runtime.job if runtime is not None else self._stored(job_id)
        if job.state != "done":
            raise HttpError(
                409,
                f"job {job_id} is {job.state}; the report is "
                f"only available once it is done",
            )
        result = self.store.load_result(job_id)
        if result is None:
            raise HttpError(500, f"job {job_id} has no persisted result")
        payload: Dict[str, Any] = {"id": job_id, "result": result}
        if request.query.get("pickle", "1") != "0":
            raw = self.store.load_report_pickle(job_id)
            if raw is not None:
                payload["report_pickle_base64"] = (
                    base64.b64encode(raw).decode("ascii")
                )
        return json_response(200, payload)

    def _cancel(self, job_id: str) -> bytes:
        """POST /jobs/<id>/cancel."""
        job = self.scheduler.cancel(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        return json_response(200, self._job_payload(job_id))

    async def _stream_events(
        self,
        job_id: str,
        request: Request,
        writer: "asyncio.StreamWriter",
    ) -> None:
        """GET /jobs/<id>/events — replay, then follow until terminal."""
        runtime = self._runtime(job_id)
        try:
            since = int(request.query.get("since", "0"))
        except ValueError as exc:
            raise HttpError(400, "since must be an integer") from exc
        follow = request.query.get("follow", "1") != "0"
        writer.write(stream_head())
        cursor = max(0, since)
        while True:
            while cursor < len(runtime.events):
                line = json.dumps(
                    runtime.events[cursor], sort_keys=True
                ) + "\n"
                writer.write(line.encode("utf-8"))
                cursor += 1
            await writer.drain()
            if not follow or runtime.job.terminal:
                return
            waiter = runtime.event_added
            if cursor < len(runtime.events):
                continue
            try:
                await asyncio.wait_for(waiter.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                # Periodic keepalive so dead clients are noticed.
                writer.write(b"\n")
                await writer.drain()


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro serve`` options on ``parser``.

    Shared between the standalone parser and the ``repro`` subcommand
    so the two spellings cannot drift.
    """
    parser.add_argument(
        "--state", required=True,
        help="server state directory (created if missing); restarting "
             "against the same directory resumes unfinished jobs",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8765,
        help="bind port; 0 picks a free port (see server.json)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker pool size (default: auto from CPU count)",
    )
    parser.add_argument(
        "--executor", choices=("process", "thread"), default="process",
        help="where chunk bodies run (default process)",
    )
    parser.add_argument(
        "--max-inflight-chunks", type=int, default=4,
        help="per-tenant cap on chunks occupying workers (default 4)",
    )
    parser.add_argument(
        "--max-active-jobs", type=int, default=8,
        help="per-tenant cap on queued+running jobs (default 8)",
    )


def build_serve_parser() -> argparse.ArgumentParser:
    """The standalone ``repro serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the campaign job service over a state directory.",
    )
    add_serve_arguments(parser)
    return parser


async def _amain(args: argparse.Namespace) -> int:
    """Async body of ``repro serve``: serve until SIGINT/SIGTERM."""
    store = JobStore(args.state)
    scheduler = Scheduler(
        store,
        workers=args.workers,
        quotas=TenantQuotas(
            max_inflight_chunks=args.max_inflight_chunks,
            max_active_jobs=args.max_active_jobs,
        ),
        executor=args.executor,
    )
    app = ServeApp(store, scheduler)
    port = await app.start(host=args.host, port=args.port)
    print(f"serve: listening on http://{args.host}:{port} "
          f"(state: {store.root}, workers: {scheduler.workers})",
          file=sys.stderr, flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # non-Unix event loops
            pass
    await stop.wait()
    print("serve: shutting down (unfinished jobs resume on restart)",
          file=sys.stderr, flush=True)
    await app.stop()
    return 0


def serve_main(args: Optional[argparse.Namespace] = None,
               argv: Optional[List[str]] = None) -> int:
    """Blocking entry point for ``repro serve``."""
    if args is None:
        args = build_serve_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 0
    except ReproError as error:
        print(f"serve: error: {error}", file=sys.stderr)
        return 2
