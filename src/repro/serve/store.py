"""Durable job state for the campaign service.

Every job owns one directory under ``<state>/jobs/<id>/``::

    job.json       # identity + state machine, atomically replaced
    journal.ckpt   # the PR 5 chunk-report checkpoint journal
    events.ndjson  # append-only per-chunk telemetry event log
    report.pkl     # the finalized merged report (pickle), done jobs
    result.json    # summary / telemetry / progress / missing / event
                   # count, done jobs

The state machine is ``queued → running → done | failed | cancelled``.
``job.json`` is only ever written via tmp → fsync → ``os.replace`` (the
same discipline as the checkpoint journal), so a SIGKILL at any instant
leaves either the old or the new status on disk — never a torn one.  A
job found in ``queued`` or ``running`` at startup was interrupted by a
crash; :meth:`JobStore.recoverable` hands it back to the scheduler,
which resumes it from its journal.  Chunk-level durability lives in the
journal itself: the merged report of a resumed job is ``==``-identical
to an uninterrupted run (docs/CAMPAIGNS.md, promoted to a service
invariant in docs/SERVICE.md).

The event log is advisory telemetry (progress streaming), not source of
truth; a truncated final line after a crash is tolerated and skipped.
"""

from __future__ import annotations

import json
import os
import pickle
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.durable import atomic_write
from repro.errors import ReproError
from repro.serve.jobspec import JobSpec, JobSpecError

#: Version stamp for ``job.json``; bump on layout changes.
JOB_SCHEMA_VERSION = 1

#: The job state machine's states, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States from which no further transition is possible.
TERMINAL_STATES = ("done", "failed", "cancelled")


class StoreError(ReproError):
    """A job directory is missing or unreadable."""


@dataclass
class ServeJob:
    """One service job: identity, spec, and state-machine position."""

    id: str
    tenant: str
    spec: JobSpec
    state: str = "queued"
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        """True once the job can never change state again."""
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        """The ``job.json`` wire form."""
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            "id": self.id,
            "tenant": self.tenant,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ServeJob":
        """Rebuild a job from its persisted ``job.json`` object."""
        if data.get("schema_version") != JOB_SCHEMA_VERSION:
            raise StoreError(
                f"job record has schema_version "
                f"{data.get('schema_version')!r}; this build reads "
                f"{JOB_SCHEMA_VERSION}"
            )
        state = data.get("state")
        if state not in JOB_STATES:
            raise StoreError(f"job record has unknown state {state!r}")
        return ServeJob(
            id=str(data["id"]),
            tenant=str(data["tenant"]),
            spec=JobSpec.from_dict(data["spec"]),
            state=state,
            created_at=float(data.get("created_at") or 0.0),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            error=data.get("error"),
        )


class JobStore:
    """The on-disk job registry under one server state directory."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths

    def job_dir(self, job_id: str) -> str:
        """The directory holding one job's files."""
        return os.path.join(self.jobs_dir, job_id)

    def journal_path(self, job_id: str) -> str:
        """The job's chunk-report checkpoint journal."""
        return os.path.join(self.job_dir(job_id), "journal.ckpt")

    def events_path(self, job_id: str) -> str:
        """The job's append-only NDJSON event log."""
        return os.path.join(self.job_dir(job_id), "events.ndjson")

    def report_path(self, job_id: str) -> str:
        """The finalized report pickle (terminal jobs only)."""
        return os.path.join(self.job_dir(job_id), "report.pkl")

    def result_path(self, job_id: str) -> str:
        """The finalized result summary JSON (terminal jobs only)."""
        return os.path.join(self.job_dir(job_id), "result.json")

    # ------------------------------------------------------------------
    # Lifecycle

    def create(self, tenant: str, spec: JobSpec) -> ServeJob:
        """Register a new queued job and persist it."""
        job = ServeJob(id=uuid.uuid4().hex[:12], tenant=tenant, spec=spec)
        self.save(job)
        return job

    def save(self, job: ServeJob) -> None:
        """Persist the job's current state atomically."""
        atomic_write(
            os.path.join(self.job_dir(job.id), "job.json"),
            json.dumps(job.to_dict(), sort_keys=True) + "\n",
        )

    def transition(self, job: ServeJob, state: str,
                   error: Optional[str] = None) -> None:
        """Move the job to ``state`` and persist the change.

        Stamps ``started_at``/``finished_at`` on the way; refuses to
        move a terminal job (the crash-recovery path goes through
        :meth:`recoverable`, which only touches non-terminal jobs).
        """
        if state not in JOB_STATES:
            raise StoreError(f"unknown job state {state!r}")
        if job.terminal:
            raise StoreError(
                f"job {job.id} is already {job.state}; cannot move to "
                f"{state}"
            )
        job.state = state
        if state == "running" and job.started_at is None:
            job.started_at = time.time()
        if state in TERMINAL_STATES:
            job.finished_at = time.time()
        job.error = error
        self.save(job)

    def load(self, job_id: str) -> ServeJob:
        """Read one job back from disk."""
        path = os.path.join(self.job_dir(job_id), "job.json")
        try:
            with open(path, "rb") as handle:
                return ServeJob.from_dict(json.loads(handle.read()))
        except (OSError, ValueError, KeyError, JobSpecError) as exc:
            raise StoreError(
                f"cannot read job {job_id!r}: {exc}"
            ) from exc

    def list_jobs(self) -> List[ServeJob]:
        """All readable jobs, oldest first (unreadable dirs skipped)."""
        jobs = []
        try:
            entries = sorted(os.listdir(self.jobs_dir))
        except OSError:
            return []
        for entry in entries:
            try:
                jobs.append(self.load(entry))
            except StoreError:
                continue
        jobs.sort(key=lambda job: (job.created_at, job.id))
        return jobs

    def count_jobs(self) -> int:
        """The number of job directories, none of them parsed."""
        try:
            return len(os.listdir(self.jobs_dir))
        except OSError:
            return 0

    def recoverable(self) -> List[ServeJob]:
        """Jobs interrupted by a crash: still queued or running on disk."""
        return [job for job in self.list_jobs() if not job.terminal]

    # ------------------------------------------------------------------
    # Events

    def append_event(self, job_id: str, event: Dict[str, Any]) -> None:
        """Append one event line to the job's NDJSON log."""
        with open(self.events_path(job_id), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(event, sort_keys=True) + "\n")

    def read_events(self, job_id: str) -> List[Dict[str, Any]]:
        """Replay the event log, skipping lines that do not parse.

        A crash can tear the last append; a damaged line elsewhere
        costs only itself, never the events after it.  The log is
        advisory, so neither fails the read.
        """
        events: List[Dict[str, Any]] = []
        try:
            with open(self.events_path(job_id), "r",
                      encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    try:
                        events.append(json.loads(line))
                    except ValueError:
                        continue
        except OSError:
            pass
        return events

    # ------------------------------------------------------------------
    # Results

    def save_result(self, job: ServeJob, result: Any,
                    progress: Optional[Dict[str, Any]] = None,
                    events: Optional[int] = None) -> None:
        """Persist a finished campaign's report and summary.

        ``report.pkl`` carries the full report object (the drill
        unpickles it to assert ``==``-identity with an uninterrupted
        run); ``result.json`` carries what the HTTP API serves without
        unpickling, including the job's final chunk ``progress`` and
        the length of its finished event log (``events``), so a status
        read never parses ``events.ndjson``.
        """
        atomic_write(self.report_path(job.id), pickle.dumps(
            result.report, protocol=pickle.HIGHEST_PROTOCOL,
        ))
        certificates = getattr(result.report, "certificates", None) or []
        atomic_write(self.result_path(job.id), json.dumps({
            "summary": result.report.summary(),
            "repr": repr(result.report),
            "telemetry": result.telemetry.summary(),
            "complete": result.complete,
            "missing": list(result.missing),
            "progress": progress or {},
            "events": events,
            "certificates": [
                {
                    "kind": cert.kind,
                    "schema_version": cert.schema_version,
                    "payload": cert.payload,
                    "checksum": cert.checksum,
                }
                for cert in certificates
            ],
        }, sort_keys=True) + "\n")

    def load_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The persisted result summary, or ``None`` if absent."""
        try:
            with open(self.result_path(job_id), "rb") as handle:
                return json.loads(handle.read())
        except (OSError, ValueError):
            return None

    def load_report_pickle(self, job_id: str) -> Optional[bytes]:
        """The finalized report's pickle bytes, or ``None`` if absent."""
        try:
            with open(self.report_path(job_id), "rb") as handle:
                return handle.read()
        except OSError:
            return None
