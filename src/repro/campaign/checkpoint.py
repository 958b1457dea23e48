"""Crash-safe campaign checkpoints: an append-only chunk-report journal.

A campaign interrupted at chunk *k* has already paid for chunks
``0..k-1``; because chunk reports are pure functions of their unit
ranges and merge through an associative monoid (docs/CAMPAIGNS.md), the
finished prefix can be replayed from disk and the resumed run's merged
report is *identical* to an uninterrupted one.  This module is that
disk format:

* **Journal layout** — line-oriented JSON: a header record carrying
  ``schema_version``, a campaign fingerprint, and the chunk geometry,
  followed by one record per completed chunk whose report travels as a
  checksummed, base64-encoded pickle.  A record counts once its
  terminating newline is on disk.
* **Appends** — the header is written once, as a complete image
  (``<path>.*.tmp``, fsync, ``os.replace``), so a journal never exists
  without it.  Each completed chunk then appends one line and fsyncs
  it before the campaign moves on: a kill at any instant loses at most
  the chunk in flight, and a journal costs bytes linear in its length.
  A crash mid-append leaves at worst a *torn* final line with no
  trailing newline; loading reports it and the next writer truncates
  it before appending, so that chunk simply runs again.
* **Compaction** — the only other full-image write: a resume whose
  replayed records failed certificate re-verification rewrites the
  journal without them, so the re-run chunk's record cannot collide
  with a stale one.
* **Validation** — apart from that single torn tail, every defect —
  a missing header, an unparseable or checksum-failing line anywhere
  else (a newline-terminated final line included), an unknown
  ``schema_version``, a duplicate chunk index, or geometry/fingerprint
  drift — raises a clear :class:`~repro.errors.CheckpointError`
  instead of silently skipping or repeating work.

The engine (:func:`~repro.campaign.engine.run_campaign`) journals each
chunk as it completes and, on ``resume=True``, feeds the loaded reports
straight into the merge fold, skipping finished chunks.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import pickle
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from repro.durable import atomic_write
from repro.errors import CheckpointError

#: Version stamp written into every journal header; bump on layout changes.
CHECKPOINT_SCHEMA_VERSION = 1

_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def job_fingerprint(job: Any, total_units: int, chunk_size: int) -> str:
    """A stable identity for one campaign: job state plus chunk geometry.

    The job's full parameterization is captured by pickling it at a
    pinned protocol (deterministic for the frozen dataclasses jobs are
    made of); jobs that cannot be pickled — e.g. a locally defined task
    — fall back to an address-stripped repr, which survives process
    restarts.  Resuming validates the stored fingerprint against the
    live job: a mismatch means the checkpoint describes a *different*
    campaign and must be rejected rather than merged into.
    """
    try:
        blob = pickle.dumps(job, protocol=4)
    except Exception:
        blob = _ADDRESS.sub("0x?", repr(job)).encode("utf-8")
    digest = hashlib.sha256()
    digest.update(blob)
    digest.update(f"|total={total_units}|chunk_size={chunk_size}".encode())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class ChunkRecord:
    """One journaled chunk: its range and its decoded partial report."""

    index: int
    start: int
    stop: int
    report: Any


@dataclass(frozen=True)
class CheckpointState:
    """A parsed, validated journal: header fields plus chunk records."""

    schema_version: int
    fingerprint: str
    total_units: int
    chunk_size: int
    records: Dict[int, ChunkRecord]
    #: Byte offset of a torn final line (a crash mid-append), which is
    #: not among ``records``; ``None`` when the journal ends cleanly.
    torn_offset: Optional[int] = None

    @property
    def completed_indices(self) -> List[int]:
        """Journaled chunk indices, ascending."""
        return sorted(self.records)


def _encode_report(report: Any) -> Dict[str, str]:
    """Encode a chunk report as checksummed base64 pickle fields."""
    payload = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "payload": base64.b64encode(payload).decode("ascii"),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }


def _decode_report(record: Dict[str, Any], line_no: int) -> Any:
    """Decode and checksum-verify a journaled report payload."""
    try:
        payload = base64.b64decode(
            record["payload"].encode("ascii"), validate=True
        )
    except (KeyError, AttributeError, binascii.Error) as error:
        raise CheckpointError(
            f"checkpoint line {line_no}: unreadable payload ({error})"
        ) from error
    digest = hashlib.sha256(payload).hexdigest()
    if digest != record.get("sha256"):
        raise CheckpointError(
            f"checkpoint line {line_no}: payload checksum mismatch "
            f"(journal corrupted or truncated mid-record)"
        )
    try:
        return pickle.loads(payload)
    except Exception as error:  # pickle raises many concrete types
        raise CheckpointError(
            f"checkpoint line {line_no}: payload failed to unpickle "
            f"({type(error).__name__}: {error})"
        ) from error


def _record_line(index: int, start: int, stop: int, report: Any) -> str:
    """One chunk record as a JSON line (no trailing newline)."""
    body = {"kind": "chunk", "index": index, "start": start, "stop": stop}
    body.update(_encode_report(report))
    return json.dumps(body, sort_keys=True)


def load_checkpoint(path: str) -> CheckpointState:
    """Parse and validate a checkpoint journal.

    Tolerates exactly one defect: a torn final line (no trailing
    newline), the trace of a crash mid-append.  It is left out of the
    records and its byte offset is reported as
    :attr:`CheckpointState.torn_offset`.  Everything else raises
    :class:`~repro.errors.CheckpointError`: a missing or empty file, a
    malformed line (the newline-terminated last one included), a
    checksum mismatch, a ``schema_version`` this code does not
    understand, or a duplicate chunk index.  A leftover
    ``<path>.*.tmp`` from a crashed full-image write is ignored
    entirely.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {error}"
        ) from error
    if not data:
        raise CheckpointError(f"checkpoint {path!r} is empty")
    complete, newline, tail = data.rpartition(b"\n")
    torn_offset = len(complete) + len(newline) if tail else None
    lines = complete.split(b"\n") if newline else []
    if not lines:
        raise CheckpointError(
            f"checkpoint {path!r} has no header record "
            f"(its only line is torn)"
        )

    def parse(line: bytes, line_no: int) -> Dict[str, Any]:
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"checkpoint line {line_no}: not valid JSON "
                f"(journal corrupted): {error}"
            ) from error
        if not isinstance(record, dict):
            raise CheckpointError(
                f"checkpoint line {line_no}: expected an object, "
                f"got {type(record).__name__}"
            )
        return record

    header = parse(lines[0], 1)
    if header.get("kind") != "campaign-checkpoint":
        raise CheckpointError(
            f"checkpoint {path!r} has no header record "
            f"(first line kind={header.get('kind')!r})"
        )
    version = header.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has schema_version {version!r}; "
            f"this build reads version {CHECKPOINT_SCHEMA_VERSION}"
        )
    try:
        fingerprint = header["fingerprint"]
        total_units = int(header["total_units"])
        chunk_size = int(header["chunk_size"])
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint {path!r}: malformed header ({error})"
        ) from error

    records: Dict[int, ChunkRecord] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        record = parse(line, line_no)
        if record.get("kind") != "chunk":
            raise CheckpointError(
                f"checkpoint line {line_no}: unknown record kind "
                f"{record.get('kind')!r}"
            )
        try:
            index = int(record["index"])
            start = int(record["start"])
            stop = int(record["stop"])
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint line {line_no}: malformed chunk record "
                f"({error})"
            ) from error
        if index in records:
            raise CheckpointError(
                f"checkpoint line {line_no}: duplicate chunk index {index}"
            )
        records[index] = ChunkRecord(
            index=index, start=start, stop=stop,
            report=_decode_report(record, line_no),
        )
    return CheckpointState(
        schema_version=version, fingerprint=fingerprint,
        total_units=total_units, chunk_size=chunk_size, records=records,
        torn_offset=torn_offset,
    )


class CheckpointWriter:
    """Journals completed chunks by fsync'd appends to one file.

    A fresh writer creates the journal as a header-only image (tmp,
    fsync, rename).  A resume passes ``state``, the loaded journal of
    this same campaign (the caller has validated its header), and the
    writer appends to that file: it first truncates a torn final line,
    and it compacts the journal to a new image only when ``drop`` names
    records the caller will not merge (a record for the same index
    appended later would otherwise be a duplicate).  :meth:`record_chunk` appends one line and fsyncs it
    before returning, so a kill at any instant loses at most the chunk
    in flight.  Recording is idempotent per chunk index (replays after
    a pool fallback are no-ops).
    """

    def __init__(
        self,
        path: str,
        fingerprint: str,
        total_units: int,
        chunk_size: int,
        state: Optional[CheckpointState] = None,
        drop: Iterable[int] = (),
    ):
        self.path = path
        self.fingerprint = fingerprint
        self.total_units = total_units
        self.chunk_size = chunk_size
        if state is None:
            self._recorded: Set[int] = set()
            self._flush([])
            return
        drop = set(drop)
        kept = [
            state.records[index] for index in state.completed_indices
            if index not in drop
        ]
        self._recorded = {record.index for record in kept}
        if len(kept) < len(state.records):
            self._flush(kept)
        elif state.torn_offset is not None:
            fd = os.open(path, os.O_WRONLY)
            try:
                os.ftruncate(fd, state.torn_offset)
                os.fsync(fd)
            finally:
                os.close(fd)

    def _flush(self, records: Sequence[ChunkRecord]) -> None:
        """Write a complete journal image: tmp, fsync, rename into place.

        The image is the header plus ``records``.  Only a fresh journal
        and a compacting resume come here; chunk records are appended
        by :meth:`record_chunk`.  Creates missing parent directories on
        the way: a first-boot ``--resume state/run.ckpt`` (the natural
        service path) starts fresh and creates the journal instead of
        failing.
        """
        header = json.dumps({
            "kind": "campaign-checkpoint",
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "total_units": self.total_units,
            "chunk_size": self.chunk_size,
        }, sort_keys=True)
        lines = [header] + [
            _record_line(record.index, record.start, record.stop,
                         record.report)
            for record in records
        ]
        atomic_write(self.path, "\n".join(lines) + "\n")

    def record_chunk(
        self, index: int, start: int, stop: int, report: Any
    ) -> None:
        """Journal one completed chunk's report (idempotent, crash-safe).

        Appends the record and fsyncs it.  An append that fails part
        way is cut back off before the error propagates, so the same
        writer can append again; a crash that prevents even that leaves
        a torn final line, which the next load tolerates.
        """
        if index in self._recorded:
            return
        line = (_record_line(index, start, stop, report) + "\n").encode(
            "ascii"
        )
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            end = os.fstat(fd).st_size
            try:
                view = memoryview(line)
                while view:
                    view = view[os.write(fd, view):]
                os.fsync(fd)
            except BaseException:
                try:
                    os.ftruncate(fd, end)
                except OSError:
                    pass
                raise
        finally:
            os.close(fd)
        self._recorded.add(index)
