"""Checkpoint journal: schema round-trip, corruption detection, appends.

The journal must be paranoid: anything it cannot fully trust — a
corrupt or checksum-failing line, an unknown schema version, a
fingerprint from a different campaign — raises a clear
:class:`~repro.errors.CheckpointError` rather than silently skipping or
repeating work.  The single tolerated defect is a torn final line (no
trailing newline), the trace of a crash mid-append: it is dropped, and
that one chunk runs again.  The header is written once by tmp → fsync →
rename; every chunk record is an fsync'd append, so bytes written grow
linearly with the journal.
"""

import dataclasses
import json
import os
import shutil

import pytest

from repro.campaign import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointWriter,
    FakeClock,
    SweepProtocolJob,
    job_fingerprint,
    load_checkpoint,
    run_campaign,
)
from repro.campaign.jobs import FuzzJob
from repro.core.sweep import SweepReport
from repro.errors import CheckpointError
from repro.protocols import (
    KSetAgreementTask,
    MinSeen,
    RacingConsensus,
    TruncatedProtocol,
)

#: A journal written by the previous, full-rewrite writer: the header
#: plus chunks 0 and 1 of ``make_job()`` at ``chunk_size=3``.  The line
#: format is unchanged, so it must load and resume byte-for-byte.
GOLDEN_JOURNAL = os.path.join(
    os.path.dirname(__file__), "data", "journal_v1.ckpt"
)


def make_job(seed_count=12):
    return SweepProtocolJob(
        protocol=MinSeen(3, rounds=2), inputs=(4, 1, 9),
        seeds=tuple(range(seed_count)), task=KSetAgreementTask(3),
    )


def write_sample(path, job=None, chunks=((0, 3), (3, 6))):
    """A small valid journal with one report per chunk; returns reports."""
    job = job or make_job()
    fingerprint = job_fingerprint(job, 12, 3)
    writer = CheckpointWriter(str(path), fingerprint, 12, 3)
    reports = {}
    for index, (start, stop) in enumerate(chunks):
        report = job.run_range(start, stop)
        writer.record_chunk(index, start, stop, report)
        reports[index] = report
    return fingerprint, reports


class TestRoundTrip:
    def test_schema_round_trip(self, tmp_path):
        path = tmp_path / "ckpt"
        fingerprint, reports = write_sample(path)
        state = load_checkpoint(str(path))
        assert state.schema_version == CHECKPOINT_SCHEMA_VERSION
        assert state.fingerprint == fingerprint
        assert state.total_units == 12
        assert state.chunk_size == 3
        assert state.completed_indices == [0, 1]
        for index, report in reports.items():
            record = state.records[index]
            assert record.report == report
            assert repr(record.report) == repr(report)
            assert (record.start, record.stop) == (3 * index, 3 * index + 3)

    def test_recording_is_idempotent_per_index(self, tmp_path):
        path = tmp_path / "ckpt"
        job = make_job()
        fingerprint = job_fingerprint(job, 12, 3)
        writer = CheckpointWriter(str(path), fingerprint, 12, 3)
        report = job.run_range(0, 3)
        writer.record_chunk(0, 0, 3, report)
        writer.record_chunk(0, 0, 3, report)  # replay: must not duplicate
        state = load_checkpoint(str(path))
        assert state.completed_indices == [0]

    def test_resuming_writer_preserves_loaded_records(self, tmp_path):
        path = tmp_path / "ckpt"
        job = make_job()
        fingerprint, reports = write_sample(path, job)
        state = load_checkpoint(str(path))
        writer = CheckpointWriter(
            str(path), fingerprint, 12, 3, state=state
        )
        writer.record_chunk(2, 6, 9, job.run_range(6, 9))
        reloaded = load_checkpoint(str(path))
        assert reloaded.completed_indices == [0, 1, 2]
        assert reloaded.records[0].report == reports[0]

    def test_header_written_before_any_chunk(self, tmp_path):
        path = tmp_path / "ckpt"
        CheckpointWriter(str(path), "f" * 16, 12, 3)
        state = load_checkpoint(str(path))
        assert state.completed_indices == []


class TestCorruptionDetection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ckpt"
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            load_checkpoint(str(path))

    def test_corrupt_middle_line_raises_naming_it(self, tmp_path):
        """Only the *final* line may be torn: a cut record followed by
        an intact one is corruption, not a crash trace."""
        path = tmp_path / "ckpt"
        write_sample(path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError, match="line 2: not valid JSON"):
            load_checkpoint(str(path))

    def test_newline_terminated_bad_final_line_raises(self, tmp_path):
        """A final line that was fully appended (its newline is on disk)
        but fails to parse is corruption, not a torn append."""
        path = tmp_path / "ckpt"
        write_sample(path)
        text = path.read_bytes()
        path.write_bytes(text[: len(text) - 40] + b"\n")
        with pytest.raises(CheckpointError, match="line 3"):
            load_checkpoint(str(path))

    def test_newline_terminated_checksum_failure_on_final_line(
        self, tmp_path
    ):
        path = tmp_path / "ckpt"
        write_sample(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])
        record["sha256"] = "0" * 64
        lines[-1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="line 3: payload checksum"):
            load_checkpoint(str(path))

    def test_torn_header_is_no_header(self, tmp_path):
        path = tmp_path / "ckpt"
        path.write_text('{"kind": "campaign-check')
        with pytest.raises(CheckpointError, match="no header"):
            load_checkpoint(str(path))

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "ckpt"
        write_sample(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        payload = record["payload"]
        # Flip one base64 character (keeping it valid base64).
        flipped = ("B" if payload[10] != "B" else "C")
        record["payload"] = payload[:10] + flipped + payload[11:]
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(str(path))

    def test_garbage_line_detected(self, tmp_path):
        path = tmp_path / "ckpt"
        write_sample(path)
        with open(path, "a") as handle:
            handle.write("not json at all\n")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt"
        write_sample(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 99
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="schema_version"):
            load_checkpoint(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "ckpt"
        write_sample(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")  # drop the header
        with pytest.raises(CheckpointError, match="no header"):
            load_checkpoint(str(path))

    def test_duplicate_chunk_index_rejected(self, tmp_path):
        path = tmp_path / "ckpt"
        write_sample(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(CheckpointError, match="duplicate chunk"):
            load_checkpoint(str(path))

    def test_scalar_json_line_rejected(self, tmp_path):
        """A line that parses but is no object (e.g. a bare number)."""
        path = tmp_path / "ckpt"
        write_sample(path)
        with open(path, "a") as handle:
            handle.write("42\n")
        with pytest.raises(CheckpointError, match="expected an object"):
            load_checkpoint(str(path))

    def test_unknown_record_kind_rejected(self, tmp_path):
        path = tmp_path / "ckpt"
        write_sample(path)
        with open(path, "a") as handle:
            handle.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(CheckpointError, match="unknown record kind"):
            load_checkpoint(str(path))

    def test_chunk_record_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "ckpt"
        write_sample(path)
        with open(path, "a") as handle:
            handle.write(json.dumps({"kind": "chunk"}) + "\n")
        with pytest.raises(CheckpointError, match="malformed chunk record"):
            load_checkpoint(str(path))

    def test_header_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "ckpt"
        write_sample(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["fingerprint"]
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(str(path))

    def test_invalid_base64_payload_rejected(self, tmp_path):
        path = tmp_path / "ckpt"
        write_sample(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["payload"] = "!!!not base64!!!"
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="unreadable payload"):
            load_checkpoint(str(path))

    def test_unpicklable_payload_rejected(self, tmp_path):
        """Valid base64, matching checksum — but the bytes are not a
        pickle.  The checksum says 'intact'; unpickling must still be
        guarded, because intact garbage is not a report."""
        import base64
        import hashlib

        path = tmp_path / "ckpt"
        write_sample(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        garbage = b"intact but not a pickle"
        record["payload"] = base64.b64encode(garbage).decode("ascii")
        record["sha256"] = hashlib.sha256(garbage).hexdigest()
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="failed to unpickle"):
            load_checkpoint(str(path))


class TestResumeValidation:
    def test_fingerprint_mismatch_rejected_on_resume(self, tmp_path):
        path = str(tmp_path / "ckpt")
        job = make_job()
        run_campaign(job, workers=1, chunk_size=3, checkpoint=path)
        different = SweepProtocolJob(
            protocol=MinSeen(3, rounds=3), inputs=(4, 1, 9),
            seeds=tuple(range(12)), task=KSetAgreementTask(3),
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            run_campaign(
                different, workers=1, chunk_size=3,
                checkpoint=path, resume=True,
            )

    def test_chunk_size_mismatch_rejected_on_resume(self, tmp_path):
        path = str(tmp_path / "ckpt")
        job = make_job()
        run_campaign(job, workers=1, chunk_size=3, checkpoint=path)
        with pytest.raises(CheckpointError, match="chunk_size"):
            run_campaign(
                job, workers=1, chunk_size=4,
                checkpoint=path, resume=True,
            )

    def test_auto_chunk_size_adopts_checkpoint_geometry(self, tmp_path):
        """Resuming without an explicit chunk_size reuses the journal's."""
        path = str(tmp_path / "ckpt")
        job = make_job()
        clean = run_campaign(job, workers=1, chunk_size=3)
        run_campaign(job, workers=1, chunk_size=3, checkpoint=path)
        resumed = run_campaign(
            job, workers=1, checkpoint=path, resume=True,
            clock=FakeClock(),
        )
        assert resumed.telemetry.chunk_size == 3
        assert resumed.report == clean.report

    def test_unit_count_mismatch_rejected_on_resume(self, tmp_path):
        path = str(tmp_path / "ckpt")
        run_campaign(make_job(12), workers=1, chunk_size=3,
                     checkpoint=path)
        with pytest.raises(CheckpointError, match="12 units"):
            run_campaign(
                make_job(15), workers=1, chunk_size=3,
                checkpoint=path, resume=True,
            )

    def test_chunk_range_mismatch_rejected_on_resume(self, tmp_path):
        """A journaled chunk whose range disagrees with the campaign's
        chunk plan (same fingerprint, same geometry) must be refused —
        merging it would double- or under-count units."""
        path = tmp_path / "ckpt"
        job = make_job()
        fingerprint = job_fingerprint(job, 12, 3)
        writer = CheckpointWriter(str(path), fingerprint, 12, 3)
        # Plan says chunk 0 covers (0, 3); journal claims (0, 4).
        writer.record_chunk(0, 0, 4, job.run_range(0, 4))
        with pytest.raises(CheckpointError, match="chunk plan"):
            run_campaign(
                job, workers=1, chunk_size=3,
                checkpoint=str(path), resume=True,
            )


class TestAtomicity:
    def test_leftover_tmp_file_is_ignored(self, tmp_path):
        """A crash between tmp-write and rename leaves <path>.*.tmp
        behind; loading reads only the atomically renamed journal."""
        path = tmp_path / "ckpt"
        fingerprint, reports = write_sample(path)
        (tmp_path / "ckpt.garbage.tmp").write_text("half a reco")
        state = load_checkpoint(str(path))
        assert state.completed_indices == [0, 1]
        assert state.records[1].report == reports[1]

    def test_crash_inside_append_keeps_earlier_records(
        self, tmp_path, monkeypatch
    ):
        """An append that dies half-written is cut back off: every
        earlier record still loads and the writer can append again."""
        path = tmp_path / "ckpt"
        job = make_job()
        fingerprint = job_fingerprint(job, 12, 3)
        writer = CheckpointWriter(str(path), fingerprint, 12, 3)
        writer.record_chunk(0, 0, 3, job.run_range(0, 3))
        before = path.read_bytes()

        real_write = os.write

        def dying_write(fd, data):
            real_write(fd, bytes(data[: len(data) // 2]))
            raise OSError("simulated crash during append")

        monkeypatch.setattr(os, "write", dying_write)
        with pytest.raises(OSError, match="simulated crash"):
            writer.record_chunk(1, 3, 6, job.run_range(3, 6))
        monkeypatch.setattr(os, "write", real_write)

        assert path.read_bytes() == before
        state = load_checkpoint(str(path))
        assert state.completed_indices == [0]
        assert state.torn_offset is None
        report = job.run_range(3, 6)
        writer.record_chunk(1, 3, 6, report)
        state = load_checkpoint(str(path))
        assert state.completed_indices == [0, 1]
        assert state.records[1].report == report

    def test_kill_inside_append_leaves_a_torn_tail(
        self, tmp_path, monkeypatch
    ):
        """A kill that prevents even the cut-back leaves a torn final
        line: earlier records load, the torn one is reported, and the
        next writer truncates it before appending."""
        path = tmp_path / "ckpt"
        job = make_job()
        fingerprint = job_fingerprint(job, 12, 3)
        writer = CheckpointWriter(str(path), fingerprint, 12, 3)
        first = job.run_range(0, 3)
        writer.record_chunk(0, 0, 3, first)
        intact = len(path.read_bytes())

        real_write = os.write

        def dying_write(fd, data):
            real_write(fd, bytes(data[: len(data) // 2]))
            raise OSError("simulated kill during append")

        def dead_ftruncate(fd, length):
            raise OSError("the process is already gone")

        monkeypatch.setattr(os, "write", dying_write)
        monkeypatch.setattr(os, "ftruncate", dead_ftruncate)
        with pytest.raises(OSError, match="simulated kill"):
            writer.record_chunk(1, 3, 6, job.run_range(3, 6))
        monkeypatch.undo()

        assert len(path.read_bytes()) > intact
        state = load_checkpoint(str(path))
        assert state.completed_indices == [0]
        assert state.records[0].report == first
        assert state.torn_offset == intact

        resumed = CheckpointWriter(str(path), fingerprint, 12, 3,
                                   state=state)
        assert len(path.read_bytes()) == intact
        resumed.record_chunk(1, 3, 6, job.run_range(3, 6))
        state = load_checkpoint(str(path))
        assert state.completed_indices == [0, 1]
        assert state.torn_offset is None

    def test_records_are_appended_not_rewritten(self, tmp_path):
        """Each record_chunk leaves every earlier byte in place."""
        path = tmp_path / "ckpt"
        job = make_job()
        writer = CheckpointWriter(
            str(path), job_fingerprint(job, 12, 3), 12, 3
        )
        previous = path.read_bytes()
        for index in range(4):
            writer.record_chunk(
                index, 3 * index, 3 * index + 3,
                job.run_range(3 * index, 3 * index + 3),
            )
            current = path.read_bytes()
            assert current.startswith(previous)
            assert current.endswith(b"\n")
            assert current.count(b"\n") == index + 2
            previous = current


class TestTornTail:
    def test_cut_mid_record_resumes_identically(self, tmp_path):
        """A journal whose last record was cut mid-line (a kill during
        the append) resumes to an ==/repr-identical report, re-running
        only the torn chunk."""
        path = tmp_path / "ckpt"
        job = make_job()
        clean = run_campaign(job, workers=1, chunk_size=3)
        run_campaign(job, workers=1, chunk_size=3, checkpoint=str(path))
        text = path.read_bytes()
        last_start = text.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(text[: len(text) - 40])

        state = load_checkpoint(str(path))
        assert state.completed_indices == [0, 1, 2]
        assert state.torn_offset == last_start

        resumed = run_campaign(
            job, workers=1, chunk_size=3, checkpoint=str(path),
            resume=True, clock=FakeClock(),
        )
        assert resumed.telemetry.skipped_chunks == 3
        assert [stats.index for stats in resumed.telemetry.chunks] == [3]
        assert resumed.report == clean.report
        assert repr(resumed.report) == repr(clean.report)
        assert path.read_bytes() == text
        assert load_checkpoint(str(path)).torn_offset is None

    def test_full_rewrite_era_journal_loads_and_resumes(self, tmp_path):
        """A journal written by the full-rewrite writer (golden bytes)
        loads, resumes to the uninterrupted report, and is appended to
        rather than rewritten."""
        path = tmp_path / "ckpt"
        shutil.copyfile(GOLDEN_JOURNAL, path)
        with open(GOLDEN_JOURNAL, "rb") as handle:
            golden = handle.read()
        job = make_job()
        state = load_checkpoint(str(path))
        assert state.fingerprint == job_fingerprint(job, 12, 3)
        assert state.completed_indices == [0, 1]
        assert state.torn_offset is None
        for index in (0, 1):
            expected = job.run_range(3 * index, 3 * index + 3)
            assert state.records[index].report == expected
            assert repr(state.records[index].report) == repr(expected)

        clean = run_campaign(job, workers=1, chunk_size=3)
        resumed = run_campaign(
            job, workers=1, chunk_size=3, checkpoint=str(path),
            resume=True, clock=FakeClock(),
        )
        assert resumed.telemetry.skipped_chunks == 2
        assert resumed.report == clean.report
        assert repr(resumed.report) == repr(clean.report)
        after = path.read_bytes()
        assert after.startswith(golden)
        assert load_checkpoint(str(path)).completed_indices == [0, 1, 2, 3]

    def test_resume_dropping_a_record_leaves_no_duplicate(self, tmp_path):
        """A journaled chunk whose certificate fails re-verification is
        re-run; the journal is compacted so the re-run's record is the
        only one for that index, and the next resume trusts it."""
        path = tmp_path / "ckpt"
        job = FuzzJob(
            protocol=TruncatedProtocol(RacingConsensus(2), 1),
            inputs=(0, 1), task=KSetAgreementTask(1), runs=80,
            schedule_length=40, seed=7, certificates=True,
        )
        total, chunk_size = job.total_units(), 20
        honest = job.run_range(20, 40)
        assert honest.certificates
        forged = job.run_range(20, 40)
        forged.certificates = [
            dataclasses.replace(forged.certificates[0], checksum="0" * 64)
        ] + forged.certificates[1:]
        writer = CheckpointWriter(
            str(path), job_fingerprint(job, total, chunk_size), total,
            chunk_size,
        )
        writer.record_chunk(0, 0, 20, job.run_range(0, 20))
        writer.record_chunk(1, 20, 40, forged)
        writer.record_chunk(2, 40, 60, job.run_range(40, 60))

        clean = run_campaign(job, workers=1, chunk_size=chunk_size,
                             verify_certificates=True)
        resumed = run_campaign(
            job, workers=1, chunk_size=chunk_size, checkpoint=str(path),
            resume=True, verify_certificates=True, clock=FakeClock(),
        )
        assert resumed.complete
        assert [stats.index for stats in resumed.telemetry.chunks] == [1, 3]
        assert resumed.report == clean.report

        state = load_checkpoint(str(path))  # no duplicate chunk index
        assert state.completed_indices == [0, 1, 2, 3]
        assert state.records[1].report == honest
        again = run_campaign(
            job, workers=1, chunk_size=chunk_size, checkpoint=str(path),
            resume=True, verify_certificates=True,
        )
        assert again.telemetry.skipped_chunks == 4
        assert again.report == clean.report


class TestFreshResume:
    def test_resume_with_missing_journal_starts_fresh(self, tmp_path):
        """``resume=True`` against a journal that doesn't exist yet must
        start fresh and create it — the first boot of every scripted
        ``--checkpoint P --resume`` loop hits this path."""
        path = tmp_path / "fresh.ckpt"
        job = make_job()
        result = run_campaign(
            job, workers=1, chunk_size=3,
            checkpoint=str(path), resume=True,
        )
        assert result.complete
        assert result.telemetry.skipped_chunks == 0
        state = load_checkpoint(str(path))
        assert state.completed_indices == [0, 1, 2, 3]

    def test_resume_creates_missing_parent_directories(self, tmp_path):
        """The journal's parent directory may not exist on first boot
        either (e.g. ``--checkpoint state/run/journal.ckpt``); the
        writer creates the whole path rather than failing the first
        flush."""
        path = tmp_path / "state" / "run" / "journal.ckpt"
        job = make_job()
        first = run_campaign(
            job, workers=1, chunk_size=3,
            checkpoint=str(path), resume=True,
        )
        assert path.exists()
        resumed = run_campaign(
            job, workers=1, chunk_size=3,
            checkpoint=str(path), resume=True,
        )
        assert resumed.telemetry.skipped_chunks == 4
        assert resumed.report == first.report
