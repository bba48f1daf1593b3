"""Tests for repro.trace: format roundtrip, corruption, capture, replay."""

import io
import struct

import pytest

from repro.common import ClientRef, LEGIT, SEAT_SPINNER
from repro.stream import StreamPipeline
from repro.trace import (
    TRACE_MAGIC,
    TRACE_VERSION,
    TraceCapture,
    TraceCorruption,
    TraceError,
    TraceReader,
    TraceWriter,
    read_entries,
    rebuild_log,
    replay_trace,
)
from repro.web.logs import LogEntry, WebLog


def make_entry(time, ip="1.1.1.1", fingerprint="fp1", path="/search",
               status=200, actor_class=LEGIT, blocked_by="", outcome=""):
    return LogEntry(
        time=time,
        method="GET",
        path=path,
        status=status,
        client=ClientRef(
            ip_address=ip,
            ip_country="IT",
            ip_residential=True,
            fingerprint_id=fingerprint,
            user_agent="UA-1",
            actor_class=actor_class,
        ),
        blocked_by=blocked_by,
        outcome=outcome,
    )


def sample_entries():
    return [
        make_entry(0.5),
        make_entry(1.5, path="/hold", outcome="held"),
        make_entry(2.5, ip="2.2.2.2", fingerprint="fp2",
                   actor_class=SEAT_SPINNER, status=403,
                   blocked_by="block-rule"),
        make_entry(2.5),  # equal timestamps survive the roundtrip
    ]


def write_trace(path, entries, meta=None):
    with TraceWriter(str(path), meta=meta) as writer:
        for entry in entries:
            writer.write(entry)
    return str(path)


class TestRoundtrip:
    def test_entries_identical(self, tmp_path):
        entries = sample_entries()
        path = write_trace(tmp_path / "t.rptr", entries)
        assert list(read_entries(path)) == entries

    def test_meta_roundtrip(self, tmp_path):
        path = write_trace(
            tmp_path / "t.rptr", [], meta={"scenario": "x", "seed": 3}
        )
        with TraceReader(path) as reader:
            assert reader.meta == {"scenario": "x", "seed": 3}
            assert reader.version == TRACE_VERSION

    def test_empty_trace(self, tmp_path):
        path = write_trace(tmp_path / "t.rptr", [])
        assert list(read_entries(path)) == []

    def test_string_interning_pays_off(self, tmp_path):
        entries = [make_entry(float(i)) for i in range(100)]
        path = write_trace(tmp_path / "t.rptr", entries)
        with TraceReader(path) as reader:
            assert len(list(reader)) == 100
        import os

        # 100 identical-client entries: interning keeps the cost near
        # the fixed per-entry frame, far below repeating the strings.
        assert os.path.getsize(path) < 100 * 80

    def test_rebuild_log(self, tmp_path):
        entries = sample_entries()
        path = write_trace(tmp_path / "t.rptr", entries)
        log = rebuild_log(path)
        assert isinstance(log, WebLog)
        assert log.entries() == entries

    def test_stream_roundtrip_leaves_the_stream_open(self):
        entries = sample_entries()
        buffer = io.BytesIO()
        with TraceWriter(buffer, meta={"first_seq": 1}) as writer:
            for entry in entries:
                writer.write(entry)
        assert not buffer.closed
        source = io.BytesIO(buffer.getvalue())
        with TraceReader(source) as reader:
            assert reader.meta == {"first_seq": 1}
            assert list(reader) == entries
        assert not source.closed

    def test_path_like_target(self, tmp_path):
        path = tmp_path / "t.rptr"
        with TraceWriter(path) as writer:
            writer.write(make_entry(1.0))
        with TraceReader(path) as reader:
            assert reader.path == str(path)
            assert list(reader) == [make_entry(1.0)]

    def test_writer_refuses_after_close(self, tmp_path):
        writer = TraceWriter(str(tmp_path / "t.rptr"))
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(TraceError):
            writer.write(make_entry(1.0))


class TestWriterRefusals:
    """The writer judges what a record can hold: every refusal is a
    :class:`TraceError`, raised before any part of the entry is
    emitted or registered."""

    REFUSED = {
        "status-negative": dict(status=-1),
        "status-past-u16": dict(status=70_000),
        "string-too-long": dict(outcome="é" * 32_768),
        "lone-surrogate": dict(outcome="held\ud800"),
    }
    MESSAGES = {
        "status-negative": "status -1 outside 0..65535",
        "status-past-u16": "status 70000 outside 0..65535",
        "string-too-long": "string of 65536 UTF-8 bytes",
        "lone-surrogate": "surrogate",
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refusal_is_typed_and_leaves_the_writer_unchanged(self, case):
        # New strings come before the refused field, so a writer that
        # registered them first would number or emit them half-way.
        bad = make_entry(2.0, ip="9.9.9.9", fingerprint="fp-new",
                         **self.REFUSED[case])
        buffer = io.BytesIO()
        with TraceWriter(buffer) as writer:
            writer.write(make_entry(1.0))
            before = (buffer.tell(), writer._crc, writer.distinct_strings)
            with pytest.raises(TraceError, match=self.MESSAGES[case]):
                writer.write(bad)
            assert (buffer.tell(), writer._crc,
                    writer.distinct_strings) == before
            assert writer.entries_written == 1
            writer.write(make_entry(3.0, ip="9.9.9.9", fingerprint="fp2"))
        with TraceReader(io.BytesIO(buffer.getvalue())) as reader:
            assert list(reader) == [
                make_entry(1.0),
                make_entry(3.0, ip="9.9.9.9", fingerprint="fp2"),
            ]

    def test_longest_string_fits(self, tmp_path):
        entry = make_entry(1.0, outcome="é" * 32_767 + "a")
        path = write_trace(tmp_path / "t.rptr", [entry])
        assert list(read_entries(path)) == [entry]


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rptr"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TraceCorruption, match="bad magic"):
            TraceReader(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bad.rptr"
        path.write_bytes(
            TRACE_MAGIC + struct.pack("<H", TRACE_VERSION + 1)
            + struct.pack("<I", 2) + b"{}"
        )
        with pytest.raises(TraceError, match="unsupported trace version"):
            TraceReader(str(path))

    def test_missing_footer(self, tmp_path):
        source = write_trace(tmp_path / "ok.rptr", sample_entries())
        blob = open(source, "rb").read()
        truncated = tmp_path / "trunc.rptr"
        truncated.write_bytes(blob[:-13])  # drop the footer frame
        with pytest.raises(TraceCorruption, match="missing footer"):
            list(read_entries(str(truncated)))

    def test_truncated_mid_record(self, tmp_path):
        source = write_trace(tmp_path / "ok.rptr", sample_entries())
        blob = open(source, "rb").read()
        truncated = tmp_path / "trunc.rptr"
        truncated.write_bytes(blob[:-20])
        with pytest.raises(TraceCorruption):
            list(read_entries(str(truncated)))

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        source = write_trace(tmp_path / "ok.rptr", sample_entries())
        blob = bytearray(open(source, "rb").read())
        # Flip one byte inside an entry's time field (well past the
        # header, well before the footer).
        blob[len(blob) // 2] ^= 0xFF
        corrupt = tmp_path / "crc.rptr"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(TraceCorruption):
            list(read_entries(str(corrupt)))

    def test_bytes_after_footer(self, tmp_path):
        write_trace(tmp_path / "ok.rptr", sample_entries())
        padded = tmp_path / "padded.rptr"
        padded.write_bytes((tmp_path / "ok.rptr").read_bytes() + b"\x00")
        with pytest.raises(TraceCorruption, match="after the footer"):
            list(read_entries(str(padded)))

    def test_undecodable_string_is_corruption(self, tmp_path):
        write_trace(tmp_path / "ok.rptr", [make_entry(1.0)])
        blob = bytearray((tmp_path / "ok.rptr").read_bytes())
        blob[blob.index(b"UA-1")] = 0xFF  # never valid in UTF-8
        corrupt = tmp_path / "utf8.rptr"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(TraceCorruption, match="bad string"):
            list(read_entries(str(corrupt)))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.rptr"
        path.write_bytes(TRACE_MAGIC + b"\x01")
        with pytest.raises(TraceCorruption, match="truncated header"):
            TraceReader(str(path))


class TestCapture:
    def test_capture_records_live_appends(self, tmp_path):
        log = WebLog()
        path = str(tmp_path / "cap.rptr")
        with TraceCapture(path, meta={"scenario": "unit"}) as capture:
            capture.attach(log)
            for entry in sample_entries():
                log.append(entry)
            assert capture.entries_written == 4
        # Detached on close: later appends are not recorded …
        log.append(make_entry(10.0))
        assert log.observer_count == 0
        # … and the file has a valid footer.
        assert list(read_entries(path)) == sample_entries()

    def test_capture_only_sees_post_attach_entries(self, tmp_path):
        log = WebLog()
        log.append(make_entry(0.0))
        path = str(tmp_path / "cap.rptr")
        with TraceCapture(path) as capture:
            capture.attach(log)
            log.append(make_entry(1.0))
        assert [e.time for e in read_entries(path)] == [1.0]


class TestReplay:
    def test_replay_feeds_pipeline_and_counts(self, tmp_path):
        entries = [make_entry(float(i)) for i in range(10)]
        path = write_trace(tmp_path / "t.rptr", entries)
        report, stats = replay_trace(path, StreamPipeline(adapters=[]))
        assert stats.entries == 10
        assert stats.elapsed_seconds >= 0.0
        assert report.events_processed == 10
        assert report.sessions_closed == 1

    def test_events_per_second_zero_guard(self):
        from repro.trace import ReplayStats

        assert ReplayStats(5, 0.0).events_per_second == 0.0
        assert ReplayStats(10, 2.0).events_per_second == 5.0


class TestReplayEdgeCases:
    """The failure modes the server's /replay endpoint must survive."""

    def test_truncated_trace_raises_through_replay_path(self, tmp_path):
        # Drop the CRC footer: replay_trace must surface the
        # corruption, not silently treat the prefix as a full trace.
        source = write_trace(tmp_path / "ok.rptr", sample_entries())
        blob = open(source, "rb").read()
        truncated = tmp_path / "trunc.rptr"
        truncated.write_bytes(blob[:-13])
        pipeline = StreamPipeline(adapters=[])
        with pytest.raises(TraceCorruption, match="missing footer"):
            replay_trace(str(truncated), pipeline)
        # Entries framed before the break were already applied; the
        # pipeline remains usable (the server keeps serving after 400).
        assert pipeline.events_processed > 0
        report = pipeline.finish()
        assert report.events_processed == pipeline.events_processed

    def test_zero_event_trace_replays_cleanly(self, tmp_path):
        path = write_trace(tmp_path / "empty.rptr", [])
        report, stats = replay_trace(path, StreamPipeline(adapters=[]))
        assert stats.entries == 0
        assert report.events_processed == 0
        assert report.sessions_closed == 0
        assert report.fused == []

    def test_replay_into_already_warm_pipeline(self, tmp_path):
        # A server that ingested live events and then replays a trace
        # continues the same pipeline: sessions spanning the boundary
        # must merge, and totals must accumulate.
        warm = [make_entry(float(i)) for i in range(5)]
        tail = [make_entry(5.0 + float(i)) for i in range(5)]
        path = write_trace(tmp_path / "tail.rptr", tail)
        pipeline = StreamPipeline(adapters=[])
        for entry in warm:
            pipeline.process(entry)
        report, stats = replay_trace(path, pipeline)
        assert stats.entries == 5
        assert report.events_processed == 10
        # Same client, contiguous times: one session across both feeds.
        assert report.sessions_closed == 1

    def test_replay_out_of_order_against_warm_pipeline(self, tmp_path):
        # Replaying a trace that starts before the pipeline's clock is
        # a caller bug; the sessionizer's ordering contract rejects it.
        early = write_trace(
            tmp_path / "early.rptr", [make_entry(1.0)]
        )
        pipeline = StreamPipeline(adapters=[])
        pipeline.process(make_entry(100.0))
        with pytest.raises(ValueError, match="time-ordered"):
            replay_trace(early, pipeline)
