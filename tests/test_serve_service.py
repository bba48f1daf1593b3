"""Tests for repro.serve.service: journal-first application,
checkpoint/restore equivalence, campaign conviction, digests."""

import hashlib

import pytest

from repro.graph.detector import GraphDetectorConfig
from repro.scenarios.streaming import build_stream_pipeline
from repro.serve.codec import CodecError
from repro.serve.service import (
    DetectionService,
    SeqConflict,
    ServiceFinished,
    build_core,
    ingest_payload,
)
from repro.serve.state import StateStore, StateStoreError

from tests.serve_util import campaign_entries, make_entry, write_trace


def make_service(tmp_path, name="s.db", **kwargs):
    kwargs.setdefault("checkpoint_interval", 10_000)
    return DetectionService(
        StateStore(str(tmp_path / name)), **kwargs
    )


class TestIngest:
    def test_ingest_matches_direct_pipeline(self, tmp_path):
        """The serve path adds persistence, not semantics: fused
        verdicts equal a bare pipeline fed the same entries."""
        entries = campaign_entries()
        service = make_service(tmp_path)
        applied = service.ingest(ingest_payload(entries))
        assert applied == len(entries)

        direct = build_stream_pipeline()
        for entry in entries:
            direct.process(entry)
        assert (
            service.pipeline.fusion.fused() == direct.fusion.fused()
        )

    def test_seq_token_detects_double_send(self, tmp_path):
        service = make_service(tmp_path)
        events = ingest_payload([make_entry(1.0), make_entry(2.0)])
        service.ingest(events, seq=0)
        with pytest.raises(SeqConflict) as exc_info:
            service.ingest(events, seq=0)  # client retries blindly
        assert exc_info.value.expected == 2

    def test_identical_events_accepted_as_two(self, tmp_path):
        """A same-instant burst of identical requests is real traffic
        (a seat spinner's /hold burst): both events are journaled and
        both are counted."""
        service = make_service(tmp_path)
        events = ingest_payload([make_entry(5.0, path="/hold")] * 2)
        assert events[0] == events[1]
        assert service.ingest(events, seq=0) == 2
        assert service.events_ingested == 2
        assert service.store.journal_rows() == 2
        assert [entry for _, entry in service.store.journal_tail(0)] == [
            make_entry(5.0, path="/hold")
        ] * 2
        assert service.finish().events_processed == 2

    def test_bad_batch_rejected_before_any_side_effect(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload([make_entry(10.0)]))
        bad = ingest_payload([make_entry(20.0)]) + [{"nope": True}]
        with pytest.raises(CodecError):
            service.ingest(bad)
        # Nothing from the rejected batch was journaled or applied.
        assert service.events_ingested == 1
        assert service.store.journal_rows() == 1
        assert service.pipeline.events_processed == 1

    def test_out_of_order_batch_rejected(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload([make_entry(10.0)]))
        with pytest.raises(CodecError, match="time-ordered"):
            service.ingest(ingest_payload([make_entry(5.0)]))
        assert service.events_ingested == 1

    @pytest.mark.parametrize("time_", [float("inf"), float("nan")])
    def test_non_finite_time_rejected_before_journal(self, tmp_path, time_):
        """``Infinity`` would put every later event "before" it and
        ``NaN`` compares false with everything: neither is journaled,
        and ingest carries on afterwards."""
        service = make_service(tmp_path)
        service.ingest(ingest_payload([make_entry(10.0)]))
        with pytest.raises(CodecError, match="has time"):
            service.ingest(ingest_payload([make_entry(time_)]), seq=1)
        assert service.store.journal_rows() == 1
        assert service.ingest(ingest_payload([make_entry(11.0)]), seq=1)
        assert service.store.durable_seq() == 2

    def test_ingest_after_finish_refused(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload([make_entry(1.0)]))
        service.finish()
        with pytest.raises(ServiceFinished):
            service.ingest(ingest_payload([make_entry(2.0)]))


class TestReplayFile:
    def test_replay_equals_ingest(self, tmp_path):
        entries = campaign_entries()
        trace = write_trace(tmp_path / "t.rptr", entries)

        replayed = make_service(tmp_path, "a.db")
        result = replayed.replay_file(trace, batch=7)
        assert result["replayed"] == len(entries)

        ingested = make_service(tmp_path, "b.db")
        ingested.ingest(ingest_payload(entries))
        assert (
            replayed.analysis_digest() == ingested.analysis_digest()
        )

    def test_offset_and_limit_chunk_the_trace(self, tmp_path):
        entries = campaign_entries()
        trace = write_trace(tmp_path / "t.rptr", entries)
        service = make_service(tmp_path)
        first = service.replay_file(trace, offset=0, limit=10)
        assert first == {
            "replayed": 10, "skipped": 0, "events_ingested": 10,
        }
        second = service.replay_file(trace, offset=10)
        assert second["skipped"] == 10
        assert second["events_ingested"] == len(entries)

    def test_zero_event_trace(self, tmp_path):
        trace = write_trace(tmp_path / "empty.rptr", [])
        service = make_service(tmp_path)
        assert service.replay_file(trace)["replayed"] == 0

    def test_corrupt_trace_leaves_journal_consistent(self, tmp_path):
        from repro.trace import TraceCorruption

        entries = campaign_entries()
        source = write_trace(tmp_path / "ok.rptr", entries)
        blob = open(source, "rb").read()
        truncated = tmp_path / "bad.rptr"
        truncated.write_bytes(blob[:-13])  # drop the CRC footer
        service = make_service(tmp_path)
        with pytest.raises(TraceCorruption):
            service.replay_file(str(truncated), batch=7)
        # Whatever was applied was journaled first: memory == disk.
        assert service.store.journal_rows() == service.events_ingested
        assert (
            service.pipeline.events_processed == service.events_ingested
        )

    def test_flipped_bit_in_trace_journals_nothing(self, tmp_path):
        """The trace's CRC is checked before its first batch is
        journaled: one flipped status bit never reaches the journal,
        so it cannot replay after a restart."""
        from repro.trace import TraceCorruption

        entries = campaign_entries()
        source = write_trace(tmp_path / "ok.rptr", entries)
        blob = bytearray(open(source, "rb").read())
        # The last entry record sits just before the 13-byte footer;
        # its status is the u16 after the kind byte and the f64 time.
        status_at = len(blob) - 13 - 56 + 1 + 8
        blob[status_at] ^= 0x10
        flipped = tmp_path / "flipped.rptr"
        flipped.write_bytes(bytes(blob))
        service = make_service(tmp_path)
        with pytest.raises(TraceCorruption, match="CRC mismatch"):
            service.replay_file(str(flipped), batch=7)
        assert service.events_ingested == 0
        assert service.store.durable_seq() == 0
        service.store.close()
        assert make_service(tmp_path).journal_replayed == 0

    def test_out_of_order_trace_journals_nothing(self, tmp_path):
        """An out-of-order entry inside a replay batch is refused
        before the batch is journaled: the service keeps ingesting
        and a restart restores cleanly."""
        trace = write_trace(
            tmp_path / "t.rptr",
            [make_entry(t) for t in (1.0, 2.0, 5.0, 3.0, 6.0)],
        )
        service = make_service(tmp_path)
        with pytest.raises(CodecError, match="time-ordered"):
            service.replay_file(trace)
        assert service.events_ingested == 0
        assert service.store.durable_seq() == 0
        events = ingest_payload([make_entry(1.0), make_entry(2.0)])
        assert service.ingest(events, seq=0) == 2
        service.store.close()
        restored = make_service(tmp_path)
        assert restored.journal_replayed == 2
        assert restored.events_ingested == 2


class TestJournalAtRest:
    """The SHA-256 of every journal record, pinned: the bytes at rest
    are the format's contract with every database already written."""

    @staticmethod
    def record_digests(service):
        return [
            (first_seq, hashlib.sha256(record).hexdigest())
            for first_seq, record in service.store._conn.execute(
                "SELECT first_seq, record FROM journal ORDER BY first_seq"
            )
        ]

    def test_ingested_records_pinned(self, tmp_path):
        service = make_service(tmp_path)
        events = ingest_payload(campaign_entries())
        for start in range(0, len(events), 64):
            service.ingest(events[start:start + 64], seq=start)
        assert self.record_digests(service) == [
            (1, "8645ee4544f2064fb957ddda063d8aa3"
                "e3cf3501f6ad4e925faa490fdac86989"),
        ]

    def test_replayed_records_pinned(self, tmp_path):
        trace = write_trace(tmp_path / "t.rptr", campaign_entries())
        service = make_service(tmp_path)
        service.replay_file(trace, batch=16)
        assert self.record_digests(service) == [
            (1, "f4eb8e1de91d4f80f5789d895d8aabd3"
                "079a95b09f6e03d1bb048bd990ba7a4c"),
            (17, "13b75ab238ecc77c6c45def6372d3554"
                 "22fcad0ba10d5da2de32e8cb1abe9c38"),
            (33, "0eb207c51e765fefa4ccf6d441e0afe1"
                 "3db7ffbc9250e8b1d5531ec5c866e544"),
        ]


class TestRecoveryEquivalence:
    def test_restore_mid_stream_is_bit_identical(self, tmp_path):
        """Kill-and-restore == uninterrupted, down to the digest."""
        entries = campaign_entries()
        events = ingest_payload(entries)

        uninterrupted = make_service(
            tmp_path, "a.db", checkpoint_interval=13
        )
        uninterrupted.ingest(events)
        reference = uninterrupted.analysis_digest()

        # Interrupted run: ingest 60%, abandon the in-memory state
        # (simulated SIGKILL — no checkpoint, no close), restore.
        cut = int(len(events) * 0.6)
        first = DetectionService(
            StateStore(str(tmp_path / "b.db")), checkpoint_interval=13
        )
        first.ingest(events[:cut])
        first.store.close()
        del first

        resumed = DetectionService(
            StateStore(str(tmp_path / "b.db")), checkpoint_interval=13
        )
        assert resumed.restored
        assert resumed.events_ingested == cut
        resumed.ingest(events[cut:], seq=cut)
        assert resumed.analysis_digest() == reference

    def test_snapshot_omits_compile_cache_and_restores_exactly(
        self, tmp_path
    ):
        """The graph adapter's CSR compile cache and component cache
        are derived state: the snapshot leaves them out, and the
        restored service — cold compiling and recomputing every
        component once, then splicing forward through many scoped
        refreshes — convicts exactly what the uninterrupted service
        does."""
        events = ingest_payload(
            campaign_entries(rotations=6, legit_visitors=10)
        )
        options = dict(refresh_every=2, evict_every=8)
        uninterrupted = make_service(tmp_path, "a.db", **options)
        uninterrupted.ingest(events)

        cut = 24
        first = make_service(tmp_path, "b.db", **options)
        first.ingest(events[:cut])
        assert first.graph._compiled is not None
        assert first.graph._components is not None
        first.checkpoint()
        _, core = first.store.load_snapshot()
        assert core["graph"]._compiled is None
        assert core["graph"]._components is None
        assert core["graph"]._dirty == set()
        refreshes_at_cut = first.graph.refreshes
        first.store.close()
        del first

        resumed = make_service(tmp_path, "b.db", **options)
        assert resumed.restored and resumed.journal_replayed == 0
        resumed.ingest(events[cut:], seq=cut)
        assert resumed.graph.refreshes >= refreshes_at_cut + 3
        assert resumed.campaigns_view() == uninterrupted.campaigns_view()
        assert resumed.entities_view() == uninterrupted.entities_view()
        assert resumed.campaigns_view()
        assert resumed.analysis_digest() == uninterrupted.analysis_digest()

    def test_restore_with_other_settings_is_refused(self, tmp_path):
        """A snapshot's core carries its own refresh cadence, eviction
        cadence and graph config; restoring it under different ones
        must fail loudly, not run the old ones silently."""
        events = ingest_payload(campaign_entries())
        first = make_service(tmp_path, refresh_every=64)
        first.ingest(events)
        first.checkpoint()
        first.store.close()
        del first

        with pytest.raises(StateStoreError) as exc_info:
            make_service(tmp_path, refresh_every=None, evict_every=8)
        message = str(exc_info.value)
        assert "refresh_every=64" in message
        assert "refresh_every=None" in message
        with pytest.raises(StateStoreError, match="evict_every=256"):
            make_service(tmp_path, evict_every=8)
        with pytest.raises(StateStoreError, match="graph_config"):
            make_service(
                tmp_path,
                graph_config=GraphDetectorConfig(verdict_threshold=0.6),
            )
        resumed = make_service(
            tmp_path, refresh_every=64, graph_config=GraphDetectorConfig()
        )
        assert resumed.restored
        assert resumed.events_ingested == len(events)

    def test_restore_replays_journal_tail(self, tmp_path):
        events = ingest_payload(campaign_entries())
        first = DetectionService(
            StateStore(str(tmp_path / "s.db")), checkpoint_interval=13
        )
        # Small batches: checkpoints land on batch boundaries, so the
        # final few events stay journal-only.
        for start in range(0, len(events), 5):
            first.ingest(events[start:start + 5])
        tail = first.events_ingested - first.store.snapshot_seq()
        assert tail > 0
        first.store.close()
        del first

        resumed = DetectionService(
            StateStore(str(tmp_path / "s.db")), checkpoint_interval=13
        )
        assert resumed.journal_replayed == tail
        assert resumed.events_ingested == len(events)

    def test_fresh_db_without_snapshot_replays_full_journal(
        self, tmp_path
    ):
        events = ingest_payload(campaign_entries())
        first = make_service(tmp_path)  # interval huge: no snapshot
        first.ingest(events)
        assert first.store.snapshot_seq() == 0
        first.store.close()
        del first
        resumed = make_service(tmp_path)
        assert not resumed.restored  # no snapshot, cold core
        assert resumed.journal_replayed == len(events)
        assert resumed.events_ingested == len(events)


class TestDetectionOutcomes:
    def test_campaign_convicted_on_finish(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload(campaign_entries()))
        service.finish()
        campaigns = service.campaigns_view()
        assert len(campaigns) >= 1
        fingerprints = set(campaigns[0]["fingerprints"])
        assert {
            f"fp-rot-{i}" for i in range(4)
        } <= fingerprints
        entities = service.entities_view()
        assert {e["fingerprint_id"] for e in entities} >= {
            f"fp-rot-{i}" for i in range(4)
        }

    def test_periodic_refresh_convicts_mid_stream(self, tmp_path):
        # With a small refresh cadence and aggressive idle eviction
        # (sessions close as event time advances) the campaign lands
        # during ingest — before finish — the live-service story.
        service = make_service(
            tmp_path, refresh_every=2, evict_every=8
        )
        service.ingest(ingest_payload(campaign_entries()))
        assert len(service.campaigns_view()) >= 1

    def test_convictions_stamped_with_the_triggering_event_time(self):
        """A conviction made while an event is processed carries that
        event's time — the stream time of the session close that
        triggered it — not the end of the closed session; those made
        by the final flush carry the last event time."""
        core = build_core(refresh_every=2, graph_config=None, evict_every=8)
        pipeline = core["pipeline"]
        logs = (core["campaigns"].records, core["sink"].records)
        entries = campaign_entries()
        for entry in entries:
            before = [len(records) for records in logs]
            pipeline.process(entry)
            for records, start in zip(logs, before):
                assert {now for now, _ in records[start:]} <= {entry.time}
        assert core["campaigns"].records, "no campaign convicted mid-stream"
        before = [len(records) for records in logs]
        pipeline.finish()
        for records, start in zip(logs, before):
            assert {now for now, _ in records[start:]} <= {entries[-1].time}

    def test_campaign_name_reused_keeps_both_convictions(self, tmp_path):
        """Rank names move: operation A convicts as ``C001``, then the
        larger operation B takes ``C001`` at a later refresh.  Both
        conviction records are rows of the view, of the derived table
        and of every count, and every convicted fingerprint is in one."""
        entries = []
        clock = 1_000.0
        for operation, ip, rotations in (
            ("a", "203.0.113.66", 3),
            ("b", "203.0.113.77", 5),
        ):
            for rotation in range(rotations):
                for _ in range(6):
                    entries.append(
                        make_entry(
                            clock,
                            ip=ip,
                            fingerprint=f"fp-{operation}-{rotation}",
                            path="/hold",
                            method="POST",
                            actor_class="seat_spinner",
                        )
                    )
                    clock += 30.0
                clock += 2_400.0
        service = make_service(tmp_path, refresh_every=4, evict_every=8)
        service.ingest(ingest_payload(entries))
        service.finish()
        records = service.campaign_log.records
        view = service.campaigns_view()
        assert [row["campaign_id"] for row in view] == ["C001", "C001"]
        assert [row["fingerprints"] for row in view] == [
            [f"fp-a-{i}" for i in range(3)],
            [f"fp-b-{i}" for i in range(5)],
        ]
        assert [row["convicted_at"] for row in view] == [
            now for now, _ in records
        ]
        table = service.store.read_derived()["campaigns"]
        assert table == [
            {key: row[key] for key in table[0]} for row in view
        ]
        assert service.status_view()["campaigns_convicted"] == len(records)
        covered = {fp for row in view for fp in row["fingerprints"]}
        assert set(service.graph.convicted_fingerprints) <= covered

    def test_legit_fingerprints_not_convicted(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload(campaign_entries()))
        service.finish()
        convicted = {
            e["fingerprint_id"] for e in service.entities_view()
        }
        assert not any(fp.startswith("fp-legit") for fp in convicted)

    def test_status_view_counts(self, tmp_path):
        service = make_service(tmp_path)
        events = ingest_payload(campaign_entries())
        service.ingest(events)
        status = service.status_view()
        assert status["events_ingested"] == len(events)
        assert status["journal_rows"] == len(events)
        assert status["finished"] is False

    def test_finish_is_idempotent(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(ingest_payload(campaign_entries()))
        first = service.finish()
        assert service.finish() is first
        assert service.analysis_digest() == service.analysis_digest()

    def test_checkpoint_writes_derived_tables(self, tmp_path):
        service = make_service(
            tmp_path, refresh_every=2, evict_every=8
        )
        service.ingest(ingest_payload(campaign_entries()))
        service.checkpoint()
        derived = service.store.read_derived()
        assert len(derived["campaigns"]) >= 1
        assert len(derived["entities"]) >= 4
        assert any(v["is_bot"] for v in derived["verdicts"])
