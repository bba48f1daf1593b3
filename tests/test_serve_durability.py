"""Durability of the serve state store: WAL mode at ``synchronous=FULL``,
all-or-nothing write transactions, the WAL fold at each snapshot,
readers that do not block ingest, the digest-checked snapshot
envelope and the CRC-checked RPTR journal records."""

import hashlib
import os
import pickle
import sqlite3
import time

import pytest

from repro.serve.codec import encode_record
from repro.serve.service import DetectionService, ingest_payload
from repro.serve.state import (
    _ENVELOPE,
    SNAPSHOT_MAGIC,
    StateStore,
    StateStoreError,
)

from tests.serve_util import FailingCommits, campaign_entries


def make_service(path, checkpoint_interval=10_000):
    return DetectionService(
        StateStore(str(path)), checkpoint_interval=checkpoint_interval
    )


def wal_bytes(db_path) -> int:
    wal = f"{db_path}-wal"
    return os.path.getsize(wal) if os.path.exists(wal) else 0


class TestDurabilitySettings:
    def test_wal_and_full_sync_after_open_and_reopen(self, tmp_path):
        path = str(tmp_path / "s.db")
        for _ in range(2):  # fresh database, then reopened
            with StateStore(path) as store:
                conn = store._conn
                assert conn.execute(
                    "PRAGMA journal_mode"
                ).fetchone()[0] == "wal"
                assert conn.execute(
                    "PRAGMA synchronous"
                ).fetchone()[0] == 2  # FULL
        # WAL mode is persistent: a plain second connection sees it.
        other = sqlite3.connect(path)
        try:
            assert other.execute(
                "PRAGMA journal_mode"
            ).fetchone()[0] == "wal"
        finally:
            other.close()

    def test_wal_empty_right_after_snapshot(self, tmp_path):
        path = tmp_path / "s.db"
        entries = tuple(campaign_entries())
        with StateStore(str(path)) as store:
            store.append_events(1, entries, encode_record(entries, 1))
            assert wal_bytes(path) > 0
            store.write_snapshot(len(entries), {"k": 1}, created_at=0.0)
            assert wal_bytes(path) == 0
            assert store.load_snapshot() == (len(entries), {"k": 1})

    def test_wal_stays_bounded_across_checkpoints(
        self, tmp_path, monkeypatch
    ):
        """The WAL peaks just before each fold, holding the journal
        batches since the last snapshot plus the snapshot itself.  On
        this stream (78 events in 5-event batches, a checkpoint every
        10 events, 4 KiB pages: 7 folds) the peaks measured 131,872
        bytes at the first fold, which also carries the schema, then
        57,712 to 74,192 bytes (14 to 18 WAL frames; a journal row
        holds one RPTR record per batch).  Without the fold the WAL
        keeps every frame: 189,552 bytes at the second checkpoint and
        539,752 at the seventh."""
        bound = 160_000
        path = tmp_path / "s.db"
        service = make_service(path, checkpoint_interval=10)
        peaks = []
        fold = service.store._fold_wal

        def measured_fold():
            peaks.append(wal_bytes(path))
            fold()
            assert wal_bytes(path) == 0

        monkeypatch.setattr(service.store, "_fold_wal", measured_fold)
        events = ingest_payload(
            campaign_entries(rotations=5, legit_visitors=16)
        )
        for start in range(0, len(events), 5):
            service.ingest(events[start:start + 5], seq=start)
            assert wal_bytes(path) <= bound
        assert len(peaks) == 7
        assert max(peaks) <= bound, peaks


class TestFailedCommit:
    def test_failed_journal_commit_rolls_back_and_batch_retries(
        self, tmp_path
    ):
        """A commit that fails (here: one injected lock timeout) must
        leave neither the batch's rows in an open transaction nor the
        batch applied in memory, so the same batch with the same
        ``seq`` goes through afterwards and the run ends where an
        uninterrupted one does."""
        events = ingest_payload(campaign_entries())
        reference = make_service(tmp_path / "ref.db", checkpoint_interval=13)
        reference.ingest(events)

        service = make_service(tmp_path / "s.db", checkpoint_interval=13)
        cut = 20
        service.ingest(events[:cut], seq=0)
        rows = service.store.journal_rows()
        real = service.store._conn
        service.store._conn = FailingCommits(real)

        batch = events[cut:cut + 10]
        with pytest.raises(StateStoreError, match="rolled back"):
            service.ingest(batch, seq=cut)
        assert service.events_ingested == cut
        assert service.pipeline.events_processed == cut
        assert service.store.journal_rows() == rows

        assert service.ingest(batch, seq=cut) == len(batch)
        service.ingest(events[cut + 10:], seq=cut + 10)
        service.store._conn = real
        assert service.analysis_digest() == reference.analysis_digest()

    def test_failed_snapshot_keeps_previous_checkpoint(self, tmp_path):
        events = ingest_payload(campaign_entries())
        service = make_service(tmp_path / "s.db")
        service.ingest(events[:10])
        service.checkpoint()
        service.ingest(events[10:], seq=10)
        real = service.store._conn
        service.store._conn = FailingCommits(real)
        with pytest.raises(StateStoreError, match="snapshot write"):
            service.checkpoint()
        assert service.store.snapshot_seq() == 10
        assert service.store.journal_rows() == len(events) - 10
        service.checkpoint()
        assert service.store.snapshot_seq() == len(events)
        assert service.store.journal_rows() == 0


class TestReaders:
    def test_open_read_transaction_does_not_block_ingest(self, tmp_path):
        """An operator's SQL session holding a read transaction on the
        derived tables: ingest and a checkpoint commit well inside the
        5 s busy timeout, and the reader keeps its pre-batch view."""
        path = tmp_path / "s.db"
        events = ingest_payload(campaign_entries())
        cut = 20
        service = make_service(path)
        service.ingest(events[:cut])
        service.checkpoint()

        reader = sqlite3.connect(str(path), isolation_level=None)
        try:
            reader.execute("BEGIN")
            counts = "SELECT (SELECT COUNT(*) FROM verdicts), " \
                "(SELECT COUNT(*) FROM journal), " \
                "(SELECT MAX(seq) FROM snapshots)"
            before = reader.execute(counts).fetchone()
            started = time.monotonic()
            service.ingest(events[cut:], seq=cut)
            service.checkpoint()
            elapsed = time.monotonic() - started
            assert elapsed < 2.0
            assert reader.execute(counts).fetchone() == before
            reader.execute("COMMIT")
            after = reader.execute(counts).fetchone()
        finally:
            reader.close()
        assert after == (
            len(service.verdicts_view()), 0, len(events)
        )
        assert after != before
        # The fold could not truncate past the reader; the next one can.
        service.checkpoint()
        assert wal_bytes(path) == 0


class TestSnapshotEnvelope:
    def _stored_blob(self, path) -> bytes:
        conn = sqlite3.connect(str(path))
        try:
            return conn.execute("SELECT pipeline FROM snapshots").fetchone()[0]
        finally:
            conn.close()

    def _store_blob(self, path, blob: bytes) -> None:
        conn = sqlite3.connect(str(path))
        try:
            conn.execute("UPDATE snapshots SET pipeline = ?", (blob,))
            conn.commit()
        finally:
            conn.close()

    def _snapshot(self, path):
        with StateStore(str(path)) as store:
            store.write_snapshot(
                3, {"subject": "fp-rot-marker", "score": 0.75},
                created_at=0.0,
            )

    def test_flipped_byte_raises(self, tmp_path):
        """A flipped byte inside a pickled string still unpickles —
        into a different core.  The digest catches it."""
        path = tmp_path / "s.db"
        self._snapshot(path)
        blob = bytearray(self._stored_blob(path))
        blob[blob.index(b"marker")] ^= 0x01
        self._store_blob(path, bytes(blob))
        with StateStore(str(path)) as store:
            with pytest.raises(StateStoreError, match="digest"):
                store.load_snapshot()

    @pytest.mark.parametrize("keep", [0, 10, -1])
    def test_truncated_blob_raises(self, tmp_path, keep):
        path = tmp_path / "s.db"
        self._snapshot(path)
        blob = self._stored_blob(path)
        self._store_blob(path, blob[:keep])
        with StateStore(str(path)) as store:
            with pytest.raises(StateStoreError, match="truncated"):
                store.load_snapshot()

    def test_format_1_snapshot_refused(self, tmp_path):
        """A blob in the format-1 envelope pickled the dict-of-dicts
        entity graph; this build refuses it instead of unpickling it
        into the columnar graph."""
        path = tmp_path / "s.db"
        self._snapshot(path)
        body = pickle.dumps({"subject": "fp-rot-marker"})
        blob = _ENVELOPE.pack(
            SNAPSHOT_MAGIC, 1, hashlib.sha256(body).digest()
        ) + body
        self._store_blob(path, blob)
        with StateStore(str(path)) as store:
            with pytest.raises(StateStoreError, match="v1"):
                store.load_snapshot()

    def test_version_1_database_refused(self, tmp_path):
        """Schema 1 stored bare pickles; this build refuses it."""
        path = str(tmp_path / "s.db")
        with StateStore(path) as store:
            store.set_meta("schema_version", "1")
            store.commit()
        with pytest.raises(StateStoreError, match="schema version 1"):
            StateStore(path)


class TestJournalRecords:
    """Each acknowledged batch is one RPTR record; a record that does
    not check out stops the restore with :class:`StateStoreError`."""

    BATCH = 8

    def _journal(self, path):
        """Ingest ``campaign_entries()`` in batches, no checkpoint;
        returns the events."""
        events = ingest_payload(campaign_entries())
        service = make_service(path)
        for start in range(0, len(events), self.BATCH):
            service.ingest(events[start:start + self.BATCH], seq=start)
        service.store.close()
        return events

    def _rewrite(self, path, sql, *params):
        conn = sqlite3.connect(str(path))
        try:
            conn.execute(sql, params)
            conn.commit()
        finally:
            conn.close()

    def _record(self, path, first_seq):
        conn = sqlite3.connect(str(path))
        try:
            return conn.execute(
                "SELECT record FROM journal WHERE first_seq = ?",
                (first_seq,),
            ).fetchone()[0]
        finally:
            conn.close()

    def _restore_fails(self, path, match):
        store = StateStore(str(path))
        try:
            with pytest.raises(StateStoreError, match=match):
                DetectionService(store, checkpoint_interval=10_000)
        finally:
            store.close()

    def test_one_row_per_batch_restores_exactly(self, tmp_path):
        path = tmp_path / "s.db"
        events = self._journal(path)
        conn = sqlite3.connect(str(path))
        try:
            rows = conn.execute(
                "SELECT first_seq, count FROM journal ORDER BY first_seq"
            ).fetchall()
        finally:
            conn.close()
        assert rows == [
            (start + 1, len(events[start:start + self.BATCH]))
            for start in range(0, len(events), self.BATCH)
        ]
        restored = make_service(path)
        assert restored.journal_replayed == len(events)
        reference = make_service(tmp_path / "ref.db")
        reference.ingest(events)
        assert restored.analysis_digest() == reference.analysis_digest()

    def test_flipped_byte_raises(self, tmp_path):
        path = tmp_path / "s.db"
        self._journal(path)
        record = bytearray(self._record(path, self.BATCH + 1))
        record[len(record) // 2] ^= 0x01
        self._rewrite(
            path, "UPDATE journal SET record = ? WHERE first_seq = ?",
            bytes(record), self.BATCH + 1,
        )
        self._restore_fails(path, f"journal record {self.BATCH + 1}")

    @pytest.mark.parametrize("keep", [0, 10, -1])
    def test_truncated_record_raises(self, tmp_path, keep):
        path = tmp_path / "s.db"
        self._journal(path)
        record = self._record(path, 1)
        self._rewrite(
            path, "UPDATE journal SET record = ? WHERE first_seq = 1",
            record[:keep],
        )
        self._restore_fails(path, "journal record 1 is corrupt")

    def test_wrong_count_raises(self, tmp_path):
        path = tmp_path / "s.db"
        self._journal(path)
        self._rewrite(
            path, "UPDATE journal SET count = count - 1 WHERE first_seq = 1"
        )
        self._restore_fails(path, "row says 7")

    def test_gap_between_records_raises(self, tmp_path):
        path = tmp_path / "s.db"
        self._journal(path)
        self._rewrite(
            path, "DELETE FROM journal WHERE first_seq = ?", self.BATCH + 1
        )
        self._restore_fails(path, "record 17 is corrupt: .* go on at seq 9")

    def test_overlapping_records_raise(self, tmp_path):
        path = tmp_path / "s.db"
        self._journal(path)
        self._rewrite(
            path, "INSERT INTO journal VALUES (5, 8, ?)", self._record(path, 9)
        )
        self._restore_fails(path, "record 5 is corrupt: .* go on at seq 9")

    def test_record_missing_at_the_start_raises(self, tmp_path):
        path = tmp_path / "s.db"
        self._journal(path)
        self._rewrite(path, "DELETE FROM journal WHERE first_seq = 1")
        self._restore_fails(path, "record 9 is corrupt: .* go on at seq 1")

    def test_record_moved_to_another_row_raises(self, tmp_path):
        """Two records swapped between rows each decode cleanly; the
        ``first_seq`` in a record's metadata gives the swap away."""
        path = tmp_path / "s.db"
        self._journal(path)
        first, second = self._record(path, 1), self._record(path, 9)
        self._rewrite(
            path, "UPDATE journal SET record = ? WHERE first_seq = 1", second
        )
        self._rewrite(
            path, "UPDATE journal SET record = ? WHERE first_seq = 9", first
        )
        self._restore_fails(path, "journal record 1 is corrupt: metadata")

    def test_every_flipped_bit_raises(self, tmp_path):
        """The CRC covers the string and entry frames; magic, version,
        metadata, footer and the end of the record are checked too, so
        flipping any one bit of a record stops the replay."""
        entries = tuple(campaign_entries(rotations=1, legit_visitors=1))[:3]
        with StateStore(str(tmp_path / "s.db")) as store:
            store.append_events(1, entries, encode_record(entries, 1))
            record = store._conn.execute(
                "SELECT record FROM journal"
            ).fetchone()[0]
            for position in range(len(record) * 8):
                corrupt = bytearray(record)
                corrupt[position // 8] ^= 1 << position % 8
                store._conn.execute(
                    "UPDATE journal SET record = ?", (bytes(corrupt),)
                )
                with pytest.raises(StateStoreError, match="record 1"):
                    store.journal_tail(0)

    def test_version_2_database_refused(self, tmp_path):
        """Schema 2 journaled one 14-column row per event; this build
        refuses it rather than misreading it."""
        path = str(tmp_path / "s.db")
        conn = sqlite3.connect(path)
        try:
            conn.executescript(
                "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);"
                "INSERT INTO meta VALUES ('schema_version', '2');"
                "CREATE TABLE journal (seq INTEGER PRIMARY KEY, "
                "time REAL NOT NULL, method TEXT NOT NULL);"
                "INSERT INTO journal VALUES (1, 5.0, 'GET');"
            )
        finally:
            conn.close()
        with pytest.raises(StateStoreError, match="schema version 2"):
            StateStore(path)
