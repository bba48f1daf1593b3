"""Persistent service state: SQLite snapshot + write-ahead journal.

Durability model (classic checkpoint/WAL):

* every acknowledged batch is first appended to the ``journal`` table
  as one row and **committed** — an ack therefore promises the batch
  survives a ``SIGKILL``, and (``synchronous=FULL``) a power loss;
* every ``checkpoint_interval`` events the service pickles its full
  in-memory detection core (pipeline, adapters, graph, fusion — all
  pure deterministic Python state) into the ``snapshots`` table and
  deletes the journal rows the snapshot now covers;
* restore = load latest snapshot, then re-apply the journal tail
  through the restored pipeline.  Because the pipeline is a
  deterministic function of its event prefix and pickling preserves
  floats, dict order and shared references exactly, the restored
  process is *bit-identical* to an uninterrupted run over the same
  acknowledged prefix — the recovery-equivalence test pins this.

On disk the database runs in SQLite's WAL mode at ``synchronous=FULL``,
so the store is three files: ``<db>``, ``<db>-wal`` and ``<db>-shm``.
A commit appends the transaction's pages to ``-wal`` and syncs that
one file: one fsync per acknowledged ingest batch, where the rollback
journal synced a ``-journal`` file and the database on every commit.
At the end of every snapshot the store folds the WAL back into the
database and truncates it (``wal_checkpoint(TRUNCATE)``), so ``-wal``
holds at most one checkpoint interval of journal batches plus one
snapshot.  The fold never waits: while an operator's reader pins an
older snapshot it copies what it can and the next snapshot finishes
the job.  Readers and the writer do not block each other — an open
read transaction keeps seeing its snapshot while ingest commits.

Every write transaction is all-or-nothing: on any error it is rolled
back, and a failed ``sqlite3`` call surfaces as
:class:`StateStoreError`, so a failed commit leaves neither a wedged
transaction nor rows the live pipeline never applied.

A journal row is ``(first_seq, count, record)``: the batch's events
are seqs ``first_seq .. first_seq + count - 1`` and ``record`` is one
complete RPTR trace of them (:mod:`repro.trace.format`: its own string
table, a footer with the entry count and a CRC32), with
``{"first_seq": first_seq}`` as its metadata.  The store keeps the
bytes the codec encoded when the batch was parsed, and restore decodes
through the same :class:`~repro.trace.format.TraceReader` as ``repro
replay`` and ``POST /replay``.  A record that fails to
decode (bad CRC, truncated, unsupported), whose count or metadata
disagrees with its row, or that leaves a gap or an overlap with the
record before it raises :class:`StateStoreError` naming its
``first_seq``; no corrupt record replays silently.

A snapshot blob is an envelope: magic, format version and the SHA-256
of the pickle, then the pickle.  A truncated or corrupt blob fails the
digest check and raises :class:`StateStoreError` instead of
unpickling into a silently different core.

Alongside the authoritative blob+journal, checkpoints also write the
queryable derived tables (``verdicts``, ``campaigns``, ``entities``)
so an operator can inspect the last checkpointed detection state with
plain SQL, while the server runs or after it stops.  ``campaigns`` has
one row per campaign conviction, keyed by its ``position`` in
conviction order and stamped with ``convicted_at``.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import sqlite3
import struct
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from ..trace.format import TraceError, TraceReader
from ..web.logs import LogEntry

#: Bumped when the on-disk schema changes (2: enveloped snapshots;
#: 3: one RPTR record per journaled batch; 4: one ``campaigns`` row per
#: conviction record, keyed by position, with ``convicted_at``).
SCHEMA_VERSION = 4

#: How long a write waits on another connection's lock (SQLite's
#: ``busy_timeout``; Python's default ``timeout=5.0``).
BUSY_TIMEOUT_MS = 5000

#: Snapshot envelope: magic, format version, SHA-256 of the pickle.
#: The format is bumped when a pickled class changes layout (2: the
#: columnar entity graph), so an older blob is refused, not misread.
SNAPSHOT_MAGIC = b"RPSN"
SNAPSHOT_FORMAT = 2
_ENVELOPE = struct.Struct(">4sH32s")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS journal (
    first_seq INTEGER PRIMARY KEY,
    count     INTEGER NOT NULL,
    record    BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshots (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    seq        INTEGER NOT NULL,
    created_at REAL NOT NULL,
    pipeline   BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS verdicts (
    subject_id TEXT PRIMARY KEY,
    detector   TEXT NOT NULL,
    score      REAL NOT NULL,
    is_bot     INTEGER NOT NULL,
    reasons    TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    position     INTEGER PRIMARY KEY,
    campaign_id  TEXT NOT NULL,
    convicted_at REAL NOT NULL,
    risk         REAL NOT NULL,
    first_seen   REAL NOT NULL,
    last_seen    REAL NOT NULL,
    sessions     INTEGER NOT NULL,
    fingerprints TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entities (
    fingerprint_id TEXT PRIMARY KEY,
    convicted_at   REAL NOT NULL,
    detector       TEXT NOT NULL,
    score          REAL NOT NULL
);
"""


class StateStoreError(Exception):
    """The database is unusable (wrong schema version or journal mode,
    corrupt snapshot or journal record) or a write failed and was
    rolled back."""


class StateStore:
    """One SQLite database holding a detection service's durable state.

    Opened in WAL mode at ``synchronous=FULL`` (see the module
    docstring): one fsync per commit, acks durable against power loss,
    and operators' SQL readers never block the writer.  A database
    that will not switch to WAL raises :class:`StateStoreError`.

    All writes happen on the event-loop thread; SQLite's default
    serialized mode plus one connection per store keeps this simple.
    Every write method is one transaction that either commits whole or
    rolls back and raises :class:`StateStoreError`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        # check_same_thread off: access is already serialized (every
        # caller funnels through the single service/event-loop thread),
        # but the *constructing* thread may differ from the serving one
        # (test harnesses build the server, then run it on a thread).
        self._conn = sqlite3.connect(
            path, timeout=BUSY_TIMEOUT_MS / 1000, check_same_thread=False
        )
        try:
            self._open()
        except BaseException:
            self._conn.close()
            raise

    def _open(self) -> None:
        mode = self._conn.execute("PRAGMA journal_mode=WAL").fetchone()[0]
        if mode != "wal":
            raise StateStoreError(
                f"{self.path}: SQLite refused WAL mode "
                f"(journal_mode is {mode!r})"
            )
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.executescript(_SCHEMA)
        existing = self.get_meta("schema_version")
        if existing is None:
            with self._transaction("schema version write"):
                self.set_meta("schema_version", str(SCHEMA_VERSION))
        elif int(existing) != SCHEMA_VERSION:
            raise StateStoreError(
                f"{self.path}: schema version {existing} "
                f"(this build speaks {SCHEMA_VERSION})"
            )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @contextmanager
    def _transaction(self, what: str) -> Iterator[None]:
        """Run the body as one transaction: commit it, or roll it back
        on any error.  ``sqlite3`` errors surface as
        :class:`StateStoreError`; others propagate as they are, after
        the rollback."""
        try:
            yield
            self._conn.commit()
        except sqlite3.Error as error:
            self._conn.rollback()
            raise StateStoreError(
                f"{self.path}: {what} failed and was rolled back: {error}"
            ) from error
        except BaseException:
            self._conn.rollback()
            raise

    # -- meta -----------------------------------------------------------------

    def get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    def set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    # -- journal --------------------------------------------------------------

    def append_events(
        self, first_seq: int, entries: Tuple[LogEntry, ...], record: bytes
    ) -> None:
        """Journal ``entries`` as seq ``first_seq..first_seq+n-1``: one
        row holding ``record``, their RPTR record as the codec encoded
        it (:func:`~repro.serve.codec.encode_record`), committed."""
        if not entries:
            return
        with self._transaction("journal append"):
            self._conn.execute(
                "INSERT INTO journal (first_seq, count, record) "
                "VALUES (?, ?, ?)",
                (first_seq, len(entries), record),
            )

    def commit(self) -> None:
        with self._transaction("commit"):
            pass

    def journal_tail(self, after_seq: int) -> List[Tuple[int, LogEntry]]:
        """Every journaled ``(seq, entry)`` past both ``after_seq`` and
        the latest snapshot, in seq order.  Every record read is
        decoded and checked whole before any entry is returned."""
        floor = max(after_seq, self.snapshot_seq())
        rows = self._conn.execute(
            "SELECT first_seq, count, record FROM journal "
            "WHERE first_seq + count - 1 > ? ORDER BY first_seq",
            (floor,),
        ).fetchall()
        tail: List[Tuple[int, LogEntry]] = []
        expected = floor + 1  # the seq the next record must hold
        for index, (first_seq, count, record) in enumerate(rows):
            # Only the first record may start before ``expected``: a
            # snapshot or ``after_seq`` can cover part of its batch.
            if first_seq > expected or (index and first_seq < expected):
                raise self._record_error(
                    first_seq, f"the journal should go on at seq {expected}"
                )
            entries = self._decode_record(first_seq, count, record)
            tail.extend(
                zip(range(expected, first_seq + count),
                    entries[expected - first_seq:])
            )
            expected = first_seq + count
        return tail

    def _decode_record(
        self, first_seq: int, count: int, record: bytes
    ) -> List[LogEntry]:
        try:
            with TraceReader(io.BytesIO(record)) as reader:
                entries = list(reader)
                meta = reader.meta
        except TraceError as error:
            raise self._record_error(first_seq, str(error)) from error
        if meta != {"first_seq": first_seq}:
            raise self._record_error(first_seq, f"metadata {meta!r}")
        if len(entries) != count:
            raise self._record_error(
                first_seq, f"{len(entries)} entries, row says {count}"
            )
        return entries

    def _record_error(self, first_seq: int, problem: str) -> StateStoreError:
        return StateStoreError(
            f"{self.path}: journal record {first_seq} is corrupt: {problem}"
        )

    def durable_seq(self) -> int:
        """Highest committed event seq (snapshot floor included)."""
        row = self._conn.execute(
            "SELECT MAX(first_seq + count - 1) FROM journal"
        ).fetchone()
        if row[0] is not None:
            return int(row[0])
        return self.snapshot_seq()

    def journal_rows(self) -> int:
        """Events journaled past the latest snapshot (not table rows:
        a row holds a batch, which a snapshot may cover in part)."""
        return max(self.durable_seq() - self.snapshot_seq(), 0)

    # -- snapshots ------------------------------------------------------------

    def snapshot_seq(self) -> int:
        """Event seq the latest snapshot covers (0 = no snapshot)."""
        row = self._conn.execute(
            "SELECT seq FROM snapshots ORDER BY id DESC LIMIT 1"
        ).fetchone()
        return int(row[0]) if row else 0

    def write_snapshot(
        self,
        seq: int,
        core: object,
        created_at: float,
        derived: Optional[Dict[str, object]] = None,
    ) -> int:
        """Checkpoint: persist the enveloped pickle of ``core`` at
        ``seq``, drop the journal rows it covers whole and any older
        snapshot, and rewrite the derived query tables — one atomic
        transaction, so a kill or a failed write mid-checkpoint leaves
        the previous checkpoint intact.  Then fold the WAL into the
        database.  Returns the blob's size in bytes."""
        # The pickle goes straight into the envelope's buffer behind a
        # placeholder header, then the header is filled in: no second
        # copy of a blob that can run to megabytes.
        buffer = io.BytesIO()
        buffer.write(bytes(_ENVELOPE.size))
        pickle.dump(core, buffer, protocol=pickle.HIGHEST_PROTOCOL)
        with buffer.getbuffer() as blob:
            digest = hashlib.sha256(blob[_ENVELOPE.size:]).digest()
            _ENVELOPE.pack_into(
                blob, 0, SNAPSHOT_MAGIC, SNAPSHOT_FORMAT, digest
            )
            with self._transaction("snapshot write"):
                self._conn.execute(
                    "INSERT INTO snapshots (seq, created_at, pipeline) "
                    "VALUES (?, ?, ?)",
                    (seq, created_at, blob),
                )
                self._conn.execute(
                    "DELETE FROM snapshots WHERE id NOT IN "
                    "(SELECT id FROM snapshots ORDER BY id DESC LIMIT 1)"
                )
                self._conn.execute(
                    "DELETE FROM journal WHERE first_seq + count - 1 <= ?",
                    (seq,),
                )
                if derived is not None:
                    self._write_derived(derived)
            size = len(blob)
        self._fold_wal()
        return size

    def _fold_wal(self) -> None:
        """Copy the WAL into the database and truncate it to 0 bytes,
        without waiting: a reader pinning an older snapshot leaves the
        rest of the WAL to the next fold."""
        self._conn.execute("PRAGMA busy_timeout = 0")
        try:
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        except sqlite3.Error as error:
            raise StateStoreError(
                f"{self.path}: WAL fold failed: {error}"
            ) from error
        finally:
            self._conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")

    def load_snapshot(self) -> Optional[Tuple[int, object]]:
        """Latest ``(seq, unpickled core)``; ``None`` if never
        checkpointed.  A blob whose envelope or digest does not check
        out raises :class:`StateStoreError`."""
        row = self._conn.execute(
            "SELECT seq, pipeline FROM snapshots ORDER BY id DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        seq, blob = int(row[0]), row[1]
        if len(blob) < _ENVELOPE.size:
            raise StateStoreError(
                f"{self.path}: snapshot blob truncated to "
                f"{len(blob)} bytes"
            )
        magic, version, digest = _ENVELOPE.unpack_from(blob)
        if magic != SNAPSHOT_MAGIC or version != SNAPSHOT_FORMAT:
            raise StateStoreError(
                f"{self.path}: snapshot envelope {magic!r} v{version} "
                f"(this build reads {SNAPSHOT_MAGIC!r} v{SNAPSHOT_FORMAT})"
            )
        body = memoryview(blob)[_ENVELOPE.size:]
        if hashlib.sha256(body).digest() != digest:
            raise StateStoreError(
                f"{self.path}: snapshot digest mismatch "
                f"(blob truncated or corrupt)"
            )
        try:
            return seq, pickle.loads(body)
        except Exception as error:  # digest ok, code moved on: fail loudly
            raise StateStoreError(
                f"{self.path}: cannot unpickle snapshot: {error}"
            ) from error

    # -- derived query tables --------------------------------------------------

    def _write_derived(self, derived: Dict[str, object]) -> None:
        self._conn.execute("DELETE FROM verdicts")
        self._conn.executemany(
            "INSERT INTO verdicts VALUES (?, ?, ?, ?, ?)",
            [
                (
                    v["subject_id"], v["detector"], v["score"],
                    int(v["is_bot"]), json.dumps(v["reasons"]),
                )
                for v in derived.get("verdicts", [])
            ],
        )
        self._conn.execute("DELETE FROM campaigns")
        self._conn.executemany(
            "INSERT INTO campaigns VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    position, c["campaign_id"], c["convicted_at"],
                    c["risk"], c["first_seen"], c["last_seen"],
                    c["sessions"], json.dumps(c["fingerprints"]),
                )
                for position, c in enumerate(derived.get("campaigns", []))
            ],
        )
        self._conn.execute("DELETE FROM entities")
        self._conn.executemany(
            "INSERT INTO entities VALUES (?, ?, ?, ?)",
            [
                (
                    e["fingerprint_id"], e["convicted_at"],
                    e["detector"], e["score"],
                )
                for e in derived.get("entities", [])
            ],
        )

    def read_derived(self) -> Dict[str, List[Dict[str, object]]]:
        """The checkpointed derived tables, JSON-able."""
        verdicts = [
            {
                "subject_id": row[0], "detector": row[1],
                "score": row[2], "is_bot": bool(row[3]),
                "reasons": json.loads(row[4]),
            }
            for row in self._conn.execute(
                "SELECT * FROM verdicts ORDER BY subject_id"
            )
        ]
        campaigns = [
            {
                "campaign_id": row[1], "convicted_at": row[2],
                "risk": row[3], "first_seen": row[4], "last_seen": row[5],
                "sessions": row[6], "fingerprints": json.loads(row[7]),
            }
            for row in self._conn.execute(
                "SELECT * FROM campaigns ORDER BY position"
            )
        ]
        entities = [
            {
                "fingerprint_id": row[0], "convicted_at": row[1],
                "detector": row[2], "score": row[3],
            }
            for row in self._conn.execute(
                "SELECT * FROM entities ORDER BY fingerprint_id"
            )
        ]
        return {
            "verdicts": verdicts,
            "campaigns": campaigns,
            "entities": entities,
        }
