"""Columnar (struct-of-arrays) storage for web-log entries.

A million-visitor world produces tens of millions of log lines; one
:class:`~repro.web.logs.LogEntry` object per line costs ~150 bytes of
Python object headers before a single field is stored.  The
:class:`ColumnarLogStore` keeps the log *at rest* as append-only NumPy
blocks instead — one array per field — and materialises ``LogEntry``
views only when a consumer actually iterates:

* ``time`` — ``float64`` per row;
* ``status`` — ``uint16`` per row (every status ``/ingest`` and RPTR
  traces admit, 0..65535);
* ``method`` / ``path`` / ``blocked_by`` / ``outcome`` — ``int32``
  ids into a shared string-interning table (request logs repeat a few
  dozen distinct strings millions of times);
* ``client`` — ``int32`` index into a :class:`ClientRef` table,
  interned by object identity (the funnel builds one ``ClientRef`` per
  visitor and reuses it for every request, so identity interning
  collapses a visitor's whole request history to one table slot; the
  table holds a strong reference, so ids stay valid).

Blocks have fixed capacity, so an append never copies earlier rows and
peak memory tracks the high-water mark, not 2x it (no ``realloc``
doubling).  Materialised views are bit-faithful: the same interned
``str`` objects and the same ``ClientRef`` instance that were appended
come back out, so a columnar-backed log compares equal to a list of
the original entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from ..common import ClientRef
from .logs import LogEntry


@dataclass
class LogColumns:
    """A flat columnar view of a whole log — the analysis read API.

    ``time``/``status``/``method``/``path``/``client`` are one array
    element per row (string and client columns hold intern-table ids);
    ``strings``/``clients`` are the intern tables themselves and
    ``string_ids`` the reverse string lookup.  The arrays are copies
    (concatenated from the store's blocks), but the tables are live
    references — read-only by contract.  This is what the columnar
    fast paths (vectorized sessionization + feature extraction)
    consume instead of materialising ``LogEntry`` objects row by row.
    """

    time: np.ndarray        # (n,) float64
    status: np.ndarray      # (n,) uint16
    method: np.ndarray      # (n,) int32 — id into strings
    path: np.ndarray        # (n,) int32 — id into strings
    client: np.ndarray      # (n,) int32 — id into clients
    strings: List[str]
    clients: List[ClientRef]
    string_ids: Dict[str, int]

    def __len__(self) -> int:
        return int(self.time.shape[0])

    def string_id(self, value: str) -> int:
        """Interned id of ``value``, or -1 when it never occurred
        (-1 matches no row, which is exactly the semantics a count of
        a never-seen endpoint needs)."""
        return self.string_ids.get(value, -1)


#: Rows per block.  64Ki rows x ~22 bytes/row of arrays ~= 1.4 MiB per
#: block — large enough that block bookkeeping is noise, small enough
#: that a mostly-empty tail block is cheap.
DEFAULT_BLOCK_ROWS = 65_536


class _Block:
    """One fixed-capacity struct-of-arrays segment."""

    __slots__ = (
        "time", "status", "method", "path",
        "blocked_by", "outcome", "client", "used",
    )

    def __init__(self, rows: int) -> None:
        self.time = np.empty(rows, dtype=np.float64)
        self.status = np.empty(rows, dtype=np.uint16)
        self.method = np.empty(rows, dtype=np.int32)
        self.path = np.empty(rows, dtype=np.int32)
        self.blocked_by = np.empty(rows, dtype=np.int32)
        self.outcome = np.empty(rows, dtype=np.int32)
        self.client = np.empty(rows, dtype=np.int32)
        self.used = 0


class ColumnarLogStore:
    """Append-only columnar backing store for a web log.

    The store is a storage engine, not a log: time-ordering, observer
    notification and re-entrancy rules stay in
    :class:`~repro.web.logs.WebLog`, which owns one of these.
    """

    def __init__(self, block_rows: int = DEFAULT_BLOCK_ROWS) -> None:
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1: {block_rows}")
        self._block_rows = block_rows
        self._blocks: List[_Block] = []
        self._rows = 0
        # String interning: one table shared by all four string columns
        # (method/path/blocked_by/outcome draw from overlapping small
        # vocabularies).
        self._string_ids: Dict[str, int] = {}
        self._strings: List[str] = []
        # ClientRef interning by identity.  Safe because ``_clients``
        # keeps every interned ref alive: an id() can never be reused
        # by a new object while its table entry exists.
        self._client_ids: Dict[int, int] = {}
        self._clients: List[ClientRef] = []

    def __len__(self) -> int:
        return self._rows

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def interned_strings(self) -> int:
        return len(self._strings)

    @property
    def interned_clients(self) -> int:
        return len(self._clients)

    def nbytes(self) -> int:
        """Array bytes held by the store (excludes the intern tables)."""
        return sum(
            block.time.nbytes + block.status.nbytes + block.method.nbytes
            + block.path.nbytes + block.blocked_by.nbytes
            + block.outcome.nbytes + block.client.nbytes
            for block in self._blocks
        )

    # -- writes --------------------------------------------------------------

    def _intern(self, value: str) -> int:
        sid = self._string_ids.get(value)
        if sid is None:
            sid = self._string_ids[value] = len(self._strings)
            self._strings.append(value)
        return sid

    def _intern_client(self, client: ClientRef) -> int:
        cid = self._client_ids.get(id(client))
        if cid is None:
            cid = self._client_ids[id(client)] = len(self._clients)
            self._clients.append(client)
        return cid

    def append(
        self,
        time: float,
        method: str,
        path: str,
        status: int,
        client: ClientRef,
        blocked_by: str = "",
        outcome: str = "",
    ) -> None:
        """Append one row (the hot path — no LogEntry is built)."""
        if not self._blocks or self._blocks[-1].used == self._block_rows:
            self._blocks.append(_Block(self._block_rows))
        block = self._blocks[-1]
        row = block.used
        block.time[row] = time
        block.status[row] = status
        block.method[row] = self._intern(method)
        block.path[row] = self._intern(path)
        block.blocked_by[row] = self._intern(blocked_by)
        block.outcome[row] = self._intern(outcome)
        block.client[row] = self._intern_client(client)
        block.used = row + 1
        self._rows += 1

    def append_entry(self, entry: LogEntry) -> None:
        self.append(
            entry.time, entry.method, entry.path, entry.status,
            entry.client, entry.blocked_by, entry.outcome,
        )

    # -- reads ---------------------------------------------------------------

    def last_time(self) -> float:
        """Timestamp of the newest row (store must be non-empty)."""
        if not self._rows:
            raise IndexError("empty store has no last row")
        block = self._blocks[-1]
        return float(block.time[block.used - 1])

    def _materialise(self, block: _Block, row: int) -> LogEntry:
        return LogEntry(
            time=float(block.time[row]),
            method=self._strings[block.method[row]],
            path=self._strings[block.path[row]],
            status=int(block.status[row]),
            client=self._clients[block.client[row]],
            blocked_by=self._strings[block.blocked_by[row]],
            outcome=self._strings[block.outcome[row]],
        )

    def get(self, index: int) -> LogEntry:
        if not 0 <= index < self._rows:
            raise IndexError(f"row {index} out of range [0, {self._rows})")
        return self._materialise(
            self._blocks[index // self._block_rows],
            index % self._block_rows,
        )

    def iter_entries(self, stop: int = -1) -> Iterator[LogEntry]:
        """Materialise rows ``[0, stop)`` on demand.

        The bound is pinned when the view is taken (``stop=-1`` means
        "rows present now"), so a view taken before later appends
        yields exactly the rows that existed when it was taken — the
        same snapshot-consistency a defensive list copy gave.
        """
        if stop < 0:
            stop = self._rows
        return self._iter_to(stop)

    def _iter_to(self, stop: int) -> Iterator[LogEntry]:
        remaining = stop
        for block in self._blocks:
            take = min(block.used, remaining)
            for row in range(take):
                yield self._materialise(block, row)
            remaining -= take
            if remaining <= 0:
                return

    def columns(self) -> LogColumns:
        """The whole store as one :class:`LogColumns` view.

        Array columns are concatenated copies of the block slices (one
        allocation each — analysis use, not per-row); the intern
        tables are live references, read-only by contract.
        """
        if not self._blocks:
            empty = LogColumns(
                time=np.empty(0, dtype=np.float64),
                status=np.empty(0, dtype=np.uint16),
                method=np.empty(0, dtype=np.int32),
                path=np.empty(0, dtype=np.int32),
                client=np.empty(0, dtype=np.int32),
                strings=self._strings,
                clients=self._clients,
                string_ids=self._string_ids,
            )
            return empty
        return LogColumns(
            time=np.concatenate(
                [b.time[: b.used] for b in self._blocks]
            ),
            status=np.concatenate(
                [b.status[: b.used] for b in self._blocks]
            ),
            method=np.concatenate(
                [b.method[: b.used] for b in self._blocks]
            ),
            path=np.concatenate(
                [b.path[: b.used] for b in self._blocks]
            ),
            client=np.concatenate(
                [b.client[: b.used] for b in self._blocks]
            ),
            strings=self._strings,
            clients=self._clients,
            string_ids=self._string_ids,
        )

    def times(self) -> np.ndarray:
        """All timestamps as one array (copies; analysis use only)."""
        if not self._blocks:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(
            [block.time[: block.used] for block in self._blocks]
        )

    def entries_between(self, start: float, end: float) -> List[LogEntry]:
        """Rows with ``start <= time < end``, via a binary search over
        the (time-ordered) timestamp column."""
        times = self.times()
        lo, hi = np.searchsorted(times, [start, end], side="left")
        return [self.get(index) for index in range(int(lo), int(hi))]
