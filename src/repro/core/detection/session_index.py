"""Columnar session index: vectorized sessionization + features.

The one session encoding in the package.  :class:`SessionIndex` holds
a set of sessions as flat NumPy columns and computes, without a
per-session Python loop,

* the full 16-column :data:`~repro.core.detection.features.
  FEATURE_NAMES` matrix via group-by aggregations
  (``np.bincount`` over a per-row session id);
* the per-endpoint count table and the token/gap sequence encoding
  the :mod:`repro.ml` arm trains on.

Two constructors share that aggregation:

* :meth:`SessionIndex.from_log` partitions a whole log
  (:meth:`repro.web.logs.WebLog.columns`) without ever materialising
  a ``LogEntry`` or ``Session`` — the exact session partition of the
  per-entry reference sessionizer (``sessionize`` in
  ``tests/session_oracle.py``): same session ids, same member
  entries, same output order — via a stable sort on the interned
  ``(ip, fingerprint)`` key instead of a per-entry Python loop;
* :meth:`SessionIndex.from_sessions` indexes sessions that are
  already closed — one block returned by the stream sessionizer —
  one row per session, in the order given, under the session's own
  id.  The stream judges each block through it, so stream verdicts
  equal batch verdicts by construction.

Both are **bit-identical** to the per-session reference encoders
(``tests/feature_oracle.py``).  The one numerical subtlety: every
float segment reduction uses ``np.bincount``, whose weight
accumulation is sequential in array order — the same left-to-right
order a per-session ``sum()`` uses — where ``np.add.reduceat``/
``np.sum`` would introduce pairwise-summation differences at the last
ulp.

Replicating ``sessionize`` exactly takes care with ordering:

* session **ids** are assigned in opening order over the original
  scan (``S0000001``...), so each segment's number is the rank of its
  first entry's original row among all opening rows;
* the **output order** is a stable sort by session start over the
  list sessionize builds — closed sessions in close order (a session
  closes when the *next* entry of its key arrives after the idle
  gap), then still-open sessions in key-first-appearance order.  Both
  ranks are computable from the opening rows, so one ``np.lexsort``
  reproduces the exact final order including start-time ties.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...web.logs import DEFAULT_IDLE_GAP, LogEntry, Session, WebLog
from ...web.logstore import LogColumns
from .features import FEATURE_NAMES
from ...web.request import (
    BOARDING_PASS_SMS,
    FLIGHT_DETAILS,
    HOLD,
    OTP_LOGIN,
    PAY,
    SEARCH,
    TRAP,
)

#: Endpoint order of the per-session count table: columns 0..6 are the
#: known funnel endpoints (the same order the feature vector and the
#: ML token vocabulary use), column 7 counts everything else.
ENDPOINT_ORDER: Tuple[str, ...] = (
    SEARCH,
    FLIGHT_DETAILS,
    HOLD,
    PAY,
    OTP_LOGIN,
    BOARDING_PASS_SMS,
    TRAP,
)
OTHER_ENDPOINT = len(ENDPOINT_ORDER)        # 7
_ENDPOINT_COUNT = OTHER_ENDPOINT + 1        # 8

#: Ground-truth class a zero-evidence session defaults to (mirrors
#: :attr:`repro.web.logs.Session.actor_class`).
LEGIT_CLASS = "legit"

_ENTRY_FIELDS = attrgetter("time", "method", "path", "status", "client")


def _ratio(numerator: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``numerator / counts``, 0.0 for a zero-entry session."""
    out = np.zeros(counts.shape[0])
    np.divide(numerator, counts, out=out, where=counts > 0)
    return out


class SessionIndex:
    """Sessionized columnar view of a set of sessions.

    Built once per analysis pass (:meth:`from_log`) or per block of
    closed stream sessions (:meth:`from_sessions`); detectors consume
    ``session_ids`` + ``matrix`` directly, the ML arm adds
    :meth:`sequences`, and anything that still needs ``Session``
    objects calls :meth:`sessions`.
    """

    def __init__(
        self,
        columns: LogColumns,
        entry_rows: np.ndarray,
        indptr: np.ndarray,
        session_ids: List[str],
        ips: List[str],
        fingerprints: List[str],
        entry_at: Callable[[int], LogEntry],
    ) -> None:
        """Aggregate the sessions whose entries are the ``columns``
        rows ``entry_rows[indptr[i]:indptr[i + 1]]``, time-ordered
        within each session; ``entry_at(row)`` materialises one."""
        #: Session ids, one per row.
        self.session_ids = session_ids
        self.ips = ips
        self.fingerprints = fingerprints
        #: Row of ``columns`` of every entry, session-major in row
        #: order; ``indptr`` bounds session ``i``'s entries.
        self.entry_rows = entry_rows
        self.indptr = indptr
        self._columns = columns
        self._entry_at = entry_at
        self._sequences: Optional[Tuple[np.ndarray, np.ndarray]] = None

        cols = columns
        n = len(session_ids)
        total = int(entry_rows.shape[0])
        counts = np.diff(indptr)
        seg_id = np.repeat(np.arange(n, dtype=np.int64), counts)
        t = cols.time[entry_rows]
        nonempty = counts > 0
        firsts = indptr[:-1][nonempty]
        starts = np.zeros(n)
        ends = np.zeros(n)
        starts[nonempty] = t[firsts]
        ends[nonempty] = t[indptr[1:][nonempty] - 1]
        self.counts = counts            # (n,) int64 request counts
        self.starts = starts            # (n,) float64
        self.ends = ends                # (n,) float64

        status = cols.status[entry_rows]
        method = cols.method[entry_rows]
        path = cols.path[entry_rows]

        duration_min = (ends - starts) / 60.0
        rate = counts / np.maximum(duration_min, 1.0)

        get_id = cols.string_id("GET")
        post_id = cols.string_id("POST")
        gets = np.bincount(seg_id[method == get_id], minlength=n)
        posts = np.bincount(seg_id[method == post_id], minlength=n)

        # Distinct (session, path) pairs, counted per session.  A sort
        # rather than np.unique, which imports numpy.ma (~2 MB) into a
        # process that never needed it.
        n_strings = len(cols.strings)
        pairs = np.sort(seg_id * np.int64(n_strings) + path)
        distinct = np.ones(total, dtype=bool)
        np.not_equal(pairs[1:], pairs[:-1], out=distinct[1:])
        unique_paths = np.bincount(
            pairs[distinct] // n_strings, minlength=n
        )

        bucket_of_string = np.full(
            n_strings, OTHER_ENDPOINT, dtype=np.int64
        )
        for bucket, endpoint in enumerate(ENDPOINT_ORDER):
            sid = cols.string_id(endpoint)
            if sid >= 0:
                bucket_of_string[sid] = bucket
        self._bucket_of_string = bucket_of_string
        #: ``(n, 8)`` int64 — per-endpoint request counts in
        #: :data:`ENDPOINT_ORDER` + other; feeds the feature columns
        #: and the graph detector's behavioural priors.
        path_counts = self.path_counts = np.bincount(
            seg_id * _ENDPOINT_COUNT + bucket_of_string[path],
            minlength=n * _ENDPOINT_COUNT,
        ).reshape(n, _ENDPOINT_COUNT)

        errors = np.bincount(seg_id[status != 200], minlength=n)

        # Gap statistics over the rows that have a predecessor in
        # their own session, so no gap spans two sessions; bincount's
        # sequential weight accumulation reproduces the per-session
        # left-to-right sums exactly.
        gap = np.zeros(total)
        np.subtract(t[1:], t[:-1], out=gap[1:])
        has_prev = np.ones(total, dtype=bool)
        has_prev[firsts] = False
        gap_seg = seg_id[has_prev]
        gap_sum = np.bincount(
            gap_seg, weights=gap[has_prev], minlength=n
        )
        gap_count = counts - 1
        mean_gap = np.zeros(n)
        np.divide(
            gap_sum, gap_count, out=mean_gap, where=gap_count > 0
        )
        deviation = gap - mean_gap[seg_id]
        square = deviation * deviation
        variance = np.zeros(n)
        np.divide(
            np.bincount(
                gap_seg, weights=square[has_prev], minlength=n
            ),
            gap_count,
            out=variance,
            where=gap_count > 0,
        )
        cv = np.zeros(n)
        np.divide(
            np.sqrt(variance), mean_gap, out=cv, where=mean_gap > 0
        )

        #: ``(n, len(FEATURE_NAMES))`` float64, rows aligned with
        #: ``session_ids``; a zero-entry session is all zeros.
        matrix = self.matrix = np.empty((n, len(FEATURE_NAMES)))
        matrix[:, 0] = counts
        matrix[:, 1] = duration_min
        matrix[:, 2] = rate
        matrix[:, 3] = _ratio(gets, counts)
        matrix[:, 4] = _ratio(posts, counts)
        matrix[:, 5] = unique_paths
        matrix[:, 6] = path_counts[:, 0]    # search
        matrix[:, 7] = path_counts[:, 1]    # details
        matrix[:, 8] = path_counts[:, 2]    # hold
        matrix[:, 9] = path_counts[:, 3]    # pay
        matrix[:, 10] = path_counts[:, 4] + path_counts[:, 5]  # sms
        matrix[:, 11] = path_counts[:, 2] - path_counts[:, 3]
        matrix[:, 12] = mean_gap
        matrix[:, 13] = cv
        matrix[:, 14] = _ratio(errors, counts)
        matrix[:, 15] = path_counts[:, 6]   # trap

        # -- ground-truth majority class (first-appearance tie-break) ------
        # The legit class is listed first so that a zero-entry session,
        # where every class ties at zero, resolves to it.
        class_ids: Dict[str, int] = {LEGIT_CLASS: 0}
        classes: List[str] = [LEGIT_CLASS]
        class_of_client = np.empty(len(cols.clients), dtype=np.int64)
        for cid, ref in enumerate(cols.clients):
            name = ref.actor_class
            pid = class_ids.get(name)
            if pid is None:
                pid = class_ids[name] = len(classes)
                classes.append(name)
            class_of_client[cid] = pid
        row_class = class_of_client[cols.client[entry_rows]]
        n_classes = len(classes)
        combo = seg_id * n_classes + row_class
        class_counts = np.bincount(
            combo, minlength=n * n_classes
        ).astype(np.int64)
        first_pos = np.full(n * n_classes, total, dtype=np.int64)
        np.minimum.at(first_pos, combo, np.arange(total))
        # count dominates; among equal counts the earlier first
        # appearance wins — Session.actor_class's max() semantics.
        rank = class_counts * np.int64(total + 1) - first_pos
        winner = rank.reshape(n, n_classes).argmax(axis=1)
        #: Ground-truth majority actor class per session (evaluation
        #: only, same tie-break as ``Session.actor_class``).
        self.actor_classes = [classes[w] for w in winner]

    def __len__(self) -> int:
        return len(self.session_ids)

    @property
    def entry_count(self) -> int:
        return int(self.entry_rows.shape[0])

    @property
    def is_attacker(self) -> np.ndarray:
        """Boolean ground-truth label per session."""
        return np.array(
            [cls != LEGIT_CLASS for cls in self.actor_classes],
            dtype=bool,
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_log(
        cls,
        log: WebLog,
        idle_gap: float = DEFAULT_IDLE_GAP,
        obs: Optional[object] = None,
    ) -> "SessionIndex":
        """Sessionize + feature-extract ``log`` in one columnar pass."""
        if idle_gap <= 0:
            raise ValueError(f"idle_gap must be positive: {idle_gap}")
        span = (
            obs.timer("detect.features").time() if obs is not None else None
        )
        if span is not None:
            span.__enter__()
        try:
            index = cls._build(log, idle_gap)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        if obs is not None:
            obs.increment("detect.sessions", float(len(index)))
            obs.increment("detect.entries", float(index.entry_count))
        return index

    @classmethod
    def from_sessions(cls, sessions: Sequence[Session]) -> "SessionIndex":
        """Index sessions that are already closed: one row per
        session, in the order given, under the session's own id —
        taken as they are, never re-partitioned."""
        entries = [
            entry for session in sessions for entry in session.entries
        ]
        total = len(entries)
        indptr = np.zeros(len(sessions) + 1, dtype=np.int64)
        np.cumsum(
            [len(session.entries) for session in sessions], out=indptr[1:]
        )
        times, methods, paths, statuses, clients = (
            zip(*map(_ENTRY_FIELDS, entries)) if total else ((),) * 5
        )
        strings = list(dict.fromkeys(methods + paths))
        string_ids = {value: sid for sid, value in enumerate(strings)}
        # Clients interned by identity, like the log store does.
        refs = dict(zip(map(id, clients), clients))
        client_ids = {key: cid for cid, key in enumerate(refs)}
        columns = LogColumns(
            time=np.array(times, dtype=np.float64),
            # Wider than the log store's int16: a stream fed through
            # /ingest carries any u16 status.
            status=np.array(statuses, dtype=np.int32),
            method=np.fromiter(
                map(string_ids.__getitem__, methods), np.int32, total
            ),
            path=np.fromiter(
                map(string_ids.__getitem__, paths), np.int32, total
            ),
            client=np.fromiter(
                map(client_ids.__getitem__, map(id, clients)),
                np.int32,
                total,
            ),
            strings=strings,
            clients=list(refs.values()),
            string_ids=string_ids,
        )
        return cls(
            columns,
            np.arange(total, dtype=np.int64),
            indptr,
            session_ids=[session.session_id for session in sessions],
            ips=[session.ip_address for session in sessions],
            fingerprints=[session.fingerprint_id for session in sessions],
            entry_at=entries.__getitem__,
        )

    @classmethod
    def _build(cls, log: WebLog, idle_gap: float) -> "SessionIndex":
        cols = log.columns()
        n_rows = len(cols)

        # Per-row (ip, fingerprint) pair id, via the small client
        # intern table (one entry per visitor, not per row).
        pair_ids: Dict[Tuple[str, str], int] = {}
        pairs: List[Tuple[str, str]] = []
        pair_of_client = np.empty(len(cols.clients), dtype=np.int64)
        for cid, ref in enumerate(cols.clients):
            key = (ref.ip_address, ref.fingerprint_id)
            pid = pair_ids.get(key)
            if pid is None:
                pid = pair_ids[key] = len(pairs)
                pairs.append(key)
            pair_of_client[cid] = pid
        row_key = pair_of_client[cols.client]

        # Stable sort groups rows by key while preserving the log's
        # time order inside each key — "kg" (key-grouped) space.
        order = np.argsort(row_key, kind="stable")
        k = row_key[order]
        t = cols.time[order]
        new_key = np.empty(n_rows, dtype=bool)
        new_key[:1] = True
        np.not_equal(k[1:], k[:-1], out=new_key[1:])
        gap = np.empty(n_rows, dtype=np.float64)
        gap[:1] = 0.0
        np.subtract(t[1:], t[:-1], out=gap[1:])
        # A row opens a session when its key changes or the idle gap
        # is strictly exceeded (cross-key gap values are masked by
        # new_key being True there already).
        is_open = new_key | (gap > idle_gap)
        open_pos = np.flatnonzero(is_open)
        nseg = int(open_pos.shape[0])
        kg_indptr = np.append(open_pos, n_rows)
        open_orig = order[open_pos]

        # Session numbering: sessionize's counter increments at each
        # session open during the original scan, so the number is the
        # rank of the opening entry's original row.
        number = np.empty(nseg, dtype=np.int64)
        number[np.argsort(open_orig, kind="stable")] = np.arange(
            1, nseg + 1
        )

        # Output order = stable sort by start over sessionize's list:
        # closed sessions ranked by the original row of the successor
        # entry that closed them, then end-open sessions ranked by
        # their key's first appearance (dict insertion order), offset
        # past every close rank.
        seg_key = k[open_pos]
        first_seg = new_key[open_pos]
        key_first_row = np.empty(len(pairs), dtype=np.int64)
        key_first_row[seg_key[first_seg]] = open_orig[first_seg]
        next_same = np.zeros(nseg, dtype=bool)
        next_same[:-1] = seg_key[1:] == seg_key[:-1]
        successor_row = np.zeros(nseg, dtype=np.int64)
        successor_row[:-1] = open_orig[1:]
        presort = np.where(
            next_same, successor_row, n_rows + key_first_row[seg_key]
        )
        seg_order = np.lexsort((presort, t[open_pos]))

        # Gather each output session's rows from its kg-contiguous run.
        out_counts = np.diff(kg_indptr)[seg_order]
        indptr = np.zeros(nseg + 1, dtype=np.int64)
        np.cumsum(out_counts, out=indptr[1:])
        offsets = np.repeat(
            kg_indptr[:-1][seg_order] - indptr[:-1], out_counts
        )
        return cls(
            cols,
            order[offsets + np.arange(n_rows)],
            indptr,
            session_ids=[f"S{number[j]:07d}" for j in seg_order],
            ips=[pairs[seg_key[j]][0] for j in seg_order],
            fingerprints=[pairs[seg_key[j]][1] for j in seg_order],
            entry_at=log.entry_at,
        )

    # -- materialisation ------------------------------------------------------

    def sessions(self) -> List[Session]:
        """``Session`` objects for every row, in row order — equal to
        ``sessionize(log, idle_gap)`` for an index :meth:`from_log`.

        Only for consumers that genuinely need per-entry objects
        (fingerprint rules, the graph builder); the matrix consumers
        never pay this cost.
        """
        entry_at = self._entry_at
        rows = self.entry_rows
        indptr = self.indptr
        out: List[Session] = []
        for i, session_id in enumerate(self.session_ids):
            out.append(
                Session(
                    session_id=session_id,
                    ip_address=self.ips[i],
                    fingerprint_id=self.fingerprints[i],
                    entries=[
                        entry_at(int(row))
                        for row in rows[indptr[i]: indptr[i + 1]]
                    ],
                )
            )
        return out

    def sequences(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(tokens, gaps)`` ML sequence encodings for every session.

        Per session, the first :data:`~repro.ml.data.
        MAX_SEQUENCE_LENGTH` entries each give one int16 token —
        endpoint bucket (:data:`ENDPOINT_ORDER` + other) times outcome
        (200 or anything else) — padded with the vocabulary's PAD id,
        and one float64 gap: ``log1p`` of the seconds since the
        session's previous entry (0.0 for its first entry and at
        padded positions), so second-cadence bots and minute-cadence
        humans land on comparable magnitudes.  Computed lazily and
        cached.
        """
        if self._sequences is not None:
            return self._sequences
        # Local import: repro.ml.data imports this module's consumers.
        from ...ml.data import (
            MAX_SEQUENCE_LENGTH,
            OUTCOME_COUNT,
            PAD_TOKEN,
        )

        cols = self._columns
        n = len(self)
        tokens = np.full(
            (n, MAX_SEQUENCE_LENGTH), PAD_TOKEN, dtype=np.int16
        )
        gaps = np.zeros((n, MAX_SEQUENCE_LENGTH), dtype=np.float64)
        total = self.entry_count
        if total == 0:
            self._sequences = (tokens, gaps)
            return self._sequences

        rows = self.entry_rows
        seg_of_row = np.repeat(np.arange(n, dtype=np.int64), self.counts)
        pos = np.arange(total, dtype=np.int64) - self.indptr[seg_of_row]
        keep = pos < MAX_SEQUENCE_LENGTH

        token_vals = (
            self._bucket_of_string[cols.path[rows]] * OUTCOME_COUNT
            + (cols.status[rows] != 200)
        )
        tokens[seg_of_row[keep], pos[keep]] = token_vals[keep]

        times = cols.time[rows]
        raw_gap = np.empty(total, dtype=np.float64)
        raw_gap[0] = 0.0
        np.subtract(times[1:], times[:-1], out=raw_gap[1:])
        has_prev = pos > 0
        fill = keep & has_prev
        gaps[seg_of_row[fill], pos[fill]] = np.log1p(
            np.maximum(raw_gap[fill], 0.0)
        )
        self._sequences = (tokens, gaps)
        return self._sequences
