"""Columnar session index: vectorized sessionization + features.

The analysis-side counterpart of :mod:`repro.web.logstore`.  PR 6 made
the *ingest* side columnar; this module makes the *read* side match:
:class:`SessionIndex` consumes a whole log as flat NumPy columns
(:meth:`repro.web.logs.WebLog.columns`) and computes, without ever
materialising a ``LogEntry`` or ``Session``,

* the exact session partition :func:`repro.web.logs.sessionize`
  produces — same session ids, same member entries, same output
  order — via a stable sort on the interned ``(ip, fingerprint)``
  key instead of a per-entry Python loop;
* the full 16-column :data:`~repro.core.detection.features.
  FEATURE_NAMES` matrix via group-by aggregations
  (``np.bincount`` over a per-row segment id);
* the per-endpoint count table and the token/gap sequence encoding
  the :mod:`repro.ml` arm trains on.

Everything is **bit-identical** to the object path, which is what lets
the threshold/logistic/kmeans detectors and the ML dataset builder
switch over without moving a single verdict.  The one numerical
subtlety: every float segment reduction uses ``np.bincount``, whose
weight accumulation is sequential in array order — the same
left-to-right order ``sum()`` uses in
:func:`~repro.core.detection.features.extract_features` —
where ``np.add.reduceat``/``np.sum`` would introduce pairwise-
summation differences at the last ulp.

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

from typing import Dict, List, Optional, Tuple

import numpy as np

from ...web.logs import DEFAULT_IDLE_GAP, Session, WebLog
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


class SessionIndex:
    """Sessionized columnar view of one :class:`~repro.web.logs.WebLog`.

    Built once per analysis pass (:meth:`from_log`); detectors consume
    ``session_ids`` + ``matrix`` directly, the ML arm adds
    :meth:`sequences`, and anything that still needs ``Session``
    objects calls :meth:`sessions` (identical to ``sessionize(log)``).
    """

    def __init__(
        self,
        log: WebLog,
        idle_gap: float,
        session_ids: List[str],
        matrix: np.ndarray,
        counts: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        ips: List[str],
        fingerprints: List[str],
        actor_classes: List[str],
        path_counts: np.ndarray,
        entry_rows: np.ndarray,
        indptr: np.ndarray,
        columns,
    ) -> None:
        self._log = log
        self.idle_gap = idle_gap
        #: Session ids in ``sessionize()`` output order.
        self.session_ids = session_ids
        #: ``(n, len(FEATURE_NAMES))`` float64, rows aligned with
        #: ``session_ids`` — bit-identical to ``extract_features`` over
        #: ``sessionize(log)``.
        self.matrix = matrix
        self.counts = counts            # (n,) int64 request counts
        self.starts = starts            # (n,) float64
        self.ends = ends                # (n,) float64
        self.ips = ips
        self.fingerprints = fingerprints
        #: Ground-truth majority actor class per session (evaluation
        #: only, same tie-break as ``Session.actor_class``).
        self.actor_classes = actor_classes
        #: ``(n, 8)`` int64 — per-endpoint request counts in
        #: :data:`ENDPOINT_ORDER` + other; feeds the feature columns
        #: and the graph detector's behavioural priors.
        self.path_counts = path_counts
        #: Original log row index of every entry, session-major in
        #: output order; ``indptr`` bounds session ``i``'s entries.
        self.entry_rows = entry_rows
        self.indptr = indptr
        self._columns = columns
        self._sequences: Optional[Tuple[np.ndarray, np.ndarray]] = None

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
    def _build(cls, log: WebLog, idle_gap: float) -> "SessionIndex":
        cols = log.columns()
        n_rows = len(cols)
        if n_rows == 0:
            return cls(
                log=log, idle_gap=idle_gap, session_ids=[],
                matrix=np.zeros((0, len(FEATURE_NAMES))),
                counts=np.zeros(0, dtype=np.int64),
                starts=np.zeros(0), ends=np.zeros(0),
                ips=[], fingerprints=[], actor_classes=[],
                path_counts=np.zeros((0, _ENDPOINT_COUNT), dtype=np.int64),
                entry_rows=np.zeros(0, dtype=np.int64),
                indptr=np.zeros(1, dtype=np.int64),
                columns=cols,
            )

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
        new_key[0] = True
        np.not_equal(k[1:], k[:-1], out=new_key[1:])
        gap = np.empty(n_rows, dtype=np.float64)
        gap[0] = 0.0
        np.subtract(t[1:], t[:-1], out=gap[1:])
        # A row opens a session when its key changes or the idle gap
        # is strictly exceeded (cross-key gap values are masked by
        # new_key being True there already).
        is_open = new_key | (gap > idle_gap)
        seg_id = np.cumsum(is_open) - 1
        nseg = int(seg_id[-1]) + 1
        open_pos = np.flatnonzero(is_open)
        kg_indptr = np.empty(nseg + 1, dtype=np.int64)
        kg_indptr[:-1] = open_pos
        kg_indptr[-1] = n_rows
        seg_counts = np.diff(kg_indptr)
        open_orig = order[open_pos]

        # Session numbering: sessionize's counter increments at each
        # session open during the original scan, so the number is the
        # rank of the opening entry's original row.
        number = np.empty(nseg, dtype=np.int64)
        number[np.argsort(open_orig, kind="stable")] = np.arange(
            1, nseg + 1
        )

        seg_key = k[open_pos]
        seg_starts = t[open_pos]
        seg_ends = t[kg_indptr[1:] - 1]

        # Output order = stable sort by start over sessionize's list:
        # closed sessions ranked by the original row of the successor
        # entry that closed them, then end-open sessions ranked by
        # their key's first appearance (dict insertion order), offset
        # past every close rank.
        first_seg = new_key[open_pos]
        key_first_row = np.empty(len(pairs), dtype=np.int64)
        key_first_row[seg_key[first_seg]] = open_orig[first_seg]
        next_same = np.zeros(nseg, dtype=bool)
        next_same[:-1] = seg_key[1:] == seg_key[:-1]
        successor_row = np.empty(nseg, dtype=np.int64)
        successor_row[:-1] = open_orig[1:]
        successor_row[-1] = 0
        presort = np.where(
            next_same, successor_row, n_rows + key_first_row[seg_key]
        )
        seg_order = np.lexsort((presort, seg_starts))

        # -- feature aggregations (kg segment space) ----------------------
        status = cols.status[order]
        method = cols.method[order]
        path = cols.path[order]

        counts = seg_counts
        duration_min = (seg_ends - seg_starts) / 60.0
        rate = counts / np.maximum(duration_min, 1.0)

        get_id = cols.string_id("GET")
        post_id = cols.string_id("POST")
        gets = np.bincount(seg_id[method == get_id], minlength=nseg)
        posts = np.bincount(seg_id[method == post_id], minlength=nseg)

        n_strings = len(cols.strings)
        unique_paths = np.bincount(
            np.unique(seg_id * np.int64(n_strings) + path) // n_strings,
            minlength=nseg,
        )

        bucket_of_string = np.full(
            n_strings, OTHER_ENDPOINT, dtype=np.int64
        )
        for bucket, endpoint in enumerate(ENDPOINT_ORDER):
            sid = cols.string_id(endpoint)
            if sid >= 0:
                bucket_of_string[sid] = bucket
        bucket = bucket_of_string[path]
        path_counts = np.bincount(
            seg_id * _ENDPOINT_COUNT + bucket,
            minlength=nseg * _ENDPOINT_COUNT,
        ).reshape(nseg, _ENDPOINT_COUNT)

        errors = np.bincount(seg_id[status != 200], minlength=nseg)

        # Gap statistics: bincount's sequential weight accumulation
        # reproduces the object path's left-to-right sums exactly.
        has_prev = ~is_open
        gap_seg = seg_id[has_prev]
        gap_sum = np.bincount(
            gap_seg, weights=gap[has_prev], minlength=nseg
        )
        gap_count = counts - 1
        mean_gap = np.zeros(nseg)
        np.divide(
            gap_sum, gap_count, out=mean_gap, where=gap_count > 0
        )
        deviation = gap - mean_gap[seg_id]
        square = deviation * deviation
        variance = np.zeros(nseg)
        np.divide(
            np.bincount(
                gap_seg, weights=square[has_prev], minlength=nseg
            ),
            gap_count,
            out=variance,
            where=gap_count > 0,
        )
        cv = np.zeros(nseg)
        np.divide(
            np.sqrt(variance), mean_gap, out=cv, where=mean_gap > 0
        )

        matrix = np.empty((nseg, len(FEATURE_NAMES)))
        matrix[:, 0] = counts
        matrix[:, 1] = duration_min
        matrix[:, 2] = rate
        matrix[:, 3] = gets / counts
        matrix[:, 4] = posts / counts
        matrix[:, 5] = unique_paths
        matrix[:, 6] = path_counts[:, 0]    # search
        matrix[:, 7] = path_counts[:, 1]    # details
        matrix[:, 8] = path_counts[:, 2]    # hold
        matrix[:, 9] = path_counts[:, 3]    # pay
        matrix[:, 10] = path_counts[:, 4] + path_counts[:, 5]  # sms
        matrix[:, 11] = path_counts[:, 2] - path_counts[:, 3]
        matrix[:, 12] = mean_gap
        matrix[:, 13] = cv
        matrix[:, 14] = errors / counts
        matrix[:, 15] = path_counts[:, 6]   # trap

        # -- ground-truth majority class (first-appearance tie-break) ------
        class_ids: Dict[str, int] = {}
        classes: List[str] = []
        class_of_client = np.empty(len(cols.clients), dtype=np.int64)
        for cid, ref in enumerate(cols.clients):
            name = ref.actor_class
            pid = class_ids.get(name)
            if pid is None:
                pid = class_ids[name] = len(classes)
                classes.append(name)
            class_of_client[cid] = pid
        row_class = class_of_client[cols.client[order]]
        n_classes = len(classes)
        combo = seg_id * n_classes + row_class
        class_counts = np.bincount(
            combo, minlength=nseg * n_classes
        ).astype(np.int64)
        first_pos = np.full(nseg * n_classes, n_rows, dtype=np.int64)
        np.minimum.at(first_pos, combo, np.arange(n_rows))
        # count dominates; among equal counts the earlier first
        # appearance wins — Session.actor_class's max() semantics.
        rank = class_counts * np.int64(n_rows + 1) - first_pos
        winner = rank.reshape(nseg, n_classes).argmax(axis=1)

        # -- reorder everything into sessionize output order ---------------
        out_counts = counts[seg_order]
        out_indptr = np.zeros(nseg + 1, dtype=np.int64)
        np.cumsum(out_counts, out=out_indptr[1:])
        # Gather each output session's rows from its kg-contiguous run.
        offsets = np.repeat(
            kg_indptr[:-1][seg_order] - out_indptr[:-1], out_counts
        )
        entry_rows = order[offsets + np.arange(n_rows)]

        session_ids = [f"S{number[j]:07d}" for j in seg_order]
        ips = [pairs[seg_key[j]][0] for j in seg_order]
        fingerprints = [pairs[seg_key[j]][1] for j in seg_order]
        actor_classes = [classes[winner[j]] for j in seg_order]

        return cls(
            log=log,
            idle_gap=idle_gap,
            session_ids=session_ids,
            matrix=matrix[seg_order],
            counts=out_counts,
            starts=seg_starts[seg_order],
            ends=seg_ends[seg_order],
            ips=ips,
            fingerprints=fingerprints,
            actor_classes=actor_classes,
            path_counts=path_counts[seg_order],
            entry_rows=entry_rows,
            indptr=out_indptr,
            columns=cols,
        )

    # -- materialisation ------------------------------------------------------

    def sessions(self) -> List[Session]:
        """``Session`` objects equal to ``sessionize(log, idle_gap)``.

        Only for consumers that genuinely need per-entry objects
        (fingerprint rules, the graph builder); the matrix consumers
        never pay this cost.
        """
        log = self._log
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
                        log.entry_at(int(row))
                        for row in rows[indptr[i]: indptr[i + 1]]
                    ],
                )
            )
        return out

    def sequences(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(tokens, gaps)`` ML sequence encodings for every session.

        Identical to :func:`repro.ml.data.encode_sequence` applied per
        session: int16 tokens padded with the vocabulary's PAD id,
        float64 ``log1p`` gaps.  Computed lazily and cached.
        """
        if self._sequences is not None:
            return self._sequences
        # Local import: repro.ml.data imports this module's consumers.
        from ...ml.data import (
            MAX_SEQUENCE_LENGTH,
            PAD_TOKEN,
            _STATUS_COUNT,
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

        n_strings = len(cols.strings)
        bucket_of_string = np.full(
            n_strings, OTHER_ENDPOINT, dtype=np.int64
        )
        for bucket, endpoint in enumerate(ENDPOINT_ORDER):
            sid = cols.string_id(endpoint)
            if sid >= 0:
                bucket_of_string[sid] = bucket

        rows = self.entry_rows
        seg_of_row = np.repeat(np.arange(n, dtype=np.int64), self.counts)
        pos = np.arange(total, dtype=np.int64) - self.indptr[seg_of_row]
        keep = pos < MAX_SEQUENCE_LENGTH

        token_vals = (
            bucket_of_string[cols.path[rows]] * _STATUS_COUNT
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
