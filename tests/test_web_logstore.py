"""Columnar web-log store: golden equality against the appended entries.

The :class:`~repro.web.logstore.ColumnarLogStore` must be invisible to
every consumer: the ``LogEntry`` views it materialises have to compare
equal — field for field, including the interned strings and the
``ClientRef`` — to the raw fields each request was appended with.  The
golden tests below run each case study with a log that also records a
``LogEntry`` built from every ``append_fields`` call (the request hot
path, left unobserved so the store's fast path runs), and require
entry-for-entry equality of the whole log read back at the end (and
of the sessions built from it by the per-entry reference and by the
columnar index).

The unit tests pin the block machinery's edges: empty store, a block
filled to exactly its capacity, appends landing after a view was
taken, and the half-open ``entries_between`` window.
"""

import pytest

from repro.common import ClientRef
from repro.core.detection.session_index import SessionIndex
from repro.sim.clock import DAY
from repro.web.logs import LogEntry, WebLog
from repro.web.logstore import ColumnarLogStore
from tests.session_oracle import sessionize


def client(tag: str = "a") -> ClientRef:
    return ClientRef(
        ip_address=f"198.51.100.{tag}",
        ip_country="DE",
        ip_residential=True,
        fingerprint_id=f"fp-{tag}",
        user_agent="Mozilla/5.0",
        profile_id=f"visitor-{tag}",
        actor="legit",
        actor_class="legit",
    )


def entry(time: float, who: ClientRef, path: str = "/search") -> LogEntry:
    return LogEntry(
        time=time, method="GET", path=path, status=200, client=who
    )


class TestEmptyStore:
    def test_empty_everything(self):
        store = ColumnarLogStore()
        assert len(store) == 0
        assert store.block_count == 0
        assert list(store.iter_entries()) == []
        assert store.times().shape == (0,)
        assert store.entries_between(0.0, 1e9) == []
        assert store.nbytes() == 0

    def test_last_time_and_get_raise(self):
        store = ColumnarLogStore()
        with pytest.raises(IndexError):
            store.last_time()
        with pytest.raises(IndexError):
            store.get(0)


class TestBlockBoundaries:
    def test_exactly_one_block(self):
        store = ColumnarLogStore(block_rows=4)
        who = client()
        for i in range(4):
            store.append_entry(entry(float(i), who))
        assert store.block_count == 1
        assert len(store) == 4
        assert [e.time for e in store.iter_entries()] == [0.0, 1.0, 2.0, 3.0]

    def test_append_past_capacity_opens_new_block(self):
        store = ColumnarLogStore(block_rows=4)
        who = client()
        for i in range(5):
            store.append_entry(entry(float(i), who))
        assert store.block_count == 2
        assert store.get(4).time == 4.0
        assert [e.time for e in store.iter_entries()] == [
            0.0, 1.0, 2.0, 3.0, 4.0,
        ]

    def test_rows_straddle_blocks_in_order(self):
        store = ColumnarLogStore(block_rows=3)
        who = client()
        for i in range(10):
            store.append_entry(entry(float(i), who, path=f"/p{i % 4}"))
        assert store.block_count == 4
        assert [e.path for e in store.iter_entries()] == [
            f"/p{i % 4}" for i in range(10)
        ]

    def test_nbytes_tracks_blocks_not_rows(self):
        store = ColumnarLogStore(block_rows=4)
        who = client()
        store.append_entry(entry(0.0, who))
        one_block = store.nbytes()
        assert one_block > 0
        for i in range(1, 4):
            store.append_entry(entry(float(i), who))
        # Filling the rest of the block allocates nothing new.
        assert store.nbytes() == one_block
        store.append_entry(entry(4.0, who))
        assert store.nbytes() == 2 * one_block

    def test_get_bounds(self):
        store = ColumnarLogStore(block_rows=2)
        store.append_entry(entry(0.0, client()))
        with pytest.raises(IndexError):
            store.get(1)
        with pytest.raises(IndexError):
            store.get(-1)

    def test_block_rows_validated(self):
        with pytest.raises(ValueError):
            ColumnarLogStore(block_rows=0)


class TestViewsAndInterning:
    def test_view_taken_before_append_is_pinned(self):
        store = ColumnarLogStore(block_rows=2)
        who = client()
        store.append_entry(entry(0.0, who))
        store.append_entry(entry(1.0, who))
        view = store.iter_entries()
        store.append_entry(entry(2.0, who))
        assert [e.time for e in view] == [0.0, 1.0]
        assert [e.time for e in store.iter_entries()] == [0.0, 1.0, 2.0]

    def test_materialised_entries_are_bit_faithful(self):
        store = ColumnarLogStore()
        who = client()
        original = LogEntry(
            time=3.5, method="POST", path="/hold", status=201,
            client=who, blocked_by="", outcome="hold-created",
        )
        store.append_entry(original)
        back = store.get(0)
        assert back == original
        # Interning returns the *same* objects, not equal copies.
        assert back.client is who
        assert back.path is original.path

    def test_repeated_fields_intern_once(self):
        store = ColumnarLogStore()
        who = client()
        for i in range(100):
            store.append_entry(entry(float(i), who))
        assert store.interned_clients == 1
        # "GET", "/search", "" (blocked_by and outcome share the table).
        assert store.interned_strings == 3

    def test_entries_between_is_half_open(self):
        store = ColumnarLogStore(block_rows=2)
        who = client()
        for time in (0.0, 1.0, 1.0, 2.0, 3.0):
            store.append_entry(entry(time, who))
        window = store.entries_between(1.0, 3.0)
        assert [e.time for e in window] == [1.0, 1.0, 2.0]


class TestWebLogBackends:
    def test_backends_record_identical_entries(self):
        """``append`` and ``append_fields`` both read back as the
        ``LogEntry`` objects they describe."""
        who_a, who_b = client("a"), client("b")
        first = entry(0.0, who_a)
        second = LogEntry(
            time=1.0, method="POST", path="/hold", status=201,
            client=who_b, outcome="hold-created",
        )
        log = WebLog()
        log.append(first)
        log.append_fields(
            time=1.0, method="POST", path="/hold", status=201,
            client=who_b, outcome="hold-created",
        )
        assert log.entries() == [first, second]
        assert list(log.iter_entries()) == [first, second]
        assert [log.entry_at(0), log.entry_at(1)] == [first, second]
        assert len(log) == 2
        assert log.entries_between(0.5, 1.5) == [second]

    def test_status_above_int16_round_trips(self):
        """``/ingest`` and RPTR traces admit any status up to 65535;
        the status column holds all of them."""
        who = client()
        log = WebLog()
        log.append_fields(0.0, "GET", "/s", 40000, who)
        log.append(
            LogEntry(time=1.0, method="GET", path="/s", status=65535,
                     client=who)
        )
        assert [e.status for e in log.iter_entries()] == [40000, 65535]
        assert log.columns().status.tolist() == [40000, 65535]

    def test_observer_sees_materialised_entry_from_append_fields(self):
        log = WebLog()
        seen = []
        log.subscribe(seen.append)
        who = client()
        log.append_fields(
            time=2.0, method="GET", path="/search", status=200, client=who
        )
        assert seen == [entry(2.0, who)]
        assert seen[0].client is who

    def test_out_of_order_append_raises_on_columnar(self):
        log = WebLog()
        log.append(entry(5.0, client()))
        with pytest.raises(ValueError):
            log.append(entry(4.0, client()))
        with pytest.raises(ValueError):
            log.append_fields(
                time=4.0, method="GET", path="/", status=200, client=client()
            )

    def test_reentrant_append_raises_on_columnar(self):
        log = WebLog()

        def evil(seen_entry):
            log.append_fields(
                time=seen_entry.time + 1.0, method="GET", path="/",
                status=200, client=client(),
            )

        log.subscribe(evil)
        with pytest.raises(RuntimeError):
            log.append(entry(0.0, client()))


# -- golden equality on the case studies -------------------------------------


def run_captured(monkeypatch, builder):
    """Run ``builder`` with the application's log also recording a
    ``LogEntry`` per appended request; returns ``(world, captured)``."""
    import repro.web.application as application

    captured = []

    class CapturingLog(WebLog):
        def append_fields(self, time, method, path, status, client,
                          blocked_by="", outcome=""):
            captured.append(LogEntry(
                time=time, method=method, path=path, status=status,
                client=client, blocked_by=blocked_by, outcome=outcome,
            ))
            super().append_fields(
                time, method, path, status, client, blocked_by, outcome
            )

    monkeypatch.setattr(application, "WebLog", CapturingLog)
    return builder(), captured


def assert_logs_match(world, captured):
    log = world.app.log
    entries = log.entries()
    assert len(entries) == len(captured) == len(log)
    assert entries == captured
    assert all(
        stored.client is seen.client
        for stored, seen in zip(entries, captured)
    )
    sessions = sessionize(log)
    assert sum(s.request_count for s in sessions) == len(captured)
    assert SessionIndex.from_log(log).sessions() == sessions


class TestCaseGoldenEquality:
    def _case_a(self):
        from repro.scenarios.case_a import CaseAConfig, run_case_a

        return run_case_a(
            CaseAConfig(
                seed=3,
                visitor_rate_per_hour=5.0,
                attack_start=1 * DAY,
                cap_at=2 * DAY,
                departure_time=4 * DAY,
                target_capacity=80,
                attacker_target_seats=40,
            )
        ).world

    def _case_b(self):
        from repro.scenarios.case_b import CaseBConfig, run_case_b

        return run_case_b(CaseBConfig(seed=5, duration=3 * DAY)).world

    def _case_c(self):
        from repro.scenarios.case_c import CaseCConfig, run_case_c

        return run_case_c(
            CaseCConfig(
                seed=2,
                baseline_weekly_total=4_800,
                attack_start=1 * DAY,
                duration=3 * DAY,
            )
        ).world

    def test_case_a_logs_identical(self, monkeypatch):
        assert_logs_match(*run_captured(monkeypatch, self._case_a))

    def test_case_b_logs_identical(self, monkeypatch):
        assert_logs_match(*run_captured(monkeypatch, self._case_b))

    def test_case_c_logs_identical(self, monkeypatch):
        assert_logs_match(*run_captured(monkeypatch, self._case_c))
