"""Tests for repro.serve.codec and repro.serve.state."""

import pytest

from repro.serve.codec import (
    CodecError,
    encode_record,
    entry_from_dict,
    entry_to_dict,
    parse_events,
)
from repro.serve.state import SCHEMA_VERSION, StateStore, StateStoreError

from tests.serve_util import campaign_entries, make_entry


class TestCodec:
    def test_dict_roundtrip_is_identity(self):
        for entry in campaign_entries(rotations=1, legit_visitors=1):
            assert entry_from_dict(entry_to_dict(entry)) == entry

    def test_missing_required_field_rejected(self):
        data = entry_to_dict(make_entry(1.0))
        del data["fingerprint_id"]
        with pytest.raises(CodecError, match="fingerprint_id"):
            entry_from_dict(data)

    def test_unknown_field_rejected(self):
        data = entry_to_dict(make_entry(1.0))
        data["user_agnet"] = "UA-typo"
        with pytest.raises(
            CodecError, match=r"unknown fields: \['user_agnet'\]"
        ):
            entry_from_dict(data)

    def test_non_object_event_rejected(self):
        with pytest.raises(CodecError, match="must be an object"):
            entry_from_dict("nope")

    def test_optional_fields_default(self):
        entry = entry_from_dict(
            {
                "time": 5.0,
                "method": "GET",
                "path": "/search",
                "status": 200,
                "ip_address": "1.2.3.4",
                "fingerprint_id": "fp",
            }
        )
        assert entry.client.actor_class == "legit"
        assert entry.blocked_by == ""

    @pytest.mark.parametrize("status", [-1, 65_536])
    def test_status_outside_u16_rejected(self, status):
        data = entry_to_dict(make_entry(1.0, status=status))
        with pytest.raises(CodecError, match="status"):
            parse_events([data], None, 1)

    def test_string_over_65535_utf8_bytes_rejected(self):
        data = entry_to_dict(make_entry(1.0))
        data["user_agent"] = "é" * 32_768  # 65,536 UTF-8 bytes
        with pytest.raises(CodecError, match="65536 UTF-8 bytes"):
            parse_events([data], None, 1)
        data["user_agent"] = "é" * 32_767 + "a"  # 65,535: fits
        (entry,), _ = parse_events([data], None, 1)
        assert entry.client.user_agent == data["user_agent"]

    def test_unencodable_string_rejected(self):
        data = entry_to_dict(make_entry(1.0))
        data["path"] = "/search\ud800"  # a lone surrogate, as JSON can carry
        with pytest.raises(CodecError, match="surrogate"):
            parse_events([data], None, 1)

    @pytest.mark.parametrize("time_", ["5.0", True, None, [1.0]])
    def test_time_not_a_json_number_rejected(self, time_):
        data = entry_to_dict(make_entry(1.0))
        data["time"] = time_
        with pytest.raises(CodecError, match="'time' must be a number"):
            entry_from_dict(data)

    def test_time_integer_past_double_range_rejected(self):
        data = entry_to_dict(make_entry(1.0))
        data["time"] = 10 ** 400
        with pytest.raises(CodecError, match="too large"):
            entry_from_dict(data)

    @pytest.mark.parametrize("status", [200.7, 200.0, True, "200", None])
    def test_status_not_a_json_integer_rejected(self, status):
        data = entry_to_dict(make_entry(1.0))
        data["status"] = status
        with pytest.raises(CodecError, match="'status' must be an integer"):
            entry_from_dict(data)

    @pytest.mark.parametrize("residential", ["false", 0, 1, None])
    def test_ip_residential_not_a_bool_rejected(self, residential):
        data = entry_to_dict(make_entry(1.0))
        data["ip_residential"] = residential
        with pytest.raises(
            CodecError, match="'ip_residential' must be a bool"
        ):
            entry_from_dict(data)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("fingerprint_id", None),
            ("path", 5),
            ("user_agent", ["UA"]),
            ("actor_class", {"class": "legit"}),
        ],
    )
    def test_string_field_not_a_string_rejected(self, name, value):
        data = entry_to_dict(make_entry(1.0))
        data[name] = value
        with pytest.raises(CodecError, match=f"'{name}' must be a string"):
            entry_from_dict(data)

    @pytest.mark.parametrize("time_", [float("inf"), float("nan")])
    def test_parse_events_rejects_non_finite_time(self, time_):
        events = [entry_to_dict(make_entry(time_))]
        with pytest.raises(CodecError, match="has time"):
            parse_events(events, None, 1)

    def test_parse_events_rejects_non_list(self):
        with pytest.raises(CodecError, match="list"):
            parse_events({"time": 1.0}, None, 1)

    def test_parse_events_rejects_out_of_order_within_batch(self):
        events = [
            entry_to_dict(make_entry(2.0)),
            entry_to_dict(make_entry(1.0)),
        ]
        with pytest.raises(CodecError, match="time-ordered"):
            parse_events(events, None, 1)

    def test_parse_events_rejects_before_last_time(self):
        events = [entry_to_dict(make_entry(5.0))]
        with pytest.raises(CodecError, match="time-ordered"):
            parse_events(events, 10.0, 1)
        entries, _ = parse_events(events, 5.0, 1)
        assert len(entries) == 1  # equal is fine


class TestStateStore:
    def test_journal_roundtrip(self, tmp_path):
        entries = tuple(campaign_entries(rotations=1, legit_visitors=0))
        with StateStore(str(tmp_path / "s.db")) as store:
            store.append_events(1, entries, encode_record(entries, 1))
            tail = store.journal_tail(0)
            assert [seq for seq, _ in tail] == list(
                range(1, len(entries) + 1)
            )
            assert [entry for _, entry in tail] == list(entries)
            assert store.durable_seq() == len(entries)

    def test_journal_tail_respects_after_seq(self, tmp_path):
        entries = tuple(campaign_entries(rotations=1, legit_visitors=0))
        with StateStore(str(tmp_path / "s.db")) as store:
            store.append_events(1, entries, encode_record(entries, 1))
            tail = store.journal_tail(len(entries) - 2)
            assert [seq for seq, _ in tail] == [
                len(entries) - 1, len(entries)
            ]

    def test_snapshot_roundtrip_and_journal_truncation(self, tmp_path):
        entries = tuple(campaign_entries(rotations=1, legit_visitors=0))
        with StateStore(str(tmp_path / "s.db")) as store:
            store.append_events(1, entries, encode_record(entries, 1))
            payload = {"state": [1.5, "two", (3,)]}
            store.write_snapshot(4, payload, created_at=123.0)
            assert store.snapshot_seq() == 4
            seq, restored = store.load_snapshot()
            assert seq == 4
            assert restored == payload
            # Journal prefix covered by the snapshot is gone.
            assert [s for s, _ in store.journal_tail(0)] == list(
                range(5, len(entries) + 1)
            )
            # durable_seq survives the truncation.
            assert store.durable_seq() == len(entries)

    def test_only_latest_snapshot_kept(self, tmp_path):
        with StateStore(str(tmp_path / "s.db")) as store:
            store.write_snapshot(1, "one", created_at=1.0)
            store.write_snapshot(2, "two", created_at=2.0)
            assert store.load_snapshot() == (2, "two")

    def test_durable_seq_falls_back_to_snapshot(self, tmp_path):
        with StateStore(str(tmp_path / "s.db")) as store:
            assert store.durable_seq() == 0
            store.write_snapshot(7, "core", created_at=1.0)
            assert store.durable_seq() == 7  # journal empty

    def test_state_survives_reopen(self, tmp_path):
        path = str(tmp_path / "s.db")
        entries = tuple(campaign_entries(rotations=1, legit_visitors=0))
        with StateStore(path) as store:
            store.append_events(1, entries, encode_record(entries, 1))
            store.write_snapshot(2, {"k": 1}, created_at=0.0)
        with StateStore(path) as store:
            assert store.load_snapshot() == (2, {"k": 1})
            assert store.durable_seq() == len(entries)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "s.db")
        with StateStore(path) as store:
            store.set_meta("schema_version", str(SCHEMA_VERSION + 1))
            store.commit()
        with pytest.raises(StateStoreError, match="schema version"):
            StateStore(path)

    def test_v3_database_rejected(self, tmp_path):
        """Version 3 kept one ``campaigns`` row per campaign id; its
        databases are refused, not read as per-conviction rows."""
        path = str(tmp_path / "s.db")
        with StateStore(path) as store:
            store.set_meta("schema_version", "3")
            store.commit()
        with pytest.raises(StateStoreError, match="schema version"):
            StateStore(path)

    def test_derived_tables_roundtrip(self, tmp_path):
        derived = {
            "verdicts": [
                {
                    "subject_id": "fp:a",
                    "detector": "fusion",
                    "score": 0.9,
                    "is_bot": True,
                    "reasons": ["velocity"],
                }
            ],
            "campaigns": [
                {
                    "campaign_id": "C1",
                    "convicted_at": 1.5,
                    "risk": 0.8,
                    "first_seen": 1.0,
                    "last_seen": 2.0,
                    "sessions": 4,
                    "fingerprints": ["a", "b"],
                }
            ],
            "entities": [
                {
                    "fingerprint_id": "a",
                    "convicted_at": 1.5,
                    "detector": "fusion",
                    "score": 1.0,
                }
            ],
        }
        with StateStore(str(tmp_path / "s.db")) as store:
            store.write_snapshot(
                1, "core", created_at=0.0, derived=derived
            )
            out = store.read_derived()
        assert out["verdicts"][0]["subject_id"] == "fp:a"
        assert out["verdicts"][0]["is_bot"] is True
        assert out["campaigns"][0]["fingerprints"] == ["a", "b"]
        assert out["campaigns"][0]["convicted_at"] == 1.5
        assert out["entities"][0]["fingerprint_id"] == "a"
