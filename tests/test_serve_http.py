"""Tests for the HTTP layer: routes, error mapping, /metrics shape.

Runs a real :class:`~repro.serve.server.DetectionServer` on an
ephemeral port inside a thread and drives it with the stdlib
:class:`~repro.serve.client.ServeClient` — full wire coverage without
subprocess overhead (the kill/restart test covers the subprocess
path).
"""

import asyncio
import threading

import pytest

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import HttpRequest, HttpResponse
from repro.serve.server import DetectionServer
from repro.serve.service import ingest_payload

from tests.serve_util import (
    FailingCommits, campaign_entries, make_entry, write_trace,
)


@pytest.fixture()
def served(tmp_path):
    """A running server + client; tears down cleanly."""
    server = DetectionServer(
        str(tmp_path / "serve.db"),
        port=0,
        quiet=True,
        checkpoint_interval=10_000,
    )
    started = threading.Event()

    def run():
        async def main():
            await server.start()
            started.set()
            await server._shutdown.wait()
            await server._close()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(15), "server never started"
    client = ServeClient(f"http://127.0.0.1:{server.port}")
    client.wait_ready()
    yield server, client
    try:
        client.shutdown()
    except Exception:
        server.request_shutdown()
    thread.join(15)
    assert not thread.is_alive()


class TestEndpoints:
    def test_healthz(self, served):
        _, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["events_ingested"] == 0

    def test_ingest_then_query_verdicts(self, served):
        _, client = served
        entries = campaign_entries()
        result = client.ingest(ingest_payload(entries), seq=0)
        assert result == {
            "applied": len(entries),
            "events_ingested": len(entries),
        }
        finish = client.finish()
        assert finish["campaigns_convicted"] >= 1
        assert len(finish["digest"]) == 64
        bots = client.verdicts(bot_only=True)
        assert {v["subject_id"] for v in bots} >= {
            f"fp:fp-rot-{i}" for i in range(4)
        }
        campaigns = client.campaigns()
        assert campaigns[0]["sessions"] >= 3
        entities = client.entities()
        assert len(entities) >= 4
        analysis = client.analysis()
        assert analysis["events_processed"] == len(entries)

    def test_replay_endpoint(self, served, tmp_path):
        _, client = served
        entries = campaign_entries()
        trace = write_trace(tmp_path / "t.rptr", entries)
        result = client.replay(trace)
        assert result["replayed"] == len(entries)
        status = client.status()
        assert status["events_ingested"] == len(entries)

    def test_replay_offset_limit(self, served, tmp_path):
        _, client = served
        entries = campaign_entries()
        trace = write_trace(tmp_path / "t.rptr", entries)
        assert client.replay(trace, limit=10)["replayed"] == 10
        rest = client.replay(trace, offset=10)
        assert rest["skipped"] == 10
        assert rest["events_ingested"] == len(entries)

    def test_metrics_well_formed(self, served):
        _, client = served
        client.ingest(ingest_payload([make_entry(1.0)]))
        text = client.metrics()
        lines = [line for line in text.splitlines() if line]
        assert lines, "empty exposition"
        for line in lines:
            name, _, value = line.rpartition(" ")
            assert name, f"malformed line: {line!r}"
            float(value)  # every sample value parses
        names = {line.rpartition(" ")[0] for line in lines}
        assert "repro_serve_events_ingested_total" in names
        assert "repro_serve_events_total" in names
        assert "repro_serve_http_requests_total" in names

    def test_snapshot_endpoint(self, served):
        server, client = served
        client.ingest(ingest_payload([make_entry(1.0)]))
        result = client.snapshot()
        assert result["snapshot_seq"] == 1
        assert result["snapshot_bytes"] > 0
        assert server.store.snapshot_seq() == 1


class TestErrorMapping:
    def test_unknown_route_404(self, served):
        _, client = served
        with pytest.raises(ServeClientError) as exc_info:
            client.get("/nope")
        assert exc_info.value.status == 404

    def test_wrong_method_405(self, served):
        _, client = served
        with pytest.raises(ServeClientError) as exc_info:
            client.get("/ingest")
        assert exc_info.value.status == 405

    def test_malformed_json_400(self, served):
        _, client = served
        with pytest.raises(ServeClientError) as exc_info:
            client.post("/ingest", "not an object")
        assert exc_info.value.status == 400

    def test_bad_event_400(self, served):
        _, client = served
        with pytest.raises(ServeClientError) as exc_info:
            client.ingest([{"nope": 1}])
        assert exc_info.value.status == 400

    @pytest.mark.parametrize(
        "name, value",
        [
            ("time", "5.0"),
            ("status", 200.7),
            ("ip_residential", "false"),
            ("fingerprint_id", None),
        ],
        ids=["time-not-number", "status-not-integer",
             "residential-not-bool", "string-not-string"],
    )
    def test_mistyped_field_400_nothing_applied(self, served, name, value):
        server, client = served
        events = ingest_payload([make_entry(1.0), make_entry(2.0)])
        events[1][name] = value
        with pytest.raises(ServeClientError) as exc_info:
            client.ingest(events)
        assert exc_info.value.status == 400
        assert server.service.events_ingested == 0

    def test_seq_conflict_409_carries_count(self, served):
        _, client = served
        events = ingest_payload([make_entry(1.0), make_entry(2.0)])
        client.ingest(events, seq=0)
        with pytest.raises(ServeClientError) as exc_info:
            client.ingest(events, seq=0)
        assert exc_info.value.status == 409
        assert exc_info.value.payload["events_ingested"] == 2

    def test_failed_store_write_503_carries_count(self, served):
        """A failed commit answers 503 with the durable count; the
        store rolled it back, so the same batch and seq go through
        once the store recovers."""
        server, client = served
        events = ingest_payload([make_entry(1.0), make_entry(2.0)])
        client.ingest(events[:1], seq=0)
        server.store._conn = FailingCommits(server.store._conn, failures=2)
        for send in (lambda: client.ingest(events[1:], seq=1),
                     client.snapshot):
            with pytest.raises(ServeClientError) as exc_info:
                send()
            assert exc_info.value.status == 503
            assert exc_info.value.payload["events_ingested"] == 1
        assert client.ingest(events[1:], seq=1)["events_ingested"] == 2
        assert client.snapshot()["snapshot_seq"] == 2

    def test_corrupt_trace_400_state_unharmed(self, served, tmp_path):
        server, client = served
        entries = campaign_entries()
        source = write_trace(tmp_path / "ok.rptr", entries)
        blob = open(source, "rb").read()
        bad = tmp_path / "bad.rptr"
        bad.write_bytes(blob[:-13])
        with pytest.raises(ServeClientError) as exc_info:
            client.replay(str(bad))
        assert exc_info.value.status == 400
        # Journal and pipeline stayed consistent; server still serves.
        status = client.status()
        assert status["journal_rows"] == status["events_ingested"]
        assert client.healthz()["status"] == "ok"

    def test_unsupported_trace_version_400(self, served, tmp_path):
        import struct

        from repro.trace import TRACE_MAGIC, TRACE_VERSION

        _, client = served
        trace = tmp_path / "v2.rptr"
        trace.write_bytes(
            TRACE_MAGIC + struct.pack("<H", TRACE_VERSION + 1)
            + struct.pack("<I", 2) + b"{}"
        )
        with pytest.raises(ServeClientError) as exc_info:
            client.replay(str(trace))
        assert exc_info.value.status == 400
        assert "unsupported trace version" in exc_info.value.payload["error"]

    def test_out_of_order_replay_400_then_ingest_goes_on(
        self, served, tmp_path
    ):
        _, client = served
        trace = write_trace(
            tmp_path / "t.rptr",
            [make_entry(t) for t in (1.0, 2.0, 5.0, 3.0, 6.0)],
        )
        with pytest.raises(ServeClientError) as exc_info:
            client.replay(trace)
        assert exc_info.value.status == 400
        status = client.status()
        assert status["events_ingested"] == status["journal_rows"] == 0
        events = ingest_payload([make_entry(1.0), make_entry(2.0)])
        assert client.ingest(events, seq=0)["events_ingested"] == 2

    def test_missing_trace_400(self, served):
        _, client = served
        with pytest.raises(ServeClientError) as exc_info:
            client.replay("/no/such/trace.rptr")
        assert exc_info.value.status == 400

    def test_analysis_before_finish_409(self, served):
        _, client = served
        with pytest.raises(ServeClientError) as exc_info:
            client.analysis()
        assert exc_info.value.status == 409

    def test_ingest_after_finish_409(self, served):
        _, client = served
        client.ingest(ingest_payload([make_entry(1.0)]))
        client.finish()
        with pytest.raises(ServeClientError) as exc_info:
            client.ingest(ingest_payload([make_entry(2.0)]))
        assert exc_info.value.status == 409
        assert exc_info.value.payload["finished"] is True


class TestHttpPrimitives:
    def test_request_json_helper(self):
        request = HttpRequest(
            method="POST", path="/x", body=b'{"a": 1}'
        )
        assert request.json() == {"a": 1}

    def test_response_encode_includes_length(self):
        response = HttpResponse.json({"ok": True})
        raw = response.encode()
        assert b"Content-Length: " in raw
        assert raw.endswith(b'{"ok": true}\n')

    def test_keep_alive_header_respected(self):
        request = HttpRequest(
            method="GET", path="/", headers={"connection": "close"}
        )
        assert request.keep_alive is False
        assert HttpRequest(method="GET", path="/").keep_alive is True
