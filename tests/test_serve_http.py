"""Tests for the HTTP layer: routes, error mapping, /metrics shape.

Runs a real :class:`~repro.serve.server.DetectionServer` on an
ephemeral port inside a thread and drives it with the stdlib
:class:`~repro.serve.client.ServeClient` — full wire coverage without
subprocess overhead (the kill/restart test covers the subprocess
path).
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.serve import server as server_module
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


def read_response(sock: socket.socket) -> bytes:
    """One whole response (head and ``Content-Length`` body) off a raw
    socket; whatever arrived before EOF if the peer closes first."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


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

    def test_unknown_field_400_nothing_applied(self, served):
        server, client = served
        events = ingest_payload([make_entry(1.0), make_entry(2.0)])
        events[1]["user_agnet"] = "UA-typo"
        with pytest.raises(ServeClientError) as exc_info:
            client.ingest(events)
        assert exc_info.value.status == 400
        assert "unknown fields" in exc_info.value.payload["error"]
        assert server.service.events_ingested == 0

    @pytest.mark.parametrize(
        "name, value",
        [
            ("status", 70_000),
            ("user_agent", "a" * 70_000),
            ("path", "/search\ud800"),
        ],
        ids=["status-past-u16", "string-too-long", "lone-surrogate"],
    )
    def test_unrecordable_field_400_nothing_journaled(
        self, served, name, value
    ):
        server, client = served
        events = ingest_payload([make_entry(1.0), make_entry(2.0)])
        events[1][name] = value
        with pytest.raises(ServeClientError) as exc_info:
            client.ingest(events)
        assert exc_info.value.status == 400
        assert exc_info.value.payload["error"].startswith("event 1: ")
        assert server.service.events_ingested == 0
        assert server.store.durable_seq() == 0

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

    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name in ("offset", "limit", "batch")
            for value in (None, [1], True, 2.9, "3")
            # ``"limit": null`` is valid: no limit.
            if (name, value) != ("limit", None)
        ],
    )
    def test_mistyped_replay_number_400_nothing_applied(
        self, served, tmp_path, name, value
    ):
        server, client = served
        trace = write_trace(tmp_path / "t.rptr", campaign_entries())
        with pytest.raises(ServeClientError) as exc_info:
            client.post("/replay", {"path": trace, name: value})
        assert exc_info.value.status == 400
        assert f'"{name}" must be an integer' in (
            exc_info.value.payload["error"]
        )
        assert server.service.events_ingested == 0

    @pytest.mark.parametrize("batch", [0, -1])
    def test_replay_batch_below_one_400(self, served, tmp_path, batch):
        server, client = served
        trace = write_trace(tmp_path / "t.rptr", campaign_entries())
        with pytest.raises(ServeClientError) as exc_info:
            client.post("/replay", {"path": trace, "batch": batch})
        assert exc_info.value.status == 400
        assert server.service.events_ingested == 0

    @pytest.mark.parametrize("limit", [-1, -5])
    def test_replay_negative_limit_400(self, served, tmp_path, limit):
        server, client = served
        trace = write_trace(tmp_path / "t.rptr", campaign_entries())
        with pytest.raises(ServeClientError) as exc_info:
            client.post("/replay", {"path": trace, "limit": limit})
        assert exc_info.value.status == 400
        assert f"limit must be >= 0: {limit}" in (
            exc_info.value.payload["error"]
        )
        assert server.service.events_ingested == 0

    @pytest.mark.parametrize(
        "path, name", [(None, "None"), (123, "123")],
        ids=["null", "number"],
    )
    def test_replay_path_not_a_string_400(
        self, served, tmp_path, monkeypatch, path, name
    ):
        """A trace named as the value would print is in the server's
        working directory, so only the type check keeps it out."""
        server, client = served
        monkeypatch.chdir(tmp_path)
        write_trace(tmp_path / name, campaign_entries())
        with pytest.raises(ServeClientError) as exc_info:
            client.post("/replay", {"path": path})
        assert exc_info.value.status == 400
        assert '"path" must be a string' in (
            exc_info.value.payload["error"]
        )
        assert server.service.events_ingested == 0

    @pytest.mark.parametrize(
        "seq", [True, 0.0, "0", [0]],
        ids=["bool", "float", "string", "list"],
    )
    def test_mistyped_ingest_seq_400_nothing_applied(self, served, seq):
        server, client = served
        events = ingest_payload([make_entry(1.0)])
        with pytest.raises(ServeClientError) as exc_info:
            client.post("/ingest", {"events": events, "seq": seq})
        assert exc_info.value.status == 400
        assert '"seq" must be an integer' in exc_info.value.payload["error"]
        assert server.service.events_ingested == 0

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


class TestRawWire:
    @pytest.mark.parametrize("raw", [
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000
        + b"\r\n\r\n",
    ], ids=["request-line", "header-line"])
    def test_over_long_line_400_and_close(self, served, raw):
        """A line past the reader's 64 KiB limit is answered, not
        dropped: 400 with ``Connection: close``, then EOF."""
        server, client = served
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(raw)
            reply = read_response(sock)
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b"\r\nConnection: close\r\n" in reply
            assert b"too long" in reply
            assert sock.recv(1) == b""
        assert client.healthz()["status"] == "ok"


def serve_on_fresh_loop(server):
    """Drive ``server.serve()`` with ``run_until_complete`` on a new
    event loop in a thread, then close the loop; ``result["pending"]``
    holds the tasks still on the loop when ``serve()`` returned.
    Returns ``(thread, result)`` once the server is bound."""
    result = {}
    bound = threading.Event()

    def run():
        loop = asyncio.new_event_loop()
        result["loop"] = loop
        task = loop.create_task(server.serve())
        loop.call_soon(bound.set)
        try:
            loop.run_until_complete(task)
            result["pending"] = asyncio.all_tasks(loop)
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert bound.wait(15), "server never started"
    deadline = time.monotonic() + 15
    while server.port == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    return thread, result


SHUTDOWN = b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n"


class TestShutdown:
    def test_shutdown_closes_open_connections(self, tmp_path):
        """``serve()`` returns with no handler task left on the loop,
        and a keep-alive client idle at shutdown reads EOF."""
        server = DetectionServer(
            str(tmp_path / "serve.db"), port=0, quiet=True
        )
        thread, result = serve_on_fresh_loop(server)
        address = ("127.0.0.1", server.port)
        try:
            with socket.create_connection(address, timeout=10) as idle, \
                    socket.create_connection(address, timeout=10) as last:
                idle.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert read_response(idle).startswith(b"HTTP/1.1 200 ")
                last.sendall(SHUTDOWN)
                assert read_response(last).startswith(b"HTTP/1.1 200 ")
                assert idle.recv(1) == b""
                assert last.recv(1) == b""
            thread.join(15)
        finally:
            if thread.is_alive():  # a failed check: stop the server
                result["loop"].call_soon_threadsafe(server.request_shutdown)
                thread.join(15)
        assert not thread.is_alive()
        assert not result["pending"]

    def test_shutdown_aborts_a_peer_that_stopped_reading(
        self, tmp_path, monkeypatch
    ):
        """A peer that pipelines requests and never reads the replies
        leaves its handler blocked on a full send buffer; shutdown
        aborts that connection after the grace period instead of
        waiting on it for ever."""
        monkeypatch.setattr(
            server_module, "CLOSE_GRACE_S", 0.2, raising=False
        )
        server = DetectionServer(
            str(tmp_path / "serve.db"), port=0, quiet=True
        )
        thread, result = serve_on_fresh_loop(server)
        address = ("127.0.0.1", server.port)
        stalled = socket.socket()
        try:
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.connect(address)
            stalled.setblocking(False)
            batch = b"GET /healthz HTTP/1.1\r\n\r\n" * 1000
            pending = memoryview(batch)
            deadline = time.monotonic() + 30
            progress = time.monotonic()
            # No progress for a second: the server stopped reading,
            # because its handler is blocked writing replies.
            while time.monotonic() - progress < 1.0:
                assert time.monotonic() < deadline, "never stalled"
                try:
                    sent = stalled.send(pending)
                except BlockingIOError:
                    time.sleep(0.01)
                    continue
                progress = time.monotonic()
                pending = pending[sent:] or memoryview(batch)
            with socket.create_connection(address, timeout=10) as last:
                last.sendall(SHUTDOWN)
                assert read_response(last).startswith(b"HTTP/1.1 200 ")
            thread.join(15)
        finally:
            if thread.is_alive():  # a failed check: stop the server
                result["loop"].call_soon_threadsafe(server.request_shutdown)
                thread.join(15)
            stalled.close()
        assert not thread.is_alive()
        assert not result["pending"]


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
