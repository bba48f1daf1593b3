"""Minimal asyncio HTTP/1.1 plumbing — just enough for the service.

No third-party web framework: request parsing, a response type, and
stream read/write helpers over ``asyncio`` streams. Supports the
subset the service speaks — ``GET``/``POST``, ``Content-Length``
bodies, query strings, ``keep-alive``/``close`` — and nothing else
(no chunked transfer, no pipelining guarantees beyond sequential
request handling per connection).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import parse_qs, urlsplit

#: Don't buffer arbitrarily large bodies (ingest batches are bounded
#: by the client; 32 MiB is orders of magnitude above any sane batch).
MAX_BODY_BYTES = 32 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(Exception):
    """The bytes on the wire are not a request we can serve."""


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """Parse the body as JSON; :class:`BadRequest` on garbage."""
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"body is not valid JSON: {error}")

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class HttpResponse:
    """One response ready to serialize."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"

    @classmethod
    def json(cls, payload: object, status: int = 200) -> "HttpResponse":
        return cls(
            status=status,
            body=(json.dumps(payload) + "\n").encode("utf-8"),
        )

    @classmethod
    def text(cls, text: str, status: int = 200) -> "HttpResponse":
        return cls(
            status=status,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    @classmethod
    def error(cls, status: int, message: str, **extra) -> "HttpResponse":
        payload = {"error": message}
        payload.update(extra)
        return cls.json(payload, status=status)

    def encode(self, keep_alive: bool = True) -> bytes:
        reason = _STATUS_TEXT.get(self.status, "Unknown")
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        return head.encode("ascii") + self.body


async def _readline(reader: asyncio.StreamReader) -> bytes:
    """One line; :class:`BadRequest` if it overruns the reader's limit.

    ``StreamReader.readline`` reports the overrun as ``ValueError``
    (after dropping the buffered part of the line), not as
    ``LimitOverrunError``.
    """
    try:
        return await reader.readline()
    except ValueError:
        raise BadRequest("request or header line too long")


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Read one request; ``None`` on clean EOF before a request line."""
    try:
        request_line = await _readline(reader)
    except ConnectionResetError:
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3:
        raise BadRequest(f"malformed request line: {parts!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported protocol {version!r}")
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await _readline(reader)
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise BadRequest("headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise BadRequest("undecodable header")
        headers[name.strip().lower()] = value.strip()
    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise BadRequest(
                f"bad Content-Length {headers['content-length']!r}"
            )
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequest(f"refusing body of {length} bytes")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(
            split.query, keep_blank_values=True
        ).items()
    }
    return HttpRequest(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


async def write_response(
    writer: asyncio.StreamWriter,
    response: HttpResponse,
    keep_alive: bool = True,
) -> None:
    writer.write(response.encode(keep_alive=keep_alive))
    await writer.drain()
