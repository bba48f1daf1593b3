"""The ``RPTR`` trace file format.

Layout (all integers little-endian)::

    header   magic b"RPTR" | u16 version | u32 meta_len | meta JSON
    records  repeated, each framed as  u8 kind | payload
             kind 0x01  string definition: u32 id | u16 len | utf-8
             kind 0x02  log entry:
                        f64 time | u16 status | u8 residential
                        | 11 x u32 string ids
                        (method, path, blocked_by, outcome, ip,
                         country, fingerprint, user_agent, profile,
                         actor, actor_class)
    footer   kind 0xFF  u64 entry_count | u32 crc32

Strings are interned: each distinct string is written once as a
definition record and referenced by id afterwards — client identity
fields repeat across almost every entry, so a trace costs a few bytes
per request instead of a few hundred.  The footer CRC covers every
record byte between header and footer; a reader hitting a bad CRC,
truncated frame, missing footer, or bytes after the footer raises
:class:`TraceCorruption` instead of returning silently short data.

A trace is a file (written by ``repro stream --capture``, read by
``repro replay`` and ``POST /replay``) or a byte string: the serve
journal stores each acknowledged ingest batch as one complete trace in
a SQLite blob.  Writer and reader therefore take a path or an open
binary stream, so every trace, on disk or in the journal, is read by
the one :class:`TraceReader`.

:class:`TraceWriter` alone judges what a record can hold: a status in
``0..MAX_STATUS``, strings UTF-8 encodes in at most
:data:`MAX_STRING_BYTES` bytes.  It refuses anything else with a
:class:`TraceError` and leaves the writer as it was — nothing of the
entry written, none of its strings kept — so the writer and its trace
stay valid after a refusal.  An entry goes out as one buffer: the
definitions of the strings it uses first, then the entry record.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

from ..common import ClientRef
from ..web.logs import LogEntry

TRACE_MAGIC = b"RPTR"
TRACE_VERSION = 1

_KIND_STRING = 0x01
_KIND_ENTRY = 0x02
_KIND_FOOTER = 0xFF

_ENTRY_STRUCT = struct.Struct("<dHB11I")
_STRING_HEAD = struct.Struct("<IH")
_FOOTER_STRUCT = struct.Struct("<QI")
_META_LEN = struct.Struct("<I")
_VERSION_STRUCT = struct.Struct("<H")

#: Largest value the u16 status field and string length can hold.
MAX_STATUS = 0xFFFF
MAX_STRING_BYTES = 0xFFFF

#: A string definition and a log entry, each with its kind byte.
_STRING_RECORD = struct.Struct("<BIH")
_ENTRY_RECORD = struct.Struct("<BdHB11I")

#: An entry's eleven strings, in record order.
Texts = Tuple[str, ...]
#: An entry as :meth:`TraceWriter.write_row` takes it: time, status,
#: residential and the eleven strings.
Row = Tuple[float, int, bool, Texts]

#: A trace's location: a filesystem path or an open binary stream.
Target = Union[str, "os.PathLike[str]", BinaryIO]


def _open(target: Target, mode: str) -> Tuple[str, BinaryIO, bool]:
    """``(label for messages, handle, whether we own the handle)``: a
    path is opened (and later closed) here, a stream is the caller's."""
    if isinstance(target, (str, os.PathLike)):
        path = os.fspath(target)
        return path, open(path, mode), True
    return getattr(target, "name", "<stream>"), target, False


class TraceError(Exception):
    """Base error for trace I/O."""


class TraceCorruption(TraceError):
    """The file violates the format: bad magic/CRC, truncation, ..."""


class _StringIds(dict):
    """Each string's id in one trace.  Looking up a string not yet
    defined checks that a string record can hold it, numbers it next
    and queues its definition record in :attr:`pending`, where the
    entry that first uses it picks it up."""

    __slots__ = ("pending",)

    def __init__(self) -> None:
        super().__init__()
        self.pending: List[bytes] = []

    def __missing__(self, text: str) -> int:
        try:
            blob = text.encode("utf-8")
        except UnicodeEncodeError as error:
            raise TraceError(f"string not encodable as UTF-8: {error}")
        size = len(blob)
        if size > MAX_STRING_BYTES:
            raise TraceError(
                f"string of {size} UTF-8 bytes (at most {MAX_STRING_BYTES})"
            )
        string_id = self[text] = len(self)
        self.pending += (
            _STRING_RECORD.pack(_KIND_STRING, string_id, size), blob
        )
        return string_id

    def forget(self, count: int) -> None:
        """Drop every string numbered from ``count`` on, newest first,
        and their queued records."""
        while len(self) > count:
            self.popitem()
        self.pending.clear()


def entry_row(entry: LogEntry) -> Row:
    """``entry`` as the arguments of :meth:`TraceWriter.write_row`."""
    client = entry.client
    return (
        entry.time,
        entry.status,
        client.ip_residential,
        (
            entry.method,
            entry.path,
            entry.blocked_by,
            entry.outcome,
            client.ip_address,
            client.ip_country,
            client.fingerprint_id,
            client.user_agent,
            client.profile_id,
            client.actor,
            client.actor_class,
        ),
    )


class TraceWriter:
    """Append-only trace writer to a path or an open binary stream.

    Use as a context manager (or call :meth:`close`) — the footer with
    the entry count and CRC is only written on close, and a trace
    without a footer reads as corrupt (by design: a crashed capture
    should not pass for a complete one).  Closing closes the file the
    writer opened; a caller's stream is left open.
    """

    def __init__(
        self, target: Target, meta: Optional[Dict[str, object]] = None
    ):
        self.meta = dict(meta or {})
        self.path, handle, self._owned = _open(target, "wb")
        self._handle: Optional[BinaryIO] = handle
        self._strings = _StringIds()
        self._crc = 0
        self.entries_written = 0
        meta_blob = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        self._handle.write(
            TRACE_MAGIC
            + _VERSION_STRUCT.pack(TRACE_VERSION)
            + _META_LEN.pack(len(meta_blob))
            + meta_blob
        )

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def write(self, entry: LogEntry) -> None:
        """Append one entry, or raise :class:`TraceError` and leave the
        writer as it was if the format cannot hold the entry."""
        self.write_row(*entry_row(entry))

    def write_row(
        self, time: float, status: int, residential: bool, texts: Texts
    ) -> None:
        """Append the entry whose fields are ``time``, ``status``,
        ``residential`` and the eleven strings ``texts`` (in
        :func:`entry_row` order), or raise :class:`TraceError` and leave
        the writer as it was if the format cannot hold it.  The strings
        the entry defines and the entry itself go out as one buffer."""
        handle = self._handle
        if handle is None:
            raise TraceError("trace writer is closed")
        if not 0 <= status <= MAX_STATUS:
            raise TraceError(f"status {status} outside 0..{MAX_STATUS}")
        strings = self._strings
        defined = len(strings)
        try:
            record = _ENTRY_RECORD.pack(
                _KIND_ENTRY, time, status, 1 if residential else 0,
                *map(strings.__getitem__, texts),
            )
        except BaseException:
            # Nothing of the entry was written: forget what it numbered.
            strings.forget(defined)
            raise
        pending = strings.pending
        pending.append(record)
        buffer = b"".join(pending)
        pending.clear()
        self._crc = zlib.crc32(buffer, self._crc)
        handle.write(buffer)
        self.entries_written += 1

    def close(self) -> None:
        if self._handle is None:
            return
        self._handle.write(
            bytes([_KIND_FOOTER])
            + _FOOTER_STRUCT.pack(self.entries_written, self._crc)
        )
        if self._owned:
            self._handle.close()
        self._handle = None

    @property
    def distinct_strings(self) -> int:
        return len(self._strings)


class TraceReader:
    """Streaming trace reader over a path or an open binary stream;
    iterates :class:`LogEntry` objects.

    Validates magic and version eagerly (constructor) and the CRC and
    entry count lazily (when iteration reaches the footer), so a
    caller that must not act on unverified entries reads the whole
    trace before using any of them.
    """

    def __init__(self, source: Target):
        self.path, self._handle, self._owned = _open(source, "rb")
        try:
            self.version, self.meta = self._read_header()
        except BaseException:
            self.close()
            raise

    def _read_header(self) -> Tuple[int, Dict[str, object]]:
        magic = self._handle.read(len(TRACE_MAGIC))
        if magic != TRACE_MAGIC:
            raise TraceCorruption(
                f"{self.path}: bad magic {magic!r} (expected {TRACE_MAGIC!r})"
            )
        (version,) = _VERSION_STRUCT.unpack(
            self._read_exact(_VERSION_STRUCT.size, "header")
        )
        if version != TRACE_VERSION:
            raise TraceError(
                f"{self.path}: unsupported trace version {version} "
                f"(this reader speaks {TRACE_VERSION})"
            )
        (meta_len,) = _META_LEN.unpack(
            self._read_exact(_META_LEN.size, "header")
        )
        meta_blob = self._read_exact(meta_len, "metadata")
        try:
            return version, json.loads(meta_blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise TraceCorruption(f"{self.path}: bad metadata: {error}")

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self._handle is not None and self._owned:
            self._handle.close()
        self._handle = None  # type: ignore[assignment]

    def _read_exact(self, size: int, what: str = "record") -> bytes:
        blob = self._handle.read(size)
        if len(blob) < size:
            raise TraceCorruption(f"{self.path}: truncated {what}")
        return blob

    def __iter__(self) -> Iterator[LogEntry]:
        strings: List[str] = []
        crc = 0
        count = 0
        while True:
            kind_byte = self._handle.read(1)
            if not kind_byte:
                raise TraceCorruption(
                    f"{self.path}: missing footer (truncated capture?)"
                )
            kind = kind_byte[0]
            if kind == _KIND_FOOTER:
                expected_count, expected_crc = _FOOTER_STRUCT.unpack(
                    self._read_exact(_FOOTER_STRUCT.size)
                )
                if expected_count != count:
                    raise TraceCorruption(
                        f"{self.path}: footer says {expected_count} "
                        f"entries, read {count}"
                    )
                if expected_crc != crc:
                    raise TraceCorruption(
                        f"{self.path}: CRC mismatch "
                        f"(footer {expected_crc:#010x}, "
                        f"computed {crc:#010x})"
                    )
                if self._handle.read(1):
                    raise TraceCorruption(
                        f"{self.path}: bytes after the footer"
                    )
                return
            if kind == _KIND_STRING:
                head = self._read_exact(_STRING_HEAD.size)
                string_id, length = _STRING_HEAD.unpack(head)
                blob = self._read_exact(length)
                crc = zlib.crc32(head, zlib.crc32(kind_byte, crc))
                crc = zlib.crc32(blob, crc)
                if string_id != len(strings):
                    raise TraceCorruption(
                        f"{self.path}: out-of-order string id {string_id}"
                    )
                try:
                    strings.append(blob.decode("utf-8"))
                except UnicodeDecodeError as error:
                    raise TraceCorruption(f"{self.path}: bad string: {error}")
                continue
            if kind == _KIND_ENTRY:
                payload = self._read_exact(_ENTRY_STRUCT.size)
                crc = zlib.crc32(payload, zlib.crc32(kind_byte, crc))
                unpacked = _ENTRY_STRUCT.unpack(payload)
                time, status, residential = unpacked[:3]
                try:
                    (
                        method, path, blocked_by, outcome, ip, country,
                        fingerprint, user_agent, profile, actor,
                        actor_class,
                    ) = (strings[i] for i in unpacked[3:])
                except IndexError:
                    raise TraceCorruption(
                        f"{self.path}: entry references undefined string"
                    )
                count += 1
                yield LogEntry(
                    time=time,
                    method=method,
                    path=path,
                    status=status,
                    client=ClientRef(
                        ip_address=ip,
                        ip_country=country,
                        ip_residential=bool(residential),
                        fingerprint_id=fingerprint,
                        user_agent=user_agent,
                        profile_id=profile,
                        actor=actor,
                        actor_class=actor_class,
                    ),
                    blocked_by=blocked_by,
                    outcome=outcome,
                )
                continue
            raise TraceCorruption(
                f"{self.path}: unknown record kind {kind:#04x}"
            )
