"""Per-entry reference for the RPTR journal record.

:func:`encode_record` writes a batch the way the trace writer did
before it learnt to write an entry as one buffer: for each entry, a
definition record per string it uses first, then the entry record,
each framed, checksummed and appended on its own.  It handles valid
entries only (no refusals), and stays here, outside the package, as
the byte-level specification :func:`repro.serve.codec.parse_events`
and :func:`repro.serve.codec.encode_record` are tested against.
"""

import json
import struct
import zlib
from typing import Dict, List, Sequence

from repro.web.logs import LogEntry


def encode_record(entries: Sequence[LogEntry], first_seq: int) -> bytes:
    """The RPTR trace of ``entries`` with ``{"first_seq": first_seq}``
    as its metadata."""
    meta = json.dumps({"first_seq": first_seq}, sort_keys=True)
    meta_blob = meta.encode("utf-8")
    out: List[bytes] = [
        b"RPTR", struct.pack("<H", 1), struct.pack("<I", len(meta_blob)),
        meta_blob,
    ]
    crc = 0
    strings: Dict[str, int] = {}

    def emit(record: bytes) -> None:
        nonlocal crc
        crc = zlib.crc32(record, crc)
        out.append(record)

    for entry in entries:
        client = entry.client
        ids = []
        for text in (
            entry.method, entry.path, entry.blocked_by, entry.outcome,
            client.ip_address, client.ip_country, client.fingerprint_id,
            client.user_agent, client.profile_id, client.actor,
            client.actor_class,
        ):
            if text not in strings:
                strings[text] = len(strings)
                blob = text.encode("utf-8")
                emit(
                    b"\x01" + struct.pack("<IH", strings[text], len(blob))
                    + blob
                )
            ids.append(strings[text])
        emit(
            b"\x02" + struct.pack(
                "<dHB11I", entry.time, entry.status,
                1 if client.ip_residential else 0, *ids,
            )
        )
    out.append(b"\xff" + struct.pack("<QI", len(entries), crc))
    return b"".join(out)
