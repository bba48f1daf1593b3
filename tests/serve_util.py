"""Shared fixtures-in-code for the repro.serve test modules.

``campaign_entries()`` builds the canonical synthetic abuse stream the
serve tests and the CI smoke job replay: four rotated fingerprints
burst ``/hold`` requests from one shared IP (each burst trips the
hold-velocity adapter, the shared IP links the rotated devices in the
entity graph), plus background legitimate browsing — small enough to
replay in milliseconds, rich enough to convict a campaign.

``launch_server`` runs the real ``repro serve`` CLI in a subprocess
and parses the startup line for the bound port, which is what the
kill/restart recovery test needs a real PID for.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Sequence

from repro.common import ClientRef
from repro.trace import TraceWriter
from repro.web.logs import LogEntry

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


def make_entry(
    time_,
    ip="198.51.100.7",
    fingerprint="fp-1",
    path="/search",
    method="GET",
    status=200,
    actor_class="legit",
):
    return LogEntry(
        time=time_,
        method=method,
        path=path,
        status=status,
        client=ClientRef(
            ip_address=ip,
            ip_country="NL",
            ip_residential=True,
            fingerprint_id=fingerprint,
            user_agent="UA-serve",
            actor_class=actor_class,
        ),
    )


def campaign_entries(
    rotations: int = 4,
    holds_per_burst: int = 6,
    legit_visitors: int = 6,
) -> List[LogEntry]:
    """Time-ordered synthetic stream that produces >= 1 campaign.

    Each rotated fingerprint's burst exceeds the hold-velocity
    threshold (5 in 6h), every burst shares one IP so the rotated
    devices connect through it in the entity graph, and the >= 3
    sessions satisfy the campaign extractor's floor.
    """
    entries: List[LogEntry] = []
    clock = 1_000.0
    for rotation in range(rotations):
        fingerprint = f"fp-rot-{rotation}"
        for _ in range(holds_per_burst):
            entries.append(
                make_entry(
                    clock,
                    ip="203.0.113.66",
                    fingerprint=fingerprint,
                    path="/hold",
                    method="POST",
                    actor_class="seat_spinner",
                )
            )
            clock += 30.0
        clock += 2_400.0  # idle past the 30-min gap: close the session
    for visitor in range(legit_visitors):
        fingerprint = f"fp-legit-{visitor}"
        for path in ("/search", "/flight", "/search"):
            entries.append(
                make_entry(
                    clock,
                    ip=f"192.0.2.{visitor + 1}",
                    fingerprint=fingerprint,
                    path=path,
                )
            )
            clock += 45.0
        clock += 2_400.0
    return entries


class FailingCommits:
    """Stands in for a :class:`StateStore`'s connection and fails its
    next ``failures`` commits the way a lock timeout does; every other
    call goes to the real connection.  Install with
    ``store._conn = FailingCommits(store._conn)``."""

    def __init__(self, conn: sqlite3.Connection, failures: int = 1) -> None:
        self._conn = conn
        self.failures = failures

    def commit(self) -> None:
        if self.failures > 0:
            self.failures -= 1
            raise sqlite3.OperationalError("database is locked")
        self._conn.commit()

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


def write_trace(path, entries: Sequence[LogEntry], meta=None) -> str:
    with TraceWriter(str(path), meta=meta or {"scenario": "serve-test"}) \
            as writer:
        for entry in entries:
            writer.write(entry)
    return str(path)


def server_command(db_path, port: int = 0, extra: Sequence[str] = ()):
    return [
        sys.executable, "-m", "repro", "serve",
        "--db", str(db_path), "--port", str(port),
        *extra,
    ]


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def start_server(
    db_path, extra: Sequence[str] = (), timeout: float = 30.0
):
    """Spawn ``repro serve --port 0`` and return ``(process, port)``."""
    process = subprocess.Popen(
        server_command(db_path, port=0, extra=extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=server_env(),
        text=True,
    )
    deadline = time.monotonic() + timeout
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {process.returncode} "
                    "before listening"
                )
            continue
        if "listening on http://" in line:
            port = int(line.rsplit(":", 1)[1])
            return process, port
    process.kill()
    raise TimeoutError("server never printed its listening line")


@contextmanager
def launch_server(
    db_path, extra: Sequence[str] = (), timeout: float = 30.0
):
    """``with launch_server(db) as (process, port):`` — always reaps."""
    process: Optional[subprocess.Popen] = None
    try:
        process, port = start_server(db_path, extra=extra, timeout=timeout)
        yield process, port
    finally:
        if process is not None and process.poll() is None:
            process.kill()
            process.wait(timeout=10)
