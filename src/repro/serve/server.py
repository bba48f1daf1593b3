"""Server lifecycle: sockets, signals, graceful shutdown.

:class:`DetectionServer` glues the pieces together — a
:class:`~repro.serve.state.StateStore` on the ``--db`` path, a
:class:`~repro.serve.service.DetectionService` restored from it, the
:class:`~repro.serve.app.ServeApp` router — and runs a sequential
HTTP/1.1 accept loop on asyncio streams. Handlers execute inline on
the loop (the core is single-threaded on purpose), so requests are
applied in arrival order and the journal's ordering guarantee holds
without locks.

On startup the server prints one machine-parseable line::

    repro-serve listening on http://127.0.0.1:43621

which is how tests and the CI smoke job discover the real port when
launched with ``--port 0``. ``SIGINT``/``SIGTERM`` and ``POST
/shutdown`` all trigger the same graceful path: stop accepting, close
the open connections and wait for their handlers, checkpoint, close
the store. A ``SIGKILL`` skips all of that — which
is exactly the case the snapshot+journal design exists for.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Dict, Optional

from ..obs.core import ObsRegistry
from .app import ServeApp
from .http import (
    BadRequest,
    HttpResponse,
    read_request,
    write_response,
)
from .service import (
    DEFAULT_CHECKPOINT_INTERVAL,
    DEFAULT_REFRESH_EVERY,
    DetectionService,
)
from .state import StateStore

#: Seconds a shutdown waits for open connections to flush and close
#: before it aborts the rest.
CLOSE_GRACE_S = 5.0


class DetectionServer:
    """One store + service + router bound to a listening socket."""

    def __init__(
        self,
        db_path: str,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        refresh_every: Optional[int] = DEFAULT_REFRESH_EVERY,
        obs: Optional[ObsRegistry] = None,
        quiet: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.quiet = quiet
        self.obs = obs if obs is not None else ObsRegistry()
        self.store = StateStore(db_path)
        try:
            self.service = DetectionService(
                self.store,
                checkpoint_interval=checkpoint_interval,
                refresh_every=refresh_every,
                obs=self.obs,
            )
        except BaseException:
            self.store.close()  # a refused restore leaves nothing open
            raise
        self.app = ServeApp(
            self.service, obs=self.obs, on_shutdown=self.request_shutdown
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None
        #: Open connections: each handler task and its writer.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle -------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Safe from handlers and signal callbacks alike."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def start(self) -> int:
        """Bind and start accepting; returns the real port."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._log(
            f"repro-serve listening on http://{self.host}:{self.port}"
        )
        if self.service.restored:
            self._log(
                f"restored snapshot seq={self.store.snapshot_seq()} "
                f"+ {self.service.journal_replayed} journaled events "
                f"-> {self.service.events_ingested} total"
            )
        return self.port

    async def serve(self, replay: Optional[str] = None) -> None:
        """Start, optionally bootstrap-replay a trace, serve until
        shutdown is requested, then tear down gracefully."""
        await self.start()
        try:
            if replay is not None:
                # Synchronous on the loop: bootstrap replay finishes
                # before any queued request is handled, so queries
                # always see a consistent prefix.
                offset = self.service.events_ingested
                result = self.service.replay_file(replay, offset=offset)
                self._log(
                    f"replayed {result['replayed']} events from "
                    f"{replay} (skipped {result['skipped']} already "
                    f"ingested)"
                )
            assert self._shutdown is not None
            await self._shutdown.wait()
        finally:
            await self._close()

    async def _close(self) -> None:
        if self._server is not None:
            self._server.close()
            # Connections first: from Python 3.12 ``wait_closed`` also
            # waits for every open connection.
            await self._close_connections()
            await self._server.wait_closed()
        if not self.service.finished:
            self.service.checkpoint()
        self.store.close()
        self._log(
            f"repro-serve stopped at seq "
            f"{self.service.events_ingested} (checkpointed)"
        )

    async def _close_connections(self) -> None:
        """Close every open connection and wait for its handler, so none
        is left pending when the caller closes the loop.

        An idle handler reads EOF and returns.  A close waits for
        unsent bytes, which a peer that stopped reading never takes,
        so connections still open after :data:`CLOSE_GRACE_S` are
        aborted.
        """
        connections = dict(self._connections)
        if not connections:
            return
        for writer in connections.values():
            writer.close()
        _, stalled = await asyncio.wait(
            list(connections), timeout=CLOSE_GRACE_S
        )
        for task in stalled:
            connections[task].transport.abort()
        await asyncio.gather(*stalled, return_exceptions=True)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequest as error:
                    await write_response(
                        writer,
                        HttpResponse.error(400, str(error)),
                        keep_alive=False,
                    )
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return
                try:
                    response = self.app.handle(request)
                except Exception as error:  # noqa: BLE001 — 500 backstop
                    response = HttpResponse.error(
                        500, f"{type(error).__name__}: {error}"
                    )
                keep = request.keep_alive
                try:
                    await write_response(
                        writer, response, keep_alive=keep
                    )
                except ConnectionError:
                    return
                if not keep:
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            del self._connections[task]

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(message, flush=True)


def run_server(
    db_path: str,
    host: str = "127.0.0.1",
    port: int = 0,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    refresh_every: Optional[int] = DEFAULT_REFRESH_EVERY,
    replay: Optional[str] = None,
    quiet: bool = False,
) -> int:
    """Blocking entrypoint for ``repro serve``; returns an exit code."""
    server = DetectionServer(
        db_path,
        host=host,
        port=port,
        checkpoint_interval=checkpoint_interval,
        refresh_every=refresh_every,
        quiet=quiet,
    )

    async def main() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, server.request_shutdown
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-unix loops: ctrl-C still raises
        await server.serve(replay=replay)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 0
