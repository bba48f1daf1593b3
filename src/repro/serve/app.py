"""HTTP routes → :class:`~repro.serve.service.DetectionService` calls.

The application is a plain synchronous dispatcher: the service core is
single-threaded by design (determinism is the product), so handlers
run inline on the event loop — one request at a time mutates state,
which is exactly the ordering guarantee the journal needs.

Routes:

==========  =============  ================================================
``GET``     ``/healthz``   liveness probe (no service state touched)
``GET``     ``/metrics``   Prometheus exposition of the obs registry
``GET``     ``/status``    durable seq, snapshot seq, counts
``GET``     ``/verdicts``  fused verdict per subject (``?bot=1`` filters)
``GET``     ``/campaigns`` one row per campaign conviction so far
``GET``     ``/entities``  convicted fingerprint entities so far
``GET``     ``/analysis``  full final-analysis summary (after finish)
``POST``    ``/ingest``    ``{"events": [...], "seq": N?}`` — journal+apply
``POST``    ``/replay``    ``{"path", "offset"?, "limit"?, "batch"?}`` (RPTR)
``POST``    ``/snapshot``  force a checkpoint now
``POST``    ``/finish``    end-of-stream: final analysis + digest
``POST``    ``/shutdown``  checkpoint and stop the server
==========  =============  ================================================

Error mapping: malformed JSON / bad events / a ``seq``, ``offset``,
``limit`` or ``batch`` that is not an integer (``true`` and ``2.0`` are
not) / a ``batch`` below 1 / out-of-order or non-finite times / a
corrupt or unsupported trace → 400; ingest seq
mismatch and ingest-after-finish → 409 (with the authoritative
``events_ingested`` so clients resync); unknown path → 404; wrong
method → 405.

A failed state-store write (any route that journals or checkpoints) →
503 with ``events_ingested``, the durable count to resume from: the
store rolled the write back, so memory and disk agree on it.  After a
failed journal commit the count is unchanged and the client resends
the same batch with the same ``seq``; after a checkpoint that failed
behind an applied batch, the count already includes that batch.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, Optional, Tuple

from ..obs.core import ObsRegistry
from ..obs.report import render_prometheus
from ..trace.format import TraceError
from .codec import CodecError
from .http import BadRequest, HttpRequest, HttpResponse
from .service import DetectionService, SeqConflict, ServiceFinished
from .state import StateStoreError

Handler = Callable[[HttpRequest], HttpResponse]


def _integer(
    payload: Dict[str, object], key: str, default: Optional[int]
) -> Optional[int]:
    """``payload[key]``, or ``default`` when absent; anything but an
    ``int`` is refused (``bool`` is a subclass, so the test is exact).
    A key whose default is ``None`` may also be ``null``."""
    value = payload.get(key, default)
    if value is None and default is None:
        return None
    if type(value) is not int:
        raise BadRequest(f'"{key}" must be an integer, got {value!r}')
    return value


class ServeApp:
    """Route table plus the error-to-status mapping."""

    def __init__(
        self,
        service: DetectionService,
        obs: Optional[ObsRegistry] = None,
        on_shutdown: Optional[Callable[[], None]] = None,
    ) -> None:
        self.service = service
        self.obs = obs if obs is not None else service.obs
        self.on_shutdown = on_shutdown
        self._routes: Dict[Tuple[str, str], Handler] = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/status"): self._status,
            ("GET", "/verdicts"): self._verdicts,
            ("GET", "/campaigns"): self._campaigns,
            ("GET", "/entities"): self._entities,
            ("GET", "/analysis"): self._analysis,
            ("POST", "/ingest"): self._ingest,
            ("POST", "/replay"): self._replay,
            ("POST", "/snapshot"): self._snapshot,
            ("POST", "/finish"): self._finish,
            ("POST", "/shutdown"): self._shutdown,
        }

    # -- dispatch --------------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        if self.obs is not None:
            self.obs.increment("serve.http.requests")
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            known_paths = {path for _, path in self._routes}
            if request.path in known_paths:
                return HttpResponse.error(
                    405, f"method {request.method} not allowed "
                    f"on {request.path}"
                )
            return HttpResponse.error(404, f"no route {request.path}")
        try:
            return handler(request)
        except (BadRequest, CodecError, TraceError, ValueError) as error:
            if self.obs is not None:
                self.obs.increment("serve.http.bad_requests")
            return HttpResponse.error(400, str(error))
        except FileNotFoundError as error:
            return HttpResponse.error(400, f"no such file: {error}")
        except SeqConflict as error:
            return HttpResponse.error(
                409, str(error), events_ingested=error.expected
            )
        except ServiceFinished as error:
            return HttpResponse.error(
                409,
                str(error),
                events_ingested=self.service.events_ingested,
                finished=True,
            )
        except StateStoreError as error:
            return HttpResponse.error(
                503, str(error),
                events_ingested=self.service.events_ingested,
            )

    # -- handlers --------------------------------------------------------------

    def _healthz(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json(
            {
                "status": "ok",
                "events_ingested": self.service.events_ingested,
                "finished": self.service.finished,
            }
        )

    def _metrics(self, request: HttpRequest) -> HttpResponse:
        if self.obs is None:
            return HttpResponse.text("")
        self._refresh_gauges()
        return HttpResponse.text(render_prometheus(self.obs))

    def _refresh_gauges(self) -> None:
        obs = self.obs
        service = self.service
        obs.set_gauge(
            "serve.events_total", float(service.events_ingested)
        )
        obs.set_gauge(
            "serve.sessions_closed",
            float(service.pipeline.sessionizer.sessions_closed),
        )
        obs.set_gauge(
            "serve.subjects_tracked",
            float(service.pipeline.fusion.subjects_tracked),
        )
        obs.set_gauge(
            "serve.campaigns_convicted",
            float(len(service.campaign_log.records)),
        )
        obs.set_gauge(
            "serve.uptime_seconds",
            _time.time() - service.started_at,
        )

    def _status(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json(self.service.status_view())

    def _verdicts(self, request: HttpRequest) -> HttpResponse:
        verdicts = self.service.verdicts_view()
        if request.query.get("bot") in ("1", "true"):
            verdicts = [v for v in verdicts if v["is_bot"]]
        subject = request.query.get("subject")
        if subject is not None:
            verdicts = [v for v in verdicts if v["subject_id"] == subject]
        return HttpResponse.json({"verdicts": verdicts})

    def _campaigns(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json(
            {"campaigns": self.service.campaigns_view()}
        )

    def _entities(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json(
            {"entities": self.service.entities_view()}
        )

    def _analysis(self, request: HttpRequest) -> HttpResponse:
        if not self.service.finished:
            return HttpResponse.error(
                409, "analysis is available after POST /finish"
            )
        return HttpResponse.json(self.service.analysis_summary())

    def _ingest(self, request: HttpRequest) -> HttpResponse:
        payload = request.json()
        if not isinstance(payload, dict) or "events" not in payload:
            raise BadRequest('body must be {"events": [...], "seq"?: N}')
        seq = _integer(payload, "seq", None)
        applied = self.service.ingest(payload["events"], seq=seq)
        return HttpResponse.json(
            {
                "applied": applied,
                "events_ingested": self.service.events_ingested,
            }
        )

    def _replay(self, request: HttpRequest) -> HttpResponse:
        payload = request.json()
        if not isinstance(payload, dict) or "path" not in payload:
            raise BadRequest(
                'body must be {"path": "...", "offset"?: N, "limit"?: N}'
            )
        result = self.service.replay_file(
            str(payload["path"]),
            offset=_integer(payload, "offset", 0),
            limit=_integer(payload, "limit", None),
            batch=_integer(payload, "batch", 512),
        )
        return HttpResponse.json(result)

    def _snapshot(self, request: HttpRequest) -> HttpResponse:
        size = self.service.checkpoint()
        return HttpResponse.json(
            {
                "snapshot_bytes": size,
                "snapshot_seq": self.service.events_ingested,
            }
        )

    def _finish(self, request: HttpRequest) -> HttpResponse:
        report = self.service.finish()
        return HttpResponse.json(
            {
                "events_processed": report.events_processed,
                "sessions_closed": report.sessions_closed,
                "campaigns_convicted": len(
                    self.service.campaign_log.records
                ),
                "entities_convicted": len(self.service.entities_view()),
                "digest": self.service.analysis_digest(),
            }
        )

    def _shutdown(self, request: HttpRequest) -> HttpResponse:
        if not self.service.finished:
            self.service.checkpoint()
        if self.on_shutdown is not None:
            self.on_shutdown()
        return HttpResponse.json(
            {
                "status": "shutting down",
                "events_ingested": self.service.events_ingested,
            }
        )
