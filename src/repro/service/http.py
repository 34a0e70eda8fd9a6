"""A small asyncio HTTP/1.1 edge for :class:`~repro.service.app.SolverService`.

Stdlib only — ``asyncio.start_server`` plus a hand-rolled request parser —
because the service's API surface is five fixed routes and the repo's
no-new-runtime-deps rule is worth more than a framework:

====== ======================= ==========================================
Method Path                    Purpose
====== ======================= ==========================================
POST   ``/v1/solve``           Submit ``{"problem": spec, "seed": n}``
                               (optional ``"tenant"``, ``"priority"``);
                               ``"wait": true`` blocks for the result.
GET    ``/v1/jobs/<id>``       Job status/result (404 for unknown ids).
GET    ``/v1/traces``          Recent flight-recorder traces; filters
                               ``?tenant=``, ``?min_duration_s=``,
                               ``?limit=``.
GET    ``/v1/traces/<job_id>`` One request's full span tree by job id
                               (also accepts a raw trace id).
GET    ``/healthz``            Liveness (200 while the process serves).
GET    ``/readyz``             Readiness + capacity snapshot (503
                               draining).
GET    ``/metrics``            Prometheus text exposition (0.0.4).
====== ======================= ==========================================

Error mapping: malformed requests (bad JSON or JSON nested too deeply,
bad spec/seed/tenant/priority, a negative Content-Length, a truncated
body, a request or header line past the reader's limit) are 400, unknown
routes 404, oversized bodies 413, queue backpressure and admission sheds
429 (sheds carry ``Retry-After`` seconds derived from the scoreboard's
EWMA service time), draining 503.  Every response carries
``Connection: close`` — one request per connection keeps the parser to a
page of code, and the client for this service is a scraper or an SDK
retry loop, not a browser holding keep-alives.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs

from repro import obs
from repro.service.admission import AdmissionShed
from repro.service.app import SolverService
from repro.service.coalesce import QueueClosed, QueueFull
from repro.exceptions import ReproError

#: Request bodies past this are rejected (413) before JSON parsing.
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Carries a status + JSON-able body (+ extra headers) up to the handler."""

    def __init__(self, status: int, message: str, headers: "dict | None" = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


class ServiceServer:
    """Bind, serve, and close the HTTP edge around one service instance."""

    def __init__(self, service: SolverService, host: "str | None" = None,
                 port: "int | None" = None):
        self.service = service
        self.host = service.config.host if host is None else host
        self.port = service.config.port if port is None else port
        self._server: "asyncio.base_events.Server | None" = None

    @property
    def bound_port(self) -> int:
        """The real port (meaningful after :meth:`start` with port 0)."""
        if self._server is None:
            raise ReproError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )

    async def shutdown(self) -> None:
        """Stop accepting connections, then drain the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.shutdown()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            headers: dict = {}
            try:
                method, path, query, body = await _read_request(reader)
                status, payload, content_type = await self._route_traced(
                    method, path, query, body
                )
            except HttpError as exc:
                status, payload, content_type = (
                    exc.status, {"error": exc.message}, "application/json",
                )
                headers = exc.headers
            except Exception as exc:  # a handler bug must not kill the server
                status, payload, content_type = (
                    500, {"error": f"{type(exc).__name__}: {exc}"}, "application/json",
                )
            await _write_response(writer, status, payload, content_type, headers)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # client went away first
                pass

    async def _route_traced(self, method: str, path: str, query: str, body: bytes):
        """Open the request's root span for traced routes, then route.

        Only ``/v1/solve`` gets an ``http.request`` span: tracing every
        ``/metrics`` or probe poll would churn the flight recorder's ring
        buffer and evict the solve traces it exists to keep.
        """
        tracer = self.service.tracer
        if tracer is None or path != "/v1/solve":
            return await self._route(method, path, query, body)
        with obs.activate(tracer):
            with obs.span("http.request", method=method, path=path) as root:
                status, payload, content_type = await self._route(
                    method, path, query, body
                )
                root.set(status=status)
                return status, payload, content_type

    async def _route(self, method: str, path: str, query: str, body: bytes):
        service = self.service
        if path == "/v1/solve":
            if method != "POST":
                raise HttpError(405, "use POST /v1/solve")
            return await self._solve(body)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise HttpError(405, "use GET /v1/jobs/<id>")
            job = service.jobs.get(path[len("/v1/jobs/"):])
            if job is None:
                raise HttpError(404, "unknown job id")
            return 200, job.as_json_dict(), "application/json"
        if path == "/v1/traces" or path.startswith("/v1/traces/"):
            if method != "GET":
                raise HttpError(405, "use GET /v1/traces[/<job_id>]")
            return self._traces(path, query)
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET /healthz")
            return 200, {
                "ok": True,
                "stopped": service.stopped,
                "version": _version(),
                "trace": service.trace_status(),
            }, "application/json"
        if path == "/readyz":
            if method != "GET":
                raise HttpError(405, "use GET /readyz")
            body_json = service.readiness()
            return (200 if body_json["ready"] else 503), body_json, "application/json"
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "use GET /metrics")
            return 200, service.render_metrics(), "text/plain; version=0.0.4; charset=utf-8"
        raise HttpError(404, f"no route for {path}")

    def _traces(self, path: str, query: str):
        """``GET /v1/traces`` (recent, filterable) and ``/v1/traces/<job_id>``."""
        recorder = self.service.recorder
        if recorder is None:
            raise HttpError(404, "tracing is disabled (service config trace = false)")
        key = path[len("/v1/traces"):].strip("/")
        if key:
            # Primarily a job-id lookup; a raw trace id works too, so the
            # trace_id stamped on a job JSON is directly dereferenceable.
            trace = recorder.get_by_job(key) or recorder.get(key)
            if trace is None:
                raise HttpError(404, "no trace recorded for that job or trace id")
            return 200, trace, "application/json"
        params = parse_qs(query)
        tenant = params.get("tenant", [None])[0]
        try:
            limit = int(params.get("limit", ["50"])[0])
            raw_min = params.get("min_duration_s", [None])[0]
            min_duration_s = float(raw_min) if raw_min is not None else None
        except ValueError as exc:
            raise HttpError(400, f"bad trace filter: {exc}") from exc
        if limit < 1:
            raise HttpError(400, "limit must be >= 1")
        summaries = recorder.recent(
            limit=limit, tenant=tenant, min_duration_s=min_duration_s
        )
        return 200, {"traces": summaries, **recorder.stats()}, "application/json"

    async def _solve(self, body: bytes):
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc
        except RecursionError as exc:  # a small body can nest past the stack
            raise HttpError(400, "request body is nested too deeply") from exc
        if not isinstance(request, dict) or "problem" not in request:
            raise HttpError(400, 'request body must be {"problem": {...}, ...}')
        spec = request["problem"]
        if not isinstance(spec, dict):
            raise HttpError(400, '"problem" must be a spec object')
        seed = request.get("seed", 0)
        wait = request.get("wait", False)
        if not isinstance(wait, bool):
            raise HttpError(400, '"wait" must be a boolean')
        tenant = request.get("tenant", "default")
        priority = request.get("priority", "interactive")
        if not isinstance(tenant, str):
            raise HttpError(400, '"tenant" must be a string')
        if not isinstance(priority, str):
            raise HttpError(400, '"priority" must be a string')
        try:
            job = self.service.submit(spec, seed=seed, tenant=tenant, priority=priority)
        except AdmissionShed as exc:
            raise HttpError(
                429, str(exc), headers={"Retry-After": str(exc.retry_after_s)}
            ) from exc
        except QueueFull as exc:
            raise HttpError(429, str(exc)) from exc
        except QueueClosed as exc:
            raise HttpError(503, str(exc)) from exc
        except ReproError as exc:
            raise HttpError(400, str(exc)) from exc
        if wait:
            await asyncio.shield(job.future)
            return 200, job.as_json_dict(), "application/json"
        return 202, {
            "job_id": job.id, "status": job.status, "trace_id": job.trace_id,
        }, "application/json"


def _version() -> str:
    from repro import __version__

    return __version__


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request: ``(method, path, query, body)``; HttpError on junk."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, ValueError) as exc:  # ValueError: line past the limit
        raise HttpError(400, "unreadable request line") from exc
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise HttpError(400, "malformed HTTP request line")
    method, target, _http_version = parts
    path, _, query = target.partition("?")

    content_length = 0
    while True:
        try:
            line = await reader.readline()
        except (ConnectionError, ValueError) as exc:
            raise HttpError(400, "unreadable header line") from exc
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise HttpError(400, "bad Content-Length header") from exc
            if content_length < 0:
                # -5 is truthy and passes a `> MAX` check; readexactly(-5)
                # would raise ValueError and surface as a 500.  It's the
                # client's malformed header: 400.
                raise HttpError(400, "Content-Length must be >= 0")
    if content_length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    try:
        body = await reader.readexactly(content_length) if content_length else b""
    except asyncio.IncompleteReadError as exc:
        raise HttpError(
            400,
            f"request body truncated ({len(exc.partial)} of {content_length} bytes)",
        ) from exc
    return method.upper(), path, query, body


async def _write_response(writer: asyncio.StreamWriter, status: int,
                          payload, content_type: str,
                          headers: "dict | None" = None) -> None:
    if isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = (json.dumps(payload) + "\n").encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    try:
        writer.write(head + body)
        await writer.drain()
    except (ConnectionError, OSError):  # client vanished mid-write
        pass
