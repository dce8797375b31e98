"""The walkthrough application: the HTTP front end of the session lifecycle.

Sessions live in :class:`~repro.serving.service.WalkthroughService`,
the lifecycle ``repro serve`` drives too; this module only routes
requests to it and maps its errors to statuses.  The app is
framework-free: an :class:`HttpRequest` goes in, an
:class:`HttpResponse` comes out, and the stdlib ``asyncio`` server
(:mod:`repro.serving.http.server`) or an in-process caller (the load
generator, the tests) is just transport.  Routes:

=======  ============================  =========================================
method   path                          effect
=======  ============================  =========================================
POST     ``/sessions``                 create a session (``{"pattern": 1..3}``);
                                       503 when the service is at capacity
POST     ``/sessions/{id}/step``       advance one frame; returns the frame
GET      ``/sessions``                 list live sessions
GET      ``/sessions/{id}``            one session's progress
DELETE   ``/sessions/{id}``            close; returns the session report
GET      ``/healthz``                  liveness + degradation status
GET      ``/stats``                    service counters + request stats
GET      ``/metrics``                  the metrics registry, collected
=======  ============================  =========================================

Concurrency model: every state-mutating route (create/step/close) runs
under one ``asyncio`` lock, so one session steps at a time — the
HTTP-facing equivalent of the round loop's phase 1.  The shared
clock, the shared buffer pool and the per-session snapshot/delta
attribution windows are only exact when one session steps at a time;
the lock buys that exactness across interleaved coroutines.  A step
scores its frame's fidelity inline, so a stepped frame's record is
complete when the response leaves.

Everything the app returns except wall-clock latency (measured by the
middleware, reported by ``/stats``) is a pure function of the request
sequence — the property the traffic harness's determinism check rides
on.
"""

from __future__ import annotations

import asyncio
import re
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, ServiceOverloadedError, WalkthroughError
from repro.obs.metrics import get_registry
from repro.serving.service import WalkthroughService, build_service

__all__ = ["HttpRequest", "HttpResponse", "WalkthroughApp",
           "WalkthroughService", "build_service"]


class HttpRequest:
    """One request: method, path, optional JSON body, headers."""

    def __init__(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None,
                 headers: Optional[Dict[str, str]] = None) -> None:
        self.method = method.upper()
        self.path = path
        self.body = body or {}
        self.headers = headers or {}

    def __repr__(self) -> str:
        return f"HttpRequest({self.method} {self.path})"


class HttpResponse:
    """One response: status, JSON-serializable body, headers."""

    def __init__(self, status: int, body: Dict[str, object],
                 headers: Optional[Dict[str, str]] = None) -> None:
        self.status = status
        self.body = body
        self.headers = headers or {}

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def __repr__(self) -> str:
        return f"HttpResponse({self.status})"


_SESSION_PATH = re.compile(r"^/sessions/(\d+)$")
_STEP_PATH = re.compile(r"^/sessions/(\d+)/step$")


class WalkthroughApp:
    """Async front: routing, serialization lock, timing middleware."""

    def __init__(self, service: WalkthroughService) -> None:
        # Imported here, not at module top: middleware imports the
        # request/response types from this module.
        from repro.serving.http.middleware import TimingMiddleware
        from repro.serving.http.stats import StatsCollector

        self.service = service
        self.collector = StatsCollector()
        self._middleware = TimingMiddleware(self._route, self.collector)
        self._lock = asyncio.Lock()

    async def dispatch(self, request: HttpRequest) -> HttpResponse:
        """The single entry point: middleware-wrapped routing."""
        return await self._middleware(request)

    # -- routing -----------------------------------------------------------

    async def _route(self, request: HttpRequest) \
            -> Tuple[str, HttpResponse]:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return "GET /healthz", HttpResponse(200, self.service.health())
        if path == "/stats" and method == "GET":
            body = dict(self.service.stats())
            body["http"] = {
                "requests": self.collector.request_counts(),
                "wall_latency_ms": self.collector.wall_latency(),
            }
            return "GET /stats", HttpResponse(200, body)
        if path == "/metrics" and method == "GET":
            return "GET /metrics", HttpResponse(
                200, {"metrics": get_registry().collect()})
        if path == "/sessions" and method == "GET":
            listing: List[Dict[str, object]] = [
                self.service.session_status(sid)
                for sid in sorted(self.service.sessions)]
            return "GET /sessions", HttpResponse(200, {"sessions": listing})
        if path == "/sessions" and method == "POST":
            return await self._create(request)
        step = _STEP_PATH.match(path)
        if step is not None and method == "POST":
            return await self._step(int(step.group(1)))
        single = _SESSION_PATH.match(path)
        if single is not None and method == "GET":
            route = "GET /sessions/{id}"
            return route, self._guard(
                lambda: self.service.session_status(int(single.group(1))))
        if single is not None and method == "DELETE":
            return await self._close(int(single.group(1)))
        return (f"{method} {path}",
                HttpResponse(404, {"error": f"no route: {method} {path}"}))

    async def _create(self, request: HttpRequest) \
            -> Tuple[str, HttpResponse]:
        route = "POST /sessions"
        body = request.body
        pattern = body.get("pattern", 1)
        frames = body.get("frames")
        if not isinstance(pattern, int) or isinstance(pattern, bool):
            return route, HttpResponse(
                400, {"error": f"pattern must be an integer, "
                               f"got {pattern!r}"})
        if frames is not None and (not isinstance(frames, int)
                                   or isinstance(frames, bool)):
            return route, HttpResponse(
                400, {"error": f"frames must be an integer, "
                               f"got {frames!r}"})
        async with self._lock:
            return route, self._guard(
                lambda: self.service.create_session(pattern,
                                                    frames=frames),
                created=True)

    async def _step(self, session_id: int) -> Tuple[str, HttpResponse]:
        async with self._lock:
            return "POST /sessions/{id}/step", self._guard(
                lambda: self.service.step_session(session_id))

    async def _close(self, session_id: int) -> Tuple[str, HttpResponse]:
        async with self._lock:
            return "DELETE /sessions/{id}", self._guard(
                lambda: self.service.close_session(session_id))

    def _guard(self, call, created: bool = False) -> HttpResponse:
        """Run a service call, mapping the error ladder to statuses."""
        try:
            body = call()
        except ServiceOverloadedError as exc:
            return HttpResponse(503, {"error": str(exc), "shed": True})
        except WalkthroughError as exc:
            status = 404 if "no such session" in str(exc) else 400
            return HttpResponse(status, {"error": str(exc)})
        except ReproError as exc:
            return HttpResponse(
                500, {"error": f"{type(exc).__name__}: {exc}"})
        return HttpResponse(201 if created else 200, body)
