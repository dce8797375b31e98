"""The walkthrough application: session lifecycle over HTTP semantics.

The app is framework-free: an :class:`HttpRequest` goes in, an
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
HTTP-facing equivalent of the round scheduler's phase 1.  The shared
clock, the shared buffer pool and the per-session snapshot/delta
attribution windows are only exact when one session steps at a time;
the lock buys that exactness across interleaved coroutines.  Fidelity
scoring runs inline (phase 2 of the scheduler), so a stepped frame's
record is complete when the response leaves.

Everything the app returns except wall-clock latency (measured by the
middleware, reported by ``/stats``) is a pure function of the request
sequence — the property the traffic harness's determinism check rides
on.
"""

from __future__ import annotations

import asyncio
import re
from typing import Dict, List, Optional, Tuple

from repro.core.hdov_tree import HDoVEnvironment
from repro.errors import ReproError, ServiceOverloadedError, WalkthroughError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serving.service import session_env, session_report
from repro.serving.session import ServingSession
from repro.storage.buffer import BufferPool
from repro.walkthrough.session import make_session


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


class WalkthroughService:
    """Synchronous session-lifecycle core the async app delegates to.

    Owns the shared environment, the shared buffer pool, and the live
    :class:`~repro.serving.session.ServingSession` table.  Admission
    control mirrors the round scheduler's: at most ``max_active`` live
    sessions; a create beyond that is *shed* (raised as
    :class:`~repro.errors.ServiceOverloadedError`, mapped to 503), not
    queued — a network client retries, a queue would hide the overload
    the traffic report exists to measure.
    """

    def __init__(self, env: HDoVEnvironment, *,
                 pool: Optional[BufferPool] = None,
                 eta: float = 0.001,
                 scheme: Optional[str] = None,
                 frames: int = 30,
                 street_pitch: float = 100.0,
                 max_active: Optional[int] = None,
                 frame_budget_ms: Optional[float] = None,
                 cache_budget_bytes: Optional[int] = None,
                 evaluate_fidelity: bool = False) -> None:
        if frames < 1:
            raise WalkthroughError(f"frames must be >= 1, got {frames}")
        if max_active is not None and max_active < 1:
            raise WalkthroughError(
                f"max_active must be >= 1, got {max_active}")
        if frame_budget_ms is not None and frame_budget_ms <= 0:
            raise WalkthroughError(
                f"frame_budget_ms must be > 0, got {frame_budget_ms}")
        self.env = env
        self.pool = pool
        self.eta = eta
        self.scheme = scheme
        self.frames = frames
        self.street_pitch = street_pitch
        self.max_active = max_active
        self.frame_budget_ms = frame_budget_ms
        self.cache_budget_bytes = cache_budget_bytes
        self.evaluate_fidelity = evaluate_fidelity
        self.sessions: Dict[int, ServingSession] = {}
        self._next_id = 0
        self.sessions_created = 0
        self.sessions_shed = 0
        self.sessions_closed = 0
        self.frames_served = 0

    # -- lifecycle ---------------------------------------------------------

    def create_session(self, pattern: int = 1,
                       frames: Optional[int] = None) -> Dict[str, object]:
        if pattern not in (1, 2, 3):
            raise WalkthroughError(
                f"pattern must be 1, 2 or 3, got {pattern}")
        num_frames = frames if frames is not None else self.frames
        if num_frames < 1:
            raise WalkthroughError(
                f"frames must be >= 1, got {num_frames}")
        if self.max_active is not None and \
                len(self.sessions) >= self.max_active:
            self.sessions_shed += 1
            raise ServiceOverloadedError(
                f"at capacity ({self.max_active} active sessions)")
        path = make_session(pattern, self.env.scene.bounds(),
                            num_frames=num_frames,
                            street_pitch=self.street_pitch)
        view = session_env(self.env, self.pool)
        session_id = self._next_id
        self._next_id += 1
        session = ServingSession(
            session_id, path, view, eta=self.eta, scheme=self.scheme,
            pool=self.pool, cache_budget_bytes=self.cache_budget_bytes,
            evaluate_fidelity=self.evaluate_fidelity)
        self.sessions[session_id] = session
        self.sessions_created += 1
        get_registry().counter(names.SERVING_SESSIONS).inc()
        return {"id": session_id, "pattern": pattern,
                "path": path.name, "frames": num_frames}

    def step_session(self, session_id: int) -> Dict[str, object]:
        session = self._get(session_id)
        if session.done:
            return {"id": session_id, "done": True, "stepped": False,
                    "frames": len(session.frames)}
        shed = (self.frame_budget_ms is not None
                and session.last_frame_ms > self.frame_budget_ms)
        thunk = session.step(shed_load=shed)
        self.frames_served += 1
        get_registry().counter(names.SERVING_FRAMES).inc()
        if thunk is not None:
            # Phase 2 inline: the record is complete when we answer.
            session.install_fidelity(thunk())
        frame = session.frames[-1]
        return {
            "id": session_id,
            "done": session.done,
            "stepped": True,
            "frame_index": frame.frame_index,
            "cell_id": frame.cell_id,
            "frame_ms": frame.frame_ms,
            "io_ms": frame.io_ms,
            "polygons": frame.polygons,
            "degraded": frame.degraded,
            "shed": shed,
        }

    def close_session(self, session_id: int) -> Dict[str, object]:
        session = self._get(session_id)
        del self.sessions[session_id]
        self.sessions_closed += 1
        report = session_report(session, include_frame_times=False)
        report["done"] = session.done
        return report

    def session_status(self, session_id: int) -> Dict[str, object]:
        session = self._get(session_id)
        return {"id": session_id, "path": session.path.name,
                "frames": len(session.frames),
                "total_frames": session.path.num_frames,
                "done": session.done}

    def _get(self, session_id: int) -> ServingSession:
        session = self.sessions.get(session_id)
        if session is None:
            raise WalkthroughError(f"no such session: {session_id}")
        return session

    # -- introspection -----------------------------------------------------

    def health(self) -> Dict[str, object]:
        """``ok`` until the degradation ladder has fired; then
        ``degraded`` — the service keeps answering either way (PR 3's
        promise: faults degrade fidelity, never availability)."""
        registry = get_registry()
        degraded_frames = int(_series_total(registry,
                                            names.FRAMES_DEGRADED))
        corrupt_pages = int(_series_total(registry, names.PAGES_CORRUPT))
        giveups = int(_series_total(registry, names.PAGEIO_GIVEUPS))
        degraded = bool(degraded_frames or corrupt_pages or giveups)
        return {
            "status": "degraded" if degraded else "ok",
            "active_sessions": len(self.sessions),
            "frames_degraded": degraded_frames,
            "pages_corrupt": corrupt_pages,
            "io_giveups": giveups,
        }

    def stats(self) -> Dict[str, object]:
        counts: Dict[str, object] = {
            "sessions_created": self.sessions_created,
            "sessions_shed": self.sessions_shed,
            "sessions_closed": self.sessions_closed,
            "sessions_active": len(self.sessions),
            "frames_served": self.frames_served,
        }
        if self.pool is not None:
            counts["pool"] = {
                "capacity": self.pool.capacity,
                "hits": self.pool.hits,
                "misses": self.pool.misses,
                "evictions": self.pool.evictions,
                "hit_rate": self.pool.hit_rate,
            }
        return counts


def _series_total(registry: MetricsRegistry, name: str) -> float:
    """Sum a counter/gauge over every label set (0.0 when unused)."""
    return sum(instrument.value  # type: ignore[attr-defined]
               for instrument in registry.series(name).values())


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


def build_service(*, scale: str = "small", eta: float = 0.001,
                  frames: Optional[int] = None,
                  scheme: Optional[str] = None,
                  pool_pages: int = 256,
                  max_active: Optional[int] = None,
                  frame_budget_ms: Optional[float] = None,
                  evaluate_fidelity: bool = False) -> WalkthroughService:
    """Build a fresh environment + pool and wrap them in a service.

    Build I/O is reset out of the serving ledger, exactly as
    ``run_serve`` does, so the first session's frames start from zero.
    """
    # Imported here: repro.experiments pulls in every experiment driver,
    # which the library layers must not depend on at import time.
    from repro.core.hdov_tree import build_environment
    from repro.experiments.config import get_scale
    from repro.scene.city import generate_city
    from repro.visibility.cells import CellGrid

    if pool_pages < 0:
        raise WalkthroughError(
            f"pool_pages must be >= 0, got {pool_pages}")
    experiment = get_scale(scale)
    scene = generate_city(experiment.city)
    grid = CellGrid.covering(scene.bounds(), experiment.cell_size)
    env = build_environment(scene, grid, experiment.hdov)
    env.reset_stats()
    pool = (BufferPool(pool_pages, name="http")
            if pool_pages > 0 else None)
    num_frames = (frames if frames is not None
                  else experiment.session_frames)
    return WalkthroughService(
        env, pool=pool, eta=eta, scheme=scheme, frames=num_frames,
        street_pitch=experiment.city.pitch, max_active=max_active,
        frame_budget_ms=frame_budget_ms,
        cache_budget_bytes=experiment.visual_cache_budget_bytes,
        evaluate_fidelity=evaluate_fidelity)
