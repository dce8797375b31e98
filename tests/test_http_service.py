"""Tests for the HTTP front-end (``repro.serving.http``).

Covers the session lifecycle over the async app, the error-to-status
ladder, the timing middleware's accounting, parity between the HTTP
path and the in-process ``SessionScheduler`` on the deterministic
report subset, health degradation under an injected fault plan, and
the real-socket server.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.profile import _environment_files
from repro.serving import run_serve
from repro.serving.http import (HttpRequest, HttpServer, WalkthroughApp,
                                build_service, percentile)
from repro.serving.http.stats import latency_summary
from repro.storage.faults import FaultInjector, named_plan

SCALE = "small"
FRAMES = 8


def dispatch(app, method, path, body=None):
    return asyncio.run(app.dispatch(HttpRequest(method, path, body)))


@pytest.fixture(scope="module")
def app():
    with use_registry(MetricsRegistry()):
        service = build_service(scale=SCALE, frames=FRAMES, max_active=3)
        yield WalkthroughApp(service)


# -- lifecycle over the app -------------------------------------------------


def test_session_lifecycle(app):
    created = dispatch(app, "POST", "/sessions", {"pattern": 2})
    assert created.status == 201
    session_id = created.body["id"]
    assert created.body["pattern"] == 2
    assert created.body["frames"] == FRAMES

    listed = dispatch(app, "GET", "/sessions")
    assert session_id in [s["id"] for s in listed.body["sessions"]]

    for index in range(FRAMES):
        stepped = dispatch(app, "POST", f"/sessions/{session_id}/step")
        assert stepped.status == 200
        assert stepped.body["stepped"] is True
        assert stepped.body["frame_index"] == index
        assert stepped.body["frame_ms"] > 0
    assert stepped.body["done"] is True

    # Stepping a finished session is answered, not an error.
    extra = dispatch(app, "POST", f"/sessions/{session_id}/step")
    assert extra.status == 200
    assert extra.body["stepped"] is False

    closed = dispatch(app, "DELETE", f"/sessions/{session_id}")
    assert closed.status == 200
    assert closed.body["frames"] == FRAMES
    assert closed.body["done"] is True
    assert session_id not in app.service.sessions


def test_error_status_ladder(app):
    assert dispatch(app, "GET", "/sessions/99999").status == 404
    assert dispatch(app, "POST", "/sessions/99999/step").status == 404
    assert dispatch(app, "DELETE", "/sessions/99999").status == 404
    assert dispatch(app, "POST", "/sessions",
                    {"pattern": 7}).status == 400
    assert dispatch(app, "POST", "/sessions",
                    {"pattern": "one"}).status == 400
    assert dispatch(app, "POST", "/sessions",
                    {"pattern": 1, "frames": "x"}).status == 400
    assert dispatch(app, "GET", "/nope").status == 404


def test_overload_sheds_with_503(app):
    created = []
    try:
        while True:
            response = dispatch(app, "POST", "/sessions", {"pattern": 1})
            if response.status == 503:
                assert response.body["shed"] is True
                break
            created.append(response.body["id"])
            assert len(created) <= 3, "admission cap never enforced"
    finally:
        for session_id in created:
            dispatch(app, "DELETE", f"/sessions/{session_id}")
    assert app.service.sessions_shed >= 1


def test_middleware_assigns_request_ids_and_counts(app):
    before = app.collector.total_requests
    first = dispatch(app, "GET", "/healthz")
    second = dispatch(app, "GET", "/healthz")
    assert app.collector.total_requests == before + 2
    first_id = int(first.headers["x-request-id"])
    second_id = int(second.headers["x-request-id"])
    assert second_id == first_id + 1
    counts = app.collector.request_counts()
    assert counts["GET /healthz"]["requests"] >= 2
    assert counts["GET /healthz"]["errors"] == 0
    summary = app.collector.wall_latency()["GET /healthz"]
    assert summary["p50"] >= 0.0
    assert summary["max"] >= summary["p50"]


def test_stats_and_metrics_endpoints(app):
    stats = dispatch(app, "GET", "/stats")
    assert stats.status == 200
    assert stats.body["sessions_created"] == app.service.sessions_created
    assert "GET /healthz" in stats.body["http"]["requests"]
    metrics = dispatch(app, "GET", "/metrics")
    assert metrics.status == 200
    assert any(key.startswith(names.HTTP_REQUESTS)
               for key in metrics.body["metrics"])


# -- parity with the in-process scheduler -----------------------------------


def test_http_path_matches_scheduler_report():
    """Concurrent create/step over the shared pool must reproduce the
    ``SessionScheduler`` per-session reports field-for-field.

    The reference run serves N sessions through ``run_serve``; the HTTP
    side creates the same sessions (same seed-drawn patterns) and steps
    them in scheduler order — each round fanned out as concurrent
    dispatches, serialized only by the app's lock.  Everything in the
    deterministic per-session report must coincide.
    """
    sessions, seed, frames = 4, 3, 10
    reference = run_serve(sessions=sessions, seed=seed,
                          scale=SCALE, frames=frames,
                          include_frame_times=False)
    expected = reference["sessions"]

    with use_registry(MetricsRegistry()):
        service = build_service(scale=SCALE, frames=frames,
                                evaluate_fidelity=True)
        app = WalkthroughApp(service)
        rng = np.random.default_rng(seed)
        patterns = [int(rng.integers(1, 4)) for _ in range(sessions)]

        async def drive():
            ids = []
            for pattern in patterns:
                response = await app.dispatch(HttpRequest(
                    "POST", "/sessions", {"pattern": pattern}))
                assert response.status == 201
                ids.append(response.body["id"])
            live = list(ids)
            while live:
                # One scheduler round: every live session steps, the
                # dispatches issued concurrently (the app's lock is
                # FIFO, so ascending-id order is preserved).
                responses = await asyncio.gather(*[
                    app.dispatch(HttpRequest(
                        "POST", f"/sessions/{sid}/step"))
                    for sid in live])
                for response in responses:
                    assert response.status == 200
                live = [sid for sid, r in zip(live, responses)
                        if not r.body["done"]]
            reports = []
            for sid in ids:
                closed = await app.dispatch(HttpRequest(
                    "DELETE", f"/sessions/{sid}"))
                assert closed.status == 200
                reports.append(closed.body)
            return reports

        actual = asyncio.run(drive())

    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        got = dict(got)
        assert got.pop("done") is True
        assert got == want


# -- health under faults ----------------------------------------------------


def test_health_degrades_under_faults_instead_of_erroring():
    with use_registry(MetricsRegistry()):
        service = build_service(scale=SCALE, frames=20)
        app = WalkthroughApp(service)
        assert dispatch(app, "GET", "/healthz").body["status"] == "ok"

        injector = FaultInjector(named_plan("aggressive"), seed=3)
        injector.install(*_environment_files(service.env))
        try:
            for pattern in (1, 2, 3):
                created = dispatch(app, "POST", "/sessions",
                                   {"pattern": pattern})
                assert created.status == 201
                session_id = created.body["id"]
                for _ in range(20):
                    stepped = dispatch(
                        app, "POST", f"/sessions/{session_id}/step")
                    # The promise under test: faults degrade fidelity,
                    # they never turn into HTTP errors.
                    assert stepped.status == 200
        finally:
            injector.uninstall()

        assert injector.total_injected() > 0
        health = dispatch(app, "GET", "/healthz")
        assert health.status == 200
        assert health.body["status"] == "degraded"
        assert (health.body["frames_degraded"] > 0
                or health.body["pages_corrupt"] > 0
                or health.body["io_giveups"] > 0)


# -- the real socket --------------------------------------------------------


def test_socket_server_round_trip():
    async def scenario():
        with use_registry(MetricsRegistry()):
            app = WalkthroughApp(build_service(scale=SCALE, frames=3))
            server = HttpServer(app)
            host, port = await server.start()
            try:
                async def call(raw: bytes) -> tuple:
                    reader, writer = await asyncio.open_connection(
                        host, port)
                    writer.write(raw)
                    await writer.drain()
                    data = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    head, _, payload = data.partition(b"\r\n\r\n")
                    status = int(head.split(b" ", 2)[1])
                    return status, json.loads(payload), head

                status, body, _head = await call(
                    b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                assert status == 200
                assert body["status"] == "ok"

                payload = json.dumps({"pattern": 1}).encode()
                status, body, head = await call(
                    b"POST /sessions HTTP/1.1\r\n"
                    + f"content-length: {len(payload)}\r\n\r\n".encode()
                    + payload)
                assert status == 201
                assert b"x-request-id:" in head
                session_id = body["id"]

                status, body, _head = await call(
                    f"POST /sessions/{session_id}/step "
                    f"HTTP/1.1\r\n\r\n".encode())
                assert status == 200
                assert body["stepped"] is True

                # Malformed requests answer 400, never crash the server.
                status, body, _head = await call(b"BOGUS\r\n\r\n")
                assert status == 400
                status, body, _head = await call(
                    b"POST /sessions HTTP/1.1\r\n"
                    b"content-length: 3\r\n\r\nxxx")
                assert status == 400

                # The server survives all of the above and still serves.
                status, body, _head = await call(
                    b"GET /stats HTTP/1.1\r\n\r\n")
                assert status == 200
                assert body["sessions_created"] == 1
            finally:
                await server.stop()

    asyncio.run(scenario())


# -- percentile helpers -----------------------------------------------------


def test_percentile_nearest_rank():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert percentile(samples, 0.0) == 10.0
    assert percentile(samples, 50.0) == 20.0
    assert percentile(samples, 75.0) == 30.0
    assert percentile(samples, 100.0) == 40.0
    assert percentile([], 50.0) == 0.0
    with pytest.raises(ValueError):
        percentile(samples, 101.0)


def test_latency_summary_shape():
    summary = latency_summary([5.0, 1.0, 3.0])
    assert summary["p50"] == 3.0
    assert summary["max"] == 5.0
    assert summary["mean"] == pytest.approx(3.0)
    assert set(summary) == {"p50", "p95", "p99", "mean", "max"}
