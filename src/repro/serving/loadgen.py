"""``repro traffic`` — synthetic walkthrough traffic against the app.

Drives hundreds of walkthrough sessions through the HTTP application
(:mod:`repro.serving.http`) in-process, under open-loop Poisson
arrivals on a **virtual clock**:

* arrivals are seeded draws of exponential inter-arrival gaps at the
  configured offered load (sessions/second);
* an admitted session then *self-paces*: after each step, its next
  step is scheduled ``frame_ms`` later on the virtual clock, where
  ``frame_ms`` is the frame's own simulated render+I/O time — so a
  slow frame delays that session's next request, exactly like a real
  client rendering at its achievable rate;
* a ``hot_fraction`` of arrivals replay motion pattern 1 (the same
  recorded path, hence the same cell sequence — the hot cells); the
  rest split evenly between patterns 2 and 3.

Because the clock is virtual and every request is dispatched to
completion before the next event fires, everything in the report's
``traffic``/``deterministic`` sections is a pure function of the
arguments: same seed, byte-identical JSON — the CI traffic job diffs
exactly that.  Wall-clock latency percentiles (measured by the timing
middleware) are published in a separate ``wall_clock`` section and
never gated.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import WalkthroughError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.obs.profile import _environment_files
from repro.serving.http.app import (HttpRequest, WalkthroughApp,
                                    build_service)
from repro.serving.http.stats import latency_summary
from repro.storage.faults import FaultInjector, named_plan

#: Virtual milliseconds between steps when a frame reports a simulated
#: time of zero (nothing re-queried, no I/O): a client still renders at
#: *some* finite rate, and a zero gap would starve every other event at
#: the same timestamp of nothing — it just needs to be positive.
MIN_STEP_GAP_MS = 1.0

#: Event kinds, ordered: at equal virtual time, arrivals admit before
#: already-running sessions step — the deterministic tiebreak.
_ARRIVE = 0
_STEP = 1


def run_traffic(*, sessions: int = 200, seed: int = 0,
                scale: str = "small", eta: float = 0.001,
                frames: int = 30, scheme: Optional[str] = None,
                arrival_rate: float = 50.0, hot_fraction: float = 0.5,
                max_active: int = 32,
                frame_budget_ms: Optional[float] = None,
                pool_pages: int = 256, plan: Optional[str] = None,
                fault_seed: int = 0) -> Dict[str, object]:
    """Offer ``sessions`` walkthroughs to the service; returns the report.

    Parameters
    ----------
    sessions:
        Sessions *offered* (arrivals); sheds count against this.
    seed:
        Seeds the arrival process and the hot/pattern draws.
    arrival_rate:
        Offered load in sessions per (virtual) second.
    hot_fraction:
        Fraction of arrivals replaying the hot path (pattern 1).
    max_active:
        Admission slots; an arrival past this is shed with a 503.
    frames / eta / scheme / scale / pool_pages:
        As in ``repro serve`` (``frames`` defaults low: traffic wants
        many short sessions, not a few long ones).
    frame_budget_ms:
        Per-frame deadline; over-budget sessions degrade their next
        query (the PR-5 shedding ladder, now driven over HTTP).
    plan / fault_seed:
        Optional named fault plan beneath the storage layer, to prove
        the front-end degrades instead of erroring.
    """
    if sessions < 1:
        raise WalkthroughError(f"sessions must be >= 1, got {sessions}")
    if arrival_rate <= 0:
        raise WalkthroughError(
            f"arrival_rate must be > 0, got {arrival_rate}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise WalkthroughError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}")
    fault_plan = named_plan(plan) if plan is not None else None
    registry = MetricsRegistry()
    with use_registry(registry):
        service = build_service(
            scale=scale, eta=eta, frames=frames, scheme=scheme,
            pool_pages=pool_pages, max_active=max_active,
            frame_budget_ms=frame_budget_ms)
        app = WalkthroughApp(service)
        injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            injector = FaultInjector(fault_plan, seed=fault_seed)
            injector.install(*_environment_files(service.env))
        started = time.perf_counter()
        try:
            outcome = asyncio.run(_drive(app, sessions=sessions,
                                         seed=seed,
                                         arrival_rate=arrival_rate,
                                         hot_fraction=hot_fraction))
        finally:
            if injector is not None:
                injector.uninstall()
        elapsed_s = time.perf_counter() - started

        report: Dict[str, object] = {
            "traffic": {
                "scale": scale,
                "sessions": sessions,
                "seed": seed,
                "eta": eta,
                "frames": frames,
                "scheme": service.scheme,
                "arrival_rate": arrival_rate,
                "hot_fraction": hot_fraction,
                "max_active": max_active,
                "frame_budget_ms": frame_budget_ms,
                "pool_pages": pool_pages,
                "plan": (fault_plan.name if fault_plan is not None
                         else None),
                "fault_seed": (fault_seed if fault_plan is not None
                               else None),
            },
            "deterministic": _deterministic_report(app, outcome,
                                                   registry),
            "wall_clock": {
                # Machine-dependent: reported for operators, never
                # gated, never diffed.
                "elapsed_s": round(elapsed_s, 3),
                "http_latency_ms": app.collector.wall_latency(),
            },
        }
        if injector is not None:
            report["faults"] = {
                "injected": dict(sorted(injector.injected.items())),
                "total_injected": injector.total_injected(),
            }
        return report


class _Outcome:
    """Everything the virtual-clock drive accumulates."""

    def __init__(self) -> None:
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.frames_served = 0
        self.hot_sessions = 0
        self.frame_ms: List[float] = []
        self.session_reports: List[Dict[str, object]] = []
        self.end_ms = 0.0
        self.unexpected: Dict[str, int] = {}


async def _drive(app: WalkthroughApp, *, sessions: int, seed: int,
                 arrival_rate: float, hot_fraction: float) -> _Outcome:
    """The event loop: arrivals and self-paced steps in virtual time."""
    rng = np.random.default_rng(seed)
    # All randomness is drawn up front, in one fixed order, so the
    # event loop below is purely mechanical.
    gaps_ms = rng.exponential(1000.0 / arrival_rate, size=sessions)
    arrive_ms = np.cumsum(gaps_ms)
    hot = rng.random(size=sessions) < hot_fraction
    cold_patterns = rng.integers(2, 4, size=sessions)

    m_sessions = get_registry().counter(names.TRAFFIC_SESSIONS)
    m_shed = get_registry().counter(names.TRAFFIC_SESSIONS_SHED)
    m_frames = get_registry().counter(names.TRAFFIC_FRAMES)
    m_requests = get_registry().counter(names.TRAFFIC_REQUESTS)

    outcome = _Outcome()
    events: List[Tuple[float, int, int, int]] = []
    for index in range(sessions):
        heapq.heappush(events,
                       (float(arrive_ms[index]), _ARRIVE, index, index))
    seq = sessions  # Tie-break counter; arrivals already hold 0..n-1.

    async def call(method: str, path: str,
                   body: Optional[Dict[str, object]] = None):
        m_requests.inc()
        return await app.dispatch(HttpRequest(method, path, body))

    while events:
        now_ms, kind, _tiebreak, key = heapq.heappop(events)
        outcome.end_ms = now_ms
        if kind == _ARRIVE:
            outcome.offered += 1
            is_hot = bool(hot[key])
            pattern = 1 if is_hot else int(cold_patterns[key])
            response = await call("POST", "/sessions",
                                  {"pattern": pattern})
            if response.status == 503:
                outcome.shed += 1
                m_shed.inc()
                continue
            if response.status != 201:
                _count_unexpected(outcome, response)
                continue
            outcome.admitted += 1
            outcome.hot_sessions += int(is_hot)
            m_sessions.inc()
            session_id = response.body["id"]
            seq += 1
            heapq.heappush(events, (now_ms, _STEP, seq, session_id))
        else:
            response = await call("POST", f"/sessions/{key}/step")
            if response.status != 200:
                _count_unexpected(outcome, response)
                continue
            body = response.body
            if body.get("stepped"):
                outcome.frames_served += 1
                m_frames.inc()
                outcome.frame_ms.append(float(body["frame_ms"]))
            if body["done"]:
                closed = await call("DELETE", f"/sessions/{key}")
                if closed.status == 200:
                    outcome.completed += 1
                    outcome.session_reports.append(closed.body)
                else:
                    _count_unexpected(outcome, closed)
            else:
                gap = max(float(body["frame_ms"]), MIN_STEP_GAP_MS)
                seq += 1
                heapq.heappush(events, (now_ms + gap, _STEP, seq, key))
    return outcome


def _count_unexpected(outcome: _Outcome, response) -> None:
    key = str(response.status)
    outcome.unexpected[key] = outcome.unexpected.get(key, 0) + 1


def _deterministic_report(app: WalkthroughApp, outcome: _Outcome,
                          registry: MetricsRegistry) -> Dict[str, object]:
    """The machine-independent section: pure function of the inputs."""
    reports = outcome.session_reports
    degraded = sum(int(r["degraded_frames"]) for r in reports)
    overload = sum(int(r["overload_degraded"]) for r in reports)
    queries = sum(int(r["queries"]) for r in reports)
    shed_rate = (outcome.shed / outcome.offered if outcome.offered
                 else 0.0)
    pool = app.service.pool
    pool_block: Optional[Dict[str, object]] = None
    if pool is not None:
        pool_block = {
            "capacity": pool.capacity,
            "hits": pool.hits,
            "misses": pool.misses,
            "evictions": pool.evictions,
            "hit_rate": pool.hit_rate,
        }
    return {
        "sessions": {
            "offered": outcome.offered,
            "admitted": outcome.admitted,
            "shed": outcome.shed,
            "completed": outcome.completed,
            "hot": outcome.hot_sessions,
            "shed_rate": shed_rate,
            # The bench gate wants higher-is-better.
            "serve_rate": 1.0 - shed_rate,
        },
        "frames": {
            "served": outcome.frames_served,
            "queries": queries,
            "degraded": degraded,
            "overload_degraded": overload,
            "degraded_total": registry.value(names.FRAMES_DEGRADED),
        },
        "requests": {
            "total": app.collector.total_requests,
            "by_route": app.collector.request_counts(),
            "by_status": app.collector.status_counts(),
            "unexpected": dict(sorted(outcome.unexpected.items())),
        },
        # *Simulated* frame latency — virtual-clock, hence exact.
        "sim_frame_ms": latency_summary(outcome.frame_ms),
        "sim_duration_ms": outcome.end_ms,
        "pool": pool_block,
    }
