"""The one session lifecycle, and ``repro serve``, its round-loop driver.

:class:`WalkthroughService` owns the shared environment, the shared
buffer pool and the live :class:`~repro.serving.session.ServingSession`
table; it creates, steps and closes sessions, and it alone decides
when a frame is shed to the root LoD.  :func:`build_service` builds one
from a scale name.  Two front ends drive it:

* the HTTP app (:mod:`repro.serving.http.app`, ``repro traffic``),
  which sheds a create past ``max_active`` with a 503;
* the round loop (:func:`serve_rounds`, ``repro serve``), which builds
  its service with no cap and queues sessions FIFO instead.

``repro serve`` creates N sessions (motion patterns drawn from the
seed), serves them in rounds, and emits a JSON-ready report: per-session
frame times and I/O attribution, pool hit rates, degraded-frame counts,
and an exact reconciliation of per-session accounting against the
shared clock.

The report deliberately contains *no wall-clock measurements*:
everything in it is a pure function of (sessions, seed, scale, eta,
frames, plan), so two runs with the same arguments must produce
byte-identical JSON — the CI serving-stress job diffs exactly that.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.core.hdov_tree import HDoVEnvironment
from repro.errors import ReproError, ServiceOverloadedError, WalkthroughError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.serving.prefetch import ServingPrefetcher
from repro.serving.session import ServingSession
from repro.storage.buffer import BufferPool
from repro.storage.disk import IOStats
from repro.storage.faults import FaultInjector, named_plan
from repro.walkthrough.metrics import frame_time_stats
from repro.walkthrough.session import make_session


def session_env(env: HDoVEnvironment,
                 pool: Optional[BufferPool]) -> HDoVEnvironment:
    """A per-session view: private flip state, shared storage.

    Files, stats ledgers, object store, ground truth and blob records
    are shared (by reference) with the parent environment; the scheme
    objects are cloned via ``session_view()`` so each session owns its
    current cell, and node reads go through the shared pool.
    """
    schemes = {}
    for scheme_name, scheme in env.schemes.items():
        view = scheme.session_view()
        view.page_cache = pool
        schemes[scheme_name] = view
    node_store = (env.node_store.with_pool(pool)
                  if pool is not None else env.node_store)
    return replace(env, schemes=schemes, node_store=node_store)


def _check_limits(max_active: Optional[int],
                  frame_budget_ms: Optional[float]) -> None:
    """An admission cap and a frame budget, when set, are positive."""
    if max_active is not None and max_active < 1:
        raise WalkthroughError(
            f"max_active must be >= 1, got {max_active}")
    if frame_budget_ms is not None and frame_budget_ms <= 0:
        raise WalkthroughError(
            f"frame_budget_ms must be > 0, got {frame_budget_ms}")


class WalkthroughService:
    """The session lifecycle both front ends drive.

    Sessions step one at a time, so the shared clock, the shared pool
    and the per-session attribution windows stay exact.  Admission
    control: at most ``max_active`` live sessions; a create beyond that
    is *shed* (raised as :class:`~repro.errors.ServiceOverloadedError`,
    which the HTTP app maps to 503), not queued — a network client
    retries, a queue would hide the overload the traffic report exists
    to measure.  Overload control: a session whose previous frame
    exceeded ``frame_budget_ms`` on the simulated clock has its next
    query shed to the root-LoD degraded answer.
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
        _check_limits(max_active, frame_budget_ms)
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
        #: Cross-session pool prefetcher handed to every session created
        #: from here on (``repro serve --prefetch`` sets it).
        self.prefetcher: Optional[ServingPrefetcher] = None
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
            evaluate_fidelity=self.evaluate_fidelity,
            prefetcher=self.prefetcher)
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
        session.step(shed_load=shed)
        self.frames_served += 1
        get_registry().counter(names.SERVING_FRAMES).inc()
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
        ``degraded`` — the service keeps answering either way (faults
        degrade fidelity, never availability)."""
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
            counts["pool"] = pool_summary(self.pool)
        return counts


def _series_total(registry: MetricsRegistry, name: str) -> float:
    """Sum a counter/gauge over every label set (0.0 when unused)."""
    return sum(instrument.value  # type: ignore[attr-defined]
               for instrument in registry.series(name).values())


def build_service(*, scale: str = "small", eta: float = 0.001,
                  frames: Optional[int] = None,
                  scheme: Optional[str] = None,
                  pool_pages: int = 256,
                  policy: str = "lru",
                  max_active: Optional[int] = None,
                  frame_budget_ms: Optional[float] = None,
                  evaluate_fidelity: bool = False) -> WalkthroughService:
    """Build a fresh environment + pool and wrap them in a service.

    ``pool_pages`` is the shared pool's capacity (0 serves unpooled:
    every session reads straight through ``pageio``); ``policy`` its
    replacement policy (``"lru"``/``"2q"``).  Build I/O is reset out of
    the serving ledger, so the first session's frames start from zero.
    """
    # Imported here: repro.experiments pulls in every experiment driver,
    # which the library layers must not depend on at import time.
    from repro.experiments.config import build_scale_environment, get_scale

    if pool_pages < 0:
        raise WalkthroughError(
            f"pool_pages must be >= 0, got {pool_pages}")
    if pool_pages == 0 and policy != "lru":
        raise WalkthroughError(
            "replacement policy needs a pool (pool_pages > 0)")
    experiment = get_scale(scale)
    env = build_scale_environment(experiment)
    env.reset_stats()
    pool = (BufferPool(pool_pages, name="serving", policy=policy)
            if pool_pages > 0 else None)
    num_frames = (frames if frames is not None
                  else experiment.session_frames)
    return WalkthroughService(
        env, pool=pool, eta=eta, scheme=scheme, frames=num_frames,
        street_pitch=experiment.city.pitch, max_active=max_active,
        frame_budget_ms=frame_budget_ms,
        cache_budget_bytes=experiment.visual_cache_budget_bytes,
        evaluate_fidelity=evaluate_fidelity)


def serve_rounds(service: WalkthroughService,
                 max_active: Optional[int] = None) -> Dict[str, object]:
    """Serve every live session of ``service`` to the end of its path.

    Each *round* admits waiting sessions into free slots (at most
    ``max_active`` run at once; the rest wait FIFO, in session-id
    order), then:

    * **phase 1** steps every active session one frame, in ascending
      session id, so the shared clock, the shared pool and the fault
      injector's RNG are consumed in one deterministic order;
    * **phase 2** issues the round's speculative prefetch batch.

    Returns the report's ``outcome`` section.  A fault the degradation
    ladder cannot absorb ends the run and is reported there instead of
    raised; a round it aborts adds nothing to ``frames_served``.
    """
    registry = get_registry()
    m_rounds = registry.counter(names.SERVING_ROUNDS)
    m_waits = registry.counter(names.SERVING_ADMISSION_WAITS)
    m_active = registry.gauge(names.SERVING_ACTIVE_SESSIONS)
    waiting: Deque[int] = deque(sorted(service.sessions))
    active: List[int] = []
    rounds = frames_served = 0
    error: Optional[str] = None
    try:
        while waiting or active:
            while waiting and (max_active is None
                               or len(active) < max_active):
                active.append(waiting.popleft())
            for session_id in waiting:
                service.sessions[session_id].admission_wait_rounds += 1
                m_waits.inc()
            m_active.set(len(active))
            rounds += 1
            m_rounds.inc()
            for session_id in active:
                service.step_session(session_id)
            frames_served += len(active)
            if service.prefetcher is not None:
                service.prefetcher.issue_round()
            active = [session_id for session_id in active
                      if not service.sessions[session_id].done]
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        # The loop exits (or aborts) with no session being served;
        # without this, post-run scrapes and the `repro serve` report
        # would show the last round's count as still active.
        m_active.set(0)
    return {"completed": error is None, "error": error,
            "rounds": rounds, "frames_served": frames_served}


def run_serve(*, sessions: int = 8, seed: int = 7,
              scale: str = "small", eta: float = 0.001,
              frames: Optional[int] = None,
              scheme: Optional[str] = None,
              max_active: Optional[int] = None,
              frame_budget_ms: Optional[float] = None,
              pool_pages: int = 256,
              policy: str = "lru",
              prefetch: bool = False,
              plan: Optional[str] = None,
              fault_seed: int = 0,
              include_frame_times: bool = True) -> Dict[str, object]:
    """Serve ``sessions`` concurrent walkthroughs; returns the report.

    Parameters
    ----------
    sessions:
        Number of concurrent walkthrough sessions.
    seed:
        Draws each session's motion pattern; same seed, same report.
    scale / eta / frames / scheme / pool_pages / policy:
        As in :func:`build_service`.
    max_active:
        Admission-control slot count (default: no limit).
    frame_budget_ms:
        Simulated per-frame deadline; a session whose previous frame
        exceeded it degrades its next query to the root internal LoD.
    prefetch:
        Enable the cross-session predictive pool prefetcher.  Requires
        a pool.
    plan / fault_seed:
        Optional named fault plan installed beneath the storage layer,
        to prove the service degrades instead of deadlocking.
    include_frame_times:
        Emit the full per-session ``frame_ms`` series (the CI diff
        wants maximum surface; benchmarks may turn it off).
    """
    if sessions < 1:
        raise WalkthroughError(f"sessions must be >= 1, got {sessions}")
    _check_limits(max_active, frame_budget_ms)
    if prefetch and pool_pages == 0:
        raise WalkthroughError("prefetch needs a pool (pool_pages > 0)")
    fault_plan = named_plan(plan) if plan is not None else None
    registry = MetricsRegistry()
    with use_registry(registry):
        service = build_service(
            scale=scale, eta=eta, frames=frames, scheme=scheme,
            pool_pages=pool_pages, policy=policy,
            frame_budget_ms=frame_budget_ms, evaluate_fidelity=True)
        env, pool = service.env, service.pool
        prefetcher = (ServingPrefetcher(pool, env)
                      if prefetch and pool is not None else None)
        service.prefetcher = prefetcher

        # Motion patterns are drawn from the seed so a fleet of
        # sessions exercises all three of the paper's patterns.
        rng = np.random.default_rng(seed)
        for _ in range(sessions):
            service.create_session(int(rng.integers(1, 4)))
        served = list(service.sessions.values())

        injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            injector = FaultInjector(fault_plan, seed=fault_seed)
            injector.install(*env.files())
        try:
            outcome = serve_rounds(service, max_active)
        finally:
            if injector is not None:
                injector.uninstall()

        report: Dict[str, object] = {
            "serve": {
                "scale": scale,
                "sessions": sessions,
                "seed": seed,
                "eta": eta,
                "scheme": served[0].delta.search.scheme.name,
                "frames": service.frames,
                "max_active": (max_active if max_active is not None
                               else sessions),
                "frame_budget_ms": frame_budget_ms,
                "pool_pages": pool_pages,
                "policy": (pool.policy.name if pool is not None else None),
                "prefetch": bool(prefetcher is not None),
                "plan": fault_plan.name if fault_plan is not None else None,
                "fault_seed": fault_seed if fault_plan is not None else None,
            },
            "outcome": outcome,
            "sessions": [session_report(s, include_frame_times)
                         for s in served],
            "pool": _pool_report(pool),
            "prefetch": (prefetcher.report()
                         if prefetcher is not None else None),
            "reconciliation": _reconcile(env, served, pool, prefetcher),
        }
        if injector is not None:
            report["faults"] = {
                "injected": dict(sorted(injector.injected.items())),
                "total_injected": injector.total_injected(),
                "frames_degraded_total":
                    registry.value(names.FRAMES_DEGRADED),
            }
        return report


def session_report(session: ServingSession,
                    include_frame_times: bool) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "id": session.session_id,
        "path": session.path.name,
        "frames": len(session.frames),
        "queries": session.queries,
        "degraded_frames": session.degraded_frames(),
        "overload_degraded": session.overload_degraded,
        "admission_wait_rounds": session.admission_wait_rounds,
        "light": session.light_total.as_dict(),
        "heavy": session.heavy_total.as_dict(),
        "pool": {
            "hits": session.pool_hits,
            "misses": session.pool_misses,
        },
        "fidelity_mean": session.fidelity_mean(),
    }
    if session.frames:
        stats = frame_time_stats([f.frame_ms for f in session.frames])
        entry["frame_ms"] = {
            "mean": stats.mean_ms,
            "variance": stats.variance,
            "max": stats.maximum_ms,
        }
    if include_frame_times:
        entry["frame_times"] = [f.frame_ms for f in session.frames]
    return entry


def pool_summary(pool: BufferPool) -> Dict[str, object]:
    """The pool counters ``/stats`` and the traffic report carry."""
    return {
        "capacity": pool.capacity,
        "hits": pool.hits,
        "misses": pool.misses,
        "evictions": pool.evictions,
        "hit_rate": pool.hit_rate,
    }


def _pool_report(pool: Optional[BufferPool]) -> Optional[Dict[str, object]]:
    if pool is None:
        return None
    return {
        "capacity": pool.capacity,
        "policy": pool.policy.name,
        "policy_stats": pool.policy.stats(),
        "resident_pages": pool.resident_pages,
        "hits": pool.hits,
        "misses": pool.misses,
        "evictions": pool.evictions,
        "hit_rate": pool.hit_rate,
        "prefetch": pool.prefetch_stats(),
    }


def _reconcile(env: HDoVEnvironment, served: List[ServingSession],
               pool: Optional[BufferPool],
               prefetcher: Optional[ServingPrefetcher] = None,
               ) -> Dict[str, object]:
    """Per-session attribution must add up to the shared ledgers.

    Every integer :class:`IOStats` field balances exactly (sessions are
    stepped one at a time, so the snapshot/delta windows partition the
    shared counters); simulated ms balance within float-rounding
    tolerance (:meth:`IOStats.mismatches`).  With prefetch on, the
    speculative batches' charges live in the prefetcher's own ledger —
    never a session's — and are added back here, so the balance stays
    exact instead of leaking the speculation into session attribution.
    """
    sum_light = IOStats()
    sum_heavy = IOStats()
    for session in served:
        sum_light += session.light_total
        sum_heavy += session.heavy_total
    if prefetcher is not None:
        sum_light += prefetcher.light_total
        sum_heavy += prefetcher.heavy_total
    light_off = sum_light.mismatches(env.light_stats)
    heavy_off = sum_heavy.mismatches(env.heavy_stats)
    result: Dict[str, object] = {
        "light_sessions": sum_light.as_dict(),
        "light_environment": env.light_stats.as_dict(),
        "heavy_sessions": sum_heavy.as_dict(),
        "heavy_environment": env.heavy_stats.as_dict(),
        "light_ios_balanced": set(light_off) <= {"simulated_ms"},
        "heavy_ios_balanced": set(heavy_off) <= {"simulated_ms"},
        "simulated_ms_balanced": "simulated_ms" not in light_off + heavy_off,
    }
    if prefetcher is not None:
        result["prefetch_light"] = prefetcher.light_total.as_dict()
        result["prefetch_heavy"] = prefetcher.heavy_total.as_dict()
    if pool is not None:
        result["pool_balanced"] = (
            sum(s.pool_hits for s in served) == pool.hits
            and sum(s.pool_misses for s in served) == pool.misses)
    return result
