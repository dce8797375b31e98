"""``repro serve`` — the multi-session walkthrough service runner.

Builds a fresh environment against a fresh metrics registry, creates N
sessions (motion patterns drawn from the seed), serves them through one
shared buffer pool under the round scheduler, and emits a JSON-ready
report: per-session frame times and I/O attribution, pool hit rates,
degraded-frame counts, and an exact reconciliation of per-session
accounting against the shared clock.

The report deliberately contains *no wall-clock measurements*:
everything in it is a pure function of (sessions, seed, scale, eta,
frames, plan), so two runs with the same arguments must produce
byte-identical JSON — the CI serving-stress job diffs exactly that.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Dict, List, Optional

import numpy as np

from repro.core.hdov_tree import HDoVEnvironment, build_environment
from repro.errors import ReproError, WalkthroughError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.profile import _environment_files
from repro.scene.city import generate_city
from repro.serving.pooled import PooledNodeStore
from repro.serving.prefetch import ServingPrefetcher
from repro.serving.scheduler import SessionScheduler
from repro.serving.session import ServingSession
from repro.storage.buffer import BufferPool
from repro.storage.disk import IOStats
from repro.storage.faults import FaultInjector, named_plan
from repro.visibility.cells import CellGrid
from repro.walkthrough.metrics import frame_time_stats
from repro.walkthrough.session import make_session

#: The integer IOStats counters, which must reconcile exactly; only the
#: float ``simulated_ms`` is compared within :data:`_MS_RTOL`.
_EXACT_FIELDS = tuple(f.name for f in fields(IOStats)
                      if f.name != "simulated_ms")

#: Relative tolerance for simulated-ms reconciliation: per-session ms
#: are telescoping float differences of the shared clock, so their sum
#: can drift from the total by rounding ulps (the integer I/O counts
#: must balance exactly).
_MS_RTOL = 1e-9


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
    node_store = (PooledNodeStore(env.node_store, pool)
                  if pool is not None else env.node_store)
    return replace(env, schemes=schemes, node_store=node_store)


def _stats_dict(stats: IOStats) -> Dict[str, object]:
    return {
        "reads": stats.reads,
        "writes": stats.writes,
        "seeks": stats.seeks,
        "sequential_reads": stats.sequential_reads,
        "bytes_read": stats.bytes_read,
        "bytes_written": stats.bytes_written,
        "simulated_ms": stats.simulated_ms,
    }


def _ios_equal(parts: IOStats, total: IOStats) -> bool:
    """Every integer counter of the two ledgers agrees exactly."""
    return all(getattr(parts, name) == getattr(total, name)
               for name in _EXACT_FIELDS)


def _ms_close(total: float, parts: float) -> bool:
    scale = max(abs(total), abs(parts), 1.0)
    return abs(total - parts) <= _MS_RTOL * scale


def run_serve(*, sessions: int = 8, seed: int = 7,
              scale: str = "small", eta: float = 0.001,
              frames: Optional[int] = None,
              scheme: Optional[str] = None,
              max_active: Optional[int] = None,
              frame_budget_ms: Optional[float] = None,
              pool_pages: int = 256,
              policy: Optional[str] = None,
              prefetch: Optional[bool] = None,
              prefetch_max_vpages: int = 8,
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
    scale / eta / frames / scheme:
        As in ``repro run`` / ``repro chaos``.
    max_active:
        Admission-control slot count (default: no limit).
    frame_budget_ms:
        Simulated per-frame deadline; a session whose previous frame
        exceeded it degrades its next query to the root internal LoD.
    pool_pages:
        Shared buffer-pool capacity in pages; 0 serves unpooled (every
        session reads straight through ``pageio``, the sequential
        path's exact I/O behaviour).
    policy:
        Pool replacement policy (``"lru"``/``"2q"``); ``None`` takes
        the scale config's ``serving_policy`` (default ``"lru"``, the
        historical behavior, byte for byte).
    prefetch:
        Enable the cross-session predictive pool prefetcher; ``None``
        takes the scale config's ``serving_prefetch`` (default off).
        Requires a pool.
    prefetch_max_vpages:
        V-pages chased per predicted cell per round (see
        ``repro.serving.prefetch``).
    plan / fault_seed:
        Optional named fault plan installed beneath the storage layer,
        to prove the service degrades instead of deadlocking.
    include_frame_times:
        Emit the full per-session ``frame_ms`` series (the CI diff
        wants maximum surface; benchmarks may turn it off).
    """
    # Imported here: repro.experiments pulls in every experiment driver,
    # which the library layers must not depend on at import time.
    from repro.experiments.config import get_scale

    if sessions < 1:
        raise WalkthroughError(f"sessions must be >= 1, got {sessions}")
    if pool_pages < 0:
        raise WalkthroughError(
            f"pool_pages must be >= 0, got {pool_pages}")
    fault_plan = named_plan(plan) if plan is not None else None
    experiment = get_scale(scale)
    effective_policy = (policy if policy is not None
                        else experiment.serving_policy)
    effective_prefetch = (prefetch if prefetch is not None
                          else experiment.serving_prefetch)
    if pool_pages == 0:
        if policy is not None and policy != "lru":
            raise WalkthroughError(
                "replacement policy needs a pool (pool_pages > 0)")
        if effective_prefetch:
            raise WalkthroughError(
                "prefetch needs a pool (pool_pages > 0)")
    registry = MetricsRegistry()
    with use_registry(registry):
        scene = generate_city(experiment.city)
        grid = CellGrid.covering(scene.bounds(), experiment.cell_size)
        env = build_environment(scene, grid, experiment.hdov)
        num_frames = (frames if frames is not None
                      else experiment.session_frames)
        pool = (BufferPool(pool_pages, name="serving",
                           policy=effective_policy)
                if pool_pages > 0 else None)
        prefetcher = (ServingPrefetcher(pool, env,
                                        max_vpages=prefetch_max_vpages)
                      if effective_prefetch and pool is not None else None)

        # Motion patterns are drawn from the seed so a fleet of
        # sessions exercises all three of the paper's patterns.
        rng = np.random.default_rng(seed)
        m_sessions = registry.counter(names.SERVING_SESSIONS)
        served: List[ServingSession] = []
        for session_id in range(sessions):
            pattern = int(rng.integers(1, 4))
            path = make_session(pattern, scene.bounds(),
                                num_frames=num_frames,
                                street_pitch=experiment.city.pitch)
            view = session_env(env, pool)
            served.append(ServingSession(
                session_id, path, view, eta=eta, scheme=scheme,
                pool=pool, prefetcher=prefetcher,
                cache_budget_bytes=experiment.visual_cache_budget_bytes))
            m_sessions.inc()

        # Build I/O stays out of the serving ledger.
        env.reset_stats()

        files = _environment_files(env)
        injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            injector = FaultInjector(fault_plan, seed=fault_seed)
            injector.install(*files)
        scheduler = SessionScheduler(served, max_active=max_active,
                                     frame_budget_ms=frame_budget_ms,
                                     prefetcher=prefetcher)
        error: Optional[str] = None
        try:
            scheduler.run()
        except ReproError as exc:
            # Only a fault the degradation ladder cannot absorb lands
            # here; the report says so instead of crashing.
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if injector is not None:
                injector.uninstall()

        completed = error is None
        report: Dict[str, object] = {
            "serve": {
                "scale": scale,
                "sessions": sessions,
                "seed": seed,
                "eta": eta,
                "scheme": served[0].delta.search.scheme.name,
                "frames": num_frames,
                "max_active": scheduler.max_active,
                "frame_budget_ms": frame_budget_ms,
                "pool_pages": pool_pages,
                "policy": (pool.policy.name if pool is not None else None),
                "prefetch": bool(prefetcher is not None),
                "plan": fault_plan.name if fault_plan is not None else None,
                "fault_seed": fault_seed if fault_plan is not None else None,
            },
            "outcome": {
                "completed": completed,
                "error": error,
                "rounds": scheduler.rounds,
                "frames_served": scheduler.frames_served,
            },
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
        "light": _stats_dict(session.light_total),
        "heavy": _stats_dict(session.heavy_total),
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
    tolerance.  With prefetch on, the speculative batches' charges live
    in the prefetcher's own ledger — never a session's — and are added
    back here, so the balance stays exact instead of leaking the
    speculation into session attribution.
    """
    sum_light = IOStats()
    sum_heavy = IOStats()
    for session in served:
        sum_light += session.light_total
        sum_heavy += session.heavy_total
    if prefetcher is not None:
        sum_light += prefetcher.light_total
        sum_heavy += prefetcher.heavy_total
    ms_ok = (_ms_close(env.light_stats.simulated_ms,
                       sum_light.simulated_ms)
             and _ms_close(env.heavy_stats.simulated_ms,
                           sum_heavy.simulated_ms))
    result: Dict[str, object] = {
        "light_sessions": _stats_dict(sum_light),
        "light_environment": _stats_dict(env.light_stats),
        "heavy_sessions": _stats_dict(sum_heavy),
        "heavy_environment": _stats_dict(env.heavy_stats),
        "light_ios_balanced": _ios_equal(sum_light, env.light_stats),
        "heavy_ios_balanced": _ios_equal(sum_heavy, env.heavy_stats),
        "simulated_ms_balanced": ms_ok,
    }
    if prefetcher is not None:
        result["prefetch_light"] = _stats_dict(prefetcher.light_total)
        result["prefetch_heavy"] = _stats_dict(prefetcher.heavy_total)
    if pool is not None:
        result["pool_balanced"] = (
            sum(s.pool_hits for s in served) == pool.hits
            and sum(s.pool_misses for s in served) == pool.misses)
    return result
