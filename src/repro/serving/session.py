"""One served walkthrough session, advanced frame by frame.

:class:`ServingSession` mirrors the frame body of
:class:`~repro.walkthrough.visual.VisualSystem` (query on cell change,
delta fetch, frame-time model) but exposes it as a ``step()`` the
scheduler drives one frame at a time, in *two phases*:

* **phase 1 — query + accounting** (``step``): the scheduler steps
  sessions one at a time, in ascending session id.  All I/O, all
  shared-clock charges, and all shared-pool traffic happen here, which
  is what makes the per-session attribution exact and the whole
  service bit-deterministic.
* **phase 2 — fidelity scoring** (the thunk ``step`` returns): pure
  read-only math over the environment's ground truth.  The score is
  installed at the end of the round via :meth:`install_fidelity`.

Overload shedding: when the scheduler flags that the session's previous
frame blew the frame budget, a frame that would query instead answers
from the root's internal LoD (the PR-3 degradation ladder, invoked
proactively) — cheap, complete, coarse — and the next frame re-queries
at full quality.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, List, Optional

from typing import TYPE_CHECKING

from repro.core.delta import DeltaSearch
from repro.core.hdov_tree import HDoVEnvironment
from repro.core.search import HDoVSearch, SearchResult

if TYPE_CHECKING:
    from repro.serving.prefetch import ServingPrefetcher
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage.buffer import BufferPool
from repro.storage.disk import IOStats
from repro.walkthrough.frame import FrameModel, FrameRecord
from repro.walkthrough.metrics import FidelityMetric
from repro.walkthrough.session import Session


class ServingSession:
    """A recorded path replayed one frame per scheduler round.

    Parameters
    ----------
    session_id:
        Stable id; the scheduler steps sessions in ascending id order.
    path:
        The recorded waypoint sequence.
    env:
        This session's *view* of the shared environment (private scheme
        flip state, shared files/stats/pool — see ``service.py``).
    pool:
        The shared buffer pool, for per-session hit/miss attribution
        (``None`` when serving unpooled).
    """

    def __init__(self, session_id: int, path: Session,
                 env: HDoVEnvironment, *, eta: float,
                 scheme: Optional[str] = None,
                 pool: Optional[BufferPool] = None,
                 frame_model: Optional[FrameModel] = None,
                 cache_budget_bytes: Optional[int] = None,
                 evaluate_fidelity: bool = True,
                 prefetcher: Optional["ServingPrefetcher"] = None) -> None:
        self.session_id = session_id
        self.path = path
        self.env = env
        self.eta = eta
        self.pool = pool
        self.prefetcher = prefetcher
        self.frame_model = frame_model or FrameModel()
        self.evaluate_fidelity = evaluate_fidelity
        searcher = HDoVSearch(env, scheme, fetch_models=False)
        self.delta = DeltaSearch(searcher,
                                 cache_budget_bytes=cache_budget_bytes)
        self._fidelity = FidelityMetric(env)
        self.frames: List[FrameRecord] = []
        self.next_frame = 0
        self.queries = 0
        self.overload_degraded = 0
        self.admission_wait_rounds = 0
        self.last_frame_ms = 0.0
        #: Per-session I/O attribution, exact: deltas of the shared
        #: stats taken around this session's phase 1.
        self.light_total = IOStats()
        self.heavy_total = IOStats()
        self.pool_hits = 0
        self.pool_misses = 0
        self._last_cell: Optional[int] = None
        self._last_result: Optional[SearchResult] = None
        self._last_fidelity = float("nan")
        self._last_degraded = 0

    @property
    def done(self) -> bool:
        return self.next_frame >= self.path.num_frames

    # -- phase 1: query + accounting ----------------------------------------

    def step(self, *, shed_load: bool = False) \
            -> Optional[Callable[[], float]]:
        """Advance one frame; returns the phase-2 scoring thunk, if any.

        The shared-clock and shared-pool deltas taken here attribute
        every charge of this frame to this session.
        """
        if self.done:
            return None
        waypoint = self.path.waypoints[self.next_frame]
        position = waypoint.position_array()
        cell_id = self.env.grid.cell_of_point(position)
        snap = self.env.snapshot()
        pool = self.pool
        if pool is not None:
            hits0, misses0 = pool.hits, pool.misses
        queried = cell_id != self._last_cell or self._last_result is None
        thunk: Optional[Callable[[], float]] = None
        if queried:
            self.queries += 1
            if shed_load and self._last_result is not None:
                # Over budget: answer from the root's internal LoD and
                # force a full re-query next frame.  (The very first
                # frame always runs a full query — there is nothing
                # coarser to show yet.)
                result = self.delta.query_cell_degraded(cell_id, self.eta)
                self.overload_degraded += 1
                get_registry().counter(
                    names.SERVING_OVERLOAD_DEGRADED).inc()
                self._last_cell = None
            else:
                result = self.delta.query_cell(cell_id, self.eta)
                self._last_cell = cell_id
            self._last_result = result
            self._last_degraded = result.degraded
            if self.evaluate_fidelity:
                thunk = partial(self._fidelity.score_hdov, result)
        light, heavy = self.env.delta(snap)
        self.light_total += light
        self.heavy_total += heavy
        if pool is not None:
            self.pool_hits += pool.hits - hits0
            self.pool_misses += pool.misses - misses0
        io_ms = light.simulated_ms + heavy.simulated_ms
        assert self._last_result is not None
        polygons = self._last_result.total_polygons
        if self._last_degraded:
            # Created lazily (and fetched per call, not cached):
            # degradation-free runs register no series, and registry
            # swaps by `repro serve` / `repro profile` stay safe.
            get_registry().counter(names.FRAMES_DEGRADED).inc()
        frame_ms = self.frame_model.frame_ms(io_ms, polygons)
        self.frames.append(FrameRecord(
            frame_index=self.next_frame,
            cell_id=cell_id,
            io_ms=io_ms,
            light_ios=light.total_ios,
            heavy_ios=heavy.total_ios,
            polygons=polygons,
            frame_ms=frame_ms,
            search_ms=io_ms,
            fidelity=self._last_fidelity,
            resident_bytes=(self.delta.resident_bytes
                            + self.delta.search.scheme.resident_bytes()),
            degraded=self._last_degraded,
            back_seeks=light.back_seeks + heavy.back_seeks,
            forward_seeks=light.forward_seeks + heavy.forward_seeks,
        ))
        self.last_frame_ms = frame_ms
        self.next_frame += 1
        if self.prefetcher is not None:
            # Planning only (no I/O): runs after the accounting window
            # closes, so the session's ledger never sees prefetch work.
            self.prefetcher.observe(self.session_id, cell_id, position,
                                    self.delta.search.scheme)
        return thunk

    # -- phase 2: fidelity -------------------------------------------------

    def install_fidelity(self, fidelity: float) -> None:
        """Install a phase-2 score into the frame that produced it."""
        self._last_fidelity = fidelity
        self.frames[-1] = replace(self.frames[-1], fidelity=fidelity)

    # -- reporting ------------------------------------------------------------

    def degraded_frames(self) -> int:
        return sum(1 for f in self.frames if f.degraded > 0)

    def fidelity_mean(self) -> float:
        scored = [f.fidelity for f in self.frames if f.fidelity == f.fidelity]
        return sum(scored) / len(scored) if scored else float("nan")

    def __repr__(self) -> str:
        return (f"ServingSession(id={self.session_id}, "
                f"frame={self.next_frame}/{self.path.num_frames})")
