"""One served walkthrough session, advanced frame by frame.

:class:`ServingSession` drives the VISUAL frame body
(:class:`~repro.walkthrough.visual.FrameStepper`: query on a cell
crossing, delta fetch, frame-time model, inline fidelity scoring) one
frame per ``step()``.  The service steps sessions one at a time (the
round loop in ascending session id); all I/O, all shared-clock charges
and all shared-pool traffic of a frame happen inside its ``step()``,
which is what makes the per-session attribution exact and the whole
service bit-deterministic.  What serving adds to the frame body is that
attribution: the pool hit/miss window, the per-session I/O ledgers,
the query and shed counts, and the prefetcher's observation.

Overload shedding: when the service flags that the session's previous
frame blew the frame budget, a frame that would query instead answers
from the root's internal LoD (the degradation ladder, invoked
proactively) — cheap, complete, coarse — and the next frame re-queries
at full quality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.delta import DeltaSearch
from repro.core.hdov_tree import HDoVEnvironment
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage.buffer import BufferPool
from repro.storage.disk import IOStats
from repro.walkthrough.frame import FrameModel, FrameRecord
from repro.walkthrough.session import Session
from repro.walkthrough.visual import FrameStepper

if TYPE_CHECKING:
    from repro.serving.prefetch import ServingPrefetcher


class ServingSession:
    """A recorded path replayed one frame per step.

    Parameters
    ----------
    session_id:
        Stable id; the round loop steps sessions in ascending id order.
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
        self.pool = pool
        self.prefetcher = prefetcher
        self.stepper = FrameStepper(
            env, eta=eta, scheme=scheme, frame_model=frame_model,
            evaluate_fidelity=evaluate_fidelity,
            cache_budget_bytes=cache_budget_bytes)
        self.frames: List[FrameRecord] = []
        self.next_frame = 0
        self.queries = 0
        self.overload_degraded = 0
        self.admission_wait_rounds = 0
        self.last_frame_ms = 0.0
        #: Per-session I/O attribution, exact: deltas of the shared
        #: stats taken around each of this session's frames.
        self.light_total = IOStats()
        self.heavy_total = IOStats()
        self.pool_hits = 0
        self.pool_misses = 0

    @property
    def delta(self) -> DeltaSearch:
        return self.stepper.delta

    @property
    def done(self) -> bool:
        return self.next_frame >= self.path.num_frames

    def step(self, *, shed_load: bool = False) -> None:
        """Advance one frame.

        The shared-clock and shared-pool deltas taken here attribute
        every charge of this frame to this session.
        """
        if self.done:
            return
        position = self.path.waypoints[self.next_frame].position_array()
        pool = self.pool
        if pool is not None:
            hits0, misses0 = pool.hits, pool.misses
        stepper = self.stepper
        record, light, heavy = stepper.step(self.next_frame, position,
                                            shed_load=shed_load)
        if stepper.queried:
            self.queries += 1
        if stepper.shed:
            self.overload_degraded += 1
            get_registry().counter(names.SERVING_OVERLOAD_DEGRADED).inc()
        self.light_total += light
        self.heavy_total += heavy
        if pool is not None:
            self.pool_hits += pool.hits - hits0
            self.pool_misses += pool.misses - misses0
        self.frames.append(record)
        self.last_frame_ms = record.frame_ms
        self.next_frame += 1
        if self.prefetcher is not None:
            # Planning only (no I/O): runs after the accounting window
            # closes, so the session's ledger never sees prefetch work.
            assert record.cell_id is not None
            self.prefetcher.observe(self.session_id, record.cell_id,
                                    position, self.delta.search.scheme)

    # -- reporting ------------------------------------------------------------

    def degraded_frames(self) -> int:
        return sum(1 for f in self.frames if f.degraded > 0)

    def fidelity_mean(self) -> float:
        scored = [f.fidelity for f in self.frames if f.fidelity == f.fidelity]
        return sum(scored) / len(scored) if scored else float("nan")

    def __repr__(self) -> str:
        return (f"ServingSession(id={self.session_id}, "
                f"frame={self.next_frame}/{self.path.num_frames})")
