"""Round-based session scheduling with admission control.

The scheduler advances every active session by one frame per *round*,
on one thread:

* **phase 1** (query + accounting + fidelity) steps each session in
  ascending session id, so the shared simulated clock, the shared
  buffer pool and the fault injector's RNG are consumed in one
  deterministic order, making the whole service a pure function of
  (sessions, seed, scale, eta, frames, plan); each step scores its
  frame's fidelity inline;
* **phase 2** issues the round's speculative prefetch batch.

Admission control: at most ``max_active`` sessions run concurrently;
the rest wait in FIFO (session id) order and are admitted as slots
free up.  Overload control: a session whose previous frame exceeded
``frame_budget_ms`` on the *simulated* clock has its next query shed
to the root-LoD degraded answer instead of queueing work unboundedly.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Sequence

from repro.errors import WalkthroughError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.serving.session import ServingSession

if TYPE_CHECKING:
    from repro.serving.prefetch import ServingPrefetcher


class SessionScheduler:
    """Drives N sessions to completion in deterministic rounds."""

    def __init__(self, sessions: Sequence[ServingSession], *,
                 max_active: Optional[int] = None,
                 frame_budget_ms: Optional[float] = None,
                 prefetcher: Optional["ServingPrefetcher"] = None) -> None:
        if max_active is not None and max_active < 1:
            raise WalkthroughError(
                f"max_active must be >= 1, got {max_active}")
        if frame_budget_ms is not None and frame_budget_ms <= 0:
            raise WalkthroughError(
                f"frame_budget_ms must be > 0, got {frame_budget_ms}")
        self.sessions = sorted(sessions, key=lambda s: s.session_id)
        self.max_active = (max_active if max_active is not None
                           else max(len(self.sessions), 1))
        self.frame_budget_ms = frame_budget_ms
        self.prefetcher = prefetcher
        self.rounds = 0
        self.frames_served = 0

    def run(self) -> None:
        """Serve every session to the end of its path."""
        registry = get_registry()
        m_rounds = registry.counter(names.SERVING_ROUNDS)
        m_frames = registry.counter(names.SERVING_FRAMES)
        m_waits = registry.counter(names.SERVING_ADMISSION_WAITS)
        m_active = registry.gauge(names.SERVING_ACTIVE_SESSIONS)
        waiting: Deque[ServingSession] = deque(self.sessions)
        active: List[ServingSession] = []
        try:
            while waiting or active:
                while waiting and len(active) < self.max_active:
                    active.append(waiting.popleft())
                for session in waiting:
                    session.admission_wait_rounds += 1
                    m_waits.inc()
                m_active.set(len(active))
                self.rounds += 1
                m_rounds.inc()

                # Phase 1 — query + accounting, session-id order.  A
                # round a fault aborts adds nothing to frames_served.
                served = 0
                for session in active:
                    shed = (self.frame_budget_ms is not None
                            and session.last_frame_ms
                            > self.frame_budget_ms)
                    session.step(shed_load=shed)
                    served += 1
                    m_frames.inc()
                self.frames_served += served

                # Phase 2 — the round's prefetch batch.
                if self.prefetcher is not None:
                    self.prefetcher.issue_round()

                active = [s for s in active if not s.done]
        finally:
            # The loop exits (or aborts) with no session being served;
            # without this, post-run scrapes and the `repro serve`
            # report would show the last round's count as still active.
            m_active.set(0)

    def __repr__(self) -> str:
        return (f"SessionScheduler(sessions={len(self.sessions)}, "
                f"max_active={self.max_active}, rounds={self.rounds})")
