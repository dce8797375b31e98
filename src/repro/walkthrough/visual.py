"""Walkthrough drivers: the VISUAL system and the REVIEW wrapper.

VISUAL's frame body is :class:`FrameStepper`, written once here and
driven by :class:`VisualSystem`, by
:class:`~repro.walkthrough.adaptive.AdaptiveVisualSystem` and by the
serving layer's :class:`~repro.serving.session.ServingSession`.

Both systems replay a recorded
:class:`~repro.walkthrough.session.Session` frame by frame, charging
database work to the shared simulated disk and producing
:class:`~repro.walkthrough.frame.FrameRecord` series that the Figure
10/12 and Table 3 experiments summarise.

Query cadence matters for the frame-time *shape*:

* VISUAL's visibility data is per cell, so the answer set only changes
  when the viewpoint crosses a cell boundary; frames inside a cell reuse
  the previous result (temporal coherence) and pay rendering only.  Cell
  crossings pay the flip, the traversal, and the delta fetches — small,
  frequent spikes.
* REVIEW oversizes its query box relative to the frustum and re-queries
  only when the viewpoint drifts past a slack distance — rare, tall
  spikes (the "choppiness" of Figure 10(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.review import ReviewSystem
from repro.core.delta import DeltaSearch
from repro.core.hdov_tree import HDoVEnvironment
from repro.core.search import HDoVSearch, SearchResult
from repro.errors import WalkthroughError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.storage.disk import IOStats
from repro.walkthrough.frame import FrameModel, FrameRecord
from repro.walkthrough.metrics import FidelityMetric
from repro.walkthrough.session import Session


@dataclass
class WalkthroughReport:
    """All frames of one replay plus identity metadata."""

    system: str
    session: str
    frames: List[FrameRecord]

    def frame_times(self) -> List[float]:
        return [f.frame_ms for f in self.frames]

    def search_times(self) -> List[float]:
        return [f.search_ms for f in self.frames]

    def avg_search_ms(self) -> float:
        return sum(self.search_times()) / len(self.frames)

    def avg_query_search_ms(self) -> float:
        """Mean search time over frames that actually issued a query."""
        queried = [f.search_ms for f in self.frames if f.total_ios > 0]
        if not queried:
            return 0.0
        return sum(queried) / len(queried)

    def avg_ios(self) -> float:
        return sum(f.total_ios for f in self.frames) / len(self.frames)

    def avg_query_ios(self) -> float:
        """Mean I/O count over frames that actually issued a query."""
        queried = [f.total_ios for f in self.frames if f.total_ios > 0]
        if not queried:
            return 0.0
        return sum(queried) / len(queried)

    def avg_fidelity(self) -> float:
        scored = [f.fidelity for f in self.frames if f.fidelity == f.fidelity]
        return sum(scored) / len(scored) if scored else float("nan")

    def peak_resident_bytes(self) -> int:
        return max((f.resident_bytes for f in self.frames), default=0)

    def degraded_frames(self) -> int:
        """Frames rendered with at least one degraded subtree."""
        return sum(1 for f in self.frames if f.degraded > 0)

    def total_degradations(self) -> int:
        """Sum of per-frame degraded-subtree counts."""
        return sum(f.degraded for f in self.frames)


class FrameStepper:
    """The one VISUAL frame body, shared by every driver that answers
    frames with the HDoV-tree.

    Each :meth:`step` looks up the viewpoint's cell; on a cell crossing
    it runs the Figure-3 traversal through the delta search (or, when
    shedding load, the root's internal LoD), then charges the frame's
    I/O and builds its :class:`FrameRecord`.  Frames inside a cell reuse
    the last answer and pay rendering only.
    """

    def __init__(self, env: HDoVEnvironment, *, eta: float,
                 scheme: Optional[str] = None,
                 frame_model: Optional[FrameModel] = None,
                 evaluate_fidelity: bool = True,
                 cache_budget_bytes: Optional[int] = None) -> None:
        if eta < 0:
            raise WalkthroughError(f"eta must be >= 0, got {eta}")
        self.env = env
        self.eta = eta
        self.frame_model = frame_model or FrameModel()
        self.evaluate_fidelity = evaluate_fidelity
        searcher = HDoVSearch(env, scheme, fetch_models=False)
        self.delta = DeltaSearch(searcher,
                                 cache_budget_bytes=cache_budget_bytes)
        self.fidelity = FidelityMetric(env)
        #: What the last step did: ran a query, and shed it to the
        #: root's internal LoD.
        self.queried = False
        self.shed = False
        self.reset()

    def reset(self) -> None:
        """Forget the resident models and the last answer."""
        self.delta.clear()
        self.last_cell: Optional[int] = None
        self.last_result: Optional[SearchResult] = None
        self.last_fidelity = float("nan")
        self.last_degraded = 0

    def retune(self, eta: float) -> None:
        """Switch to ``eta``; the next frame re-queries at it."""
        self.eta = eta
        self.last_cell = None

    def step(self, index: int, position: np.ndarray, *,
             shed_load: bool = False) -> Tuple[FrameRecord, IOStats, IOStats]:
        """Answer one frame; returns its record and its light and heavy
        I/O.

        With ``shed_load``, a frame that would query answers from the
        root's internal LoD instead and forces a full re-query next
        frame.  The very first frame always runs a full query: there is
        nothing coarser to show yet.
        """
        cell_id = self.env.grid.cell_of_point(position)
        snap = self.env.snapshot()
        with span("frame", index=index, cell=cell_id) as sp:
            self.queried = (cell_id != self.last_cell
                            or self.last_result is None)
            self.shed = (self.queried and shed_load
                         and self.last_result is not None)
            if self.queried:
                if self.shed:
                    result = self.delta.query_cell_degraded(cell_id,
                                                            self.eta)
                    self.last_cell = None
                else:
                    result = self.delta.query_cell(cell_id, self.eta)
                    self.last_cell = cell_id
                self.last_result = result
                self.last_degraded = result.degraded
                if self.evaluate_fidelity:
                    self.last_fidelity = self.fidelity.score_hdov(result)
            light, heavy = self.env.delta(snap)
            if sp is not None:
                sp.attrs.update(queried=self.queried,
                                light_ios=light.total_ios,
                                heavy_ios=heavy.total_ios,
                                light_ms=light.simulated_ms,
                                heavy_ms=heavy.simulated_ms)
        io_ms = light.simulated_ms + heavy.simulated_ms
        assert self.last_result is not None
        polygons = self.last_result.total_polygons
        if self.last_degraded:
            # Created lazily (and fetched per call, not cached):
            # fault-free runs register no series, and registry swaps
            # by `repro chaos` / `repro profile` stay safe.
            get_registry().counter(names.FRAMES_DEGRADED).inc()
        record = FrameRecord(
            frame_index=index,
            cell_id=cell_id,
            io_ms=io_ms,
            light_ios=light.total_ios,
            heavy_ios=heavy.total_ios,
            polygons=polygons,
            frame_ms=self.frame_model.frame_ms(io_ms, polygons),
            search_ms=io_ms,
            fidelity=self.last_fidelity,
            resident_bytes=(self.delta.resident_bytes
                            + self.delta.search.scheme.resident_bytes()),
            degraded=self.last_degraded,
            back_seeks=light.back_seeks + heavy.back_seeks,
            forward_seeks=light.forward_seeks + heavy.forward_seeks,
        )
        return record, light, heavy


class VisualSystem:
    """The paper's prototype: HDoV-tree search + delta fetch.

    Parameters
    ----------
    env:
        Built environment.
    eta:
        The DoV threshold driving the traversal.
    scheme:
        Storage scheme name (defaults to the environment's only scheme).
    """

    def __init__(self, env: HDoVEnvironment, *, eta: float,
                 scheme: Optional[str] = None,
                 frame_model: Optional[FrameModel] = None,
                 evaluate_fidelity: bool = True,
                 cache_budget_bytes: Optional[int] = None) -> None:
        self.env = env
        self.stepper = FrameStepper(
            env, eta=eta, scheme=scheme, frame_model=frame_model,
            evaluate_fidelity=evaluate_fidelity,
            cache_budget_bytes=cache_budget_bytes)

    @property
    def eta(self) -> float:
        return self.stepper.eta

    @property
    def delta(self) -> DeltaSearch:
        """The delta search every frame's query runs through."""
        return self.stepper.delta

    def run(self, session: Session) -> WalkthroughReport:
        """Replay a session; returns the per-frame records."""
        stepper = self.stepper
        stepper.reset()
        frames = [stepper.step(index, waypoint.position_array())[0]
                  for index, waypoint in enumerate(session)]
        return WalkthroughReport(system=f"VISUAL(eta={self.eta})",
                                 session=session.name, frames=frames)


class ReviewWalkthrough:
    """Replay driver around :class:`~repro.baselines.review.ReviewSystem`."""

    def __init__(self, env: HDoVEnvironment, *, box_size: float = 400.0,
                 frame_model: Optional[FrameModel] = None,
                 evaluate_fidelity: bool = True,
                 cache_budget_bytes: Optional[int] = None,
                 requery_fraction: float = 0.25) -> None:
        self.env = env
        self.review = ReviewSystem(env, box_size=box_size,
                                   cache_budget_bytes=cache_budget_bytes,
                                   requery_fraction=requery_fraction)
        self.frame_model = frame_model or FrameModel()
        self.evaluate_fidelity = evaluate_fidelity
        self._fidelity = FidelityMetric(env)

    def run(self, session: Session) -> WalkthroughReport:
        frames: List[FrameRecord] = []
        self.review.clear_cache()
        last_fidelity = float("nan")
        for index, waypoint in enumerate(session):
            position = waypoint.position_array()
            snap = self.env.snapshot()
            result, queried = self.review.frame(position)
            light, heavy = self.env.delta(snap)
            io_ms = light.simulated_ms + heavy.simulated_ms
            cell_id = self.env.grid.cell_of_point(position)
            if self.evaluate_fidelity:
                # Fidelity is against the *current* cell's ground truth,
                # whether or not a query ran this frame.
                rendered: Dict[int, int] = {}
                for oid in result.object_ids:
                    record = self.env.objects[oid]
                    distance = record.chain.finest.aabb() \
                        .min_distance_to_point(position)
                    fraction = self.review.lod_policy \
                        .fraction_for_distance(distance)
                    rendered[oid] = record.chain \
                        .interpolated_polygons(fraction)
                last_fidelity = self._fidelity.score_rendered(cell_id,
                                                              rendered)
            frames.append(FrameRecord(
                frame_index=index,
                cell_id=cell_id,
                io_ms=io_ms,
                light_ios=light.total_ios,
                heavy_ios=heavy.total_ios,
                polygons=result.total_polygons,
                frame_ms=self.frame_model.frame_ms(io_ms,
                                                   result.total_polygons),
                search_ms=io_ms,
                fidelity=last_fidelity,
                resident_bytes=self.review.resident_bytes,
                back_seeks=light.back_seeks + heavy.back_seeks,
                forward_seeks=light.forward_seeks + heavy.forward_seeks,
            ))
        return WalkthroughReport(
            system=f"REVIEW(box={self.review.box_size:g}m)",
            session=session.name, frames=frames)
