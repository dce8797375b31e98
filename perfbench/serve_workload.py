"""``serve-hot`` and ``serve-pressure``: closed-loop sessions over the
in-process HTTP app.

One process, one thread, no sockets: requests go straight into
``WalkthroughApp.dispatch``.  ``SESSIONS`` sessions are live at all
times; each steps only after its previous response, is closed (DELETE)
when its walk is done, and is replaced by a new session at once.
Sessions step round-robin in slot order, so the whole request sequence
is a function of the seed alone; only how far along it a run gets
depends on the clock.

The deterministic figures (``sim_query_ms``, ``fidelity_mean``, pool
hit rate, evictions, page I/O) cover the first ``PREFIX_SESSIONS``
sessions, which every run completes; the wall-clock figures cover the
whole measured phase.
"""

from __future__ import annotations

import asyncio
import statistics
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from common import (ETA, SETUP_BUILDS, Outcome, Phase, io_record,
                    peak_rss_mb, series_total, space_amp, timed_build,
                    traced)
from layers import Tracer

from repro.core.search import HDoVSearch
from repro.serving.http.app import (HttpRequest, HttpResponse,
                                    WalkthroughApp, build_service)
from repro.serving.service import session_env

SESSIONS = 32
FRAMES = 30
#: Four full waves of sessions (3,840 frames): the deterministic prefix.
PREFIX_SESSIONS = 4 * SESSIONS

POOL_PAGES = {"serve-hot": 256, "serve-pressure": 28}
#: Integer IOStats fields of a session report; summed over sessions they
#: must equal the shared ledgers exactly.
IO_FIELDS = ("reads", "writes", "seeks", "sequential_reads", "bytes_read",
             "bytes_written")


class PatternDeck:
    """Seeded walk patterns 1-3, dealt in shuffled blocks of three so
    every seed serves the three patterns in equal measure."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._hand: List[int] = []

    def draw(self) -> int:
        if not self._hand:
            self._hand = [int(p) for p in self._rng.permutation([1, 2, 3])]
        return self._hand.pop()


class ServeClient:
    def __init__(self, service, seed: int, outcome: Outcome) -> None:
        self.service = service
        self.app = WalkthroughApp(service)
        self.deck = PatternDeck(seed)
        self.outcome = outcome
        self.reference: Dict[int, int] = {}
        self.slots: List[int] = []
        self.last_cell: Dict[int, Optional[int]] = {}
        self.next_frame: Dict[int, int] = {}
        self.reports: Dict[int, Dict[str, object]] = {}
        #: session id -> io_ms of each query step.
        self.query_io: Dict[int, List[float]] = {}
        self.prefix_evictions: Optional[int] = None
        self.prefix_io: Dict[str, object] = {}

    # -- requests ------------------------------------------------------------

    async def _send(self, method: str, path: str, expect: int,
                    body: Optional[Dict[str, object]] = None
                    ) -> Optional[HttpResponse]:
        self.outcome.attempted += 1
        response = await self.app.dispatch(HttpRequest(method, path, body))
        if response.status != expect:
            self.outcome.fail(f"{method} {path}: HTTP {response.status} "
                              f"{response.body}")
            return None
        return response

    async def open_session(self) -> int:
        response = await self._send("POST", "/sessions", 201,
                                    {"pattern": self.deck.draw()})
        if response is None:
            raise RuntimeError("cannot open a session")
        session_id = int(response.body["id"])
        self.last_cell[session_id] = None
        self.next_frame[session_id] = 0
        self.query_io[session_id] = []
        return session_id

    async def close_session(self, session_id: int) -> None:
        response = await self._send("DELETE", f"/sessions/{session_id}", 200)
        if response is None:
            return
        report = response.body
        self.reports[session_id] = report
        closed = len(self.reports)
        if closed == PREFIX_SESSIONS:
            # The later sessions have not stepped yet: the shared
            # ledgers hold exactly the prefix's I/O.
            self.prefix_evictions = self.service.pool.evictions
            self.prefix_io = io_record(*self.service.env.snapshot())
        if session_id < PREFIX_SESSIONS and (
                report["frames"] != FRAMES or not report["done"]):
            self.outcome.fail(f"session {session_id} closed after "
                              f"{report['frames']} frames")

    # -- the loop ------------------------------------------------------------

    async def start(self) -> None:
        self.slots = [await self.open_session() for _ in range(SESSIONS)]

    async def run(self, seconds: float, phase: Phase,
                  until_prefix: bool) -> None:
        """Step round-robin until ``seconds`` have passed (and, with
        ``until_prefix``, the prefix sessions have all closed), with a
        host-clock tick after every round."""
        started = perf_counter()
        phase.restart()
        rounds = 0
        while True:
            start = perf_counter()
            for slot, session_id in enumerate(self.slots):
                await self._step(slot, session_id, phase)
            elapsed = perf_counter() - start
            phase.wall += elapsed
            phase.frame_time(len(self.slots), elapsed, phase.tick())
            rounds += 1
            if rounds % FRAMES == 0:
                # A chunk is one wave: every slot walks one session.
                phase.close_chunk()
            if perf_counter() - started >= seconds and not (
                    until_prefix and len(self.reports) < PREFIX_SESSIONS):
                break
        phase.close_chunk(whole=False)

    async def _step(self, slot: int, session_id: int, phase: Phase) -> None:
        path = f"/sessions/{session_id}/step"
        self.outcome.attempted += 1
        start = perf_counter()
        response = await self.app.dispatch(HttpRequest("POST", path))
        elapsed = perf_counter() - start
        body = response.body
        if response.status != 200 or not body.get("stepped"):
            self.outcome.fail(f"POST {path}: HTTP {response.status} {body}")
            return
        cell = int(body["cell_id"])
        queried = cell != self.last_cell[session_id]
        self.last_cell[session_id] = cell
        if queried:
            phase.latency(elapsed)
            self.query_io[session_id].append(float(body["io_ms"]))
        frame = self.next_frame[session_id]
        self.next_frame[session_id] = frame + 1
        if body["frame_index"] != frame or \
                body["polygons"] != self.reference[cell]:
            self.outcome.fail(
                f"session {session_id} frame {frame} cell {cell}: "
                f"{body['polygons']} polygons, reference "
                f"{self.reference[cell]}")
        if body["done"]:
            await self.close_session(session_id)
            self.slots[slot] = await self.open_session()

    async def finish(self) -> None:
        for session_id in self.slots:
            await self.close_session(session_id)
        self.slots = []


def _reference(service) -> Dict[int, int]:
    """Polygons per cell from an unpooled traversal, charged to no one."""
    env = service.env
    search = HDoVSearch(session_env(env, None), fetch_models=False)
    reference = {cell: search.query_cell(cell, ETA).total_polygons
                 for cell in env.grid.cell_ids()}
    env.reset_stats()
    return reference


def _reconcile(client: ServeClient, outcome: Outcome) -> None:
    """Closed-session reports must add up to the shared ledgers."""
    env, pool = client.service.env, client.service.pool
    outcome.attempted += 1
    problems = []
    for kind, ledger in (("light", env.light_stats),
                         ("heavy", env.heavy_stats)):
        for name in IO_FIELDS:
            parts = sum(r[kind][name] for r in client.reports.values())
            if parts != getattr(ledger, name):
                problems.append(f"{kind}.{name} {parts} != "
                                f"{getattr(ledger, name)}")
        parts_ms = sum(r[kind]["simulated_ms"]
                       for r in client.reports.values())
        if abs(parts_ms - ledger.simulated_ms) > 1e-9 * max(
                abs(ledger.simulated_ms), 1.0):
            problems.append(f"{kind}.simulated_ms {parts_ms} != "
                            f"{ledger.simulated_ms}")
    for name in ("hits", "misses"):
        parts = sum(r["pool"][name] for r in client.reports.values())
        if parts != getattr(pool, name):
            problems.append(f"pool.{name} {parts} != {getattr(pool, name)}")
    if problems:
        outcome.fail("reconciliation: " + "; ".join(problems))


def _prefix_record(client: ServeClient) -> Dict[str, object]:
    prefix = [client.reports[sid] for sid in range(PREFIX_SESSIONS)]
    query_io = [ms for sid in range(PREFIX_SESSIONS)
                for ms in client.query_io[sid]]
    hits = sum(r["pool"]["hits"] for r in prefix)
    misses = sum(r["pool"]["misses"] for r in prefix)
    record: Dict[str, object] = {
        "frames": sum(r["frames"] for r in prefix),
        "query_frames": len(query_io),
        "sim_query_ms": sum(query_io) / len(query_io),
        "fidelity_mean": statistics.fmean(r["fidelity_mean"]
                                          for r in prefix),
        "hit_rate": hits / (hits + misses),
        "hits": hits,
        "misses": misses,
        "evictions": client.prefix_evictions,
    }
    record.update(client.prefix_io)
    return record


def run(workload: str, seed: int, seconds: float,
        tracer: Optional[Tracer]) -> Outcome:
    outcome = Outcome()
    for _ in range(SETUP_BUILDS):
        with traced(tracer, outcome.build_bucket):
            service, wall, calibrated = timed_build(
                lambda: build_service(
                    scale="small", frames=FRAMES,
                    pool_pages=POOL_PAGES[workload], evaluate_fidelity=True))
        outcome.raw_setup_times.append(wall)
        outcome.setup_times.append(calibrated)

    client = ServeClient(service, seed, outcome)
    client.reference = _reference(service)

    async def drive() -> Dict[str, float]:
        await client.start()
        if tracer is None:
            await client.run(seconds, outcome.main, until_prefix=True)
        else:
            # Untraced first half (which also completes the prefix),
            # then the traced half.
            await client.run(seconds / 2, outcome.main, until_prefix=True)
            with traced(tracer, outcome.traced.bucket):
                await client.run(seconds / 2, outcome.traced,
                                 until_prefix=False)
        await client.finish()
        response = await client.app.dispatch(HttpRequest("GET", "/metrics"))
        return response.body["metrics"]

    collected = asyncio.run(drive())
    _reconcile(client, outcome)

    record = _prefix_record(client)
    outcome.deterministic = record
    pool = service.pool
    outcome.per_layer_extra = {
        "storage.buffer.capacity_pages": pool.capacity,
        "storage.buffer.distinct_pages": (len(tracer.pool_pages)
                                          if tracer is not None else 0),
        "storage.retries": series_total(collected, "pageio_retries_total"),
        "storage.giveups": series_total(collected, "pageio_giveups_total"),
        "core.update.space_amp": space_amp(service.env),
    }
    outcome.rss_mb = peak_rss_mb()
    return outcome

