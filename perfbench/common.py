"""Shared pieces of the workloads: settings, the outcome record, helpers."""

from __future__ import annotations

import contextlib
import gc
import random
import resource
import statistics
import struct
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

import numpy as np

from layers import Bucket, Tracer

from repro.storage.disk import IOStats

#: DoV threshold of every workload.
ETA = 0.001
#: Environment builds made before the measured phase; ``setup_s`` is
#: their median.
SETUP_BUILDS = 5
#: Host-clock ticks taken on each side of a set-up build.
SETUP_TICKS = 8
#: Keep at most this many failure messages for the error report.
MAX_MESSAGES = 20

T = TypeVar("T")


# -- host speed -------------------------------------------------------------

_ENTRY = struct.Struct("<6dqq")
_RNG = random.Random(20031)
_DATA = b"".join(
    _ENTRY.pack(*[_RNG.uniform(-500.0, 500.0) for _ in range(6)],
                _RNG.randrange(1 << 20), _RNG.randrange(1 << 20))
    for _ in range(64))


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        self.lo = lo
        self.hi = hi

    def overlaps(self, other: "_Box") -> bool:
        return bool(np.all(self.lo <= other.hi)
                    and np.all(other.lo <= self.hi))


def reference_work() -> int:
    """A fixed piece of work made of the operations the query path
    spends its time on (struct unpacking, small numpy arrays, slotted
    objects, dict and list work) and of no ``repro`` code, so that no
    change to the library changes it."""
    total = 0
    for _ in range(4):
        boxes = []
        for i in range(64):
            v = _ENTRY.unpack_from(_DATA, i * _ENTRY.size)
            boxes.append((_Box(np.array(v[0:3]), np.array(v[3:6])),
                          v[6], v[7]))
        probe = boxes[0][0]
        sums: Dict[int, float] = {}
        for box, key, weight in boxes:
            if box.overlaps(probe):
                total += 1
            sums[key & 255] = sums.get(key & 255, 0.0) + weight * 0.5
        total += len(sorted(sums.items(), key=lambda kv: kv[1]))
    return total


#: Median seconds of one :func:`reference_work` on the host the
#: benchmark was tuned on (a shared 2-vCPU Intel Xeon at 2.0 GHz).
REFERENCE_TICK_S = 0.0019


def tick() -> float:
    """Seconds one :func:`reference_work` takes just now.

    On a shared host the CPU's own speed drifts, by up to 1.5x over
    minutes and by more from one few milliseconds to the next, and it
    moves a fixed piece of pure-Python work as much as the workload.
    The workloads take a tick between short stretches of their own
    work; a stretch's *slowness* is the mean of the two ticks around it
    over :data:`REFERENCE_TICK_S`.  Calibrated figures divide each
    stretch's times by its slowness: they read as the tuning host would
    give them at its median speed, and the drift cancels out.
    """
    # With the collector off, the size of the workload's heap does not
    # reach into the tick.
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        gc.enable()


def timed_build(build: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``build`` between two runs of ticks; returns its result, its
    wall seconds and its calibrated seconds."""
    ticks = [tick() for _ in range(SETUP_TICKS)]
    start = perf_counter()
    result = build()
    elapsed = perf_counter() - start
    ticks += [tick() for _ in range(SETUP_TICKS)]
    slowness = statistics.fmean(ticks) / REFERENCE_TICK_S
    return result, elapsed, elapsed / slowness


@dataclass
class Phase:
    """One measured stretch of a run.

    Its work is cut into stretches by :meth:`tick` and grouped into
    *chunks* (a wave of sessions, or an epoch of removals) by
    :meth:`close_chunk`.
    """

    #: Frames served (serving) or rendered by VISUAL (update-walk).
    frames: int = 0
    #: Seconds measured in all, ticks excluded: what per-layer shares
    #: are taken of.
    wall: float = 0.0
    #: Calibrated per-operation latencies in seconds: query steps
    #: (serving) or ``remove_object`` calls (update-walk).
    latencies: List[float] = field(default_factory=list)
    #: Calibrated frames per second of each whole chunk: what
    #: ``frames_per_s`` is the median of.
    chunk_rates: List[float] = field(default_factory=list)
    #: The same rates, uncalibrated.
    raw_chunk_rates: List[float] = field(default_factory=list)
    #: Slowness of each whole chunk: its wall over calibrated seconds.
    slowness: List[float] = field(default_factory=list)
    bucket: Bucket = field(default_factory=dict)
    _last_tick: Optional[float] = None
    _latencies: List[float] = field(default_factory=list)
    _chunk_frames: int = 0
    _chunk_wall: float = 0.0
    _chunk_calibrated: float = 0.0

    def tick(self) -> float:
        """End the open stretch with a tick; returns its slowness.  The
        first tick of a phase, or one after unmeasured work, only starts
        a stretch."""
        elapsed = tick()
        before = elapsed if self._last_tick is None else self._last_tick
        self._last_tick = elapsed
        slowness = (before + elapsed) / 2 / REFERENCE_TICK_S
        self.latencies.extend(s / slowness for s in self._latencies)
        self._latencies = []
        return slowness

    def restart(self) -> None:
        """Start a fresh stretch after unmeasured work."""
        self._last_tick = None
        self.tick()

    def latency(self, seconds: float) -> None:
        """Record an operation's wall seconds in the open stretch."""
        self._latencies.append(seconds)

    def frame_time(self, frames: int, seconds: float,
                   slowness: float) -> None:
        """Count ``frames`` that took ``seconds`` of wall time in a
        stretch of the given slowness."""
        self.frames += frames
        self._chunk_frames += frames
        self._chunk_wall += seconds
        self._chunk_calibrated += seconds / slowness

    def close_chunk(self, whole: bool = True) -> None:
        """Close the open chunk, recording its rates if it is whole."""
        if whole and self._chunk_frames:
            self.raw_chunk_rates.append(self._chunk_frames
                                        / self._chunk_wall)
            self.chunk_rates.append(self._chunk_frames
                                    / self._chunk_calibrated)
            self.slowness.append(self._chunk_wall / self._chunk_calibrated)
        self._chunk_frames = 0
        self._chunk_wall = self._chunk_calibrated = 0.0

    @property
    def frames_per_s(self) -> float:
        """Median calibrated chunk rate."""
        return statistics.median(self.chunk_rates)


@dataclass
class Outcome:
    """Everything a workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    #: Calibrated seconds of each set-up build, and their wall seconds.
    setup_times: List[float] = field(default_factory=list)
    raw_setup_times: List[float] = field(default_factory=list)
    #: The untraced measured phase (the first half in a traced run).
    main: Phase = field(default_factory=Phase)
    #: The traced phase (empty in an untraced run).
    traced: Phase = field(default_factory=Phase)
    #: Build stages of the (traced) set-up builds.
    build_bucket: Bucket = field(default_factory=dict)
    #: Figures that must repeat exactly for the same seed, among them
    #: ``sim_query_ms`` and ``fidelity_mean``.
    deterministic: Dict[str, object] = field(default_factory=dict)
    rss_mb: float = 0.0
    per_layer_extra: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


@contextlib.contextmanager
def traced(tracer: Optional[Tracer], bucket: Bucket) -> Iterator[None]:
    """Run the block with the timers installed, recording into
    ``bucket``; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        with tracer.into(bucket):
            yield
    finally:
        tracer.uninstall()


def io_record(light: IOStats, heavy: IOStats) -> Dict[str, object]:
    """Every field of the light and heavy I/O ledgers, flattened."""
    return {f"{kind}.{name}": value
            for kind, stats in (("light", light), ("heavy", heavy))
            for name, value in asdict(stats).items()}


def space_amp(env) -> float:
    """V-page file pages over the V-pages the current cells need."""
    live = sum(len(cell.visible_offsets_dfs()) for cell in env.cell_vpages)
    return env.scheme().vpage_file.num_pages / live


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def series_total(collected: Dict[str, float], name: str) -> float:
    """Sum of one registry metric over all its label sets."""
    return float(sum(value for key, value in collected.items()
                     if key.split("{", 1)[0] == name))
