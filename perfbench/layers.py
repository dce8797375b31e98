"""Per-layer timers, installed from outside the library.

Each layer is one or more public functions or methods of ``repro``.
:class:`Tracer` replaces them with timing wrappers while it is
installed and restores the originals afterwards, so an untraced run
executes the library's own code objects.  A module-level function is
replaced at *every* name it is imported under (any ``repro.*`` module
attribute bound to the same function object), and a method on the
class that defines it and on every subclass that overrides it.

For each layer the tracer records calls, busy seconds (wall time with
at least one call of the layer active) and self seconds (each call's
duration minus the time spent in wrapped calls it made), plus
layer-specific work counts.  Stats go into the *bucket* currently
selected, so set-up work and timed work can be kept apart.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple


class LayerStats:
    """What one layer did inside one bucket."""

    __slots__ = ("calls", "busy", "self_time", "depth", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.items: Dict[str, int] = {}

    def add(self, item: str, count: int) -> None:
        self.items[item] = self.items.get(item, 0) + count


Bucket = Dict[str, LayerStats]
#: A work counter: (tracer, stats, call args, result) -> None.
Counter = Callable[["Tracer", LayerStats, tuple, object], None]


def _count_search(tracer: "Tracer", stats: LayerStats, args: tuple,
                  result: object) -> None:
    stats.add("nodes_read", result.nodes_read)        # type: ignore
    stats.add("vpages_read", result.vpages_read)      # type: ignore


def _count_entries(tracer: "Tracer", stats: LayerStats, args: tuple,
                   result: object) -> None:
    stats.add("entries", len(result[3]))              # type: ignore


def _record_page(tracer: "Tracer", stats: LayerStats, args: tuple,
                 result: object) -> None:
    # BufferPool.get(self, pfile, page_id, ...)
    tracer.pool_pages.add((args[1].name, args[2]))


#: (layer, module, function or Class.method, work counter).
WRAPPED: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("serving.http", "repro.serving.http.app", "WalkthroughApp.dispatch",
     None),
    ("serving.session", "repro.serving.session", "ServingSession.step",
     None),
    ("core.delta", "repro.core.delta", "DeltaSearch.query_cell", None),
    ("core.search", "repro.core.search", "HDoVSearch.query_cell",
     _count_search),
    ("rtree.decode", "repro.storage.serializer", "decode_node",
     _count_entries),
    ("storage.vpagecodec", "repro.storage.vpagecodec", "VPageCodec.read",
     None),
    ("storage.vpagecodec", "repro.storage.vpagecodec",
     "VPageCodec.decode_page", None),
    ("storage.buffer", "repro.storage.buffer", "BufferPool.get",
     _record_page),
    ("storage.pagedfile", "repro.storage.pagedfile", "PagedFile.read_page",
     None),
    ("storage.pagedfile", "repro.storage.pagedfile", "PagedFile.write_page",
     None),
    ("storage.pagedfile", "repro.storage.pagedfile",
     "PagedFile.append_page", None),
    ("storage.objectstore", "repro.storage.objectstore",
     "ObjectStore.fetch_prefix", None),
    ("simplify.lod_chain", "repro.simplify.lod_chain",
     "LODChain.interpolated_polygons", None),
    ("walkthrough.metrics", "repro.walkthrough.metrics",
     "FidelityMetric.score_hdov", None),
    ("core.update", "repro.core.update", "remove_object", None),
    ("core.vpage", "repro.core.vpage", "instantiate_cell", None),
    ("visibility.raycast", "repro.visibility.raycast",
     "RayCastDoVEstimator.dov_from_region", None),
    ("walkthrough.visual", "repro.walkthrough.visual", "VisualSystem.run",
     None),
    ("build.generate_city", "repro.scene.city", "generate_city", None),
    ("build.lod_chain", "repro.simplify.lod_chain", "build_lod_chain", None),
    ("build.bulk_load", "repro.rtree.bulk", "str_bulk_load", None),
    ("build.internal_lods", "repro.lod.internal", "build_internal_lods",
     None),
    ("build.precompute", "repro.visibility.precompute",
     "precompute_visibility", None),
    ("build.scheme", "repro.core.schemes.base", "StorageScheme.build", None),
)

#: Layers timed in the measured phase, in report order.
RUNTIME_LAYERS: Tuple[str, ...] = (
    "serving.http", "serving.session", "core.delta", "core.search",
    "rtree.decode", "storage.vpagecodec", "storage.buffer",
    "storage.pagedfile", "storage.objectstore", "simplify.lod_chain",
    "walkthrough.metrics", "core.update", "core.vpage",
    "visibility.raycast", "walkthrough.visual",
)

#: Environment-build stages, timed during set-up.  ``core.vpage`` is
#: the V-page instantiation step of the build.
BUILD_LAYERS: Tuple[str, ...] = (
    "build.generate_city", "build.lod_chain", "build.bulk_load",
    "build.internal_lods", "build.precompute", "core.vpage", "build.scheme",
)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Installs the :data:`WRAPPED` timers and collects their stats."""

    def __init__(self) -> None:
        self.bucket: Bucket = {}
        #: Distinct (file name, page id) keys asked of any buffer pool.
        self.pool_pages: Set[Tuple[str, int]] = set()
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for layer, module_name, target, counter in WRAPPED:
            module = importlib.import_module(module_name)
            if "." in target:
                class_name, method = target.split(".")
                for cls in _subclasses(getattr(module, class_name)):
                    original = cls.__dict__.get(method)
                    if original is not None:
                        self._patch(cls, method, original,
                                    self._wrap(layer, original, counter))
            else:
                original = getattr(module, target)
                wrapper = self._wrap(layer, original, counter)
                for name, loaded in sorted(sys.modules.items()):
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, attr, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, original: object,
               wrapper: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def into(self, bucket: Bucket) -> Iterator[Bucket]:
        """Record into ``bucket`` for the duration of the block."""
        previous, self.bucket = self.bucket, bucket
        try:
            yield bucket
        finally:
            self.bucket = previous

    # -- the timers ----------------------------------------------------------

    def _stats(self, layer: str) -> LayerStats:
        stats = self.bucket.get(layer)
        if stats is None:
            stats = self.bucket[layer] = LayerStats()
        return stats

    def _enter(self, layer: str) -> Tuple[LayerStats, List[float]]:
        stats = self._stats(layer)
        frame = [0.0]
        self._stack.append(frame)
        stats.depth += 1
        return stats, frame

    def _exit(self, stats: LayerStats, frame: List[float],
              elapsed: float) -> None:
        self._stack.pop()
        stats.depth -= 1
        stats.calls += 1
        stats.self_time += elapsed - frame[0]
        if stats.depth == 0:
            stats.busy += elapsed
        if self._stack:
            self._stack[-1][0] += elapsed

    def _wrap(self, layer: str, fn, counter: Optional[Counter]):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                stats, frame = tracer._enter(layer)
                start = perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._exit(stats, frame, perf_counter() - start)
                if counter is not None:
                    counter(tracer, stats, args, result)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats, frame = tracer._enter(layer)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(stats, frame, perf_counter() - start)
            if counter is not None:
                counter(tracer, stats, args, result)
            return result
        return wrapper


def zero_call_layers(bucket: Bucket, required: Tuple[str, ...]) -> List[str]:
    """Required layers the bucket saw no call of (a wrap that missed)."""
    return [layer for layer in required
            if bucket.get(layer) is None or bucket[layer].calls == 0]
