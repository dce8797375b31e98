"""Buffer pool over :class:`~repro.storage.pagedfile.PagedFile`.

The walkthrough systems cache tree nodes and V-pages; the buffer pool
makes cache hits free and tracks hit/miss counts.  Pages can be pinned to
protect them from eviction while a traversal holds references.

Replacement is pluggable (see :mod:`repro.storage.replacement`): the
pool owns frames and pins, while a
:class:`~repro.storage.replacement.ReplacementPolicy` owns only the
eviction order.  The default ``"lru"`` policy reproduces the historical
LRU pool bit-for-bit; ``"2q"`` adds scan resistance for the
many-session undersized-pool regime.

The pool is single-threaded, like every in-process serving path (see
DESIGN.md §10).  A miss counts the miss, frees a frame, reads the page
and installs it — in that order, so an eviction's write-back always
precedes the read that needed the frame.

Speculative reads (:meth:`BufferPool.prefetch`) take the same read path
but none of the demand counters: an issued prefetch is counted
``prefetch_useful`` the first time a demand ``get`` consumes it and
``prefetch_wasted`` if it is evicted untouched — so demand hit/miss
accounting stays comparable with prefetch on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import BufferPoolError, BufferPoolExhaustedError
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.storage.pagedfile import PagedFile
from repro.storage.replacement import ReplacementPolicy, make_policy

#: Signature for a pluggable miss reader: ``reader(pfile, page_id) -> bytes``.
#: The serving layer injects a reader that routes through the
#: ``repro.storage.pageio`` facade so pool misses are retried and counted
#: like every other sanctioned page access.
PageReader = Callable[[PagedFile, int], bytes]


@dataclass
class _Frame:
    data: bytes
    pin_count: int = 0
    dirty: bool = False
    #: True while the frame holds unconsumed prefetched bytes.
    speculative: bool = False


class BufferPool:
    """Fixed-capacity page cache with pluggable replacement.

    Keys are ``(file, page_id)`` pairs, so one pool can front several
    files (tree file, V-page file, object store) with a single memory
    budget — mirroring how the prototype shares one cache.  Files are
    identified by their stable :attr:`PagedFile.file_id`, never by
    ``id()``: a garbage-collected file's address can be reused by a new
    ``PagedFile``, which would silently serve the old file's frames for
    the new file's pages.

    Parameters
    ----------
    capacity:
        Maximum resident frames.
    name:
        Label for this pool's metrics series (hits, misses, evictions,
        pin churn) in the process metrics registry.
    policy:
        Replacement policy: ``"lru"`` (default, the historical
        behavior), ``"2q"``, or a ready
        :class:`~repro.storage.replacement.ReplacementPolicy` instance.
    """

    def __init__(self, capacity: int, *, name: str = "default",
                 policy: Union[str, ReplacementPolicy] = "lru") -> None:
        if capacity < 1:
            raise BufferPoolError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._policy = make_policy(policy, capacity, name)
        self._frames: Dict[Tuple[int, int], _Frame] = {}
        self._files: Dict[int, PagedFile] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefetch_issued = 0
        self.prefetch_useful = 0
        self.prefetch_wasted = 0
        registry = get_registry()
        self._m_hits = registry.counter(names.BUFFERPOOL_HITS, pool=name)
        self._m_misses = registry.counter(names.BUFFERPOOL_MISSES,
                                          pool=name)
        self._m_evictions = registry.counter(names.BUFFERPOOL_EVICTIONS,
                                             pool=name)
        self._m_pins = registry.counter(names.BUFFERPOOL_PINS, pool=name)
        self._m_unpins = registry.counter(names.BUFFERPOOL_UNPINS,
                                          pool=name)
        self._m_writebacks = registry.counter(
            names.BUFFERPOOL_WRITEBACKS, pool=name)
        self._m_resident = registry.gauge(names.BUFFERPOOL_RESIDENT_PAGES,
                                          pool=name)
        self._m_prefetch_issued = registry.counter(
            names.BUFFERPOOL_PREFETCH_ISSUED, pool=name)
        self._m_prefetch_useful = registry.counter(
            names.BUFFERPOOL_PREFETCH_USEFUL, pool=name)
        self._m_prefetch_wasted = registry.counter(
            names.BUFFERPOOL_PREFETCH_WASTED, pool=name)

    @property
    def policy(self) -> ReplacementPolicy:
        return self._policy

    # -- internals ------------------------------------------------------------

    def _key(self, pfile: PagedFile, page_id: int) -> Tuple[int, int]:
        fid = pfile.file_id
        self._files[fid] = pfile
        return (fid, page_id)

    def _evict_one(self) -> None:
        """Evict the policy's best unpinned candidate."""
        for key in self._policy.victims():
            frame = self._frames.get(key)
            if frame is None or frame.pin_count != 0:
                continue
            if frame.dirty:
                fid, page_id = key
                self._files[fid].write_page(page_id, frame.data)
                self._m_writebacks.inc()
            if frame.speculative:
                self.prefetch_wasted += 1
                self._m_prefetch_wasted.inc()
            del self._frames[key]
            self._policy.on_evict(key)
            self.evictions += 1
            self._m_evictions.inc()
            return
        raise BufferPoolExhaustedError(
            f"all {len(self._frames)} frames are pinned; cannot evict")

    def _install(self, key: Tuple[int, int], frame: _Frame) -> None:
        """Insert ``frame``, evicting until under capacity."""
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[key] = frame
        self._policy.on_insert(key)
        self._m_resident.set(len(self._frames))

    def _pin(self, frame: _Frame) -> None:
        frame.pin_count += 1
        self._m_pins.inc()

    def _consume(self, frame: _Frame) -> None:
        """First demand hit on a prefetched frame: attribute usefulness."""
        if frame.speculative:
            frame.speculative = False
            self.prefetch_useful += 1
            self._m_prefetch_useful.inc()

    # -- public API -------------------------------------------------------------

    def get(self, pfile: PagedFile, page_id: int, *, pin: bool = False,
            reader: Optional[PageReader] = None) -> bytes:
        """Return page contents, reading through the file on a miss.

        ``reader`` overrides how a miss fetches bytes (default
        ``pfile.read_page``); the serving layer passes a
        ``pageio``-routed reader so misses get retry + component
        accounting.  A demand hit on a prefetched frame additionally
        consumes the prefetch: ``prefetch_useful``.
        """
        key = self._key(pfile, page_id)
        frame = self._frames.get(key)
        if frame is not None:
            self.hits += 1
            self._m_hits.inc()
            self._policy.on_access(key)
            self._consume(frame)
            if pin:
                self._pin(frame)
            return frame.data
        self.misses += 1
        self._m_misses.inc()
        if len(self._frames) >= self.capacity:
            self._evict_one()
        frame = _Frame(self._read(pfile, page_id, reader))
        self._install(key, frame)
        if pin:
            self._pin(frame)
        return frame.data

    def prefetch(self, pfile: PagedFile, page_id: int, *,
                 reader: Optional[PageReader] = None) -> bool:
        """Speculatively read a page into the pool; ``True`` if issued.

        No demand counters move: a resident page is left alone
        (``False``), and an issued read counts only ``prefetch_issued``.
        The installed frame is marked speculative; the first demand
        ``get`` consuming it counts ``prefetch_useful``, and eviction of
        an unconsumed frame counts ``prefetch_wasted`` — never a
        session's demand hit/miss.  A pool whose every frame is pinned
        declines the prefetch instead of raising: speculation is
        best-effort.
        """
        key = self._key(pfile, page_id)
        if key in self._frames:
            return False
        if len(self._frames) >= self.capacity:
            try:
                self._evict_one()
            except BufferPoolExhaustedError:
                return False
        self.prefetch_issued += 1
        self._m_prefetch_issued.inc()
        data = self._read(pfile, page_id, reader)
        self._install(key, _Frame(data, speculative=True))
        return True

    def peek(self, pfile: PagedFile, page_id: int) -> Optional[bytes]:
        """Resident page bytes without touching counters or recency.

        The prefetch machinery uses this to decode already-prefetched
        index pages; a demand path must use :meth:`get`.
        """
        frame = self._frames.get((pfile.file_id, page_id))
        return frame.data if frame is not None else None

    @staticmethod
    def _read(pfile: PagedFile, page_id: int,
              reader: Optional[PageReader]) -> bytes:
        if reader is not None:
            return reader(pfile, page_id)
        return pfile.read_page(page_id)

    def put(self, pfile: PagedFile, page_id: int, data: bytes) -> None:
        """Install new page contents; written back on eviction or flush."""
        if len(data) > pfile.page_size:
            raise BufferPoolError("payload exceeds page size")
        key = self._key(pfile, page_id)
        frame = self._frames.get(key)
        if frame is None:
            frame = _Frame(data=b"")
            self._install(key, frame)
        frame.data = bytes(data)
        frame.dirty = True
        # Overwriting speculative bytes ends the speculation without
        # attributing usefulness: the prefetched contents were never
        # read.
        frame.speculative = False
        self._policy.on_access(key)

    def unpin(self, pfile: PagedFile, page_id: int) -> None:
        key = (pfile.file_id, page_id)
        frame = self._frames.get(key)
        if frame is None or frame.pin_count == 0:
            raise BufferPoolError(f"unpin of unpinned page {page_id}")
        frame.pin_count -= 1
        self._m_unpins.inc()

    def contains(self, pfile: PagedFile, page_id: int) -> bool:
        return (pfile.file_id, page_id) in self._frames

    def flush(self) -> None:
        """Write back every dirty frame (keeps frames resident).

        Write-back order is the policy's eviction order (for LRU: least
        recently used first), matching the order evictions would have
        flushed them.
        """
        for key in self._policy.keys():
            frame = self._frames.get(key)
            if frame is not None and frame.dirty:
                fid, page_id = key
                self._files[fid].write_page(page_id, frame.data)
                self._m_writebacks.inc()
                frame.dirty = False

    def clear(self) -> None:
        """Flush and drop all frames *and* file references.

        Fails if any page is pinned.  Dropping ``_files`` matters: the
        pool must not keep closed or discarded ``PagedFile`` objects
        alive after the caller is done with them.
        """
        if any(f.pin_count for f in self._frames.values()):
            raise BufferPoolError("cannot clear: pinned pages present")
        self.flush()
        self._frames.clear()
        self._policy.clear()
        self._files.clear()
        self._m_resident.set(0)

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def prefetch_stats(self) -> Dict[str, int]:
        """Speculative-read counters (stable key order, for reports)."""
        return {"issued": self.prefetch_issued,
                "useful": self.prefetch_useful,
                "wasted": self.prefetch_wasted}

    def __repr__(self) -> str:
        return (f"BufferPool(capacity={self.capacity}, "
                f"policy={self._policy.name}, "
                f"resident={self.resident_pages}, hits={self.hits}, "
                f"misses={self.misses})")
