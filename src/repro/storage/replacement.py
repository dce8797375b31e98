"""Pluggable page-replacement policies for the buffer pool.

The pool owns the frame table and pins; a policy owns only the
*ordering* decision — which resident key should be evicted next — and
never calls back into the pool or a file.

Two policies ship:

* :class:`LRUPolicy` — the historical behavior, bit-for-bit: insertion
  and access order reproduce the old ``OrderedDict.move_to_end`` pool
  exactly, so ``policy="lru"`` reports are byte-identical to before the
  interface existed.
* :class:`TwoQPolicy` — the 2Q algorithm (Johnson & Shasha, VLDB '94).
  First-touch pages enter a small FIFO (``A1in``); only pages re-read
  *after* falling out of the FIFO — proven re-reference, tracked by a
  ghost list of evicted keys (``A1out``) — enter the protected LRU
  (``Am``).  A burst of single-touch pages (one session scanning a cold
  route) churns the FIFO but cannot flush another session's hot working
  set out of ``Am``; that scan resistance is exactly what the
  many-session undersized-pool regime needs.

Victim *candidates* come from the policy in preference order; the pool
skips pinned frames, so pin-awareness lives in one place and a policy
never observes pins at all.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple, Union

from repro.errors import BufferPoolError
from repro.obs import names
from repro.obs.metrics import get_registry

#: Frame key: ``(file_id, page_id)`` — the pool's own key type.
KeyT = Tuple[int, int]

#: Names accepted by :func:`make_policy`.
POLICY_NAMES: Tuple[str, ...] = ("lru", "2q")


class ReplacementPolicy:
    """Eviction-order strategy; only the owning pool calls it."""

    #: Human-readable policy name (echoed into serve reports).
    name: str = "base"

    def on_insert(self, key: KeyT) -> None:
        """A frame for ``key`` became resident."""
        raise NotImplementedError

    def on_access(self, key: KeyT) -> None:
        """A resident frame for ``key`` was hit."""
        raise NotImplementedError

    def on_evict(self, key: KeyT) -> None:
        """The pool evicted ``key`` (always a key it was told about)."""
        raise NotImplementedError

    def victims(self) -> Iterator[KeyT]:
        """Resident keys in eviction-preference order.

        The pool takes the first candidate whose frame is unpinned; a
        policy therefore yields *every* resident key eventually, or the
        pool cannot prove exhaustion.
        """
        raise NotImplementedError

    def keys(self) -> List[KeyT]:
        """All resident keys, in flush order (eviction order)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Forget all resident keys (pool ``clear()``)."""
        raise NotImplementedError

    def stats(self) -> Dict[str, int]:
        """Policy-specific counters for reports (stable key order)."""
        return {}


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used — the pool's historical behavior, exactly."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[KeyT, None]" = OrderedDict()

    def on_insert(self, key: KeyT) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_access(self, key: KeyT) -> None:
        self._order.move_to_end(key)

    def on_evict(self, key: KeyT) -> None:
        del self._order[key]

    def victims(self) -> Iterator[KeyT]:
        return iter(list(self._order))

    def keys(self) -> List[KeyT]:
        return list(self._order)

    def clear(self) -> None:
        self._order.clear()


class TwoQPolicy(ReplacementPolicy):
    """Scan-resistant 2Q replacement.

    Parameters
    ----------
    capacity:
        The pool's frame capacity; sizes the FIFO and ghost list.
    kin_fraction:
        Target ``A1in`` size as a fraction of capacity (paper default
        ~25%).
    kout_fraction:
        Ghost-list size as a fraction of capacity (paper default ~50%).
    pool_name:
        Metrics label; promotions and ghost hits are exported per
        pool + policy.
    """

    name = "2q"

    def __init__(self, capacity: int, *, kin_fraction: float = 0.25,
                 kout_fraction: float = 0.5,
                 pool_name: str = "default") -> None:
        if capacity < 1:
            raise BufferPoolError(
                f"capacity must be >= 1, got {capacity}")
        if not 0.0 < kin_fraction < 1.0:
            raise BufferPoolError(
                f"kin_fraction must be in (0, 1), got {kin_fraction}")
        if kout_fraction <= 0.0:
            raise BufferPoolError(
                f"kout_fraction must be positive, got {kout_fraction}")
        self.kin_pages = max(1, int(capacity * kin_fraction))
        self.kout_pages = max(1, int(capacity * kout_fraction))
        #: First-touch FIFO (insertion order; accesses do not reorder).
        self._a1in: "OrderedDict[KeyT, None]" = OrderedDict()
        #: Protected LRU of proven re-referenced pages.
        self._am: "OrderedDict[KeyT, None]" = OrderedDict()
        #: Ghost list: keys recently evicted from A1in (no frame data).
        self._ghosts: "OrderedDict[KeyT, None]" = OrderedDict()
        self.promotions = 0
        self.ghost_hits = 0
        registry = get_registry()
        self._m_promotions = registry.counter(
            names.REPLACEMENT_PROMOTIONS, pool=pool_name, policy=self.name)
        self._m_ghost_hits = registry.counter(
            names.REPLACEMENT_GHOST_HITS, pool=pool_name, policy=self.name)

    def on_insert(self, key: KeyT) -> None:
        if key in self._ghosts:
            # Re-read after FIFO eviction: proven re-reference, so the
            # page skips A1in and enters the protected queue.
            del self._ghosts[key]
            self.ghost_hits += 1
            self.promotions += 1
            self._m_ghost_hits.inc()
            self._m_promotions.inc()
            self._am[key] = None
            self._am.move_to_end(key)
        else:
            self._a1in[key] = None

    def on_access(self, key: KeyT) -> None:
        if key in self._am:
            self._am.move_to_end(key)
        # Hits inside A1in do not reorder the FIFO: a correlated burst
        # of touches right after first read is not evidence of reuse
        # (that is the scan-resistance core of 2Q).

    def on_evict(self, key: KeyT) -> None:
        if key in self._a1in:
            del self._a1in[key]
            self._ghosts[key] = None
            while len(self._ghosts) > self.kout_pages:
                self._ghosts.popitem(last=False)
        elif key in self._am:
            del self._am[key]
        else:
            raise BufferPoolError(f"evict of untracked key {key!r}")

    def victims(self) -> Iterator[KeyT]:
        prefer_a1 = len(self._a1in) > self.kin_pages or not self._am
        first, second = ((self._a1in, self._am) if prefer_a1
                         else (self._am, self._a1in))
        for key in list(first):
            yield key
        for key in list(second):
            yield key

    def keys(self) -> List[KeyT]:
        return list(self._a1in) + list(self._am)

    def clear(self) -> None:
        self._a1in.clear()
        self._am.clear()
        self._ghosts.clear()

    def stats(self) -> Dict[str, int]:
        return {"ghost_hits": self.ghost_hits,
                "promotions": self.promotions}


def make_policy(policy: Union[str, ReplacementPolicy], capacity: int,
                pool_name: str) -> ReplacementPolicy:
    """Resolve a policy spec (name or instance) for one pool."""
    if isinstance(policy, ReplacementPolicy):
        return policy
    if policy == "lru":
        return LRUPolicy()
    if policy == "2q":
        return TwoQPolicy(capacity, pool_name=pool_name)
    raise BufferPoolError(
        f"unknown replacement policy {policy!r}; "
        f"choose from {sorted(POLICY_NAMES)}")
