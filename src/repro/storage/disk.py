"""Deterministic disk timing model and I/O statistics.

The paper reports wall-clock search times measured against real disks.
Our reproduction counts page accesses exactly and converts them to
simulated milliseconds with an explicit seek/transfer model, so results
are machine-independent:

* a *random* access (page id not adjacent to the previous access on the
  same file) costs ``seek_ms + transfer_ms``;
* a *sequential* access (next page id) costs ``transfer_ms`` only.

This distinction is what separates the vertical scheme (DFS-ordered,
sequential V-pages) from the horizontal scheme (scattered V-pages) in
Figure 7.

Non-sequential accesses are further split by *direction*: a seek whose
target page id is **below** the previous position on the same file is a
``back_seek``; one at or above it (or the first access after a head
reset) is a ``forward_seek``.  Backward seeks are what a layout rewrite
(``repro layout``) can remove — the head must travel against the scan
direction and no read-ahead helps — so they may be costed separately via
``DiskModel.back_seek_ms``.  By default ``back_seek_ms`` equals
``seek_ms`` and every historical total is unchanged; the split counters
are new information, not a re-pricing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional


@dataclass
class IOStats:
    """Mutable accumulator of I/O activity.

    One instance is shared per experiment run; subsystems add their page
    accesses to it.  ``snapshot()``/``delta()`` support per-query deltas.
    """

    reads: int = 0
    writes: int = 0
    seeks: int = 0
    sequential_reads: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    simulated_ms: float = 0.0
    #: Direction split of ``seeks``: ``back_seeks + forward_seeks ==
    #: seeks`` always holds (a sequential access increments neither).
    back_seeks: int = 0
    forward_seeks: int = 0

    @property
    def total_ios(self) -> int:
        return self.reads + self.writes

    def snapshot(self) -> "IOStats":
        """An immutable-by-convention copy of the current counters."""
        return IOStats(reads=self.reads, writes=self.writes,
                       seeks=self.seeks,
                       sequential_reads=self.sequential_reads,
                       bytes_read=self.bytes_read,
                       bytes_written=self.bytes_written,
                       simulated_ms=self.simulated_ms,
                       back_seeks=self.back_seeks,
                       forward_seeks=self.forward_seeks)

    def delta(self, since: "IOStats") -> "IOStats":
        """Counters accumulated since ``since`` (an earlier snapshot)."""
        return IOStats(
            reads=self.reads - since.reads,
            writes=self.writes - since.writes,
            seeks=self.seeks - since.seeks,
            sequential_reads=self.sequential_reads - since.sequential_reads,
            bytes_read=self.bytes_read - since.bytes_read,
            bytes_written=self.bytes_written - since.bytes_written,
            simulated_ms=self.simulated_ms - since.simulated_ms,
            back_seeks=self.back_seeks - since.back_seeks,
            forward_seeks=self.forward_seeks - since.forward_seeks,
        )

    def __iadd__(self, other: "IOStats") -> "IOStats":
        """Add every counter of ``other`` (each dataclass field) in place."""
        for name in _IOSTATS_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.seeks = 0
        self.sequential_reads = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.simulated_ms = 0.0
        self.back_seeks = 0
        self.forward_seeks = 0

    def __repr__(self) -> str:
        return (f"IOStats(reads={self.reads}, writes={self.writes}, "
                f"seeks={self.seeks}, back={self.back_seeks}, "
                f"fwd={self.forward_seeks}, seq={self.sequential_reads}, "
                f"ms={self.simulated_ms:.3f})")


#: Every counter :meth:`IOStats.__iadd__` sums, in declaration order.
_IOSTATS_FIELDS = tuple(f.name for f in fields(IOStats))


@dataclass
class DiskModel:
    """Cost model for one page access.

    Defaults approximate a circa-2003 consumer disk: ~8 ms average seek,
    ~40 MB/s sequential transfer (0.1 ms per 4 KiB page).  Absolute values
    only scale the reported times; all comparisons in the experiments are
    ratio-driven.
    """

    seek_ms: float = 8.0
    transfer_ms: float = 0.1
    #: Forward skips of at most this many pages count as sequential: disk
    #: read-ahead covers them (32 pages = 128 KiB, a typical read-ahead
    #: window).  This is what makes the DFS-ordered V-page and model
    #: layouts pay off even when pruned branches skip pages in the scan.
    readahead_pages: int = 32
    #: Milliseconds for a *backward* seek (target page id below the
    #: previous position).  ``None`` means "same as ``seek_ms``", which
    #: keeps every pre-existing simulated-ms total byte-identical; set it
    #: higher (never lower — ``__post_init__`` enforces the asymmetry) to
    #: model the head travelling against the scan direction with no
    #: read-ahead to hide it.
    back_seek_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.back_seek_ms is not None \
                and self.back_seek_ms < self.seek_ms:
            raise ValueError(
                f"back_seek_ms ({self.back_seek_ms}) must be >= seek_ms "
                f"({self.seek_ms}): a backward seek is never cheaper "
                f"than a forward one")

    @property
    def effective_back_seek_ms(self) -> float:
        """``back_seek_ms`` with the ``None`` default resolved."""
        if self.back_seek_ms is None:
            return self.seek_ms
        return self.back_seek_ms

    def access_cost(self, sequential: bool, *,
                    backward: bool = False) -> float:
        """Simulated milliseconds for one page access."""
        if sequential:
            return self.transfer_ms
        if backward:
            return self.effective_back_seek_ms + self.transfer_ms
        return self.seek_ms + self.transfer_ms

    def charge(self, stats: IOStats, *, write: bool, sequential: bool,
               nbytes: int, backward: bool = False) -> None:
        """Record one page access in ``stats``.

        ``backward`` is only meaningful when ``sequential`` is false; the
        caller (``PagedFile._charge``) classifies the direction against
        the file's previous head position.
        """
        if write:
            stats.writes += 1
            stats.bytes_written += nbytes
        else:
            stats.reads += 1
            stats.bytes_read += nbytes
        if sequential:
            stats.sequential_reads += 1
        elif backward:
            stats.seeks += 1
            stats.back_seeks += 1
        else:
            stats.seeks += 1
            stats.forward_seeks += 1
        stats.simulated_ms += self.access_cost(sequential,
                                               backward=backward)


#: Disk model with zero cost, for tests that only care about counts.
FREE_DISK = DiskModel(seek_ms=0.0, transfer_ms=0.0)
