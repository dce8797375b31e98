"""Buffer pool tests: LRU order, pinning, write-back."""

import pytest

from repro.errors import (BufferPoolError, BufferPoolExhaustedError,
                          StorageError)
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile


@pytest.fixture()
def pfile():
    pf = PagedFile("buf", page_size=64, disk=DiskModel(), stats=IOStats())
    for i in range(10):
        pf.append_page(bytes([i]) * 8)
    pf.stats.reset()
    return pf


def test_hit_and_miss_counting(pfile):
    pool = BufferPool(capacity=4)
    pool.get(pfile, 0)
    pool.get(pfile, 0)
    assert pool.hits == 1
    assert pool.misses == 1
    assert pfile.stats.reads == 1        # second access served from pool


def test_lru_eviction_order(pfile):
    pool = BufferPool(capacity=2)
    pool.get(pfile, 0)
    pool.get(pfile, 1)
    pool.get(pfile, 0)      # page 0 is now most recent
    pool.get(pfile, 2)      # evicts page 1 (least recent)
    assert pool.contains(pfile, 0)
    assert not pool.contains(pfile, 1)
    assert pool.contains(pfile, 2)
    assert pool.evictions == 1


def test_pinned_pages_survive_eviction(pfile):
    pool = BufferPool(capacity=2)
    pool.get(pfile, 0, pin=True)
    pool.get(pfile, 1)
    pool.get(pfile, 2)       # must evict page 1, not pinned page 0
    assert pool.contains(pfile, 0)
    pool.unpin(pfile, 0)


def test_all_pinned_raises_typed_exhausted_error(pfile):
    pool = BufferPool(capacity=2)
    pool.get(pfile, 0, pin=True)
    pool.get(pfile, 1, pin=True)
    with pytest.raises(BufferPoolExhaustedError):
        pool.get(pfile, 2)
    # The typed error is a BufferPoolError, so existing handlers that
    # catch the base class keep working.
    assert issubclass(BufferPoolExhaustedError, BufferPoolError)
    # The failed get still counted its miss but installed nothing.
    assert pool.resident_pages == 2
    pool.unpin(pfile, 0)
    assert pool.get(pfile, 2) == (bytes([2]) * 8).ljust(64, b"\x00")


def test_unpin_underflow(pfile):
    pool = BufferPool(capacity=2)
    pool.get(pfile, 0)
    with pytest.raises(BufferPoolError):
        pool.unpin(pfile, 0)


def test_put_and_writeback_on_eviction(pfile):
    pool = BufferPool(capacity=1)
    pool.put(pfile, 3, b"dirty")
    pool.get(pfile, 4)       # evicts dirty page 3 -> write-back
    assert pfile.read_page(3).startswith(b"dirty")


def test_read_your_writes(pfile):
    pool = BufferPool(capacity=2)
    pool.put(pfile, 5, b"fresh")
    assert pool.get(pfile, 5).startswith(b"fresh")
    # Underlying file not yet updated until flush/eviction.
    assert pfile.read_page(5)[0] == 5


def test_flush_writes_dirty_frames(pfile):
    pool = BufferPool(capacity=4)
    pool.put(pfile, 6, b"flushed")
    pool.flush()
    assert pfile.read_page(6).startswith(b"flushed")
    # Frame stays resident after flush.
    assert pool.contains(pfile, 6)


def test_clear_rejects_pinned(pfile):
    pool = BufferPool(capacity=2)
    pool.get(pfile, 0, pin=True)
    with pytest.raises(BufferPoolError):
        pool.clear()
    pool.unpin(pfile, 0)
    pool.clear()
    assert pool.resident_pages == 0


def test_capacity_validation():
    with pytest.raises(BufferPoolError):
        BufferPool(capacity=0)


def test_hit_rate(pfile):
    pool = BufferPool(capacity=4)
    assert pool.hit_rate == 0.0
    pool.get(pfile, 0)
    pool.get(pfile, 0)
    pool.get(pfile, 0)
    assert pool.hit_rate == pytest.approx(2 / 3)


def test_two_files_one_pool(pfile):
    other = PagedFile("other", page_size=64, disk=DiskModel(),
                      stats=IOStats())
    other.append_page(b"zz")
    pool = BufferPool(capacity=4)
    a = pool.get(pfile, 0)
    b = pool.get(other, 0)
    assert a != b
    assert pool.misses == 2


def make_small_file(name="f", fill=b"x"):
    pf = PagedFile(name, page_size=64, disk=DiskModel(), stats=IOStats())
    for _ in range(4):
        pf.append_page(fill)
    pf.stats.reset()
    return pf


def test_stable_identity_survives_address_reuse():
    """Regression: frames were keyed by ``id(pfile)``; a new PagedFile
    allocated at a garbage-collected file's address inherited its
    frames.  With stable file ids a new file can never hit old frames."""
    import gc

    pool = BufferPool(capacity=4)
    pf1 = make_small_file("first", fill=b"a")
    pool.get(pf1, 0)
    assert pool.misses == 1
    del pf1
    gc.collect()
    pf2 = make_small_file("second", fill=b"b")
    data = pool.get(pf2, 0)
    assert pool.misses == 2          # a new file can never be a hit
    assert data.startswith(b"b")


def test_file_ids_are_unique_and_monotonic():
    a = make_small_file()
    b = make_small_file()
    assert a.file_id != b.file_id
    assert b.file_id > a.file_id


def test_clear_drops_file_references():
    """Regression: ``_files`` kept strong references to every file ever
    seen; ``clear()`` must release them."""
    pool = BufferPool(capacity=4)
    pf = make_small_file()
    pool.get(pf, 0)
    assert pool._files
    pool.clear()
    assert pool._files == {}
    assert pool.resident_pages == 0


def test_eviction_skips_pinned_scans_to_lru_unpinned(pfile):
    """With the two oldest frames pinned, eviction must take the third."""
    pool = BufferPool(capacity=3)
    pool.get(pfile, 0, pin=True)
    pool.get(pfile, 1, pin=True)
    pool.get(pfile, 2)
    pool.get(pfile, 3)       # must evict page 2, the LRU unpinned frame
    assert pool.contains(pfile, 0)
    assert pool.contains(pfile, 1)
    assert not pool.contains(pfile, 2)
    assert pool.contains(pfile, 3)
    pool.unpin(pfile, 0)
    pool.unpin(pfile, 1)


def test_pin_counts_nest(pfile):
    pool = BufferPool(capacity=2)
    pool.get(pfile, 0, pin=True)
    pool.get(pfile, 0, pin=True)
    pool.unpin(pfile, 0)
    # Still pinned once: the frame must survive pressure.
    pool.get(pfile, 1)
    pool.get(pfile, 2)
    assert pool.contains(pfile, 0)
    pool.unpin(pfile, 0)
    with pytest.raises(BufferPoolError):
        pool.unpin(pfile, 0)


def test_flush_writes_back_in_lru_order(pfile):
    """Dirty frames flush least-recently-used first — the order
    evictions would have written them."""
    pool = BufferPool(capacity=4)
    pool.put(pfile, 2, b"two")
    pool.put(pfile, 0, b"zero")
    pool.put(pfile, 1, b"one")
    pool.get(pfile, 2)               # touch: page 2 becomes most recent
    order = []
    original = pfile.write_page
    pfile.write_page = lambda pid, data: (order.append(pid),
                                          original(pid, data))[1]
    pool.flush()
    pfile.write_page = original
    assert order == [0, 1, 2]
    assert pfile.read_page(0).startswith(b"zero")
    # A second flush has nothing dirty left.
    order.clear()
    pool.flush()
    assert order == []


def test_clear_with_pins_raises_then_succeeds_after_unpin(pfile):
    pool = BufferPool(capacity=4)
    pool.put(pfile, 3, b"dirty")
    pool.get(pfile, 0, pin=True)
    with pytest.raises(BufferPoolError):
        pool.clear()
    # The failed clear must not have dropped anything.
    assert pool.contains(pfile, 0)
    assert pool.contains(pfile, 3)
    pool.unpin(pfile, 0)
    pool.clear()
    assert pool.resident_pages == 0
    # The dirty frame was flushed on the successful clear.
    assert pfile.read_page(3).startswith(b"dirty")


def test_pool_metrics_mirror_counters(pfile):
    from repro.obs.metrics import get_registry

    reg = get_registry()
    snap = reg.snapshot()
    pool = BufferPool(capacity=2, name="test-mirror")
    pool.get(pfile, 0)
    pool.get(pfile, 0, pin=True)
    pool.unpin(pfile, 0)
    pool.get(pfile, 1)
    pool.get(pfile, 2)               # eviction
    delta = reg.delta(snap)
    assert delta['bufferpool_hits_total{pool="test-mirror"}'] == 1
    assert delta['bufferpool_misses_total{pool="test-mirror"}'] == 3
    assert delta['bufferpool_evictions_total{pool="test-mirror"}'] == 1
    assert delta['bufferpool_pins_total{pool="test-mirror"}'] == 1
    assert delta['bufferpool_unpins_total{pool="test-mirror"}'] == 1


def test_exhausted_error_leaves_pinned_frames_intact(pfile):
    """All frames pinned: the fault gets the typed error and no pinned
    frame is evicted out from under its holder."""
    pool = BufferPool(capacity=2)
    pool.get(pfile, 0, pin=True)
    pool.get(pfile, 1, pin=True)
    with pytest.raises(BufferPoolExhaustedError):
        pool.get(pfile, 2)
    assert pool.contains(pfile, 0) and pool.contains(pfile, 1)
    pool.unpin(pfile, 0)
    pool.unpin(pfile, 1)
    assert pool.get(pfile, 2) == (bytes([2]) * 8).ljust(64, b"\x00")


def test_failed_read_installs_nothing_then_recovers(pfile):
    """A miss whose read raises leaves no frame behind; the next get
    reads the page again and succeeds."""
    pool = BufferPool(capacity=8)
    attempts = []

    def failing_reader(pf: PagedFile, page_id: int) -> bytes:
        attempts.append(page_id)
        raise StorageError("injected read failure")

    with pytest.raises(StorageError):
        pool.get(pfile, 5, reader=failing_reader)
    assert attempts == [5]
    assert not pool.contains(pfile, 5)
    assert pool.get(pfile, 5) == (bytes([5]) * 8).ljust(64, b"\x00")
    assert pool.misses == 2      # the failed read and the retry
