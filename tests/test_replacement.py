"""Replacement policies and speculative-read semantics (PR 10).

Three layers: the policy objects alone (ordering contracts), the pool
with a policy plugged in (scan resistance, pathological pinned
capacity, prefetch attribution), and ``run_serve`` end to end (policy
swap is a no-op at infinite capacity; prefetch keeps the reconciliation
exact).
"""

import json

import pytest

from repro.errors import BufferPoolError, BufferPoolExhaustedError
from repro.serving import run_serve
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, IOStats
from repro.storage.pagedfile import PagedFile
from repro.storage.replacement import (LRUPolicy, TwoQPolicy, make_policy)


@pytest.fixture()
def pfile():
    pf = PagedFile("repl", page_size=64, disk=DiskModel(), stats=IOStats())
    for i in range(24):
        pf.append_page(bytes([i]) * 8)
    pf.stats.reset()
    return pf


# -- policy objects ----------------------------------------------------------


def test_make_policy_resolution():
    assert make_policy("lru", 4, "p").name == "lru"
    assert make_policy("2q", 4, "p").name == "2q"
    instance = LRUPolicy()
    assert make_policy(instance, 4, "p") is instance
    with pytest.raises(BufferPoolError):
        make_policy("clock", 4, "p")


def test_twoq_parameter_validation():
    with pytest.raises(BufferPoolError):
        TwoQPolicy(0)
    with pytest.raises(BufferPoolError):
        TwoQPolicy(4, kin_fraction=1.0)
    with pytest.raises(BufferPoolError):
        TwoQPolicy(4, kout_fraction=0.0)


def test_lru_policy_ordering():
    policy = LRUPolicy()
    for key in ((0, 0), (0, 1), (0, 2)):
        policy.on_insert(key)
    policy.on_access((0, 0))            # 0 becomes most recent
    assert list(policy.victims()) == [(0, 1), (0, 2), (0, 0)]
    policy.on_evict((0, 1))
    assert policy.keys() == [(0, 2), (0, 0)]
    assert policy.stats() == {}
    policy.clear()
    assert policy.keys() == []


def test_twoq_first_touch_stays_in_fifo():
    policy = TwoQPolicy(4)              # kin=1, kout=2
    policy.on_insert((0, 0))
    policy.on_insert((0, 1))
    # Accessing a FIFO resident must NOT reorder it: a correlated
    # burst right after first read is not evidence of reuse.
    policy.on_access((0, 0))
    assert list(policy.victims())[0] == (0, 0)


def test_twoq_ghost_promotion():
    policy = TwoQPolicy(4)
    policy.on_insert((0, 0))
    policy.on_evict((0, 0))             # falls out of the FIFO -> ghost
    policy.on_insert((0, 0))            # re-read: proven re-reference
    assert policy.stats() == {"ghost_hits": 1, "promotions": 1}
    # Promoted pages live in Am; with the FIFO empty the victim scan
    # still reaches them (every resident key must be yielded).
    assert (0, 0) in list(policy.victims())


def test_twoq_evict_untracked_key_is_typed_error():
    policy = TwoQPolicy(4)
    with pytest.raises(BufferPoolError):
        policy.on_evict((9, 9))


# -- pool + policy -----------------------------------------------------------


def scan(pool, pfile, pages):
    for page_id in pages:
        pool.get(pfile, page_id)


def test_twoq_scan_resistance(pfile):
    """A cold scan churns the FIFO but cannot flush the proven-hot page."""
    pool = BufferPool(capacity=4, policy="2q")
    scan(pool, pfile, (0, 1, 2, 3, 4))   # page 0 falls to the ghost list
    pool.get(pfile, 0)                   # re-read -> promoted to Am
    scan(pool, pfile, range(10, 20))     # a 10-page cold scan
    assert pool.contains(pfile, 0)       # the hot page survived
    assert not pool.contains(pfile, 10)  # early scan pages did not
    assert pool.policy.stats()["ghost_hits"] >= 1

    # The same trace under LRU loses the hot page to the scan.
    lru = BufferPool(capacity=4, policy="lru")
    scan(lru, pfile, (0, 1, 2, 3, 4))
    lru.get(pfile, 0)
    scan(lru, pfile, range(10, 20))
    assert not lru.contains(pfile, 0)


def test_pathological_pinned_capacity():
    """Pool smaller than the pinned working set: typed exhaustion, and
    the pinned frames survive the failed fault."""
    pf = PagedFile("pin", page_size=64, disk=DiskModel(), stats=IOStats())
    for i in range(4):
        pf.append_page(bytes([i]) * 8)
    pool = BufferPool(capacity=2, policy="2q")
    pool.get(pf, 0, pin=True)
    pool.get(pf, 1, pin=True)
    with pytest.raises(BufferPoolExhaustedError):
        pool.get(pf, 2)
    # Speculation is best-effort: a fully pinned pool declines
    # instead of raising.
    assert pool.prefetch(pf, 3) is False
    assert pool.contains(pf, 0) and pool.contains(pf, 1)
    pool.unpin(pf, 0)
    pool.unpin(pf, 1)


def test_prefetch_counters_are_not_demand_counters(pfile):
    pool = BufferPool(capacity=4)
    assert pool.prefetch(pfile, 0) is True
    assert pool.prefetch(pfile, 0) is False      # already resident
    assert pool.prefetch_stats() == {"issued": 1, "useful": 0,
                                     "wasted": 0}
    assert pool.hits == 0 and pool.misses == 0   # no demand traffic
    # peek reads the speculative bytes without consuming them.
    assert pool.peek(pfile, 0) is not None
    assert pool.peek(pfile, 9) is None
    assert pool.prefetch_stats()["useful"] == 0
    # The first demand read consumes the prefetch: a hit, once.
    pool.get(pfile, 0)
    pool.get(pfile, 0)
    assert pool.hits == 2
    assert pool.prefetch_stats()["useful"] == 1


def test_unconsumed_prefetch_counts_wasted_on_eviction(pfile):
    pool = BufferPool(capacity=1)
    assert pool.prefetch(pfile, 0) is True
    pool.get(pfile, 1)                   # evicts the unread speculation
    assert pool.prefetch_stats() == {"issued": 1, "useful": 0,
                                     "wasted": 1}
    # Demand accounting saw one miss (page 1) and nothing else.
    assert pool.misses == 1 and pool.hits == 0


def test_put_clears_speculation_without_usefulness(pfile):
    pool = BufferPool(capacity=4)
    assert pool.prefetch(pfile, 0) is True
    pool.put(pfile, 0, b"fresh")         # overwrite, not a demand read
    pool.get(pfile, 0)
    assert pool.prefetch_stats()["useful"] == 0
    pool.clear()


# -- run_serve end to end ----------------------------------------------------


def canonical(report):
    report["serve"].pop("policy")
    report["pool"].pop("policy")
    report["pool"].pop("policy_stats")
    return json.dumps(report, sort_keys=True)


def test_policy_swap_is_noop_at_infinite_capacity():
    """With no eviction pressure the policies cannot diverge: the two
    reports must be byte-identical once the policy labels are popped."""
    reports = [run_serve(sessions=3, seed=7, frames=6,
                         pool_pages=4096, policy=policy,
                         include_frame_times=False)
               for policy in ("lru", "2q")]
    assert reports[1]["pool"]["policy_stats"] == {"ghost_hits": 0,
                                                  "promotions": 0}
    assert canonical(reports[0]) == canonical(reports[1])


def test_serve_with_prefetch_reconciles_exactly():
    report = run_serve(sessions=6, seed=7, frames=12,
                       pool_pages=28, policy="2q", prefetch=True,
                       include_frame_times=False)
    assert report["outcome"]["completed"] is True
    assert report["serve"]["prefetch"] is True
    prefetch = report["prefetch"]
    assert prefetch["pool"]["issued"] > 0
    rec = report["reconciliation"]
    assert rec["light_ios_balanced"] is True
    assert rec["heavy_ios_balanced"] is True
    assert rec["simulated_ms_balanced"] is True
    assert rec["pool_balanced"] is True
    # Speculative reads are charged to the prefetcher's own ledger —
    # light I/O (index segments + V-pages), never the models blob.
    assert rec["prefetch_light"]["reads"] > 0
    assert rec["prefetch_heavy"]["reads"] == 0
    # Wasted speculation is its own counter, not session demand I/O:
    # every issue is eventually consumed, evicted as wasted, or still
    # resident — never folded into a session's hit/miss ledger.
    stats = report["pool"]["prefetch"]
    assert stats["useful"] + stats["wasted"] <= stats["issued"]
    assert stats["wasted"] > 0
    assert rec["prefetch_light"]["reads"] == report["prefetch"][
        "index_pages_issued"] + report["prefetch"]["vpages_issued"]


def test_prefetch_off_by_default_keeps_reports_identical():
    baseline = run_serve(sessions=2, seed=7, frames=6,
                         include_frame_times=False)
    explicit = run_serve(sessions=2, seed=7, frames=6,
                         policy="lru", prefetch=False,
                         include_frame_times=False)
    assert baseline["serve"]["prefetch"] is False
    assert baseline["prefetch"] is None
    assert json.dumps(baseline, sort_keys=True) \
        == json.dumps(explicit, sort_keys=True)
