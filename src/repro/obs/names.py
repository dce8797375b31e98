"""The registry of metric names — the only place series names may live.

Every metric name passed to ``MetricsRegistry.counter()`` / ``gauge()`` /
``histogram()`` / ``value()`` must be a constant imported from this
module.  The lint rule RPR002 (``repro lint``) enforces it: a literal
string at an instrument call site is a violation, because a typo there
does not fail — it silently creates a *new* time series and the report
that should have shown the real one reads zero.  Centralising the names
also gives the unused-name check a ground truth: every constant defined
here must be referenced somewhere in the library, so dead series are
removed instead of lingering in dashboards.

Naming convention (Prometheus style):

* counters end in ``_total``;
* gauges name the quantity they sample (``..._pages``);
* histograms name the distribution (``search_results``).
"""

from __future__ import annotations

from typing import Dict

# -- repro.storage.pagedfile: one series set per file label -----------------

PAGEDFILE_READS = "pagedfile_reads_total"
PAGEDFILE_WRITES = "pagedfile_writes_total"
PAGEDFILE_SEEKS = "pagedfile_seeks_total"
PAGEDFILE_BACK_SEEKS = "pagedfile_back_seeks_total"
PAGEDFILE_FORWARD_SEEKS = "pagedfile_forward_seeks_total"
PAGEDFILE_SEQUENTIAL = "pagedfile_sequential_total"
PAGEDFILE_BYTES_READ = "pagedfile_bytes_read_total"
PAGEDFILE_BYTES_WRITTEN = "pagedfile_bytes_written_total"
PAGEDFILE_SIMULATED_MS = "pagedfile_simulated_ms_total"

# -- repro.storage.buffer: one series set per pool label --------------------

BUFFERPOOL_HITS = "bufferpool_hits_total"
BUFFERPOOL_MISSES = "bufferpool_misses_total"
BUFFERPOOL_EVICTIONS = "bufferpool_evictions_total"
BUFFERPOOL_PINS = "bufferpool_pins_total"
BUFFERPOOL_UNPINS = "bufferpool_unpins_total"
BUFFERPOOL_WRITEBACKS = "bufferpool_writebacks_total"
BUFFERPOOL_RESIDENT_PAGES = "bufferpool_resident_pages"
BUFFERPOOL_PREFETCH_ISSUED = "bufferpool_prefetch_issued_total"
BUFFERPOOL_PREFETCH_USEFUL = "bufferpool_prefetch_useful_total"
BUFFERPOOL_PREFETCH_WASTED = "bufferpool_prefetch_wasted_total"

# -- repro.storage.replacement: policy events, per pool + policy label ------

REPLACEMENT_PROMOTIONS = "replacement_promotions_total"
REPLACEMENT_GHOST_HITS = "replacement_ghost_hits_total"

# -- repro.storage.pageio: cross-layer page traffic by component ------------

PAGEIO_READS = "pageio_reads_total"
PAGEIO_WRITES = "pageio_writes_total"

# -- repro.storage.retry / faults: resilience events, labelled by file ------

PAGEIO_RETRIES = "pageio_retries_total"
PAGEIO_GIVEUPS = "pageio_giveups_total"
PAGES_CORRUPT = "pages_corrupt_total"

# -- repro.storage.journal / recovery: crash consistency, labelled by file --

JOURNAL_RECORDS = "journal_records_total"
JOURNAL_COMMITS = "journal_commits_total"
RECOVERY_PAGES_REPLAYED = "recovery_pages_replayed_total"
RECOVERY_TAIL_TRUNCATIONS = "recovery_tail_truncations_total"
CRASHES_INJECTED = "crashes_injected_total"

# -- repro.storage.vpagecodec: versioned V-page codec, per scheme label -----

VPAGE_RECORDS_SELF = "vpage_records_self_total"
VPAGE_RECORDS_DELTA = "vpage_records_delta_total"
VPAGE_RAW_BYTES = "vpage_raw_bytes_total"
VPAGE_ENCODED_BYTES = "vpage_encoded_bytes_total"

# -- repro.storage.layout: seek-optimal rewriter, labelled by file ----------

LAYOUT_REWRITES = "layout_rewrites_total"
LAYOUT_PAGES_MOVED = "layout_pages_moved_total"

# -- repro.core.search: one series set per scheme label ---------------------

SEARCH_QUERIES = "search_queries_total"
SEARCH_NODES_READ = "search_nodes_read_total"
SEARCH_VPAGES_READ = "search_vpages_read_total"
SEARCH_PRUNED = "search_pruned_total"
SEARCH_TERMINATED = "search_terminated_total"
SEARCH_RECURSED = "search_recursed_total"
SEARCH_RESULTS = "search_results"

# -- repro.core.schemes: one series set per scheme label --------------------

SCHEME_FLIPS = "scheme_flips_total"
SCHEME_PREFETCHED_FLIPS = "scheme_prefetched_flips_total"
SCHEME_PREFETCHES = "scheme_prefetches_total"
SCHEME_WARM_EVICTIONS = "scheme_warm_evictions_total"

# -- repro.walkthrough: degradation accounting ------------------------------

FRAMES_DEGRADED = "frames_degraded_total"

# -- repro.serving: multi-session walkthrough service -----------------------

SERVING_SESSIONS = "serving_sessions_total"
SERVING_FRAMES = "serving_frames_total"
SERVING_ROUNDS = "serving_rounds_total"
SERVING_OVERLOAD_DEGRADED = "serving_overload_degraded_total"
SERVING_ADMISSION_WAITS = "serving_admission_waits_total"
SERVING_ACTIVE_SESSIONS = "serving_active_sessions"

# -- repro.serving.http: network front-end, one series set per route --------

HTTP_REQUESTS = "http_requests_total"
HTTP_ERRORS = "http_errors_total"
HTTP_LATENCY_MS = "http_request_latency_ms"

# -- repro.serving.loadgen: synthetic walkthrough traffic -------------------

TRAFFIC_SESSIONS = "traffic_sessions_total"
TRAFFIC_SESSIONS_SHED = "traffic_sessions_shed_total"
TRAFFIC_FRAMES = "traffic_frames_total"
TRAFFIC_REQUESTS = "traffic_requests_total"

# -- repro.visibility.precompute: offline DoV pipeline ----------------------

PRECOMPUTE_CELLS = "precompute_cells_total"
PRECOMPUTE_CELLS_CACHED = "precompute_cells_cached_total"
PRECOMPUTE_RAYS = "precompute_rays_total"


def registered_names() -> Dict[str, str]:
    """``{constant name: series name}`` for every registered metric."""
    return {key: value for key, value in globals().items()
            if key.isupper() and isinstance(value, str)}
