"""Bench: columnar R-tree node decode vs the per-entry decoder.

Decodes every node page of the SMALL environment with
:func:`repro.storage.serializer.decode_node` (one ``np.frombuffer`` over
the entry block, MBRs kept as an ``(n, 6)`` array) and with the
per-entry reference it replaced (one struct unpack and one validated
``AABB`` per entry), in the same process, and emits
``BENCH_hotpath.json``.  ``speedup_node_decode`` is reference time over
columnar time; both sides run on the same box, so the ratio is what the
regression gate tracks.  Reintroducing a per-entry ``AABB`` in the
decoder drops it below the 5x bar.
"""

from __future__ import annotations

import json
import os
import struct
import time

import numpy as np

from repro.experiments.config import SMALL, build_scale_environment
from repro.geometry.aabb import AABB
from repro.storage import serializer as ser

OUTPUT = "BENCH_hotpath.json"
#: Passes over all node pages per timing, and timings per decoder (the
#: fastest timing is kept, so a scheduler hiccup cannot fake a ratio).
PASSES = 50
REPEATS = 5

_HEADER = struct.Struct("<BHBI")
_ENTRY = struct.Struct("<6fII")


def reference_decode_node(data):
    """The per-entry decoder the columnar one replaced."""
    if len(data) < ser.NODE_HEADER_SIZE:
        raise ValueError("page too small for a node header")
    kind, count, level, vindex_offset = _HEADER.unpack_from(data, 0)
    entries = []
    offset = ser.NODE_HEADER_SIZE
    for _ in range(count):
        if offset + ser.NODE_ENTRY_SIZE > len(data):
            raise ValueError("truncated node entry")
        values = _ENTRY.unpack_from(data, offset)
        mbr = AABB(np.array(values[0:3], dtype=np.float64),
                   np.array(values[3:6], dtype=np.float64))
        entries.append((mbr, values[6], values[7]))
        offset += ser.NODE_ENTRY_SIZE
    return kind, level, vindex_offset, entries


def best_seconds(decode, pages):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(PASSES):
            for data in pages:
                decode(data)
        best = min(best, time.perf_counter() - start)
    return best


def test_node_decode(capsys):
    env = build_scale_environment(SMALL, schemes=("indexed-vertical",))
    store = env.node_store
    pages = [store.pfile.read_page(store.offset_to_page[offset])
             for offset in sorted(store.offset_to_page)]
    entries = 0
    for data in pages:
        kind, level, vindex, columnar = ser.decode_node(data)
        reference = reference_decode_node(data)
        assert (kind, level, vindex) == reference[:3]
        assert columnar.targets == [e[1] for e in reference[3]]
        assert columnar.lod_ptrs == [e[2] for e in reference[3]]
        entries += len(columnar)

    columnar_s = best_seconds(ser.decode_node, pages)
    reference_s = best_seconds(reference_decode_node, pages)
    decodes = PASSES * len(pages)

    report = {
        "scale": "small",
        "cpu_count": os.cpu_count(),
        "node_pages": len(pages),
        "entries_per_node": round(entries / len(pages), 2),
        "passes": PASSES,
        "repeats": REPEATS,
        "node_decode": {
            "columnar_us_per_node": round(columnar_s / decodes * 1e6, 2),
            "reference_us_per_node": round(reference_s / decodes * 1e6, 2),
        },
        "speedup_node_decode": round(reference_s / columnar_s, 2),
    }
    with open(OUTPUT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with capsys.disabled():
        print()
        print(json.dumps(report, indent=2, sort_keys=True))

    assert report["speedup_node_decode"] >= 5.0
