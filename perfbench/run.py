"""The repository benchmark: drives ``repro`` in-process and prints one
JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures with no timers installed and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` measures half
the time untraced and half with the per-layer timers of ``layers.py``
installed, and reports the per-layer metrics.  See ``README.md`` in
this directory for the workloads and what each metric should move.

The last line of standard output is the result object; a human-readable
summary goes to standard error.  The exit code is 0 only when every
correctness, reconciliation, determinism and self-check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Deterministic records of earlier runs, keyed by program digest.
STATE = HERE / ".state"

WORKLOADS = ("serve-hot", "serve-pressure", "update-walk")

#: Layers that must record calls on each workload in a traced run.
SERVING_LAYERS = ("serving.http", "serving.session", "storage.buffer")
QUERY_LAYERS = ("core.delta", "core.search", "rtree.decode",
                "storage.vpagecodec", "storage.pagedfile",
                "storage.objectstore", "simplify.lod_chain",
                "walkthrough.metrics")
UPDATE_LAYERS = ("core.update", "core.vpage", "visibility.raycast",
                 "walkthrough.visual")
REQUIRED = {
    "serve-hot": SERVING_LAYERS + QUERY_LAYERS,
    "serve-pressure": SERVING_LAYERS + QUERY_LAYERS,
    "update-walk": QUERY_LAYERS + UPDATE_LAYERS,
}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# -- determinism ------------------------------------------------------------


def _program_digest() -> str:
    """Digest of the library and benchmark sources."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_determinism(workload: str, seed: int,
                       record: Dict[str, object]) -> List[str]:
    """Compare with an earlier run of the same program and seed, or
    store this run's record for later runs to compare with."""
    path = STATE / f"{workload}-seed{seed}-{_program_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [f"{key}: {earlier.get(key)!r} earlier, {value!r} now"
                for key, value in sorted(record.items())
                if earlier.get(key) != value]
    STATE.mkdir(exist_ok=True)
    partial = path.with_suffix(".tmp")
    partial.write_text(json.dumps(record, sort_keys=True))
    os.replace(partial, path)
    return []


# -- metrics ------------------------------------------------------------------


def _end_to_end(outcome) -> Dict[str, float]:
    deciles = statistics.quantiles(outcome.main.latencies, n=10,
                                   method="inclusive")
    return {
        "setup_s": statistics.median(outcome.setup_times),
        "frames_per_s": outcome.main.frames_per_s,
        "latency_p50_ms": 1000.0 * deciles[4],
        "latency_p90_ms": 1000.0 * deciles[8],
        "sim_query_ms": outcome.deterministic["sim_query_ms"],
        "fidelity_mean": outcome.deterministic["fidelity_mean"],
        "peak_rss_mb": outcome.rss_mb,
    }


def _per_layer(outcome) -> Dict[str, float]:
    from common import SETUP_BUILDS
    from layers import BUILD_LAYERS, RUNTIME_LAYERS, LayerStats

    phase = outcome.traced
    empty = LayerStats()
    main = outcome.main
    metrics: Dict[str, float] = {
        "trace.overhead_ratio": phase.frames_per_s / main.frames_per_s,
        "host.slowness": statistics.median(main.slowness),
        "host.raw_frames_per_s": statistics.median(main.raw_chunk_rates),
        "host.raw_setup_s": statistics.median(outcome.raw_setup_times),
    }
    for layer in RUNTIME_LAYERS:
        stats = phase.bucket.get(layer, empty)
        metrics[f"{layer}.calls"] = stats.calls
        metrics[f"{layer}.self_pct"] = 100.0 * stats.self_time / phase.wall
    # Layers that run on every workload, so there are always calls to
    # divide by.
    for layer in QUERY_LAYERS:
        stats = phase.bucket.get(layer, empty)
        metrics[f"{layer}.self_us_per_call"] = (
            1e6 * stats.self_time / max(stats.calls, 1))
    search = phase.bucket.get("core.search", empty)
    decode = phase.bucket.get("rtree.decode", empty)
    metrics["core.search.nodes_per_query"] = (
        search.items.get("nodes_read", 0) / max(search.calls, 1))
    metrics["core.search.vpages_per_query"] = (
        search.items.get("vpages_read", 0) / max(search.calls, 1))
    metrics["rtree.decode.entries_per_call"] = (
        decode.items.get("entries", 0) / max(decode.calls, 1))

    record = outcome.deterministic
    metrics["storage.buffer.hit_rate"] = record.get("hit_rate", 0.0)
    metrics["storage.buffer.evictions"] = record.get("evictions", 0)
    for name in ("reads", "writes", "bytes_read", "bytes_written", "seeks",
                 "back_seeks"):
        metrics[f"storage.pagedfile.{name}"] = sum(
            record.get(f"{kind}.{name}", 0) for kind in ("light", "heavy"))
    metrics["storage.pagedfile.sim_ms"] = (record["light.simulated_ms"]
                                           + record["heavy.simulated_ms"])
    metrics.update(outcome.per_layer_extra)

    for layer in BUILD_LAYERS:
        stats = outcome.build_bucket.get(layer, empty)
        name = "build.vpages" if layer == "core.vpage" else layer
        metrics[f"{name}.ms"] = 1000.0 * stats.busy / SETUP_BUILDS
    return metrics


def _summary(outcome, args) -> List[str]:
    """Human-readable lines for standard error."""
    main = outcome.main
    lines = [f"{args.workload} seed={args.seed} trace={args.trace}: "
             f"{main.frames} frames in {len(main.chunk_rates)} chunks, "
             f"{len(main.latencies)} timed operations, "
             f"attempted={outcome.attempted} failed={outcome.failed}",
             f"host slowness per chunk: min "
             f"{min(main.slowness):.3f} median "
             f"{statistics.median(main.slowness):.3f} max "
             f"{max(main.slowness):.3f}; frames_per_s raw "
             f"{statistics.median(main.raw_chunk_rates):.1f} calibrated "
             f"{main.frames_per_s:.1f}; setup_s raw "
             f"{statistics.median(outcome.raw_setup_times):.3f}"]
    if not args.trace:
        return lines
    phase = outcome.traced
    lines.append(f"traced phase {phase.wall:.2f}s, {phase.frames} frames; "
                 f"self and busy shares of it:")
    ranked = sorted(phase.bucket.items(), key=lambda item: -item[1].self_time)
    for layer, stats in ranked:
        lines.append(f"  {layer:20s} self {100 * stats.self_time / phase.wall:6.2f}%"
                     f"  busy {100 * stats.busy / phase.wall:6.2f}%"
                     f"  calls={stats.calls}")
    removal = phase.bucket.get("core.update")
    if removal is not None and removal.busy > 0:
        explained = sum(phase.bucket[layer].self_time
                        for layer in ("core.update", "core.vpage",
                                      "visibility.raycast")
                        if layer in phase.bucket)
        lines.append(f"removal time in core.update + core.vpage + "
                     f"visibility.raycast self time: "
                     f"{100 * explained / removal.busy:.1f}%")
    return lines


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from layers import BUILD_LAYERS, Tracer, zero_call_layers
    if args.workload == "update-walk":
        import update_workload as workload
    else:
        import serve_workload as workload

    tracer = Tracer() if args.trace else None
    outcome = workload.run(args.workload, args.seed, args.seconds, tracer)

    mismatches = _check_determinism(args.workload, args.seed,
                                    outcome.deterministic)
    outcome.attempted += 1
    if mismatches:
        outcome.fail("not deterministic: " + "; ".join(mismatches))
    if args.trace:
        outcome.attempted += 1
        missing = zero_call_layers(outcome.traced.bucket,
                                   REQUIRED[args.workload])
        missing += zero_call_layers(outcome.build_bucket, BUILD_LAYERS)
        if missing:
            outcome.fail(f"traced layers with no calls: {missing}")

    section = "per_layer" if args.trace else "end_to_end"
    measured = _per_layer(outcome) if args.trace else _end_to_end(outcome)
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(measured) != set(declared):
        print(f"perfbench: {section} metrics differ from BENCHMARK.json: "
              f"{sorted(set(measured) ^ set(declared))}", file=sys.stderr)
        return 2
    metrics = {name: {"value": float(measured[name]), "unit": unit}
               for name, unit in declared.items()}

    for line in _summary(outcome, args):
        print(line, file=sys.stderr)
    for message in outcome.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
