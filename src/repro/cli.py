"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro list
    python -m repro run table2 [--scale small|medium|large]
    python -m repro run fig7 fig8 table3
    python -m repro run all --scale small
    python -m repro profile [--scale small] [--session 1] [--eta 0.001]
    python -m repro chaos [--plan aggressive] [--seed 0] [--list-plans]
    python -m repro layout [--scale small] [--session 4] [--output FILE]
    python -m repro crash [--seed 0] [--txns 5] [--output FILE]
    python -m repro precompute [--workers 4] [--cache-dir DIR] [--resume]
    python -m repro serve [--sessions 8] [--seed 7]
    python -m repro traffic [--sessions 200] [--seed 0] [--arrival-rate 50]

``run`` prints the same rows/series the paper reports (see
EXPERIMENTS.md for the paper-vs-measured comparison); ``profile`` runs
one instrumented walkthrough and emits a JSON report of where the
simulated milliseconds and page I/Os go (see README, "Profiling");
``chaos`` replays a session under a named fault plan and reports frames
survived, degradations, retries, and the fidelity delta (see README,
"Chaos testing"); ``crash`` sweeps a deterministic crash-point matrix
over every I/O boundary of a journaled write workload — including the
boundaries inside recovery itself — and fails if any recovered state
breaks atomicity or recovery is not idempotent (see README, "Crash
recovery"); ``precompute`` runs the batched/parallel per-cell DoV
pipeline with an optional resumable cache and emits a JSON summary whose
``digest`` field fingerprints the resulting table bit-for-bit (see
README, "Precompute"); ``serve`` runs N concurrent walkthrough sessions
against one tree through a shared buffer pool and emits a deterministic
aggregate JSON report (see README, "Serving"); ``traffic`` offers a
seeded Poisson stream of walkthrough sessions to the HTTP front-end and
reports shed rate, frame-latency percentiles, and per-route request
stats, with the machine-independent sections byte-identical for a fixed
seed (see README, "Traffic").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict

from repro.experiments import (run_figure7, run_figure8, run_figure9,
                               run_figure10a, run_figure10b, run_figure11,
                               run_figure12, run_memory_comparison,
                               run_table2, run_table3)
from repro.experiments.ablations import (run_flip_scaling, run_nvo_ablation,
                                         run_split_ablation)
from repro.experiments.baseline_comparison import run_baseline_comparison
from repro.experiments.extensions import (run_node_cache_sweep,
                                          run_prefetch_extension,
                                          run_priority_extension)
from repro.experiments.config import get_scale

#: Experiment id -> (description, runner taking a scale).
EXPERIMENTS: Dict[str, tuple] = {
    "table2": ("storage space of the three schemes",
               lambda scale: run_table2(scale)),
    "fig7": ("search time vs eta (all schemes + naive)",
             lambda scale: run_figure7(scale)),
    "fig8": ("disk I/Os vs eta (total and light-weight)",
             lambda scale: run_figure8(scale)),
    "fig9": ("scalability over the 400MB-1.6GB dataset series",
             lambda scale: run_figure9(num_queries=30, dov_resolution=16,
                                       cell_size=120.0)),
    "fig10a": ("frame time: VISUAL vs REVIEW",
               lambda scale: run_figure10a(scale)),
    "fig10b": ("frame time: VISUAL at two thresholds",
               lambda scale: run_figure10b(scale)),
    "fig11": ("visual fidelity (missed objects)",
              lambda scale: run_figure11(scale)),
    "fig12": ("search performance across motion patterns",
              lambda scale: run_figure12(scale)),
    "table3": ("frame time and variance vs eta",
               lambda scale: run_table3(scale)),
    "memory": ("peak memory: VISUAL vs REVIEW",
               lambda scale: run_memory_comparison(scale)),
    "ablation-nvo": ("eq.4 NVO termination heuristic on/off",
                     lambda scale: run_nvo_ablation(scale)),
    "ablation-split": ("Ang-Tan vs Guttman node splitting",
                       lambda scale: run_split_ablation(scale)),
    "ablation-flip": ("cell-flip I/O vs tree size",
                      lambda scale: run_flip_scaling()),
    "baselines": ("VISUAL vs REVIEW vs LoD-R-tree across sessions",
                  lambda scale: run_baseline_comparison(scale)),
    "ext-priority": ("frustum-prioritized traversal response time",
                     lambda scale: run_priority_extension(scale)),
    "ext-prefetch": ("cell prefetching: warm-hit flip costs",
                     lambda scale: run_prefetch_extension(scale)),
    "ext-nodecache": ("tree-node cache-size sweep",
                      lambda scale: run_node_cache_sweep(scale)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HDoV-tree (ICDE 2003) reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+",
                     help="experiment ids (or 'all')")
    run.add_argument("--scale", default="medium",
                     choices=["small", "medium", "large"],
                     help="environment scale (default: medium)")

    profile = sub.add_parser(
        "profile",
        help="run an instrumented walkthrough; emit a JSON I/O report")
    profile.add_argument("--scale", default="small",
                         choices=["small", "medium", "large"],
                         help="environment scale (default: small)")
    profile.add_argument("--session", type=int, default=1,
                         choices=[1, 2, 3, 4],
                         help="motion pattern (default: 1, normal walk)")
    profile.add_argument("--eta", type=float, default=0.001,
                         help="DoV threshold (default: 0.001)")
    profile.add_argument("--frames", type=int, default=None,
                         help="frame count (default: the scale's)")
    profile.add_argument("--scheme", default=None,
                         help="storage scheme (default: the scale's)")
    profile.add_argument("--compress", action="store_true",
                         help="build with the packed delta V-page codec")
    profile.add_argument("--spans", action="store_true",
                         help="embed the full span list in the report")
    profile.add_argument("--output", default=None, metavar="FILE",
                         help="write the report to FILE (default: stdout)")

    chaos = sub.add_parser(
        "chaos",
        help="replay a walkthrough under a fault plan; emit a JSON report")
    chaos.add_argument("--scale", default="small",
                       choices=["small", "medium", "large"],
                       help="environment scale (default: small)")
    chaos.add_argument("--session", type=int, default=1,
                       choices=[1, 2, 3, 4],
                       help="motion pattern (default: 1, normal walk)")
    chaos.add_argument("--eta", type=float, default=0.001,
                       help="DoV threshold (default: 0.001)")
    chaos.add_argument("--frames", type=int, default=None,
                       help="frame count (default: the scale's)")
    chaos.add_argument("--scheme", default=None,
                       help="storage scheme (default: the scale's)")
    chaos.add_argument("--compress", action="store_true",
                       help="build with the packed delta V-page codec "
                            "(faults then hit compressed records too)")
    chaos.add_argument("--plan", default="aggressive",
                       help="fault plan name (default: aggressive; "
                            "see --list-plans)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-injector seed (default: 0); the "
                            "same seed reproduces the same report")
    chaos.add_argument("--output", default=None, metavar="FILE",
                       help="write the report to FILE (default: stdout)")
    chaos.add_argument("--list-plans", action="store_true",
                       help="list the built-in fault plans and exit")

    layout = sub.add_parser(
        "layout",
        help="rewrite the V-page disk layout along the walkthrough tour "
             "and report before/after seeks and compression")
    layout.add_argument("--scale", default="small",
                        choices=["small", "medium", "large"],
                        help="environment scale (default: small)")
    layout.add_argument("--session", type=int, default=4,
                        choices=[1, 2, 3, 4],
                        help="motion pattern (default: 4, the loop "
                             "circuit the rewriter targets)")
    layout.add_argument("--eta", type=float, default=0.001,
                        help="DoV threshold (default: 0.001)")
    layout.add_argument("--frames", type=int, default=None,
                        help="frame count (default: the scale's)")
    layout.add_argument("--schemes", nargs="+", metavar="SCHEME",
                        default=None,
                        help="schemes to rewrite (default: vertical and "
                             "indexed-vertical)")
    layout.add_argument("--output", default=None, metavar="FILE",
                        help="write the report to FILE (default: stdout)")

    crash = sub.add_parser(
        "crash",
        help="sweep a crash-point matrix over the journaled write path; "
             "emit a byte-deterministic JSON report")
    crash.add_argument("--seed", type=int, default=0,
                       help="workload/injector seed (default: 0); the "
                            "same seed reproduces the report byte-for-"
                            "byte")
    crash.add_argument("--pages", type=int, default=8,
                       help="pages in the journaled file (default: 8)")
    crash.add_argument("--page-size", type=int, default=128,
                       help="bytes per page (default: 128)")
    crash.add_argument("--txns", type=int, default=5,
                       help="write transactions (default: 5; every "
                            "second one checkpoints)")
    crash.add_argument("--writes", type=int, default=3,
                       help="page writes per transaction (default: 3)")
    crash.add_argument("--cache-cells", type=int, default=10,
                       help="cells in the precompute-cache torn-tail "
                            "sweep (default: 10)")
    crash.add_argument("--cache-stride", type=int, default=7,
                       help="byte stride of interior cache truncation "
                            "points (default: 7)")
    crash.add_argument("--output", default=None, metavar="FILE",
                       help="write the report to FILE (default: stdout)")

    precompute = sub.add_parser(
        "precompute",
        help="run the per-cell DoV precompute pipeline; emit a JSON "
             "summary with the table's content digest")
    precompute.add_argument("--scale", default="small",
                            choices=["small", "medium", "large"],
                            help="environment scale (default: small)")
    precompute.add_argument("--resolution", type=int, default=None,
                            help="cube-map resolution (default: the "
                                 "scale's)")
    precompute.add_argument("--samples", type=int, default=1,
                            help="viewpoint samples per cell (default: 1)")
    precompute.add_argument("--min-dov", type=float, default=0.0,
                            help="DoV floor below which an object is "
                                 "treated as hidden (default: 0)")
    precompute.add_argument("--workers", type=int, default=1,
                            help="worker processes (default: 1; any "
                                 "count yields a bit-identical table)")
    precompute.add_argument("--batch-cells", type=int, default=None,
                            help="cells per vectorized kernel call "
                                 "(default: 16)")
    precompute.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="resumable cell-cache directory")
    precompute.add_argument("--resume", action="store_true",
                            help="reuse cells already in --cache-dir "
                                 "(fingerprint-checked)")
    precompute.add_argument("--table", default=None, metavar="FILE",
                            help="write the visibility table to "
                                 "FILE (.npz)")
    precompute.add_argument("--output", default=None, metavar="FILE",
                            help="write the JSON summary to FILE "
                                 "(default: stdout)")
    precompute.add_argument("--quiet", action="store_true",
                            help="suppress the progress line on stderr")

    serve = sub.add_parser(
        "serve",
        help="serve N concurrent walkthrough sessions through a shared "
             "buffer pool; emit a deterministic JSON report")
    serve.add_argument("--sessions", type=int, default=8,
                       help="concurrent walkthrough sessions (default: 8)")
    serve.add_argument("--seed", type=int, default=7,
                       help="session motion-pattern seed (default: 7); "
                            "the same seed reproduces the same report")
    serve.add_argument("--scale", default="small",
                       choices=["small", "medium", "large"],
                       help="environment scale (default: small)")
    serve.add_argument("--eta", type=float, default=0.001,
                       help="DoV threshold (default: 0.001)")
    serve.add_argument("--frames", type=int, default=None,
                       help="frames per session (default: the scale's)")
    serve.add_argument("--scheme", default=None,
                       help="storage scheme (default: the scale's)")
    serve.add_argument("--max-active", type=int, default=None,
                       help="admission-control slots (default: no limit)")
    serve.add_argument("--frame-budget-ms", type=float, default=None,
                       help="simulated per-frame deadline; sessions over "
                            "budget shed their next query to the root LoD")
    serve.add_argument("--pool-pages", type=int, default=256,
                       help="shared buffer-pool capacity in pages "
                            "(default: 256; 0 serves unpooled)")
    serve.add_argument("--policy", default=None, choices=["lru", "2q"],
                       help="pool replacement policy (default: the "
                            "scale's, normally lru)")
    serve.add_argument("--prefetch", action="store_true", default=None,
                       help="enable cross-session predictive pool "
                            "prefetch (default: the scale's, normally "
                            "off)")
    serve.add_argument("--plan", default=None,
                       help="optional fault plan to serve under "
                            "(see 'repro chaos --list-plans')")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="fault-injector seed (default: 0)")
    serve.add_argument("--output", default=None, metavar="FILE",
                       help="write the report to FILE (default: stdout)")

    traffic = sub.add_parser(
        "traffic",
        help="offer a seeded Poisson stream of walkthrough sessions to "
             "the HTTP front-end; emit a traffic/latency JSON report")
    traffic.add_argument("--sessions", type=int, default=200,
                         help="sessions offered (default: 200)")
    traffic.add_argument("--seed", type=int, default=0,
                         help="arrival/pattern seed (default: 0); the "
                              "same seed reproduces the deterministic "
                              "report sections byte-for-byte")
    traffic.add_argument("--scale", default="small",
                         choices=["small", "medium", "large"],
                         help="environment scale (default: small)")
    traffic.add_argument("--eta", type=float, default=0.001,
                         help="DoV threshold (default: 0.001)")
    traffic.add_argument("--frames", type=int, default=30,
                         help="frames per session (default: 30 — many "
                              "short sessions, not a few long ones)")
    traffic.add_argument("--scheme", default=None,
                         help="storage scheme (default: the scale's)")
    traffic.add_argument("--arrival-rate", type=float, default=50.0,
                         help="offered load in sessions per virtual "
                              "second (default: 50)")
    traffic.add_argument("--hot-fraction", type=float, default=0.5,
                         help="fraction of arrivals replaying the hot "
                              "path, pattern 1 (default: 0.5)")
    traffic.add_argument("--max-active", type=int, default=32,
                         help="admission slots; arrivals past this are "
                              "shed with a 503 (default: 32)")
    traffic.add_argument("--frame-budget-ms", type=float, default=None,
                         help="simulated per-frame deadline; sessions "
                              "over budget degrade their next query")
    traffic.add_argument("--pool-pages", type=int, default=256,
                         help="shared buffer-pool capacity in pages "
                              "(default: 256; 0 serves unpooled)")
    traffic.add_argument("--plan", default=None,
                         help="optional fault plan to serve under "
                              "(see 'repro chaos --list-plans')")
    traffic.add_argument("--fault-seed", type=int, default=0,
                         help="fault-injector seed (default: 0)")
    traffic.add_argument("--deterministic-only", action="store_true",
                         help="emit only the machine-independent "
                              "sections (what the CI job diffs)")
    traffic.add_argument("--output", default=None, metavar="FILE",
                         help="write the report to FILE (default: "
                              "stdout)")

    lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis rule suite (RPR codes)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: src)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="subtract the accepted violations in FILE")
    lint.add_argument("--write-baseline", default=None, metavar="FILE",
                      help="snapshot current violations to FILE and exit 0")
    lint.add_argument("--format", default="text",
                      choices=["text", "json"],
                      help="diagnostic output format (default: text)")
    lint.add_argument("--rules", action="store_true",
                      help="list the registered rules and exit")
    return parser


def cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (description, _runner) in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}")
    return 0


def cmd_run(names, scale_name: str) -> int:
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print("use 'python -m repro list'", file=sys.stderr)
        return 2
    scale = get_scale(scale_name)
    for name in names:
        _description, runner = EXPERIMENTS[name]
        # perf_counter, not time.time(): wall-clock can jump (NTP, DST)
        # and RPR004 forbids it for elapsed-time measurement.
        started = time.perf_counter()
        result = runner(scale)
        elapsed = time.perf_counter() - started
        print()
        print(result.format_table())
        print(f"[{name} completed in {elapsed:.1f}s wall-clock "
              f"at scale {scale_name!r}]")
    return 0


def cmd_profile(args) -> int:
    from repro.obs.profile import run_profile

    report = run_profile(scale=args.scale, session=args.session,
                         eta=args.eta, frames=args.frames,
                         scheme=args.scheme, compress=args.compress,
                         include_spans=args.spans)
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        reconciled = report["io"]["reconciled"]
        print(f"wrote {args.output} (reconciled={reconciled})")
    else:
        print(text)
    return 0 if report["io"]["reconciled"] else 1


def cmd_chaos(args) -> int:
    from repro.obs.chaos import run_chaos
    from repro.storage.faults import named_plan, plan_names

    if args.list_plans:
        width = max(len(name) for name in plan_names())
        for name in plan_names():
            rules = named_plan(name).rules
            kinds = ", ".join(sorted({r.kind for r in rules}))
            print(f"  {name:<{width}}  {len(rules)} rule(s): {kinds}")
        return 0
    from repro.errors import StorageError

    try:
        report = run_chaos(scale=args.scale, session=args.session,
                           eta=args.eta, frames=args.frames,
                           scheme=args.scheme, plan=args.plan,
                           seed=args.seed, compress=args.compress)
    except StorageError as exc:
        # An unknown plan name is a usage error, not a crash.
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        outcome = report["outcome"]
        print(f"wrote {args.output} (completed={outcome['completed']}, "
              f"survived {outcome['frames_survived']}"
              f"/{outcome['frames_total']} frames)")
    else:
        print(text)
    # Nonzero on any violated invariant — not just an aborted replay; a
    # completed run whose accounting is inconsistent must fail CI too.
    return 0 if report["invariants"]["ok"] else 1


def cmd_layout(args) -> int:
    from repro.errors import ReproError
    from repro.obs.layout import DEFAULT_SCHEMES, run_layout

    schemes = tuple(args.schemes) if args.schemes else DEFAULT_SCHEMES
    try:
        report = run_layout(scale=args.scale, session=args.session,
                            eta=args.eta, frames=args.frames,
                            schemes=schemes)
    except ReproError as exc:
        # An unsupported scheme name is a usage error, not a crash.
        print(f"repro layout: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        back = {name: (sr["baseline"]["light"]["back_seeks"],
                       sr["rewritten"]["light"]["back_seeks"])
                for name, sr in report["schemes"].items()}
        print(f"wrote {args.output} (ok={report['ok']}, "
              f"back_seeks before/after: {back})")
    else:
        print(text)
    return 0 if report["ok"] else 1


def cmd_crash(args) -> int:
    from repro.errors import ReproError
    from repro.obs.crash import run_crash_sweep

    try:
        report = run_crash_sweep(seed=args.seed, pages=args.pages,
                                 page_size=args.page_size, txns=args.txns,
                                 writes_per_txn=args.writes,
                                 cache_cells=args.cache_cells,
                                 cache_stride=args.cache_stride)
    except ReproError as exc:
        print(f"repro crash: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        summary = report["summary"]
        print(f"wrote {args.output} (points={summary['points']}, "
              f"recovery_points={summary['recovery_points']}, "
              f"violations={summary['violations']})")
    else:
        print(text)
    return 0 if report["summary"]["ok"] else 1


def cmd_precompute(args) -> int:
    from repro.errors import VisibilityError
    from repro.obs.metrics import use_registry
    from repro.scene.city import generate_city
    from repro.visibility.cells import CellGrid
    from repro.visibility.persist import save_visibility, visibility_digest
    from repro.visibility.precompute import (DEFAULT_BATCH_CELLS,
                                             precompute_visibility)

    scale = get_scale(args.scale)
    resolution = (args.resolution if args.resolution is not None
                  else scale.hdov.dov_resolution)
    batch_cells = (args.batch_cells if args.batch_cells is not None
                   else DEFAULT_BATCH_CELLS)
    scene = generate_city(scale.city)
    grid = CellGrid.covering(scene.bounds(), scale.cell_size)

    def progress(done: int, total: int) -> None:
        if not args.quiet:
            print(f"\rprecompute: {done}/{total} cells", end="",
                  file=sys.stderr, flush=True)

    started = time.perf_counter()
    try:
        with use_registry() as registry:
            table = precompute_visibility(
                scene, grid, resolution=resolution,
                samples_per_cell=args.samples, min_dov=args.min_dov,
                workers=args.workers, batch_cells=batch_cells,
                cache_dir=args.cache_dir, resume=args.resume,
                progress=progress)
            counters = registry.collect()
    except VisibilityError as exc:
        if not args.quiet:
            print(file=sys.stderr)
        print(f"repro precompute: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    if not args.quiet:
        print(file=sys.stderr)
    if args.table is not None:
        save_visibility(table, args.table)
    summary = {
        "scale": args.scale,
        "resolution": resolution,
        "samples_per_cell": args.samples,
        "min_dov": args.min_dov,
        "workers": args.workers,
        "batch_cells": batch_cells,
        "cells_total": int(counters.get("precompute_cells_total", 0.0)),
        "cells_cached": int(counters.get("precompute_cells_cached_total",
                                         0.0)),
        "rays_cast": int(counters.get("precompute_rays_total", 0.0)),
        "avg_visible": round(table.average_visible(), 3),
        "elapsed_s": round(elapsed, 3),
        "table": args.table,
        "digest": visibility_digest(table),
    }
    text = json.dumps(summary, indent=2, sort_keys=False)
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output} (digest={summary['digest'][:16]}...)")
    else:
        print(text)
    return 0


def cmd_serve(args) -> int:
    from repro.errors import ReproError
    from repro.serving import run_serve

    try:
        report = run_serve(sessions=args.sessions, seed=args.seed,
                           scale=args.scale, eta=args.eta,
                           frames=args.frames, scheme=args.scheme,
                           max_active=args.max_active,
                           frame_budget_ms=args.frame_budget_ms,
                           pool_pages=args.pool_pages,
                           policy=args.policy, prefetch=args.prefetch,
                           plan=args.plan,
                           fault_seed=args.fault_seed)
    except ReproError as exc:
        # Bad arguments or an unknown plan name: a usage error.
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        outcome = report["outcome"]
        print(f"wrote {args.output} (completed={outcome['completed']}, "
              f"{outcome['frames_served']} frames in "
              f"{outcome['rounds']} rounds)")
    else:
        print(text)
    return 0 if report["outcome"]["completed"] else 1


def cmd_traffic(args) -> int:
    from repro.errors import ReproError
    from repro.serving.loadgen import run_traffic

    try:
        report = run_traffic(sessions=args.sessions, seed=args.seed,
                             scale=args.scale, eta=args.eta,
                             frames=args.frames,
                             scheme=args.scheme,
                             arrival_rate=args.arrival_rate,
                             hot_fraction=args.hot_fraction,
                             max_active=args.max_active,
                             frame_budget_ms=args.frame_budget_ms,
                             pool_pages=args.pool_pages, plan=args.plan,
                             fault_seed=args.fault_seed)
    except ReproError as exc:
        # Bad arguments or an unknown plan name: a usage error.
        print(f"repro traffic: {exc}", file=sys.stderr)
        return 2
    if args.deterministic_only:
        report = {key: report[key] for key in ("traffic", "deterministic")}
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        det = report["deterministic"]
        print(f"wrote {args.output} "
              f"(offered={det['sessions']['offered']}, "
              f"shed_rate={det['sessions']['shed_rate']:.3f}, "
              f"frames={det['frames']['served']})")
    else:
        print(text)
    unexpected = report["deterministic"]["requests"]["unexpected"]
    return 0 if not unexpected else 1


def cmd_lint(args) -> int:
    from repro.analysis import all_rules, lint_paths, save_baseline

    if args.rules:
        rules = [rule() for rule in all_rules()]
        width = max(len(rule.code) for rule in rules)
        for rule in rules:
            print(f"  {rule.code:<{width}}  {rule.name}: {rule.summary}")
        return 0
    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    try:
        result = lint_paths(paths, baseline_path=args.baseline)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline is not None:
        save_baseline(args.write_baseline, result.before_baseline)
        print(f"wrote baseline {args.write_baseline} "
              f"({len(result.before_baseline)} accepted violations)")
        return 0
    if args.format == "json":
        print(json.dumps({
            "files_checked": result.files_checked,
            "pragma_suppressed": result.pragma_suppressed,
            "baseline_suppressed": result.baseline_suppressed,
            "violations": [vars(d) for d in result.diagnostics],
        }, indent=2))
    else:
        for diagnostic in result.diagnostics:
            print(diagnostic.format())
        suppressed = ""
        if result.pragma_suppressed or result.baseline_suppressed:
            suppressed = (f" ({result.pragma_suppressed} pragma-"
                          f"suppressed, {result.baseline_suppressed} "
                          f"baselined)")
        print(f"repro lint: {len(result.diagnostics)} violation(s) in "
              f"{result.files_checked} file(s){suppressed}")
    return 0 if result.ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "layout":
        return cmd_layout(args)
    if args.command == "crash":
        return cmd_crash(args)
    if args.command == "precompute":
        return cmd_precompute(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "traffic":
        return cmd_traffic(args)
    if args.command == "lint":
        return cmd_lint(args)
    return cmd_run(args.experiments, args.scale)


if __name__ == "__main__":       # pragma: no cover
    sys.exit(main())
