"""Multi-session serving tests: determinism, attribution, degradation.

The acceptance bar: ``repro serve`` run twice with the same seed yields
byte-identical reports; a single unpooled session matches the sequential
``VisualSystem`` path exactly; per-session I/O reconciles with the
shared ledgers on every integer ``IOStats`` field; the shared pool's hit rate grows with
the session count; and overload/admission/fault pressure degrades
service instead of deadlocking it.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.core.hdov_tree import build_environment
from repro.errors import WalkthroughError
from repro.experiments.config import get_scale
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.scene.city import generate_city
from repro.serving import run_serve
from repro.serving.service import _reconcile
from repro.storage.disk import IOStats
from repro.visibility.cells import CellGrid
from repro.walkthrough.session import make_session
from repro.walkthrough.visual import VisualSystem


@pytest.fixture(scope="module")
def serve_report():
    """One canonical run shared by the read-only assertions."""
    return run_serve(sessions=8, seed=7, frames=12)


def test_serve_same_seed_byte_identical(serve_report):
    again = run_serve(sessions=8, seed=7, frames=12)
    assert json.dumps(serve_report, sort_keys=False) \
        == json.dumps(again, sort_keys=False)


def test_serve_reconciliation_balances(serve_report):
    reconciliation = serve_report["reconciliation"]
    assert reconciliation["light_ios_balanced"] is True
    assert reconciliation["heavy_ios_balanced"] is True
    assert reconciliation["simulated_ms_balanced"] is True
    assert reconciliation["pool_balanced"] is True


def _ledger(**counts):
    return IOStats(reads=6, seeks=4, back_seeks=1, forward_seeks=3,
                   sequential_reads=2, bytes_read=6 * 4096,
                   simulated_ms=33.0, **counts)


def test_reconcile_checks_every_integer_field():
    """Moving one back seek to the forward column leaves reads, seeks
    and bytes balanced, yet the direction split no longer matches the
    shared ledger — the flag must say so, on both ledgers."""
    session = SimpleNamespace(light_total=_ledger(), heavy_total=_ledger(),
                              pool_hits=0, pool_misses=0)
    env = SimpleNamespace(light_stats=_ledger(), heavy_stats=_ledger())
    balanced = _reconcile(env, [session], pool=None)
    assert balanced["light_ios_balanced"] is True
    assert balanced["heavy_ios_balanced"] is True

    for ledger in (session.light_total, session.heavy_total):
        ledger.back_seeks -= 1
        ledger.forward_seeks += 1
    shifted = _reconcile(env, [session], pool=None)
    assert shifted["light_ios_balanced"] is False
    assert shifted["heavy_ios_balanced"] is False
    assert shifted["simulated_ms_balanced"] is True


def test_serve_report_shape(serve_report):
    assert serve_report["outcome"]["completed"] is True
    assert serve_report["outcome"]["error"] is None
    assert serve_report["outcome"]["frames_served"] == 8 * 12
    entries = serve_report["sessions"]
    assert [s["id"] for s in entries] == list(range(8))
    for entry in entries:
        assert entry["frames"] == 12
        assert len(entry["frame_times"]) == 12
        assert entry["queries"] >= 1
        assert entry["fidelity_mean"] == entry["fidelity_mean"]  # not NaN
    pool = serve_report["pool"]
    assert pool["hits"] + pool["misses"] > 0
    assert 0.0 <= pool["hit_rate"] <= 1.0


def test_serve_shared_pool_hit_rate_grows_with_sessions(serve_report):
    solo = run_serve(sessions=1, seed=7, frames=12)
    assert serve_report["pool"]["hit_rate"] > solo["pool"]["hit_rate"]


def test_serve_unpooled_single_session_matches_sequential_path():
    """sessions=1, pool off == the VisualSystem replay."""
    frames = 12
    served = run_serve(sessions=1, seed=7, frames=frames,
                       pool_pages=0)
    assert served["pool"] is None

    experiment = get_scale("small")
    with use_registry(MetricsRegistry()):
        scene = generate_city(experiment.city)
        grid = CellGrid.covering(scene.bounds(), experiment.cell_size)
        env = build_environment(scene, grid, experiment.hdov)
        pattern = int(np.random.default_rng(7).integers(1, 4))
        path = make_session(pattern, scene.bounds(), num_frames=frames,
                            street_pitch=experiment.city.pitch)
        env.reset_stats()
        visual = VisualSystem(
            env, eta=0.001,
            cache_budget_bytes=experiment.visual_cache_budget_bytes)
        report = visual.run(path)

    entry = served["sessions"][0]
    assert entry["path"] == path.name
    assert entry["frame_times"] == [f.frame_ms for f in report.frames]
    assert entry["light"]["reads"] == env.light_stats.reads
    assert entry["light"]["seeks"] == env.light_stats.seeks
    assert entry["light"]["sequential_reads"] \
        == env.light_stats.sequential_reads
    assert entry["light"]["simulated_ms"] == env.light_stats.simulated_ms
    assert entry["heavy"]["reads"] == env.heavy_stats.reads
    assert entry["heavy"]["simulated_ms"] == env.heavy_stats.simulated_ms


def test_serve_overload_sheds_to_degraded_frames():
    report = run_serve(sessions=2, seed=7, frames=12,
                       frame_budget_ms=10.0)
    assert report["outcome"]["completed"] is True
    shed = [s["overload_degraded"] for s in report["sessions"]]
    assert sum(shed) > 0
    # Shed frames answer from the root's internal LoD, so they are
    # recorded as degraded renders too.
    for entry in report["sessions"]:
        assert entry["degraded_frames"] >= entry["overload_degraded"]


def test_serve_admission_control_limits_concurrency():
    report = run_serve(sessions=4, seed=7, frames=6,
                       max_active=2)
    assert report["outcome"]["completed"] is True
    assert report["serve"]["max_active"] == 2
    # Two slots over four sessions: the queue drains in two shifts.
    assert report["outcome"]["rounds"] == 12
    waits = [s["admission_wait_rounds"] for s in report["sessions"]]
    assert sum(waits) > 0
    # FIFO order: earlier ids never wait longer than later ids.
    assert waits == sorted(waits)
    assert report["outcome"]["frames_served"] == 4 * 6


def test_serve_under_faults_degrades_not_deadlocks():
    report = run_serve(sessions=4, seed=7, frames=12,
                       plan="aggressive", fault_seed=3)
    assert report["outcome"]["completed"] is True
    assert report["faults"]["total_injected"] > 0
    assert report["faults"]["frames_degraded_total"] > 0
    assert sum(s["degraded_frames"] for s in report["sessions"]) > 0
    reconciliation = report["reconciliation"]
    assert reconciliation["light_ios_balanced"] is True
    assert reconciliation["heavy_ios_balanced"] is True


def test_serve_rejects_bad_arguments():
    with pytest.raises(WalkthroughError):
        run_serve(sessions=0)
    with pytest.raises(WalkthroughError):
        run_serve(sessions=1, max_active=0)
    with pytest.raises(WalkthroughError):
        run_serve(sessions=1, frame_budget_ms=0.0)
    with pytest.raises(WalkthroughError):
        run_serve(sessions=1, pool_pages=-1)


def test_serve_cli_writes_deterministic_report(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    base = ["serve", "--sessions", "3", "--seed", "7", "--frames", "6"]
    assert main(base + ["--output", str(first)]) == 0
    assert main(base + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["outcome"]["completed"] is True
    assert report["serve"]["sessions"] == 3


def test_serve_cli_usage_error(capsys):
    assert main(["serve", "--sessions", "0"]) == 2
    assert "repro serve" in capsys.readouterr().err


class _StubSession:
    """The minimal surface SessionScheduler drives, without an env."""

    def __init__(self, session_id, frames):
        self.session_id = session_id
        self._remaining = frames
        self.admission_wait_rounds = 0
        self.last_frame_ms = 0.0

    @property
    def done(self):
        return self._remaining <= 0

    def step(self, *, shed_load=False):
        self._remaining -= 1
        return None

    def install_fidelity(self, fidelity):
        raise AssertionError("stub sessions never score")


def test_scheduler_zeroes_active_gauge_after_run():
    """Regression: ``SessionScheduler.run`` left the active-sessions
    gauge at the last round's count, so post-run scrapes showed phantom
    active sessions."""
    from repro.obs import names
    from repro.serving import SessionScheduler

    with use_registry(MetricsRegistry()) as registry:
        sessions = [_StubSession(i, frames=2 + i) for i in range(3)]
        scheduler = SessionScheduler(sessions)
        scheduler.run()
        assert scheduler.frames_served == sum(2 + i for i in range(3))
        assert registry.value(names.SERVING_ACTIVE_SESSIONS) == 0.0


def test_scheduler_zeroes_active_gauge_on_error():
    from repro.errors import ReproError
    from repro.obs import names
    from repro.serving import SessionScheduler

    class _ExplodingSession(_StubSession):
        def step(self, *, shed_load=False):
            raise ReproError("boom")

    with use_registry(MetricsRegistry()) as registry:
        scheduler = SessionScheduler([_ExplodingSession(0, frames=1)])
        with pytest.raises(ReproError):
            scheduler.run()
        assert registry.value(names.SERVING_ACTIVE_SESSIONS) == 0.0
