"""Session recorder and mesh-exact DoV validator."""

import json

import pytest

from repro.errors import VisibilityError, WalkthroughError
from repro.geometry.aabb import pack_aabbs
from repro.geometry.primitives import box_mesh, icosphere
from repro.visibility.exact import MeshDoVEstimator
from repro.visibility.raycast import RayCastDoVEstimator
from repro.walkthrough.recorder import (load_session, save_session,
                                        session_from_dict, session_to_dict)
from repro.walkthrough.session import make_session


# -- recorder ----------------------------------------------------------------

@pytest.fixture()
def session(small_scene):
    return make_session(2, small_scene.bounds(), num_frames=20,
                        street_pitch=120.0)


def test_session_roundtrip(session, tmp_path):
    path = str(tmp_path / "session.json")
    save_session(session, path)
    loaded = load_session(path)
    assert loaded.name == session.name
    assert loaded.num_frames == session.num_frames
    for a, b in zip(loaded, session):
        assert a.position == pytest.approx(b.position)
        assert a.direction == pytest.approx(b.direction)


def test_session_dict_roundtrip(session):
    assert session_from_dict(session_to_dict(session)).name == session.name


def test_session_bad_version(session):
    data = session_to_dict(session)
    data["version"] = 99
    with pytest.raises(WalkthroughError):
        session_from_dict(data)


def test_session_bad_frames(session):
    data = session_to_dict(session)
    data["frames"] = [{"position": [1, 2]}]
    with pytest.raises(WalkthroughError):
        session_from_dict(data)
    data["frames"] = []
    with pytest.raises(WalkthroughError):
        session_from_dict(data)


def test_session_corrupt_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(WalkthroughError):
        load_session(str(path))


def test_replay_identical_across_loads(session, tmp_path, small_env):
    """The paper's methodology: a recorded session replays identically."""
    from repro.walkthrough.visual import VisualSystem
    path = str(tmp_path / "s.json")
    save_session(session, path)
    loaded = load_session(path)
    run_a = VisualSystem(small_env, eta=0.002,
                         evaluate_fidelity=False).run(session)
    run_b = VisualSystem(small_env, eta=0.002,
                         evaluate_fidelity=False).run(loaded)
    # Compare the state-independent outputs: same cells visited, same
    # polygons rendered per frame.  (Simulated times vary with disk-head
    # positions carried across runs of the shared environment.)
    assert [f.cell_id for f in run_a.frames] == \
        [f.cell_id for f in run_b.frames]
    assert [f.polygons for f in run_a.frames] == \
        [f.polygons for f in run_b.frames]


# -- mesh-exact DoV vs AABB DoV --------------------------------------------

def test_exact_matches_boxes_for_box_meshes():
    """For box-shaped objects the AABB estimator *is* exact."""
    centers = [(15, 0, 0), (0, 20, 0), (-25, 0, 0)]
    meshes = [box_mesh(c, (4, 4, 4)) for c in centers]
    boxes = pack_aabbs([m.aabb() for m in meshes])
    approx = RayCastDoVEstimator(boxes, resolution=16)
    exact = MeshDoVEstimator(meshes, resolution=16)
    viewpoint = (0, 0, 0)
    a = approx.dov_from_viewpoint(viewpoint)
    e = exact.dov_from_viewpoint(viewpoint)
    assert set(a) == set(e)
    for oid in a:
        assert a[oid] == pytest.approx(e[oid], rel=1e-6)


def test_box_estimate_is_conservative_for_spheres():
    """A sphere's box over-estimates its DoV (never under-estimates)."""
    sphere = icosphere(radius=2.0, subdivisions=3, center=(12, 0, 0))
    approx = RayCastDoVEstimator(pack_aabbs([sphere.aabb()]),
                                 resolution=24)
    exact = MeshDoVEstimator([sphere], resolution=24)
    a = approx.dov_from_viewpoint((0, 0, 0))[0]
    e = exact.dov_from_viewpoint((0, 0, 0))[0]
    assert a >= e > 0.0


def test_exact_occlusion():
    wall = box_mesh((5, 0, 0), (1, 20, 20))
    hidden = box_mesh((15, 0, 0), (2, 2, 2))
    exact = MeshDoVEstimator([wall, hidden], resolution=16)
    dov = exact.dov_from_viewpoint((0, 0, 0))
    assert 0 in dov
    assert 1 not in dov


def test_exact_estimator_validation():
    with pytest.raises(VisibilityError):
        MeshDoVEstimator([])
    with pytest.raises(VisibilityError):
        MeshDoVEstimator([box_mesh((0, 0, 0), (1, 1, 1))], object_ids=[1, 2])
