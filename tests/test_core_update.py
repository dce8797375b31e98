"""Incremental environment updates (object removal)."""

import pytest

from repro.core.hdov_tree import HDoVConfig, build_environment
from repro.core.search import HDoVSearch
from repro.core.update import affected_cells, remove_object
from repro.core.vpage import check_vpage_invariants
from repro.errors import HDoVError
from repro.scene.city import CityParams, generate_city
from repro.visibility.cells import CellGrid


@pytest.fixture()
def fresh_env():
    """A private small environment (updates mutate it)."""
    scene = generate_city(CityParams(blocks_x=4, blocks_y=4, seed=23,
                                     bunnies_per_block=3,
                                     building_fraction=0.5,
                                     bunny_subdivisions=2))
    grid = CellGrid.covering(scene.bounds(), cell_size=120.0)
    return build_environment(scene, grid,
                             HDoVConfig(dov_resolution=12,
                                        schemes=("indexed-vertical",)))


def most_visible_object(env):
    counts = {}
    for cell_id in env.grid.cell_ids():
        for oid in env.visibility.cell(cell_id).visible_ids():
            counts[oid] = counts.get(oid, 0) + 1
    return max(counts, key=counts.get)


def test_affected_cells_are_where_visible(fresh_env):
    oid = most_visible_object(fresh_env)
    cells = affected_cells(fresh_env, oid)
    assert cells
    for cell_id in cells:
        assert fresh_env.visibility.cell(cell_id).get(oid) > 0
    for cell_id in fresh_env.grid.cell_ids():
        if cell_id not in cells:
            assert fresh_env.visibility.cell(cell_id).get(oid) == 0


def test_remove_object_disappears_from_queries(fresh_env):
    env = fresh_env
    oid = most_visible_object(env)
    touched = remove_object(env, oid)
    assert touched
    search = HDoVSearch(env)
    for cell_id in env.grid.cell_ids():
        result = search.query_cell(cell_id, eta=0.0)
        assert oid not in result.object_ids()


def test_remove_object_can_reveal_occluded(fresh_env):
    """Removing a big occluder can only grow other objects' DoV."""
    env = fresh_env
    oid = most_visible_object(env)
    cells = affected_cells(env, oid)
    before = {cell_id: dict(env.visibility.cell(cell_id).dov)
              for cell_id in cells}
    remove_object(env, oid)
    for cell_id in cells:
        after = env.visibility.cell(cell_id).dov
        for other, old_value in before[cell_id].items():
            if other == oid:
                continue
            # Occlusion can only decrease (DoV rise) when an object
            # disappears; allow tiny sampling jitter.
            assert after.get(other, 0.0) >= old_value - 1e-9


def test_remove_object_updated_cells_match_table(fresh_env):
    env = fresh_env
    oid = most_visible_object(env)
    remove_object(env, oid)
    search = HDoVSearch(env)
    for cell_id in env.grid.cell_ids():
        result = search.query_cell(cell_id, eta=0.0)
        assert result.object_ids() == \
            env.visibility.cell(cell_id).visible_ids()


def test_remove_object_preserves_vpage_invariants(fresh_env):
    env = fresh_env
    oid = most_visible_object(env)
    remove_object(env, oid)
    for cell_vp in env.cell_vpages:
        check_vpage_invariants(env.tree, cell_vp)


def test_remove_object_tree_valid(fresh_env):
    env = fresh_env
    oid = most_visible_object(env)
    remove_object(env, oid)
    env.tree.check_invariants()
    assert env.node_store.num_nodes == env.tree.num_nodes


def test_remove_two_objects(fresh_env):
    env = fresh_env
    first = most_visible_object(env)
    remove_object(env, first)
    second = most_visible_object(env)
    remove_object(env, second)
    search = HDoVSearch(env)
    busiest = max(env.grid.cell_ids(),
                  key=lambda c: env.visibility.cell(c).num_visible)
    ids = search.query_cell(busiest, eta=0.0).object_ids()
    assert first not in ids and second not in ids


def test_remove_unknown_object(fresh_env):
    with pytest.raises(HDoVError):
        remove_object(fresh_env, 10 ** 6)


def test_remove_requires_indexed_vertical(small_scene, small_grid):
    env = build_environment(
        small_scene, small_grid,
        HDoVConfig(dov_resolution=8, schemes=("vertical",)))
    with pytest.raises(HDoVError):
        remove_object(env, 0, scheme_name="vertical")


def test_nodes_created_by_removal_get_internal_lods():
    """Regression: condense-tree reinsertion split a node, and the new
    node had no internal-LoD record, so querying a cell that accepted
    it raised ``HDoVError: no internal LoD for node N``.  This seeded
    sequence of 21 removals on the default small environment hit it."""
    import numpy as np

    from repro.experiments.config import get_scale

    experiment = get_scale("small")
    scene = generate_city(experiment.city)
    grid = CellGrid.covering(scene.bounds(), experiment.cell_size)
    env = build_environment(scene, grid)
    order = np.random.default_rng([13, 4]).permutation(sorted(env.objects))
    for victim in order[:21]:
        remove_object(env, int(victim))
    assert {node.node_offset for node in env.tree.iter_nodes_dfs()} \
        <= set(env.internals)
    search = HDoVSearch(env, "indexed-vertical")
    for cell_id in env.grid.cell_ids():
        search.query_cell(cell_id, eta=0.001)
