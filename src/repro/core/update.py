"""Incremental updates to a built HDoV environment.

The paper's environments are static — visibility is precomputed once.
A dynamic virtual environment (objects removed at runtime: a demolished
building, a despawned model) needs the preprocessing to update
incrementally rather than rebuild.  This module implements object
removal over the indexed-vertical scheme:

1. the object's leaf entry is dropped from the in-memory tree and the
   affected node pages are rewritten;
2. every cell that could *see* the object gets its DoV recomputed (the
   removal can only reveal previously-occluded objects in those cells,
   so other cells are untouched — a conservative and exact bound,
   because a cell where the object was invisible has no ray whose
   nearest hit was the object);
3. the affected cells' V-pages are re-instantiated and appended to the
   V-page file, and the per-cell directory entries are repointed (the
   old pages become garbage, reclaimable by compaction).

The search layer needs no change: queries against updated cells read
the new segments transparently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.hdov_tree import HDoVEnvironment, InternalRecord
from repro.core.schemes.indexed_vertical import IndexedVerticalScheme
from repro.core.vpage import CellVPages, instantiate_cell
from repro.errors import HDoVError
from repro.lod.internal import build_internal_lods
from repro.rtree.delete import delete as rtree_delete
from repro.visibility.cells import CellGrid
from repro.visibility.dov import CellVisibility
from repro.visibility.raycast import RayCastDoVEstimator


def affected_cells(env: HDoVEnvironment, object_id: int) -> List[int]:
    """Cells whose visibility can change when ``object_id`` disappears:
    exactly those where it was visible (DoV > 0)."""
    return [cell_id for cell_id in env.grid.cell_ids()
            if env.visibility.cell(cell_id).get(object_id) > 0.0]


def remove_object(env: HDoVEnvironment, object_id: int, *,
                  scheme_name: str = "indexed-vertical",
                  estimator: Optional[RayCastDoVEstimator] = None
                  ) -> List[int]:
    """Remove an object from a built environment, updating the tree,
    the visibility table, and the storage scheme in place.

    Returns the list of cells whose visibility data was recomputed.
    Only the indexed-vertical scheme supports in-place updates (its
    per-cell segments are variable-length and directory-addressed);
    other schemes raise.
    """
    record = env.objects.get(object_id)
    if record is None:
        raise HDoVError(f"unknown object id {object_id}")
    scheme = env.scheme(scheme_name)
    if not isinstance(scheme, IndexedVerticalScheme):
        raise HDoVError(
            f"incremental updates need the indexed-vertical scheme, "
            f"got {scheme.name!r}")

    cells_to_update = affected_cells(env, object_id)

    # 1. Structural removal.
    mbr = record.chain.finest.aabb()
    if not rtree_delete(env.tree, mbr, object_id):
        # The MBR stored in the chain must match the inserted one.
        raise HDoVError(f"object {object_id} not found in the tree")
    _reassign_offsets_and_rewrite(env)
    del env.objects[object_id]
    remaining = [obj for obj in env.scene if obj.object_id != object_id]
    # Scene container is append-only; build a filtered view for the
    # estimator (env.scene itself stays authoritative for history).
    if estimator is None:
        import numpy as np
        from repro.geometry.aabb import pack_aabbs
        boxes = pack_aabbs([o.lods.finest.aabb() for o in remaining])
        estimator = RayCastDoVEstimator(
            boxes, object_ids=[o.object_id for o in remaining],
            resolution=env.config.dov_resolution)

    # 2. Recompute visibility for affected cells only.
    for cell_id in cells_to_update:
        viewpoints = env.grid.sample_viewpoints(
            cell_id, samples=env.config.samples_per_cell)
        dov = estimator.dov_from_region(viewpoints)
        cell = CellVisibility(cell_id)
        for oid, value in dov.items():
            cell.set(oid, value)
        env.visibility.put(cell)

    # 3. Re-instantiate V-pages for every cell (offsets changed tree-
    # wide after the rewrite) but only *write* the affected segments;
    # unaffected cells keep their old pages, which remain valid because
    # their visible sets are unchanged — their node offsets, however,
    # may have shifted, so all segments are rewritten when any node
    # offset moved.
    offsets_moved = True     # conservative: the DFS rewrite renumbers
    update_ids: Set[int] = (set(env.grid.cell_ids()) if offsets_moved
                            else set(cells_to_update))
    new_cell_vpages = []
    for cell_id in env.grid.cell_ids():
        cell_vp = instantiate_cell(env.tree, env.visibility.cell(cell_id))
        new_cell_vpages.append(cell_vp)
    env.cell_vpages = new_cell_vpages
    scheme.num_nodes = env.node_store.num_nodes
    for cell_id in sorted(update_ids):
        _rewrite_segment(scheme, new_cell_vpages[cell_id])
    if scheme.current_cell is not None:
        # Force a reload of the (possibly rewritten) current segment.
        reload_cell = scheme.current_cell
        scheme.current_cell = None
        scheme.drop_prefetches()
        scheme.flip_to_cell(reload_cell)

    # 4. Refresh derived metadata.
    from repro.core.hdov_tree import _collect_descendants
    env.descendants = _collect_descendants(env.tree)
    return cells_to_update


def _reassign_offsets_and_rewrite(env: HDoVEnvironment) -> None:
    """Re-persist the tree after a structural change.

    Node offsets are DFS indices; deletion changes the node set, so the
    whole tree file is rewritten (node counts are small — hundreds —
    next to the V-page data).  Internal-LoD records are remapped to the
    surviving nodes by identity where possible.
    """
    # Capture old offsets before renumbering to remap internal LoDs.
    old_offsets = {id(node): node.node_offset
                   for node in env.tree.iter_nodes_dfs()}
    from repro.rtree.persist import NodeStore
    from repro.storage.pagedfile import PagedFile
    tree_file = PagedFile("tree-updated", page_size=env.config.page_size,
                          disk=env.config.disk(), stats=env.light_stats)
    store = NodeStore(tree_file)
    lod_pointers = {oid: rec.blob_id for oid, rec in env.objects.items()}
    store.write_tree(env.tree, lod_pointers)
    remapped = {}
    for node in env.tree.iter_nodes_dfs():
        old = old_offsets.get(id(node))
        if old is not None and old in env.internals:
            record = env.internals[old]
            record.node_offset = node.node_offset
            remapped[node.node_offset] = record
    env.internals = remapped
    env.node_store = store
    _build_missing_internals(env)


def _build_missing_internals(env: HDoVEnvironment) -> None:
    """Give nodes the deletion created an internal LoD and its blob.

    Condense-tree reinsertion can split nodes, and a split node has no
    record to remap; a later query accepting it would find no internal
    LoD.  Only such nodes are built — bottom-up, from their children's
    existing chains — so a removal that creates no node does no work
    here.  Ancestors keep their (now slightly stale) LoDs.
    """
    if all(node.node_offset in env.internals
           for node in env.tree.iter_nodes_dfs()):
        return
    created = build_internal_lods(
        env.tree, env.scene, ratio_s=env.config.ratio_s,
        levels=env.config.internal_lod_levels,
        built={offset: record.lod
               for offset, record in env.internals.items()})
    for offset, lod in sorted(created.items()):
        blob = env.object_store.put(lod.chain.finest.byte_size)
        env.internals[offset] = InternalRecord(offset, blob.blob_id, lod)


def _rewrite_segment(scheme: IndexedVerticalScheme,
                     cell_vp: CellVPages) -> None:
    """Append fresh V-pages + index segment for one cell and repoint
    the directory (old pages become garbage)."""
    import math

    from repro.storage import pageio
    from repro.storage.serializer import encode_index_pairs
    from repro.storage.vpagecodec import RawVPageCodec
    if not isinstance(scheme.codec, RawVPageCodec):
        # The packed stream is append-only per *build*; re-instantiated
        # cells would need a full stream re-encode (repro layout does
        # that), so incremental updates require the raw codec.
        raise HDoVError(
            f"incremental update needs the raw V-page codec, scheme "
            f"uses {type(scheme.codec).__name__}")
    pairs = []
    for offset in cell_vp.visible_offsets_dfs():
        payload = scheme.codec.encode_page(offset, cell_vp.ventries(offset),
                                           scheme.vpage_file.page_size)
        pointer = pageio.append_page(scheme.vpage_file, payload,
                                     component="core")
        pairs.append((offset, pointer))
    data = encode_index_pairs(pairs)
    page_size = scheme.index_file.page_size
    num_pages = max(int(math.ceil(len(data) / page_size)), 1)
    first = scheme.index_file.allocate_many(num_pages)
    for i in range(num_pages):
        pageio.write_page(
            scheme.index_file, first + i,
            data[i * page_size:(i + 1) * page_size], component="core")
    scheme._directory[cell_vp.cell_id] = (first, num_pages, len(pairs))
