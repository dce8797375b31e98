"""Node reads through the shared serving buffer pool.

The paper's single-viewer prototype caches no tree nodes ("None of the
two systems caches the tree nodes in the queries"), but a *service*
amortizes exactly that: many sessions traverse the same upper tree
levels, so the root and its children stay hot in the shared pool and
only the first session to touch a page pays its disk read.

Misses are routed through the sanctioned ``repro.storage.pageio``
facade, so they are retried, attributed to the ``rtree`` component, and
charged to the simulated clock exactly like unpooled node reads.
"""

from __future__ import annotations

from repro.errors import RTreeError
from repro.rtree.persist import NodeStore, PersistedNode
from repro.storage import pageio
from repro.storage.buffer import BufferPool
from repro.storage.pagedfile import PagedFile
from repro.storage.serializer import decode_node


def _rtree_reader(pfile: PagedFile, page_id: int) -> bytes:
    """Buffer-pool miss reader: the sanctioned rtree-component read."""
    return pageio.read_page(pfile, page_id, component="rtree")


class PooledNodeStore(NodeStore):
    """A read view of a :class:`NodeStore` fronted by a shared pool.

    Shares the parent store's paged file and offset directory (the
    tree is immutable at serving time); only ``read_node`` changes —
    it consults the pool first, so a hit costs no disk charge.
    """

    def __init__(self, store: NodeStore, pool: BufferPool) -> None:
        super().__init__(store.pfile)
        self.root_page = store.root_page
        self.num_nodes = store.num_nodes
        self.offset_to_page = store.offset_to_page
        self.pool = pool

    def read_node(self, node_offset: int) -> PersistedNode:
        """Fetch and decode a node, through the shared pool."""
        try:
            page_id = self.offset_to_page[node_offset]
        except KeyError:
            raise RTreeError(f"unknown node offset {node_offset}") from None
        data = self.pool.get(self.pfile, page_id, reader=_rtree_reader)
        kind, level, stored_offset, entries = decode_node(data)
        if stored_offset != node_offset:
            raise RTreeError(
                f"node offset mismatch: page says {stored_offset}, "
                f"asked for {node_offset}")
        return PersistedNode(page_id, kind, level, node_offset, entries)
