"""Concurrent multi-session walkthrough serving (PRs 5-6).

The ROADMAP north star is a production-scale service answering many
viewers' walkthroughs against one HDoV-tree.  N recorded sessions are
served on one thread through one shared
:class:`~repro.storage.buffer.BufferPool` by one session lifecycle
(:class:`~repro.serving.service.WalkthroughService`), which two front
ends drive: ``repro serve``'s deterministic round loop with FIFO
admission and frame-budget shedding (:func:`run_serve`), and a network
edge (:mod:`repro.serving.http`) exposing session create/step/close
over HTTP, with a Poisson traffic harness (:mod:`repro.serving.loadgen`)
driving it at configurable offered load.  Both runners report JSON whose
machine-independent sections are pure functions of the configuration,
so CI can diff two runs byte-for-byte.
"""

from repro.serving.loadgen import run_traffic
from repro.serving.prefetch import ServingPrefetcher
from repro.serving.service import run_serve
from repro.serving.session import ServingSession

__all__ = [
    "ServingPrefetcher",
    "ServingSession",
    "run_serve",
    "run_traffic",
]
