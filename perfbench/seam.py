"""A timing wrapper around the program's ``KernelBackend`` seam.

``OptimalMapper``, ``HeuristicMapper`` and ``PortfolioMapper`` accept a
backend instance as ``kernel=``; :class:`TimedBackend` delegates every
seam operation to the resolved backend and adds its wall time (and call
count) to one of four layers:

* ``expand``: node expansion (``expand``);
* ``score``: heuristic scoring (``heuristic_batch``), plus node count;
* ``heap``: open-heap ``heappush`` / ``heappop``;
* ``admit``: state-filter admission (``filter_key``, ``profile``,
  ``dominates`` and the compiled fused ``admit_scan``).

Only operations the search routes through the seam are seen: the
heuristic mapper binds its own expander, heap and filter, so there only
``score`` is timed.  The wrapper adds one Python frame and two clock
reads per call, which is why it runs only in the traced pass.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro.core.kernels.api import KernelBackend

LAYERS = ("expand", "score", "heap", "admit")


class TimedBackend(KernelBackend):
    def __init__(self, inner: KernelBackend) -> None:
        self.inner = inner
        self.name = inner.name  # stats keep the real backend name
        self.ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.scored_nodes = 0
        ns, calls = self.ns, self.calls

        def timed(layer, fn):
            def call(*args, **kwargs):
                start = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ns[layer] += perf_counter_ns() - start
                    calls[layer] += 1

            return call

        self.heappush = timed("heap", inner.heappush)
        self.heappop = timed("heap", inner.heappop)
        self.expand = timed("expand", inner.expand)
        self.filter_key = timed("admit", inner.filter_key)
        self.profile = timed("admit", inner.profile)
        self.dominates = timed("admit", inner.dominates)
        if inner.admit_scan is not None:
            self.admit_scan = timed("admit", inner.admit_scan)
            self.make_entry = inner.make_entry
        score = timed("score", inner.heuristic_batch)

        def heuristic_batch(problem, nodes, *args, **kwargs):
            self.scored_nodes += len(nodes)
            return score(problem, nodes, *args, **kwargs)

        self.heuristic_batch = heuristic_batch
