"""The ``compiled`` backend: C-extension hot kernels.

Requires the ``repro.core.kernels._ckernels`` extension (built by
``pip install`` or ``python setup.py build_ext --inplace`` when a C
toolchain is present);
importing this module raises ``ImportError`` when it is absent, which
the registry turns into "backend unavailable".

The problem is packed once per instance (flat int64 arrays behind a
capsule, cached on the problem object), and the pending-gate rows per
``ptr`` are packed into a reusable bytes buffer mirroring the
``problem.pending_rows`` cache.  Windowed evaluation (the practical
mapper) runs the C ``windowed`` scan the same way, over the
``problem.window_rows`` rows packed once per ``(window, ptr)``.
:meth:`CompiledBackend.heuristic_batch` runs the whole memo loop in one
C call (memo keys, table hits, in-batch duplicates, row buffers, scans)
and calls back into :meth:`~CompiledBackend._rows` /
:meth:`~CompiledBackend._window_rows` only for a row buffer not packed
yet.  ``admit_scan`` is the whole state-filter admission in one C call:
the packed entry (``_ckernels.Entry``), the bucket lookup, the scan with
equivalence, open and closed-entry dominance, the write-back and the
kills.  Node expansion runs the C expander for every expansion config —
the exact mapper's optimal modes and the practical mapper's greedy
mode — and falls back to the python reference expander only for
architectures beyond its int64 qubit masks or its action-stack bound.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Dict, List, Optional

from ..heuristic import HeuristicMemo, count_evaluations
from ..problem import PROBLEM_CACHE_CAP, MappingProblem
from ..state import SearchNode
from .api import KernelBackend


def _problem_cache(problem: MappingProblem, name: str) -> Dict:
    cache = getattr(problem, name, None)
    if cache is None:
        cache = {}
        setattr(problem, name, cache)
    return cache


class CompiledBackend(KernelBackend):
    name = "compiled"

    def __init__(self) -> None:
        from . import _ckernels

        self._ck = _ckernels
        # The scan packs the problem through _packed on first use.
        self.admit_scan = partial(_ckernels.admit_scan, self._packed)

    def make_entry(self, problem: MappingProblem, node: SearchNode):
        """The packed filter entry ``admit_scan`` stores for ``node``."""
        return self._ck.Entry(self._packed(problem), node)

    def _packed(self, problem: MappingProblem):
        packed = getattr(problem, "_ck_packed", None)
        if packed is None:
            packed = self._ck.pack_problem(
                problem.num_logical,
                problem.num_physical,
                problem.swap_len,
                1 if problem.has_singles else 0,
                problem.dist_flat,
                problem.gate_l1,
                problem.gate_l2,
                tuple(len(chain) for chain in problem.seq),
                tuple(problem.single_prefix),
                problem.gate_latency,
                problem.gate_p1,
                problem.gate_p2,
                tuple(g for chain in problem.seq for g in chain),
                tuple(e[0] for e in problem.edges),
                tuple(e[1] for e in problem.edges),
            )
            problem._ck_packed = packed
        return packed

    def _rows(self, problem: MappingProblem, ptr) -> bytes:
        cache = _problem_cache(problem, "_ck_rows")
        buf = cache.get(ptr)
        if buf is None:
            flat = array("q")
            for row in problem.pending_rows(ptr):
                flat.extend(row)
            flat.extend(ptr)  # singles-fold seed; see _ckernels.c
            buf = flat.tobytes()
            if len(cache) < PROBLEM_CACHE_CAP:
                cache[ptr] = buf
            else:
                problem.note_cache_overflow("ck_rows")
        return buf

    def _window_rows(
        self, problem: MappingProblem, window: int, ptr
    ) -> bytes:
        cache = _problem_cache(problem, "_ck_window_rows")
        key = (window, ptr)
        buf = cache.get(key)
        if buf is None:
            flat = array("q")
            for row in problem.window_rows(window, ptr)[0]:
                flat.extend(row)
            buf = flat.tobytes()
            if len(cache) < PROBLEM_CACHE_CAP:
                cache[key] = buf
            else:
                problem.note_cache_overflow("ck_window_rows")
        return buf

    def heuristic_batch(
        self,
        problem: MappingProblem,
        nodes: List[SearchNode],
        window: Optional[int] = None,
        swap_aware: bool = True,
        metrics=None,
        memo: Optional[HeuristicMemo] = None,
    ) -> None:
        if not nodes:
            return
        if window is None:
            cache, fetch = _problem_cache(problem, "_ck_rows"), self._rows
        else:
            cache = _problem_cache(problem, "_ck_window_rows")
            fetch = self._window_rows
        misses = self._ck.score_batch(
            self._packed(problem),
            problem,
            nodes,
            None if memo is None else memo.table,
            cache,
            fetch,
            window,
            swap_aware,
        )
        if memo is not None:
            memo.hits += len(nodes) - len(misses)
            memo.misses += len(misses)
        if metrics is not None:
            count_evaluations(problem, misses, window, metrics)

    def expand(
        self,
        problem: MappingProblem,
        node: SearchNode,
        config,
        counters: Optional[Dict[str, int]] = None,
    ) -> List[SearchNode]:
        # The C expander runs every ExpansionConfig (optimal and greedy
        # modes, redundancy fallback included).  It packs qubit sets into
        # int64 masks and bounds its action stack, hence the size gates.
        if (
            problem.num_physical >= 63
            or problem.num_logical + len(problem.edges) > 160
        ):
            return super().expand(problem, node, config, counters=counters)
        active = config.active_swaps_only
        max_swaps = config.max_swaps_per_step
        max_candidates = config.max_candidate_swaps
        children, restricted = self._ck.expand(
            self._packed(problem),
            SearchNode,
            node,
            self._rows(problem, node.ptr) if active else b"",
            active,
            config.greedy_gates,
            config.frontier_swaps_only,
            config.protect_satisfied_frontier,
            -1 if max_swaps is None else max_swaps,
            -1 if max_candidates is None else max_candidates,
        )
        if restricted and counters is not None:
            counters["swaps_restricted"] = (
                counters.get("swaps_restricted", 0) + restricted
            )
        return children
