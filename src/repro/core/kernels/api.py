"""The kernel backend contract (DESIGN.md §Kernel backends).

The four innermost operations of the search — heuristic evaluation,
filter group hashing, dominance comparison, and open-heap push/pop — are
isolated behind this narrow API so they can be swapped between the pure
python reference and the compiled C extension without touching the
search loops.

Contract (every backend, bit-for-bit):

* ``heuristic_batch(problem, nodes, ...)`` assigns ``node.h`` for every
  node, with values identical to :func:`~repro.core.heuristic
  .heuristic_cost` called node-by-node in list order — including memo
  hit/miss accounting: within a batch, the first node carrying a fresh
  memo key counts as the miss and later duplicates as hits, exactly as
  the sequential evaluation order would produce.
* ``filter_key`` / ``profile`` / ``dominates`` reproduce the state
  filter's grouping hash, release profile, and dominance predicate (the
  python reference scan's building blocks).
* ``admit_scan`` (``None`` on the reference backend) is one whole
  :meth:`~repro.core.filters.StateFilter.admit` scan with the contract
  documented in :mod:`~repro.core.filters`: it returns the drop code and
  the killed nodes in order, identical to the python reference scan, so
  instrumented filters (metrics, trace) use it as well.  ``make_entry``
  builds the entry such a scan stores, for inspection.
* ``heappush`` / ``heappop`` order the open heap identically (all
  backends currently delegate to :mod:`heapq`, whose C implementation
  is already optimal for the tuple keys the search uses).

Instrumented evaluations (``metrics`` given) take the same memo/batch
path as plain ones; the per-evaluation ``heuristic.*`` counters are
added for each memo miss from the problem's cached pending/window rows,
so a traced run times the scorer an untraced run executes.

The pure profile/dominance implementations live here (not in
``filters``) because ``filters`` imports this package; keeping the
reference code on this side of the boundary avoids an import cycle.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..expander import expand as _py_expand
from ..heuristic import HeuristicMemo, heuristic_cost
from ..problem import MappingProblem
from ..state import K_SWAP, SearchNode


def pure_profile(
    problem: MappingProblem, node: SearchNode
) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """Per-physical-qubit release times and in-flight gate finish times.

    Cached on the node (``node._profile``): the practical mapper admits
    the same node against several filter generations, and ``qfree`` is
    tupled exactly once per node this way (dominance comparisons reuse
    the stored tuple).
    """
    cached = node._profile
    if cached is not None:
        return cached
    qfree = [node.time] * problem.num_physical
    gate_finish: Dict[int, int] = {}
    for finish, kind, a, b in node.inflight:
        if kind == K_SWAP:
            if finish > qfree[a]:
                qfree[a] = finish
            if finish > qfree[b]:
                qfree[b] = finish
        else:
            gate_finish[a] = finish
            for logical in problem.gate_qubits[a]:
                p = node.pos[logical]
                if finish > qfree[p]:
                    qfree[p] = finish
    profile = (tuple(qfree), gate_finish)
    node._profile = profile
    return profile


def pure_dominates(better, worse) -> bool:
    """True when ``better`` can mimic any completion of ``worse``.

    Beyond the timing conditions (no later anywhere), the dominating node
    must not be more *restricted* than the dominated one: its subtree
    prunes first steps recorded in ``prev_startable`` (could-have-started-
    earlier redundancy) and immediate-undo SWAPs recorded in
    ``last_swaps``, so those sets must be subsets of the loser's —
    otherwise a completion available under ``worse`` may be pruned under
    ``better`` and optimality is lost.
    """
    better_time = better.time
    worse_time = worse.time
    if better_time > worse_time:
        return False
    for rb, rw in zip(better.qfree, worse.qfree):
        if rb > rw:
            return False
    bf = better.gate_finish
    wf = worse.gate_finish
    if bf or wf:
        for gate, finish_better in bf.items():
            if finish_better > wf.get(gate, worse_time):
                return False
        for gate, finish_worse in wf.items():
            if gate not in bf and better_time > finish_worse:
                return False
    if not better.node.last_swaps <= worse.node.last_swaps:
        return False
    if not better.node.prev_startable <= worse.node.prev_startable:
        return False
    return True


class KernelBackend:
    """Base backend: the pure python reference implementations.

    The compiled backend overrides :meth:`expand`,
    :meth:`heuristic_batch` (memo loop and scans in one C call) and the
    ``admit_scan`` / ``make_entry`` hooks the state filter consumes.
    """

    name = "base"

    #: Open-heap operations.  heapq is already a C implementation; the
    #: backends expose them so the search loop binds push/pop through
    #: the same seam as the other kernels.
    heappush = staticmethod(heapq.heappush)
    heappop = staticmethod(heapq.heappop)

    #: Compiled-only hooks: the whole StateFilter.admit() scan and the
    #: constructor of the entries it stores.  ``None`` means the filter
    #: runs its python reference scan.
    admit_scan = None
    make_entry = None

    def filter_key(self, node: SearchNode) -> Tuple:
        """The equivalence/dominance grouping hash (node-cached)."""
        return node.filter_key()

    def profile(
        self, problem: MappingProblem, node: SearchNode
    ) -> Tuple[Tuple[int, ...], Dict[int, int]]:
        return pure_profile(problem, node)

    def dominates(self, better, worse) -> bool:
        return pure_dominates(better, worse)

    # -- node expansion -------------------------------------------------

    def expand(
        self,
        problem: MappingProblem,
        node: SearchNode,
        config,
        counters: Optional[Dict[str, int]] = None,
    ) -> List[SearchNode]:
        """All non-redundant children of ``node`` (reference expander).

        Backends may accelerate any expansion configuration; the
        children must be *identical* to the reference — same values in
        the same order — because the open heap's tie-break counter and
        the state filter's admit order both depend on generation order.
        """
        return _py_expand(problem, node, config, counters=counters)

    # -- heuristic evaluation -------------------------------------------

    def heuristic_batch(
        self,
        problem: MappingProblem,
        nodes: List[SearchNode],
        window: Optional[int] = None,
        swap_aware: bool = True,
        metrics=None,
        memo: Optional[HeuristicMemo] = None,
    ) -> None:
        """Assign ``node.h`` for every node in ``nodes``.

        The reference: :func:`heuristic_cost` node by node in list
        order.  A backend's batch scorer must match it bit for bit,
        memo hit/miss totals included (duplicate keys within the batch
        count first-as-miss, rest-as-hits).
        """
        for node in nodes:
            node.h = heuristic_cost(
                problem,
                node,
                window=window,
                swap_aware=swap_aware,
                metrics=metrics,
                memo=memo,
            )
