"""Hash-based node filtering (paper Section 4.2, Filter; Fig. 5).

Nodes are grouped by a hash of their *effective* state — the qubit mapping
assuming all in-flight SWAPs take effect, together with per-qubit scheduling
progress.  Within a group two checks run:

* **Equivalence** — a node identical to a stored one (same cycle, same
  per-qubit release times, same in-flight gate finish times) is dropped
  (Fig. 5a).
* **Comparative analysis (dominance)** — node ``A`` is dropped when some
  stored ``B`` with the same effective state finishes every started gate no
  later and releases every physical qubit no later, at a cycle no later
  (Fig. 5b).  Conversely a stored node dominated by a newcomer is lazily
  *killed*: it stays in the priority queue but is skipped when popped.

One admission is one *scan* with a fixed contract: ``scan(problem,
table, node, dominance, live_only, closed_dominance)`` looks the node's
group up in ``table``, applies both checks, writes the compacted bucket
back, kills what the newcomer dominates and returns ``(code, killed)``
— ``code`` is one of :data:`ADMITTED`, :data:`EQUIVALENT`,
:data:`DOMINATED`, :data:`CLOSED_DOMINATED` and ``killed`` the killed
nodes in bucket order.  A backend with an ``admit_scan`` (the compiled
one) supplies it; otherwise the python :meth:`StateFilter._reference_scan`
runs, the reference the compiled scan is tested against.  Counters,
metrics and trace attribution are applied from that result alone, so
instrumented and plain runs use the same scan.

When constructed with a :class:`~repro.obs.MetricsRegistry` the filter
mirrors its drop counters into ``filter.*`` metrics so snapshots taken
mid-search (or on budget exhaustion) see pruning behavior over time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.trace import (
    PRUNE_BOUND_KILL,
    PRUNE_CLOSED_DOMINANCE,
    PRUNE_DOMINANCE,
    PRUNE_DOMINANCE_KILL,
    PRUNE_EQUIVALENCE,
)
from .kernels.api import KernelBackend, pure_dominates
from .problem import MappingProblem
from .state import SearchNode


class _Entry:
    __slots__ = ("time", "qfree", "gate_finish", "node")

    def __init__(self, time, qfree, gate_finish, node):
        self.time = time
        self.qfree = qfree
        self.gate_finish = gate_finish
        self.node = node


#: Scan result codes (the compiled ``admit_scan`` returns the same).
ADMITTED = 0
EQUIVALENT = 1
DOMINATED = 2
CLOSED_DOMINATED = 3


class StateFilter:
    """Equivalence + dominance filter over generated nodes.

    Usage: call :meth:`admit` on every freshly generated node; a ``False``
    return means the node is redundant and must not be queued.  Stored
    nodes that become dominated are marked ``killed`` (the A* loop skips
    killed nodes when popping).
    """

    def __init__(
        self,
        problem: MappingProblem,
        dominance: bool = True,
        live_only: bool = False,
        closed_dominance: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        trace=None,
        kernel: Optional[KernelBackend] = None,
    ) -> None:
        self._problem = problem
        self._dominance = dominance
        self._live_only = live_only
        #: Let *closed* (already expanded) entries dominate newcomers that
        #: are not their own wait-descendants.  Sound for optimal-depth
        #: search: a closed node's coverage of a dominated newcomer runs
        #: through its already-enumerated subtree, and the only children
        #: remaining in its bucket — pure wait-children — are exempted by
        #: an exact parent-chain test, so that subtree is never severed
        #: (the circularity that forbids naive closed-node dominance; see
        #: ``_reference_scan``).  Off for all-optima enumeration, which
        #: must keep equal-depth alternatives.
        self._closed_dominance = closed_dominance
        #: Optional :class:`~repro.obs.trace.TraceRecorder`; when set,
        #: every drop/kill is attributed (``equivalence`` / ``dominance``
        #: / ``dominance_kill`` / ``incumbent_bound_kill``).
        self._trace = trace
        self._kernel = kernel if kernel is not None else KernelBackend()
        scan = self._kernel.admit_scan
        self._scan = scan if scan is not None else self._reference_scan
        self._table: Dict[Tuple, List[_Entry]] = {}
        self.equivalent_dropped = 0
        self.dominated_dropped = 0
        self.closed_dominated = 0
        self.killed = 0
        # Pre-bound instruments: the hot admit() path pays one None check.
        if metrics is not None:
            self._m_equivalent = metrics.counter("filter.equivalent_dropped")
            self._m_dominated = metrics.counter("filter.dominated_dropped")
            self._m_closed = metrics.counter("filter.closed_dominated")
            self._m_killed = metrics.counter("filter.killed")
            self._m_group_size = metrics.histogram("filter.group_size")
        else:
            self._m_equivalent = None
            self._m_dominated = None
            self._m_closed = None
            self._m_killed = None
            self._m_group_size = None

    def admit(self, node: SearchNode) -> bool:
        """Consider ``node``; True if it should enter the priority queue.

        Every scan over a group compacts it: dead entries (killed nodes,
        and dropped ones in ``live_only`` mode) are written back out of
        the bucket even when the newcomer is rejected early, so hot
        buckets no longer accumulate corpses between :meth:`compact`
        calls.
        """
        code, killed = self._scan(
            self._problem,
            self._table,
            node,
            self._dominance,
            self._live_only,
            self._closed_dominance,
        )
        if code:
            if code == EQUIVALENT:
                self.equivalent_dropped += 1
                counter, reason = self._m_equivalent, PRUNE_EQUIVALENCE
            elif code == DOMINATED:
                self.dominated_dropped += 1
                counter, reason = self._m_dominated, PRUNE_DOMINANCE
            else:
                self.closed_dominated += 1
                counter, reason = self._m_closed, PRUNE_CLOSED_DOMINANCE
            if counter is not None:
                counter.inc()
            if self._trace is not None:
                self._trace.prune(reason, node=node)
            return False
        if killed:
            self.killed += len(killed)
            if self._m_killed is not None:
                self._m_killed.inc(len(killed))
            if self._trace is not None:
                for victim in killed:
                    self._trace.prune(PRUNE_DOMINANCE_KILL, node=victim)
        if self._m_group_size is not None:
            key = self._kernel.filter_key(node)
            self._m_group_size.observe(len(self._table[key]))
        return True

    def _reference_scan(
        self, problem, table, node, dominance, live_only, closed_dominance
    ) -> Tuple[int, Tuple[SearchNode, ...]]:
        """The python scan: the module docstring's scan contract."""
        kernel = self._kernel
        key = kernel.filter_key(node)
        qfree, gate_finish = kernel.profile(problem, node)
        entry = _Entry(node.time, qfree, gate_finish, node)
        bucket = table.get(key)
        if bucket is None:
            table[key] = [entry]
            return ADMITTED, ()
        survivors: List[_Entry] = []
        for index, existing in enumerate(bucket):
            if existing.node.killed:
                continue
            if live_only and existing.node.dropped:
                continue
            code = ADMITTED
            if (
                existing.time == entry.time
                and existing.qfree == entry.qfree
                and existing.gate_finish == entry.gate_finish
            ):
                code = EQUIVALENT
            # Dominance may by default only be exercised by *open* nodes
            # (still in the priority queue) — the paper compares expanded
            # nodes "to all the previous nodes (in the priority queue)".
            # A closed node's coverage of the newcomer runs through its
            # own descendants, one of which may BE the newcomer (e.g. the
            # wait-child realizing a pending SWAP); dropping it would
            # sever the only path that justified the domination.  With
            # ``closed_dominance`` an expanded entry also dominates
            # unless the newcomer is its own wait-descendant: only pure
            # wait-children stay in the dominator's bucket (started gates
            # advance ``ptr``, started SWAPs change the effective
            # mapping), so walking the newcomer's parent chain while it
            # remains in this bucket decides descendance exactly — and a
            # non-descendant newcomer is covered outright by the closed
            # node's already-enumerated subtree, whose wait-spine is
            # itself descendant-exempt and therefore never severed.
            elif (
                dominance
                and (
                    not existing.node.dropped
                    or (
                        closed_dominance
                        and not self._wait_descendant(node, existing.node)
                    )
                )
                and pure_dominates(existing, entry)
            ):
                code = CLOSED_DOMINATED if existing.node.dropped else DOMINATED
            if code:
                # Write back the compacted prefix so dead entries found
                # during this scan don't linger on the bucket.
                if len(survivors) < index:
                    table[key] = survivors + bucket[index:]
                return code, ()
            survivors.append(existing)
        kept: List[_Entry] = []
        killed: List[SearchNode] = []
        for existing in survivors:
            if (
                dominance
                and not existing.node.dropped
                and pure_dominates(entry, existing)
            ):
                existing.node.killed = True
                killed.append(existing.node)
            else:
                kept.append(existing)
        kept.append(entry)
        table[key] = kept
        return ADMITTED, tuple(killed)

    def _wait_descendant(self, node: SearchNode, ancestor: SearchNode) -> bool:
        """True when ``node`` descends from ``ancestor`` via pure waits.

        Wait-children share their parent's effective-state bucket, so the
        chain of same-key ancestors is exactly the wait-spine; the walk
        stops at the first ancestor in a different bucket (a few steps at
        most).  An in-flight-free ancestor has no wait-children at all,
        so the walk is skipped outright.
        """
        if not ancestor.inflight:
            return False
        key = self._kernel.filter_key(node)
        parent = node.parent
        while parent is not None:
            if parent is ancestor:
                return True
            if self._kernel.filter_key(parent) != key:
                return False
            parent = parent.parent
        return False

    @property
    def num_states(self) -> int:
        """Number of distinct effective states seen so far."""
        return len(self._table)

    def kill_above_bound(self, bound: int) -> int:
        """Kill open stored nodes whose ``f`` strictly exceeds ``bound``.

        Called when the incumbent upper bound tightens: an open node with
        ``f > bound`` can only reach terminals deeper than a schedule we
        already hold (``h`` is admissible), so it is lazily killed — it
        stays in the priority queue but is skipped when popped, and its
        filter entry is dropped so the bucket scan no longer walks it.
        Closed (expanded) nodes are left alone; their ``f`` no longer
        gates anything.

        Returns the number of nodes killed (also added to the running
        ``killed`` counter and the ``filter.killed`` metric).
        """
        killed_now = 0
        for key, bucket in list(self._table.items()):
            survivors = []
            for entry in bucket:
                node = entry.node
                if not node.killed and not node.dropped and node.f > bound:
                    node.killed = True
                    killed_now += 1
                    continue
                if not node.killed:
                    survivors.append(entry)
            if len(survivors) != len(bucket):
                if survivors:
                    self._table[key] = survivors
                else:
                    del self._table[key]
        if killed_now:
            self.killed += killed_now
            if self._m_killed is not None:
                self._m_killed.inc(killed_now)
            if self._trace is not None:
                self._trace.prune(PRUNE_BOUND_KILL, count=killed_now)
        return killed_now

    def release(self) -> None:
        """Drop every entry, freeing the node graph they pin.

        Called on search abort so the hundreds of thousands of retained
        nodes die by reference counting while the cyclic collector is
        still paused (see ``gcpause``) instead of being walked by the
        deferred generation-0 scan after the pause lifts.
        """
        self._table = {}

    def compact(self) -> None:
        """Drop entries whose nodes are dead (killed or dropped).

        Only meaningful in ``live_only`` mode, where dead entries can
        never filter anything again; long practical-mode runs call this
        on every queue trim to keep memory proportional to the open list.
        """
        if not self._live_only:
            return
        table: Dict[Tuple, List[_Entry]] = {}
        for key, bucket in self._table.items():
            alive = [
                e for e in bucket
                if not e.node.killed and not e.node.dropped
            ]
            if alive:
                table[key] = alive
        self._table = table
