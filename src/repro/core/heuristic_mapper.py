"""The scalable non-optimal mapper (paper Section 6.2, "Approximate Analysis").

Relaxations relative to the optimal search, exactly as the paper lists them:

* every original gate that is ready (dependency-resolved, coupling-satisfied,
  operands idle) is scheduled immediately — children that withhold ready
  gates are never generated;
* SWAPs that would make an executable frontier CNOT unexecutable are not
  considered, and candidate SWAPs are restricted to edges adjacent to the
  blocked CNOT frontier;
* expanded children are ranked and only the top ``k`` (default 10) are
  pushed;
* when the priority queue exceeds ``queue_cap`` (default 2000) it is cut by
  ``queue_trim`` (default 1000), deleting the nodes that have made the
  least progress through the circuit, ties broken by cost;
* the initial mapping is built on the fly: when a frontier CNOT has
  unmapped operands they are greedily assigned to minimize their physical
  distance; qubits never used by a CNOT get arbitrary free spots.

The cost function is the same admissible ``h`` as the optimal mode but
truncated to a look-ahead window for scalability.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.coupling import CouplingGraph
from ..circuit.circuit import Circuit
from ..circuit.latency import LatencyModel
from ..obs.schema import (
    MAPPER_TOQM_HEURISTIC,
    STAT_KERNEL_BACKEND,
    base_stats,
)
from ..obs.telemetry import SearchHook, Telemetry, resolve
from ..obs.tracer import SPAN_EXPAND, SPAN_FILTER, SPAN_HEURISTIC
from .expander import (
    ExpansionConfig,
    _blocked_frontier_pairs,
    frontier_gates,
)
from .filters import StateFilter
from .gcpause import pause_gc
from .heuristic import HeuristicMemo, heuristic_cost
from .kernels import resolve_backend
from .problem import MappingProblem
from .result import MappingResult, ScheduledOp
from .state import SearchNode


class RoutingFailed(RuntimeError):
    """The pruned search dead-ended (should not happen on connected graphs)."""


def incumbent_result(
    coupling: CouplingGraph,
    latency: Optional[LatencyModel],
    circuit: Circuit,
    initial_mapping: Optional[Sequence[int]] = None,
    **mapper_kwargs,
) -> Optional[MappingResult]:
    """Cheap feasible schedule used to seed the exact search's upper bound.

    Runs the practical mapper once (uninstrumented) and returns its
    result, or ``None`` on any failure — incumbent seeding is an
    optimization and must never block or fail the exact search.  When
    ``initial_mapping`` is given the incumbent uses it, so its depth
    upper-bounds the mode-1 optimum for that mapping; when omitted the
    practical mapper places qubits on the fly, which upper-bounds the
    mode-2 (searched-initial-mapping) optimum.
    """
    try:
        mapper = HeuristicMapper(coupling, latency, **mapper_kwargs)
        return mapper.map(circuit, initial_mapping=initial_mapping)
    except Exception:  # noqa: BLE001 - seeding is strictly best-effort
        return None


def _frontier_distance(problem: MappingProblem, node: SearchNode) -> int:
    """Total excess distance of blocked frontier CNOT pairs.

    Used as the second component of the progress level: a SWAP that moves
    the blocked frontier closer together counts as progress even though it
    starts no original gate, so multi-SWAP routing chains receive a fresh
    expansion budget at every productive step.
    """
    dist_flat = problem.dist_flat
    num_physical = problem.num_physical
    return sum(
        dist_flat[p1 * num_physical + p2] - 1
        for p1, p2 in _blocked_frontier_pairs(problem, node)
    )


class HeuristicMapper:
    """Practical TOQM variant used for the Table 3 evaluation.

    Args:
        coupling: Target architecture.
        latency: Latency model (defaults to 1 cycle/gate, 3-cycle SWAP).
        top_k: Children kept per expansion (paper: 10).
        queue_cap: Priority-queue size threshold.  The paper uses 2000 at
            C++ speeds; the Python default of 800 keeps per-gate cost in
            the tens of milliseconds with a small quality loss (pass 2000
            to reproduce the paper's setting exactly).
        queue_trim: Nodes removed when the cap is hit (paper: 1000).
        max_swaps_per_step: Cap on simultaneous SWAP starts per child —
            bounds the branching factor on wide architectures.
        max_candidate_swaps: Size of the candidate-SWAP pool per expansion
            (ranked by how much they shorten blocked frontier distances).
        window: Look-ahead horizon (gates per qubit) for the truncated
            cost function.
        greediness: Weight on the heuristic term (``f = t + w·h``).  The
            value 1 gives pure best-first on the admissible bound but
            explores cost plateaus breadth-first; values above 1 trade a
            bounded amount of schedule quality for near-linear runtime
            (weighted-A* style), which the pure-Python implementation
            needs to reach Table 3 scale.
        max_expansions_per_level: Hard cap on node expansions per circuit
            progress level (number of gates started).  Bounds the local
            exploration around each blocked frontier; when the capped
            search dead-ends it is automatically retried with a larger
            cap.  This plays the role the paper's queue trimming plays at
            C++ speeds, scaled to a Python budget.
        memoize: Cache heuristic evaluations per run (sound because the
            window is fixed for the whole run); pure evaluation cache,
            never changes scores or node counts.
        telemetry: Optional observability context; ``None`` runs the
            same search with the null hook.
        kernel: Kernel backend name (``pure``/``compiled``) or
            ``None`` for the auto-probe.  Expansion, state-filter
            admission and scoring go through the backend: children are
            scored by its windowed scan (C under ``compiled``, the python
            scan under ``pure``), bit-identical either way;
            ``compiled`` also expands the greedy config in C and admits
            through its fused C scan.
    """

    #: Stats label this mapper writes into ``MappingResult.stats``.
    mapper_name = MAPPER_TOQM_HEURISTIC

    def __init__(
        self,
        coupling: CouplingGraph,
        latency: Optional[LatencyModel] = None,
        top_k: int = 10,
        queue_cap: int = 800,
        queue_trim: int = 600,
        max_swaps_per_step: int = 2,
        max_candidate_swaps: int = 8,
        window: int = 10,
        greediness: float = 1.5,
        max_expansions_per_level: int = 512,
        memoize: bool = True,
        telemetry: Optional[Telemetry] = None,
        kernel: Optional[str] = None,
    ) -> None:
        if queue_trim >= queue_cap:
            raise ValueError("queue_trim must be smaller than queue_cap")
        self.coupling = coupling
        self.latency = latency
        self.top_k = top_k
        self.queue_cap = queue_cap
        self.queue_trim = queue_trim
        self.config = ExpansionConfig(
            greedy_gates=True,
            frontier_swaps_only=True,
            protect_satisfied_frontier=True,
            max_swaps_per_step=max_swaps_per_step,
            max_candidate_swaps=max_candidate_swaps,
        )
        self.window = window
        self.greediness = greediness
        self.max_expansions_per_level = max_expansions_per_level
        self.memoize = memoize
        self.telemetry = telemetry
        self.kernel = kernel
        #: Optional :class:`repro.core.warmcache.ArchContext` installed
        #: by the batch runner; shares per-architecture search artifacts
        #: across tasks.  ``None`` builds a fresh problem per call.
        self.arch_context = None

    def _problem(self, circuit: Circuit) -> MappingProblem:
        """Build (or fetch from the warm cache) the problem instance."""
        context = getattr(self, "arch_context", None)
        if context is not None:
            return context.problem(circuit)
        return MappingProblem(circuit, self.coupling, self.latency)

    # ------------------------------------------------------------------
    def map(
        self,
        circuit: Circuit,
        initial_mapping: Optional[Sequence[int]] = None,
    ) -> MappingResult:
        """Map ``circuit``, building the initial mapping on the fly.

        Args:
            circuit: The logical circuit.
            initial_mapping: Optional full initial mapping; when omitted,
                qubits are placed greedily as their first CNOT becomes
                ready (Section 6.2).
        """
        problem = self._problem(circuit)
        level_cap = self.max_expansions_per_level
        failure: Optional[RoutingFailed] = None
        for _attempt in range(3):
            try:
                return self._run(problem, initial_mapping, level_cap)
            except RoutingFailed as exc:
                failure = exc
                level_cap *= 4
        raise failure

    # ------------------------------------------------------------------
    def _run(
        self,
        problem: MappingProblem,
        initial_mapping: Optional[Sequence[int]],
        level_cap: int,
    ) -> MappingResult:
        hook = resolve(self.telemetry).hook(self.mapper_name, traced=False)
        # Acyclic search graph: the cyclic collector is pure overhead
        # during the loop (see ``gcpause``).
        with hook.search_span(problem, level_cap=level_cap), pause_gc():
            result = self._run_loop(problem, initial_mapping, level_cap, hook)
        hook.finish(result.stats, label="search_complete")
        return result

    def _run_loop(
        self,
        problem: MappingProblem,
        initial_mapping: Optional[Sequence[int]],
        level_cap: int,
        hook: SearchHook,
    ) -> MappingResult:
        start_clock = _time.perf_counter()
        kernel = resolve_backend(self.kernel)
        root = self._make_root(problem, initial_mapping)
        state_filter = StateFilter(
            problem, live_only=True, metrics=hook.metrics, kernel=kernel
        )
        admit = state_filter.admit
        counter = itertools.count()

        def priority(node: SearchNode) -> Tuple[int, int, int]:
            return (node.f, -node.started, next(counter))

        memo = None
        if self.memoize:
            context = getattr(self, "arch_context", None)
            if context is not None:
                # Warm-cache batch runs share the memo across repeats of
                # the same circuit — sound because the memo key is a pure
                # function of node state for a fixed (window, swap_aware)
                # configuration, which the config key pins.
                memo = context.memo(problem, ("heuristic", self.window))
            else:
                memo = HeuristicMemo()
        metrics = hook.metrics

        def score(nodes: List[SearchNode]) -> None:
            kernel.heuristic_batch(
                problem, nodes, window=self.window, metrics=metrics,
                memo=memo,
            )

        def admit_all(nodes: List[SearchNode]) -> List[SearchNode]:
            return [node for node in nodes if admit(node)]

        # Per-fan-out spans on an instrumented run; the plain callables
        # otherwise.
        expand_children = hook.timed(SPAN_EXPAND, kernel.expand)
        score = hook.timed(SPAN_HEURISTIC, score)
        admit_all = hook.timed(SPAN_FILTER, admit_all)

        def progress_extra(node: SearchNode) -> Dict[str, int]:
            return {"queue_trims": trims, "gates_started": node.started}

        root.h = heuristic_cost(problem, root, window=self.window, memo=memo)
        root.f = root.time + int(self.greediness * root.h)
        heap: List[Tuple[int, int, int, SearchNode]] = [
            (*priority(root), root)
        ]
        expanded = 0
        generated = 1
        trims = 0
        level_expansions: dict = {}

        while heap:
            _f, _neg, _tick, node = heapq.heappop(heap)
            if node.killed:
                continue
            if node.is_terminal(problem.num_gates):
                extra = {STAT_KERNEL_BACKEND: kernel.name}
                if memo is not None:
                    extra["memo_hits"] = memo.hits
                    extra["memo_misses"] = memo.misses
                overflow = problem.cache_overflow_total()
                if overflow:
                    extra["problem_cache_overflow"] = overflow
                return self._reconstruct(
                    problem,
                    node,
                    stats=base_stats(
                        self.mapper_name,
                        nodes_expanded=expanded,
                        nodes_generated=generated,
                        filtered_equivalent=state_filter.equivalent_dropped,
                        filtered_dominated=state_filter.dominated_dropped,
                        seconds=_time.perf_counter() - start_clock,
                        queue_trims=trims,
                        **extra,
                    ),
                )
            level = (node.started, _frontier_distance(problem, node))
            used = level_expansions.get(level, 0)
            if used >= level_cap:
                node.dropped = True
                continue  # this progress level has had its budget
            level_expansions[level] = used + 1
            expanded += 1
            node.dropped = True  # leaves the open list
            hook.expanded(
                node, node.f, len(heap), expanded, generated, progress_extra
            )

            # Children are scored as one batch through the kernel seam
            # (bit-identical to per-node evaluation, including memo
            # accounting).
            children = expand_children(problem, node, self.config)
            for child in children:
                self._place_frontier(problem, child)
            score(children)
            for child in children:
                child.f = child.time + int(self.greediness * child.h)
            generated += len(children)
            children.sort(key=lambda c: (c.f, -c.started))
            for child in admit_all(children[: self.top_k]):
                heapq.heappush(heap, (*priority(child), child))
            if len(heap) > self.queue_cap:
                heap = self._trim(heap)
                state_filter.compact()
                trims += 1

        raise RoutingFailed(
            "priority queue emptied before the circuit completed"
        )

    # ------------------------------------------------------------------
    def _trim(self, heap: List[Tuple]) -> List[Tuple]:
        """Cut the queue by ``queue_trim``, dropping least-progress nodes."""
        entries = [e for e in heap if not e[3].killed]
        # Most progress first (largest started), then lowest cost.
        entries.sort(key=lambda e: (-e[3].started, e[3].f))
        kept = entries[: max(1, len(entries) - self.queue_trim)]
        for entry in entries[max(1, len(entries) - self.queue_trim):]:
            entry[3].dropped = True
        heapq.heapify(kept)
        return kept

    # ------------------------------------------------------------------
    def _make_root(
        self,
        problem: MappingProblem,
        initial_mapping: Optional[Sequence[int]],
    ) -> SearchNode:
        num_logical = problem.num_logical
        num_physical = problem.num_physical
        if initial_mapping is not None:
            pos = tuple(initial_mapping)
            if len(pos) != num_logical or len(set(pos)) != num_logical:
                raise ValueError("initial mapping must be injective over logicals")
        else:
            pos = (-1,) * num_logical
        inv = [-1] * num_physical
        for logical, physical in enumerate(pos):
            if physical >= 0:
                inv[physical] = logical
        root = SearchNode(
            time=0,
            pos=pos,
            inv=tuple(inv),
            ptr=(0,) * num_logical,
            started=0,
            inflight=(),
            last_swaps=frozenset(),
            prev_startable=frozenset(),
            parent=None,
            actions=(),
            prefix_layers=-1,
        )
        self._place_frontier(problem, root)
        return root

    # ------------------------------------------------------------------
    def _place_frontier(self, problem: MappingProblem, node: SearchNode) -> None:
        """Greedy on-the-fly placement of unmapped frontier operands.

        Mutates ``node.pos`` / ``node.inv`` in place (placement is a
        deterministic normalization, not a search decision).
        """
        if -1 not in node.pos:  # unplaced is always -1 (``_make_root``)
            return
        pos = list(node.pos)
        inv = list(node.inv)
        dist = problem.dist
        changed = False
        for gate in frontier_gates(problem, node):
            qubits = problem.gate_qubits[gate]
            unplaced = [l for l in qubits if pos[l] < 0]
            if not unplaced:
                continue
            free = [p for p in range(problem.num_physical) if inv[p] < 0]
            if len(qubits) == 1:
                target = free[0]
                pos[qubits[0]] = target
                inv[target] = qubits[0]
                changed = True
                continue
            l1, l2 = qubits
            if pos[l1] >= 0 or pos[l2] >= 0:
                anchored, floating = (l1, l2) if pos[l1] >= 0 else (l2, l1)
                home = min(free, key=lambda p: dist[pos[anchored]][p])
                pos[floating] = home
                inv[home] = floating
            else:
                best = None
                for p in free:
                    for q in free:
                        if q <= p:
                            continue
                        candidate = (dist[p][q], p, q)
                        if best is None or candidate < best:
                            best = candidate
                _, p, q = best
                pos[l1], pos[l2] = p, q
                inv[p], inv[q] = l1, l2
            changed = True
        if changed:
            node.pos = tuple(pos)
            node.inv = tuple(inv)
            node.invalidate_caches()

    # ------------------------------------------------------------------
    def _reconstruct(
        self,
        problem: MappingProblem,
        terminal: SearchNode,
        stats,
    ) -> MappingResult:
        """Build the MappingResult; assign leftover qubits arbitrarily."""
        ops: List[ScheduledOp] = []
        for decision_time, actions, child in terminal.path_actions():
            parent = child.parent
            for action in actions:
                if action[0] == "g":
                    gate_index = action[1]
                    gate = problem.circuit[gate_index]
                    ops.append(
                        ScheduledOp(
                            gate_index=gate_index,
                            name=gate.name,
                            logical_qubits=gate.qubits,
                            physical_qubits=tuple(
                                parent.pos[l] for l in gate.qubits
                            ),
                            start=decision_time,
                            duration=problem.gate_latency[gate_index],
                        )
                    )
                else:
                    _, p, q = action
                    ops.append(
                        ScheduledOp(
                            gate_index=None,
                            name="swap",
                            logical_qubits=(parent.inv[p], parent.inv[q]),
                            physical_qubits=(p, q),
                            start=decision_time,
                            duration=problem.swap_len,
                        )
                    )
        ops.sort(key=lambda o: (o.start, o.physical_qubits))

        # Recover the initial mapping by replaying every SWAP backwards
        # from the terminal positions.  Exchanging *whatever logical sits
        # on either physical qubit* (rather than the operands recorded at
        # execution time) also rewinds qubits that were placed on the fly
        # after the SWAP ran: their backward trajectory follows the empty
        # slot they were later placed into, landing on a physical qubit
        # that was genuinely free at cycle 0.
        pos = list(terminal.pos)
        for op in reversed(ops):
            if op.name == "swap" and op.gate_index is None:
                p, q = op.physical_qubits
                for logical, where in enumerate(pos):
                    if where == p:
                        pos[logical] = q
                    elif where == q:
                        pos[logical] = p
        # Qubits never used by any gate get arbitrary free physical spots.
        taken = {p for p in pos if p >= 0}
        spare = [p for p in range(problem.num_physical) if p not in taken]
        initial = [
            p if p >= 0 else spare.pop() for p in pos
        ]
        depth = max((op.end for op in ops), default=0)
        return MappingResult(
            circuit=problem.circuit,
            coupling=problem.coupling,
            latency=problem.latency,
            initial_mapping=tuple(initial),
            ops=ops,
            depth=depth,
            optimal=False,
            stats=dict(stats),
        )
