"""The optimal A* search (paper Sections 4.2, 5, and Fig. 6).

`OptimalMapper` implements the full framework: a priority queue ordered by
the admissible cost ``f(v) = g(v) + h(v)``; the node expander enforcing
coupling, dependency and redundancy constraints; the equivalence/dominance
filter; and the two initial-mapping modes of Section 5.3 —

* **mode 1** — an initial mapping is supplied and only scheduling+SWAP
  insertion is searched;
* **mode 2** — the search is prefixed by up to ``d`` *free* layers of pure
  SWAPs (``d`` = the architecture's longest-simple-path bound) whose cycles
  are not counted, which amounts to searching over initial mappings; each
  distinct mapping is explored at most once (hash filter).

The first terminal node popped from the queue is a time-optimal transformed
circuit (Theorem 5.2).  ``find_all_optimal`` keeps popping to enumerate
every distinct optimal schedule (Appendix B) — modulo schedules the state
filter identifies, which reach identical states at identical cycles.

Observability: pass a :class:`~repro.obs.Telemetry` to record spans
(``search`` > ``prefix``/``expand``/``heuristic``/``filter``, one per
fan-out batch call), metrics snapshotable at any point, and periodic
:class:`~repro.obs.SearchProgressEvent`\\ s.  There is one search loop;
telemetry reaches it as a :class:`~repro.obs.telemetry.SearchHook`, and
with no telemetry attached that hook is the do-nothing ``NULL_HOOK``.
"""

from __future__ import annotations

import dataclasses
import itertools
import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.coupling import CouplingGraph, find_swap_free_mapping
from ..circuit.circuit import Circuit
from ..circuit.latency import LatencyModel
from ..obs.schema import (
    MAPPER_TOQM_OPTIMAL,
    STAT_BUDGET_REASON,
    STAT_INCUMBENT_DEPTH,
    STAT_INCUMBENT_UPDATES,
    STAT_KERNEL_BACKEND,
    STAT_CLOSED_DOMINATED,
    STAT_PRUNED_BY_ASSIGNMENT,
    STAT_PRUNED_BY_BOUND,
    STAT_PRUNED_BY_LAYER_WEIGHT,
    STAT_ROOT_RESTRICTED,
    STAT_SWAPS_RESTRICTED,
    STAT_SYMMETRY_PRUNED,
    base_stats,
)
from ..obs.telemetry import SearchHook, Telemetry, resolve
from ..obs.trace import (
    INCUMBENT_SEED,
    INCUMBENT_SHARED,
    INCUMBENT_TERMINAL,
    PRUNE_ASSIGNMENT_LB,
    PRUNE_IDEAL_DEPTH,
    PRUNE_INCUMBENT_BOUND,
    PRUNE_LAYER_WEIGHT,
    PRUNE_ROOT_RESTRICTION,
    PRUNE_SWAP_RESTRICTION,
    PRUNE_SYMMETRY,
)
from ..obs.tracer import (
    SPAN_EXPAND,
    SPAN_FILTER,
    SPAN_HEURISTIC,
    SPAN_PREFIX,
)
from .bounds import (
    assignment_lb,
    layer_weight_lb,
    root_mapping_allowed,
    root_restriction_pairs,
)
from .expander import OPTIMAL_EXPANSION, PRUNED_OPTIMAL_EXPANSION
from .filters import StateFilter
from .gcpause import pause_gc
from .heuristic import HeuristicMemo
from .heuristic_mapper import incumbent_result
from .kernels import resolve_backend
from .problem import MappingProblem
from .result import MappingResult, ScheduledOp
from .state import SearchNode

#: How many expansions between reads of the shared (cross-process)
#: incumbent bound — each read takes the multiprocessing lock, so workers
#: poll it coarsely instead of per node.
_SHARED_BOUND_POLL = 128


class SearchBudgetExceeded(RuntimeError):
    """The node or time budget ran out before an optimal terminal was found.

    Attributes:
        partial_stats: Normalized search counters captured at the moment
            the budget tripped (nodes expanded/generated, filter drops,
            seconds, ``budget_reason``) — a partial run no longer loses
            its telemetry.
    """

    def __init__(self, message: str, partial_stats: Optional[Dict] = None):
        super().__init__(message)
        self.partial_stats: Dict = dict(partial_stats or {})


def _canonical_mapping(
    pos: Tuple[int, ...], auts: Sequence[Tuple[int, ...]]
) -> Tuple[int, ...]:
    """Lexicographic representative of ``pos`` under the automorphisms.

    A collision between two mappings' canonical forms exhibits a concrete
    coupling-graph automorphism between them (``auts`` is drawn from a
    group containing the identity), so deduplicating mode-2 mappings by
    canonical form is loss-free for optimal depth: any schedule from one
    mapping relabels, edge-for-edge and cycle-for-cycle, into a schedule
    from the other.
    """
    best = None
    for pi in auts:
        candidate = tuple(pi[p] for p in pos)
        if best is None or candidate < best:
            best = candidate
    return best


def _recurse_prefix_swaps(
    candidate_swaps: List[Tuple[int, int]],
    node: SearchNode,
    seen: Dict[Tuple[int, ...], int],
    children: List[SearchNode],
    start: int,
    mask: int,
    chosen: List[Tuple[int, int]],
    auts: Optional[Sequence[Tuple[int, ...]]] = None,
    canon_seen: Optional[set] = None,
    counters: Optional[Dict[str, int]] = None,
) -> None:
    """Free-SWAP-layer recursion (module-level so it carries no closure cell;
    a self-referencing nested closure would leave one reference cycle per
    call for the paused collector — see ``gcpause``)."""
    if chosen:
        pos = list(node.pos)
        inv = list(node.inv)
        for p, q in chosen:
            l1, l2 = inv[p], inv[q]
            inv[p], inv[q] = l2, l1
            if l1 >= 0:
                pos[l1] = q
            if l2 >= 0:
                pos[l2] = p
        key = tuple(pos)
        if key not in seen:
            seen[key] = node.prefix_layers + 1
            symmetric_dup = False
            if auts is not None:
                canon = _canonical_mapping(key, auts)
                if canon in canon_seen:
                    symmetric_dup = True
                    if counters is not None:
                        counters["symmetry_pruned"] += 1
                else:
                    canon_seen.add(canon)
            if not symmetric_dup:
                children.append(
                    SearchNode(
                        time=0,
                        pos=key,
                        inv=tuple(inv),
                        ptr=node.ptr,
                        started=0,
                        inflight=(),
                        last_swaps=frozenset(),
                        prev_startable=frozenset(),
                        parent=node,
                        actions=tuple(("s", p, q) for p, q in chosen),
                        prefix_layers=node.prefix_layers + 1,
                    )
                )
    for i in range(start, len(candidate_swaps)):
        p, q = candidate_swaps[i]
        bit = (1 << p) | (1 << q)
        if mask & bit:
            continue
        chosen.append((p, q))
        _recurse_prefix_swaps(candidate_swaps, node, seen, children,
                              i + 1, mask | bit, chosen,
                              auts, canon_seen, counters)
        chosen.pop()


def _recurse_mapping_swaps(
    candidates: List[Tuple[int, int]],
    pos: Tuple[int, ...],
    inv: List[int],
    seen: set,
    produced: List[Tuple[int, ...]],
    start: int,
    mask: int,
    chosen: List[Tuple[int, int]],
) -> None:
    """Disjoint-SWAP-subset recursion over bare mapping tuples (the
    node-free analogue of :func:`_recurse_prefix_swaps`, used to
    pre-enumerate mode-2 roots for the parallel fan-out)."""
    if chosen:
        new_pos = list(pos)
        new_inv = list(inv)
        for p, q in chosen:
            l1, l2 = new_inv[p], new_inv[q]
            new_inv[p], new_inv[q] = l2, l1
            if l1 >= 0:
                new_pos[l1] = q
            if l2 >= 0:
                new_pos[l2] = p
        key = tuple(new_pos)
        if key not in seen:
            seen.add(key)
            produced.append(key)
    for i in range(start, len(candidates)):
        p, q = candidates[i]
        bit = (1 << p) | (1 << q)
        if mask & bit:
            continue
        chosen.append((p, q))
        _recurse_mapping_swaps(candidates, pos, inv, seen, produced,
                               i + 1, mask | bit, chosen)
        chosen.pop()


def enumerate_mode2_mappings(
    problem: MappingProblem,
    try_swap_free_fast_path: bool = True,
    reduce_symmetry: bool = False,
    counters: Optional[Dict[str, int]] = None,
) -> List[Tuple[int, ...]]:
    """Deduplicated initial mappings mode 2 can reach (Section 5.3).

    Breadth-first enumeration over up to ``longest_simple_path_bound()``
    free layers of qubit-disjoint SWAP subsets, seeded from the swap-free
    monomorphism embedding (when one exists) and the identity placement —
    a superset of the mappings the in-search prefix expansion explores,
    so searching each mapping as an independent mode-1 problem and taking
    the minimum reproduces the serial mode-2 optimum.  The parallel
    fan-out (:func:`repro.analysis.batch.map_mode2_fanout`) dispatches
    one worker search per returned mapping.

    With ``reduce_symmetry`` the mappings are additionally deduplicated
    up to coupling-graph automorphism (see :func:`_canonical_mapping`):
    symmetric mappings root isomorphic subtrees with equal optimal depth,
    so one representative per orbit suffices.  ``counters`` (when given)
    receives the number of orbit-mates dropped under
    ``"symmetry_pruned"``.
    """
    num_logical = problem.num_logical
    num_physical = problem.num_physical
    prefix_cap = problem.coupling.longest_simple_path_bound()
    identity = tuple(range(num_logical))
    auts = problem.coupling.automorphisms() if reduce_symmetry else None
    if auts is not None and len(auts) <= 1:
        auts = None
    canon_seen: set = set()

    def admit(mapping: Tuple[int, ...]) -> bool:
        """Record ``mapping``; True when it survives symmetry dedup."""
        seen.add(mapping)
        if auts is None:
            return True
        canon = _canonical_mapping(mapping, auts)
        if canon in canon_seen:
            if counters is not None:
                counters["symmetry_pruned"] = (
                    counters.get("symmetry_pruned", 0) + 1
                )
            return False
        canon_seen.add(canon)
        return True

    order: List[Tuple[int, ...]] = []
    seen: set = set()
    if try_swap_free_fast_path:
        embedding = find_swap_free_mapping(
            problem.circuit.interaction_graph(),
            problem.coupling,
            num_logical,
        )
        if embedding is not None:
            mapping = tuple(embedding[l] for l in range(num_logical))
            if admit(mapping):
                order.append(mapping)
    if identity not in seen and admit(identity):
        order.append(identity)

    def inv_of(pos: Tuple[int, ...]) -> List[int]:
        inv = [-1] * num_physical
        for logical, physical in enumerate(pos):
            inv[physical] = logical
        return inv

    frontier = list(order)
    for _layer in range(prefix_cap):
        next_frontier: List[Tuple[int, ...]] = []
        for pos in frontier:
            inv = inv_of(pos)
            candidates = [
                (p, q)
                for p, q in problem.edges
                if inv[p] >= 0 or inv[q] >= 0
            ]
            produced: List[Tuple[int, ...]] = []
            _recurse_mapping_swaps(
                candidates, pos, inv, seen, produced, 0, 0, []
            )
            if auts is not None:
                kept: List[Tuple[int, ...]] = []
                for mapping in produced:
                    canon = _canonical_mapping(mapping, auts)
                    if canon in canon_seen:
                        if counters is not None:
                            counters["symmetry_pruned"] = (
                                counters.get("symmetry_pruned", 0) + 1
                            )
                        continue
                    canon_seen.add(canon)
                    kept.append(mapping)
                produced = kept
            next_frontier.extend(produced)
            order.extend(produced)
        if not next_frontier:
            break
        frontier = next_frontier
    return order


class OptimalMapper:
    """Time-optimal qubit mapper (the paper's exact mode, Section 6.1).

    Args:
        coupling: Target architecture.
        latency: Latency model (defaults to 1 cycle/gate, 3-cycle SWAP).
        search_initial_mapping: Use mode 2 (free SWAP prefix) to also
            optimize the initial mapping.  Ignored when ``map`` is called
            with an explicit ``initial_mapping``.
        try_swap_free_fast_path: In mode 2, first attempt a subgraph-
            monomorphism embedding of the circuit's interaction graph — the
            fast path the paper applies before the Table 2 runs.
        max_nodes: Abort with :class:`SearchBudgetExceeded` after expanding
            this many nodes (safety valve; optimality needs it unbounded).
        max_seconds: Optional wall-clock budget.
        deadline: Optional *anytime* wall-clock budget in seconds.  Unlike
            ``max_seconds`` (which raises), an expired deadline returns
            the best incumbent schedule found so far — the heuristic seed
            or a terminal discovered during the search — with
            ``optimal=False`` and ``stats["incumbent_depth"]`` set.  Only
            when no incumbent exists at all does the deadline raise.
        prune_swaps: Apply the loss-free active-SWAP candidate
            restriction (only SWAPs incident to operands of pending
            two-qubit gates or to shortest-path qubits between them are
            enumerated).  Depth-preserving for the admissible search; it
            does trim decorative same-depth schedules, so
            :meth:`find_all_optimal` always runs unrestricted.
        seed_incumbent: Run the practical mapper once up front to seed an
            incumbent upper bound ``UB`` (in mode 2, the swap-free
            monomorphism embedding seeds the placement when it exists);
            generated nodes with ``f >= UB`` (``> UB`` when enumerating
            all optima) are pruned at push time, and the bound tightens
            whenever a better terminal is generated (anytime behavior).
        reduce_symmetry: In mode 2, deduplicate initial mappings up to
            coupling-graph automorphism: symmetric mappings root
            isomorphic subtrees of equal optimal depth (gate latencies
            are position-independent), so only one orbit representative
            is searched.  Loss-free for :meth:`map`; orbit-mates are
            distinct schedules, so :meth:`find_all_optimal` always keeps
            symmetry reduction off.
        mode2_workers: When set and mode 2 applies, fan the deduplicated
            prefix-root mappings out across a process pool
            (:func:`repro.analysis.batch.map_mode2_fanout`), sharing the
            best incumbent between workers; ``1`` runs the fan-out
            sequentially in-process (same aggregation, no pool).
            ``None`` keeps the classic single-queue mode-2 search.
        informed: Use the full swap-aware admissible heuristic of Section
            5.1.  When False the search degrades to an uninformed exact
            search guided only by the remaining critical path — the
            configuration the OLSQ-style baseline uses.
        dominance: Enable the comparative-analysis filter (Fig. 5b); the
            equivalence check stays on either way.
        memoize: Cache heuristic evaluations per run, keyed on the node's
            effective signature (pointers, post-SWAP mapping, relative
            in-flight profile).  Purely an evaluation cache — node counts
            and depths are identical with it on or off.
        assignment_bound: Prune real nodes whose assignment-relaxation
            work/capacity bound (:func:`repro.core.bounds.assignment_lb`)
            meets the incumbent; counted separately as
            ``pruned_by_assignment_lb``.
        layer_bound: Compute the layer-weight depth floor
            (:func:`repro.core.bounds.layer_weight_lb`) once per problem;
            it strengthens the mode-2 prefix prune and closes the whole
            search when the incumbent already meets it; counted as
            ``pruned_by_layer_weight``.
        root_restriction: In mode 2, skip the real-schedule expansion of
            candidate initial mappings that place no root-frontier
            two-qubit pair on an edge (loss-free for optimal depth — see
            :func:`repro.core.bounds.root_restriction_pairs`); counted as
            ``root_candidates_restricted``.  Never applied by
            :meth:`find_all_optimal` (folding re-times schedules).
        telemetry: Optional observability context; ``None`` runs the
            same search with the null hook.
    """

    #: Stats label this mapper writes into ``MappingResult.stats``.
    mapper_name = MAPPER_TOQM_OPTIMAL

    def __init__(
        self,
        coupling: CouplingGraph,
        latency: Optional[LatencyModel] = None,
        search_initial_mapping: bool = False,
        try_swap_free_fast_path: bool = True,
        max_nodes: Optional[int] = None,
        max_seconds: Optional[float] = None,
        deadline: Optional[float] = None,
        prune_swaps: bool = True,
        seed_incumbent: bool = True,
        reduce_symmetry: bool = True,
        mode2_workers: Optional[int] = None,
        informed: bool = True,
        dominance: bool = True,
        memoize: bool = True,
        assignment_bound: bool = False,
        layer_bound: bool = False,
        root_restriction: bool = False,
        closed_dominance: bool = False,
        telemetry: Optional[Telemetry] = None,
        kernel: Optional[str] = None,
    ) -> None:
        self.coupling = coupling
        self.latency = latency
        self.search_initial_mapping = search_initial_mapping
        self.try_swap_free_fast_path = try_swap_free_fast_path
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.deadline = deadline
        self.prune_swaps = prune_swaps
        self.seed_incumbent = seed_incumbent
        self.reduce_symmetry = reduce_symmetry
        self.mode2_workers = mode2_workers
        self.informed = informed
        self.dominance = dominance
        self.memoize = memoize
        #: Literature-grade admissible bounds (see ``core.bounds``), each
        #: opt-in so default node counts stay bit-identical:
        #: per-node assignment-relaxation work bound, per-problem
        #: layer-weight depth floor, and Burgholzer-style mode-2
        #: root-mapping restriction.
        self.assignment_bound = assignment_bound
        self.layer_bound = layer_bound
        self.root_restriction = root_restriction
        #: Let closed in-flight-free nodes dominate newcomers (see
        #: :class:`~repro.core.filters.StateFilter`); loss-free for
        #: optimal depth, forced off for :meth:`find_all_optimal`.
        self.closed_dominance = closed_dominance
        self.telemetry = telemetry
        #: Kernel backend name (``pure`` / ``compiled``) or ``None`` for
        #: the capability probe.  Stored as a string and resolved
        #: lazily per search so mappers stay picklable for the
        #: process-pool fan-outs.
        self.kernel = kernel
        #: Cross-process incumbent bound handle
        #: (:class:`repro.analysis.batch.SharedBound`), installed on worker
        #: copies by the mode-2 fan-out; ``None`` for ordinary searches.
        self.shared_incumbent = None
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
        """Find a time-optimal transformed circuit.

        Args:
            circuit: The logical circuit.
            initial_mapping: Mode-1 initial mapping (``initial_mapping[l]``
                is the physical home of logical ``l``).  When ``None`` and
                ``search_initial_mapping`` is set, mode 2 runs; otherwise
                the identity mapping is used.

        Returns:
            A :class:`MappingResult` with ``optimal=True`` (``False`` only
            when an anytime ``deadline`` expired and the best incumbent is
            returned instead).
        """
        if (
            initial_mapping is None
            and self.search_initial_mapping
            and self.mode2_workers is not None
        ):
            # Parallel mode 2: fan the deduplicated prefix-root mappings
            # out across a process pool.  Imported lazily — batch imports
            # this module.
            from ..analysis.batch import map_mode2_fanout

            return map_mode2_fanout(
                self, circuit, max_workers=self.mode2_workers
            )
        problem = self._problem(circuit)
        terminals = self._search(problem, initial_mapping, find_all=False)
        return terminals[0]

    def find_all_optimal(
        self,
        circuit: Circuit,
        initial_mapping: Optional[Sequence[int]] = None,
        max_solutions: int = 64,
    ) -> List[MappingResult]:
        """Enumerate distinct optimal schedules (Appendix B).

        Args:
            circuit: The logical circuit.
            initial_mapping: As in :meth:`map`.
            max_solutions: Stop after this many optimal terminals.
        """
        problem = self._problem(circuit)
        return self._search(
            problem, initial_mapping, find_all=True, max_solutions=max_solutions
        )

    # ------------------------------------------------------------------
    def _roots(
        self,
        problem: MappingProblem,
        initial_mapping: Optional[Sequence[int]],
    ) -> Tuple[List[SearchNode], bool, Optional[List[int]]]:
        """Build root node(s).

        Returns ``(roots, prefix_mode, fast_mapping)`` where
        ``fast_mapping`` is the swap-free monomorphism embedding found in
        mode 2 (``None`` otherwise) — used to seed the incumbent
        heuristic run at a known-good placement.
        """
        num_logical = problem.num_logical
        num_physical = problem.num_physical

        def make_root(mapping: Sequence[int], prefix_layers: int) -> SearchNode:
            pos = tuple(mapping)
            inv = [-1] * num_physical
            for logical, physical in enumerate(pos):
                inv[physical] = logical
            return SearchNode(
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
                prefix_layers=prefix_layers,
            )

        if initial_mapping is not None:
            if sorted(set(initial_mapping)) != sorted(initial_mapping) or len(
                initial_mapping
            ) != num_logical:
                raise ValueError("initial mapping must be injective over logicals")
            return [make_root(initial_mapping, -1)], False, None

        if not self.search_initial_mapping:
            return [make_root(range(num_logical), -1)], False, None

        roots = [make_root(range(num_logical), 0)]
        fast_mapping: Optional[List[int]] = None
        if self.try_swap_free_fast_path:
            embedding = find_swap_free_mapping(
                problem.circuit.interaction_graph(),
                problem.coupling,
                num_logical,
            )
            if embedding is not None:
                fast_mapping = [embedding[l] for l in range(num_logical)]
                roots.insert(0, make_root(fast_mapping, 0))
        return roots, True, fast_mapping

    # ------------------------------------------------------------------
    def _search(
        self,
        problem: MappingProblem,
        initial_mapping: Optional[Sequence[int]],
        find_all: bool,
        max_solutions: int = 64,
    ) -> List[MappingResult]:
        hook = resolve(self.telemetry).hook(self.mapper_name)
        # The search graph is acyclic (children only reference parents),
        # so the cyclic collector can only cost time here — see
        # ``gcpause`` for the measurement.
        with hook.search_span(problem), pause_gc():
            try:
                solutions = self._search_loop(
                    problem, initial_mapping, find_all, max_solutions, hook
                )
            except SearchBudgetExceeded as exc:
                hook.finish(exc.partial_stats, label="budget_exceeded")
                raise
        # The last solution's stats carry the loop's final counters.
        hook.finish(solutions[-1].stats, label="search_complete")
        return solutions

    def _search_loop(
        self,
        problem: MappingProblem,
        initial_mapping: Optional[Sequence[int]],
        find_all: bool,
        max_solutions: int,
        hook: SearchHook,
    ) -> List[MappingResult]:
        start_clock = _time.perf_counter()
        kernel = resolve_backend(self.kernel)
        heappush = kernel.heappush
        heappop = kernel.heappop
        roots, prefix_mode, fast_mapping = self._roots(problem, initial_mapping)
        state_filter = StateFilter(
            problem,
            dominance=self.dominance,
            closed_dominance=self.closed_dominance and not find_all,
            metrics=hook.metrics,
            trace=hook.trace,
            kernel=kernel,
        )
        admit = state_filter.admit
        counter = itertools.count()
        heap: List[Tuple[int, int, int, SearchNode]] = []
        seen_prefix_mappings: Dict[Tuple[int, ...], int] = {}
        prefix_cap = (
            self.coupling.longest_simple_path_bound() if prefix_mode else 0
        )
        # Depth on an all-to-all architecture: a lower bound on every
        # schedule from EVERY initial mapping, used to bound-prune prefix
        # nodes (whose own ``f`` is not a valid bound — see ``push``).
        ideal_lb = problem.ideal_depth() if prefix_mode else 0
        # Opt-in literature-grade bounds (core/bounds.py).  ``layer_lb``
        # is mapping-independent like ``ideal_lb`` but usually tighter;
        # it is checked *after* the pre-existing prunes so each counter
        # attributes only the kills the older rules would have missed.
        layer_lb = layer_weight_lb(problem) if self.layer_bound else 0
        use_assignment = self.assignment_bound
        root_pairs = None
        if self.root_restriction and prefix_mode and not find_all:
            root_pairs = root_restriction_pairs(problem)

        # The active-SWAP restriction is depth-preserving but trims
        # decorative same-depth schedules, so the all-optima enumeration
        # always runs unrestricted (see ExpansionConfig.active_swaps_only).
        config = (
            PRUNED_OPTIMAL_EXPANSION
            if self.prune_swaps and not find_all
            else OPTIMAL_EXPANSION
        )
        expand_counters = {"swaps_restricted": 0, "symmetry_pruned": 0}

        # Mode-2 symmetry quotient: initial mappings related by a
        # coupling-graph automorphism root isomorphic subtrees, so the
        # prefix dedup additionally keys on the canonical orbit
        # representative.  All-optima enumeration keeps every orbit-mate
        # (symmetric schedules are distinct solutions).
        auts: Optional[Sequence[Tuple[int, ...]]] = None
        canon_seen: Optional[set] = None
        if prefix_mode and self.reduce_symmetry and not find_all:
            candidates_auts = self.coupling.automorphisms()
            if len(candidates_auts) > 1:
                auts = candidates_auts
                canon_seen = set()

        # --- branch-and-bound incumbent state --------------------------
        # ``bound`` is the depth of the best complete schedule known (the
        # heuristic seed, a terminal generated during this search, or a
        # depth another fan-out worker shared).  Generated nodes with
        # f >= bound (f > bound when enumerating all optima — those must
        # keep equal-f terminals) are pruned at push time; h is admissible,
        # so no strictly better schedule is ever lost, and exhausting the
        # queue proves the incumbent optimal.
        shared = self.shared_incumbent
        prune_eq = not find_all
        bound: Optional[int] = None
        incumbent: Optional[MappingResult] = None
        incumbent_node: Optional[SearchNode] = None
        pruned_by_bound = 0
        pruned_by_assignment = 0
        pruned_by_layer = 0
        root_restricted = 0
        incumbent_updates = 0
        if self.seed_incumbent:
            if initial_mapping is not None:
                seed_map: Optional[Sequence[int]] = initial_mapping
            elif not prefix_mode:
                seed_map = list(range(problem.num_logical))
            else:
                # Mode 2 optimizes over initial mappings, so ANY valid
                # schedule bounds it; start the heuristic at the swap-free
                # embedding when one exists, else let it place on the fly.
                seed_map = fast_mapping
            incumbent = incumbent_result(
                problem.coupling,
                problem.latency,
                problem.circuit,
                initial_mapping=seed_map,
            )
            if incumbent is not None:
                bound = incumbent.depth
                hook.incumbent(bound, INCUMBENT_SEED)
        if shared is not None:
            shared_depth = shared.peek()
            if shared_depth is not None and (
                bound is None or shared_depth < bound
            ):
                bound = shared_depth
                hook.incumbent(bound, INCUMBENT_SHARED)
            if incumbent is not None and incumbent.depth is not None:
                shared.offer(incumbent.depth)

        memo = None
        if self.memoize:
            context = getattr(self, "arch_context", None)
            if context is not None:
                # Warm-cache batch runs share the memo across repeats of
                # the same circuit (pure evaluation cache; the config key
                # pins the fixed (window, swap_aware) invariant).
                memo = context.memo(problem, ("optimal", self.informed))
            else:
                memo = HeuristicMemo()
        total_gates = problem.num_gates
        metrics = hook.metrics

        def score(nodes: List[SearchNode]) -> None:
            """Assign h and f for a fan-out batch via the kernel backend."""
            kernel.heuristic_batch(
                problem, nodes, swap_aware=self.informed, metrics=metrics,
                memo=memo,
            )
            for node in nodes:
                node.f = node.time + node.h

        def admit_all(nodes: List[SearchNode]) -> List[SearchNode]:
            return [node for node in nodes if admit(node)]

        def push(node: SearchNode) -> None:
            nonlocal bound, incumbent_node, pruned_by_bound, incumbent_updates
            nonlocal pruned_by_assignment, pruned_by_layer
            f = node.f  # score() ran on the batch this node came from
            # Prefix nodes are exempt from the f-based prune: free SWAP
            # layers can still lower ``h`` by improving the mapping, so a
            # prefix node's ``f`` does not bound its prefix-descendants'
            # completions.  The all-to-all critical path does, though — no
            # initial mapping beats ``ideal_lb`` — so once the incumbent
            # reaches it the entire prefix subtree is provably unbeatable
            # (otherwise mode 2 would grind the full mapping space just to
            # certify an incumbent that already equals the optimum).
            if bound is not None:
                lb = ideal_lb if node.in_prefix else f
                if lb > bound or (prune_eq and lb >= bound):
                    # An improving terminal has time < bound and h == 0,
                    # hence f < bound — this prune never discards one.
                    pruned_by_bound += 1
                    hook.prune(
                        PRUNE_IDEAL_DEPTH if node.in_prefix
                        else PRUNE_INCUMBENT_BOUND,
                        node,
                    )
                    return
                # Layer-weight floor: mapping-independent, so it prunes
                # prefix and real nodes alike; an improving terminal has
                # time < bound <= any admissible floor — never discarded.
                if layer_lb and (
                    layer_lb > bound or (prune_eq and layer_lb >= bound)
                ):
                    pruned_by_layer += 1
                    hook.prune(PRUNE_LAYER_WEIGHT, node)
                    return
                if use_assignment and not node.in_prefix:
                    alb = assignment_lb(problem, node)
                    if alb > bound or (prune_eq and alb >= bound):
                        pruned_by_assignment += 1
                        hook.prune(PRUNE_ASSIGNMENT_LB, node)
                        return
            if (
                node.started == total_gates
                and not node.inflight
                and (bound is None or node.time < bound)
            ):
                bound = node.time
                incumbent_node = node
                incumbent_updates += 1
                hook.incumbent(bound, INCUMBENT_TERMINAL)
                state_filter.kill_above_bound(bound)
                if shared is not None:
                    shared.offer(bound)
            heappush(heap, (f, -node.started, next(counter), node))

        # Per-fan-out spans on an instrumented run; the plain callables
        # otherwise.
        expand_prefix = hook.timed(SPAN_PREFIX, self._expand_prefix)
        expand_children = hook.timed(SPAN_EXPAND, kernel.expand)
        score = hook.timed(SPAN_HEURISTIC, score)
        admit_all = hook.timed(SPAN_FILTER, admit_all)

        def progress_extra(_node: SearchNode) -> Dict[str, int]:
            return {
                "filtered_equivalent": state_filter.equivalent_dropped,
                "filtered_dominated": state_filter.dominated_dropped,
            }

        root_batch: List[SearchNode] = []
        for root in roots:
            if prefix_mode:
                seen_prefix_mappings.setdefault(root.pos, 0)
                if auts is not None:
                    canon = _canonical_mapping(root.pos, auts)
                    if canon in canon_seen:
                        # A symmetric twin (e.g. the embedding root) is
                        # already being searched.
                        expand_counters["symmetry_pruned"] += 1
                        hook.prune(PRUNE_SYMMETRY, root)
                        continue
                    canon_seen.add(canon)
            root_batch.append(root)
        # Scoring is bound-independent, so batch-scoring the surviving
        # roots then pushing them in order is identical to scoring each
        # root as it is pushed.
        score(root_batch)
        for root in root_batch:
            push(root)
        pushed_roots = len(root_batch)

        expanded = 0
        generated = pushed_roots
        redundant = 0
        best_depth: Optional[int] = None
        solutions: List[MappingResult] = []

        def make_stats(**extra) -> Dict[str, float]:
            """Normalized counters at this instant (success or budget)."""
            if memo is not None:
                extra.setdefault("memo_hits", memo.hits)
                extra.setdefault("memo_misses", memo.misses)
            extra.setdefault(STAT_PRUNED_BY_BOUND, pruned_by_bound)
            extra.setdefault(STAT_PRUNED_BY_ASSIGNMENT, pruned_by_assignment)
            extra.setdefault(STAT_PRUNED_BY_LAYER_WEIGHT, pruned_by_layer)
            extra.setdefault(STAT_ROOT_RESTRICTED, root_restricted)
            extra.setdefault(
                STAT_CLOSED_DOMINATED, state_filter.closed_dominated
            )
            extra.setdefault(STAT_INCUMBENT_UPDATES, incumbent_updates)
            extra.setdefault(STAT_KERNEL_BACKEND, kernel.name)
            extra.setdefault(
                STAT_SWAPS_RESTRICTED, expand_counters["swaps_restricted"]
            )
            extra.setdefault(
                STAT_SYMMETRY_PRUNED, expand_counters["symmetry_pruned"]
            )
            if bound is not None and (
                incumbent is not None or incumbent_node is not None
            ):
                extra.setdefault(STAT_INCUMBENT_DEPTH, bound)
            overflow = problem.cache_overflow_total()
            if overflow:
                extra.setdefault("problem_cache_overflow", overflow)
            return base_stats(
                self.mapper_name,
                nodes_expanded=expanded,
                nodes_generated=generated,
                filtered_equivalent=state_filter.equivalent_dropped,
                filtered_dominated=state_filter.dominated_dropped,
                seconds=_time.perf_counter() - start_clock,
                killed=state_filter.killed,
                redundant=redundant,
                distinct_states=state_filter.num_states,
                **extra,
            )

        def release_search_state() -> None:
            # Free the retained node graph by refcount *before* the budget
            # exception unwinds past pause_gc: the traceback would otherwise
            # pin heap/filter/memo alive until after the collector resumes,
            # forcing the deferred gen-0 scan to walk ~1M live objects
            # (measured ~0.65s on the QFT-8 microbench) only to free none.
            heap.clear()
            state_filter.release()
            seen_prefix_mappings.clear()
            if memo is not None:
                memo.table.clear()

        while heap:
            f, _neg_started, _tick, node = heappop(heap)
            if node.killed:
                continue
            if bound is not None:
                # The incumbent may have tightened after the node was
                # queued.  Real nodes re-check their own ``f``; prefix
                # nodes are exempt from that (their free SWAP layers can
                # still improve the mapping below their own ``f``) but
                # fall to the mapping-independent ``ideal_lb`` check.
                if node.in_prefix:
                    if ideal_lb > bound or (prune_eq and ideal_lb >= bound):
                        pruned_by_bound += 1
                        hook.prune(PRUNE_IDEAL_DEPTH, node)
                        continue
                    if layer_lb and (
                        layer_lb > bound or (prune_eq and layer_lb >= bound)
                    ):
                        pruned_by_layer += 1
                        hook.prune(PRUNE_LAYER_WEIGHT, node)
                        continue
                elif f > bound:
                    pruned_by_bound += 1
                    hook.prune(PRUNE_INCUMBENT_BOUND, node)
                    continue
                elif (
                    layer_lb
                    and (node.started < total_gates or node.inflight)
                    and (layer_lb > bound or (prune_eq and layer_lb >= bound))
                ):
                    # The floor binds every node equally: once the
                    # incumbent meets it the queue drains and the dry-
                    # queue path certifies the incumbent optimal.  A
                    # terminal is exempt: its ``f`` is its depth, which
                    # ``f > bound`` already tests, and the terminal that
                    # set ``bound`` must not fall to the floor it meets —
                    # under a shared bound no dry-queue path returns it.
                    pruned_by_layer += 1
                    hook.prune(PRUNE_LAYER_WEIGHT, node)
                    continue
            if best_depth is not None and f > best_depth:
                break
            if node.started == total_gates and not node.inflight:
                if best_depth is None:
                    best_depth = node.time
                if node.time == best_depth:
                    if hook.trace is not None:
                        hook.trace.solution(node, depth=node.time)
                    solutions.append(
                        self._reconstruct(problem, node, stats=make_stats())
                    )
                if not find_all or len(solutions) >= max_solutions:
                    break
                continue

            if self.max_nodes is not None and expanded >= self.max_nodes:
                partial = make_stats(**{STAT_BUDGET_REASON: "max_nodes"})
                release_search_state()
                raise SearchBudgetExceeded(
                    f"expanded more than {self.max_nodes} nodes",
                    partial_stats=partial,
                )
            if (
                self.max_seconds is not None
                and _time.perf_counter() - start_clock > self.max_seconds
            ):
                partial = make_stats(**{STAT_BUDGET_REASON: "max_seconds"})
                release_search_state()
                raise SearchBudgetExceeded(
                    f"exceeded {self.max_seconds} seconds",
                    partial_stats=partial,
                )
            if (
                self.deadline is not None
                and _time.perf_counter() - start_clock > self.deadline
            ):
                # Anytime mode: hand back the best incumbent instead of
                # raising — the reconstructed terminal when the search
                # found one, else the heuristic seed schedule.
                if incumbent_node is not None:
                    stats = make_stats(**{STAT_BUDGET_REASON: "deadline"})
                    result = self._reconstruct(
                        problem, incumbent_node, stats=stats, optimal=False
                    )
                    release_search_state()
                    return [result]
                if incumbent is not None:
                    stats = make_stats(**{STAT_BUDGET_REASON: "deadline"})
                    result = dataclasses.replace(
                        incumbent, optimal=False, stats=stats
                    )
                    release_search_state()
                    return [result]
                partial = make_stats(**{STAT_BUDGET_REASON: "deadline"})
                release_search_state()
                raise SearchBudgetExceeded(
                    f"deadline of {self.deadline} seconds expired with no "
                    "incumbent schedule",
                    partial_stats=partial,
                )

            node.dropped = True  # closed: may no longer exercise dominance
            expanded += 1
            if shared is not None and expanded % _SHARED_BOUND_POLL == 0:
                shared_depth = shared.peek()
                if shared_depth is not None and (
                    bound is None or shared_depth < bound
                ):
                    bound = shared_depth
                    hook.incumbent(bound, INCUMBENT_SHARED)
                    state_filter.kill_above_bound(bound)
            hook.expanded(
                node, f, len(heap), expanded, generated, progress_extra
            )

            # Admit the whole fan-out first, then batch-score the admitted
            # children through the kernel, then push them in order.
            # Scoring is bound-independent, so this reorders nothing —
            # except when a fan-out contains a terminal child, whose push
            # tightens the bound and kills filter entries between sibling
            # admits; that rare case (at most one per incumbent update)
            # keeps the sequential admit/score/push order.
            batch: List[SearchNode] = []
            if node.in_prefix:
                symmetric = expand_counters["symmetry_pruned"]
                batch = expand_prefix(
                    problem, node, prefix_cap, seen_prefix_mappings,
                    auts, canon_seen, expand_counters,
                )
                if expand_counters["symmetry_pruned"] != symmetric:
                    # Orbit-mates dropped while expanding this prefix node
                    # were never built; attribute them to the expander.
                    hook.prune(
                        PRUNE_SYMMETRY, node,
                        expand_counters["symmetry_pruned"] - symmetric,
                    )
                generated += len(batch)
                if root_pairs is not None and not root_mapping_allowed(
                    problem, node.pos, root_pairs
                ):
                    # No frontier pair on an edge: this candidate initial
                    # mapping cannot begin an optimal schedule (see
                    # bounds.root_restriction_pairs); keep only its free
                    # prefix children.
                    root_restricted += 1
                    hook.prune(PRUNE_ROOT_RESTRICTION, node)
                    score(batch)
                    for child in batch:
                        push(child)
                    continue
            restricted = expand_counters["swaps_restricted"]
            children = expand_children(
                problem, node, config, counters=expand_counters
            )
            if expand_counters["swaps_restricted"] != restricted:
                hook.prune(
                    PRUNE_SWAP_RESTRICTION, node,
                    expand_counters["swaps_restricted"] - restricted,
                )
            generated += len(children)
            if any(
                child.started == total_gates and not child.inflight
                for child in children
            ):
                score(batch)
                for child in batch:
                    push(child)
                for child in children:
                    if admit_all([child]):
                        score([child])
                        push(child)
                continue
            batch += admit_all(children)
            score(batch)
            for child in batch:
                push(child)

        if find_all and solutions:
            # Pops after the last solution may still have expanded nodes:
            # the last solution carries the run's final counters.
            solutions[-1].stats = make_stats()
        if not solutions:
            # The queue ran dry.  With a *local* incumbent that proves
            # optimality: every pruned node had f >= incumbent depth under
            # an admissible h, so nothing strictly better exists.  A
            # fan-out worker (shared bound) cannot conclude this — its
            # bound may come from another root — so it raises and lets the
            # aggregator decide.
            if shared is None and incumbent_node is not None:
                result = self._reconstruct(
                    problem, incumbent_node, stats=make_stats()
                )
                release_search_state()
                return [result]
            if shared is None and incumbent is not None:
                result = dataclasses.replace(
                    incumbent, optimal=True, stats=make_stats()
                )
                release_search_state()
                return [result]
            partial = make_stats(**{STAT_BUDGET_REASON: "exhausted"})
            release_search_state()
            raise SearchBudgetExceeded(
                "search ended without reaching a terminal node",
                partial_stats=partial,
            )
        return solutions

    # ------------------------------------------------------------------
    def _expand_prefix(
        self,
        problem: MappingProblem,
        node: SearchNode,
        prefix_cap: int,
        seen: Dict[Tuple[int, ...], int],
        auts: Optional[Sequence[Tuple[int, ...]]] = None,
        canon_seen: Optional[set] = None,
        counters: Optional[Dict[str, int]] = None,
    ) -> List[SearchNode]:
        """Free pure-SWAP layer children (Section 5.3, mode 2)."""
        if node.prefix_layers >= prefix_cap:
            return []
        candidate_swaps = [
            (p, q)
            for p, q in problem.edges
            if node.inv[p] >= 0 or node.inv[q] >= 0
        ]
        children: List[SearchNode] = []
        _recurse_prefix_swaps(candidate_swaps, node, seen, children, 0, 0, [],
                              auts, canon_seen, counters)
        return children

    # ------------------------------------------------------------------
    def _reconstruct(
        self,
        problem: MappingProblem,
        terminal: SearchNode,
        stats: Dict[str, float],
        optimal: bool = True,
    ) -> MappingResult:
        ops: List[ScheduledOp] = []
        initial_pos = None
        for decision_time, actions, child in terminal.path_actions():
            parent = child.parent
            if child.in_prefix:
                continue  # free prefix layer: folded into the initial mapping
            if initial_pos is None:
                initial_pos = parent.pos
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
        if initial_pos is None:
            # No scheduled actions at all (empty circuit) or pure prefix.
            initial_pos = terminal.pos
        ops.sort(key=lambda o: (o.start, o.physical_qubits))
        return MappingResult(
            circuit=problem.circuit,
            coupling=problem.coupling,
            latency=problem.latency,
            initial_mapping=tuple(initial_pos),
            ops=ops,
            depth=terminal.time,
            optimal=optimal,
            stats=stats,
        )
