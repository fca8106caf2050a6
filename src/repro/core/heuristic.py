"""The admissible cost-to-go heuristic ``h(v)`` (paper Section 5.1).

For each gate ``g`` remaining in the circuit we compute ``t_min(g)``, a
lower bound (relative to the node's current cycle) on when ``g`` can begin:

* in-flight gates/SWAPs have ``t_min = 0`` and contribute their *remaining*
  length;
* a gate's immediate predecessors (the previous remaining element on each
  operand qubit's chain) give ``u = max(t_min(pred) + len(pred))``;
* a two-qubit gate whose operands sit at distance ``d > 1`` under π_rem
  (the mapping after in-flight SWAPs take effect) additionally needs at
  least ``d − 1`` SWAPs split as ``r`` on one operand and ``s = d−1−r`` on
  the other.  Each operand qubit has *slack* ``u − T`` (``T`` = total
  remaining predecessor cycles on that qubit) that can absorb SWAP latency;
  we pick the split minimizing the larger delay — exactly the computation
  that defeats the "meet in the middle" fallacy of Fig. 9.

``h(v) = max_g t_min(g) + len(g)`` is admissible (paper Lemma A.1); tests
cross-check it against exhaustive optimal depths.

Hot-path implementation notes (the reference semantics are preserved
bit-for-bit; :func:`_heuristic_cost_reference` keeps the original
formulation for cross-checking):

* Pending two-qubit gates are enumerated by merging the precomputed
  per-owner suffix runs (``problem.own2``) — no per-call set building.
* Runs of pending single-qubit gates between two-qubit gates on a chain
  only ever shift that chain's head/load by their total latency and can
  never set the overall maximum (the next two-qubit gate's finish bound
  dominates them), so they are folded in as one prefix-sum subtraction.
* The SWAP-split minimization over ``r`` is computed in closed form
  (:func:`_swap_split_delay`) with a small per-problem memo table keyed
  on the packed ``(d, slack1, slack2)`` triple (``swap_len`` is constant
  per problem) instead of an ``O(d)`` loop.
* An optional :class:`HeuristicMemo` caches whole evaluations keyed on
  the node's effective signature ``(ptr, pos after in-flight SWAPs,
  relative in-flight profile)`` — everything ``h`` can depend on once
  made relative to the node's cycle.  A memo instance is only sound for
  a fixed ``(window, swap_aware)`` configuration; the searches create
  one per run.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from .problem import MappingProblem
from .state import K_SWAP, SearchNode

#: Cap on the closed-form split memo; beyond this, entries are computed
#: but no longer stored (the keys are small ints in practice, so the cap
#: exists only as a safety valve against pathological latency models).
_SPLIT_LUT_MAX = 1 << 16
#: Packed-key bound: ``d`` and both slacks must fit 14 bits to use the
#: per-problem LUT; larger values (pathological latency models) fall
#: back to the closed form directly.
_SPLIT_KEY_BOUND = 1 << 14


def _swap_split_delay(d: int, slack1: int, slack2: int, swap_len: int) -> int:
    """Minimum extra delay of splitting ``d - 1`` SWAPs across two operands.

    Closed form for ``min_{0 <= r <= d-1} max(max(0, r·L − slack1),
    max(0, (d−1−r)·L − slack2))``: the first term is nondecreasing in
    ``r`` and the second nonincreasing, so the minimum sits at the
    crossing of their linear parts (or at a boundary of the zero-delay
    plateaus).  Evaluating the ≤6 candidate splits is O(1) regardless of
    the distance ``d``.
    """
    k = d - 1
    L = swap_len
    if L <= 0:
        return 0  # free SWAPs can never delay the gate
    # Feasible zero-delay split: r <= slack1 // L and k - r <= slack2 // L.
    if slack1 // L + slack2 // L >= k:
        return 0
    crossing = (k * L + slack1 - slack2) // (2 * L)
    best = None
    for r in (
        0,
        k,
        crossing,
        crossing + 1,
        slack1 // L,
        k - slack2 // L,
    ):
        if r < 0:
            r = 0
        elif r > k:
            r = k
        delay1 = r * L - slack1
        if delay1 < 0:
            delay1 = 0
        delay2 = (k - r) * L - slack2
        if delay2 < 0:
            delay2 = 0
        worse = delay1 if delay1 >= delay2 else delay2
        if best is None or worse < best:
            best = worse
    return best


def memo_key(node: SearchNode) -> Tuple:
    """The :class:`HeuristicMemo` key of ``node`` (cached on the node).

    The *effective signature*: per-qubit scheduling pointers, the
    mapping after in-flight SWAPs take effect, and the in-flight profile
    made relative to the node's cycle — everything ``h`` can depend on
    once made relative to ``node.time``.  Shared by the scalar
    :func:`heuristic_cost` path and the kernel backends' batch
    evaluation so both populate and hit the same memo table.
    """
    key = node._mkey
    if key is not None:
        return key
    eff_pos, _eff_inv = node.mapping_after_swaps()
    inflight = node.inflight
    if inflight:
        time = node.time
        key = (
            node.ptr,
            eff_pos,
            tuple((f - time, k, a, b) for f, k, a, b in inflight),
        )
    else:
        key = (node.ptr, eff_pos)
    node._mkey = key
    return key


class HeuristicMemo:
    """Whole-evaluation cache for :func:`heuristic_cost`.

    Keyed on the node's *effective signature*: per-qubit scheduling
    pointers, the mapping after in-flight SWAPs take effect, and the
    in-flight profile made relative to the node's cycle.  Two nodes with
    equal signatures are guaranteed the same ``h`` (the proof obligation
    is documented in DESIGN.md §Performance), even when their absolute
    cycles differ — which is exactly where the cache wins over the state
    filter's equivalence check.

    Soundness invariant: one memo instance must only ever be consulted
    with a fixed ``(window, swap_aware)`` configuration; the searches
    create one memo per run.

    Attributes:
        hits / misses: Lifetime counters; the searches report them as
            the ``memo_hits`` / ``memo_misses`` stats, which an
            instrumented run publishes as ``heuristic.memo_*`` metrics.
    """

    __slots__ = ("table", "hits", "misses")

    def __init__(self) -> None:
        self.table: Dict[Tuple, int] = {}
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self.table)


def count_evaluations(
    problem: MappingProblem,
    nodes: Sequence[SearchNode],
    window: Optional[int],
    metrics: MetricsRegistry,
) -> None:
    """Per-evaluation ``heuristic.*`` counters for ``nodes``.

    Each node stands for one scan the memo did not answer: it adds to
    ``heuristic.calls``, observes its pending-gate workload in
    ``heuristic.pending_gates`` and, for a windowed scan whose look-ahead
    was capped, adds to ``heuristic.window_truncated``.  The values come
    from the problem's cached row tables, so counting never rescans and
    every backend's batch scorer can count without running this module's
    scan.
    """
    calls = metrics.counter("heuristic.calls")
    pending = metrics.histogram("heuristic.pending_gates")
    if window is None:
        for node in nodes:
            calls.inc()
            pending.observe(problem.num_pending_gates(node.ptr))
        return
    for node in nodes:
        rows, truncated = problem.window_rows(window, node.ptr)
        if truncated:
            metrics.counter("heuristic.window_truncated").inc()
        calls.inc()
        pending.observe(len(rows))


def heuristic_cost(
    problem: MappingProblem,
    node: SearchNode,
    window: Optional[int] = None,
    swap_aware: bool = True,
    metrics: Optional[MetricsRegistry] = None,
    memo: Optional[HeuristicMemo] = None,
) -> int:
    """Lower bound on cycles from ``node`` to any terminal node.

    Args:
        problem: The preprocessed problem instance.
        node: The node to evaluate (its ``time`` is the reference point;
            the returned value is relative to it).
        window: If given, only the first ``window`` unstarted gates (in
            program order) are considered — the truncation the practical
            mapper (Section 6.2) uses to stay scalable.  ``None`` means the
            full remaining circuit, which is required for optimality.
        swap_aware: When False, the SWAP-distance term is skipped and the
            bound degrades to the remaining critical path — the uninformed
            lower bound the OLSQ-style baseline (and OLSQ's iterative
            deepening start point) uses.  Still admissible, just weaker.
        metrics: When given, counts calls and records the pending-gate
            workload per evaluation (``heuristic.calls`` /
            ``heuristic.pending_gates``); the searches time a whole
            scoring batch with the ``heuristic`` span.
        memo: Optional whole-evaluation cache (see :class:`HeuristicMemo`);
            must be dedicated to this ``(window, swap_aware)`` combination.

    Returns:
        ``h(v) >= 0``; zero iff the remaining circuit is empty.
    """
    time = node.time
    inflight = node.inflight
    ptr = node.ptr

    if memo is not None:
        key = memo_key(node)
        cached = memo.table.get(key)
        if cached is not None:
            memo.hits += 1
            return cached
        memo.misses += 1
    else:
        key = None
    if metrics is not None:
        count_evaluations(problem, (node,), window, metrics)

    if window is not None:
        h = _windowed_cost(problem, node, window, swap_aware)
        if memo is not None:
            memo.table[key] = h
        return h

    dist_flat = problem.dist_flat
    num_physical = problem.num_physical
    swap_len = problem.swap_len
    num_logical = problem.num_logical
    split_lut = problem.split_lut
    has_singles = problem.has_singles

    head = [0] * num_logical  # finish lower bound of latest chain element
    load = [0] * num_logical  # total remaining predecessor cycles (T)
    h = 0

    if inflight:
        inv_after = list(node.inv)
        gate_qubits = problem.gate_qubits
        for finish, kind, a, b in inflight:
            remaining = finish - time
            if remaining > h:
                h = remaining
            if kind == K_SWAP:
                l1, l2 = inv_after[a], inv_after[b]
                inv_after[a], inv_after[b] = l2, l1
                if l1 >= 0:
                    head[l1] = remaining
                    load[l1] = remaining
                if l2 >= 0:
                    head[l2] = remaining
                    load[l2] = remaining
            else:
                for logical in gate_qubits[a]:
                    head[logical] = remaining
                    load[logical] = remaining
        pos_after = node.mapping_after_swaps()[0]
    else:
        pos_after = node.pos

    # Pending two-qubit gate rows in program order, cached per ptr.  The
    # loop comes in specialized variants (singles folding and the
    # SWAP-distance term hoisted out) because this is the single hottest
    # loop of the optimal search.
    rows = problem.pending_rows(ptr)
    if not has_singles:
        if swap_aware:
            fast2 = swap_len > 0
            for l1, l2, length, _p1c, _p2c in rows:
                h1 = head[l1]
                h2 = head[l2]
                u = h1 if h1 >= h2 else h2
                p1 = pos_after[l1]
                p2 = pos_after[l2]
                if p1 >= 0 and p2 >= 0:
                    d = dist_flat[p1 * num_physical + p2]
                    if d > 1:
                        s1 = u - load[l1]
                        s2 = u - load[l2]
                        if d == 2 and fast2:
                            # One SWAP on either operand: the delay is
                            # swap_len minus the larger slack (clamped).
                            best = swap_len - (s1 if s1 >= s2 else s2)
                            if best > 0:
                                u += best
                        else:
                            if s1 < _SPLIT_KEY_BOUND and s2 < _SPLIT_KEY_BOUND:
                                lut_key = (d << 28) | (s1 << 14) | s2
                                best = split_lut.get(lut_key)
                                if best is None:
                                    best = _swap_split_delay(
                                        d, s1, s2, swap_len
                                    )
                                    if len(split_lut) < _SPLIT_LUT_MAX:
                                        split_lut[lut_key] = best
                            else:
                                best = _swap_split_delay(d, s1, s2, swap_len)
                            u += best
                end = u + length
                head[l1] = end
                head[l2] = end
                load[l1] += length
                load[l2] += length
                if end > h:
                    h = end
        else:
            for l1, l2, length, _p1c, _p2c in rows:
                h1 = head[l1]
                h2 = head[l2]
                end = (h1 if h1 >= h2 else h2) + length
                head[l1] = end
                head[l2] = end
                load[l1] += length
                load[l2] += length
                if end > h:
                    h = end
        if memo is not None:
            memo.table[key] = h
        return h

    single_prefix = problem.single_prefix
    chain_i = list(ptr)
    for l1, l2, length, p1c, p2c in rows:
        # Single-qubit runs between two-qubit gates on a chain fold
        # into one prefix-sum shift (they can never set the max).
        ci = chain_i[l1]
        if p1c > ci:
            prefix = single_prefix[l1]
            run = prefix[p1c] - prefix[ci]
            if run:
                head[l1] += run
                load[l1] += run
        chain_i[l1] = p1c + 1
        ci = chain_i[l2]
        if p2c > ci:
            prefix = single_prefix[l2]
            run = prefix[p2c] - prefix[ci]
            if run:
                head[l2] += run
                load[l2] += run
        chain_i[l2] = p2c + 1

        h1 = head[l1]
        h2 = head[l2]
        u = h1 if h1 >= h2 else h2
        if swap_aware:
            p1 = pos_after[l1]
            p2 = pos_after[l2]
            if p1 >= 0 and p2 >= 0:
                d = dist_flat[p1 * num_physical + p2]
                if d > 1:
                    s1 = u - load[l1]
                    s2 = u - load[l2]
                    if d == 2 and swap_len > 0:
                        best = swap_len - (s1 if s1 >= s2 else s2)
                        if best < 0:
                            best = 0
                    elif s1 < _SPLIT_KEY_BOUND and s2 < _SPLIT_KEY_BOUND:
                        lut_key = (d << 28) | (s1 << 14) | s2
                        best = split_lut.get(lut_key)
                        if best is None:
                            best = _swap_split_delay(d, s1, s2, swap_len)
                            if len(split_lut) < _SPLIT_LUT_MAX:
                                split_lut[lut_key] = best
                    else:
                        best = _swap_split_delay(d, s1, s2, swap_len)
                    u += best
        end = u + length
        head[l1] = end
        head[l2] = end
        load[l1] += length
        load[l2] += length
        if end > h:
            h = end

    # Trailing single-qubit runs: everything left on a chain is
    # singles, and only the run's final finish time can matter.
    seq = problem.seq
    for logical in range(num_logical):
        ci = chain_i[logical]
        prefix = single_prefix[logical]
        tail = prefix[len(seq[logical])] - prefix[ci]
        if tail:
            end = head[logical] + tail
            if end > h:
                h = end

    if memo is not None:
        memo.table[key] = h
    return h


def _windowed_cost(
    problem: MappingProblem,
    node: SearchNode,
    window: int,
    swap_aware: bool,
) -> int:
    """Truncated-lookahead cost (practical mapper, Section 6.2).

    Only the first ``window`` unstarted gates per qubit chain are
    considered, and the merged pending list is additionally capped at
    ``4 * window`` gates *in program order* (the cap is deterministic:
    the pending list is sorted by gate index — program order — before
    truncation, so the surviving gates are always the earliest ones).

    Admissibility caveat: dropping gates can only lower the bound, so the
    truncated ``h`` remains a valid lower bound on the true remaining
    depth — but it is *not* the full-circuit heuristic, and two nodes may
    compare differently under truncation than they would under the exact
    bound.  The optimal search therefore never uses a window; the
    practical mapper accepts the quality loss for scalability.  Cap
    events are counted in the ``heuristic.window_truncated`` metric (once
    per evaluation) so a run can tell how often its lookahead was clipped.

    The truncated gate list depends only on ``(window, ptr)`` and comes
    from the per-problem :meth:`~repro.core.problem.MappingProblem
    .window_rows` cache; the compiled backend runs the same scan in C
    over the same rows.
    """
    gate_qubits = problem.gate_qubits
    dist_flat = problem.dist_flat
    num_physical = problem.num_physical
    swap_len = problem.swap_len
    num_logical = problem.num_logical
    time = node.time

    head = [0] * num_logical
    load = [0] * num_logical
    h = 0

    if node.inflight:
        inv_after = list(node.inv)
        for finish, kind, a, b in node.inflight:
            remaining = finish - time
            if remaining > h:
                h = remaining
            if kind == K_SWAP:
                l1, l2 = inv_after[a], inv_after[b]
                inv_after[a], inv_after[b] = l2, l1
                if l1 >= 0:
                    head[l1] = remaining
                    load[l1] = remaining
                if l2 >= 0:
                    head[l2] = remaining
                    load[l2] = remaining
            else:
                for logical in gate_qubits[a]:
                    head[logical] = remaining
                    load[logical] = remaining
        pos_after = node.mapping_after_swaps()[0]
    else:
        pos_after = node.pos

    rows = problem.window_rows(window, node.ptr)[0]

    split_lut = problem.split_lut
    for l1, l2, length in rows:
        if l2 < 0:
            end = head[l1] + length
            head[l1] = end
            load[l1] += length
        else:
            h1 = head[l1]
            h2 = head[l2]
            u = h1 if h1 >= h2 else h2
            p1 = pos_after[l1]
            p2 = pos_after[l2]
            # Unplaced qubits / uninformed mode: optimistic distance 1.
            if swap_aware and p1 >= 0 and p2 >= 0:
                d = dist_flat[p1 * num_physical + p2]
                if d > 1:
                    s1 = u - load[l1]
                    s2 = u - load[l2]
                    if d == 2 and swap_len > 0:
                        best = swap_len - (s1 if s1 >= s2 else s2)
                        if best < 0:
                            best = 0
                    elif s1 < _SPLIT_KEY_BOUND and s2 < _SPLIT_KEY_BOUND:
                        lut_key = (d << 28) | (s1 << 14) | s2
                        best = split_lut.get(lut_key)
                        if best is None:
                            best = _swap_split_delay(d, s1, s2, swap_len)
                            if len(split_lut) < _SPLIT_LUT_MAX:
                                split_lut[lut_key] = best
                    else:
                        best = _swap_split_delay(d, s1, s2, swap_len)
                    u += best
            end = u + length
            head[l1] = end
            head[l2] = end
            load[l1] += length
            load[l2] += length
        if end > h:
            h = end

    return h


def _heuristic_cost_reference(
    problem: MappingProblem,
    node: SearchNode,
    window: Optional[int] = None,
    swap_aware: bool = True,
) -> int:
    """The pre-overhaul formulation of :func:`heuristic_cost`.

    Kept verbatim (set-based pending enumeration, brute-force SWAP-split
    loop) as the semantics oracle: property tests assert the optimized
    path returns exactly this value on randomized circuits and
    architectures, and the regression suite re-runs the ablation circuits
    against it to pin node counts bit-for-bit.
    """
    gate_qubits = problem.gate_qubits
    gate_latency = problem.gate_latency
    dist = problem.dist
    swap_len = problem.swap_len
    num_logical = problem.num_logical
    time = node.time

    head = [0] * num_logical
    load = [0] * num_logical
    pos_after = list(node.pos)
    inv_after = list(node.inv)
    h = 0

    for finish, kind, a, b in node.inflight:
        remaining = finish - time
        if remaining > h:
            h = remaining
        if kind == K_SWAP:
            l1, l2 = inv_after[a], inv_after[b]
            inv_after[a], inv_after[b] = l2, l1
            if l1 >= 0:
                pos_after[l1] = b
                head[l1] = remaining
                load[l1] = remaining
            if l2 >= 0:
                pos_after[l2] = a
                head[l2] = remaining
                load[l2] = remaining
        else:
            for logical in gate_qubits[a]:
                head[logical] = remaining
                load[logical] = remaining

    ptr = node.ptr
    seq = problem.seq
    if window is None:
        pending = sorted(
            {
                gate
                for logical in range(num_logical)
                for gate in seq[logical][ptr[logical]:]
            }
        )
    else:
        selected = set()
        for logical in range(num_logical):
            selected.update(seq[logical][ptr[logical]: ptr[logical] + window])
        pending = sorted(selected)
        if len(pending) > 4 * window:
            pending = pending[: 4 * window]

    for gate in pending:
        qubits = gate_qubits[gate]
        length = gate_latency[gate]
        if len(qubits) == 1:
            (l1,) = qubits
            end = head[l1] + length
            head[l1] = end
            load[l1] += length
        else:
            l1, l2 = qubits
            u = head[l1] if head[l1] >= head[l2] else head[l2]
            p1, p2 = pos_after[l1], pos_after[l2]
            if swap_aware and p1 >= 0 and p2 >= 0:
                d = dist[p1][p2]
            else:
                d = 1
            if d > 1:
                slack1 = u - load[l1]
                slack2 = u - load[l2]
                best = None
                for r in range(d):
                    delay1 = r * swap_len - slack1
                    if delay1 < 0:
                        delay1 = 0
                    delay2 = (d - 1 - r) * swap_len - slack2
                    if delay2 < 0:
                        delay2 = 0
                    worse = delay1 if delay1 >= delay2 else delay2
                    if best is None or worse < best:
                        best = worse
                u += best
            end = u + length
            head[l1] = end
            head[l2] = end
            load[l1] += length
            load[l2] += length
        if end > h:
            h = end

    return h
