"""The ``vector`` backend: numpy batch evaluation of the heuristic.

Scores a whole expansion fan-out in one shot: nodes are grouped by
``ptr`` (same pending-gate rows), the per-qubit ``head``/``load``
recurrences run as ``(batch, num_logical)`` int64 arrays, and the
SWAP-split minimization is evaluated in closed form over the same ≤6
candidate splits the scalar code uses — all in integer arithmetic, so
values are bit-identical to the pure path (numpy ``//`` floors exactly
like python's).

Batching only pays when the fan-out amortizes array setup: batches (or
ptr groups) smaller than the thresholds below fall back to the pure
per-node path, as do windowed evaluations (the practical mapper scores
at most ``4 * window`` cached rows per node, too few to amortize arrays).
"""

from __future__ import annotations

from typing import List, Optional

from ..heuristic import heuristic_cost
from ..problem import MappingProblem
from ..state import K_SWAP, SearchNode
from .api import KernelBackend

#: Below these sizes the numpy path costs more than it saves (typical
#: exact-search fan-outs admit only a handful of children).
_MIN_BATCH = 8
_MIN_GROUP = 4


def _split_delay_vec(np, d, s1, s2, swap_len):
    """Vectorized :func:`~repro.core.heuristic._swap_split_delay`.

    ``d <= 1`` rows (including unplaced operands mapped to ``d = 1``)
    land on the zero-delay plateau: slacks are non-negative by the
    head/load invariant, so ``s1//L + s2//L >= k`` holds for ``k <= 0``.
    """
    k = d - 1
    q1 = s1 // swap_len
    q2 = s2 // swap_len
    plateau = (q1 + q2) >= k
    crossing = (k * swap_len + s1 - s2) // (2 * swap_len)
    cands = np.stack((np.zeros_like(k), k, crossing, crossing + 1, q1, k - q2))
    cands = np.clip(cands, 0, np.maximum(k, 0))
    delay1 = np.maximum(cands * swap_len - s1, 0)
    delay2 = np.maximum((k - cands) * swap_len - s2, 0)
    best = np.maximum(delay1, delay2).min(axis=0)
    return np.where(plateau, 0, best)


class VectorBackend(KernelBackend):
    name = "vector"

    def __init__(self) -> None:
        import numpy

        self._np = numpy

    def _dist_array(self, problem: MappingProblem):
        dist = getattr(problem, "_np_dist", None)
        if dist is None:
            dist = self._np.asarray(problem.dist_flat, dtype=self._np.int64)
            problem._np_dist = dist
        return dist

    def _eval_nodes(
        self,
        problem: MappingProblem,
        nodes: List[SearchNode],
        window: Optional[int],
        swap_aware: bool,
    ) -> List[int]:
        if window is not None or len(nodes) < _MIN_BATCH:
            return super()._eval_nodes(problem, nodes, window, swap_aware)
        groups = {}
        for index, node in enumerate(nodes):
            groups.setdefault(node.ptr, []).append(index)
        out: List[int] = [0] * len(nodes)
        for ptr, indices in groups.items():
            rows = problem.pending_rows(ptr)
            if len(indices) < _MIN_GROUP or not rows:
                for i in indices:
                    out[i] = heuristic_cost(
                        problem, nodes[i], swap_aware=swap_aware
                    )
                continue
            values = self._eval_group(
                problem, [nodes[i] for i in indices], rows, swap_aware
            )
            for i, value in zip(indices, values):
                out[i] = value
        return out

    def _eval_group(self, problem, nodes, rows, swap_aware):
        np = self._np
        batch = len(nodes)
        num_logical = problem.num_logical
        head = np.zeros((batch, num_logical), dtype=np.int64)
        load = np.zeros((batch, num_logical), dtype=np.int64)
        h = np.zeros(batch, dtype=np.int64)
        posm = np.empty((batch, num_logical), dtype=np.int64)
        gate_qubits = problem.gate_qubits

        # Per-node in-flight prologue: tiny tuples, scalar python wins.
        for bi, node in enumerate(nodes):
            time = node.time
            inflight = node.inflight
            if inflight:
                hrow = head[bi]
                lrow = load[bi]
                inv_after = list(node.inv)
                best = 0
                for finish, kind, a, b in inflight:
                    remaining = finish - time
                    if remaining > best:
                        best = remaining
                    if kind == K_SWAP:
                        l1, l2 = inv_after[a], inv_after[b]
                        inv_after[a], inv_after[b] = l2, l1
                        if l1 >= 0:
                            hrow[l1] = remaining
                            lrow[l1] = remaining
                        if l2 >= 0:
                            hrow[l2] = remaining
                            lrow[l2] = remaining
                    else:
                        for logical in gate_qubits[a]:
                            hrow[logical] = remaining
                            lrow[logical] = remaining
                h[bi] = best
                posm[bi] = node.mapping_after_swaps()[0]
            else:
                posm[bi] = node.pos

        dist = self._dist_array(problem)
        num_physical = problem.num_physical
        swap_len = problem.swap_len
        use_swap = swap_aware and swap_len > 0
        has_singles = problem.has_singles
        single_prefix = problem.single_prefix
        chain_i = list(nodes[0].ptr) if has_singles else None

        for l1, l2, length, p1c, p2c in rows:
            if has_singles:
                # ptr is group-shared, so the singles-fold runs are
                # scalars applied to whole columns.
                ci = chain_i[l1]
                if p1c > ci:
                    prefix = single_prefix[l1]
                    run = prefix[p1c] - prefix[ci]
                    if run:
                        head[:, l1] += run
                        load[:, l1] += run
                chain_i[l1] = p1c + 1
                ci = chain_i[l2]
                if p2c > ci:
                    prefix = single_prefix[l2]
                    run = prefix[p2c] - prefix[ci]
                    if run:
                        head[:, l2] += run
                        load[:, l2] += run
                chain_i[l2] = p2c + 1
            u = np.maximum(head[:, l1], head[:, l2])
            if use_swap:
                p1 = posm[:, l1]
                p2 = posm[:, l2]
                valid = (p1 >= 0) & (p2 >= 0)
                index = np.where(valid, p1 * num_physical + p2, 0)
                d = np.where(valid, dist[index], 1)
                u = u + _split_delay_vec(
                    np, d, u - load[:, l1], u - load[:, l2], swap_len
                )
            end = u + length
            head[:, l1] = end
            head[:, l2] = end
            load[:, l1] += length
            load[:, l2] += length
            np.maximum(h, end, out=h)

        if has_singles:
            seq = problem.seq
            for logical in range(num_logical):
                prefix = single_prefix[logical]
                tail = prefix[len(seq[logical])] - prefix[chain_i[logical]]
                if tail:
                    np.maximum(h, head[:, logical] + tail, out=h)
        return [int(value) for value in h]
