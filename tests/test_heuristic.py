"""Unit tests for the admissible heuristic h(v), including the paper's
worked example (Fig. 8) and the meet-in-the-middle fallacy (Fig. 9)."""

import pytest

from repro.arch import lnn
from repro.circuit import Circuit, uniform_latency
from repro.core.heuristic import heuristic_cost
from repro.core.problem import MappingProblem
from repro.core.state import K_GATE, K_SWAP, SearchNode


def make_node(problem, time=0, mapping=None, ptr=None, inflight=(), started=0):
    """Build a SearchNode directly for white-box heuristic tests."""
    if mapping is None:
        mapping = tuple(range(problem.num_logical))
    inv = [-1] * problem.num_physical
    for logical, physical in enumerate(mapping):
        inv[physical] = logical
    return SearchNode(
        time=time,
        pos=tuple(mapping),
        inv=tuple(inv),
        ptr=tuple(ptr if ptr is not None else [0] * problem.num_logical),
        started=started,
        inflight=tuple(inflight),
        last_swaps=frozenset(),
        prev_startable=frozenset(),
        parent=None,
        actions=(),
    )


class TestBasics:
    def test_empty_circuit_zero(self):
        problem = MappingProblem(Circuit(2), lnn(2))
        assert heuristic_cost(problem, make_node(problem)) == 0

    def test_single_adjacent_gate(self):
        problem = MappingProblem(Circuit(2).cx(0, 1), lnn(2))
        assert heuristic_cost(problem, make_node(problem)) == 1

    def test_serial_chain_equals_critical_path(self):
        circuit = Circuit(3).cx(0, 1).cx(1, 2).cx(0, 1)
        problem = MappingProblem(circuit, lnn(3))
        assert heuristic_cost(problem, make_node(problem)) == 3

    def test_distance_forces_swap_lower_bound(self):
        # cx(q0, q2) on lnn-3 with unit swap: at least 1 swap + 1 gate.
        problem = MappingProblem(
            Circuit(3).cx(0, 2), lnn(3), uniform_latency(1, 3)
        )
        assert heuristic_cost(problem, make_node(problem)) == 4

    def test_inflight_gate_contributes_remaining_time(self):
        circuit = Circuit(2).cx(0, 1)
        problem = MappingProblem(circuit, lnn(2), uniform_latency(2, 3))
        node = make_node(
            problem,
            time=1,
            ptr=[1, 1],
            started=1,
            inflight=((2, K_GATE, 0, 0),),  # finishes at cycle 2
        )
        assert heuristic_cost(problem, node) == 1

    def test_inflight_swap_effect_applied_to_mapping(self):
        # cx(q0, q2) on lnn-3; a swap Q1<->Q2 is in flight, so q2 will be
        # adjacent to q0 once it lands: h = remaining-swap + gate.
        circuit = Circuit(3).cx(0, 2)
        problem = MappingProblem(circuit, lnn(3), uniform_latency(1, 3))
        node = make_node(
            problem, time=2, inflight=((3, K_SWAP, 1, 2),)
        )
        assert heuristic_cost(problem, node) == 2

    def test_uninformed_mode_ignores_distance(self):
        problem = MappingProblem(
            Circuit(3).cx(0, 2), lnn(3), uniform_latency(1, 3)
        )
        node = make_node(problem)
        assert heuristic_cost(problem, node, swap_aware=False) == 1

    def test_window_truncation_is_lower_bound(self):
        circuit = Circuit(3)
        for _ in range(20):
            circuit.cx(0, 1)
        problem = MappingProblem(circuit, lnn(3))
        node = make_node(problem)
        full = heuristic_cost(problem, node)
        windowed = heuristic_cost(problem, node, window=3)
        assert windowed <= full
        assert windowed >= 3


class TestFig8Example:
    """The cost-calculation walkthrough of Fig. 8 (search node F).

    Circuit (1-indexed in the paper, 0-indexed here): g1, g2 single-qubit
    on q1; g3, g4 single-qubit on q2; g5 = GT(q2, q5); g6 = GT(q1, q2).
    Gates take 1 cycle, SWAPs 3.  At node F (cycle 1) g1 has completed and
    SWAP(Q4, Q5) is in flight with 2 cycles left.  The paper derives
    t_min(g5) = 5, t_min(g6) = 6, so h = 7 and f = 1 + 7 = 8.
    """

    def build(self):
        circuit = Circuit(5)
        circuit.h(0)          # g1 on q1
        circuit.h(0)          # g2 on q1
        circuit.h(1)          # g3 on q2
        circuit.h(1)          # g4 on q2
        circuit.gt(1, 4)      # g5 = GT(q2, q5)
        circuit.gt(0, 1)      # g6 = GT(q1, q2)
        return MappingProblem(circuit, lnn(5), uniform_latency(1, 3))

    def test_node_f_cost_is_8(self):
        problem = self.build()
        node_f = make_node(
            problem,
            time=1,
            ptr=[1, 0, 0, 0, 0],      # g1 scheduled
            started=1,
            inflight=((3, K_SWAP, 3, 4),),  # SWAP(Q4, Q5), 2 cycles left
        )
        h = heuristic_cost(problem, node_f)
        assert h == 7
        assert node_f.time + h == 8


class TestFig9Fallacy:
    """Uneven SWAP splits can beat meeting in the middle (Fig. 9).

    Two qubits at distance 5 (4 SWAPs needed, 2 cycles each); the first
    operand's chain holds 3 one-cycle gates, the second none.  Meeting in
    the middle (2+2) delays the gate by 4 extra cycles; the optimal split
    (1 on the busy qubit, 3 on the idle one) delays it by only 3.
    """

    def build(self):
        circuit = Circuit(6)
        circuit.h(0).h(0).h(0)   # 3-gate chain on the first operand
        circuit.gt(0, 5)         # the distant gate
        return MappingProblem(circuit, lnn(6), uniform_latency(1, 2))

    def test_heuristic_uses_best_split(self):
        problem = self.build()
        h = heuristic_cost(problem, make_node(problem))
        # u = 3 (the chain), best split r=1/s=3: delay 3; gate takes 1.
        assert h == 3 + 3 + 1

    def test_middle_split_would_be_worse(self):
        # The even split r=s=2 yields delay max(4-0, 4-3) = 4 > 3,
        # so if the heuristic naively met in the middle it would return 8.
        problem = self.build()
        assert heuristic_cost(problem, make_node(problem)) < 8


class TestAdmissibility:
    """h at the root never exceeds the true optimal depth (Lemma A.1)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_root_h_below_optimal_depth(self, seed):
        from repro.circuit.generators import random_circuit
        from repro.core import OptimalMapper

        circuit = random_circuit(4, 8, two_qubit_fraction=0.7, seed=seed)
        arch = lnn(4)
        latency = uniform_latency(1, 3)
        problem = MappingProblem(circuit, arch, latency)
        h_root = heuristic_cost(problem, make_node(problem))
        optimal = OptimalMapper(arch, latency).map(
            circuit, initial_mapping=[0, 1, 2, 3]
        )
        assert h_root <= optimal.depth


class TestOptimizedMatchesReference:
    """The overhauled heuristic is observably identical to the original.

    ``_heuristic_cost_reference`` is the pre-overhaul formulation kept
    verbatim as the semantics oracle.  Rather than fabricating node
    states (easy to get inconsistent), these tests intercept every
    heuristic evaluation of real searches — which exercises inflight
    profiles, partial pointers and mode-2 prefix nodes the way the
    search actually produces them — and compare both implementations.
    """

    def _check_search(self, monkeypatch, circuit, arch, latency,
                      swap_aware=True, max_nodes=1500):
        from repro.core import OptimalMapper, SearchBudgetExceeded
        from repro.core.heuristic import _heuristic_cost_reference
        from repro.core.kernels import api as api_mod

        checked = [0]

        def checking(problem, node, window=None, swap_aware=True,
                     metrics=None, memo=None):
            got = heuristic_cost(
                problem, node, window=window, swap_aware=swap_aware
            )
            want = _heuristic_cost_reference(
                problem, node, window=window, swap_aware=swap_aware
            )
            assert got == want, (
                f"optimized h={got} != reference h={want} at "
                f"time={node.time} ptr={node.ptr} inflight={node.inflight}"
            )
            checked[0] += 1
            return got

        # The search scores nodes through the kernel backend seam; pin
        # the pure backend so every memo-miss evaluation runs the python
        # heuristic under test (the compiled backend has its own parity
        # suite in test_kernels.py).
        monkeypatch.setattr(api_mod, "heuristic_cost", checking)
        mapper = OptimalMapper(
            arch, latency, informed=swap_aware, max_nodes=max_nodes,
            kernel="pure",
        )
        try:
            mapper.map(
                circuit, initial_mapping=list(range(arch.num_qubits))
            )
        except SearchBudgetExceeded:
            pass
        assert checked[0] > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits_on_lnn(self, seed, monkeypatch):
        from repro.circuit.generators import random_circuit

        circuit = random_circuit(5, 10, two_qubit_fraction=0.8, seed=seed)
        self._check_search(
            monkeypatch, circuit, lnn(5), uniform_latency(1, 3)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_on_grid(self, seed, monkeypatch):
        from repro.arch import grid
        from repro.circuit.generators import random_circuit

        circuit = random_circuit(6, 9, two_qubit_fraction=0.7, seed=seed)
        self._check_search(
            monkeypatch, circuit, grid(2, 3), uniform_latency(1, 2)
        )

    def test_qft_uninformed_mode(self, monkeypatch):
        from repro.circuit.generators import qft_skeleton

        self._check_search(
            monkeypatch, qft_skeleton(4), lnn(4), uniform_latency(1, 3),
            swap_aware=False,
        )

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_windowed_practical_search(self, window, monkeypatch):
        """The practical mapper's truncated heuristic matches too."""
        from repro.circuit.generators import qft_skeleton
        from repro.core import HeuristicMapper
        from repro.core import heuristic_mapper as hm_mod
        from repro.core.heuristic import _heuristic_cost_reference

        checked = [0]

        def checking(problem, node, window=None, swap_aware=True,
                     metrics=None, memo=None):
            got = heuristic_cost(
                problem, node, window=window, swap_aware=swap_aware
            )
            want = _heuristic_cost_reference(
                problem, node, window=window, swap_aware=swap_aware
            )
            assert got == want
            checked[0] += 1
            return got

        monkeypatch.setattr(hm_mod, "heuristic_cost", checking)
        mapper = HeuristicMapper(
            lnn(5), uniform_latency(1, 3), window=window
        )
        mapper.map(qft_skeleton(5), initial_mapping=list(range(5)))
        assert checked[0] > 0


class TestMemoizationTransparency:
    """The memo may only change speed, never the search trajectory."""

    CASES = [
        ("qft5", 5, (1, 3)),
        ("qft4", 4, (1, 3)),
        ("rand5", 5, (1, 1)),
    ]

    @pytest.mark.parametrize("name,n,lat", CASES)
    def test_exact_search_identical_counts(self, name, n, lat):
        from repro.circuit.generators import qft_skeleton, random_circuit
        from repro.core import OptimalMapper

        if name.startswith("qft"):
            circuit = qft_skeleton(n)
        else:
            circuit = random_circuit(n, 10, two_qubit_fraction=0.8, seed=12)
        runs = {}
        for memoize in (True, False):
            mapper = OptimalMapper(
                lnn(n), uniform_latency(*lat), memoize=memoize
            )
            result = mapper.map(circuit, initial_mapping=list(range(n)))
            runs[memoize] = (
                result.depth,
                result.stats["nodes_expanded"],
                result.stats["nodes_generated"],
            )
        assert runs[True] == runs[False]

    def test_practical_search_identical_counts(self):
        from repro.circuit.generators import qft_skeleton
        from repro.core import HeuristicMapper

        runs = {}
        for memoize in (True, False):
            mapper = HeuristicMapper(
                lnn(6), uniform_latency(1, 3), memoize=memoize
            )
            result = mapper.map(
                qft_skeleton(6), initial_mapping=list(range(6))
            )
            runs[memoize] = (
                result.depth, result.stats["nodes_expanded"]
            )
        assert runs[True] == runs[False]

    def test_memo_counters_populate(self):
        from repro.circuit.generators import qft_skeleton
        from repro.core import OptimalMapper

        result = OptimalMapper(lnn(5), uniform_latency(1, 3)).map(
            qft_skeleton(5), initial_mapping=list(range(5))
        )
        assert result.stats["memo_hits"] > 0
        assert result.stats["memo_misses"] > 0


class TestAblationPinsAgainstReference:
    """Depth and nodes_expanded are bit-identical to a search driven by
    the kept pre-overhaul heuristic (the PR's semantics-preservation
    acceptance gate, run over the ablation benchmark circuits)."""

    def _counts(self, circuit, arch, latency, monkeypatch=None,
                use_reference=False):
        from repro.core import OptimalMapper
        from repro.core.heuristic import _heuristic_cost_reference
        from repro.core.kernels import api as api_mod

        if use_reference:
            def reference_only(problem, node, window=None, swap_aware=True,
                               metrics=None, memo=None):
                return _heuristic_cost_reference(
                    problem, node, window=window, swap_aware=swap_aware
                )

            # Drive the whole search with the reference heuristic via
            # the kernel-backend seam (pure backend evaluates through
            # ``api_mod.heuristic_cost`` node by node).
            monkeypatch.setattr(api_mod, "heuristic_cost", reference_only)
        mapper = OptimalMapper(
            arch, latency, kernel="pure" if use_reference else None
        )
        result = mapper.map(
            circuit, initial_mapping=list(range(arch.num_qubits))
        )
        return result.depth, result.stats["nodes_expanded"]

    def _ablation_set(self):
        from repro.circuit.generators import qft_skeleton, random_circuit

        return [
            ("qft5-u11", qft_skeleton(5), lnn(5), uniform_latency(1, 1)),
            ("qft5-u13", qft_skeleton(5), lnn(5), uniform_latency(1, 3)),
            (
                "rand5-s12",
                random_circuit(5, 10, two_qubit_fraction=0.8, seed=12),
                lnn(5),
                uniform_latency(1, 3),
            ),
            ("qft4-u13", qft_skeleton(4), lnn(4), uniform_latency(1, 3)),
        ]

    def test_counts_match_reference_driven_search(self, monkeypatch):
        for name, circuit, arch, latency in self._ablation_set():
            want = self._counts(
                circuit, arch, latency,
                monkeypatch=monkeypatch, use_reference=True,
            )
            monkeypatch.undo()
            got = self._counts(circuit, arch, latency)
            assert got == want, f"{name}: {got} != reference-driven {want}"


class TestWindowTruncationMetric:
    def test_truncation_counted_and_deterministic(self):
        from repro.obs import MetricsRegistry

        # Five disjoint pending gates, window=1: the cap is 4*window=4,
        # so one truncation event must be counted and the kept prefix is
        # the program-order head (deterministic, not set-order).
        circuit = Circuit(10)
        for a in range(0, 10, 2):
            circuit.cx(a, a + 1)
        problem = MappingProblem(
            circuit, lnn(10), uniform_latency(1, 3)
        )
        metrics = MetricsRegistry()
        node = make_node(problem)
        h = heuristic_cost(problem, node, window=1, metrics=metrics)
        assert metrics.counter("heuristic.window_truncated").value == 1
        # Still a valid lower bound relative to the untruncated value.
        assert 0 < h <= heuristic_cost(problem, node)
        # The window rows are cached per (window, ptr); the count is
        # per evaluation all the same.
        assert heuristic_cost(problem, node, window=1, metrics=metrics) == h
        assert metrics.counter("heuristic.window_truncated").value == 2

    def test_instrumented_run_count_pinned(self):
        # The totals the uncached scorer gives on this run: caching the
        # window rows must not change how often truncation is counted.
        from repro.arch.library import by_name
        from repro.benchcircuits import large_circuit
        from repro.circuit.latency import TABLE1_LATENCY
        from repro.core import HeuristicMapper
        from repro.obs import Telemetry

        telemetry = Telemetry()
        HeuristicMapper(
            by_name("tokyo"), TABLE1_LATENCY, telemetry=telemetry
        ).map(large_circuit("cm82a_208", scale_gate_cap=80))
        metrics = telemetry.metrics
        assert metrics.counter("heuristic.window_truncated").value == 2615
        assert metrics.counter("heuristic.calls").value == 7291
