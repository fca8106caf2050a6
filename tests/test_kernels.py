"""Kernel backend registry + cross-backend bit-identity properties.

The backends (``pure`` / ``compiled``) promise *identical*
search behaviour — same schedules, same node counts, same prune
counters — differing only in speed.  These tests pin that contract with
hypothesis over random circuits, for every backend that constructs on
this interpreter (the CI matrix runs the suite with and without the C
extension built).
"""

import copy
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.arch import grid, lnn
from repro.arch.library import by_name
from repro.benchcircuits import large_circuit
from repro.circuit import Circuit, uniform_latency
from repro.circuit.latency import TABLE1_LATENCY
from repro.core import HeuristicMapper, OptimalMapper
from repro.core.expander import (
    OPTIMAL_EXPANSION,
    PRUNED_OPTIMAL_EXPANSION,
    _blocked_frontier_pairs,
    startable_actions,
)
from repro.core.expander import expand as reference_expand
from repro.core.heuristic import (
    HeuristicMemo,
    _heuristic_cost_reference,
    heuristic_cost,
)
from repro.core.kernels import (
    BACKEND_NAMES,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.core.kernels.api import KernelBackend
from repro.core.problem import MappingProblem
from repro.core.state import K_SWAP, SearchNode
from repro.obs.schema import STAT_KERNEL_BACKEND

from .test_heuristic import make_node

BACKENDS = available_backends()

#: Counters that must match bit-for-bit across backends.  ``depth`` is
#: the result itself; the rest prove the backends walked the same tree
#: in the same order (generation order feeds the heap tie-break).
PARITY_KEYS = (
    "nodes_expanded",
    "nodes_generated",
    "filtered_equivalent",
    "filtered_dominated",
    "killed",
    "pruned_by_bound",
    "swaps_restricted",
    "memo_hits",
    "memo_misses",
)


def _parity_signature(result):
    stats = result.stats
    return (result.depth, result.initial_mapping) + tuple(
        stats.get(key) for key in PARITY_KEYS
    )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def circuits(draw, min_qubits=2, max_qubits=4, max_gates=8):
    n = draw(st.integers(min_qubits, max_qubits))
    circuit = Circuit(n)
    for _ in range(draw(st.integers(1, max_gates))):
        if n >= 2 and draw(st.booleans()):
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            if b >= a:
                b += 1
            circuit.cx(a, b)
        else:
            circuit.h(draw(st.integers(0, n - 1)))
    return circuit


@st.composite
def latencies(draw):
    return uniform_latency(draw(st.integers(1, 2)), draw(st.integers(1, 4)))


# ---------------------------------------------------------------------------
# Registry / capability probe
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_pure_always_available(self):
        assert "pure" in BACKENDS

    def test_available_is_subset_of_names(self):
        assert set(BACKENDS) <= set(BACKEND_NAMES)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            resolve_backend("nope")

    def test_retired_vector_backend_fails_loudly(self, monkeypatch):
        # Scripts that still pin the removed numpy backend must get an
        # error naming the valid backends, never a silent fallback.
        with pytest.raises(ValueError, match="pure, compiled"):
            resolve_backend("vector")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "vector")
        with pytest.raises(ValueError, match="pure, compiled"):
            resolve_backend(None)

    def test_instances_are_cached(self):
        assert get_backend("pure") is get_backend("pure")

    def test_instance_passthrough(self):
        backend = get_backend("pure")
        assert resolve_backend(backend) is backend

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "pure")
        assert resolve_backend(None).name == "pure"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "definitely-not-real")
        assert resolve_backend("pure").name == "pure"

    def test_probe_prefers_fastest_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        resolved = resolve_backend(None).name
        # The probe must pick the first *available* name in fastest-first
        # order, never something that failed to construct.
        for candidate in ("compiled", "pure"):
            if candidate in BACKENDS:
                assert resolved == candidate
                break

    def test_every_backend_is_kernel_backend(self):
        for name in BACKENDS:
            assert isinstance(get_backend(name), KernelBackend)


# ---------------------------------------------------------------------------
# Whole-search parity: every backend walks the identical tree
# ---------------------------------------------------------------------------


@pytest.mark.skipif(len(BACKENDS) < 2, reason="only one backend built")
class TestSearchParity:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(), latency=latencies(), data=st.data())
    def test_mode1_identical(self, circuit, latency, data):
        arch = lnn(circuit.num_qubits)
        signatures = {
            name: _parity_signature(
                OptimalMapper(arch, latency, kernel=name).map(circuit)
            )
            for name in BACKENDS
        }
        reference = signatures["pure"]
        assert all(sig == reference for sig in signatures.values()), signatures

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(max_qubits=4, max_gates=6), latency=latencies())
    def test_mode2_identical(self, circuit, latency):
        arch = lnn(circuit.num_qubits)
        signatures = {
            name: _parity_signature(
                OptimalMapper(
                    arch,
                    latency,
                    search_initial_mapping=True,
                    kernel=name,
                ).map(circuit)
            )
            for name in BACKENDS
        }
        reference = signatures["pure"]
        assert all(sig == reference for sig in signatures.values()), signatures

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(max_qubits=5, max_gates=10), latency=latencies())
    def test_heuristic_mapper_identical(self, circuit, latency):
        arch = grid(2, 3)
        signatures = {
            name: _parity_signature(
                HeuristicMapper(arch, latency, kernel=name).map(circuit)
            )
            for name in BACKENDS
        }
        reference = signatures["pure"]
        assert all(sig == reference for sig in signatures.values()), signatures

    def test_table3_heuristic_run_identical(self):
        # One whole section 6.2 run on Tokyo: the windowed scorer of
        # every backend must walk the same tree, queue trims included.
        circuit = large_circuit("cm82a_208", scale_gate_cap=80)
        signatures = {}
        for name in BACKENDS:
            result = HeuristicMapper(
                by_name("tokyo"), TABLE1_LATENCY, kernel=name
            ).map(circuit)
            signatures[name] = _parity_signature(result) + (
                result.stats["queue_trims"],
            )
        assert signatures["pure"][-1] > 0  # the trim path was exercised
        reference = signatures["pure"]
        assert all(sig == reference for sig in signatures.values()), signatures

    def test_ablations_survive_backends(self):
        # Pruning toggles route through the same kernel seam; a backend
        # must not silently re-enable what the config switched off.
        circuit = Circuit(4).cx(0, 3).cx(1, 2).cx(0, 2)
        arch = lnn(4)
        for kwargs in (
            {"prune_swaps": False},
            {"dominance": False},
            {"memoize": False},
            {"reduce_symmetry": False, "search_initial_mapping": True},
        ):
            signatures = [
                _parity_signature(
                    OptimalMapper(
                        arch, uniform_latency(1, 3), kernel=name, **kwargs
                    ).map(circuit)
                )
                for name in BACKENDS
            ]
            assert len(set(signatures)) == 1, (kwargs, signatures)


# ---------------------------------------------------------------------------
# heuristic_batch: windowed truncation + memo transparency
# ---------------------------------------------------------------------------


def _frontier_nodes(circuit, arch):
    """The root plus its reference expansion, unscored."""
    from repro.core.expander import ExpansionConfig, expand

    problem = MappingProblem(circuit, arch)
    root = make_node(problem)
    children = expand(problem, root, ExpansionConfig())
    return problem, [root] + children


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestHeuristicBatch:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(max_qubits=4, max_gates=8), window=st.one_of(
        st.none(), st.integers(1, 4)
    ))
    def test_matches_scalar_reference(self, backend_name, circuit, window):
        # Windowed truncation must batch exactly like the scalar path:
        # the window trims the per-qubit look-ahead before scoring.
        problem, nodes = _frontier_nodes(circuit, lnn(circuit.num_qubits))
        expected = [
            heuristic_cost(problem, node, window=window) for node in nodes
        ]
        backend = get_backend(backend_name)
        backend.heuristic_batch(problem, nodes, window=window)
        assert [node.h for node in nodes] == expected

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(max_qubits=4, max_gates=8))
    def test_memo_transparent(self, backend_name, circuit):
        # A memo must never change scores, only skip work — and its
        # hit/miss totals must match scalar evaluation in list order.
        problem, nodes = _frontier_nodes(circuit, lnn(circuit.num_qubits))
        bare = list(nodes)
        backend = get_backend(backend_name)
        backend.heuristic_batch(problem, bare)
        expected = [node.h for node in bare]

        memo = HeuristicMemo()
        for node in nodes:
            node.h = None
        backend.heuristic_batch(problem, nodes, memo=memo)
        assert [node.h for node in nodes] == expected
        assert memo.hits + memo.misses == len(nodes)
        assert memo.misses == len(memo.table)

        # Second pass over the same states: all hits, same values.
        before = memo.hits
        for node in nodes:
            node.h = None
        backend.heuristic_batch(problem, nodes, memo=memo)
        assert [node.h for node in nodes] == expected
        assert memo.hits == before + len(nodes)


# ---------------------------------------------------------------------------
# heuristic_batch on the nodes the heuristic mapper really scores
# ---------------------------------------------------------------------------

#: Tokyo (distances up to 4, so both the ``d == 2`` shortcut and the
#: general SWAP split run) and a grid above the compiled kernel's
#: 128-qubit stack buffers (its heap path).
_MAPPER_ARCHS = {"tokyo": by_name("tokyo"), "grid12x11": grid(12, 11)}


class _RecordingBackend(KernelBackend):
    """Pure backend that keeps every batch the search hands it."""

    name = "recording"

    def __init__(self):
        self.problem = None
        self.nodes = []

    def heuristic_batch(self, problem, nodes, *args, **kwargs):
        self.problem = problem
        self.nodes.extend(nodes)
        super().heuristic_batch(problem, nodes, *args, **kwargs)


def _mapper_scored_nodes(circuit, arch, latency, window):
    """``(problem, nodes)``: every node a HeuristicMapper run scored."""
    recorder = _RecordingBackend()
    HeuristicMapper(arch, latency, window=window, kernel=recorder).map(
        circuit
    )
    return recorder.problem, recorder.nodes


def _windowed_cases(problem, nodes, window):
    """Which branches of the windowed scan ``nodes`` reach."""
    cases = set()
    dist = problem.dist
    for node in nodes:
        for _finish, kind, _a, _b in node.inflight:
            cases.add("inflight_swap" if kind == K_SWAP else "inflight_gate")
        rows, truncated = problem.window_rows(window, node.ptr)
        if truncated:
            cases.add("truncated")
        pos = node.mapping_after_swaps()[0]
        for l1, l2, _length in rows:
            if l2 < 0:
                cases.add("single")
            elif pos[l1] < 0 or pos[l2] < 0:
                cases.add("unplaced")
            elif dist[pos[l1]][pos[l2]] == 2:
                cases.add("d2")
            elif dist[pos[l1]][pos[l2]] >= 3:
                cases.add("d3+")
    return cases


def _assert_windowed_parity(problem, nodes, window):
    for swap_aware in (True, False):
        expected = [
            _heuristic_cost_reference(
                problem, node, window=window, swap_aware=swap_aware
            )
            for node in nodes
        ]
        for name in BACKENDS:
            for node in nodes:
                node.h = None
            get_backend(name).heuristic_batch(
                problem, nodes, window=window, swap_aware=swap_aware
            )
            assert [node.h for node in nodes] == expected, (name, swap_aware)


class TestWindowedMapperNodes:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        circuit=circuits(min_qubits=5, max_qubits=9, max_gates=20),
        latency=latencies(),
        arch=st.sampled_from(sorted(_MAPPER_ARCHS)),
        window=st.integers(1, 4),
    )
    def test_every_backend_matches_reference(
        self, circuit, latency, arch, window
    ):
        problem, nodes = _mapper_scored_nodes(
            circuit, _MAPPER_ARCHS[arch], latency, window
        )
        _assert_windowed_parity(problem, nodes, window)

    @pytest.mark.parametrize("arch", sorted(_MAPPER_ARCHS))
    def test_fixed_run_reaches_every_branch(self, arch):
        # A fixed instance proving the node supply above reaches every
        # branch of the windowed scan on both architectures.  Qubit 8
        # first meets qubit 0 behind three of its gates, so it sits in
        # the look-ahead window long before it is placed.
        circuit = Circuit(9)
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 5),
                     (3, 7), (2, 6), (0, 4), (8, 0), (5, 6), (1, 7),
                     (8, 3)):
            circuit.cx(a, b)
            circuit.h(b)
        window = 1
        problem, nodes = _mapper_scored_nodes(
            circuit, _MAPPER_ARCHS[arch], uniform_latency(2, 3), window
        )
        assert _windowed_cases(problem, nodes, window) == {
            "inflight_swap", "inflight_gate", "truncated", "single",
            "unplaced", "d2", "d3+",
        }
        _assert_windowed_parity(problem, nodes, window)


# ---------------------------------------------------------------------------
# Node expansion, child by child, on the nodes real runs expand
# ---------------------------------------------------------------------------

#: The SearchNode slots the expander sets, compared child by child (order
#: matters: it feeds the heap tie-break and the admit order).
_CHILD_SLOTS = (
    "time", "pos", "inv", "ptr", "started", "inflight", "last_swaps",
    "prev_startable", "actions", "_eff", "_fkey",
)

#: The three configurations the mappers expand under.
_EXPAND_CONFIGS = {
    "optimal": OPTIMAL_EXPANSION,
    "pruned": PRUNED_OPTIMAL_EXPANSION,
    "greedy": HeuristicMapper(lnn(2)).config,
}


class _ExpandRecorder(KernelBackend):
    """Pure backend that keeps every node the search expands."""

    name = "expand-recorder"

    def __init__(self):
        self.problem = None
        self.nodes = []

    def expand(self, problem, node, config, counters=None):
        self.problem = problem
        self.nodes.append(node)
        return super().expand(problem, node, config, counters=counters)


def _expanded_nodes(mapper_cls, circuit, arch, latency, **kwargs):
    """``(problem, nodes)``: every node a mapper run expanded."""
    recorder = _ExpandRecorder()
    mapper_cls(arch, latency, kernel=recorder, **kwargs).map(circuit)
    return recorder.problem, recorder.nodes


def _assert_expand_parity(problem, nodes, configs):
    compiled = get_backend("compiled")
    for node in nodes:
        for config in configs:
            want_counters, got_counters = {}, {}
            want = reference_expand(problem, node, config, want_counters)
            got = compiled.expand(problem, node, config, got_counters)
            assert [
                tuple(getattr(child, slot) for slot in _CHILD_SLOTS)
                for child in got
            ] == [
                tuple(getattr(child, slot) for slot in _CHILD_SLOTS)
                for child in want
            ], (config, node.pos, node.ptr)
            assert all(child.parent is node for child in got)
            assert got_counters == want_counters


def _with_everything_startable(problem, node, config):
    """A copy of ``node`` whose ``prev_startable`` covers every action it
    could start: every set is redundant, so only the fallback yields."""
    gates, swaps = startable_actions(problem, node, config)
    twin = copy.copy(node)
    twin.prev_startable = frozenset(gates) | frozenset(swaps)
    return twin


def _expand_cases(problem, node, config):
    """Which expander branches ``node`` reaches under ``config``."""
    cases = set()
    if -1 in node.pos:
        cases.add("unplaced")
    if any(kind == K_SWAP for _f, kind, _a, _b in node.inflight):
        cases.add("inflight_swap")
    gates, swaps = startable_actions(problem, node, config)
    startable = frozenset(gates) | frozenset(swaps)
    if startable and not node.inflight and startable <= node.prev_startable:
        cases.add("fallback")
    cap = config.max_candidate_swaps
    if cap is not None:
        _gates, pool = startable_actions(
            problem, node, replace(config, max_candidate_swaps=None)
        )
        if len(pool) > cap:
            pairs = _blocked_frontier_pairs(problem, node)
            dist = problem.dist

            def gain(action):
                _, p, q = action
                swap = {p: q, q: p}
                return sum(
                    dist[a][b] - dist[swap.get(a, a)][swap.get(b, b)]
                    for a, b in pairs
                )

            ranked = sorted(gain(action) for action in pool)[::-1]
            if ranked[cap - 1] == ranked[cap]:
                cases.add("pool_tie")  # the (p, q) tie-break decides
    if config.max_swaps_per_step is not None:
        uncapped = replace(config, max_swaps_per_step=None)
        if len(reference_expand(problem, node, uncapped)) > len(
            reference_expand(problem, node, config)
        ):
            cases.add("swap_cap")
    return cases


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C kernel not built")
class TestExpandParity:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(), latency=latencies(), data=st.data())
    def test_optimal_run_nodes(self, circuit, latency, data):
        search_initial = data.draw(st.booleans())
        problem, nodes = _expanded_nodes(
            OptimalMapper, circuit, lnn(circuit.num_qubits), latency,
            search_initial_mapping=search_initial,
        )
        _assert_expand_parity(problem, nodes, _EXPAND_CONFIGS.values())

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(max_qubits=5, max_gates=10), latency=latencies())
    def test_heuristic_run_nodes(self, circuit, latency):
        problem, nodes = _expanded_nodes(
            HeuristicMapper, circuit, grid(2, 3), latency
        )
        _assert_expand_parity(problem, nodes, _EXPAND_CONFIGS.values())

    def test_fixed_runs_reach_every_branch(self):
        # Fixed instances proving the node supply reaches each branch the
        # greedy config adds: a late-placed qubit, SWAP latency 3 for
        # in-flight SWAPs, and Tokyo's degree-6 qubits for a candidate
        # pool past both caps (small caps make ties at the cut common).
        circuit = Circuit(9)
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 5),
                     (3, 7), (2, 6), (0, 4), (8, 0), (5, 6), (1, 7),
                     (8, 3)):
            circuit.cx(a, b)
            circuit.h(b)
        config = HeuristicMapper(
            lnn(2), max_swaps_per_step=1, max_candidate_swaps=3
        ).config
        problem, nodes = _expanded_nodes(
            HeuristicMapper, circuit, by_name("tokyo"),
            uniform_latency(1, 3), max_swaps_per_step=1,
            max_candidate_swaps=3,
        )
        nodes += [
            _with_everything_startable(problem, node, config)
            for node in nodes
            if not node.inflight
        ][:5]
        reached = set()
        for node in nodes:
            reached |= _expand_cases(problem, node, config)
        assert reached == {
            "unplaced", "inflight_swap", "fallback", "pool_tie", "swap_cap",
        }
        _assert_expand_parity(
            problem, nodes, (config, _EXPAND_CONFIGS["greedy"])
        )

    def test_fallback_under_every_config(self):
        circuit = Circuit(4).cx(0, 3).cx(1, 2).h(1).cx(0, 2)
        problem, nodes = _expanded_nodes(
            OptimalMapper, circuit, lnn(4), uniform_latency(1, 3)
        )
        for config in _EXPAND_CONFIGS.values():
            twins = [
                _with_everything_startable(problem, node, config)
                for node in nodes
                if not node.inflight
            ]
            assert any(
                "fallback" in _expand_cases(problem, twin, config)
                for twin in twins
            )
            _assert_expand_parity(problem, twins, (config,))

    def test_unplaced_frontier_operand(self):
        # The practical mapper places frontier operands before expanding;
        # a hand-built node with one left unplaced must still skip that
        # gate (neither startable nor a blocked pair) in both expanders,
        # while the blocked cx(0, 3) draws the frontier SWAPs.
        problem = MappingProblem(
            Circuit(4).cx(1, 2).cx(0, 3), lnn(5), uniform_latency(1, 3)
        )
        node = SearchNode(
            time=0, pos=(0, -1, 2, 3), inv=(0, -1, 2, 3, -1),
            ptr=(0, 0, 0, 0), started=0, inflight=(),
            last_swaps=frozenset(), prev_startable=frozenset(),
            parent=None, actions=(),
        )
        greedy = _EXPAND_CONFIGS["greedy"]
        assert "unplaced" in _expand_cases(problem, node, greedy)
        drawn = {
            action
            for child in reference_expand(problem, node, greedy)
            for action in child.actions
        }
        assert drawn == {("s", 0, 1), ("s", 2, 3), ("s", 3, 4)}
        _assert_expand_parity(problem, [node], _EXPAND_CONFIGS.values())


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C kernel not built")
def test_compiled_windowed_rejects_malformed_input():
    problem = MappingProblem(Circuit(3).cx(0, 2), lnn(3))
    backend = get_backend("compiled")
    packed = backend._packed(problem)
    rows = backend._window_rows(problem, 2, (0, 0, 0))
    pos = inv = (0, 1, 2)
    windowed = backend._ck.windowed
    assert windowed(packed, rows, 0, (), pos, inv, True) == heuristic_cost(
        problem, make_node(problem), window=2
    )
    with pytest.raises(ValueError):
        windowed(packed, rows, 0, (), pos[:2], inv, True)
    with pytest.raises(ValueError):
        windowed(packed, rows + bytes(8), 0, (), pos, inv, True)


# ---------------------------------------------------------------------------
# Stats surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestStatsRecordBackend:
    def test_optimal_mapper_records_backend(self, backend_name):
        circuit = Circuit(3).cx(0, 2).cx(0, 1)
        result = OptimalMapper(
            lnn(3), uniform_latency(1, 3), kernel=backend_name
        ).map(circuit)
        assert result.stats[STAT_KERNEL_BACKEND] == backend_name

    def test_heuristic_mapper_records_backend(self, backend_name):
        circuit = Circuit(3).cx(0, 2).cx(1, 2)
        result = HeuristicMapper(
            lnn(3), uniform_latency(1, 3), kernel=backend_name
        ).map(circuit)
        assert result.stats[STAT_KERNEL_BACKEND] == backend_name
