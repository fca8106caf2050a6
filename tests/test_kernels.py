"""Kernel backend registry + cross-backend bit-identity properties.

The backends (``pure`` / ``compiled``) promise *identical*
search behaviour — same schedules, same node counts, same prune
counters — differing only in speed.  These tests pin that contract with
hypothesis over random circuits, for every backend that constructs on
this interpreter (the CI matrix runs the suite with and without the C
extension built).
"""

import copy
import itertools
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
from repro.core.filters import StateFilter
from repro.core.heuristic import (
    HeuristicMemo,
    _heuristic_cost_reference,
    heuristic_cost,
    memo_key,
)
from repro.core.kernels import (
    BACKEND_NAMES,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.core.kernels.api import KernelBackend, pure_profile
from repro.core.problem import MappingProblem
from repro.core.state import K_GATE, K_SWAP, SearchNode
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


# ---------------------------------------------------------------------------
# State-filter admission, scan by scan, on the children real searches admit
# ---------------------------------------------------------------------------


def _scan_log(filt):
    """Record every ``(code, killed)`` result of ``filt``'s scan."""
    log = []
    scan = filt._scan

    def call(*args):
        result = scan(*args)
        log.append(result)
        return result

    filt._scan = call
    return log


def _ids(nodes):
    return [id(node) for node in nodes]


def _bucket(filt, key):
    return _ids(entry.node for entry in filt._table.get(key, ()))


class _TwinFilter:
    """A pure and a compiled StateFilter fed the same admissions.

    The search runs on the pure filter's answers.  Before the compiled
    filter scans a node, the kills the pure scan made are undone, so both
    scans see the same node flags; each admission must give the same
    code, the same killed nodes in the same order and the same bucket.
    """

    instances = []

    def __init__(self, problem, **kwargs):
        kwargs.pop("kernel", None)
        self.pure = StateFilter(problem, kernel=get_backend("pure"), **kwargs)
        self.compiled = StateFilter(
            problem, kernel=get_backend("compiled"), **kwargs
        )
        self.pure_log = _scan_log(self.pure)
        self.compiled_log = _scan_log(self.compiled)
        self.codes = set()
        self.kills = 0
        _TwinFilter.instances.append(self)

    def __getattr__(self, name):
        return getattr(self.pure, name)

    def admit(self, node):
        admitted = self.pure.admit(node)
        code, killed = self.pure_log[-1]
        for victim in killed:
            victim.killed = False
        assert self.compiled.admit(node) == admitted
        assert self.compiled_log[-1][0] == code
        assert _ids(self.compiled_log[-1][1]) == _ids(killed)
        key = node.filter_key()
        assert _bucket(self.compiled, key) == _bucket(self.pure, key)
        self.codes.add(code)
        self.kills += len(killed)
        return admitted

    def kill_above_bound(self, bound):
        killed = self.pure.kill_above_bound(bound)
        self.compiled.kill_above_bound(bound)
        self._assert_tables()
        return killed

    def compact(self):
        self.pure.compact()
        self.compiled.compact()
        self._assert_tables()

    def release(self):
        self.pure.release()
        self.compiled.release()

    def _assert_tables(self):
        assert {key: _bucket(self.pure, key) for key in self.pure._table} == {
            key: _bucket(self.compiled, key) for key in self.compiled._table
        }


@pytest.fixture
def twin_filters(monkeypatch):
    import repro.core.astar as astar_module
    import repro.core.heuristic_mapper as heuristic_module

    _TwinFilter.instances = []
    monkeypatch.setattr(astar_module, "StateFilter", _TwinFilter)
    monkeypatch.setattr(heuristic_module, "StateFilter", _TwinFilter)
    return _TwinFilter.instances


def _twin_codes(instances):
    return set().union(*(twin.codes for twin in instances))


#: A small circuit for the practical mapper and the batch scorer.
_ADMIT_CIRCUIT = Circuit(4).cx(0, 1).cx(2, 3).cx(0, 2).cx(1, 3).h(0).cx(0, 3)


def _exact_row():
    """A Table-1 row whose exact searches reach every scan outcome."""
    from repro.benchcircuits import wille_circuit

    return wille_circuit("4mod5-v1_22"), by_name("ibmqx2")


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C kernel not built")
class TestAdmitParity:
    @pytest.mark.parametrize("search_initial", [False, True])
    @pytest.mark.parametrize("closed_dominance", [False, True])
    def test_optimal_modes(
        self, twin_filters, search_initial, closed_dominance
    ):
        circuit, arch = _exact_row()
        OptimalMapper(
            arch, TABLE1_LATENCY,
            search_initial_mapping=search_initial,
            closed_dominance=closed_dominance,
        ).map(circuit)
        codes = _twin_codes(twin_filters)
        assert {0, 1, 2} <= codes
        assert (3 in codes) == closed_dominance
        assert sum(twin.kills for twin in twin_filters) > 0

    def test_dominance_off(self, twin_filters):
        circuit, arch = _exact_row()
        OptimalMapper(arch, TABLE1_LATENCY, dominance=False).map(circuit)
        exact = [twin for twin in twin_filters if not twin._dominance]
        assert exact and _twin_codes(exact) == {0, 1}

    def test_portfolio_exact_lane(self, twin_filters):
        from repro.analysis.portfolio import PortfolioMapper

        circuit, arch = _exact_row()
        result = PortfolioMapper(
            arch, TABLE1_LATENCY, lanes=("exact",)
        ).map(circuit)
        assert result.optimal
        exact = [twin for twin in twin_filters if twin._closed_dominance]
        assert exact and 3 in _twin_codes(exact)

    def test_practical_mapper_live_only_with_compact(self, twin_filters):
        result = HeuristicMapper(by_name("tokyo"), TABLE1_LATENCY).map(
            large_circuit("cm82a_208", scale_gate_cap=80)
        )
        assert result.stats["queue_trims"] > 0
        assert all(twin._live_only for twin in twin_filters)
        assert {0, 1, 2} <= _twin_codes(twin_filters)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits(), latency=latencies(), data=st.data())
    def test_random_searches(self, circuit, latency, data):
        import repro.core.astar as astar_module

        closed = data.draw(st.booleans())
        search_initial = data.draw(st.booleans())
        original = astar_module.StateFilter
        astar_module.StateFilter = _TwinFilter
        try:
            OptimalMapper(
                lnn(circuit.num_qubits), latency,
                search_initial_mapping=search_initial,
                closed_dominance=closed,
            ).map(circuit)
        finally:
            astar_module.StateFilter = original


def _admit_both(make_nodes, flags, order, **kwargs):
    """Admit ``make_nodes()`` in ``order`` into a pure and a compiled
    filter (each on its own fresh nodes); ``flags`` maps a step to the
    ``(attribute, value)`` set on that node before the next admission.
    Returns the per-step ``(code, killed indices, bucket indices)``."""
    traces = []
    for name in ("pure", "compiled"):
        problem, nodes = make_nodes()
        filt = StateFilter(problem, kernel=get_backend(name), **kwargs)
        log = _scan_log(filt)
        index = {id(node): i for i, node in enumerate(nodes)}
        steps = []
        for step, i in enumerate(order):
            filt.admit(nodes[i])
            code, killed = log[-1]
            steps.append((
                code,
                [index[id(n)] for n in killed],
                [index[i] for i in _bucket(filt, nodes[i].filter_key())],
            ))
            for attr, value in flags.get(step, ()):
                setattr(nodes[i], attr, value)
        traces.append(steps)
    assert traces[0] == traces[1]
    return traces[0]


def _spine_nodes():
    """A closed in-flight node ``a``, its wait-child ``w1`` (same filter
    key, still in flight), ``w1``'s wait-child ``w2``, a twin of ``w2``
    reached from another bucket ``x`` whose parent is ``a`` itself, and
    a twin with no parent."""
    problem = MappingProblem(
        Circuit(3).cx(0, 2).cx(0, 1), lnn(3), uniform_latency(1, 3)
    )
    mapped = (1, 0, 2)
    a = make_node(problem, time=0, inflight=((3, K_SWAP, 0, 1),))
    w1 = make_node(problem, time=1, inflight=((3, K_SWAP, 0, 1),))
    w1.parent = a
    w2 = make_node(problem, time=3, mapping=mapped)
    w2.parent = w1
    x = make_node(problem, time=3, mapping=mapped, ptr=[1, 0, 1])
    x.parent = a
    via_x = make_node(problem, time=3, mapping=mapped)
    via_x.parent = x
    orphan = make_node(problem, time=3, mapping=mapped)
    for node in (w1, w2, via_x, orphan):
        assert node.filter_key() == a.filter_key()
    return problem, [a, w1, w2, via_x, orphan]


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C kernel not built")
class TestAdmitFixedCases:
    def test_in_flight_ancestor_on_the_wait_spine(self):
        # a and w1 are closed once admitted; w2 descends from both
        # through waits, so neither may dominate it.
        closed = {0: [("dropped", True)], 1: [("dropped", True)]}
        steps = _admit_both(
            _spine_nodes, closed, [0, 1, 2], closed_dominance=True
        )
        assert [code for code, _, _ in steps] == [0, 0, 0]
        # Without the closed-entry rule w1 is still admitted (closed
        # entries never dominate), and with w1 open it is dominated.
        steps = _admit_both(_spine_nodes, {}, [0, 1])
        assert steps[1][0] == 2

    def test_chain_that_leaves_the_bucket(self):
        # via_x's parent x has another key, so the walk stops there even
        # though x descends from the closed dominator a: code 3.
        closed = {0: [("dropped", True)]}
        steps = _admit_both(
            _spine_nodes, closed, [0, 3], closed_dominance=True
        )
        assert steps[1][0] == 3
        steps = _admit_both(
            _spine_nodes, closed, [0, 4], closed_dominance=True
        )
        assert steps[1][0] == 3

    def test_differing_in_flight_gate_sets(self):
        # Same filter key (both gates started), different gates in
        # flight: the merge walk's unmatched branches decide.
        def make():
            problem = MappingProblem(
                Circuit(4).cx(0, 1).cx(2, 3), lnn(4), uniform_latency(1, 2)
            )
            ptr = [1, 1, 1, 1]
            nodes = [
                make_node(problem, time=1, ptr=ptr, started=2,
                          inflight=((2, K_GATE, 0, 0),)),
                make_node(problem, time=2, ptr=ptr, started=2,
                          inflight=((3, K_GATE, 1, 0),)),
                make_node(problem, time=1, ptr=ptr, started=2,
                          inflight=((3, K_GATE, 0, 0),)),
                make_node(problem, time=1, ptr=ptr, started=2,
                          inflight=((2, K_GATE, 1, 0), (2, K_GATE, 0, 0))),
                make_node(problem, time=2, ptr=ptr, started=2),
            ]
            return problem, nodes

        outcomes = set()
        for order in itertools.permutations(range(5)):
            steps = _admit_both(make, {}, list(order))
            outcomes.update(code for code, _, _ in steps)
            outcomes.update("kill" for _, killed, _ in steps if killed)
        assert outcomes == {0, 2, "kill"}
        compiled = get_backend("compiled")
        problem, nodes = make()
        for node in nodes:
            entry = compiled.make_entry(problem, node)
            assert (entry.qfree, entry.gate_finish) == pure_profile(
                problem, node
            )

    def test_gate_against_swap_with_equal_release_times(self):
        # Same key, cycle and release times; one has gate 0 in flight,
        # the other a SWAP: not equivalent, and the SWAP node dominates.
        def make():
            problem = MappingProblem(
                Circuit(3).cx(0, 1).cx(1, 2), lnn(3), uniform_latency(1, 2)
            )
            gate = make_node(problem, time=1, ptr=[1, 1, 0], started=1,
                             inflight=((3, K_GATE, 0, 0),))
            swap = make_node(problem, time=1, mapping=(1, 0, 2),
                             ptr=[1, 1, 0], started=1,
                             inflight=((3, K_SWAP, 0, 1),))
            assert gate.filter_key() == swap.filter_key()
            return problem, [gate, swap]

        assert _admit_both(make, {}, [0, 1]) == [
            (0, [], [0]), (0, [0], [1]),
        ]
        assert _admit_both(make, {}, [1, 0]) == [
            (0, [], [1]), (2, [], [1]),
        ]

    def test_same_release_times_different_gates_in_flight(self):
        # One gate and one SWAP in flight each, on swapped qubit pairs:
        # equal key, cycle and release times, different in-flight gates.
        def make():
            problem = MappingProblem(
                Circuit(4).cx(0, 1).cx(2, 3), lnn(4), uniform_latency(1, 2)
            )
            ptr, started = [1, 1, 1, 1], 2
            first = make_node(problem, time=1, ptr=ptr, started=started,
                              inflight=((3, K_GATE, 0, 0),
                                        (3, K_SWAP, 2, 3)))
            second = make_node(problem, time=1, mapping=(1, 0, 3, 2),
                               ptr=ptr, started=started,
                               inflight=((3, K_GATE, 1, 0),
                                         (3, K_SWAP, 0, 1)))
            assert first.filter_key() == second.filter_key()
            return problem, [first, second]

        assert _admit_both(make, {}, [0, 1]) == [
            (0, [], [0]), (0, [], [0, 1]),
        ]

    def test_dead_entries_under_live_only(self):
        def make():
            problem = MappingProblem(
                Circuit(3).cx(0, 1).cx(1, 2), lnn(3), uniform_latency(1, 3)
            )
            ptr = [1, 1, 0]
            return problem, [
                make_node(problem, time=t, ptr=ptr, started=1)
                for t in (5, 4, 2, 2, 3)
            ]

        # 0 and 1 leave the open list; 2 is admitted over their entries,
        # 3 is its equivalent, 4 is dominated by it.
        dropped = {0: [("dropped", True)], 1: [("dropped", True)]}
        steps = _admit_both(make, dropped, [0, 1, 2, 3, 4], live_only=True)
        assert steps == [
            (0, [], [0]), (0, [], [1]), (0, [], [2]), (1, [], [2]),
            (2, [], [2]),
        ]
        # Without live_only the closed entries stay and still count.
        steps = _admit_both(make, dropped, [0, 1, 2, 3, 4])
        assert steps[2] == (0, [], [0, 1, 2])


# ---------------------------------------------------------------------------
# Memoised batch scoring: C memo loop against the python one
# ---------------------------------------------------------------------------


def _fresh(nodes):
    """Copies with every derived-value cache cleared."""
    copies = []
    for node in nodes:
        twin = copy.copy(node)
        twin.invalidate_caches()
        twin.h = None
        copies.append(twin)
    return copies


def _batch_outcome(name, problem, nodes, window, memo, metrics=None):
    batch = _fresh(nodes)
    get_backend(name).heuristic_batch(
        problem, batch, window=window, memo=memo, metrics=metrics
    )
    return batch


@pytest.mark.skipif("compiled" not in BACKENDS, reason="C kernel not built")
class TestScoreBatchParity:
    @pytest.mark.parametrize("window", [None, 2])
    def test_duplicates_hits_misses_and_memo_contents(self, window):
        from repro.obs import MetricsRegistry

        problem, nodes = _mapper_scored_nodes(
            _ADMIT_CIRCUIT, by_name("tokyo"), TABLE1_LATENCY, 2
        )
        # In-batch duplicates, and a second batch re-scoring known keys.
        batches = [nodes[:40] + nodes[:10], nodes[20:60]]
        results = {}
        for name in ("pure", "compiled"):
            memo, metrics, values = HeuristicMemo(), MetricsRegistry(), []
            for batch in batches:
                scored = _batch_outcome(
                    name, problem, batch, window, memo, metrics
                )
                values.append([node.h for node in scored])
                assert all(
                    node._mkey is None or node._mkey == memo_key(node)
                    for node in scored
                )
            results[name] = (
                values, memo.hits, memo.misses, list(memo.table.items()),
                metrics.counter("heuristic.calls").value,
            )
        assert results["compiled"] == results["pure"]
        assert results["pure"][1] >= 10  # the duplicates were hits

    @pytest.mark.parametrize("window", [None, 2])
    def test_without_memo(self, window):
        problem, nodes = _mapper_scored_nodes(
            _ADMIT_CIRCUIT, by_name("tokyo"), TABLE1_LATENCY, 2
        )
        batch = nodes[:30] + nodes[:5]
        want = [
            node.h for node in _batch_outcome(
                "pure", problem, batch, window, None
            )
        ]
        got = _batch_outcome("compiled", problem, batch, window, None)
        assert [node.h for node in got] == want
        assert all(node._mkey is None for node in got)

    @pytest.mark.parametrize("window", [None, 2])
    def test_rows_cache_overflow(self, window, monkeypatch):
        import repro.core.kernels.compiled as compiled_module

        circuit = large_circuit("cm82a_208", scale_gate_cap=40)
        problem, nodes = _mapper_scored_nodes(
            circuit, by_name("tokyo"), TABLE1_LATENCY, 2
        )
        want = [
            node.h for node in _batch_outcome(
                "pure", problem, nodes, window, HeuristicMemo()
            )
        ]
        monkeypatch.setattr(compiled_module, "PROBLEM_CACHE_CAP", 3)
        for name in ("_ck_rows", "_ck_window_rows"):
            problem.__dict__.pop(name, None)
        problem.cache_overflows.clear()
        got = _batch_outcome(
            "compiled", problem, nodes, window, HeuristicMemo()
        )
        assert [node.h for node in got] == want
        overflow = "ck_rows" if window is None else "ck_window_rows"
        assert problem.cache_overflows[overflow] > 0
