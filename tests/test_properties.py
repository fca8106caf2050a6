"""Property-based tests (hypothesis) on core invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.arch import CouplingGraph, grid, lnn
from repro.baselines import SabreMapper, TrivialMapper, ZulehnerMapper
from repro.circuit import Circuit, parse_qasm, to_qasm, uniform_latency
from repro.circuit.dag import DependencyGraph
from repro.core import HeuristicMapper, OptimalMapper
from repro.core.heuristic import heuristic_cost
from repro.core.problem import MappingProblem
from repro.verify import validate_result

from .test_heuristic import make_node

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def circuits(draw, max_qubits=5, max_gates=10):
    """Random small circuits over 2..max_qubits qubits."""
    n = draw(st.integers(2, max_qubits))
    num_gates = draw(st.integers(0, max_gates))
    circuit = Circuit(n)
    for _ in range(num_gates):
        if draw(st.booleans()):
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
    gate = draw(st.integers(1, 3))
    swap_cycles = draw(st.integers(1, 6))
    return uniform_latency(gate, swap_cycles)


# ---------------------------------------------------------------------------
# Circuit / DAG invariants
# ---------------------------------------------------------------------------


@given(circuits())
def test_depth_bounds(circuit):
    depth = circuit.depth()
    assert 0 <= depth <= len(circuit)
    if circuit.gates:
        longest_qubit = max(
            sum(1 for g in circuit if q in g.qubits)
            for q in range(circuit.num_qubits)
        )
        assert depth >= longest_qubit


@given(circuits())
def test_dag_preds_are_earlier_gates(circuit):
    dag = DependencyGraph(circuit)
    for gate, preds in enumerate(dag.preds):
        for pred in preds:
            assert pred < gate


@given(circuits())
def test_parallel_layers_partition_all_gates(circuit):
    layers = circuit.parallel_layers()
    flattened = sorted(i for layer in layers for i in layer)
    assert flattened == list(range(len(circuit)))
    # No layer reuses a qubit.
    for layer in layers:
        used = set()
        for index in layer:
            for q in circuit[index].qubits:
                assert q not in used
                used.add(q)


@given(circuits())
def test_qasm_round_trip(circuit):
    back = parse_qasm(to_qasm(circuit))
    assert back.num_qubits == circuit.num_qubits
    assert len(back) == len(circuit)
    assert [g.qubits for g in back] == [g.qubits for g in circuit]


@given(circuits(), st.randoms())
def test_relabeling_preserves_depth(circuit, rng):
    permutation = list(range(circuit.num_qubits))
    rng.shuffle(permutation)
    assert circuit.relabeled(permutation).depth() == circuit.depth()


# ---------------------------------------------------------------------------
# Heuristic invariants
# ---------------------------------------------------------------------------


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(circuits(max_qubits=4, max_gates=6), latencies())
def test_heuristic_admissible(circuit, latency):
    """h(root) never exceeds the exhaustively-computed optimal depth."""
    arch = lnn(circuit.num_qubits)
    problem = MappingProblem(circuit, arch, latency)
    h = heuristic_cost(problem, make_node(problem))
    exact = OptimalMapper(arch, latency, informed=False, dominance=False).map(
        circuit, initial_mapping=list(range(circuit.num_qubits))
    )
    assert h <= exact.depth


@given(circuits(max_qubits=5, max_gates=10), latencies())
def test_heuristic_at_least_critical_path(circuit, latency):
    arch = lnn(circuit.num_qubits)
    problem = MappingProblem(circuit, arch, latency)
    node = make_node(problem)
    assert heuristic_cost(problem, node) >= heuristic_cost(
        problem, node, swap_aware=False
    )
    assert heuristic_cost(problem, node, swap_aware=False) == circuit.depth(
        latency
    )


# ---------------------------------------------------------------------------
# Mapper invariants: every mapper yields a valid schedule, depth >= ideal
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(circuits(max_qubits=4, max_gates=8), latencies())
def test_optimal_mapper_valid_and_bounded(circuit, latency):
    arch = lnn(circuit.num_qubits)
    result = OptimalMapper(arch, latency).map(
        circuit, initial_mapping=list(range(circuit.num_qubits))
    )
    validate_result(result)
    assert result.depth >= circuit.depth(latency)


@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(circuits(max_qubits=5, max_gates=12), latencies())
def test_heuristic_mapper_valid(circuit, latency):
    arch = grid(2, 3)
    result = HeuristicMapper(arch, latency).map(circuit)
    validate_result(result)


@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(circuits(max_qubits=5, max_gates=12), latencies(), st.integers(0, 3))
def test_baselines_valid(circuit, latency, seed):
    arch = grid(2, 3)
    for mapper in (
        SabreMapper(arch, latency, seed=seed),
        ZulehnerMapper(arch, latency),
        TrivialMapper(arch, latency),
    ):
        result = mapper.map(circuit)
        validate_result(result)


@settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(circuits(max_qubits=4, max_gates=6), latencies())
def test_heuristic_never_beats_optimal(circuit, latency):
    arch = lnn(circuit.num_qubits)
    mapping = list(range(circuit.num_qubits))
    optimal = OptimalMapper(arch, latency).map(circuit, initial_mapping=mapping)
    heuristic = HeuristicMapper(arch, latency).map(circuit, initial_mapping=mapping)
    assert heuristic.depth >= optimal.depth


# ---------------------------------------------------------------------------
# Coupling-graph invariants
# ---------------------------------------------------------------------------


@given(st.integers(2, 9))
def test_lnn_distances_are_index_differences(n):
    g = lnn(n)
    for p in range(n):
        for q in range(n):
            assert g.distance(p, q) == abs(p - q)


@given(st.integers(1, 4), st.integers(1, 4))
def test_grid_distance_is_manhattan(rows, cols):
    if rows * cols < 2:
        return
    g = grid(rows, cols)
    for p in range(rows * cols):
        for q in range(rows * cols):
            (r1, c1), (r2, c2) = (p % rows, p // rows), (q % rows, q // rows)
            assert g.distance(p, q) == abs(r1 - r2) + abs(c1 - c2)


# ---------------------------------------------------------------------------
# Semantic equivalence: mapping preserves circuit meaning
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(circuits(max_qubits=4, max_gates=10), latencies())
def test_optimal_mapping_semantically_equivalent(circuit, latency):
    from repro.verify.simulator import assert_semantically_equivalent

    arch = lnn(circuit.num_qubits)
    result = OptimalMapper(arch, latency).map(
        circuit, initial_mapping=list(range(circuit.num_qubits))
    )
    assert_semantically_equivalent(result)


@settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(circuits(max_qubits=5, max_gates=12), st.integers(0, 2))
def test_heuristic_mapping_semantically_equivalent(circuit, seed):
    from repro.verify.simulator import assert_semantically_equivalent

    arch = grid(2, 3)
    result = HeuristicMapper(arch, uniform_latency(1, 3)).map(circuit)
    assert_semantically_equivalent(result)
