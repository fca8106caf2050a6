"""Telemetry must observe the search, never change it.

Each mapper has one search loop; telemetry reaches it only as a hook.
These tests map the same instance with a live ``Telemetry`` (plus a
``full`` search trace) and without one, under every kernel backend that
constructs here, and require the same depth, the same schedule and the
same deterministic stats counters.
"""

import pytest

from repro.analysis.portfolio import PortfolioMapper
from repro.arch import lnn
from repro.arch.library import by_name
from repro.benchcircuits import large_circuit, olsq_circuit
from repro.circuit import uniform_latency
from repro.circuit.latency import OLSQ_LATENCY, QFT_LATENCY, TABLE1_LATENCY
from repro.circuit.generators import qft_skeleton
from repro.core import HeuristicMapper, OptimalMapper, SearchBudgetExceeded
from repro.core.kernels import available_backends
from repro.obs import Telemetry, TraceRecorder

BACKENDS = available_backends()
LATENCY = uniform_latency(1, 3)


def _counters(stats):
    """Every stats entry except wall-clock times."""
    return {
        key: value for key, value in stats.items()
        if key not in ("seconds", "lane_seconds")
    }


def _signature(outcome):
    if isinstance(outcome, SearchBudgetExceeded):
        return ("budget", str(outcome), _counters(outcome.partial_stats))
    results = outcome if isinstance(outcome, list) else [outcome]
    return [
        (
            result.depth,
            result.optimal,
            result.initial_mapping,
            [(op.name, op.physical_qubits, op.start) for op in result.ops],
            _counters(result.stats),
        )
        for result in results
    ]


def _run(make, telemetry):
    try:
        return make(telemetry)
    except SearchBudgetExceeded as exc:
        return exc


CASES = {
    "mode1": lambda kernel, tele: OptimalMapper(
        lnn(5), QFT_LATENCY, kernel=kernel, telemetry=tele
    ).map(qft_skeleton(5)),
    "mode2": lambda kernel, tele: OptimalMapper(
        by_name("ibmqx2"), OLSQ_LATENCY, search_initial_mapping=True,
        kernel=kernel, telemetry=tele,
    ).map(olsq_circuit("adder")),
    "mode2_levers": lambda kernel, tele: OptimalMapper(
        lnn(5), LATENCY, search_initial_mapping=True, assignment_bound=True,
        layer_bound=True, root_restriction=True, closed_dominance=True,
        kernel=kernel, telemetry=tele,
    ).map(qft_skeleton(5)),
    "find_all_optimal": lambda kernel, tele: OptimalMapper(
        lnn(4), LATENCY, kernel=kernel, telemetry=tele
    ).find_all_optimal(qft_skeleton(4), max_solutions=16),
    "max_nodes_budget": lambda kernel, tele: OptimalMapper(
        lnn(6), LATENCY, max_nodes=300, kernel=kernel, telemetry=tele
    ).map(qft_skeleton(6)),
    "portfolio_exact_lane": lambda kernel, tele: PortfolioMapper(
        lnn(4), LATENCY, lanes=("exact",), kernel=kernel, telemetry=tele
    ).map(qft_skeleton(4)),
    "heuristic_table3": lambda kernel, tele: HeuristicMapper(
        by_name("tokyo"), TABLE1_LATENCY, kernel=kernel, telemetry=tele
    ).map(large_circuit("cm82a_208", scale_gate_cap=60)),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_telemetry_does_not_change_the_search(case, backend):
    make = CASES[case]
    plain = _run(lambda tele: make(backend, tele), None)
    recorder = TraceRecorder(mode="full", keep_records=True)
    telemetry = Telemetry(search_trace=recorder)
    traced = _run(lambda tele: make(backend, tele), telemetry)
    assert _signature(traced) == _signature(plain)
    if case == "max_nodes_budget":
        assert isinstance(plain, SearchBudgetExceeded)
    # The hook published the run's counters from its final stats.
    snapshot = telemetry.metrics.snapshot()
    assert snapshot["search.nodes_expanded"] > 0
    if case != "heuristic_table3":
        assert recorder.drain(), "the exact search recorded no trace"
