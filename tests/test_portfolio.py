"""Tests for the portfolio mapper (repro.analysis.portfolio).

Covers the shared-incumbent race semantics: cross-lane bound tightening,
anytime deadlines always returning checker-verified schedules, the
exhaustion promotion to a proven optimum, per-lane error containment,
and the normalized stats schema.
"""

import pytest

from repro.analysis.batch import SharedBound
from repro.analysis.portfolio import (
    LANE_EXACT,
    LANE_HEURISTIC,
    LANE_ORDER,
    LANE_SABRE,
    PortfolioMapper,
)
from repro.arch import lnn
from repro.arch.library import by_name
from repro.baselines.sabre import SabreMapper
from repro.benchcircuits import olsq_circuit, wille_circuit
from repro.circuit import uniform_latency
from repro.circuit.latency import OLSQ_LATENCY, TABLE1_LATENCY
from repro.circuit.generators import qft_skeleton
from repro.core import OptimalMapper
from repro.obs.schema import validate_stats
from repro.verify import validate_result

LAT = uniform_latency(1, 3)


def test_shared_bound_is_monotone_min():
    shared = SharedBound()
    assert shared.peek() is None
    assert shared.offer(10)
    assert shared.peek() == 10
    assert not shared.offer(12)
    assert shared.peek() == 10
    assert shared.offer(7)
    assert shared.peek() == 7


def test_full_race_reaches_proven_optimum():
    reference = OptimalMapper(
        lnn(4), LAT, search_initial_mapping=True
    ).map(qft_skeleton(4))
    result = PortfolioMapper(lnn(4), LAT).map(qft_skeleton(4))
    validate_result(result)
    assert result.optimal
    assert result.depth == reference.depth
    stats = result.stats
    validate_stats(stats)
    assert stats["mapper"] == "portfolio"
    assert stats["lanes_finished"] >= len(LANE_ORDER)
    assert stats["winner_lane"] in LANE_ORDER + ("seed",)
    assert stats["lane_depths"][stats["winner_lane"]] == result.depth


def test_cross_lane_bound_tightens_exact_search():
    """The held seed's shared offer must prune the exact lane.

    Bounds are ablated so the comparison isolates the incumbent protocol:
    the unseeded exact search is the worst case, and the portfolio's
    exact lane — fed the seed depth through the shared bound before it
    starts — must beat it.
    """
    circuit = qft_skeleton(5)
    unseeded = OptimalMapper(
        lnn(5), LAT, search_initial_mapping=True, seed_incumbent=False
    ).map(circuit)
    raced = PortfolioMapper(
        lnn(5),
        LAT,
        lanes=(LANE_EXACT, LANE_HEURISTIC),
        assignment_bound=False,
        layer_bound=False,
        root_restriction=False,
        closed_dominance=False,
    ).map(circuit)
    validate_result(raced)
    assert raced.depth == unseeded.depth
    assert raced.stats["nodes_expanded"] <= unseeded.stats["nodes_expanded"]
    # The foreign bound prunes generated nodes from the first expansion;
    # the unseeded search only starts pruning after its own terminal.
    assert (
        raced.stats["pruned_by_bound"]
        > unseeded.stats["pruned_by_bound"]
    )


def test_deadline_always_returns_verified_schedule():
    """An expiring deadline yields the best validated lane schedule."""
    result = PortfolioMapper(
        lnn(6), LAT, deadline=0.2
    ).map(qft_skeleton(6))
    validate_result(result)
    assert result.depth >= 1
    stats = result.stats
    validate_stats(stats)
    assert stats["winner_lane"] is not None
    if not result.optimal:
        assert stats["budget_reason"] is not None


def test_exhaustion_promotion_proves_side_lane_optimal():
    """Exact lane drains against the seed's own depth => promoted proof."""
    reference = OptimalMapper(
        lnn(3), LAT, search_initial_mapping=True
    ).map(qft_skeleton(3))
    result = PortfolioMapper(lnn(3), LAT).map(qft_skeleton(3))
    validate_result(result)
    assert result.optimal
    assert result.depth == reference.depth
    # The proof came from the drained queue, not an exact-lane terminal.
    assert result.stats["winner_lane"] != LANE_EXACT
    assert "exact" in result.stats.get("lane_errors", {})


def test_lane_error_is_contained(monkeypatch):
    def boom(self, circuit, initial_mapping=None):
        raise RuntimeError("sabre lane exploded")

    monkeypatch.setattr(SabreMapper, "map", boom)
    result = PortfolioMapper(
        lnn(4), LAT, lanes=(LANE_EXACT, LANE_SABRE)
    ).map(qft_skeleton(4))
    validate_result(result)
    assert result.optimal
    assert "sabre lane exploded" in result.stats["lane_errors"][LANE_SABRE]


def test_lane_validation_is_rejected():
    with pytest.raises(ValueError, match="unknown portfolio lane"):
        PortfolioMapper(lnn(3), LAT, lanes=("exact", "quantum"))
    with pytest.raises(ValueError, match="at least one lane"):
        PortfolioMapper(lnn(3), LAT, lanes=())


def test_exact_lane_counters_are_hoisted():
    """Portfolio stats read like exact-run stats for diagnose/bench."""
    result = PortfolioMapper(lnn(5), LAT).map(qft_skeleton(5))
    stats = result.stats
    assert stats["nodes_expanded"] > 0
    assert stats["closed_dominated"] > 0
    assert stats["root_candidates_restricted"] > 0
    assert "budget_reason" not in stats  # proof supersedes the lane's tag


@pytest.mark.parametrize(
    "circuit, arch, latency, optimum",
    [
        (wille_circuit("alu-v3_35"), "ibmqx2", TABLE1_LATENCY, 40),
        (wille_circuit("4gt13_92"), "ibmqx2", TABLE1_LATENCY, 62),
        (olsq_circuit("qaoa5"), "ibmqx2", OLSQ_LATENCY, 14),
        (olsq_circuit("4gt13_92"), "ibmqx2", OLSQ_LATENCY, 38),
        (olsq_circuit("queko_05_0"), "aspen-4", OLSQ_LATENCY, 5),
    ],
    ids=["t1-alu-v3_35", "t1-4gt13_92", "t2-qaoa5", "t2-4gt13_92",
         "t2-queko_05_0"],
)
def test_exact_lane_keeps_the_terminal_that_meets_the_layer_floor(
    circuit, arch, latency, optimum
):
    """On these rows the layer-weight floor equals the optimum: the
    exact lane's optimal terminal sets the shared bound when pushed and
    must not be pruned by that floor when popped."""
    result = PortfolioMapper(by_name(arch), latency, lanes=("exact",)).map(
        circuit
    )
    validate_result(result)
    assert result.depth == optimum
    assert result.optimal
    assert not result.stats.get("lane_errors")
