"""The normalized mapper-statistics schema.

Every mapper in this library — the optimal TOQM A* search, the practical
heuristic variant, and all baselines — attaches a ``stats`` dict to its
:class:`~repro.core.result.MappingResult`.  Before this module existed each
mapper invented its own keys, which made cross-mapper tabulation (the
Table 3 workflow in :mod:`repro.analysis.compare`) impossible without
special-casing.  This module is the single source of truth for the shared
key names; :func:`base_stats` builds a conforming dict and
:func:`validate_stats` checks one.

The *required* keys every mapper emits:

========================  =====================================================
key                       meaning
========================  =====================================================
``mapper``                canonical mapper name (see ``MAPPER_*`` constants)
``nodes_expanded``        search states expanded (routing steps for
                          non-search mappers)
``nodes_generated``       successor states generated (candidates scored for
                          non-search mappers)
``filtered_equivalent``   nodes dropped by the equivalence check (0 when the
                          mapper has no filter)
``filtered_dominated``    nodes dropped by the dominance check (0 when the
                          mapper has no filter)
``seconds``               wall-clock mapping time
========================  =====================================================

Mappers are free to add extra keys (``distinct_states``, ``layer_swaps``,
``queue_trims``, ...) on top of the required set; consumers that want
uniform rows restrict themselves to :data:`REQUIRED_STAT_KEYS`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

# -- required keys ------------------------------------------------------
STAT_MAPPER = "mapper"
STAT_NODES_EXPANDED = "nodes_expanded"
STAT_NODES_GENERATED = "nodes_generated"
STAT_FILTERED_EQUIVALENT = "filtered_equivalent"
STAT_FILTERED_DOMINATED = "filtered_dominated"
STAT_SECONDS = "seconds"

#: Keys every mapper's ``MappingResult.stats`` must contain.
REQUIRED_STAT_KEYS = (
    STAT_MAPPER,
    STAT_NODES_EXPANDED,
    STAT_NODES_GENERATED,
    STAT_FILTERED_EQUIVALENT,
    STAT_FILTERED_DOMINATED,
    STAT_SECONDS,
)

# -- common optional keys (shared spelling, not required) ---------------
STAT_KILLED = "killed"
STAT_REDUNDANT = "redundant"
STAT_DISTINCT_STATES = "distinct_states"
STAT_QUEUE_TRIMS = "queue_trims"
STAT_BUDGET_REASON = "budget_reason"
# Branch-and-bound counters of the exact search (optional, optimal mode):
STAT_PRUNED_BY_BOUND = "pruned_by_bound"
STAT_INCUMBENT_UPDATES = "incumbent_updates"
STAT_INCUMBENT_DEPTH = "incumbent_depth"
STAT_SWAPS_RESTRICTED = "swaps_restricted"
STAT_SYMMETRY_PRUNED = "symmetry_pruned"
STAT_MODE2_ROOTS = "mode2_roots"
# Literature-grade bound counters (optional, optimal mode — see
# repro.core.bounds for the derivations):
STAT_PRUNED_BY_ASSIGNMENT = "pruned_by_assignment_lb"
STAT_PRUNED_BY_LAYER_WEIGHT = "pruned_by_layer_weight"
STAT_ROOT_RESTRICTED = "root_candidates_restricted"
STAT_CLOSED_DOMINATED = "closed_dominated"
# Portfolio-lane counters (portfolio mapper only):
STAT_LANES_FINISHED = "lanes_finished"
STAT_WINNER_LANE = "winner_lane"
# Which kernel backend scored/filtered the search (pure/compiled):
STAT_KERNEL_BACKEND = "kernel_backend"

# -- canonical mapper names ---------------------------------------------
MAPPER_TOQM_OPTIMAL = "toqm-optimal"
MAPPER_TOQM_HEURISTIC = "toqm-heuristic"
MAPPER_SABRE = "sabre"
MAPPER_ZULEHNER = "zulehner"
MAPPER_OLSQ_STYLE = "olsq-style"
MAPPER_TRIVIAL = "trivial"
MAPPER_PORTFOLIO = "portfolio"

MAPPER_NAMES = (
    MAPPER_TOQM_OPTIMAL,
    MAPPER_TOQM_HEURISTIC,
    MAPPER_SABRE,
    MAPPER_ZULEHNER,
    MAPPER_OLSQ_STYLE,
    MAPPER_TRIVIAL,
    MAPPER_PORTFOLIO,
)


def base_stats(
    mapper: str,
    nodes_expanded: int = 0,
    nodes_generated: int = 0,
    filtered_equivalent: int = 0,
    filtered_dominated: int = 0,
    seconds: float = 0.0,
    **extra,
) -> Dict[str, float]:
    """Build a stats dict conforming to the normalized schema.

    Args:
        mapper: Canonical mapper name (one of :data:`MAPPER_NAMES`, though
            custom names are allowed for external mappers).
        nodes_expanded: Search states expanded.
        nodes_generated: Successor states generated.
        filtered_equivalent: Equivalence-filter drops.
        filtered_dominated: Dominance-filter drops.
        seconds: Wall-clock mapping time.
        **extra: Mapper-specific additions layered on top.

    Returns:
        A dict containing at least :data:`REQUIRED_STAT_KEYS`.
    """
    stats: Dict[str, float] = {
        STAT_MAPPER: mapper,
        STAT_NODES_EXPANDED: nodes_expanded,
        STAT_NODES_GENERATED: nodes_generated,
        STAT_FILTERED_EQUIVALENT: filtered_equivalent,
        STAT_FILTERED_DOMINATED: filtered_dominated,
        STAT_SECONDS: seconds,
    }
    stats.update(extra)
    return stats


def missing_stat_keys(stats: Dict[str, float]) -> List[str]:
    """Required keys absent from ``stats`` (empty list ⇔ conforming)."""
    return [key for key in REQUIRED_STAT_KEYS if key not in stats]


def validate_stats(stats: Dict[str, float]) -> None:
    """Raise ``ValueError`` when ``stats`` misses required schema keys."""
    missing = missing_stat_keys(stats)
    if missing:
        raise ValueError(
            f"stats dict missing required keys: {', '.join(missing)}"
        )


def stats_row(
    stats: Dict[str, float], keys: Iterable[str] = REQUIRED_STAT_KEYS
) -> Dict[str, float]:
    """Project ``stats`` onto ``keys`` (absent keys become ``None``)."""
    return {key: stats.get(key) for key in keys}
