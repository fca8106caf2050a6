"""Corpus-scale throughput harness: a benchmark *request stream*.

A mapping service does not see one circuit at a time — it sees a
sustained stream of requests drawn from a working set of circuits, with
the same circuits recurring as users iterate.  This module builds such a
stream from the evaluation's own benchmark families (QFT skeletons,
Wille/Table-1, OLSQ/Table-2, Table-3 large circuits), runs it through
:func:`~repro.analysis.batch.map_many`, and measures the fleet-level
number that matters for capacity planning: **circuits per minute**.

Three pieces:

* :func:`build_corpus` — a deterministic, seeded stream of
  ``(label, circuit)`` requests: ``size // repeat_factor`` distinct base
  circuits sampled from the families, each repeated ``repeat_factor``
  times, shuffled into request order.  Repetition is the point — it is
  what the per-worker architecture warm cache (see
  :mod:`repro.core.warmcache`) exists to exploit.
* :func:`run_corpus` — execute the stream on the work-stealing
  scheduler, warm cache on or off, and return a throughput summary (wall
  seconds, circuits/min, queue-wait fraction and warm-cache hit rate
  from the fleet rollup when telemetry is on).
* :func:`append_corpus_trajectory` — record ``corpus_fleet`` suites in
  ``BENCH_search.json`` so ``repro bench-trend --check`` gates fleet
  throughput alongside single-search node counts.

Every configuration routes identically: worker count and warm cache
change *where and how fast* each circuit is mapped, never the mapping — the
``repro corpus --verify-identity`` path re-runs the stream sequentially
and diffs depth / swap / node counts per request.
"""

from __future__ import annotations

import datetime
import json
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..benchcircuits import benchmark_circuit
from ..circuit.circuit import Circuit
from ..circuit.generators import qft_skeleton
from .batch import BatchTask, map_many

#: QFT skeleton sizes included in the base pool.  Sizes below 7 map in
#: single-digit milliseconds on a 20-qubit device — they benchmark
#: process-pool overhead, not mapping — so the pool starts where the
#: search itself is the cost (qft7 ~0.07 s ... qft10 ~0.8 s, heuristic
#: mapper on tokyo/IBM latency).
QFT_SIZES: Tuple[int, ...] = (7, 8, 9, 10)

#: Wille-benchmark (Table 1) names in the base pool — the rows with the
#: largest mapper overhead in the published table, so the family
#: contributes real search work rather than dispatch noise.
WILLE_NAMES: Tuple[str, ...] = (
    "4gt13_92", "4mod5-v0_19", "4mod5-v1_24",
    "alu-v3_34", "mod5d1_63", "mod5mils_65",
)

#: OLSQ-suite (Table 2) names in the base pool.
OLSQ_NAMES: Tuple[str, ...] = (
    "adder", "qaoa5", "queko_05_0", "queko_10_3", "queko_15_1",
)

#: Table-3 large-circuit names in the base pool (regenerated with
#: :data:`TABLE3_GATE_CAP` so one request stays in the low-seconds range
#: the stream needs).
TABLE3_NAMES: Tuple[str, ...] = ("qft_10", "cm82a_208", "rd53_251")

#: Gate cap applied to Table-3 circuits in the corpus.
TABLE3_GATE_CAP = 300


def _family_pools(
    max_qubits: int,
) -> List[Tuple[str, List[Tuple[str, Circuit]]]]:
    """Per-family base pools, filtered to circuits that fit the device."""
    families: List[Tuple[str, List[Tuple[str, Circuit]]]] = [
        ("qft", [(f"qft{s}", qft_skeleton(s)) for s in QFT_SIZES]),
        ("wille", [(n, benchmark_circuit(n)) for n in WILLE_NAMES]),
        ("olsq", [(n, benchmark_circuit(n)) for n in OLSQ_NAMES]),
        (
            "table3",
            [
                (n, benchmark_circuit(n, scale_gate_cap=TABLE3_GATE_CAP))
                for n in TABLE3_NAMES
            ],
        ),
    ]
    return [
        (
            family,
            [(n, c) for n, c in pool if c.num_qubits <= max_qubits],
        )
        for family, pool in families
    ]


def base_circuits(max_qubits: int = 20) -> List[Tuple[str, Circuit]]:
    """The distinct base circuits the stream samples from.

    Deterministic order (families in declaration order); circuits whose
    qubit count exceeds ``max_qubits`` are dropped so the corpus fits
    the target architecture.
    """
    return [
        pair for _, pool in _family_pools(max_qubits) for pair in pool
    ]


def build_corpus(
    size: int = 100,
    *,
    max_qubits: int = 20,
    repeat_factor: int = 10,
    seed: int = 0,
) -> List[Tuple[str, Circuit]]:
    """A seeded request stream of ``size`` ``(label, circuit)`` pairs.

    ``size // repeat_factor`` distinct base circuits (capped by the pool
    size) are chosen with ``seed``, stratified round-robin across the
    four benchmark families so every seed exercises a QFT / Wille /
    OLSQ / Table-3 mix rather than whatever an unstratified draw happens
    to hit.  The stream cycles through the chosen circuits and is then
    shuffled, so repeats of one circuit are spread through the stream
    rather than batched — the adversarial case for a warm cache.
    Labels are uniquified per occurrence (``qft8@3``) so batch records
    stay distinguishable.
    """
    if size <= 0:
        raise ValueError(f"corpus size must be positive, got {size}")
    if repeat_factor <= 0:
        raise ValueError(
            f"repeat_factor must be positive, got {repeat_factor}"
        )
    pools = [
        list(pool) for _, pool in _family_pools(max_qubits) if pool
    ]
    total = sum(len(pool) for pool in pools)
    if total == 0:
        raise ValueError(
            f"no base circuits fit max_qubits={max_qubits}"
        )
    rng = random.Random(seed)
    for pool in pools:
        rng.shuffle(pool)
    distinct = max(1, min(total, size // repeat_factor))
    chosen: List[Tuple[str, Circuit]] = []
    turn = 0
    while len(chosen) < distinct:
        pool = pools[turn % len(pools)]
        if pool:
            chosen.append(pool.pop())
        turn += 1
    stream = [chosen[i % distinct] for i in range(size)]
    rng.shuffle(stream)
    counts: Dict[str, int] = {}
    labeled: List[Tuple[str, Circuit]] = []
    for name, circuit in stream:
        counts[name] = counts.get(name, 0) + 1
        labeled.append((f"{name}@{counts[name]}", circuit))
    return labeled


def corpus_tasks(
    stream: List[Tuple[str, Circuit]],
    mapper_factory: Callable[[], object],
) -> List[BatchTask]:
    """One :class:`BatchTask` per request, each with its own mapper."""
    return [
        BatchTask(label=label, circuit=circuit, mapper=mapper_factory())
        for label, circuit in stream
    ]


def run_corpus(
    stream: List[Tuple[str, Circuit]],
    mapper_factory: Callable[[], object],
    *,
    workers: int = 4,
    warm_cache: bool = True,
    telemetry_dir: Optional[str] = None,
    max_nodes: Optional[int] = None,
    max_seconds: Optional[float] = None,
    run_id: Optional[str] = None,
) -> Dict:
    """Map the whole stream once; return a throughput summary.

    The summary's ``circuits_per_min`` uses the harness's own wall clock
    around :func:`map_many` (submission to last result), not the fleet
    rollup's shard-timestamp estimate — it includes scheduler and
    pickling overhead, which is exactly what a capacity plan must
    include.  ``queue_wait_frac`` and ``warm_cache_hit_rate`` come from
    the fleet rollup and are ``None`` without ``telemetry_dir``.
    """
    telemetry_spec = None
    if telemetry_dir is not None:
        from ..obs.telemetry import TelemetrySpec

        telemetry_spec = TelemetrySpec(
            directory=telemetry_dir, run_id=run_id
        )
    tasks = corpus_tasks(stream, mapper_factory)
    started = time.perf_counter()
    records = map_many(
        tasks,
        max_workers=workers,
        max_nodes=max_nodes,
        max_seconds=max_seconds,
        keep_results=False,
        telemetry_spec=telemetry_spec,
        warm_cache=warm_cache,
    )
    wall = time.perf_counter() - started
    ok = sum(1 for record in records if record.ok)
    nodes = sum(
        int((record.stats or {}).get("nodes_expanded") or 0)
        for record in records
    )
    queue_wait_frac = None
    warm_hit_rate = None
    if telemetry_spec is not None:
        from ..obs.export import fleet_rollup

        fleet = fleet_rollup(telemetry_dir).get("fleet", {})
        queue_wait_frac = fleet.get("queue_wait_frac")
        warm_hit_rate = fleet.get("warm_cache_hit_rate")
    distinct = len({label.rsplit("@", 1)[0] for label, _ in stream})
    return {
        "scheduler": "stealing",
        "warm_cache": warm_cache,
        "workers": workers,
        "circuits": len(records),
        "distinct_circuits": distinct,
        "ok": ok,
        "failed": len(records) - ok,
        "wall_seconds": wall,
        "circuits_per_min": 60.0 * len(records) / wall if wall > 0 else 0.0,
        "mapping_seconds": sum(record.seconds for record in records),
        "nodes_expanded": nodes,
        "queue_wait_frac": queue_wait_frac,
        "warm_cache_hit_rate": warm_hit_rate,
        "records": [
            {
                "label": record.label,
                "ok": record.ok,
                "depth": record.depth,
                "swaps": record.swaps,
                "seconds": record.seconds,
                "nodes_expanded": (record.stats or {}).get("nodes_expanded"),
                "error": record.error,
                "error_type": record.error_type,
            }
            for record in records
        ],
    }


def identity_mismatches(run_a: Dict, run_b: Dict) -> List[str]:
    """Per-request result differences between two :func:`run_corpus` runs.

    Compares depth, swap count and ``nodes_expanded`` label by label —
    the fields the acceptance contract pins (search results are
    deterministic, so equal counts mean the searches took identical
    paths).  Returns human-readable mismatch lines; empty means
    bit-identical.
    """
    mismatches: List[str] = []
    records_b = {record["label"]: record for record in run_b["records"]}
    for rec_a in run_a["records"]:
        rec_b = records_b.get(rec_a["label"])
        if rec_b is None:
            mismatches.append(f"{rec_a['label']}: missing from second run")
            continue
        for field in ("ok", "depth", "swaps", "nodes_expanded"):
            if rec_a[field] != rec_b[field]:
                mismatches.append(
                    f"{rec_a['label']}: {field} {rec_a[field]} != "
                    f"{rec_b[field]}"
                )
    if len(run_a["records"]) != len(run_b["records"]):
        mismatches.append(
            f"record count {len(run_a['records'])} != "
            f"{len(run_b['records'])}"
        )
    return mismatches


# ----------------------------------------------------------------------
# BENCH_search.json trajectory recording
# ----------------------------------------------------------------------

#: Schema written when the trajectory file does not exist yet (matches
#: benchmarks/bench_search_perf.py).
BENCH_SCHEMA = "repro.bench_search/2"


def corpus_suite(summary: Dict) -> Tuple[str, Dict]:
    """One ``corpus_fleet`` suite entry from a :func:`run_corpus` summary."""
    name = "corpus_fleet"
    suite = {
        "kind": "corpus-fleet",
        "scheduler": summary["scheduler"],
        "warm_cache": summary["warm_cache"],
        "workers": summary["workers"],
        "circuits": summary["circuits"],
        "distinct_circuits": summary.get("distinct_circuits"),
        "wall_seconds": summary["wall_seconds"],
        "circuits_per_min": summary["circuits_per_min"],
        "nodes_expanded": summary["nodes_expanded"],
    }
    if summary.get("queue_wait_frac") is not None:
        suite["queue_wait_frac"] = summary["queue_wait_frac"]
    if summary.get("warm_cache_hit_rate") is not None:
        suite["warm_cache_hit_rate"] = summary["warm_cache_hit_rate"]
    return name, suite


def append_corpus_trajectory(
    json_path: str,
    suites: Dict[str, Dict],
    *,
    kernel_backend: Optional[str] = None,
    run_id: Optional[str] = None,
    ledger_path: Optional[str] = None,
) -> Dict:
    """Append one trajectory entry carrying ``suites`` to ``json_path``.

    The entry mirrors ``benchmarks/bench_search_perf.py``'s shape
    (commit, UTC date, mode/pruning/kernel-backend configuration keys)
    so ``repro bench-trend`` tabulates and ``--check`` gates corpus
    suites exactly like search suites.  The existing report's other
    top-level fields (schema, baseline) are preserved; a missing file is
    created fresh.

    ``run_id`` / ``ledger_path`` make the row traceable: the full git
    SHA plus the ledger entry (config fingerprint, artifacts, host info)
    behind this aggregate lives at ``<ledger_path>/index.jsonl`` under
    ``run_id``.  Both are recorded as ``None`` when no ledger was
    configured, keeping the entry shape stable.
    """
    import os
    import platform

    from ..obs.ledger import git_sha

    if kernel_backend is None:
        from ..core.kernels import resolve_backend

        kernel_backend = resolve_backend(None).name
    try:
        with open(json_path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        if not isinstance(report, dict):
            report = {}
    except (OSError, ValueError):
        report = {}
    report.setdefault("schema", BENCH_SCHEMA)
    trajectory = report.get("trajectory")
    if not isinstance(trajectory, list):
        trajectory = []
    entry = {
        "commit": git_sha(short=True),
        "git_sha": git_sha(),
        "run_id": run_id,
        "ledger_path": ledger_path,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "mode": "full",
        "pruning": "on",
        "kernel_backend": kernel_backend,
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "suites": suites,
    }
    trajectory.append(entry)
    report["trajectory"] = trajectory
    directory = os.path.dirname(json_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return entry
