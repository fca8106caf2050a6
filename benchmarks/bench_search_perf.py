"""Search-performance trajectory harness: emits ``BENCH_search.json``.

Unlike the figure/table benches (which reproduce *paper* numbers), this
script tracks *our own* mapper throughput over time so performance work
has a recorded baseline to be held against.  It runs a small suite of
exact and heuristic searches, computes nodes/sec, wall time and the
heuristic-memo hit rate per suite, and writes everything — including the
pre-recorded baseline and the speedup against it — to one JSON file.

Run it directly (no pytest)::

    PYTHONPATH=src python benchmarks/bench_search_perf.py
    PYTHONPATH=src python benchmarks/bench_search_perf.py --tiny \
        --out /tmp/BENCH_search.json

``--tiny`` shrinks every suite for CI smoke runs; ``--check-speedup``
exits non-zero when the QFT-8/LNN microbench regresses below the given
multiple of the recorded baseline (off by default — CI uploads the JSON
but never gates on wall-clock, which is too noisy on shared runners).

How to read the output: ``suites.<name>.nodes_per_sec`` is the
throughput headline (median over iterations); ``memo_hit_rate`` is
``hits / (hits + misses)`` of the whole-evaluation heuristic cache; and
``speedup_vs_baseline`` divides the current microbench throughput by
``baseline.qft8_lnn_exact_nodes_per_sec``, which was measured on the
commit named in ``baseline.commit`` with this same script's
methodology.

The report is *append-only over time*: every run adds one entry to the
``trajectory`` list (``{commit, date, mode, pruning, suites}``) while
the top-level fields always describe the latest run.  ``--no-prune``
runs the exact-solve suites with every search-space reduction disabled
(incumbent bound, active-SWAP restriction, symmetry quotient) — the
"before" point the pruned default is compared against; ``repro
bench-trend`` tabulates the whole trajectory.

The ``*_solve`` suites measure mode 2 end-to-end (initial-mapping
search + routing, the paper's Table-2 configuration); the budgeted
microbench keeps the reduction-free mode-1 configuration so its
nodes/sec stays comparable with the recorded pre-overhaul baseline.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, Optional

from repro.analysis.batch import BatchTask, map_many
from repro.arch import grid, lnn
from repro.circuit import uniform_latency
from repro.circuit.generators import qft_skeleton, random_circuit
from repro.core import HeuristicMapper, OptimalMapper, SearchBudgetExceeded
from repro.core.kernels import BACKEND_NAMES, resolve_backend

#: Throughput of the QFT-8/LNN exact microbench measured immediately
#: before the hot-path overhaul landed, with this script's methodology
#: (median of 3 runs, 20k-node budget, uniform(1,3) latency).  The
#: trajectory point every later run is compared against.
BASELINE = {
    "commit": "b9dead3",
    "label": "pre-overhaul",
    "qft8_lnn_exact_nodes_per_sec": 3882.1,
}

MICRO_SUITE = "qft8_lnn_exact"


def _memo_hit_rate(stats: Dict) -> Optional[float]:
    hits = stats.get("memo_hits")
    misses = stats.get("memo_misses")
    if hits is None or misses is None or hits + misses == 0:
        return None
    return hits / (hits + misses)


def _run_exact_budgeted(num_qubits: int, max_nodes: int,
                        iterations: int, kernel: Optional[str]) -> Dict:
    """Exact search driven into its node budget: pure-throughput probe."""
    circuit = qft_skeleton(num_qubits)
    samples = []
    for _ in range(iterations):
        # Reduction-free configuration: the recorded baseline predates
        # the branch-and-bound layer, so the throughput microbench keeps
        # measuring the raw expansion loop.
        mapper = OptimalMapper(
            lnn(num_qubits), uniform_latency(1, 3), max_nodes=max_nodes,
            prune_swaps=False, seed_incumbent=False, reduce_symmetry=False,
            kernel=kernel,
        )
        try:
            result = mapper.map(
                circuit, initial_mapping=list(range(num_qubits))
            )
            stats = result.stats  # solved inside the budget (tiny mode)
        except SearchBudgetExceeded as exc:
            stats = exc.partial_stats
        samples.append(stats)
    rates = [s["nodes_expanded"] / s["seconds"] for s in samples]
    mid = samples[len(samples) // 2]
    return {
        "kind": "exact-budgeted",
        "iterations": iterations,
        "nodes_expanded": int(mid["nodes_expanded"]),
        "wall_seconds": statistics.median(s["seconds"] for s in samples),
        "nodes_per_sec": statistics.median(rates),
        "memo_hit_rate": _memo_hit_rate(mid),
    }


def _run_exact_solve(num_qubits: int, arch, iterations: int,
                     pruned: bool, kernel: Optional[str]) -> Dict:
    """Mode-2 exact solve (placement + routing) run to optimality.

    ``pruned`` toggles the whole search-space-reduction layer at once
    (incumbent bound, active-SWAP restriction, symmetry quotient); the
    resulting ``nodes_expanded`` is deterministic either way, which is
    what lets CI gate on it.
    """
    circuit = qft_skeleton(num_qubits)
    samples = []
    depth = None
    for _ in range(iterations):
        mapper = OptimalMapper(
            arch, uniform_latency(1, 3), search_initial_mapping=True,
            prune_swaps=pruned, seed_incumbent=pruned,
            reduce_symmetry=pruned, kernel=kernel,
        )
        result = mapper.map(circuit)
        depth = result.depth
        samples.append(result.stats)
    rates = [s["nodes_expanded"] / s["seconds"] for s in samples]
    mid = samples[len(samples) // 2]
    return {
        "kind": "exact-solve-mode2",
        "iterations": iterations,
        "pruned": pruned,
        "depth": depth,
        "nodes_expanded": int(mid["nodes_expanded"]),
        "pruned_by_bound": int(mid.get("pruned_by_bound", 0)),
        "symmetry_pruned": int(mid.get("symmetry_pruned", 0)),
        "swaps_restricted": int(mid.get("swaps_restricted", 0)),
        "wall_seconds": statistics.median(s["seconds"] for s in samples),
        "nodes_per_sec": statistics.median(rates),
        "memo_hit_rate": _memo_hit_rate(mid),
    }


def _run_portfolio_solve(num_qubits: int, arch, iterations: int,
                         kernel: Optional[str]) -> Dict:
    """Portfolio race to a proven optimum, against the seeded baseline.

    Records the before/after node counts the portfolio work is judged
    by: ``baseline_nodes_expanded`` is the incumbent-seeded exact search
    (the pre-portfolio configuration), ``nodes_expanded`` the portfolio
    exact lane with every bound on.  Both are deterministic — the held
    seed is offered before the exact lane starts and the side lanes
    never beat it on these instances — so ``bench-trend --check`` gates
    on the node count as tightly as on the other solve suites.
    """
    from repro.analysis.portfolio import PortfolioMapper

    circuit = qft_skeleton(num_qubits)
    latency = uniform_latency(1, 3)
    baseline = OptimalMapper(
        arch, latency, search_initial_mapping=True, kernel=kernel
    ).map(circuit)
    samples = []
    depth = None
    optimal = False
    for _ in range(iterations):
        result = PortfolioMapper(arch, latency, kernel=kernel).map(circuit)
        depth = result.depth
        optimal = result.optimal
        samples.append(result.stats)
    rates = [s["nodes_expanded"] / s["seconds"] for s in samples]
    mid = samples[len(samples) // 2]
    nodes = int(mid["nodes_expanded"])
    base_nodes = int(baseline.stats["nodes_expanded"])
    return {
        "kind": "portfolio-solve-mode2",
        "iterations": iterations,
        "depth": depth,
        "optimal": optimal,
        "lanes_finished": int(mid.get("lanes_finished", 0)),
        "winner_lane": mid.get("winner_lane"),
        "nodes_expanded": nodes,
        "closed_dominated": int(mid.get("closed_dominated", 0)),
        "root_candidates_restricted": int(
            mid.get("root_candidates_restricted", 0)
        ),
        "baseline_nodes_expanded": base_nodes,
        "nodes_reduction_pct": (
            round(100.0 * (base_nodes - nodes) / base_nodes, 1)
            if base_nodes else 0.0
        ),
        "wall_seconds": statistics.median(s["seconds"] for s in samples),
        "nodes_per_sec": statistics.median(rates),
        "memo_hit_rate": _memo_hit_rate(mid),
    }


def _run_heuristic(num_qubits: int, iterations: int,
                   kernel: Optional[str]) -> Dict:
    """Practical-mapper probe (layer-limited search, trimmed queue)."""
    circuit = qft_skeleton(num_qubits)
    samples = []
    depth = None
    for _ in range(iterations):
        mapper = HeuristicMapper(
            lnn(num_qubits), uniform_latency(1, 3), kernel=kernel
        )
        result = mapper.map(circuit, initial_mapping=list(range(num_qubits)))
        depth = result.depth
        samples.append(result.stats)
    rates = [s["nodes_expanded"] / s["seconds"] for s in samples]
    mid = samples[len(samples) // 2]
    return {
        "kind": "heuristic",
        "iterations": iterations,
        "depth": depth,
        "nodes_expanded": int(mid["nodes_expanded"]),
        "wall_seconds": statistics.median(s["seconds"] for s in samples),
        "nodes_per_sec": statistics.median(rates),
        "memo_hit_rate": _memo_hit_rate(mid),
    }


def _run_batch(num_circuits: int, workers: int,
               kernel: Optional[str]) -> Dict:
    """Batch-runner probe: map_many over random circuits."""
    tasks = [
        BatchTask(
            label=f"rand5-{seed}",
            circuit=random_circuit(5, 8, seed=seed),
            mapper=OptimalMapper(
                lnn(5), uniform_latency(1, 3), max_nodes=50000,
                kernel=kernel,
            ),
        )
        for seed in range(num_circuits)
    ]
    start = time.perf_counter()
    records = map_many(tasks, max_workers=workers, keep_results=False)
    wall = time.perf_counter() - start
    nodes = sum(int(r.stats.get("nodes_expanded", 0)) for r in records)
    return {
        "kind": "batch",
        "circuits": num_circuits,
        "workers": workers,
        "succeeded": sum(1 for r in records if r.ok),
        "nodes_expanded": nodes,
        "wall_seconds": wall,
        "nodes_per_sec": nodes / wall if wall > 0 else None,
        "memo_hit_rate": None,
    }


def run_suites(tiny: bool, pruned: bool = True,
               kernel: Optional[str] = None) -> Dict[str, Dict]:
    if tiny:
        return {
            MICRO_SUITE: _run_exact_budgeted(
                6, max_nodes=2000, iterations=1, kernel=kernel
            ),
            "qft4_lnn_solve": _run_exact_solve(
                4, lnn(4), iterations=3, pruned=pruned, kernel=kernel
            ),
            "portfolio_qft_lnn": _run_portfolio_solve(
                4, lnn(4), iterations=1, kernel=kernel
            ),
            "heuristic_qft6_lnn": _run_heuristic(
                6, iterations=2, kernel=kernel
            ),
            "batch_random5": _run_batch(
                num_circuits=2, workers=1, kernel=kernel
            ),
        }
    return {
        MICRO_SUITE: _run_exact_budgeted(
            8, max_nodes=20000, iterations=3, kernel=kernel
        ),
        "qft5_lnn_solve": _run_exact_solve(
            5, lnn(5), iterations=3, pruned=pruned, kernel=kernel
        ),
        "qft6_2xn_solve": _run_exact_solve(
            6, grid(2, 3), iterations=3, pruned=pruned, kernel=kernel
        ),
        "portfolio_qft_lnn": _run_portfolio_solve(
            5, lnn(5), iterations=3, kernel=kernel
        ),
        "heuristic_qft8_lnn": _run_heuristic(8, iterations=3, kernel=kernel),
        "batch_random5": _run_batch(num_circuits=4, workers=1, kernel=kernel),
    }


def _trajectory_entry(
    report: Dict,
    run_id: Optional[str] = None,
    ledger_path: Optional[str] = None,
) -> Dict:
    """Compact per-run record appended to the ``trajectory`` list.

    ``run_id`` / ``git_sha`` / ``ledger_path`` make each bench-trend row
    traceable to full artifacts: the short ``commit`` stays for display,
    the full SHA pins the exact tree, and the run's ledger entry (host
    info, config fingerprint, artifacts) lives under ``run_id`` in
    ``<ledger_path>/index.jsonl``.  ``ledger_path`` is ``None`` when no
    ledger was configured.
    """
    from repro.obs.ledger import git_sha

    return {
        "commit": git_sha(short=True),
        "git_sha": git_sha(),
        "run_id": run_id,
        "ledger_path": ledger_path,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "mode": report["mode"],
        "pruning": report["pruning"],
        "kernel_backend": report["kernel_backend"],
        "python_version": report["python_version"],
        "cpu_count": report["cpu_count"],
        "suites": {
            name: {
                key: suite[key]
                for key in ("kind", "depth", "nodes_expanded",
                            "nodes_per_sec", "wall_seconds")
                if key in suite
            }
            for name, suite in report["suites"].items()
        },
    }


def _load_trajectory(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        return []
    trajectory = previous.get("trajectory")
    return list(trajectory) if isinstance(trajectory, list) else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrunken suites for CI smoke runs (microbench label kept, "
             "but throughput is NOT comparable to full runs)",
    )
    parser.add_argument(
        "--out", default="benchmarks/results/BENCH_search.json",
        help="output path for the JSON report",
    )
    parser.add_argument(
        "--check-speedup", type=float, default=None, metavar="X",
        help="exit 1 unless microbench nodes/sec >= X * recorded baseline "
             "(full mode only)",
    )
    parser.add_argument(
        "--no-prune", action="store_true",
        help="run the exact-solve suites with every search-space "
             "reduction disabled (the 'before' trajectory point)",
    )
    parser.add_argument(
        "--kernel", default=None, choices=BACKEND_NAMES,
        help="kernel backend for every suite (default: best available); "
             "the resolved backend is recorded per trajectory entry and "
             "bench-trend only compares entries of the same backend",
    )
    parser.add_argument(
        "--flight-recorder", default=None, metavar="DIR",
        help="attach the passive flight recorder (resource sampler + "
             "sampling profiler, search stays on the fast path) across "
             "the whole run; writes flight.jsonl + profile.folded under "
             "DIR and a summary into the report",
    )
    parser.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="record this bench run in the run ledger at DIR (also "
             "honors $REPRO_LEDGER_DIR); every trajectory entry carries "
             "the run_id either way",
    )
    args = parser.parse_args(argv)

    from repro.obs.ledger import LEDGER_ENV, RunLedger, new_run_id

    run_id = new_run_id()
    ledger_run = None
    ledger_root = args.ledger_dir or os.environ.get(LEDGER_ENV)
    if ledger_root:
        ledger = RunLedger(ledger_root)
        ledger_run = ledger.open_run(
            "bench",
            {
                "mode": "tiny" if args.tiny else "full",
                "pruning": "off" if args.no_prune else "on",
                "kernel": args.kernel,
            },
            run_id=run_id,
        )

    recorder = None
    if args.flight_recorder:
        from repro.obs import JsonlSink, Telemetry

        os.makedirs(args.flight_recorder, exist_ok=True)
        recorder = Telemetry(
            sink=JsonlSink(
                os.path.join(args.flight_recorder, "flight.jsonl")
            ),
            sample_resources=True,
            profile=True,
            profile_collapsed=os.path.join(
                args.flight_recorder, "profile.folded"
            ),
            hot_path=False,
        )

    backend = resolve_backend(args.kernel).name
    suites = run_suites(args.tiny, pruned=not args.no_prune,
                        kernel=args.kernel)
    flight_summary = None
    if recorder is not None:
        final = recorder.finish() or {}
        profile = final.get("profile", {})
        flight_summary = {
            "directory": args.flight_recorder,
            "resources": final.get("resources", {}),
            "profile": {
                key: profile.get(key)
                for key in ("samples", "kernel_samples", "kernel_pct")
            },
        }
    report = {
        "schema": "repro.bench_search/2",
        "mode": "tiny" if args.tiny else "full",
        "pruning": "off" if args.no_prune else "on",
        "kernel_backend": backend,
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "baseline": dict(BASELINE),
        "suites": suites,
    }
    if flight_summary is not None:
        report["flight_recorder"] = flight_summary
    if not args.tiny:
        current = suites[MICRO_SUITE]["nodes_per_sec"]
        report["speedup_vs_baseline"] = {
            MICRO_SUITE: current / BASELINE["qft8_lnn_exact_nodes_per_sec"]
        }
    report["trajectory"] = _load_trajectory(args.out) + [
        _trajectory_entry(
            report,
            run_id=run_id,
            ledger_path=ledger_run.ledger.root if ledger_run else None,
        )
    ]

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    if ledger_run is not None:
        ledger_run.add_artifact("bench_json", args.out)
        if args.flight_recorder:
            ledger_run.add_artifact("flight_recorder", args.flight_recorder)
        ledger_run.finish("ok", stats={
            name: {
                "nodes_expanded": suite.get("nodes_expanded"),
                "nodes_per_sec": suite.get("nodes_per_sec"),
            }
            for name, suite in suites.items()
        })

    print(f"{'kernel backend':22s} {backend:>18s}  "
          f"(python {report['python_version']}, "
          f"{report['cpu_count']} cpu)")
    for name, suite in suites.items():
        rate = suite.get("nodes_per_sec")
        rate_txt = f"{rate:,.0f} nodes/s" if rate else "—"
        memo = suite.get("memo_hit_rate")
        memo_txt = f"memo {memo:.1%}" if memo is not None else "memo —"
        print(f"{name:22s} {rate_txt:>18s}  "
              f"{suite['wall_seconds']:.3f}s  {memo_txt}")
    if "speedup_vs_baseline" in report:
        speedup = report["speedup_vs_baseline"][MICRO_SUITE]
        print(f"{'speedup vs baseline':22s} {speedup:>17.2f}x  "
              f"(baseline {BASELINE['commit']})")
        if args.check_speedup is not None and speedup < args.check_speedup:
            print(
                f"FAIL: microbench speedup {speedup:.2f}x below required "
                f"{args.check_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
