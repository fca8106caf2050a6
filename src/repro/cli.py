"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``map`` — route a circuit (QASM file or built-in benchmark) onto an
  architecture with a chosen mapper and print the verified schedule;
* ``diagnose`` — analyze an expansion-level search trace recorded with
  ``map --search-trace``: pruning attribution, heuristic-accuracy
  audit, frontier dynamics, incumbent timeline;
* ``obs-report`` — render a telemetry JSONL file or a fleet shard
  directory (``map-batch --telemetry-dir``) as a human summary table
  or Prometheus text exposition format;
* ``corpus`` — corpus-scale throughput sweep: map a seeded benchmark
  request stream across the worker pool and report circuits/min
  (optionally recording the ``corpus_fleet`` suite for
  ``bench-trend --check``);
* ``benchmarks`` — list the regenerable benchmark names;
* ``bench-trend`` — tabulate the recorded search-perf trajectory
  (``benchmarks/results/BENCH_search.json``); ``--check`` turns it
  into a CI perf-regression gate;
* ``runs`` — query the persistent run ledger (``--ledger-dir`` /
  ``$REPRO_LEDGER_DIR``): ``list`` / ``show`` / counter-by-counter
  ``diff`` / ledger-wide ``regressions`` scan / ``gc --keep N``;
* ``top`` — live fleet monitor over a ``--telemetry-dir``: per-worker
  throughput, queue depth, warm-cache hit rate, incumbent timeline;
* ``archs`` — list the built-in architectures.

Examples::

    python -m repro map --circuit qft:6 --arch lnn-6 --mapper optimal \
        --latency qft
    python -m repro map --circuit examples.qasm --arch tokyo \
        --mapper heuristic --latency ibm
    python -m repro map --circuit bench:adder --arch grid2by3 \
        --mapper optimal --latency olsq --search-initial
    python -m repro map --circuit qft:5 --arch lnn-5 \
        --trace --metrics-out telemetry.jsonl --progress
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .arch import architecture_names, by_name
from .baselines import (
    OlsqStyleMapper,
    SabreMapper,
    TrivialMapper,
    ZulehnerMapper,
)
from .benchcircuits import benchmark_circuit, benchmark_names
from .circuit import (
    Circuit,
    IBM_LATENCY,
    OLSQ_LATENCY,
    QFT_LATENCY,
    LatencyModel,
    load_qasm_file,
    to_qasm,
    uniform_latency,
)
from .circuit.generators import qft_skeleton, random_circuit
from .core import HeuristicMapper, OptimalMapper, SearchBudgetExceeded
from .core.kernels import BACKEND_NAMES, PROBE_ORDER
from .obs import JsonlSink, Telemetry, TraceRecorder
from .verify import validate_result

_LATENCIES = {
    "unit": uniform_latency(1, 3),
    "qft": QFT_LATENCY,
    "olsq": OLSQ_LATENCY,
    "ibm": IBM_LATENCY,
}


def _load_circuit(spec: str) -> Circuit:
    """Resolve a circuit spec: ``qft:N``, ``random:N:G[:SEED]``,
    ``bench:NAME``, or a ``.qasm`` path."""
    if spec.startswith("qft:"):
        return qft_skeleton(int(spec.split(":", 1)[1]))
    if spec.startswith("random:"):
        parts = spec.split(":")[1:]
        n, gates = int(parts[0]), int(parts[1])
        seed = int(parts[2]) if len(parts) > 2 else 0
        return random_circuit(n, gates, seed=seed)
    if spec.startswith("bench:"):
        return benchmark_circuit(spec.split(":", 1)[1])
    return load_qasm_file(spec)


#: The four literature-grade pruning levers shared by ``optimal`` and
#: ``portfolio``: mapper keyword → CLI attribute.  Tri-state flags
#: (``--X`` / ``--no-X`` / absent), so each mapper keeps its own default
#: (all off for ``optimal``, all on for ``portfolio``) unless overridden.
_BOUND_FLAGS = {
    "assignment_bound": "assignment_bound",
    "layer_bound": "layer_bound",
    "root_restriction": "root_restriction",
    "closed_dominance": "closed_dominance",
}


def _bound_kwargs(args, default: bool) -> dict:
    kwargs = {}
    for keyword, attr in _BOUND_FLAGS.items():
        value = getattr(args, attr, None)
        kwargs[keyword] = default if value is None else value
    return kwargs


def _build_mapper(name: str, coupling, latency: LatencyModel, args,
                  telemetry: Optional[Telemetry] = None):
    if name == "optimal":
        # map-batch shares this builder but lacks the bound-and-prune
        # flags; fall back to the library defaults there.
        return OptimalMapper(
            coupling,
            latency,
            search_initial_mapping=args.search_initial,
            max_nodes=getattr(args, "max_nodes", None),
            max_seconds=args.budget,
            deadline=getattr(args, "deadline", None),
            prune_swaps=not getattr(args, "no_prune_swaps", False),
            seed_incumbent=not getattr(args, "no_seed_incumbent", False),
            reduce_symmetry=not getattr(
                args, "no_symmetry_reduction", False
            ),
            mode2_workers=getattr(args, "mode2_workers", None),
            telemetry=telemetry,
            kernel=getattr(args, "kernel", None),
            **_bound_kwargs(args, default=False),
        )
    if name == "portfolio":
        from .analysis.portfolio import PortfolioMapper

        lanes = [
            lane.strip()
            for lane in getattr(
                args, "portfolio_lanes", "exact,heuristic,sabre"
            ).split(",")
            if lane.strip()
        ]
        # The exhaustion promotion needs the exact lane's space to cover
        # the side lanes' placements, so the portfolio always runs mode 2
        # (--search-initial is implied).
        return PortfolioMapper(
            coupling,
            latency,
            lanes=lanes,
            deadline=getattr(args, "deadline", None),
            max_nodes=getattr(args, "max_nodes", None),
            max_seconds=args.budget,
            sabre_seed=args.seed,
            telemetry=telemetry,
            kernel=getattr(args, "kernel", None),
            **_bound_kwargs(args, default=True),
        )
    if name == "heuristic":
        return HeuristicMapper(
            coupling, latency, telemetry=telemetry,
            kernel=getattr(args, "kernel", None),
        )
    if name == "sabre":
        return SabreMapper(
            coupling, latency, seed=args.seed, telemetry=telemetry
        )
    if name == "zulehner":
        return ZulehnerMapper(coupling, latency, telemetry=telemetry)
    if name == "olsq":
        return OlsqStyleMapper(
            coupling, latency, max_seconds=args.budget, telemetry=telemetry
        )
    if name == "trivial":
        return TrivialMapper(coupling, latency, telemetry=telemetry)
    raise KeyError(name)


def _open_ledger_run(args, kind: str, config: dict):
    """Open a run-ledger entry when a ledger is configured; else None.

    The ledger activates only when ``--ledger-dir`` is given or
    ``$REPRO_LEDGER_DIR`` is set — never by default, so ordinary
    invocations (and the test suite) write nothing outside the paths
    they were asked to.  A ledger that cannot be opened degrades to a
    stderr warning rather than failing the mapping run itself.
    """
    import os

    from .obs.ledger import LEDGER_ENV, RunLedger

    root = getattr(args, "ledger_dir", None) or os.environ.get(LEDGER_ENV)
    if not root:
        return None
    try:
        return RunLedger(root).open_run(kind, config)
    except OSError as exc:
        print(f"warning: run ledger disabled: {exc}", file=sys.stderr)
        return None


def _finish_ledger_run(run, status: str = "ok", stats=None, error=None,
                       extra=None) -> None:
    """Record the run's index row and tell the user where (stderr, so
    stdout stays exactly the mapping report scripts already parse)."""
    if run is None:
        return
    run.finish(status, stats=stats, error=error, extra=extra)
    print(
        f"recorded run {run.run_id} in ledger {run.ledger.root}",
        file=sys.stderr,
    )


def _build_telemetry(args, run_id: Optional[str] = None) -> Optional[Telemetry]:
    """Telemetry context for ``map``; None when no flag asks for one.

    Span/metrics/progress flags instrument the search itself
    (``hot_path=True`` — the search loop gets a live hook);
    ``--sample-resources`` / ``--profile`` alone attach only the
    flight recorder, leaving the search with the null hook.
    """
    search_trace_path = getattr(args, "search_trace", None)
    hot_path = bool(
        args.trace or args.metrics_out or args.progress or search_trace_path
    )
    flight_recorder = bool(
        getattr(args, "sample_resources", False)
        or getattr(args, "profile", False)
    )
    if not (hot_path or flight_recorder):
        return None
    if args.metrics_out:
        try:  # fail now, not mid-search when the sink lazily opens
            open(args.metrics_out, "w", encoding="utf-8").close()
        except OSError as exc:
            raise SystemExit(
                f"error: cannot write --metrics-out {args.metrics_out}: {exc}"
            )
        sink = JsonlSink(args.metrics_out)
    else:
        sink = None
    search_trace = None
    if search_trace_path:
        try:
            open(search_trace_path, "w", encoding="utf-8").close()
        except OSError as exc:
            raise SystemExit(
                f"error: cannot write --search-trace "
                f"{search_trace_path}: {exc}"
            )
        search_trace = TraceRecorder(
            sink=JsonlSink(search_trace_path),
            mode=args.search_trace_mode,
            ring_size=args.search_trace_ring,
            sample_every=args.search_trace_sample,
        )
    telemetry = Telemetry(
        trace=args.trace,
        sink=sink,
        progress_every=args.progress_every,
        search_trace=search_trace,
        sample_resources=getattr(args, "sample_resources", False),
        resource_interval=getattr(args, "resource_interval", 0.05),
        profile=getattr(args, "profile", False),
        profile_interval=getattr(args, "profile_interval", 0.005),
        profile_collapsed=getattr(args, "profile_out", None),
        hot_path=hot_path,
        run_id=run_id,
    )
    if args.progress:
        telemetry.progress.subscribe(
            lambda event: print(event, file=sys.stderr)
        )
    return telemetry


def _finish_telemetry(args, telemetry: Optional[Telemetry]) -> None:
    """Flush one ``map`` run's telemetry and report where it went."""
    if telemetry is None:
        return
    record = telemetry.finish() or {}
    if getattr(args, "sample_resources", False) and "resources" in record:
        res = record["resources"]
        peak = res.get("peak_rss_bytes") or 0
        print(
            f"resources: peak_rss={peak / (1024 * 1024):.1f}MiB "
            f"cpu_user={res.get('cpu_user_s', 0.0)}s "
            f"cpu_sys={res.get('cpu_sys_s', 0.0)}s "
            f"gc_windows={res.get('gc_windows', 0)} "
            f"gc_suspended={res.get('gc_suspended_s', 0.0)}s",
            file=sys.stderr,
        )
    if getattr(args, "profile", False) and telemetry.profiler is not None:
        print(telemetry.profiler.render_table(), file=sys.stderr)
        if getattr(args, "profile_out", None):
            print(f"wrote collapsed stacks to {args.profile_out}",
                  file=sys.stderr)
    if args.metrics_out:
        print(f"wrote telemetry to {args.metrics_out}")
    if getattr(args, "search_trace", None):
        print(f"wrote search trace to {args.search_trace}")


def _print_stats(stats: dict) -> None:
    cells = "  ".join(
        f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
        for key, value in stats.items()
    )
    print(f"stats    : {cells}")


def _map_run_config(args, circuit, coupling, latency) -> dict:
    """The reproducible configuration of one ``map`` invocation.

    Circuit and (coupling, latency) structure are captured as content
    digests — the same fingerprints the warm cache keys on — so two
    runs group together exactly when they solved the same problem with
    the same mapper and flags, regardless of file paths or spec
    spelling (``qft:5`` vs an equivalent QASM file).
    """
    from .core.warmcache import arch_fingerprint, circuit_fingerprint

    config = {
        "command": "map",
        "circuit": args.circuit,
        "circuit_sha": circuit_fingerprint(circuit)[:16],
        "arch": args.arch,
        "arch_sha": arch_fingerprint(coupling, latency)[:16],
        "latency": args.latency,
        "mapper": args.mapper,
        "kernel": getattr(args, "kernel", None),
        "search_initial": bool(getattr(args, "search_initial", False)),
        "seed": getattr(args, "seed", 0),
        "budget": args.budget,
        "deadline": getattr(args, "deadline", None),
        "max_nodes": getattr(args, "max_nodes", None),
        "mode2_workers": getattr(args, "mode2_workers", None),
        "prune_swaps": not getattr(args, "no_prune_swaps", False),
        "seed_incumbent": not getattr(args, "no_seed_incumbent", False),
        "symmetry_reduction": not getattr(
            args, "no_symmetry_reduction", False
        ),
    }
    for keyword, attr in _BOUND_FLAGS.items():
        config[keyword] = getattr(args, attr, None)
    if args.mapper == "portfolio":
        config["portfolio_lanes"] = getattr(args, "portfolio_lanes", None)
    return config


def _register_map_artifacts(args, run) -> None:
    """Point the run's index row at every output file the flags named."""
    if run is None:
        return
    for name, attr in (
        ("metrics", "metrics_out"),
        ("search_trace", "search_trace"),
        ("qasm", "qasm_out"),
        ("profile", "profile_out"),
        ("telemetry_dir", "telemetry_dir"),
    ):
        path = getattr(args, attr, None)
        if path:
            run.add_artifact(name, path)


def _cmd_map(args) -> int:
    circuit = _load_circuit(args.circuit)
    coupling = by_name(args.arch)
    latency = _LATENCIES[args.latency]
    run = _open_ledger_run(
        args, "map", _map_run_config(args, circuit, coupling, latency)
    )
    run_id = run.run_id if run is not None else None
    telemetry = _build_telemetry(args, run_id=run_id)
    mapper = _build_mapper(args.mapper, coupling, latency, args, telemetry)
    if getattr(args, "telemetry_dir", None):
        # Fleet telemetry for the mode-2 fan-out workers: each worker
        # process writes its own shard under this directory and the
        # coordinator merges them (see repro.obs.export).  The run_id
        # rides along as the correlation ID stamped into every shard.
        from .obs.telemetry import TelemetrySpec

        mapper.telemetry_spec = TelemetrySpec(
            directory=args.telemetry_dir, run_id=run_id
        )
    try:
        result = mapper.map(circuit)
    except SearchBudgetExceeded as exc:
        print(f"search budget exceeded: {exc}", file=sys.stderr)
        if exc.partial_stats:
            _print_stats(exc.partial_stats)
        if telemetry is not None and args.trace:
            print(telemetry.tracer.render_tree())
        _finish_telemetry(args, telemetry)
        _register_map_artifacts(args, run)
        _finish_ledger_run(
            run, "budget", stats=exc.partial_stats, error=str(exc)
        )
        return 2
    validate_result(result)
    print(result.describe(max_ops=args.max_ops))
    if telemetry is not None:
        _print_stats(result.stats)
    if args.timeline:
        from .analysis.render import render_timeline

        print()
        print(render_timeline(result))
    if args.trace and telemetry is not None:
        print()
        print(telemetry.tracer.render_tree())
    if args.qasm_out:
        with open(args.qasm_out, "w", encoding="utf-8") as handle:
            handle.write(to_qasm(result.to_physical_circuit()))
        print(f"\nwrote transformed circuit to {args.qasm_out}")
    _finish_telemetry(args, telemetry)
    _register_map_artifacts(args, run)
    _finish_ledger_run(
        run,
        "ok",
        stats=result.stats,
        extra={
            "depth": result.depth,
            "swaps": result.num_inserted_swaps,
            "optimal": result.optimal,
        },
    )
    return 0


def _record_from_json(payload: dict):
    """Rehydrate a ``--json-out`` record dict into a ``BatchRecord``.

    Used by ``map-batch --resume`` so already-mapped circuits render in
    the table and re-serialize without re-running.
    """
    from .analysis.batch import BatchRecord

    return BatchRecord(
        label=payload.get("label", "?"),
        ok=bool(payload.get("ok")),
        seconds=payload.get("seconds") or 0.0,
        depth=payload.get("depth"),
        swaps=payload.get("swaps"),
        stats=payload.get("stats") or {},
        error=payload.get("error"),
        peak_rss_bytes=payload.get("peak_rss_bytes"),
        error_type=payload.get("error_type"),
        traceback=payload.get("traceback"),
    )


def _cmd_map_batch(args) -> int:
    import glob as _glob
    import json
    import os

    from .analysis.batch import BatchTask, map_many, summarize
    from .obs.schema import (
        REQUIRED_STAT_KEYS,
        STAT_KERNEL_BACKEND,
        STAT_SECONDS,
        stats_row,
    )

    coupling = by_name(args.arch)
    latency = _LATENCIES[args.latency]
    paths = sorted(
        _glob.glob(os.path.join(args.dir, args.glob))
    )
    if not paths:
        print(
            f"error: no files match {args.glob!r} in {args.dir}",
            file=sys.stderr,
        )
        return 1

    done = {}
    if args.resume:
        if not args.json_out:
            print(
                "error: --resume needs --json-out (it is the record of "
                "what already ran)",
                file=sys.stderr,
            )
            return 1
        if os.path.exists(args.json_out):
            try:
                with open(args.json_out, "r", encoding="utf-8") as handle:
                    prior = json.load(handle)
            except ValueError as exc:
                print(
                    f"error: --resume: {args.json_out} is not valid JSON: "
                    f"{exc}",
                    file=sys.stderr,
                )
                return 1
            done = {
                rec.get("label"): rec
                for rec in prior.get("records") or []
                if rec.get("ok")  # failed circuits re-run on resume
            }

    tasks = []
    resumed = []
    for path in paths:
        label = os.path.splitext(os.path.basename(path))[0]
        if label in done:
            resumed.append(_record_from_json(done[label]))
            continue
        try:
            circuit = load_qasm_file(path)
        except Exception as exc:
            print(f"error: cannot load {path}: {exc}", file=sys.stderr)
            return 1
        tasks.append(
            BatchTask(
                label=label,
                circuit=circuit,
                mapper=_build_mapper(args.mapper, coupling, latency, args),
            )
        )
    if args.resume and resumed:
        print(
            f"resume: {len(resumed)}/{len(paths)} circuits already mapped "
            f"in {args.json_out}; running the remaining {len(tasks)}"
        )

    import hashlib

    labels = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    run = _open_ledger_run(args, "map-batch", {
        "command": "map-batch",
        "dir": os.path.abspath(args.dir),
        "glob": args.glob,
        "circuits": len(paths),
        "labels_sha": hashlib.sha256(
            "|".join(labels).encode()
        ).hexdigest()[:16],
        "arch": args.arch,
        "latency": args.latency,
        "mapper": args.mapper,
        "kernel": getattr(args, "kernel", None),
        "search_initial": bool(args.search_initial),
        "seed": args.seed,
        "workers": args.workers,
        # The only scheduler; the key stays so config fingerprints
        # match earlier ledger runs.
        "scheduler": "stealing",
        "warm_cache": not args.no_warm_cache,
        "max_nodes": args.max_nodes,
        "budget": args.budget,
    })
    if run is not None and not args.telemetry_dir:
        # A ledgered batch always gets fleet telemetry: default the
        # shard directory into the run's own artifact directory so the
        # run_id lands in every worker shard and the fleet.json rollup.
        args.telemetry_dir = run.artifact_path("fleet")

    telemetry_spec = None
    if args.telemetry_dir:
        from .obs.telemetry import TelemetrySpec

        telemetry_spec = TelemetrySpec(
            directory=args.telemetry_dir,
            run_id=run.run_id if run is not None else None,
        )

    records = map_many(
        tasks,
        max_workers=args.workers,
        max_nodes=args.max_nodes,
        max_seconds=args.budget,
        keep_results=False,
        telemetry_spec=telemetry_spec,
        warm_cache=not args.no_warm_cache,
    )
    if resumed:
        # Re-interleave resumed records into path order for the report.
        fresh = {rec.label: rec for rec in records}
        kept = {rec.label: rec for rec in resumed}
        records = []
        for path in paths:
            label = os.path.splitext(os.path.basename(path))[0]
            record = fresh.get(label) or kept.get(label)
            if record is not None:
                records.append(record)

    columns = [k for k in REQUIRED_STAT_KEYS if k != "mapper"]
    header = f"{'circuit':24s} {'ok':>3} {'depth':>6} {'swaps':>6}" + "".join(
        f" {column:>20}" for column in columns
    )
    print(header)
    for rec in records:
        row = stats_row(rec.stats)
        cells = ""
        for column in columns:
            value = row.get(column)
            if value is None:
                cells += f" {'—':>20}"
            elif column == STAT_SECONDS:
                cells += f" {value:>20.4f}"
            else:
                cells += f" {value:>20}"
        depth = "—" if rec.depth is None else rec.depth
        swaps = "—" if rec.swaps is None else rec.swaps
        print(
            f"{rec.label:24s} {'yes' if rec.ok else 'NO':>3} {depth:>6} "
            f"{swaps:>6}{cells}"
        )
        if rec.error:
            print(f"{'':24s}  ^ {rec.error}")
    totals = summarize(records)
    print(
        f"\n{totals['succeeded']}/{totals['tasks']} mapped, "
        f"{totals['total_nodes_expanded']} nodes expanded, "
        f"{totals['total_seconds']:.2f}s total mapping time"
    )
    if telemetry_spec is not None:
        from .obs.export import FLEET_ROLLUP_NAME

        print(
            f"wrote worker telemetry shards and {FLEET_ROLLUP_NAME} to "
            f"{args.telemetry_dir} (render with `repro obs-report`)"
        )

    if args.json_out:
        payload = {
            "summary": totals,
            "records": [
                {
                    "label": rec.label,
                    "ok": rec.ok,
                    "depth": rec.depth,
                    "swaps": rec.swaps,
                    "seconds": rec.seconds,
                    "wall_time_s": rec.seconds,
                    "peak_rss_bytes": rec.peak_rss_bytes,
                    "error": rec.error,
                    "error_type": rec.error_type,
                    "traceback": rec.traceback,
                    "stats": stats_row(
                        rec.stats,
                        REQUIRED_STAT_KEYS + (STAT_KERNEL_BACKEND,),
                    ) if rec.stats else None,
                }
                for rec in records
            ],
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote batch report to {args.json_out}")
    if run is not None:
        if args.telemetry_dir:
            run.add_artifact("telemetry_dir", args.telemetry_dir)
        if args.json_out:
            run.add_artifact("batch_report", args.json_out)
    ok = all(rec.ok for rec in records)
    _finish_ledger_run(run, "ok" if ok else "partial", stats=totals)
    return 0 if ok else 2


def _cmd_corpus(args) -> int:
    """Corpus-scale throughput sweep: a seeded benchmark request stream."""
    import json

    from .analysis.corpus import (
        append_corpus_trajectory,
        build_corpus,
        corpus_suite,
        identity_mismatches,
        run_corpus,
    )

    coupling = by_name(args.arch)
    latency = _LATENCIES[args.latency]

    def mapper_factory():
        return _build_mapper(args.mapper, coupling, latency, args)

    try:
        stream = build_corpus(
            args.size,
            max_qubits=coupling.num_qubits,
            repeat_factor=args.repeat_factor,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    distinct = len({label.rsplit("@", 1)[0] for label, _ in stream})
    print(
        f"corpus: {len(stream)} requests over {distinct} distinct "
        f"circuits (repeat factor {args.repeat_factor}, seed "
        f"{args.seed}), arch={args.arch} latency={args.latency} "
        f"mapper={args.mapper}"
    )

    warm = not args.no_warm_cache
    from .core.warmcache import arch_fingerprint

    run = _open_ledger_run(args, "corpus", {
        "command": "corpus",
        "size": args.size,
        "repeat_factor": args.repeat_factor,
        "seed": args.seed,
        "arch": args.arch,
        "arch_sha": arch_fingerprint(coupling, latency)[:16],
        "latency": args.latency,
        "mapper": args.mapper,
        "kernel": getattr(args, "kernel", None),
        "workers": args.workers,
        "scheduler": "stealing",  # see map-batch: fingerprint continuity
        "warm_cache": warm,
        "max_nodes": args.max_nodes,
        "budget": args.budget,
    })
    if run is not None and not args.telemetry_dir:
        args.telemetry_dir = run.artifact_path("fleet")
    main_label = f"stealing+{'warm' if warm else 'cold'}"
    summary = run_corpus(
        stream,
        mapper_factory,
        workers=args.workers,
        warm_cache=warm,
        telemetry_dir=args.telemetry_dir,
        max_nodes=args.max_nodes,
        max_seconds=args.budget,
        run_id=run.run_id if run is not None else None,
    )

    extras = ""
    if summary.get("queue_wait_frac") is not None:
        extras += f", queue-wait {summary['queue_wait_frac']:.1%}"
    if summary.get("warm_cache_hit_rate") is not None:
        extras += f", warm-hit {summary['warm_cache_hit_rate']:.1%}"
    print(
        f"{main_label:14s}: {summary['ok']}/{summary['circuits']} ok, "
        f"{summary['wall_seconds']:.1f}s wall, "
        f"{summary['circuits_per_min']:.1f} circuits/min{extras}"
    )
    for rec in summary["records"]:
        if not rec["ok"]:
            print(f"  FAILED {rec['label']}: {rec['error']}")

    name, suite = corpus_suite(summary)
    suites = {name: suite}

    identity_failed = False
    if args.verify_identity:
        reference = run_corpus(
            stream,
            mapper_factory,
            workers=1,
            warm_cache=warm,
            max_nodes=args.max_nodes,
            max_seconds=args.budget,
        )
        mismatches = identity_mismatches(summary, reference)
        if mismatches:
            identity_failed = True
            print(
                f"{'identity':14s}: MISMATCH vs sequential reference",
                file=sys.stderr,
            )
            for line in mismatches[:20]:
                print(f"  {line}", file=sys.stderr)
        else:
            print(
                f"{'identity':14s}: OK — {main_label} bit-identical to the "
                f"sequential reference"
            )

    if args.record:
        entry = append_corpus_trajectory(
            args.bench_json,
            suites,
            run_id=run.run_id if run is not None else None,
            ledger_path=run.ledger.root if run is not None else None,
        )
        print(
            f"recorded corpus_fleet trajectory entry "
            f"(commit {entry['commit']}) in {args.bench_json}"
        )
        if run is not None:
            run.add_artifact("bench_json", args.bench_json)
    if args.json_out:
        payload = {"corpus": summary}
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote corpus report to {args.json_out}")
        if run is not None:
            run.add_artifact("corpus_report", args.json_out)
    if run is not None:
        if args.telemetry_dir:
            run.add_artifact("telemetry_dir", args.telemetry_dir)
        # The diffable slice only: numeric throughput facts, no record
        # list, no strings (scheduler/warm live in the config already).
        stats = {
            key: value for key, value in summary.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        if identity_failed:
            status = "error"
        else:
            status = "ok" if summary["failed"] == 0 else "partial"
        _finish_ledger_run(
            run, status, stats=stats,
            error="identity mismatch" if identity_failed else None,
        )
    if identity_failed:
        return 1
    return 0 if summary["failed"] == 0 else 2


def _cmd_obs_report(args) -> int:
    """Render telemetry: one run's JSONL or a fleet shard directory."""
    import os

    from .obs.export import (
        fleet_rollup,
        fleet_to_prometheus,
        list_shards,
        render_fleet_table,
        render_run_summary,
        run_to_prometheus,
        summarize_run,
    )
    from .obs.sinks import read_jsonl

    if os.path.isdir(args.path):
        if not list_shards(args.path):
            print(
                f"error: no worker-*.jsonl shards in {args.path} — record "
                "some with `repro map-batch ... --telemetry-dir <dir>`",
                file=sys.stderr,
            )
            return 1
        rollup = fleet_rollup(args.path)
        output = (
            fleet_to_prometheus(rollup) if args.format == "prom"
            else render_fleet_table(rollup)
        )
    else:
        try:
            records = read_jsonl(args.path)
        except OSError as exc:
            print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not records:
            print(
                f"error: no telemetry records in {args.path} — record some "
                "with `repro map ... --metrics-out <path>`",
                file=sys.stderr,
            )
            return 1
        summary = summarize_run(records)
        output = (
            run_to_prometheus(summary) if args.format == "prom"
            else render_run_summary(summary, top_n=args.top)
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output if output.endswith("\n") else output + "\n")
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(output)
    return 0


def _cmd_benchmarks(_args) -> int:
    for name in benchmark_names():
        print(name)
    return 0


def _cmd_diagnose(args) -> int:
    """Analyze a search trace recorded with ``map --search-trace``."""
    import json

    from .analysis.diagnose import diagnose, load_trace, render_report

    try:
        records = load_trace(args.trace_file)
    except OSError as exc:
        print(f"error: cannot read {args.trace_file}: {exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(
            f"error: no trace records in {args.trace_file} — record one "
            "with `repro map ... --search-trace <path>`",
            file=sys.stderr,
        )
        return 1
    report = diagnose(records)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
    print(render_report(report))
    if report["complete"] and not report["consistent"]:
        print(
            "error: complete trace does not reproduce the run's "
            "counters — trace layer and search disagree",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench_trend(args) -> int:
    """Tabulate the perf trajectory recorded in ``BENCH_search.json``."""
    import json

    try:
        with open(args.json, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        print(
            f"error: cannot read {args.json}: {exc}\n"
            "run benchmarks/bench_search_perf.py to record a trajectory",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        print(f"error: {args.json} is not valid JSON: {exc}",
              file=sys.stderr)
        return 1
    from .analysis.diagnose import KNOWN_BENCH_SCHEMAS, check_trend

    schema = report.get("schema") if isinstance(report, dict) else None
    if schema not in KNOWN_BENCH_SCHEMAS:
        known = ", ".join(KNOWN_BENCH_SCHEMAS)
        print(
            f"error: {args.json} has unknown schema {schema!r} "
            f"(expected one of: {known})\n"
            "re-record it with benchmarks/bench_search_perf.py",
            file=sys.stderr,
        )
        return 1
    trajectory = report.get("trajectory") or []
    if not trajectory:
        print(f"no trajectory entries in {args.json} — run "
              "benchmarks/bench_search_perf.py to record one")
        return 1

    suite_names: list = []
    for entry in trajectory:
        for name in entry.get("suites") or {}:
            if name not in suite_names:
                suite_names.append(name)

    for name in suite_names:
        print(f"{name}:")
        print(f"  {'commit':9s} {'date':21s} {'mode':5s} {'prune':5s} "
              f"{'depth':>5s} {'nodes_expanded':>14s} {'nodes/sec':>12s}")
        for entry in trajectory:
            suite = (entry.get("suites") or {}).get(name)
            if suite is None:
                continue
            depth = suite.get("depth")
            rate = suite.get("nodes_per_sec")
            print(
                f"  {str(entry.get('commit', '?')):9s} "
                f"{str(entry.get('date', '?')):21s} "
                f"{str(entry.get('mode', '?')):5s} "
                f"{str(entry.get('pruning', '?')):5s} "
                f"{'—' if depth is None else depth:>5} "
                f"{suite.get('nodes_expanded', '—'):>14} "
                f"{'—' if rate is None else format(rate, ',.0f'):>12}"
            )
        print()
    print(f"{len(trajectory)} trajectory entries in {args.json}")
    if args.check:
        ok, messages = check_trend(
            report,
            max_node_ratio=args.max_node_ratio,
            max_time_ratio=args.max_time_ratio,
            min_throughput_ratio=args.min_throughput_ratio,
        )
        print()
        for message in messages:
            print(f"  {message}")
        if not ok:
            print("trend check: REGRESSION detected", file=sys.stderr)
            return 1
        print("trend check: ok")
    return 0


def _cmd_runs(args) -> int:
    """Query the persistent run ledger: list/show/diff/regressions/gc."""
    import json

    from .analysis import runs as runs_analysis
    from .obs.ledger import RunLedger

    ledger = RunLedger(args.ledger_dir)
    cmd = args.runs_command
    if cmd == "list":
        rows = runs_analysis.list_runs(
            ledger.runs(), kind=args.kind, limit=args.limit
        )
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(runs_analysis.render_runs_table(rows))
        return 0
    if cmd == "show":
        try:
            row = ledger.get(args.run_id)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(row, indent=2))
        else:
            print(runs_analysis.render_run(row))
        return 0
    if cmd == "diff":
        try:
            row_a = ledger.get(args.run_a)
            row_b = ledger.get(args.run_b)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        diff, rendered = runs_analysis.diff_pair(
            ledger.runs(), row_a, row_b
        )
        if args.json:
            print(json.dumps(diff, indent=2))
        else:
            print(rendered)
        if args.fail_on_delta and diff["counter_deltas"]:
            return 1
        return 0
    if cmd == "regressions":
        rows = ledger.runs()
        findings = runs_analysis.find_regressions(
            rows,
            max_node_ratio=args.max_node_ratio,
            min_rate_ratio=args.min_rate_ratio,
        )
        scanned = sum(1 for r in rows if r.get("status") == "ok")
        if args.json:
            print(json.dumps(findings, indent=2))
        else:
            print(runs_analysis.render_regressions(
                findings, scanned,
                groups=runs_analysis.fingerprint_groups(rows),
            ))
        return 1 if findings else 0
    if cmd == "gc":
        try:
            pruned = ledger.gc(args.keep)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        noun = "directory" if len(pruned) == 1 else "directories"
        print(
            f"pruned {len(pruned)} run artifact {noun} from "
            f"{ledger.root} (index rows kept)"
        )
        for name in pruned:
            print(f"  {name}")
        return 0
    print(f"error: unknown runs command {cmd!r}", file=sys.stderr)
    return 1


def _cmd_top(args) -> int:
    """Live fleet monitor over a telemetry shard directory."""
    import os

    from .obs.monitor import FleetMonitor

    if not os.path.isdir(args.directory):
        print(
            f"error: {args.directory} is not a directory — point repro top "
            "at the --telemetry-dir of a running map-batch/corpus",
            file=sys.stderr,
        )
        return 1
    FleetMonitor(args.directory).watch(
        interval=args.interval,
        iterations=1 if args.once else None,
        duration=args.duration,
        clear=args.clear,
    )
    return 0


def _cmd_archs(_args) -> int:
    for name in architecture_names():
        arch = by_name(name)
        print(f"{name:16s} {arch.num_qubits:>3} qubits, {len(arch.edges):>3} edges")
    print("parametric     : lnn-N, gridRxC, full-N")
    return 0


def _add_kernel_flag(cmd) -> None:
    cmd.add_argument(
        "--kernel", default=None, choices=BACKEND_NAMES,
        help="kernel backend for the search hot path (default: best "
             f"available — {' > '.join(PROBE_ORDER)})",
    )


def _add_ledger_flag(cmd) -> None:
    cmd.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="record this run in the persistent run ledger under DIR "
             "(default: $REPRO_LEDGER_DIR when set; no ledger otherwise)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Time-Optimal Qubit Mapping (ASPLOS 2021)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    map_cmd = sub.add_parser("map", help="route a circuit onto hardware")
    map_cmd.add_argument(
        "--circuit", required=True,
        help="qft:N | random:N:G[:SEED] | bench:NAME | path/to/file.qasm",
    )
    map_cmd.add_argument("--arch", required=True, help="architecture name")
    map_cmd.add_argument(
        "--mapper",
        default="optimal",
        choices=["optimal", "heuristic", "sabre", "zulehner", "olsq",
                 "trivial", "portfolio"],
    )
    map_cmd.add_argument(
        "--latency", default="unit", choices=sorted(_LATENCIES)
    )
    map_cmd.add_argument(
        "--search-initial", action="store_true",
        help="optimal mode 2: search the initial mapping too",
    )
    map_cmd.add_argument("--budget", type=float, default=None,
                         help="optimal-search wall-clock budget (s)")
    map_cmd.add_argument(
        "--deadline", type=float, default=None,
        help="anytime budget (s): return the best incumbent schedule "
             "(optimal=False) instead of raising when it expires",
    )
    map_cmd.add_argument(
        "--no-prune-swaps", action="store_true",
        help="disable the loss-free active-SWAP candidate restriction "
             "(ablation)",
    )
    map_cmd.add_argument(
        "--no-seed-incumbent", action="store_true",
        help="do not seed the exact search's upper bound with a "
             "heuristic run (ablation)",
    )
    map_cmd.add_argument(
        "--no-symmetry-reduction", action="store_true",
        help="do not deduplicate mode-2 initial mappings up to "
             "coupling-graph automorphism (ablation)",
    )
    map_cmd.add_argument(
        "--assignment-bound", action=argparse.BooleanOptionalAction,
        default=None,
        help="assignment-relaxation lower bound on suffix work "
             "(default: off for optimal, on for portfolio)",
    )
    map_cmd.add_argument(
        "--layer-bound", action=argparse.BooleanOptionalAction,
        default=None,
        help="layer-weight capacity lower bound "
             "(default: off for optimal, on for portfolio)",
    )
    map_cmd.add_argument(
        "--root-restriction", action=argparse.BooleanOptionalAction,
        default=None,
        help="mode-2 root restriction: skip real-schedule roots placing "
             "no ready 2-qubit gate on an edge "
             "(default: off for optimal, on for portfolio)",
    )
    map_cmd.add_argument(
        "--closed-dominance", action=argparse.BooleanOptionalAction,
        default=None,
        help="let closed filter entries dominate non-descendant "
             "newcomers (default: off for optimal, on for portfolio)",
    )
    map_cmd.add_argument(
        "--portfolio-lanes", default="exact,heuristic,sabre",
        metavar="LANES",
        help="comma-separated portfolio lanes "
             "(subset of exact,heuristic,sabre)",
    )
    map_cmd.add_argument(
        "--max-nodes", type=int, default=None,
        help="node budget for the exact search / exact portfolio lane",
    )
    map_cmd.add_argument(
        "--mode2-workers", type=int, default=None,
        help="optimal mode 2: fan prefix-root mappings out across this "
             "many worker processes (1 = sequential fan-out)",
    )
    _add_kernel_flag(map_cmd)
    map_cmd.add_argument("--seed", type=int, default=0)
    map_cmd.add_argument("--max-ops", type=int, default=60)
    map_cmd.add_argument("--timeline", action="store_true",
                         help="print an ASCII qubit/cycle timeline")
    map_cmd.add_argument("--qasm-out", default=None,
                         help="write the transformed circuit as QASM")
    map_cmd.add_argument("--trace", action="store_true",
                         help="record search spans; print the span tree")
    map_cmd.add_argument("--metrics-out", default=None,
                         help="write telemetry (spans, progress events, "
                              "metrics snapshots) as JSONL")
    map_cmd.add_argument("--progress", action="store_true",
                         help="print live search-progress events to stderr")
    map_cmd.add_argument("--progress-every", type=int, default=500,
                         help="expansions between progress events")
    map_cmd.add_argument(
        "--search-trace", default=None, metavar="PATH",
        help="record an expansion-level search trace (JSONL) for "
             "`repro diagnose`",
    )
    map_cmd.add_argument(
        "--search-trace-mode", default="full",
        choices=["full", "ring", "sample"],
        help="trace capture mode: full stream, last-N ring buffer, or "
             "every-Nth sampling (counts stay exact in all modes)",
    )
    map_cmd.add_argument(
        "--search-trace-ring", type=int, default=65536, metavar="N",
        help="ring mode: number of records to keep",
    )
    map_cmd.add_argument(
        "--search-trace-sample", type=int, default=64, metavar="N",
        help="sample mode: record every Nth expand/prune event",
    )
    map_cmd.add_argument(
        "--sample-resources", action="store_true",
        help="flight recorder: sample RSS/CPU/GC in the background "
             "(records go to --metrics-out when set)",
    )
    map_cmd.add_argument(
        "--resource-interval", type=float, default=0.05, metavar="S",
        help="seconds between resource samples",
    )
    map_cmd.add_argument(
        "--profile", action="store_true",
        help="flight recorder: sampling wall-clock profiler with span "
             "and kernel-backend attribution (table on stderr)",
    )
    map_cmd.add_argument(
        "--profile-interval", type=float, default=0.005, metavar="S",
        help="seconds between profiler stack samples",
    )
    map_cmd.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write collapsed stacks (folded format) for flamegraph "
             "tooling",
    )
    map_cmd.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="mode-2 fan-out: per-worker telemetry shards + fleet.json "
             "rollup under DIR",
    )
    _add_ledger_flag(map_cmd)
    map_cmd.set_defaults(func=_cmd_map)

    batch_cmd = sub.add_parser(
        "map-batch",
        help="route a directory of QASM files across a process pool",
    )
    batch_cmd.add_argument(
        "--dir", required=True, help="directory of circuit files"
    )
    batch_cmd.add_argument(
        "--glob", default="*.qasm", help="filename pattern inside --dir"
    )
    batch_cmd.add_argument("--arch", required=True, help="architecture name")
    batch_cmd.add_argument(
        "--mapper",
        default="heuristic",
        choices=["optimal", "heuristic", "sabre", "zulehner", "olsq",
                 "trivial", "portfolio"],
    )
    batch_cmd.add_argument(
        "--portfolio-lanes", default="exact,heuristic,sabre",
        metavar="LANES",
        help="comma-separated lanes for --mapper portfolio",
    )
    batch_cmd.add_argument(
        "--deadline", type=float, default=None,
        help="per-circuit anytime budget (s) for --mapper portfolio",
    )
    batch_cmd.add_argument(
        "--latency", default="unit", choices=sorted(_LATENCIES)
    )
    batch_cmd.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size (default: CPU count; 1 = in-process)",
    )
    batch_cmd.add_argument(
        "--max-nodes", type=int, default=None,
        help="per-circuit node budget for the exact search",
    )
    batch_cmd.add_argument("--budget", type=float, default=None,
                           help="per-circuit wall-clock budget (s)")
    batch_cmd.add_argument(
        "--search-initial", action="store_true",
        help="optimal mode 2: search the initial mapping too",
    )
    _add_kernel_flag(batch_cmd)
    batch_cmd.add_argument("--seed", type=int, default=0)
    batch_cmd.add_argument("--json-out", default=None,
                           help="write the per-circuit report as JSON")
    batch_cmd.add_argument(
        "--resume", action="store_true",
        help="skip circuits already mapped successfully in the existing "
             "--json-out report; failed circuits re-run",
    )
    batch_cmd.add_argument(
        "--no-warm-cache", action="store_true",
        help="disable the per-worker architecture warm cache (shared "
             "distance/automorphism/heuristic-memo artifacts)",
    )
    batch_cmd.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="fleet telemetry: per-worker JSONL shards (resource samples "
             "+ per-task records) and a fleet.json rollup under DIR "
             "(default with --ledger-dir: the run's fleet/ artifact dir)",
    )
    _add_ledger_flag(batch_cmd)
    batch_cmd.set_defaults(func=_cmd_map_batch)

    corpus_cmd = sub.add_parser(
        "corpus",
        help="corpus-scale throughput sweep over a benchmark "
             "request stream",
    )
    corpus_cmd.add_argument(
        "--size", type=int, default=100,
        help="number of mapping requests in the stream",
    )
    corpus_cmd.add_argument(
        "--repeat-factor", type=int, default=10,
        help="average occurrences of each distinct circuit in the stream",
    )
    corpus_cmd.add_argument("--seed", type=int, default=0)
    corpus_cmd.add_argument(
        "--arch", default="tokyo", help="architecture name"
    )
    corpus_cmd.add_argument(
        "--latency", default="ibm", choices=sorted(_LATENCIES)
    )
    corpus_cmd.add_argument(
        "--mapper",
        default="heuristic",
        choices=["optimal", "heuristic", "sabre", "zulehner", "olsq",
                 "trivial", "portfolio"],
    )
    corpus_cmd.add_argument(
        "--portfolio-lanes", default="exact,heuristic,sabre",
        metavar="LANES",
        help="comma-separated lanes for --mapper portfolio",
    )
    corpus_cmd.add_argument(
        "--deadline", type=float, default=None,
        help="per-circuit anytime budget (s) for --mapper portfolio",
    )
    corpus_cmd.add_argument(
        "--workers", type=int, default=4,
        help="worker-process pool size (1 = in-process)",
    )
    corpus_cmd.add_argument(
        "--no-warm-cache", action="store_true",
        help="disable the per-worker architecture warm cache",
    )
    corpus_cmd.add_argument(
        "--verify-identity", action="store_true",
        help="re-run the stream sequentially (workers=1) and fail on "
             "any depth/swap/node-count difference",
    )
    corpus_cmd.add_argument(
        "--max-nodes", type=int, default=None,
        help="per-circuit node budget for the exact search",
    )
    corpus_cmd.add_argument("--budget", type=float, default=None,
                            help="per-circuit wall-clock budget (s)")
    _add_kernel_flag(corpus_cmd)
    corpus_cmd.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="fleet telemetry shards + fleet.json for the main run "
             "(queue-wait fraction and warm-cache hit rate come from "
             "here)",
    )
    corpus_cmd.add_argument(
        "--record", action="store_true",
        help="append corpus_fleet suites to the bench trajectory "
             "(--bench-json) for bench-trend gating",
    )
    corpus_cmd.add_argument(
        "--bench-json", default="benchmarks/results/BENCH_search.json",
        help="trajectory file --record appends to",
    )
    corpus_cmd.add_argument("--json-out", default=None,
                            help="write the full corpus report as JSON")
    _add_ledger_flag(corpus_cmd)
    corpus_cmd.set_defaults(func=_cmd_corpus, search_initial=False)

    obs_cmd = sub.add_parser(
        "obs-report",
        help="summarize telemetry JSONL or a fleet shard directory",
    )
    obs_cmd.add_argument(
        "path",
        help="telemetry JSONL file (map --metrics-out) or shard "
             "directory (map-batch --telemetry-dir)",
    )
    obs_cmd.add_argument(
        "--format", default="table", choices=["table", "prom"],
        help="human table or Prometheus text exposition format",
    )
    obs_cmd.add_argument(
        "--top", type=int, default=10,
        help="rows per profiler attribution table",
    )
    obs_cmd.add_argument(
        "--out", default=None,
        help="write the report to a file instead of stdout",
    )
    obs_cmd.set_defaults(func=_cmd_obs_report)

    bench_cmd = sub.add_parser("benchmarks", help="list benchmark names")
    bench_cmd.set_defaults(func=_cmd_benchmarks)

    diag_cmd = sub.add_parser(
        "diagnose",
        help="analyze a search trace recorded with map --search-trace",
    )
    diag_cmd.add_argument(
        "trace_file", help="JSONL trace from map --search-trace"
    )
    diag_cmd.add_argument(
        "--json-out", default=None,
        help="also write the full diagnostics report as JSON",
    )
    diag_cmd.set_defaults(func=_cmd_diagnose)

    trend_cmd = sub.add_parser(
        "bench-trend",
        help="tabulate the recorded search-perf trajectory",
    )
    trend_cmd.add_argument(
        "--json", default="benchmarks/results/BENCH_search.json",
        help="path to the bench_search_perf.py report",
    )
    trend_cmd.add_argument(
        "--check", action="store_true",
        help="compare the newest trajectory entry against prior entries "
             "of the same configuration; exit 1 on regression",
    )
    trend_cmd.add_argument(
        "--max-node-ratio", type=float, default=1.05,
        help="--check: fail when nodes_expanded exceeds this multiple "
             "of the best prior entry",
    )
    trend_cmd.add_argument(
        "--max-time-ratio", type=float, default=3.0,
        help="--check: fail when wall_seconds exceeds this multiple of "
             "the best prior entry (priors under 0.1s never gate)",
    )
    trend_cmd.add_argument(
        "--min-throughput-ratio", type=float, default=0.67,
        help="--check: fail when a fleet suite's circuits_per_min drops "
             "below this fraction of the best prior entry",
    )
    trend_cmd.set_defaults(func=_cmd_bench_trend)

    runs_cmd = sub.add_parser(
        "runs", help="query the persistent run ledger",
    )
    runs_sub = runs_cmd.add_subparsers(dest="runs_command", required=True)

    def _runs_common(cmd):
        _add_ledger_flag(cmd)
        cmd.add_argument(
            "--json", action="store_true",
            help="machine-readable JSON instead of the table",
        )

    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    _runs_common(runs_list)
    runs_list.add_argument(
        "--kind", default=None,
        choices=["map", "map-batch", "corpus", "bench"],
        help="only runs of this kind",
    )
    runs_list.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="only the newest N runs",
    )
    runs_list.set_defaults(func=_cmd_runs)

    runs_show = runs_sub.add_parser(
        "show", help="one run in full: config, stats, artifacts",
    )
    _runs_common(runs_show)
    runs_show.add_argument("run_id", help="run id (unique prefix accepted)")
    runs_show.set_defaults(func=_cmd_runs)

    runs_diff = runs_sub.add_parser(
        "diff", help="two runs counter-by-counter with percent deltas",
    )
    _runs_common(runs_diff)
    runs_diff.add_argument("run_a", help="baseline run id (prefix ok)")
    runs_diff.add_argument("run_b", help="comparison run id (prefix ok)")
    runs_diff.add_argument(
        "--fail-on-delta", action="store_true",
        help="exit 1 when any deterministic counter differs "
             "(timings never count)",
    )
    runs_diff.set_defaults(func=_cmd_runs)

    runs_reg = runs_sub.add_parser(
        "regressions",
        help="scan same-fingerprint runs for node-count or nodes/sec "
             "drift; exit 1 when any is found",
    )
    _runs_common(runs_reg)
    runs_reg.add_argument(
        "--max-node-ratio", type=float, default=1.05,
        help="flag runs expanding more than this multiple of the best "
             "same-fingerprint predecessor's nodes",
    )
    runs_reg.add_argument(
        "--min-rate-ratio", type=float, default=0.67,
        help="flag runs below this fraction of the best predecessor's "
             "nodes/sec (runs under 0.1s never gate)",
    )
    runs_reg.set_defaults(func=_cmd_runs)

    runs_gc = runs_sub.add_parser(
        "gc",
        help="remove artifact directories of all but the newest N runs "
             "(index rows are kept — history stays diffable)",
    )
    _add_ledger_flag(runs_gc)
    runs_gc.add_argument(
        "--keep", type=int, required=True, metavar="N",
        help="number of newest runs whose artifacts survive",
    )
    runs_gc.set_defaults(func=_cmd_runs)

    top_cmd = sub.add_parser(
        "top",
        help="live fleet monitor: per-worker throughput, queue depth, "
             "warm-cache hit rate, incumbent timeline",
    )
    top_cmd.add_argument(
        "directory",
        help="the --telemetry-dir of a running map-batch / corpus / "
             "mode-2 fan-out",
    )
    top_cmd.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="seconds between refreshes",
    )
    top_cmd.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (scripting/CI)",
    )
    top_cmd.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="stop watching after S seconds even if the fleet is "
             "still running",
    )
    top_cmd.add_argument(
        "--clear", action=argparse.BooleanOptionalAction, default=None,
        help="ANSI in-place redraw (default: only when stdout is a TTY)",
    )
    top_cmd.set_defaults(func=_cmd_top)

    arch_cmd = sub.add_parser("archs", help="list architectures")
    arch_cmd.set_defaults(func=_cmd_archs)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
