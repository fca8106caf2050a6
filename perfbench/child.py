"""The benchmark's worker processes, started by ``run.py``.

``python3 child.py TASK.json`` is one fresh interpreter, run with the
program under test on ``PYTHONPATH`` and ``PERFBENCH_SPAWN_NS`` set to
the parent's ``CLOCK_MONOTONIC`` reading just before the spawn.  It
prints one JSON report line on stdout.  Task kinds:

* ``setup``: start up and exit (a set-up time sample only);
* ``stream``: parse a request stream, route it with one ``map_many``
  call, write every output.

``python3 child.py --serve SPECS.json TIMEOUT_S`` is the fork server of
the one-shot workloads: it starts up once for the specs, then reads one
task path per line on stdin and forks one process per ``oneshot`` task,
which compiles one circuit as ``repro map`` does (read the QASM, map,
check with ``validate_result``, write the physical circuit's QASM) and
writes its report to ``TASK.json.report``.  The server answers each task
with one ``done EXITCODE`` line on stdout once that process has ended.
It never compiles anything itself, so every forked compile starts from
the state a fresh interpreter reaches after start-up, and nothing is
reused between compiles; the start-up is not paid again (``setup_s``
measures it on its own fresh spawns).

Set-up time is the span from the spawn to "ready to map": the CLI module
imported (it pulls in every layer a compile touches) and the
architecture contexts built.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import sys
import time
import traceback
from time import perf_counter

import catalog

MB = 1024.0  # ru_maxrss is in KiB on Linux


def _spec(fields) -> catalog.Spec:
    return catalog.Spec(**fields)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / MB


def _stats(stats) -> dict:
    return {k: v for k, v in stats.items() if isinstance(v, (int, float, str))}


def _start_up(specs):
    """Import the CLI and build each architecture context; return them."""
    import repro.cli  # noqa: F401  (the cold-start cost being measured)
    from repro.analysis import batch, portfolio  # noqa: F401
    from repro.core.warmcache import get_arch_context

    contexts = {}
    for spec in specs:
        pair = (spec.arch, spec.latency)
        if pair not in contexts:
            contexts[pair] = get_arch_context(
                catalog.coupling(spec), catalog.latency_model(spec)
            )
    return contexts


def _write_output(result, path) -> float:
    from repro.circuit.qasm import to_qasm

    start = perf_counter()
    text = to_qasm(result.to_physical_circuit())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return perf_counter() - start


def _kernel(trace: bool):
    if not trace:
        return None
    from repro.core.kernels import resolve_backend
    from seam import TimedBackend

    return TimedBackend(resolve_backend())


def _seam_report(kernel) -> dict:
    if kernel is None:
        return {}
    return {
        "seam_ns": dict(kernel.ns),
        "seam_calls": dict(kernel.calls),
        "scored_nodes": kernel.scored_nodes,
    }


def oneshot(task, contexts) -> dict:
    from repro.circuit.qasm import load_qasm_file
    from repro.verify import VerificationError, validate_result

    spec = _spec(task["spec"])
    context = contexts[(spec.arch, spec.latency)]
    kernel = _kernel(task["trace"])
    mapper = catalog.mapper(spec, kernel=kernel)
    mapper.arch_context = context
    report = {"key": spec.key}
    gc.collect()
    start = perf_counter()
    circuit = load_qasm_file(task["qasm_in"])
    parsed = perf_counter()
    build_s = 0.0
    if task["trace"]:
        context.problem(circuit)  # the map below hits this cached build
        build_s = perf_counter() - parsed
    map_start = perf_counter()
    try:
        result = mapper.map(circuit)
    except Exception:  # noqa: BLE001 - a failed compile is data, not a crash
        report.update(ok=False, error=traceback.format_exc()[-1500:],
                      map_s=perf_counter() - start)
        return report
    mapped = perf_counter()
    try:
        validate_result(result)
        verified = True
    except VerificationError as exc:
        verified = False
        report["error"] = f"VerificationError: {exc}"
    checked = perf_counter()
    emit_s = _write_output(result, task["qasm_out"])
    report.update(
        ok=True,
        verified=verified,
        map_s=checked - start + emit_s,
        parse_s=parsed - start,
        build_s=build_s,
        map_call_s=mapped - map_start,
        verify_s=checked - mapped,
        emit_s=emit_s,
        depth=result.depth,
        ideal=circuit.depth(catalog.latency_model(spec)),
        optimal=bool(result.optimal),
        stats=_stats(result.stats),
        **_seam_report(kernel),
    )
    return report


def stream(task, contexts) -> dict:
    from repro.analysis.batch import BatchTask, map_many
    from repro.circuit.qasm import load_qasm_file
    from repro.verify import VerificationError, validate_result

    kernel = _kernel(task["trace"])
    requests = task["requests"]
    gc.collect()
    parse_s, tasks, latencies = [], [], []
    for request in requests:
        spec = _spec(request["spec"])
        start = perf_counter()
        circuit = load_qasm_file(request["qasm_in"])
        parse_s.append(perf_counter() - start)
        latencies.append(catalog.latency_model(spec))
        tasks.append(BatchTask(spec.key, circuit,
                               catalog.mapper(spec, kernel=kernel)))
    gc.collect()
    start = perf_counter()
    records = map_many(tasks, max_workers=task["workers"])
    makespan = perf_counter() - start
    out = []
    for request, task_, record, parse, latency in zip(
        requests, tasks, records, parse_s, latencies
    ):
        row = {"key": task_.label, "ok": record.ok, "error": record.error,
               "task_s": record.seconds, "parse_s": parse,
               "stats": _stats(record.stats),
               "rss_mb": (record.peak_rss_bytes or 0) / 2**20,
               "map_s": parse + record.seconds}
        if record.ok:
            result = record.result
            start = perf_counter()
            try:
                validate_result(result)
                row["verified"] = True
            except VerificationError as exc:
                row.update(verified=False, error=f"VerificationError: {exc}")
            row["verify_s"] = perf_counter() - start
            row["emit_s"] = _write_output(result, request["qasm_out"])
            row.update(depth=result.depth, optimal=bool(result.optimal),
                       ideal=task_.circuit.depth(latency))
            row["map_s"] += row["emit_s"]
        out.append(row)
    return {"makespan_s": makespan, "workers": task["workers"],
            "requests": out, **_seam_report(kernel)}


def _finish(report) -> dict:
    from repro.core.kernels import resolve_backend

    report.update(peak_rss_mb=_peak_rss_mb(),
                  kernel_backend=resolve_backend().name)
    return report


def _forked_compile(task_path, contexts, timeout_s) -> int:
    """Run in the forked process: compile one task, write its report."""
    signal.alarm(timeout_s)  # SIGALRM's default action ends the process
    status = 0
    try:
        with open(task_path, encoding="utf-8") as handle:
            report = _finish(oneshot(json.load(handle), contexts))
    except BaseException:  # noqa: BLE001 - reported, the server lives on
        report = {"ok": False, "error": traceback.format_exc()[-1500:]}
        status = 1
    with open(task_path + ".report", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report))
    return status


def serve(specs_path, timeout_s) -> int:
    with open(specs_path, encoding="utf-8") as handle:
        contexts = _start_up([_spec(fields) for fields in json.load(handle)])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    for line in sys.stdin:
        pid = os.fork()
        if pid == 0:
            os._exit(_forked_compile(line.strip(), contexts, timeout_s))
        _, status = os.waitpid(pid, 0)
        sys.stdout.write(f"done {os.waitstatus_to_exitcode(status)}\n")
        sys.stdout.flush()
    return 0


def main() -> int:
    if sys.argv[1] == "--serve":
        return serve(sys.argv[2], int(sys.argv[3]))
    with open(sys.argv[1], encoding="utf-8") as handle:
        task = json.load(handle)
    spawned = int(os.environ["PERFBENCH_SPAWN_NS"])
    contexts = _start_up([_spec(fields) for fields in task["setup_specs"]])
    setup_s = (time.monotonic_ns() - spawned) / 1e9
    report = stream(task, contexts) if task["kind"] == "stream" else {}
    report["setup_s"] = setup_s
    print(json.dumps(_finish(report)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
