"""The repository benchmark: cold one-shot compiles and a warm stream.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 40 --trace 0

Workloads (see ``catalog.py`` and ``README.md``):

* ``exact``: ``OptimalMapper`` mode 2 on Table-1/Table-2/QFT rows;
* ``heuristic``: ``HeuristicMapper`` on Table-3 rows on IBM Tokyo;
* ``stream``: one ``map_many`` call per request stream, warm cache on.

Every one-shot compile runs in its own process, forked one at a time
from a server that has started up and never compiles (``child.py
--serve``); every stream call and set-up probe is a fresh interpreter.
The program is copied and its C kernel built from the checkout's own
``src/`` first (``build.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics, the
tracing overhead, and fails the run if the two passes expanded different
node counts.  The last stdout line is the JSON result; the lines before
it give the run context and each metric's median, quartiles and count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import build  # noqa: E402
import catalog  # noqa: E402

CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 90.0
#: Set-up-only cold starts per run, every workload: ``setup_s`` comes
#: from these probes only.  They run first, inside the run's
#: ``--seconds``, after an idle settle and spaced by idle gaps.  On a
#: small VM, cold starts made in a burst, or within a few seconds of
#: heavy process churn, get faster (about 0.21 s falls to 0.16 s on a
#: 2-vCPU host); spacing keeps every sample a cold start after idle, as
#: a one-shot user sees.
SETUP_PROBES = 8
SETUP_SETTLE_S = 2.0
SETUP_GAP_S = 0.4

END_TO_END = (
    ("setup_s", "s"),
    ("map_s.geomean", "s"),
    ("circuits_per_min", "1/min"),
    ("peak_rss_mb", "MB"),
    ("depth_ratio", "ratio"),
    ("completed_frac", "frac"),
)

IMPORT_TARGETS = (
    "repro.core", "repro.obs", "repro.analysis", "repro.baselines",
    "networkx", "numpy",
)

PRUNE_STATS = {
    "prune.bound": "pruned_by_bound",
    "prune.layer_weight": "pruned_by_layer_weight",
    "prune.assignment_lb": "pruned_by_assignment_lb",
    "prune.closed_dominated": "closed_dominated",
    "prune.symmetry": "symmetry_pruned",
    "prune.swaps_restricted": "swaps_restricted",
}

PER_LAYER = (
    *((f"import_s.{name}", "s") for name in IMPORT_TARGETS),
    ("circuit.parse_s", "s"),
    ("verify.s", "s"),
    ("emit.s", "s"),
    ("problem.build_s", "s"),
    ("kernel.expand_s", "s"),
    ("kernel.expand.calls", "count"),
    ("kernel.score_s", "s"),
    ("kernel.score.calls", "count"),
    ("kernel.score.nodes", "count"),
    ("kernel.heap_s", "s"),
    ("kernel.admit_s", "s"),
    ("search.self_s", "s"),
    ("search.nodes_expanded", "count"),
    ("search.nodes_generated", "count"),
    ("search.nodes_per_s", "1/s"),
    ("filter.admit_frac", "frac"),
    *((name, "count") for name in PRUNE_STATS),
    ("search.distinct_states", "count"),
    ("heuristic.memo_hit_rate", "frac"),
    ("heuristic_mapper.queue_trims", "count"),
    ("batch.makespan_s", "s"),
    ("batch.busy_frac", "frac"),
    ("batch.failed", "count"),
    ("warmcache.repeat_frac", "frac"),
    ("warmcache.memo_hit_rate.first", "frac"),
    ("warmcache.memo_hit_rate.repeat", "frac"),
    ("trace.untraced_circuits_per_min", "1/min"),
    ("trace.traced_circuits_per_min", "1/min"),
    ("trace.overhead_frac", "frac"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, broken child)."""


# -- statistics ---------------------------------------------------------


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# -- child processes ----------------------------------------------------


def _kill_group(pgid: int) -> None:
    """Kill any process left in a child's session and wait until none is."""
    for _ in range(100):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Runner:
    """Spawns ``child.py`` processes one at a time and collects reports.

    Use as a context manager: leaving it stops the fork server, if one
    was started, and every process it left.
    """

    def __init__(self, pkg: Path, work: Path, build_error) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(pkg))
        self.env.pop("PYTHONSTARTUP", None)
        if build_error is None:
            # A missing compiled kernel must fail loudly, never fall back.
            self.env["REPRO_KERNEL_BACKEND"] = "compiled"
        else:
            self.env.pop("REPRO_KERNEL_BACKEND", None)
        self.count = 0
        self.server = None

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _task_file(self, task: dict) -> Path:
        self.count += 1
        path = self.work / f"task{self.count}.json"
        path.write_text(json.dumps(task))
        return path

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.server.stdout], [], [], timeout)
        line = self.server.stdout.readline() if ready else ""
        if not line:
            err = (self.work / "server.err").read_text()[-2000:]
            self.close()
            raise BenchError(f"fork server stopped answering: {err.strip()}")
        return line.strip()

    def _serve(self, setup_specs) -> None:
        """Start the fork server, set up for ``setup_specs``, once."""
        if self.server is not None:
            return
        path = self._task_file(setup_specs)
        with open(self.work / "server.err", "w") as err:
            self.server = subprocess.Popen(
                [sys.executable, str(CHILD), "--serve", str(path),
                 str(int(CHILD_TIMEOUT_S))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                text=True, env=self.env, cwd=str(HERE),
                start_new_session=True,
            )
        if self._read_line(CHILD_TIMEOUT_S) != "ready":
            raise BenchError("fork server did not start")

    def close(self) -> None:
        """Stop the fork server and anything left in its session."""
        if self.server is None:
            return
        server, self.server = self.server, None
        server.stdin.close()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        _kill_group(server.pid)
        server.wait()
        server.stdout.close()

    def compile(self, task: dict) -> dict:
        """One one-shot compile in a process forked from the server."""
        self._serve(task["setup_specs"])
        path = self._task_file(task)
        self.server.stdin.write(f"{path}\n")
        self.server.stdin.flush()
        status = int(self._read_line(CHILD_TIMEOUT_S + 30).split()[1])
        if status == -signal.SIGALRM:
            return {"ok": False, "error": "compile timed out",
                    "map_s": CHILD_TIMEOUT_S}
        report_path = Path(f"{path}.report")
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        if status != 0:
            raise BenchError(f"forked compile exited {status}: "
                             f"{report.get('error', '')}")
        return report

    def run(self, task: dict, importtime: bool = False):
        """Spawn one fresh child; return ``(report, stderr)``."""
        path = self._task_file(task)
        argv = [sys.executable]
        if importtime:
            argv += ["-X", "importtime"]
        argv += [str(CHILD), str(path)]
        env = dict(self.env, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(HERE), start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its workers
            proc.communicate()
            raise BenchError(f"{task['kind']} child timed out")
        finally:
            _kill_group(proc.pid)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"child exited {proc.returncode}: {err.strip()[-2000:]}"
            )
        return json.loads(lines[-1]), err


# -- inputs and checks ----------------------------------------------------


def write_inputs(specs, work: Path) -> dict:
    """Write each distinct spec's circuit as QASM; return key → path."""
    from repro.circuit.qasm import to_qasm

    (work / "in").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(parents=True, exist_ok=True)
    paths = {}
    for spec in specs:
        if spec.key not in paths:
            path = work / "in" / f"{spec.key}.qasm"
            path.write_text(to_qasm(catalog.circuit(spec)))
            paths[spec.key] = str(path)
    return paths


class Checker:
    """Decides per compile: completed or failed, and whether it is wrong.

    A compile *completes* when its schedule passed ``validate_result``,
    its output QASM holds every input gate, and, for exact-class
    requests, it is marked optimal at the pinned optimum depth.  A
    failure is *expected* only for the documented seed defects in
    ``expected.json``; anything else, and any false optimality claim or
    invalid output, makes the run incorrect.
    """

    def __init__(self) -> None:
        pinned = json.loads((HERE / "expected.json").read_text())
        self.optimal_depth = {
            key: row["depth"] for key, row in pinned["optimal_depth"].items()
        }
        self.known_failures = pinned["known_failures"]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def judge(self, spec, report, qasm_in, qasm_out) -> bool:
        self.attempted += 1
        problem, wrong = self._problem(spec, report, qasm_in, qasm_out)
        if problem is None:
            return True
        self.failed += 1
        if wrong or f"{spec.mapper}:{spec.key}" not in self.known_failures:
            self.problems.append(problem)
        return False

    def _problem(self, spec, report, qasm_in, qasm_out):
        """``(why it did not complete, whether its output is wrong)``."""
        from repro.circuit.qasm import load_qasm_file

        key = spec.key
        if not report.get("ok"):
            return f"{key}: compile failed: {report.get('error')}", False
        if not report.get("verified"):
            return f"{key}: checker rejected: {report.get('error')}", True
        gates_in = len(load_qasm_file(qasm_in).gates)
        gates_out = sum(
            gate.name != "swap" for gate in load_qasm_file(qasm_out).gates
        )
        if gates_in != gates_out:
            return f"{key}: output has {gates_out} of {gates_in} gates", True
        if spec.mapper == "heuristic":
            return None, False
        pinned = self.optimal_depth[key]
        depth = report["depth"]
        if depth < pinned or (report["optimal"] and depth != pinned):
            return f"{key}: depth {depth} vs pinned optimum {pinned}", True
        if not report["optimal"]:
            return (f"{key}: not proven optimal (depth {depth}, optimum "
                    f"{pinned})"), False
        return None, False


# -- workloads ------------------------------------------------------------


def oneshot_pass(runner, specs, paths, checker, trace=False, deadline=None):
    """Compile ``specs`` in order, one forked process each.

    With ``deadline`` the pass stops early once it is reached (later
    passes); returns the ``(spec, report)`` list.
    """
    setup_specs = sorted((s.__dict__ for s in specs), key=json.dumps)
    done = []
    for spec in specs:
        if deadline is not None and time.monotonic() >= deadline:
            break
        out = runner.work / "out" / f"{spec.key}.{runner.count}.qasm"
        report = runner.compile({
            "kind": "oneshot", "spec": spec.__dict__, "trace": trace,
            "qasm_in": paths[spec.key], "qasm_out": str(out),
            "setup_specs": setup_specs,
        })
        report["completed"] = checker.judge(spec, report, paths[spec.key],
                                            str(out))
        done.append((spec, report))
    return done


def stream_call(runner, requests, paths, checker, workers, trace=False):
    """One stream child: one ``map_many`` call over ``requests``."""
    items = []
    for index, spec in enumerate(requests):
        out = runner.work / "out" / f"{spec.key}.{runner.count}.{index}.qasm"
        items.append({"spec": spec.__dict__, "qasm_in": paths[spec.key],
                      "qasm_out": str(out)})
    report, _ = runner.run({
        "kind": "stream", "requests": items, "workers": workers,
        "trace": trace, "setup_specs": [r["spec"] for r in items],
    })
    for spec, item, row in zip(requests, items, report["requests"]):
        row["completed"] = checker.judge(spec, row, item["qasm_in"],
                                         item["qasm_out"])
    return report


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def setup_probes(runner, specs):
    """``setup_s`` samples: spaced set-up-only cold starts after idle."""
    samples = []
    time.sleep(SETUP_SETTLE_S - SETUP_GAP_S)
    for _ in range(SETUP_PROBES):
        time.sleep(SETUP_GAP_S)
        report, _ = runner.run({
            "kind": "setup", "setup_specs": [s.__dict__ for s in specs],
        })
        samples.append(report["setup_s"])
    return samples


def _stream_untraced(args, runner, specs, paths, checker, deadline):
    """Stream calls while the next one is expected to end by ``deadline``
    (the first always runs); a call's rate counts completed requests over
    its ``map_many`` wall time."""
    requests = catalog.request_stream(specs, args.seed)
    rss, cpm, geo, calls = [], [], [], []
    call_s = 0.0
    while not calls or time.monotonic() + call_s < deadline:
        start = time.monotonic()
        report = stream_call(runner, requests, paths, checker,
                             catalog.STREAM_WORKERS)
        call_s = time.monotonic() - start
        calls.append(report)
        rows = report["requests"]
        rss.append(max([report["peak_rss_mb"]] + [r["rss_mb"] for r in rows]))
        cpm.append(60.0 * sum(r["completed"] for r in rows)
                   / report["makespan_s"])
        geo.append(geomean(r["map_s"] for r in rows))
    metrics = {"circuits_per_min": statistics.median(cpm),
               "map_s.geomean": statistics.median(geo)}
    samples = {"circuits_per_min (per call)": cpm,
               "map_s.geomean (per call)": geo}
    return metrics, samples, rss, calls[0]["requests"]


def _oneshot_untraced(args, runner, specs, paths, checker, deadline):
    """Whole passes over ``specs`` until ``deadline``."""
    results = []
    pass_no = 0
    while pass_no == 0 or time.monotonic() < deadline:
        results += oneshot_pass(
            runner, catalog.order(specs, args.seed + pass_no), paths,
            checker, deadline=deadline if pass_no else None,
        )
        pass_no += 1
    first = {}
    for spec, report in results:
        first.setdefault(spec.key, report)
    samples = {"map_s (per compile)": [r["map_s"] for _, r in results]}
    rss = [r["peak_rss_mb"] for _, r in results if "peak_rss_mb" in r]
    return oneshot_rates(results), samples, rss, list(first.values())


def oneshot_rates(results) -> dict:
    """``circuits_per_min`` and ``map_s.geomean`` of one-shot compiles.

    Each circuit is charged the median ``map_s`` of its compiles, failed
    and timed-out ones included, and counts as completed in the share of
    its compiles that completed.
    """
    times, done = {}, {}
    for spec, report in results:
        times.setdefault(spec.key, []).append(report["map_s"])
        done.setdefault(spec.key, []).append(report["completed"])
    medians = [statistics.median(v) for v in times.values()]
    completed = sum(statistics.fmean(v) for v in done.values())
    return {"circuits_per_min": 60.0 * completed / sum(medians),
            "map_s.geomean": geomean(medians)}


def run_untraced(args, runner, specs, paths, checker):
    """End-to-end metrics and the per-sample lists behind them."""
    deadline = time.monotonic() + args.seconds
    setup = setup_probes(runner, specs)
    measure = _stream_untraced if args.workload == "stream" else _oneshot_untraced
    metrics, samples, rss, reports = measure(args, runner, specs, paths,
                                             checker, deadline)
    ratios = [r["depth"] / r["ideal"] for r in reports if r.get("ok")]
    metrics.update(
        setup_s=statistics.median(setup),
        peak_rss_mb=max(rss),
        depth_ratio=geomean(ratios),
        completed_frac=(checker.attempted - checker.failed) / checker.attempted,
    )
    samples.update({"setup_s (per cold start)": setup,
                    "peak_rss_mb (per process)": rss,
                    "depth_ratio (per circuit)": ratios})
    return metrics, samples


def _import_times(stderr: str) -> dict:
    """Cumulative ``-X importtime`` seconds of each target package."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in IMPORT_TARGETS and name not in found:
            found[name] = int(parts[1]) / 1e6
    return {f"import_s.{n}": found.get(n, 0.0) for n in IMPORT_TARGETS}


def _nodes_by_key(rows):
    out = {}
    for key, row in rows:
        out.setdefault(key, []).append(row.get("stats", {}).get("nodes_expanded"))
    return out


def _sum_stat(rows, name):
    return sum(row.get("stats", {}).get(name, 0) or 0 for _, row in rows)


def _fleet_metrics(requests, fleet) -> dict:
    """Batch and warm-cache metrics of one multi-worker stream call."""
    rows = fleet["requests"]
    metrics = {
        "batch.makespan_s": fleet["makespan_s"],
        "batch.busy_frac": sum(r["task_s"] for r in rows)
        / (fleet["workers"] * fleet["makespan_s"]),
        "batch.failed": sum(not r["ok"] for r in rows),
        "warmcache.repeat_frac": 1 - len(set(requests)) / len(requests),
    }
    seen, hits = set(), {"first": [0, 0], "repeat": [0, 0]}
    for spec, row in zip(requests, rows):
        kind = "repeat" if spec.key in seen else "first"
        seen.add(spec.key)
        found = row["stats"].get("memo_hits", 0)
        hits[kind][0] += found
        hits[kind][1] += found + row["stats"].get("memo_misses", 0)
    for kind, (found, total) in hits.items():
        metrics[f"warmcache.memo_hit_rate.{kind}"] = found / total if total else 0.0
    return metrics


def run_traced(args, runner, specs, paths, checker):
    """Per-layer metrics from one untraced and one traced pass."""
    _, stderr = runner.run(
        {"kind": "setup", "setup_specs": [s.__dict__ for s in specs]},
        importtime=True,
    )
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    metrics.update(_import_times(stderr))
    if args.workload == "stream":
        requests = catalog.request_stream(specs, args.seed)
        fleet = stream_call(runner, requests, paths, checker,
                            catalog.STREAM_WORKERS)
        # The seam wrapper's timers live in the process that maps, so the
        # traced call runs in-process with one worker; the untraced counts
        # and times come from the two-worker call.
        traced = stream_call(runner, requests, paths, checker, 1, trace=True)
        untraced_rows = [(s.key, r) for s, r in zip(requests, fleet["requests"])]
        traced_rows = [(s.key, r) for s, r in zip(requests, traced["requests"])]
        seams = [traced]
        metrics.update(_fleet_metrics(requests, fleet))
        search_s = sum(r.get("task_s", 0) for _, r in traced_rows)
    else:
        ordered = catalog.order(specs, args.seed)
        plain = oneshot_pass(runner, ordered, paths, checker)
        traced = oneshot_pass(runner, ordered, paths, checker, trace=True)
        untraced_rows = [(s.key, r) for s, r in plain]
        traced_rows = [(s.key, r) for s, r in traced]
        seams = [r for _, r in traced]
        search_s = sum(r.get("map_call_s", 0) for _, r in traced_rows)
        metrics["problem.build_s"] = sum(
            r.get("build_s", 0) for _, r in traced_rows)
    seam_ns = {layer: 0 for layer in ("expand", "score", "heap", "admit")}
    seam_calls = dict(seam_ns)
    scored = 0
    for report in seams:
        for layer in seam_ns:
            seam_ns[layer] += report.get("seam_ns", {}).get(layer, 0)
            seam_calls[layer] += report.get("seam_calls", {}).get(layer, 0)
        scored += report.get("scored_nodes", 0)
    for layer in seam_ns:
        metrics[f"kernel.{layer}_s"] = seam_ns[layer] / 1e9
    metrics["kernel.expand.calls"] = seam_calls["expand"]
    metrics["kernel.score.calls"] = seam_calls["score"]
    metrics["kernel.score.nodes"] = scored
    metrics["search.self_s"] = search_s - sum(seam_ns.values()) / 1e9
    for name, field in (("circuit.parse_s", "parse_s"),
                        ("verify.s", "verify_s"), ("emit.s", "emit_s")):
        metrics[name] = sum(r.get(field, 0) for _, r in traced_rows)
    expanded = _sum_stat(untraced_rows, "nodes_expanded")
    generated = _sum_stat(untraced_rows, "nodes_generated")
    seconds = _sum_stat(untraced_rows, "seconds")
    metrics["search.nodes_expanded"] = expanded
    metrics["search.nodes_generated"] = generated
    metrics["search.nodes_per_s"] = expanded / seconds if seconds else 0.0
    dropped = sum(_sum_stat(untraced_rows, name) for name in (
        "filtered_equivalent", "filtered_dominated", "closed_dominated"))
    metrics["filter.admit_frac"] = 1 - dropped / generated if generated else 0.0
    for name, field in PRUNE_STATS.items():
        metrics[name] = _sum_stat(untraced_rows, field)
    metrics["search.distinct_states"] = _sum_stat(untraced_rows, "distinct_states")
    hits = _sum_stat(untraced_rows, "memo_hits")
    lookups = hits + _sum_stat(untraced_rows, "memo_misses")
    metrics["heuristic.memo_hit_rate"] = hits / lookups if lookups else 0.0
    metrics["heuristic_mapper.queue_trims"] = _sum_stat(
        untraced_rows, "queue_trims")
    plain_s = sum(r["map_s"] for _, r in untraced_rows if r.get("ok"))
    traced_s = sum(r["map_s"] for _, r in traced_rows if r.get("ok"))
    count = sum(1 for _, r in untraced_rows if r.get("ok"))
    metrics["trace.untraced_circuits_per_min"] = 60.0 * count / plain_s
    metrics["trace.traced_circuits_per_min"] = 60.0 * count / traced_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    reference = _nodes_by_key(untraced_rows)
    for key, counts in _nodes_by_key(traced_rows).items():
        if set(counts) != set(reference[key]):
            checker.problems.append(
                f"{key}: traced pass expanded {counts}, untraced "
                f"{reference[key]}")
    return metrics, {}


# -- main -------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="two circuits per workload (self-tests)")
    return parser.parse_args(argv)


def run(argv=None) -> dict:
    """Run one benchmark invocation; return the result object."""
    args = parse_args(argv)
    pkg, build_error = build.build()
    sys.path.insert(0, str(pkg))
    import repro  # noqa: F401  (fail here, not in a child, if it is broken)

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "kernel_backend": None, "build": build_error or "ok",
        "nproc": nproc(), "stream_workers": catalog.STREAM_WORKERS,
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }
    specs = catalog.specs(args.workload, args.tiny)
    work = build.BUILD_ROOT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        paths = write_inputs(specs, work)
        checker = Checker()
        with Runner(pkg, work, build_error) as runner:
            probe, _ = runner.run({"kind": "setup", "setup_specs": []})
            context["kernel_backend"] = probe["kernel_backend"]
            if args.trace:
                metrics, per_sample = run_traced(args, runner, specs, paths,
                                                 checker)
                units = dict(PER_LAYER)
            else:
                metrics, per_sample = run_untraced(args, runner, specs, paths,
                                                   checker)
                units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("context " + json.dumps(context))
    for name, values in per_sample.items():
        q1, median, q3 = quartiles(values)
        print(f"sample {name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g}"
              f" n {len(values)}")
    for problem in checker.problems:
        print(f"check FAILED {problem}")
    return {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }


def main(argv=None) -> int:
    try:
        result = run(argv)
    except (BenchError, build.BuildError, FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
