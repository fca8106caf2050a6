"""Run ledger, cross-run analytics, fleet monitor, CLI integration.

Covers the observability ledger stack end to end:

* ``RunLedger`` / ``LedgerRun`` — open/finish/read roundtrip, prefix
  lookup, idempotent finish, config fingerprinting, gc retention;
* torn-tail tolerance — a reader racing a concurrent appender must see
  every complete row and silently drop only the truncated last line;
* correlation IDs — ``run_id`` threaded through ``Telemetry`` /
  ``TelemetrySpec`` into progress events, metrics snapshots, worker
  shards and the fleet rollup;
* :mod:`repro.analysis.runs` — counter-by-counter diff (deterministic
  counters vs noisy timings) and the same-fingerprint regression scan;
* ``FleetMonitor`` — frame rendering from synthetic shard directories;
* Prometheus exposition edge cases — empty registries, zero-sample
  histograms, names needing sanitization, bool/None sample values;
* the ``repro runs ...`` / ``repro top`` / ``--ledger-dir`` CLI.
"""

import io
import json
import os

import pytest

from repro.analysis.runs import (
    diff_runs,
    find_regressions,
    fingerprint_groups,
    list_runs,
    render_diff,
    render_regressions,
    render_run,
    render_runs_table,
)
from repro.circuit import to_qasm
from repro.circuit.generators import qft_skeleton
from repro.cli import main
from repro.obs import (
    JsonlSink,
    MemorySink,
    RunLedger,
    Telemetry,
    TelemetrySpec,
    config_fingerprint,
    new_run_id,
    read_jsonl,
)
from repro.obs.export import (
    run_to_prometheus,
    summarize_run,
    write_fleet_meta,
)
from repro.obs.ledger import _looks_like_run_dir
from repro.obs.monitor import FleetMonitor


# ----------------------------------------------------------------------
# Ledger core
# ----------------------------------------------------------------------

class TestRunLedgerCore:
    def test_open_finish_read_roundtrip(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        run = ledger.open_run("map", {"circuit": "qft:5", "arch": "lnn-5"})
        run.add_artifact("metrics", str(tmp_path / "metrics.jsonl"))
        row = run.finish(
            "ok", stats={"nodes_expanded": 42, "seconds": 0.5},
            extra={"depth": 23},
        )
        rows = ledger.runs()
        assert len(rows) == 1
        stored = rows[0]
        assert stored["run_id"] == run.run_id
        assert stored["type"] == "run"
        assert stored["kind"] == "map"
        assert stored["status"] == "ok"
        assert stored["fingerprint"] == row["fingerprint"]
        assert stored["stats"]["nodes_expanded"] == 42
        assert stored["depth"] == 23
        assert stored["artifacts"]["metrics"].endswith("metrics.jsonl")
        assert "git_sha" in stored and "python_version" in stored

    def test_nothing_written_before_finish(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.open_run("map", {})
        assert ledger.runs() == []

    def test_finish_is_idempotent(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        run = ledger.open_run("map", {})
        run.finish("ok")
        assert run.finish("error") == {}
        assert len(ledger.runs()) == 1
        assert ledger.runs()[0]["status"] == "ok"

    def test_get_by_prefix_and_errors(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        run_a = ledger.open_run("map", {"x": 1})
        run_a.finish("ok")
        assert ledger.get(run_a.run_id[:12])["run_id"] == run_a.run_id
        with pytest.raises(KeyError):
            ledger.get("nonexistent")
        run_b = ledger.open_run("map", {"x": 2})
        run_b.finish("ok")
        shared = os.path.commonprefix([run_a.run_id, run_b.run_id])
        if shared:  # same-second stamps share a prefix -> ambiguous
            with pytest.raises(KeyError):
                ledger.get(shared)

    def test_fingerprint_ignores_volatile_keys(self):
        base = {"circuit": "qft:5", "mapper": "optimal"}
        with_outputs = dict(
            base, json_out="/tmp/a.json", metrics_out="/tmp/b.jsonl",
            telemetry_dir="/tmp/tel",
        )
        assert config_fingerprint(base) == config_fingerprint(with_outputs)
        assert config_fingerprint(base) != config_fingerprint(
            dict(base, mapper="heuristic")
        )

    def test_run_id_shape(self):
        run_id = new_run_id()
        assert _looks_like_run_dir(run_id)
        assert not _looks_like_run_dir("fleet")
        assert not _looks_like_run_dir("not-arunid")


# ----------------------------------------------------------------------
# Torn-tail tolerance (concurrently-appended ledgers)
# ----------------------------------------------------------------------

class TestTornTail:
    def test_reader_drops_truncated_last_line(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.open_run("map", {"x": 1}).finish("ok")
        ledger.open_run("map", {"x": 2}).finish("ok")
        with open(ledger.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "run", "run_id": "20990101T0000')  # torn
        rows = ledger.runs()
        assert len(rows) == 2  # every complete row, torn tail dropped
        with pytest.raises(ValueError):
            ledger.entries(strict=True)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = str(tmp_path / "index.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"type": "run"}\n')
            handle.write("garbage not json\n")
            handle.write('{"type": "run"}\n')
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_jsonl_sink_emits_one_line_per_record(self, tmp_path):
        # The single-write append is what makes concurrent ledgers safe:
        # record + newline must leave emit() as one write, never two.
        path = str(tmp_path / "out.jsonl")
        writes = []
        with JsonlSink(path) as sink:
            sink.emit({"type": "a"})  # opens the lazy handle
            original = sink._handle.write
            sink._handle.write = lambda text: (
                writes.append(text), original(text)
            )[1]
            sink.emit({"type": "b"})
            sink.emit({"type": "c"})
        assert len(writes) == 2
        assert all(w.endswith("\n") and w.count("\n") == 1 for w in writes)
        assert [r["type"] for r in read_jsonl(path)] == ["a", "b", "c"]


# ----------------------------------------------------------------------
# gc retention
# ----------------------------------------------------------------------

class TestGc:
    def _run_with_artifacts(self, ledger, payload):
        run = ledger.open_run("map", payload)
        path = run.artifact_path("trace.jsonl", register="trace")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{}\n")
        run.finish("ok")
        return run

    def test_prunes_artifacts_keeps_index_rows(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        runs = [
            self._run_with_artifacts(ledger, {"i": i}) for i in range(3)
        ]
        pruned = ledger.gc(keep=1)
        assert sorted(pruned) == sorted(r.run_id for r in runs[:2])
        assert not os.path.isdir(runs[0].directory)
        assert not os.path.isdir(runs[1].directory)
        assert os.path.isdir(runs[2].directory)  # newest survives
        rows = ledger.runs()
        assert len(rows) == 3  # index rows never deleted
        gc_rows = [
            r for r in ledger.entries() if r.get("type") == "gc"
        ]
        assert len(gc_rows) == 1
        assert sorted(gc_rows[0]["pruned"]) == sorted(pruned)

    def test_prunes_unindexed_crashed_run_dirs_only(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        self._run_with_artifacts(ledger, {"i": 0})
        crashed = tmp_path / new_run_id()  # opened, never finished
        crashed.mkdir()
        foreign = tmp_path / "not-a-run-dir"
        foreign.mkdir()
        pruned = ledger.gc(keep=5)
        assert pruned == [crashed.name]
        assert foreign.is_dir()  # never touch foreign directories

    def test_negative_keep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunLedger(str(tmp_path)).gc(keep=-1)


# ----------------------------------------------------------------------
# Correlation-ID threading
# ----------------------------------------------------------------------

class TestCorrelationId:
    def test_progress_events_carry_run_id(self):
        from repro.obs import SearchProgressEvent

        telemetry = Telemetry(progress_every=1, run_id="RUN-1")
        seen = []
        telemetry.progress.subscribe(seen.append)
        telemetry.publish_progress(SearchProgressEvent(
            mapper="optimal", phase="search", nodes_expanded=1,
            nodes_generated=1, heap_size=1, best_f=0,
            elapsed_seconds=0.1,
        ))
        assert seen and all(
            event.extra.get("run_id") == "RUN-1" for event in seen
        )

    def test_metrics_snapshot_carries_run_id(self):
        sink = MemorySink()
        telemetry = Telemetry(sink=sink, run_id="RUN-2")
        telemetry.finish()
        snapshots = sink.of_type("metrics")
        assert snapshots and all(
            r.get("run_id") == "RUN-2" for r in snapshots
        )

    def test_spec_propagates_run_id_to_workers(self, tmp_path):
        spec = TelemetrySpec(directory=str(tmp_path), run_id="RUN-3")
        assert spec.build(worker_id=1).run_id == "RUN-3"


# ----------------------------------------------------------------------
# Cross-run analytics
# ----------------------------------------------------------------------

def _row(run_id, fingerprint="fp1", status="ok", **stats):
    return {
        "type": "run", "run_id": run_id, "kind": "map",
        "status": status, "fingerprint": fingerprint,
        "wall_s": stats.pop("wall_s", 0.5), "stats": stats,
    }


class TestRunsAnalysis:
    def test_identical_runs_have_zero_counter_deltas(self):
        a = _row("r1", nodes_expanded=100, pruned_by_bound=7, seconds=0.31)
        b = _row("r2", nodes_expanded=100, pruned_by_bound=7, seconds=0.29)
        diff = diff_runs(a, b)
        assert diff["fingerprint_match"]
        assert diff["counter_deltas"] == 0
        assert "seconds" in diff["timings"]  # timing, never a delta
        assert "nodes_expanded" in diff["counters"]
        assert "counter-identical" in render_diff(diff, "r1", "r2")

    def test_counter_drift_is_counted_with_pct(self):
        a = _row("r1", nodes_expanded=100)
        b = _row("r2", nodes_expanded=150)
        diff = diff_runs(a, b)
        assert diff["counter_deltas"] == 1
        cell = diff["counters"]["nodes_expanded"]
        assert cell["delta"] == 50 and cell["pct"] == 50.0

    def test_fingerprint_mismatch_is_flagged(self):
        diff = diff_runs(
            _row("r1", fingerprint="fpA"), _row("r2", fingerprint="fpB")
        )
        assert not diff["fingerprint_match"]
        assert "warning" in render_diff(diff, "r1", "r2")

    def test_identical_repeats_produce_no_regressions(self):
        rows = [
            _row(f"r{i}", nodes_expanded=500, seconds=0.5)
            for i in range(4)
        ]
        assert find_regressions(rows) == []
        assert fingerprint_groups(rows) == 1

    def test_injected_slow_run_is_flagged(self):
        rows = [
            _row("r1", nodes_expanded=500, seconds=0.5),
            _row("r2", nodes_expanded=500, seconds=0.5),
            _row("r3", nodes_expanded=1000, seconds=0.5),  # 2x the work
        ]
        findings = find_regressions(rows)
        assert len(findings) == 1
        finding = findings[0]
        assert finding["run_id"] == "r3"
        assert finding["metric"] == "nodes_expanded"
        assert finding["baseline_run"] == "r1"
        assert finding["ratio"] == 2.0
        assert "r3" in render_regressions(findings, scanned=3)

    def test_rate_gate_skips_sub_threshold_runs(self):
        # 2ms runs: timer noise dominates, the throughput gate must not
        # fire no matter how bad the measured rate looks.
        rows = [
            _row("r1", nodes_expanded=100, seconds=0.002),
            _row("r2", nodes_expanded=100, seconds=0.02),
        ]
        assert find_regressions(rows) == []

    def test_budget_runs_do_not_participate(self):
        rows = [
            _row("r1", nodes_expanded=500, seconds=0.5),
            _row("r2", status="budget", nodes_expanded=9999, seconds=0.5),
        ]
        assert find_regressions(rows) == []

    def test_list_and_render(self):
        rows = [_row(f"r{i}") for i in range(5)]
        assert [r["run_id"] for r in list_runs(rows, limit=2)] == ["r3", "r4"]
        table = render_runs_table(rows)
        assert "r0" in table and "fingerprint" in table
        assert "fp1" in render_run(rows[0])


# ----------------------------------------------------------------------
# Fleet monitor
# ----------------------------------------------------------------------

def _write_shard(directory, name, records):
    with JsonlSink(os.path.join(directory, name)) as sink:
        for record in records:
            sink.emit(record)


class TestFleetMonitor:
    def _fleet_dir(self, tmp_path, total_tasks=4):
        directory = str(tmp_path / "fleet")
        write_fleet_meta(
            directory, total_tasks=total_tasks, workers=2,
            scheduler="stealing", run_id="RUN-M",
        )
        base = 1000.0
        _write_shard(directory, "worker-1.jsonl", [
            {"type": "worker_task", "ok": True, "nodes_expanded": 50,
             "seconds": 0.5, "ts": base + 1, "depth": 20,
             "run_id": "RUN-M",
             "warm_cache": {"problem_hits": 3, "problem_misses": 1}},
            {"type": "worker_task", "ok": True, "nodes_expanded": 30,
             "seconds": 0.3, "ts": base + 2, "depth": 18,
             "run_id": "RUN-M"},
        ])
        _write_shard(directory, "worker-2.jsonl", [
            {"type": "worker_task", "ok": False, "nodes_expanded": 20,
             "seconds": 0.2, "ts": base + 1.5, "depth": None,
             "run_id": "RUN-M",
             "peak_rss_bytes": 64 * 1024 * 1024},
        ])
        return directory, base

    def test_snapshot_aggregates(self, tmp_path):
        directory, base = self._fleet_dir(tmp_path)
        snap = FleetMonitor(directory).snapshot(now=base + 3)
        assert snap["run_id"] == "RUN-M"
        assert snap["completed"] == 3 and snap["ok"] == 2
        assert snap["total_tasks"] == 4 and snap["queue_depth"] == 1
        assert snap["nodes"] == 100
        assert snap["warm_hit_rate"] == pytest.approx(0.75)
        # incumbent timeline is a running minimum of completed depths
        assert [d for _, d in snap["incumbent_timeline"]] == [20, 18]
        assert not snap["done"]

    def test_frame_renders_and_completes(self, tmp_path):
        directory, base = self._fleet_dir(tmp_path, total_tasks=3)
        frame = FleetMonitor(directory).frame(now=base + 3)
        assert "run RUN-M" in frame
        assert "tasks 3/3" in frame
        assert "queue 0" in frame
        assert "worker-1.jsonl" in frame and "worker-2.jsonl" in frame
        assert "incumbent: d20@" in frame
        assert frame.endswith("fleet complete")

    def test_watch_exits_on_completion(self, tmp_path):
        directory, _ = self._fleet_dir(tmp_path, total_tasks=3)
        stream = io.StringIO()
        frames = FleetMonitor(directory).watch(
            interval=0.0, iterations=5, stream=stream, clear=False,
        )
        assert frames == 1  # fleet already complete -> first frame exits
        assert "fleet complete" in stream.getvalue()
        assert "\x1b[" not in stream.getvalue()  # clear=False: no ANSI

    def test_empty_directory_frame(self, tmp_path):
        frame = FleetMonitor(str(tmp_path)).frame()
        assert "(no worker shards yet)" in frame
        assert not frame.endswith("fleet complete")


# ----------------------------------------------------------------------
# Prometheus exposition edge cases
# ----------------------------------------------------------------------

class TestPrometheusEdgeCases:
    @staticmethod
    def _assert_parseable(text):
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # unparseable values (True/None) raise here
            metric = name_part.split("{", 1)[0]
            assert metric.replace("_", "a").isalnum(), line

    def test_empty_registry_yields_empty_exposition(self):
        summary = summarize_run([{"type": "metrics", "metrics": {}}])
        assert run_to_prometheus(summary) == ""

    def test_zero_sample_histogram_stays_parseable(self):
        summary = summarize_run([{
            "type": "metrics",
            "metrics": {
                "empty.hist": {
                    "count": 0, "sum": 0.0, "min": None, "max": None,
                },
            },
        }])
        text = run_to_prometheus(summary)
        assert "repro_empty_hist_count 0" in text
        assert "None" not in text  # null min/max coerced to 0
        self._assert_parseable(text)

    def test_names_needing_sanitization(self):
        summary = summarize_run([{
            "type": "metrics",
            "metrics": {
                "search.nodes-expanded/total": 7,
                "gauge.value": {"value": True, "max": None},
            },
        }])
        text = run_to_prometheus(summary)
        assert "repro_search_nodes_expanded_total 7" in text
        assert "repro_gauge_value 1" in text  # bool -> 1, not "True"
        assert "repro_gauge_value_max 0" in text  # None -> 0
        self._assert_parseable(text)
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

@pytest.fixture
def qasm_dir(tmp_path):
    directory = tmp_path / "circuits"
    directory.mkdir()
    for name, circuit in (
        ("qft4", qft_skeleton(4)),
        ("qft5", qft_skeleton(5)),
    ):
        (directory / f"{name}.qasm").write_text(to_qasm(circuit))
    return str(directory)


class TestLedgerCli:
    def _map(self, ledger_dir, extra=()):
        return main([
            "map", "--circuit", "qft:5", "--arch", "lnn-5",
            "--mapper", "optimal", "--ledger-dir", ledger_dir, *extra,
        ])

    def test_map_records_run(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "runs")
        assert self._map(ledger_dir) == 0
        err = capsys.readouterr().err
        assert "recorded run" in err
        rows = RunLedger(ledger_dir).runs()
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "map" and row["status"] == "ok"
        assert row["stats"]["nodes_expanded"] > 0
        assert row["depth"] == 23 and row["optimal"] is True

    def test_deterministic_repeat_diffs_clean(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "runs")
        assert self._map(ledger_dir) == 0
        assert self._map(ledger_dir) == 0
        run_a, run_b = [
            r["run_id"] for r in RunLedger(ledger_dir).runs()
        ]
        code = main([
            "runs", "diff", run_a, run_b,
            "--ledger-dir", ledger_dir, "--fail-on-delta",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 counter delta(s) — runs are counter-identical" in out

    def test_regressions_flag_injected_slow_run(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "runs")
        assert self._map(ledger_dir) == 0
        ledger = RunLedger(ledger_dir)
        baseline = ledger.runs()[0]
        slow = dict(baseline, run_id=new_run_id())
        slow["stats"] = dict(
            baseline["stats"],
            nodes_expanded=baseline["stats"]["nodes_expanded"] * 3,
        )
        ledger.append(slow)
        code = main(["runs", "regressions", "--ledger-dir", ledger_dir])
        out = capsys.readouterr().out
        assert code == 1
        assert "nodes_expanded" in out and slow["run_id"] in out
        # identical history scans clean with exit 0
        clean_dir = str(tmp_path / "clean")
        assert self._map(clean_dir) == 0
        assert self._map(clean_dir) == 0
        assert main(
            ["runs", "regressions", "--ledger-dir", clean_dir]
        ) == 0

    def test_map_batch_stamps_run_id_everywhere(
        self, tmp_path, qasm_dir, capsys,
    ):
        ledger_dir = str(tmp_path / "runs")
        code = main([
            "map-batch", "--dir", qasm_dir, "--arch", "lnn-5",
            "--mapper", "heuristic", "--workers", "2",
            "--ledger-dir", ledger_dir,
        ])
        assert code == 0
        capsys.readouterr()
        ledger = RunLedger(ledger_dir)
        row = ledger.runs()[0]
        fleet_dir = row["artifacts"]["telemetry_dir"]
        shards = [
            name for name in os.listdir(fleet_dir)
            if name.startswith("worker-") and name.endswith(".jsonl")
        ]
        assert shards
        for shard in shards:  # every worker shard carries the run_id
            task_records = [
                r for r in read_jsonl(os.path.join(fleet_dir, shard))
                if r.get("type") in ("worker_meta", "worker_task")
            ]
            assert task_records
            assert all(
                r.get("run_id") == row["run_id"] for r in task_records
            )
        with open(os.path.join(fleet_dir, "fleet.json")) as handle:
            fleet = json.load(handle)
        assert fleet["fleet"]["run_id"] == row["run_id"]

    def test_runs_list_show_and_gc(self, tmp_path, qasm_dir, capsys):
        ledger_dir = str(tmp_path / "runs")
        assert self._map(ledger_dir) == 0
        assert main([
            "map-batch", "--dir", qasm_dir, "--arch", "lnn-5",
            "--mapper", "heuristic", "--workers", "1",
            "--ledger-dir", ledger_dir,
        ]) == 0
        capsys.readouterr()

        assert main(["runs", "list", "--ledger-dir", ledger_dir]) == 0
        out = capsys.readouterr().out
        assert "map-batch" in out and out.count("ok") >= 2

        assert main([
            "runs", "list", "--ledger-dir", ledger_dir,
            "--kind", "map", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["kind"] == "map"

        run_id = rows[0]["run_id"]
        assert main([
            "runs", "show", run_id, "--ledger-dir", ledger_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert run_id in out and "fingerprint" in out

        ledger = RunLedger(ledger_dir)
        batch = ledger.runs(kind="map-batch")[0]
        batch_dir = ledger.artifact_dir(batch["run_id"])
        assert os.path.isdir(batch_dir)
        assert main([
            "runs", "gc", "--keep", "0", "--ledger-dir", ledger_dir,
        ]) == 0
        assert not os.path.isdir(batch_dir)  # artifacts pruned
        assert len(ledger.runs()) == 2  # index rows survive gc

    def test_unknown_run_id_errors(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "runs")
        assert self._map(ledger_dir) == 0
        capsys.readouterr()
        assert main(
            ["runs", "show", "zzz", "--ledger-dir", ledger_dir]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_top_once_renders_frame(self, tmp_path, qasm_dir, capsys):
        ledger_dir = str(tmp_path / "runs")
        assert main([
            "map-batch", "--dir", qasm_dir, "--arch", "lnn-5",
            "--mapper", "heuristic", "--workers", "1",
            "--ledger-dir", ledger_dir,
        ]) == 0
        capsys.readouterr()
        row = RunLedger(ledger_dir).runs()[0]
        fleet_dir = row["artifacts"]["telemetry_dir"]
        assert main(["top", fleet_dir, "--once"]) == 0
        out = capsys.readouterr().out
        assert f"run {row['run_id']}" in out
        assert "fleet complete" in out

    def test_top_rejects_missing_directory(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err

    def test_env_var_activates_ledger(self, tmp_path, monkeypatch, capsys):
        ledger_dir = str(tmp_path / "envruns")
        monkeypatch.setenv("REPRO_LEDGER_DIR", ledger_dir)
        assert main([
            "map", "--circuit", "qft:4", "--arch", "lnn-4",
            "--mapper", "heuristic",
        ]) == 0
        assert "recorded run" in capsys.readouterr().err
        assert len(RunLedger(ledger_dir).runs()) == 1

    def test_no_ledger_flags_no_ledger_writes(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert main([
            "map", "--circuit", "qft:4", "--arch", "lnn-4",
            "--mapper", "heuristic",
        ]) == 0
        capsys.readouterr()
        assert not (tmp_path / ".repro").exists()


class TestGitSha:
    """``git_sha`` marks a tree with uncommitted tracked changes."""

    @staticmethod
    def _git(*args):
        import subprocess

        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            check=True, capture_output=True,
        )

    def test_clean_dirty_and_outside_git(self, tmp_path, monkeypatch):
        from repro.obs.ledger import git_sha

        repo = tmp_path / "repo"
        repo.mkdir()
        monkeypatch.chdir(repo)
        self._git("init", "-q")
        (repo / "tracked.txt").write_text("one\n")
        self._git("add", "tracked.txt")
        self._git("commit", "-q", "-m", "first")
        clean = git_sha()
        assert len(clean) == 40 and not clean.endswith("-dirty")
        assert clean.startswith(git_sha(short=True))
        # Untracked files leave the tree clean.
        (repo / "scratch.txt").write_text("x\n")
        assert git_sha() == clean
        (repo / "tracked.txt").write_text("two\n")
        assert git_sha() == clean + "-dirty"
        assert git_sha(short=True).endswith("-dirty")

        outside = tmp_path / "plain"
        outside.mkdir()
        monkeypatch.chdir(outside)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        assert git_sha() == "unknown"
