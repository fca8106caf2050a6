"""Offline trace diagnostics + perf-trend regression detection.

Covers the analyzer (`repro diagnose`) on real recorded traces — the
attribution/audit/frontier/timeline sections and the exact counter
reconciliation — plus `check_trend` on synthetic trajectories and the
CLI exit-code contract for both commands (missing files, unknown
schemas, regressions must all exit nonzero so CI can gate on them).
"""

import json

import pytest

from repro.analysis.diagnose import (
    KNOWN_BENCH_SCHEMAS,
    check_trend,
    diagnose,
    load_trace,
    render_report,
)
from repro.arch import lnn
from repro.circuit import uniform_latency
from repro.circuit.generators import qft_skeleton
from repro.cli import main
from repro.core import OptimalMapper
from repro.obs import Telemetry, TraceRecorder


def _record_trace(tmp_path, extra_args=()):
    path = tmp_path / "trace.jsonl"
    code = main(
        ["map", "--circuit", "qft:4", "--arch", "lnn-4",
         "--latency", "qft", "--search-initial",
         "--search-trace", str(path), *extra_args]
    )
    assert code == 0
    return path


def _trend_report(entries):
    return {"schema": KNOWN_BENCH_SCHEMAS[0], "trajectory": entries}


def _entry(nodes, seconds=0.5, mode="full", pruning="on",
           suite="qft5_lnn_solve"):
    return {
        "commit": "abc1234",
        "mode": mode,
        "pruning": pruning,
        "suites": {
            suite: {"nodes_expanded": nodes, "wall_seconds": seconds},
        },
    }


class TestDiagnose:
    def test_full_trace_report_sections(self, tmp_path):
        path = _record_trace(tmp_path)
        records = load_trace(str(path))
        report = diagnose(records)
        assert report["complete"] and report["consistent"]
        # The recorded stream carries non-trace record types too
        # (metrics snapshots etc. when requested); load_trace filters.
        assert all(r["type"] == "trace" for r in records)
        attribution = report["attribution"]
        assert "symmetry_quotient" in attribution
        assert attribution["symmetry_quotient"]["stat"] == "symmetry_pruned"
        assert report["frontier"]["recorded_expansions"] == \
            report["stats"]["nodes_expanded"]
        timeline = report["incumbent_timeline"]
        assert timeline and timeline[0]["source"] == "seed"
        rendered = render_report(report)
        assert "counter reconciliation: OK" in rendered
        assert "pruning attribution" in rendered
        assert "admissible" in rendered

    def test_find_all_optimal_trace_reconciles(self):
        # The enumeration keeps expanding after its last solution; that
        # solution's stats must count those expansions too.
        recorder = TraceRecorder(mode="full", keep_records=True)
        telemetry = Telemetry(search_trace=recorder)
        solutions = OptimalMapper(
            lnn(4), uniform_latency(1, 3), telemetry=telemetry
        ).find_all_optimal(qft_skeleton(4))
        report = diagnose(recorder.drain())
        assert report["complete"] and report["consistent"], \
            report["mismatches"]
        stats = solutions[-1].stats
        assert report["recorded_counters"]["nodes_expanded"] == \
            stats["nodes_expanded"]
        assert telemetry.metrics.snapshot()["search.nodes_expanded"] == \
            stats["nodes_expanded"]

    def test_partial_ring_trace_skips_reconciliation(self, tmp_path):
        path = _record_trace(
            tmp_path,
            ["--search-trace-mode", "ring", "--search-trace-ring", "10"],
        )
        report = diagnose(load_trace(str(path)))
        assert not report["complete"]
        assert report["consistent"] is None
        # Summary totals stay exact even though records were evicted.
        assert report["stats"]["nodes_expanded"] > 10
        assert "skipped (partial trace" in render_report(report)

    def test_mismatch_flagged_on_complete_trace(self, tmp_path):
        path = _record_trace(tmp_path)
        records = load_trace(str(path))
        # Corrupt the authoritative totals: claim one more expansion.
        for record in records:
            if record.get("ev") == "summary":
                record["stats"]["nodes_expanded"] += 1
        report = diagnose(records)
        assert report["complete"] and not report["consistent"]
        assert "nodes_expanded" in report["mismatches"]
        assert "MISMATCH" in render_report(report)


class TestDiagnoseCli:
    def test_diagnose_cli_roundtrip(self, tmp_path, capsys):
        path = _record_trace(tmp_path)
        capsys.readouterr()
        json_out = tmp_path / "report.json"
        code = main(["diagnose", str(path), "--json-out", str(json_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "counter reconciliation: OK" in out
        report = json.loads(json_out.read_text())
        assert report["consistent"]

    def test_diagnose_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["diagnose", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_diagnose_no_trace_records_exits_1(self, tmp_path, capsys):
        path = tmp_path / "only_metrics.jsonl"
        path.write_text('{"type": "metrics", "label": "final"}\n')
        code = main(["diagnose", str(path)])
        assert code == 1
        assert "no trace records" in capsys.readouterr().err


class TestCheckTrend:
    def test_single_entry_nothing_to_compare(self):
        ok, messages = check_trend(_trend_report([_entry(100)]))
        assert ok
        assert "nothing to compare" in messages[0]

    def test_different_config_not_compared(self):
        ok, messages = check_trend(_trend_report([
            _entry(100, pruning="off"), _entry(500, pruning="on"),
        ]))
        assert ok
        assert "no prior entries" in messages[0]

    def test_node_regression_detected(self):
        ok, messages = check_trend(_trend_report([
            _entry(100), _entry(120),
        ]))
        assert not ok
        assert any("nodes_expanded regressed" in m for m in messages)

    def test_within_tolerance_passes(self):
        ok, messages = check_trend(_trend_report([
            _entry(100), _entry(104),
        ]))
        assert ok, messages

    def test_compares_against_best_prior(self):
        # 104 regresses vs the best prior (80), despite beating 100.
        ok, _ = check_trend(_trend_report([
            _entry(100), _entry(80), _entry(104),
        ]))
        assert not ok

    def test_time_regression_detected_above_floor(self):
        ok, messages = check_trend(_trend_report([
            _entry(100, seconds=0.5), _entry(100, seconds=2.0),
        ]))
        assert not ok
        assert any("wall_seconds regressed" in m for m in messages)

    def test_sub_floor_timings_never_gate(self):
        ok, _ = check_trend(_trend_report([
            _entry(100, seconds=0.01), _entry(100, seconds=0.09),
        ]))
        assert ok  # 9x slower but noise-dominated territory

    def test_new_suite_passes(self):
        newest = _entry(999, suite="brand_new_suite")
        ok, messages = check_trend(_trend_report([_entry(100), newest]))
        assert ok
        assert any("new suite" in m for m in messages)


class TestBenchTrendCli:
    def test_missing_file_friendly_error(self, tmp_path, capsys):
        code = main(["bench-trend", "--json",
                     str(tmp_path / "missing.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "bench_search_perf.py" in err

    def test_invalid_json_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code = main(["bench-trend", "--json", str(path)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_schema_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(
            {"schema": "repro.bench_search/1", "trajectory": [_entry(5)]}
        ))
        code = main(["bench-trend", "--json", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown schema 'repro.bench_search/1'" in err
        assert KNOWN_BENCH_SCHEMAS[0] in err

    def test_check_passes_on_stable_trajectory(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_trend_report(
            [_entry(100), _entry(100)]
        )))
        code = main(["bench-trend", "--json", str(path), "--check"])
        assert code == 0
        assert "trend check: ok" in capsys.readouterr().out

    def test_check_exits_1_on_regression(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_trend_report(
            [_entry(100), _entry(200)]
        )))
        code = main(["bench-trend", "--json", str(path), "--check"])
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "nodes_expanded regressed" in captured.out

    def test_check_threshold_flags(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_trend_report(
            [_entry(100), _entry(200)]
        )))
        code = main(["bench-trend", "--json", str(path), "--check",
                     "--max-node-ratio", "2.5"])
        assert code == 0

    def test_real_repo_trajectory_parses(self, capsys):
        code = main(["bench-trend", "--json",
                     "benchmarks/results/BENCH_search.json", "--check"])
        assert code == 0
