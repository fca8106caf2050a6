"""Tests for the parallel batch runner (``repro.analysis.batch``)."""

import json
import os

import pytest

from repro.analysis.batch import BatchRecord, BatchTask, map_many, summarize
from repro.arch import lnn
from repro.circuit import to_qasm, uniform_latency
from repro.circuit.generators import qft_skeleton, random_circuit
from repro.core import HeuristicMapper, OptimalMapper
from repro.obs import REQUIRED_STAT_KEYS


class ExplodingMapper:
    """A mapper whose ``map`` raises — must be picklable (module level)."""

    def map(self, circuit):
        raise RuntimeError("boom")


class WorkerKillingMapper:
    """A mapper that kills its worker process outright."""

    def map(self, circuit):
        os._exit(13)


def _tasks(count=4, num_qubits=4):
    return [
        BatchTask(
            label=f"rand-{seed}",
            circuit=random_circuit(num_qubits, 6, seed=seed),
            mapper=OptimalMapper(lnn(num_qubits), uniform_latency(1, 3)),
        )
        for seed in range(count)
    ]


class TestInProcessPath:
    def test_max_workers_one_uses_no_pool(self, monkeypatch):
        from repro.analysis import batch as batch_mod

        def forbid(*args, **kwargs):
            raise AssertionError("pool must not be created for 1 worker")

        monkeypatch.setattr(batch_mod, "ProcessPoolExecutor", forbid)
        records = map_many(_tasks(3), max_workers=1)
        assert [r.ok for r in records] == [True, True, True]

    def test_records_preserve_order_and_schema(self):
        records = map_many(_tasks(4), max_workers=1)
        assert [r.label for r in records] == [
            "rand-0", "rand-1", "rand-2", "rand-3"
        ]
        for rec in records:
            assert rec.ok and rec.depth is not None and rec.swaps is not None
            for key in REQUIRED_STAT_KEYS:
                assert key in rec.stats

    def test_results_attached_and_detachable(self):
        tasks = _tasks(2)
        with_results = map_many(tasks, max_workers=1, keep_results=True)
        without = map_many(tasks, max_workers=1, keep_results=False)
        assert all(r.result is not None for r in with_results)
        assert all(r.result is None for r in without)
        assert [r.depth for r in with_results] == [r.depth for r in without]

    def test_budget_propagation_contains_abort(self):
        tasks = [
            BatchTask(
                label="too-big",
                circuit=qft_skeleton(5),
                mapper=OptimalMapper(lnn(5), uniform_latency(1, 3)),
            )
        ]
        records = map_many(tasks, max_workers=1, max_nodes=5)
        (rec,) = records
        assert not rec.ok
        assert "budget exceeded" in rec.error
        assert rec.stats["budget_reason"] == "max_nodes"
        assert rec.stats["nodes_expanded"] <= 5
        # and the caller's mapper was not mutated by the override
        assert tasks[0].mapper.max_nodes is None

    def test_mapper_exception_contained_in_process(self):
        tasks = [
            BatchTask("ok", random_circuit(4, 5, seed=1),
                      OptimalMapper(lnn(4), uniform_latency(1, 3))),
            BatchTask("bad", random_circuit(4, 5, seed=2),
                      ExplodingMapper()),
        ]
        records = map_many(tasks, max_workers=1)
        assert records[0].ok
        assert not records[1].ok
        assert "RuntimeError: boom" in records[1].error

    def test_empty_batch(self):
        assert map_many([]) == []

    def test_summarize(self):
        records = [
            BatchRecord(label="a", ok=True, seconds=1.0,
                        stats={"nodes_expanded": 10}),
            BatchRecord(label="b", ok=False, seconds=0.5, error="x"),
        ]
        totals = summarize(records)
        assert totals["tasks"] == 2
        assert totals["succeeded"] == 1
        assert totals["failed"] == 1
        assert totals["total_nodes_expanded"] == 10


class TestPoolPath:
    def test_ordering_across_pool(self):
        records = map_many(_tasks(6), max_workers=2)
        assert [r.label for r in records] == [
            f"rand-{i}" for i in range(6)
        ]
        assert all(r.ok for r in records)

    def test_pool_matches_in_process(self):
        tasks = _tasks(4)
        pooled = map_many(tasks, max_workers=2, keep_results=False)
        inproc = map_many(tasks, max_workers=1, keep_results=False)
        assert [(r.label, r.depth, r.swaps) for r in pooled] == [
            (r.label, r.depth, r.swaps) for r in inproc
        ]
        assert [
            r.stats["nodes_expanded"] for r in pooled
        ] == [r.stats["nodes_expanded"] for r in inproc]

    def test_mapper_exception_contained_in_worker(self):
        tasks = [
            BatchTask("bad", random_circuit(4, 5, seed=2),
                      ExplodingMapper()),
            BatchTask("ok", random_circuit(4, 5, seed=1),
                      OptimalMapper(lnn(4), uniform_latency(1, 3))),
        ]
        records = map_many(tasks, max_workers=2)
        assert not records[0].ok
        assert "RuntimeError: boom" in records[0].error
        assert records[1].ok

    def test_worker_crash_becomes_error_record(self):
        tasks = [
            BatchTask("crash", random_circuit(4, 5, seed=3),
                      WorkerKillingMapper()),
            BatchTask("ok", random_circuit(4, 5, seed=1),
                      OptimalMapper(lnn(4), uniform_latency(1, 3))),
        ]
        records = map_many(tasks, max_workers=2)
        assert [r.label for r in records] == ["crash", "ok"]
        assert not records[0].ok
        assert "worker failed" in records[0].error

    def test_budget_propagation_across_pool(self):
        tasks = [
            BatchTask("too-big", qft_skeleton(5),
                      OptimalMapper(lnn(5), uniform_latency(1, 3)))
        ]
        records = map_many(tasks, max_workers=2, max_nodes=5)
        (rec,) = records
        assert not rec.ok
        assert rec.stats["budget_reason"] == "max_nodes"

    def test_live_telemetry_rejected_up_front(self):
        from repro.obs import Telemetry

        tasks = [
            BatchTask(
                "instrumented",
                random_circuit(4, 5, seed=1),
                OptimalMapper(
                    lnn(4), uniform_latency(1, 3),
                    telemetry=Telemetry(trace=True),
                ),
            )
        ]
        with pytest.raises(ValueError, match="telemetry"):
            map_many(tasks, max_workers=2)


class TestCompareIntegration:
    def test_compare_mappers_parallel_matches_sequential(self):
        from repro.analysis import compare_mappers

        circuit = qft_skeleton(4)
        arch = lnn(4)

        def mappers():
            return [
                ("optimal", OptimalMapper(arch, uniform_latency(1, 3))),
                ("heuristic", HeuristicMapper(arch, uniform_latency(1, 3))),
            ]

        sequential = compare_mappers(circuit, arch, mappers())
        parallel = compare_mappers(
            circuit, arch, mappers(), max_workers=2
        )
        assert [
            (e.label, e.depth, e.swaps) for e in sequential.entries
        ] == [(e.label, e.depth, e.swaps) for e in parallel.entries]


class TestMapBatchCli:
    @pytest.fixture()
    def qasm_dir(self, tmp_path):
        for name, circ in [
            ("a_qft4", qft_skeleton(4)),
            ("b_rand4", random_circuit(4, 6, seed=7)),
        ]:
            (tmp_path / f"{name}.qasm").write_text(to_qasm(circ))
        return tmp_path

    def test_map_batch_reports_normalized_stats(self, qasm_dir, tmp_path,
                                                capsys):
        from repro.cli import main

        out_json = tmp_path / "report.json"
        code = main([
            "map-batch", "--dir", str(qasm_dir), "--arch", "lnn-4",
            "--mapper", "optimal", "--workers", "1",
            "--json-out", str(out_json),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "a_qft4" in out and "b_rand4" in out
        assert "2/2 mapped" in out
        payload = json.loads(out_json.read_text())
        assert payload["summary"]["succeeded"] == 2
        for record in payload["records"]:
            assert record["ok"]
            for key in REQUIRED_STAT_KEYS:
                assert key in record["stats"]

    def test_map_batch_error_exit_code(self, qasm_dir, capsys):
        from repro.cli import main

        code = main([
            "map-batch", "--dir", str(qasm_dir), "--arch", "lnn-4",
            "--mapper", "optimal", "--workers", "1", "--max-nodes", "2",
        ])
        assert code == 2
        assert "budget exceeded" in capsys.readouterr().out

    def test_map_batch_empty_dir(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "map-batch", "--dir", str(tmp_path), "--arch", "lnn-4",
        ])
        assert code == 1
        assert "no files match" in capsys.readouterr().err


class TestStealingScheduler:
    def _stream_tasks(self):
        """A small request stream with repeated circuits (warm-cache food)."""
        arch, latency = lnn(4), uniform_latency(1, 3)
        tasks = []
        for index in range(9):
            seed = index % 3  # each circuit recurs three times
            tasks.append(
                BatchTask(
                    label=f"req-{index}",
                    circuit=random_circuit(4, 6, seed=seed),
                    mapper=OptimalMapper(arch, latency),
                )
            )
        return tasks

    @pytest.mark.parametrize("workers", [2, 3])
    def test_determinism_across_worker_counts(self, workers):
        tasks = self._stream_tasks()
        reference = map_many(tasks, max_workers=1, keep_results=False)
        stolen = map_many(tasks, max_workers=workers, keep_results=False)
        assert [
            (r.label, r.ok, r.depth, r.swaps, r.stats["nodes_expanded"])
            for r in stolen
        ] == [
            (r.label, r.ok, r.depth, r.swaps, r.stats["nodes_expanded"])
            for r in reference
        ]

    def test_warm_cache_results_identical_to_cold(self):
        tasks = self._stream_tasks()
        warm = map_many(tasks, max_workers=2, keep_results=False,
                        warm_cache=True)
        cold = map_many(tasks, max_workers=2, keep_results=False,
                        warm_cache=False)
        assert [
            (r.label, r.depth, r.swaps, r.stats["nodes_expanded"])
            for r in warm
        ] == [
            (r.label, r.depth, r.swaps, r.stats["nodes_expanded"])
            for r in cold
        ]

    def test_failure_contained_with_exception_detail(self):
        tasks = [
            BatchTask("ok-0", random_circuit(4, 5, seed=1),
                      OptimalMapper(lnn(4), uniform_latency(1, 3))),
            BatchTask("bad", random_circuit(4, 5, seed=2),
                      ExplodingMapper()),
            BatchTask("ok-1", random_circuit(4, 5, seed=3),
                      OptimalMapper(lnn(4), uniform_latency(1, 3))),
        ]
        records = map_many(tasks, max_workers=2)
        assert [r.label for r in records] == ["ok-0", "bad", "ok-1"]
        assert records[0].ok and records[2].ok
        bad = records[1]
        assert not bad.ok
        assert bad.error_type == "RuntimeError"
        assert "RuntimeError: boom" in bad.error
        assert bad.traceback is not None and "boom" in bad.traceback

    def test_orphaned_task_retried_then_reported(self):
        tasks = [
            BatchTask("crash", random_circuit(4, 5, seed=3),
                      WorkerKillingMapper()),
            BatchTask("ok", random_circuit(4, 5, seed=1),
                      OptimalMapper(lnn(4), uniform_latency(1, 3))),
        ]
        records = map_many(tasks, max_workers=2, orphan_retries=1)
        assert [r.label for r in records] == ["crash", "ok"]
        crash = records[0]
        assert not crash.ok
        assert crash.error_type == "WorkerCrashed"
        assert "worker failed" in crash.error
        assert "attempt 2" in crash.error  # retried once, then gave up
        assert records[1].ok

    def test_budget_failure_carries_error_type(self):
        tasks = [
            BatchTask("too-big", qft_skeleton(5),
                      OptimalMapper(lnn(5), uniform_latency(1, 3)))
        ]
        (rec,) = map_many(tasks, max_workers=2, max_nodes=5)
        assert not rec.ok
        assert rec.error_type == "SearchBudgetExceeded"


class TestMapBatchResume:
    @pytest.fixture()
    def qasm_dir(self, tmp_path):
        directory = tmp_path / "circuits"
        directory.mkdir()
        for seed in range(3):
            (directory / f"c{seed}.qasm").write_text(
                to_qasm(random_circuit(4, 6, seed=seed))
            )
        return directory

    def test_resume_skips_completed_circuits(self, qasm_dir, tmp_path,
                                             capsys):
        from repro.cli import main

        out_json = tmp_path / "report.json"
        argv = [
            "map-batch", "--dir", str(qasm_dir), "--arch", "lnn-4",
            "--mapper", "optimal", "--workers", "1",
            "--json-out", str(out_json),
        ]
        assert main(argv) == 0
        capsys.readouterr()

        # A new circuit arrives; resume maps only that one.
        (qasm_dir / "c3.qasm").write_text(
            to_qasm(random_circuit(4, 6, seed=9))
        )
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume: 3/4 circuits already mapped" in out
        payload = json.loads(out_json.read_text())
        assert len(payload["records"]) == 4
        assert payload["summary"]["succeeded"] == 4
        assert [r["label"] for r in payload["records"]] == [
            "c0", "c1", "c2", "c3"
        ]

    def test_resume_reruns_failed_circuits(self, qasm_dir, tmp_path,
                                           capsys):
        from repro.cli import main

        out_json = tmp_path / "report.json"
        base = [
            "map-batch", "--dir", str(qasm_dir), "--arch", "lnn-4",
            "--mapper", "optimal", "--workers", "1",
            "--json-out", str(out_json),
        ]
        assert main(base + ["--max-nodes", "2"]) == 2  # most circuits fail
        capsys.readouterr()
        first = json.loads(out_json.read_text())
        already_ok = sum(1 for r in first["records"] if r["ok"])
        assert already_ok < 3  # the tiny budget really did fail some

        assert main(base + ["--resume"]) == 0  # failures re-run, succeed
        out = capsys.readouterr().out
        if already_ok:
            assert (
                f"resume: {already_ok}/3 circuits already mapped" in out
            )
        payload = json.loads(out_json.read_text())
        assert payload["summary"]["succeeded"] == 3

    def test_resume_requires_json_out(self, qasm_dir, capsys):
        from repro.cli import main

        code = main([
            "map-batch", "--dir", str(qasm_dir), "--arch", "lnn-4",
            "--resume",
        ])
        assert code == 1
        assert "--resume needs --json-out" in capsys.readouterr().err
