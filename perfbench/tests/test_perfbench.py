"""The benchmark's own tests (tiny mode: two circuits per workload).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import build  # noqa: E402
import catalog  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.fixture(scope="module")
def program():
    pkg, build_error = build.build()
    if str(pkg) not in sys.path:
        sys.path.insert(0, str(pkg))
    return build_error


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_tiny_run_prints_every_metric_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[0][len("context "):])
    assert context["kernel_backend"] in ("compiled", "vector", "pure")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if workload == "stream":
        # alu-v3_35 is a documented portfolio seed defect: each of its
        # requests counts as failed without making the run incorrect.
        assert result["failed"] >= 2
    else:
        assert result["failed"] == 0


def _same_file_pair(tmp_path, spec):
    from repro.circuit.qasm import to_qasm

    path = tmp_path / "c.qasm"
    path.write_text(to_qasm(catalog.circuit(spec)))
    return str(path), str(path)  # output == input: the gate check passes


def test_wrong_depth_counts_as_failed(program, tmp_path):
    spec = catalog.TINY["exact"][0]
    checker = run.Checker()
    pinned = checker.optimal_depth[spec.key]
    qasm_in, qasm_out = _same_file_pair(tmp_path, spec)
    report = {"ok": True, "verified": True, "depth": pinned, "optimal": True}
    assert checker.judge(spec, dict(report), qasm_in, qasm_out)
    wrong = dict(report, depth=pinned + 1)
    assert not checker.judge(spec, wrong, qasm_in, qasm_out)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.problems  # a false optimality claim is incorrect output


def test_unproven_result_fails_and_known_defects_are_expected(program, tmp_path):
    checker = run.Checker()
    for spec in catalog.STREAM:
        if f"portfolio:{spec.key}" in checker.known_failures:
            break
    qasm_in, qasm_out = _same_file_pair(tmp_path, spec)
    depth = checker.optimal_depth[spec.key]
    report = {"ok": True, "verified": True, "depth": depth + 2,
              "optimal": False}
    assert not checker.judge(spec, report, qasm_in, qasm_out)
    assert checker.failed == 1 and not checker.problems
    other = catalog.TINY["exact"][0]
    qasm_in, qasm_out = _same_file_pair(tmp_path, other)
    report = dict(report, depth=checker.optimal_depth[other.key] + 2)
    assert not checker.judge(other, report, qasm_in, qasm_out)
    assert len(checker.problems) == 1  # not a documented defect


def test_traced_and_untraced_node_counts_match(program, tmp_path):
    specs = catalog.TINY["exact"]
    work = tmp_path / "work"
    work.mkdir()
    paths = run.write_inputs(specs, work)
    checker = run.Checker()
    with run.Runner(build.build()[0], work, program) as runner:
        plain = run.oneshot_pass(runner, specs, paths, checker)
        traced = run.oneshot_pass(runner, specs, paths, checker, trace=True)
    for (spec, a), (_, b) in zip(plain, traced):
        assert a["stats"]["nodes_expanded"] > 0
        assert a["stats"]["nodes_expanded"] == b["stats"]["nodes_expanded"]
        assert sum(b["seam_calls"].values()) > 0
    assert not checker.problems


def _alive(pid: int) -> bool:
    try:
        os.killpg(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_timed_out_compile_fails_and_the_server_lives_on(
        program, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 1.0)
    # Left out of ``exact`` for taking over 2 s.
    slow = catalog.Spec("t1", "alu-v2_33", "ibmqx2", "table1", "optimal")
    fast = catalog.TINY["exact"][0]
    work = tmp_path / "work"
    work.mkdir()
    paths = run.write_inputs((slow, fast), work)
    checker = run.Checker()
    with run.Runner(build.build()[0], work, program) as runner:
        done = run.oneshot_pass(runner, [slow, fast], paths, checker)
        server = runner.server.pid
    (_, timed_out), (_, ok) = done
    assert timed_out == {"ok": False, "error": "compile timed out",
                         "map_s": 1.0, "completed": False}
    assert ok["completed"]
    assert (checker.attempted, checker.failed) == (2, 1)
    assert not _alive(server)  # closing the runner ends its whole session


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "exact", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    result = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}})
    logs = []
    for backend in ("compiled", "vector"):
        context = {"workload": "exact", "trace": 0, "kernel_backend": backend}
        path = tmp_path / f"{backend}.log"
        path.write_text(f"context {json.dumps(context)}\n{result}\n")
        logs.append(str(path))
    compare = [sys.executable, str(BENCH / "compare.py")]
    assert subprocess.run(compare + logs).returncode == 2
    assert subprocess.run(compare + [logs[0], logs[0]]).returncode == 0


def test_failed_compiles_lower_the_rate_and_keep_their_time():
    fast, slow = catalog.TINY["exact"]
    ok = [(fast, {"map_s": 1.0, "completed": True}),
          (slow, {"map_s": 2.0, "completed": True})]
    base = run.oneshot_rates(ok)
    assert base["circuits_per_min"] == pytest.approx(40.0)
    # The slow circuit starts failing, and taking longer: it must lower
    # the rate and raise the geomean, not drop out of either.
    failing = ok[:1] + [(slow, {"map_s": 90.0, "completed": False})]
    worse = run.oneshot_rates(failing)
    assert worse["circuits_per_min"] < base["circuits_per_min"]
    assert worse["map_s.geomean"] > base["map_s.geomean"]
