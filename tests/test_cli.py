"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.core.kernels import BACKEND_NAMES
from repro.obs import REQUIRED_STAT_KEYS, read_jsonl


class TestMapCommand:
    def test_map_qft_on_lnn(self, capsys):
        code = main(
            ["map", "--circuit", "qft:4", "--arch", "lnn-4",
             "--latency", "qft"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "depth" in out
        assert "optimal" in out

    def test_map_heuristic_on_tokyo(self, capsys):
        code = main(
            ["map", "--circuit", "random:6:30:1", "--arch", "tokyo",
             "--mapper", "heuristic", "--latency", "ibm"]
        )
        assert code == 0
        assert "heuristic" in capsys.readouterr().out

    def test_map_benchmark_circuit(self, capsys):
        code = main(
            ["map", "--circuit", "bench:or", "--arch", "ibmqx2",
             "--mapper", "optimal", "--latency", "olsq",
             "--search-initial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "depth    : 8" in out  # Table 2: or == ideal == 8

    def test_timeline_flag(self, capsys):
        code = main(
            ["map", "--circuit", "qft:4", "--arch", "lnn-4",
             "--latency", "qft", "--timeline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Q0" in out and ("-G-" in out or "=S=" in out)

    def test_qasm_roundtrip_via_file(self, tmp_path, capsys):
        source = tmp_path / "in.qasm"
        source.write_text(
            'OPENQASM 2.0; include "qelib1.inc";\n'
            "qreg q[3]; h q[0]; cx q[0],q[2];\n"
        )
        out_path = tmp_path / "out.qasm"
        code = main(
            ["map", "--circuit", str(source), "--arch", "lnn-3",
             "--qasm-out", str(out_path)]
        )
        assert code == 0
        text = out_path.read_text()
        assert "OPENQASM 2.0;" in text
        assert "swap" in text  # q0,q2 need one

    def test_sabre_and_trivial_mappers(self, capsys):
        for mapper in ("sabre", "zulehner", "trivial"):
            code = main(
                ["map", "--circuit", "random:5:20:2", "--arch", "grid2by3",
                 "--mapper", mapper]
            )
            assert code == 0


class TestTelemetryFlags:
    def test_trace_and_metrics_out_write_parseable_jsonl(
        self, tmp_path, capsys
    ):
        out = tmp_path / "telemetry.jsonl"
        code = main(
            ["map", "--circuit", "qft:4", "--arch", "lnn-4",
             "--latency", "qft", "--trace", "--metrics-out", str(out)]
        )
        assert code == 0
        records = read_jsonl(str(out))  # every line must be valid JSON
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"search", "expand", "heuristic", "filter"} <= span_names
        metrics = [r for r in records if r["type"] == "metrics"]
        assert metrics[-1]["label"] == "final"
        assert metrics[-1]["metrics"]["search.nodes_expanded"] > 0
        printed = capsys.readouterr().out
        assert "search" in printed  # the rendered span tree
        for key in REQUIRED_STAT_KEYS:
            assert key in printed  # the stats line

    def test_progress_events_print_to_stderr(self, capsys):
        code = main(
            ["map", "--circuit", "qft:5", "--arch", "lnn-5",
             "--latency", "qft", "--progress", "--progress-every", "50"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "[toqm-optimal:search]" in err
        assert "expanded=50" in err

    def test_budget_exceeded_exits_2_with_partial_stats(
        self, tmp_path, capsys
    ):
        out = tmp_path / "telemetry.jsonl"
        code = main(
            ["map", "--circuit", "qft:6", "--arch", "lnn-6",
             "--latency", "qft", "--budget", "0.05",
             "--metrics-out", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "search budget exceeded" in captured.err
        assert "budget_reason=max_seconds" in captured.out
        records = read_jsonl(str(out))
        labels = [r["label"] for r in records if r["type"] == "metrics"]
        assert "budget_exceeded" in labels and "final" in labels

    def test_olsq_mapper_choice(self, capsys):
        code = main(
            ["map", "--circuit", "qft:4", "--arch", "lnn-4",
             "--mapper", "olsq", "--latency", "olsq", "--metrics-out",
             "/dev/null"]
        )
        assert code == 0
        assert "mapper=olsq-style" in capsys.readouterr().out


class TestListingCommands:
    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "qft_10" in out and "adder" in out

    def test_archs_listing(self, capsys):
        assert main(["archs"]) == 0
        out = capsys.readouterr().out
        assert "ibmqx2" in out and "tokyo" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestKernelFlag:
    @pytest.mark.parametrize("command", [
        ["map", "--circuit", "qft:4", "--arch", "lnn-4"],
        ["map-batch", "--dir", ".", "--arch", "lnn-4"],
        ["corpus"],
    ])
    def test_kernel_choices_are_the_registry_names(self, command):
        parser = build_parser()
        for name in BACKEND_NAMES:
            args = parser.parse_args(command + ["--kernel", name])
            assert args.kernel == name
        with pytest.raises(SystemExit):
            parser.parse_args(command + ["--kernel", "vector"])


def test_cli_import_path_is_numpy_free():
    # numpy backs only the state-vector oracle (repro.verify.simulator);
    # a plain `repro map` or batch run must not pay for importing it.
    code = (
        "import sys\n"
        "import repro.cli, repro.analysis.batch, repro.analysis.portfolio\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
