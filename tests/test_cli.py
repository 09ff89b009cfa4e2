"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core import Angel, AngelConfig
from repro.exec import BatchExecutor, Job
from repro.experiments.context import ExperimentContext
from repro.programs import get_benchmark


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "GHZ_n4"])
        assert args.policy == "angel"
        assert args.device == "aspen-11"

    def test_fixed_gate_policy_accepted(self):
        args = build_parser().parse_args(
            ["compile", "GHZ_n4", "--policy", "cz"]
        )
        assert args.policy == "cz"

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "x", "--policy", "magic"])


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "GHZ_n4" in out
        assert "QAOA_n5" in out

    def test_draw_benchmark(self, capsys):
        assert main(["draw", "GHZ_n4"]) == 0
        out = capsys.readouterr().out
        assert "q0:" in out and "*" in out

    def test_draw_qasm_file(self, tmp_path, capsys):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; '
            "h q[0]; cx q[0],q[1];"
        )
        assert main(["draw", str(qasm)]) == 0
        out = capsys.readouterr().out
        assert "H" in out and "X" in out

    def test_unknown_benchmark_is_error(self, capsys):
        assert main(["draw", "definitely_not_a_benchmark"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compile_fixed_gate(self, capsys):
        code = main(
            [
                "compile",
                "tele_n2",
                "--policy",
                "cz",
                "--shots",
                "256",
                "--seed",
                "5",
                "--drift-hours",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "success rate" in out

    def test_compile_baseline_emits_qasm(self, capsys):
        code = main(
            [
                "compile",
                "tele_n2",
                "--policy",
                "baseline",
                "--shots",
                "128",
                "--drift-hours",
                "1",
                "--emit-qasm",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OPENQASM 2.0" in out

    def test_compile_angel(self, capsys):
        code = main(
            [
                "compile",
                "tele_n2",
                "--policy",
                "angel",
                "--shots",
                "128",
                "--probe-shots",
                "128",
                "--drift-hours",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CopyCat probes" in out

    def test_experiments_command(self, capsys):
        assert main(["experiments", "table2"]) == 0
        out = capsys.readouterr().out
        assert "19.7K" in out

    def test_device_command(self, capsys):
        assert main(["device", "--max-links", "4", "--drift-hours", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig17" in out

    def test_serve_reports_dedup_store_summary(self, capsys):
        code = main(
            [
                "serve",
                "--tenants", "2",
                "--requests", "1",
                "--programs", "GHZ_n4",
                "--shots", "64",
                "--probe-shots", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total: 2 requests (0 failed)" in out
        assert "dedup store [shared]:" in out
        assert "publishes" in out and "evictions" in out

    def test_serve_fleet_record_replay_roundtrip(self, tmp_path, capsys):
        import json

        record = tmp_path / "placements.json"
        base = [
            "serve",
            "--tenants", "2",
            "--requests", "1",
            "--programs", "GHZ_n4",
            "--shots", "64",
            "--probe-shots", "16",
            "--fleet", "2",
            "--fleet-stagger-hours", "1.5",
        ]
        assert main(base + ["--fleet-record", str(record)]) == 0
        out = capsys.readouterr().out
        assert "dedup store [replica-0]:" in out
        assert "replica-0" in out and "replica-1" in out
        assert "router:" in out and "affinity-hit ratio" in out
        assert f"placements recorded to {record}" in out
        placements = json.loads(record.read_text())
        assert set(placements) == {"tenant-0/1", "tenant-1/1"}
        assert all(index in (0, 1) for index in placements.values())
        # Replaying the recorded map reproduces the placements exactly.
        assert main(base + ["--fleet-replay", str(record)]) == 0
        replay_out = capsys.readouterr().out
        assert "total: 2 requests (0 failed)" in replay_out

    def test_serve_fleet_flags_validated(self, capsys):
        assert main(["serve", "--fleet-record", "x.json"]) == 1
        err = capsys.readouterr().err
        assert "require --fleet" in err


class TestParallelFlag:
    """``--parallel`` runs probes as in-process snapshot batches."""

    _ARGS = [
        "compile",
        "GHZ_n4",
        "--parallel",
        "--stats",
        "--seed",
        "3",
        "--drift-hours",
        "2",
        "--probe-shots",
        "64",
        "--shots",
        "128",
    ]

    @staticmethod
    def _record_counts(monkeypatch):
        """Every result's counts, in submission order, for any executor."""
        seen = []
        submit_batch = BatchExecutor.submit_batch

        def recording(self, jobs, allow_failures=False):
            results = submit_batch(self, jobs, allow_failures)
            seen.append((self.mode, [r.counts for r in results]))
            return results

        monkeypatch.setattr(BatchExecutor, "submit_batch", recording)
        return seen

    def test_cli_matches_library_parallel_context(self, monkeypatch, capsys):
        seen = self._record_counts(monkeypatch)
        assert main(self._ARGS) == 0
        out = capsys.readouterr().out
        assert "CopyCat probes" in out and "jobs:" in out
        cli_counts = list(seen)
        seen.clear()

        context = ExperimentContext.create(
            device_name="aspen-11", seed=3, drift_hours=2.0, parallel=True
        )
        try:
            compiled = context.transpile(get_benchmark("GHZ_n4").build())
            result = Angel(
                context.device,
                context.calibration,
                AngelConfig(probe_shots=64, seed=3),
                executor=context.executor,
            ).select(compiled)
            native = compiled.nativized(
                result.sequence, name_suffix="_angel"
            )
            context.executor.submit(Job(native, 128, tag="final"))
        finally:
            context.close()

        assert seen == cli_counts
        assert {mode for mode, _ in cli_counts} == {"parallel"}
        # Probe batches (more than one job) actually ran as snapshots.
        assert any(len(counts) > 1 for _, counts in cli_counts)

    def test_max_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self._ARGS + ["--max-workers", "4"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --max-workers" in (
            capsys.readouterr().err
        )
