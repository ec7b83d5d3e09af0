"""Tests for the ``ceresz`` command-line interface."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.io import load_f32, save_f32
from repro.harness import render_artifact


@pytest.fixture
def field_file(tmp_path, rng):
    path = tmp_path / "field.f32"
    data = np.cumsum(rng.normal(size=2048)).astype(np.float32)
    save_f32(path, data)
    return path, data


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compress_requires_one_bound(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", "a", "b"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compress", "a", "b", "--rel", "1e-3", "--eps", "0.1"]
            )

    def test_shape_parsing(self):
        args = build_parser().parse_args(
            ["compress", "a", "b", "--rel", "1e-3", "--shape", "4x5x6"]
        )
        assert args.shape == (4, 5, 6)

    @pytest.mark.parametrize("command", ["sim", "simulate", "plan"])
    def test_mesh_flags_default_to_the_library(self, command):
        """Every sim/plan flag that mirrors a WSECereSZ keyword has that
        keyword's default. --trace-level is exempt: its default is derived
        from --trace."""
        import inspect

        from repro.core.wse_compressor import WSECereSZ

        library = {
            name: param.default
            for name, param in inspect.signature(WSECereSZ).parameters.items()
        }
        args = vars(build_parser().parse_args([command, "in.f32"]))
        mirrored = sorted(set(args) & set(library) - {"trace_level"})
        assert {"rows", "cols", "strategy", "pipeline_length",
                "predictor"} <= set(mirrored)
        if command != "plan":
            assert {"mode", "jobs", "sample_every", "on_fault",
                    "max_repairs", "spare_rows", "ledger",
                    "progress"} <= set(mirrored)
        for name in mirrored:
            assert args[name] == library[name], name


class TestCompressDecompress:
    def test_round_trip(self, tmp_path, field_file, capsys):
        path, data = field_file
        csz = tmp_path / "out.csz"
        out = tmp_path / "back.f32"
        assert main([
            "compress", str(path), str(csz), "--rel", "1e-3"
        ]) == 0
        printed = capsys.readouterr().out
        assert "ratio" in printed
        assert main(["decompress", str(csz), str(out)]) == 0
        back = load_f32(out)
        assert back.shape == data.shape
        rng_span = float(data.max() - data.min())
        assert np.max(np.abs(back - data)) <= 1e-3 * rng_span

    def test_absolute_bound(self, tmp_path, field_file):
        path, data = field_file
        csz = tmp_path / "out.csz"
        assert main([
            "compress", str(path), str(csz), "--eps", "0.5"
        ]) == 0

    def test_info(self, tmp_path, field_file, capsys):
        path, _ = field_file
        csz = tmp_path / "out.csz"
        main(["compress", str(path), str(csz), "--rel", "1e-3"])
        assert main(["info", str(csz)]) == 0
        out = capsys.readouterr().out
        assert "block size:   32" in out


class TestDataset:
    def test_summary(self, capsys):
        assert main(["dataset", "QMCPack"]) == 0
        out = capsys.readouterr().out
        assert "Quantum Monte Carlo" in out

    def test_write_field(self, tmp_path):
        out = tmp_path / "f.f32"
        assert main(["dataset", "HACC", "--field", "1", "--out", str(out)]) == 0
        assert out.stat().st_size > 0


class TestSimulate:
    def test_simulate_reports_match(self, field_file, capsys):
        path, _ = field_file
        assert main([
            "simulate", str(path), "--rows", "2", "--cols", "3",
            "--limit-blocks", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "stream matches reference: True" in out

    def test_pipeline_strategy(self, field_file, capsys):
        path, _ = field_file
        assert main([
            "simulate", str(path), "--rows", "1", "--cols", "4",
            "--strategy", "pipeline", "--pipeline-length", "4",
            "--limit-blocks", "8",
        ]) == 0
        assert "True" in capsys.readouterr().out


class TestPlan:
    def test_plan_prints_placement(self, field_file, capsys):
        path, _ = field_file
        assert main([
            "plan", str(path), "--rows", "2", "--cols", "4",
            "--limit-blocks", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "mapping plan: strategy=multi" in out
        assert "mesh=2x4" in out
        assert "colors:" in out
        assert "placement:" in out
        assert "SRAM:" in out

    def test_plan_pipeline_strategy(self, field_file, capsys):
        path, _ = field_file
        assert main([
            "plan", str(path), "--rows", "1", "--cols", "4",
            "--strategy", "pipeline", "--pipeline-length", "4",
            "--limit-blocks", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "strategy=pipeline" in out
        assert "state_len:" in out


class TestStreaming:
    def test_stream_unstream_round_trip(self, tmp_path, rng):
        a = rng.normal(size=300).astype(np.float32)
        b = (rng.normal(size=300) * 2).astype(np.float32)
        pa, pb = tmp_path / "a.f32", tmp_path / "b.f32"
        save_f32(pa, a)
        save_f32(pb, b)
        arch = tmp_path / "arch.cszs"
        assert main([
            "stream", str(pa), str(pb), "--out", str(arch), "--eps", "0.01"
        ]) == 0
        assert main([
            "unstream", str(arch), "--prefix", str(tmp_path / "out_")
        ]) == 0
        out0 = load_f32(tmp_path / "out_0.f32")
        out1 = load_f32(tmp_path / "out_1.f32")
        assert np.max(np.abs(out0 - a)) <= 0.01
        assert np.max(np.abs(out1 - b)) <= 0.01


class TestTablesAndFigures:
    """The CLI prints each artifact's one harness rendering, verbatim."""

    @staticmethod
    def _printed(argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_print(self, n, capsys):
        out = self._printed(["table", str(n)], capsys)
        assert "Table" in out
        assert out == render_artifact(f"table{n}") + "\n"

    def test_fig7(self, capsys):
        out = self._printed(["figure", "7"], capsys)
        assert "Fig 7" in out
        assert out == render_artifact("fig7") + "\n"

    def test_fig10(self, capsys):
        out = self._printed(["figure", "10"], capsys)
        assert "blocks relayed" in out
        assert out == render_artifact("fig10") + "\n"

    def test_fig13(self, capsys):
        out = self._printed(["figure", "13"], capsys)
        assert "1-PE" in out
        assert out == render_artifact("fig13") + "\n"

    def test_fig15(self, capsys):
        out = self._printed(["figure", "15"], capsys)
        assert "PSNR" in out
        assert "identical : True" in out
        assert out == render_artifact("fig15") + "\n"

    def test_validate_prints_both_audits(self, capsys):
        out = self._printed(["validate"], capsys)
        assert out == (
            render_artifact("calibration")
            + "\n\n"
            + render_artifact("model_validation")
            + "\n"
        )

    def test_closed_stdout_exits_quietly(self):
        """``ceresz table 1 | head -0``: the reader is gone before the
        first write, so the command exits 1 with an empty stderr (Python's
        documented EPIPE handling), not a BrokenPipeError traceback."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "table", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")


class TestObservability:
    def test_sim_trace_writes_valid_chrome_json(self, tmp_path, field_file,
                                                capsys):
        import json

        from repro.obs import validate_chrome_trace

        path, _ = field_file
        trace_path = tmp_path / "trace.json"
        assert main([
            "sim", str(path), "--rows", "2", "--cols", "1",
            "--strategy", "rows", "--limit-blocks", "8",
            "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace ->" in out
        with open(trace_path) as fh:
            trace = json.load(fh)
        validate_chrome_trace(trace)
        # --trace defaults to timeline level: wafer events present.
        assert any(
            e["ph"] == "X" and e["pid"] == 1 for e in trace["traceEvents"]
        )
        assert trace["otherData"]["metrics"]

    def test_sim_metrics_prints_route_cache_counters(self, field_file,
                                                     capsys):
        path, _ = field_file
        assert main([
            "sim", str(path), "--rows", "2", "--cols", "2",
            "--limit-blocks", "8", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "sim.route_cache{outcome=hit}" in out
        assert "sim.route_cache{outcome=miss}" in out
        assert "sim.engine.events" in out

    def test_sim_trace_level_spans_skips_timeline(self, tmp_path, field_file):
        import json

        path, _ = field_file
        trace_path = tmp_path / "trace.json"
        assert main([
            "sim", str(path), "--rows", "2", "--cols", "1",
            "--strategy", "rows", "--limit-blocks", "8",
            "--trace", str(trace_path), "--trace-level", "spans",
        ]) == 0
        with open(trace_path) as fh:
            trace = json.load(fh)
        assert not any(
            e["ph"] == "X" and e["pid"] == 1 for e in trace["traceEvents"]
        )

    def test_trace_subcommand_summarizes(self, tmp_path, field_file, capsys):
        path, _ = field_file
        trace_path = tmp_path / "trace.json"
        main([
            "sim", str(path), "--rows", "2", "--cols", "1",
            "--strategy", "rows", "--limit-blocks", "8",
            "--trace", str(trace_path),
        ])
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "top spans" in out
        assert "busiest PEs" in out
        assert "engine.run" in out

    def test_compress_trace_and_metrics(self, tmp_path, field_file, capsys):
        import json

        from repro.obs import validate_chrome_trace

        path, data = field_file
        csz = tmp_path / "out.csz"
        trace_path = tmp_path / "host.json"
        assert main([
            "compress", str(path), str(csz), "--eps", "0.5",
            "--jobs", "2", "--trace", str(trace_path), "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "host.shards{direction=compress}" in out
        assert "host.bytes_in{direction=compress}" in out
        with open(trace_path) as fh:
            trace = json.load(fh)
        validate_chrome_trace(trace)
        names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert {"load", "compress", "write"} <= names

    def test_decompress_metrics(self, tmp_path, field_file, capsys):
        path, _ = field_file
        csz = tmp_path / "out.csz"
        out_f32 = tmp_path / "back.f32"
        main(["compress", str(path), str(csz), "--eps", "0.5", "--jobs", "2"])
        capsys.readouterr()
        assert main([
            "decompress", str(csz), str(out_f32), "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "host.shards{direction=decompress}" in out


class TestContainerFlags:
    def test_default_compress_is_indexed(self, tmp_path, field_file, capsys):
        path, _ = field_file
        csz = tmp_path / "out.csz"
        assert main([
            "compress", str(path), str(csz), "--rel", "1e-3"
        ]) == 0
        capsys.readouterr()
        assert main(["info", str(csz)]) == 0
        assert "v2 (indexed)" in capsys.readouterr().out

    def test_no_index_writes_v1(self, tmp_path, field_file, capsys):
        path, data = field_file
        csz = tmp_path / "out.csz"
        out = tmp_path / "back.f32"
        assert main([
            "compress", str(path), str(csz), "--rel", "1e-3", "--no-index"
        ]) == 0
        capsys.readouterr()
        assert main(["info", str(csz)]) == 0
        assert "v1" in capsys.readouterr().out
        assert main(["decompress", str(csz), str(out)]) == 0
        back = load_f32(out)
        assert back.shape == data.shape

    def test_jobs_round_trip(self, tmp_path, field_file, capsys):
        path, data = field_file
        csz = tmp_path / "out.csz"
        out = tmp_path / "back.f32"
        assert main([
            "compress", str(path), str(csz), "--eps", "0.5", "--jobs", "2"
        ]) == 0
        capsys.readouterr()
        assert main(["info", str(csz)]) == 0
        assert "sharded" in capsys.readouterr().out
        assert main([
            "decompress", str(csz), str(out), "--jobs", "2"
        ]) == 0
        back = load_f32(out)
        assert np.max(np.abs(back - data)) <= 0.5

    def test_stream_sink_with_jobs(self, tmp_path, rng):
        from repro.datasets.io import save_f32

        a = np.cumsum(rng.normal(size=1024)).astype(np.float32)
        b = (a * 1.5).astype(np.float32)
        pa, pb = tmp_path / "a.f32", tmp_path / "b.f32"
        save_f32(pa, a)
        save_f32(pb, b)
        arch = tmp_path / "arch.cszs"
        assert main([
            "stream", str(pa), str(pb), "--out", str(arch),
            "--eps", "0.1", "--jobs", "2",
        ]) == 0
        assert main([
            "unstream", str(arch), "--prefix", str(tmp_path / "out_"),
            "--jobs", "2",
        ]) == 0
        out0 = load_f32(tmp_path / "out_0.f32")
        out1 = load_f32(tmp_path / "out_1.f32")
        assert np.max(np.abs(out0 - a)) <= 0.1
        assert np.max(np.abs(out1 - b)) <= 0.1


class TestLedgerAndReport:
    def test_compress_simulate_emit_and_report_reads(
        self, tmp_path, field_file, capsys
    ):
        from repro.obs.ledger import Ledger

        path, _ = field_file
        csz = tmp_path / "out.csz"
        led = tmp_path / "ledger.jsonl"
        assert main([
            "compress", str(path), str(csz), "--rel", "1e-3",
            "--ledger", str(led),
        ]) == 0
        assert main([
            "simulate", str(path), "--rows", "2", "--cols", "2",
            "--strategy", "multi", "--ledger", str(led),
        ]) == 0
        kinds = [r.kind for r in Ledger(led).records()]
        assert kinds == ["compress", "sim"]
        capsys.readouterr()
        assert main(["report", "--ledger", str(led)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "gate: PASS" in out

    def test_report_gate_fails_on_injected_slowdown(
        self, tmp_path, capsys
    ):
        from repro.obs.ledger import Ledger, make_record

        led = Ledger(tmp_path / "ledger.jsonl")
        for speedup in (4.0, 4.1, 3.9, 2.0):  # last run: 2x slower
            led.append(make_record(
                "bench", "demo", {"bench": "demo"},
                values={"demo.fused_compress_speedup": speedup},
            ))
        assert main(["report", "--ledger", led.path]) == 0
        assert "gate: FAIL" in capsys.readouterr().out
        assert main(["report", "--ledger", led.path, "--gate"]) == 1

    def test_report_empty_ledger_passes_gate(self, tmp_path, capsys):
        led = tmp_path / "none.jsonl"
        assert main(["report", "--ledger", str(led), "--gate"]) == 0
        assert "no records" in capsys.readouterr().out
