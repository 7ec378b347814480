"""CLI tests (invoking main() in-process and checking output/exit codes)."""

import json

import pytest

from repro.cli import build_parser, main


class TestSpectrum:
    def test_example_tensor(self, capsys):
        assert main(["spectrum", "--example", "--starts", "48"]) == 0
        out = capsys.readouterr().out
        assert "pos_stable" in out
        assert "+0.87" in out  # principal eigenvalue of the example

    def test_random_tensor(self, capsys):
        assert main(["spectrum", "--m", "4", "--n", "3", "--seed", "42",
                     "--starts", "32"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out

    def test_adaptive_flag(self, capsys):
        assert main(["spectrum", "--example", "--starts", "16", "--adaptive"]) == 0
        assert "adaptive run" in capsys.readouterr().out

    def test_explicit_alpha(self, capsys):
        assert main(["spectrum", "--example", "--starts", "16",
                     "--alpha", "6.0"]) == 0



def _pair_table(out):
    """The eigenpair table of ``repro solve``: its header and pair rows."""
    lines = out.splitlines()
    first = next(i for i, line in enumerate(lines) if "stability" in line)
    return [line for line in lines[first:]
            if not line.startswith("checkpoint:")]


class TestSolveResume:
    def test_resume_from_trimmed_checkpoint(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        args = ["solve", "--m", "4", "--n", "3", "--seed", "7",
                "--starts", "32"]
        assert main(args + ["--checkpoint", str(ck)]) == 0
        full = capsys.readouterr().out
        assert "resumed from checkpoint: 0" in full

        # an interrupted life: only starts 0-19 reached the checkpoint
        state = json.loads(ck.read_text())
        state["starts"] = {k: v for k, v in state["starts"].items()
                           if int(k) < 20}
        ck.write_text(json.dumps(state))
        assert main(args + ["--resume", str(ck)]) == 0
        resumed = capsys.readouterr().out
        assert "resumed from checkpoint: 20" in resumed
        assert _pair_table(resumed) == _pair_table(full)
        assert len(json.loads(ck.read_text())["starts"]) == 32

class TestPhantomDetect:
    def test_phantom_then_detect(self, tmp_path, capsys):
        out_file = str(tmp_path / "p.npz")
        assert main(["phantom", "--rows", "4", "--cols", "4",
                     "--gradients", "20", "--noise", "0.0",
                     "-o", out_file]) == 0
        out = capsys.readouterr().out
        assert "16 voxels" in out
        assert main(["detect", out_file, "--starts", "32"]) == 0
        out = capsys.readouterr().out
        assert "correct fiber count" in out


class TestGpuModel:
    def test_default_device(self, capsys):
        assert main(["gpu-model"]) == 0
        out = capsys.readouterr().out
        assert "Tesla C2050" in out
        assert "GPU   unrolled" in out

    def test_unknown_device_falls_back(self, capsys):
        assert main(["gpu-model", "--device", "H100"]) == 0
        assert "Tesla C2050" in capsys.readouterr().out

    def test_custom_workload(self, capsys):
        assert main(["gpu-model", "--tensors", "64", "--iterations", "20"]) == 0


class TestKernels:
    def test_small_size(self, capsys):
        assert main(["kernels", "--m", "3", "--n", "3", "--reps", "5"]) == 0
        out = capsys.readouterr().out
        for name in ("compressed", "precomputed", "unrolled", "vectorized", "blocked"):
            assert name in out


class TestBasins:
    def test_basin_map_output(self, capsys):
        assert main(["basins", "--example", "--resolution", "150",
                     "--width", "30", "--height", "8"]) == 0
        out = capsys.readouterr().out
        assert "converged:" in out
        assert "random starts for 99%" in out


class TestCudagen:
    def test_print_to_stdout(self, capsys):
        assert main(["cudagen"]) == 0
        out = capsys.readouterr().out
        assert "__global__" in out
        assert "sshopm_unrolled" in out

    def test_write_to_file(self, tmp_path, capsys):
        out_file = str(tmp_path / "sshopm.cu")
        assert main(["cudagen", "--m", "4", "--n", "3", "-o", out_file]) == 0
        text = open(out_file).read()
        assert "sshopm_general" in text
        assert "wrote" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestExitCodes:
    """Spec-12 contract: bad input and unreadable files exit 2 (not a
    traceback, not exit 1 — that's reserved for 'ran but found nothing')."""

    def test_detect_unreadable_file_exits_2(self, capsys):
        assert main(["detect", "/nonexistent/phantom.npz"]) == 2
        assert "error" in capsys.readouterr().err

    def test_phantom_unwritable_output_exits_2(self, capsys):
        assert main(["phantom", "--rows", "2", "--cols", "2",
                     "--gradients", "16",
                     "-o", "/nonexistent/dir/p.npz"]) == 2
        assert "error" in capsys.readouterr().err

    def test_phantom_bad_parameters_exit_2(self, capsys):
        assert main(["phantom", "--rows", "2", "--cols", "2",
                     "--gradients", "1", "-o", "p.npz"]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_unreadable_trace_exits_2(self, capsys):
        assert main(["report", "/nonexistent/trace.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_fleet_solve_unreadable_batch_exits_2(self, capsys):
        assert main(["fleet-solve", "--batch", "/nonexistent/b.npz"]) == 2
        assert "error" in capsys.readouterr().err

    def test_cudagen_unwritable_output_exits_2(self, capsys):
        assert main(["cudagen", "-o", "/nonexistent/dir/k.cu"]) == 2
        assert "error" in capsys.readouterr().err

    def test_ckpt_gc_negative_keep_exits_2(self, tmp_path, capsys):
        assert main(["ckpt", "gc", str(tmp_path), "--keep", "-1"]) == 2
        assert "error" in capsys.readouterr().err


class TestJsonOutput:
    """The --json contract: exactly one parseable document on stdout."""

    def test_fleet_solve_json(self, capsys):
        import json

        assert main(["fleet-solve", "--tensors", "4", "--m", "3", "--n", "4",
                     "--starts", "4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tensors"] == 4 and doc["starts"] == 4
        assert doc["converged"] >= 1 and doc["stopped"] is False
        assert len(doc["eigenvalues"]) == 4
        assert doc["solver"].startswith("fleet")

    def test_fleet_solve_json_includes_shards(self, capsys):
        import json

        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        assert main(["fleet-solve", "--tensors", "6", "--m", "3", "--n", "4",
                     "--starts", "4", "--workers", "2", "--executor",
                     "process", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shards"]["workers"] == 2
        assert sum(doc["shards"]["sizes"]) == 6
        assert doc["shards"]["executor"] == "process"

    def test_report_json(self, capsys):
        import json
        from pathlib import Path

        trace = (Path(__file__).resolve().parents[1] / "benchmarks"
                 / "results" / "mri_pipeline_trace.trace.json")
        assert main(["report", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.get("schema", "").startswith("repro-trace/")


class TestCkptCli:
    def _seed_dir(self, tmp_path):
        import json
        import os as _os

        for i in range(3):
            p = tmp_path / f"c{i}.json"
            p.write_text(json.dumps({"schema": "repro-ckpt/1",
                                     "starts": {}}))
            _os.utime(p, (1000 + i, 1000 + i))
        (tmp_path / "drain.json").write_text(
            json.dumps({"schema": "repro-drain/1", "jobs": []}))

    def test_gc_prunes_and_reports_json(self, tmp_path, capsys):
        import json

        self._seed_dir(tmp_path)
        assert main(["ckpt", "gc", str(tmp_path), "--keep", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(p.rsplit("/", 1)[-1] for p in doc["pruned"]) == [
            "c0.json", "c1.json"]
        assert [p.rsplit("/", 1)[-1] for p in doc["kept"]] == ["c2.json"]
        # the drain manifest is not a checkpoint; gc must not touch it
        assert (tmp_path / "drain.json").exists()
        assert not (tmp_path / "c0.json").exists()

    def test_gc_dry_run_deletes_nothing(self, tmp_path, capsys):
        import json

        self._seed_dir(tmp_path)
        assert main(["ckpt", "gc", str(tmp_path), "--keep", "0",
                     "--dry-run", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dry_run"] and len(doc["pruned"]) == 3
        assert len(list(tmp_path.glob("c*.json"))) == 3

    def test_list_newest_first(self, tmp_path, capsys):
        import json

        self._seed_dir(tmp_path)
        assert main(["ckpt", "list", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = [p.rsplit("/", 1)[-1] for p in doc["checkpoints"]]
        assert names == ["c2.json", "c1.json", "c0.json"]


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        import repro

        assert out.strip() == f"repro {repro.__version__}"

    def test_version_matches_pyproject(self):
        import re
        from pathlib import Path

        import repro

        pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(),
                          re.MULTILINE)
        assert match and repro.__version__ == match.group(1)


class TestTraceFlagPlacement:
    def test_trace_before_subcommand(self, tmp_path, capsys):
        from repro.instrument import load_trace

        out = tmp_path / "pre.json"
        status = main(["--trace", str(out), "spectrum", "--m", "3", "--n", "3",
                       "--starts", "8", "--max-iter", "200"])
        assert status == 0
        rec = load_trace(out)
        assert rec.meta["command"] == "spectrum"
        assert "TOTAL" in capsys.readouterr().out

    def test_unwritable_trace_path_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "no" / "such" / "dir" / "t.json"
        status = main(["spectrum", "--example", "--starts", "8",
                       "--trace", str(bad)])
        assert status == 2
        err = capsys.readouterr().err
        assert "cannot write trace file" in err
