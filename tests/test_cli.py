import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amalgam
from amalgam.cli import run


def invoke(args, out):
    return run(list(args) + ["--out", str(out)])


class TestCheckTuple:
    def test_theorem_accept(self, tmp_path, capsys):
        code = invoke(["check-tuple", "--set", "theorem", "--n", "1",
                       "--sigma", "0.3", "--qt", "2", "--rt", "inf",
                       "--q", "10", "--r", "inf"], tmp_path)
        assert code == 0
        assert "accept" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "accept"

    def test_classical_reject_is_exit_zero(self, tmp_path, capsys):
        code = invoke(["check-tuple", "--set", "classical", "--q", "2",
                       "--r", "inf", "--n", "2"], tmp_path)
        assert code == 0  # a verdict, not a failure
        assert "reject" in capsys.readouterr().out

    def test_proposition_case_tag(self, tmp_path):
        code = invoke(["check-tuple", "--set", "proposition", "--n", "1",
                       "--sigma", "0.2", "--rt", "inf", "--r", "10"], tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["case"] == "c3"

    def test_rational_exponents(self, tmp_path):
        code = invoke(["check-tuple", "--set", "classical", "--q", "10/3",
                       "--r", "5", "--n", "2"], tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        # 2/(10/3) + 2/5 = 3/5 + 2/5 = 1 = n/2 exactly
        assert report["verdict"] == "accept"


class TestUsageErrors:
    def test_unknown_flag(self, tmp_path):
        assert invoke(["check-tuple", "--set", "theorem", "--n", "1",
                       "--bogus", "3"], tmp_path) == 2

    def test_missing_required(self, tmp_path):
        assert invoke(["check-tuple", "--n", "1"], tmp_path) == 2

    def test_unknown_command(self, tmp_path):
        assert run(["frobnicate"]) == 2

    def test_bad_value(self, tmp_path):
        assert invoke(["check-tuple", "--set", "classical", "--q", "spam",
                       "--r", "2", "--n", "1"], tmp_path) == 2


class TestManifest:
    def test_written_before_results_and_finalized(self, tmp_path):
        code = invoke(["norm", "--kind", "lebesgue", "--gen", "gaussian",
                       "--grid-npts", "128", "--p", "2"], tmp_path)
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["wall_time_s"] is not None
        assert (tmp_path / "results.csv").exists()

    def test_handler_error_marks_manifest_failed(self, tmp_path, capsys):
        code = invoke(["check-tuple", "--set", "classical", "--q", "spam",
                       "--r", "2", "--n", "1"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("ValueError") and "spam" in manifest["error"]
        assert manifest["wall_time_s"] is not None

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMALGAM_OUT", str(tmp_path / "envdir"))
        code = run(["norm", "--kind", "lebesgue", "--gen", "gaussian",
                    "--grid-npts", "128", "--p", "2"])
        assert code == 0
        assert (tmp_path / "envdir" / "results.csv").exists()


class TestDeterminism:
    def test_identical_csv_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["norm", "--kind", "amalgam", "--gen", "band-limited",
                "--seed", "7", "--grid-npts", "256", "--p", "2", "--q", "4"]
        assert invoke(args, a) == 0
        assert invoke(args, b) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_region_mesh_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["region", "--set", "proposition", "--n", "1", "--sigma", "0.3",
                "--free", "rt,r", "--resolution", "16"]
        assert invoke(args, a) == 0
        assert invoke(args, b) == 0
        assert (a / "mesh.csv").read_bytes() == (b / "mesh.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 0.2\nrt = inf\nr = 10\nn = 1\n")
        code = run(["--config", str(cfg), "check-tuple", "--set", "proposition",
                    "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "accept"

    def test_command_line_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 10\n")
        code = run(["--config", str(cfg), "check-tuple", "--set", "proposition",
                    "--n", "1", "--sigma", "0.3", "--rt", "inf",
                    "--r", "4", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "reject"  # r=4 from the command line wins

    def test_equals_form_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 1\n")
        code = run(["--config", str(cfg), "check-tuple", "--set", "classical",
                    "--n=2", "--q", "4", "--r", "4", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "accept"  # 2/4 + 2/4 = n/2 only for n = 2

    @pytest.mark.parametrize("argv", [
        ["check-tuple", "--set", "classical", "--n", "2", "--config"],
        ["--config"],
    ])
    def test_config_without_value(self, capsys, argv):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--config" in err and "Traceback" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        code = run(["--config", str(cfg), "check-tuple", "--set", "classical",
                    "--n", "2", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and str(cfg) in err

    def test_config_value_outside_choices(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window = foo\n")
        code = run(["--config", str(cfg), "norm", "--kind", "amalgam",
                    "--grid-npts", "128", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "invalid choice: 'foo'" in err and str(cfg) in err

    def test_config_sets_valueless_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("save-field = true\ngrid_npts = 64\n")
        code = run(["--config", str(cfg), "evolve", "--times", "0.5",
                    "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "evolved.bin").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["params"]["grid_npts"] == "64"


class TestCommands:
    def test_evolve_writes_slices(self, tmp_path):
        code = invoke(["evolve", "--gen", "gaussian", "--grid-npts", "256",
                       "--times", "0.1,0.5,1.0", "--save-field"], tmp_path)
        assert code == 0
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 slices
        assert (tmp_path / "evolved.bin").exists()

    def test_norm_roundtrip_via_file(self, tmp_path):
        code = invoke(["evolve", "--gen", "gaussian", "--grid-npts", "128",
                       "--times", "0.2", "--save-field"], tmp_path)
        assert code == 0
        code = invoke(["norm", "--kind", "lebesgue", "--p", "2",
                       "--input", str(tmp_path / "evolved.bin")], tmp_path)
        assert code == 0

    def test_norm_input_reports_slice_used(self, tmp_path, capsys):
        assert invoke(["evolve", "--gen", "gaussian", "--grid-npts", "128",
                       "--times", "0.2,5", "--save-field"], tmp_path) == 0
        capsys.readouterr()
        path = tmp_path / "evolved.bin"
        code = invoke(["norm", "--kind", "lebesgue", "--p", "inf", "--input", str(path)],
                      tmp_path)
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2 slices" in err and "t = 0.2" in err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["input_slices"] == 2
        assert report["input_time"] == 0.2

    def test_truncated_container_is_usage_error(self, tmp_path, capsys):
        assert invoke(["evolve", "--gen", "gaussian", "--grid-npts", "128",
                       "--times", "0.2", "--save-field"], tmp_path) == 0
        path = tmp_path / "evolved.bin"
        path.write_bytes(path.read_bytes()[:-100])
        capsys.readouterr()
        code = invoke(["norm", "--kind", "lebesgue", "--input", str(path)], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and str(path) in err and "Traceback" not in err

    def test_suite_small(self, tmp_path, capsys):
        code = invoke(["suite", "--corpus-size", "8"], tmp_path)
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_hls_reject_and_accept(self, tmp_path):
        assert invoke(["hls", "--p", "2", "--alpha", "0.5"], tmp_path) == 0
        assert invoke(["hls", "--p", "4/3", "--alpha", "0.5",
                       "--trials", "20"], tmp_path) == 0

    def test_bilinear_identity(self, tmp_path):
        code = invoke(["bilinear", "--grid-npts", "32", "--ntimes", "5",
                       "--pairs", "3"], tmp_path)
        assert code == 0

    def test_ratio(self, tmp_path):
        code = invoke(["ratio", "--n", "1", "--sigma", "0.3", "--qt", "2",
                       "--rt", "inf", "--q", "10", "--r", "inf",
                       "--grid-npts", "512", "--t-outer", "8"], tmp_path)
        assert code == 0

    def test_fit_decay_flat_case(self, tmp_path, capsys):
        code = invoke(["fit-decay", "--n", "1", "--sigma", "0.3",
                       "--rt", "inf", "--r", "inf", "--grid-l", "32",
                       "--grid-npts", "1024", "--per-decade", "8"], tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "small-time" in out and "large-time" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["converged"] is True
        assert 0.0 < manifest["max_est_error"] < 1e-3
        with open(tmp_path / "results.csv") as fh:
            rows = {r["regime"]: float(r["r_squared"]) for r in csv.DictReader(fh)}
        assert manifest["r_squared"] == rows


class TestConsoleScript:
    def test_help_runs(self):
        proc = subprocess.run([sys.executable, "-m", "amalgam.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "check-tuple" in proc.stdout


# a fresh interpreter that imports this checkout's amalgam
_SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(amalgam.__file__).resolve().parents[1]))

_FOOTPRINT = """
import json, sys
from amalgam.cli import run
for argv in json.loads(sys.argv[1]):
    assert run(argv + ["--out", sys.argv[2]]) == 0, argv
print(json.dumps(sorted(m for m in ("numpy", "scipy", "scipy.special") if m in sys.modules)))
"""


def _modules_after(commands, out) -> list:
    """Which of numpy, scipy, scipy.special a fresh interpreter holds after running commands."""
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(commands), str(out)],
                          capture_output=True, text=True, env=_SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_verdict_commands_skip_numpy(self, tmp_path):
        assert _modules_after([
            ["check-tuple", "--set", "theorem", "--n", "1", "--sigma", "0.3", "--qt", "2",
             "--rt", "inf", "--q", "10", "--r", "inf"],
            ["region", "--set", "proposition", "--n", "1", "--sigma", "0.3",
             "--free", "rt,r", "--resolution", "8"],
        ], tmp_path) == []

    def test_field_commands_skip_scipy(self, tmp_path):
        assert _modules_after([
            ["norm", "--kind", "amalgam", "--grid-npts", "64"],
            ["evolve", "--grid-npts", "64", "--times", "0.1,0.2"],
            ["ratio", "--n", "1", "--sigma", "0.3", "--qt", "2", "--rt", "inf",
             "--q", "10", "--r", "inf", "--grid-npts", "128", "--t-outer", "2"],
            ["bilinear", "--grid-npts", "16", "--ntimes", "3", "--pairs", "1"],
            ["suite", "--corpus-size", "4"],
        ], tmp_path) == ["numpy"]

    def test_kernel_commands_load_scipy_special(self, tmp_path):
        assert _modules_after([
            ["kernel-profile", "--n", "1", "--sigma", "0.2", "--rt", "inf", "--r", "10",
             "--grid-l", "8", "--grid-npts", "64", "--per-decade", "2"],
        ], tmp_path) == ["numpy", "scipy", "scipy.special"]

    def test_package_names_resolve_lazily(self):
        code = ("import sys, amalgam; assert 'numpy' not in sys.modules; "
                "from amalgam import GridSpec, kernel_eval; "
                "assert GridSpec.__module__ == 'amalgam.grid'; "
                "assert kernel_eval.__module__ == 'amalgam.propagator'; "
                "assert all(getattr(amalgam, name) for name in amalgam.__all__)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_SRC_ENV)
        assert proc.returncode == 0, proc.stderr
