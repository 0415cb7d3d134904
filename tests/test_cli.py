import contextlib
import csv
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam
from amalgam import cli
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


class TestExponentErrors:
    """Exponent text that cannot be an exponent is a one-line usage error."""

    @pytest.mark.parametrize("argv", [
        ["check-tuple", "--set", "classical", "--q", "0", "--r", "2", "--n", "1"],
        ["check-tuple", "--set", "proposition", "--n", "1", "--sigma", "0.2",
         "--rt", "inf", "--r", "0"],
        ["norm", "--kind", "lebesgue", "--grid-npts", "64", "--p", "1/0"],
        ["norm", "--kind", "lebesgue", "--grid-npts", "64", "--p", "1e400"],
        ["check-tuple", "--set", "proposition", "--n", "1", "--sigma", "inf",
         "--rt", "inf", "--r", "10"],
        ["hls", "--p", "inf", "--alpha", "0.5"],
    ], ids=["classical-q0", "proposition-r0", "norm-p-1/0", "norm-p-1e400",
            "proposition-sigma-inf", "hls-p-inf"])
    def test_exit_two_with_one_line(self, tmp_path, capsys, argv):
        assert invoke(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:")

    def test_zero_denominator_names_the_token(self, tmp_path, capsys):
        assert invoke(["norm", "--kind", "lebesgue", "--p", "1/0"], tmp_path) == 2
        assert "'1/0'" in capsys.readouterr().err

    def test_slack_beyond_float_range(self, tmp_path):
        # 2/q + n/r = n/2 misses by about 1e400, exactly; its float form is "inf"
        assert invoke(["check-tuple", "--set", "classical", "--q", "4", "--r", "1e-400",
                       "--n", "2"], tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [c["slack_float"] for c in report["constraints"]][1:3] == ["-inf", "inf"]

    def test_region_fixed_without_value(self, tmp_path, capsys):
        code = invoke(["region", "--set", "theorem", "--n", "1", "--sigma", "0.3",
                       "--fixed", "rt", "--free", "qt,q", "--resolution", "8"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "--fixed" in err and "name=value" in err

    @pytest.mark.parametrize("argv,item", [
        (["region", "--set", "theorem", "--n", "1", "--sigma", "0.3", "--fixed", "rt=inf",
          "--free", "qt,q", "--resolution", "0"], "resolution"),
        (["region", "--set", "theorem", "--n", "1", "--sigma", "0.3", "--fixed", "rt=inf",
          "--free", "qt,q", "--resolution", "-3"], "resolution"),
        (["region", "--set", "theorem", "--n", "0", "--sigma", "0.3", "--fixed", "rt=inf",
          "--free", "qt,q"], "dimension"),
        (["check-tuple", "--set", "classical", "--n", "0"], "dimension"),
        (["check-tuple", "--set", "classical", "--n", "-2"], "dimension"),
        (["check-tuple", "--set", "proposition", "--n", "0", "--sigma", "0.3"], "dimension"),
        (["check-tuple", "--set", "proposition", "--n", "-2", "--sigma", "0.3"], "dimension"),
        (["region", "--set", "theorem", "--n", "1", "--sigma", "0.3",
          "--fixed", "rt=inf,bogus=3", "--free", "qt,q"], "'bogus'"),
        (["region", "--set", "theorem", "--n", "1", "--sigma", "0.3",
          "--free", "qt,q", "--fixed", "rt=inf,qt=2"], "'qt'"),
        (["hls", "--p", "4/3", "--alpha", "0.5", "--trials", "0"], "trials"),
    ], ids=["resolution-0", "resolution-neg", "region-n0", "classical-n0", "classical-n-neg",
            "proposition-n0", "proposition-n-neg", "fixed-unknown", "fixed-and-free",
            "hls-trials-0"])
    def test_bad_region_and_dimension(self, tmp_path, capsys, argv, item):
        assert invoke(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:") and item in err


class TestFlagTypes:
    """Each flag value is parsed once, by its type, before any manifest is written."""

    @pytest.mark.parametrize("argv,flag", [
        (["norm", "--kind", "lebesgue", "--grid-npts", "64.5"], "--grid-npts"),
        (["norm", "--kind", "lebesgue", "--grid-l", "wide"], "--grid-l"),
        (["norm", "--kind", "lebesgue", "--p", "spam"], "--p"),
        (["evolve", "--times", "0.1,soon"], "--times"),
        (["region", "--set", "theorem", "--n", "1", "--free", "qt,q", "--fixed", "rt"],
         "--fixed"),
        (["region", "--set", "theorem", "--n", "1", "--free", "qt,x", "--fixed", "rt=inf"],
         "--free"),
    ], ids=["int", "float", "exponent", "times", "fixed", "free"])
    def test_bad_value_is_a_parse_error(self, tmp_path, capsys, argv, flag):
        assert invoke(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"usage error: argument {flag}:")
        assert not (tmp_path / "manifest.json").exists()

    def test_one_type_per_flag_name(self):
        # a --config file goes through every subcommand's parser
        types = {}
        for sp in cli._build_parser()[1].values():
            for action in sp._actions:
                for opt in action.option_strings:
                    types.setdefault(opt, set()).add(action.type)
        assert {opt: t for opt, t in types.items() if len(t) > 1} == {}

    def test_config_exponents_parse_exactly(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 3/10\np = 4/3\nrt = inf\nr = 10\nn = 1\n")
        code = run(["--config", str(cfg), "check-tuple", "--set", "proposition",
                    "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "report.json").read_text())["verdict"] == "accept"

    def test_manifest_writes_exponents_as_text(self, tmp_path):
        def no_constants(token):
            raise AssertionError(f"manifest holds the JSON constant {token}")

        assert invoke(["check-tuple", "--set", "classical", "--n", "2", "--q", "10/3",
                       "--r", "inf"], tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(),
                              parse_constant=no_constants)
        assert manifest["params"]["q"] == "10/3" and manifest["params"]["r"] == "inf"
        assert manifest["params"]["n"] == 2 and manifest["params"]["qt"] == "2"


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
        code = invoke(["norm", "--kind", "lebesgue", "--grid-npts", "100"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("ValueError") and "100" in manifest["error"]
        assert manifest["wall_time_s"] is not None

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMALGAM_OUT", str(tmp_path / "envdir"))
        code = run(["norm", "--kind", "lebesgue", "--gen", "gaussian",
                    "--grid-npts", "128", "--p", "2"])
        assert code == 0
        assert (tmp_path / "envdir" / "results.csv").exists()

    def test_warning_recorded_as_one_line(self, tmp_path, capsys):
        code = invoke(["norm", "--kind", "hsigma", "--sigma", "0.3", "--gen", "gaussian",
                       "--grid-npts", "128"], tmp_path)
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("warning: zero-mode mass fraction")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["warnings"] == [err[len("warning: "):].strip()]

    def test_no_warnings_recorded_as_empty(self, tmp_path, capsys):
        assert invoke(["norm", "--kind", "lebesgue", "--grid-npts", "64"], tmp_path) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "manifest.json").read_text())["warnings"] == []


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
        assert manifest["params"]["grid_npts"] == 64


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

    @pytest.mark.parametrize("kind", ["lebesgue", "amalgam", "hsigma"])
    def test_norm_of_huge_container_is_finite(self, tmp_path, capsys, kind):
        from amalgam.grid import SpaceTimeField, write_spacetime
        g = amalgam.GridSpec(1, 4.0, 64)
        path = tmp_path / "big.bin"
        write_spacetime(SpaceTimeField(g, [0.0], np.full((1, 64), 1e300 + 0j)), path)
        capsys.readouterr()
        assert invoke(["norm", "--kind", kind, "--input", str(path)], tmp_path) == 0
        out, err = capsys.readouterr()
        assert err == ""
        # 1e300 over a box of measure 8: 1e300 * sqrt(8) in L^2, in W(L^2, L^2)
        # on unit cubes and in H^0 (the defaults p = q = 2, sigma = 0)
        assert float(out.split(":")[1]) == pytest.approx(1e300 * 8 ** 0.5, rel=1e-11)

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
            ["region", "--set", "theorem", "--n", "1", "--sigma", "0.3", "--fixed", "rt=inf",
             "--free", "qt,q", "--resolution", "128"],
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

    def test_hls_skips_scipy(self, tmp_path):
        assert _modules_after([
            ["hls", "--p", "4/3", "--alpha", "0.5", "--trials", "2"],
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


def _run_quietly(argv) -> tuple:
    """(exit code, stderr) of run(argv), with stdout and stderr captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


_TOKENS = st.one_of(
    st.sampled_from(["0", "-1", "-3/2", "1/0", "0/0", "inf", "INF", "-inf", "nan", "oo",
                     "", " ", "1/", "/2", "2/-3", "1e400", "1e-400", "0.0", "spam", "9" * 400]),
    st.integers(-4, 12).map(str),
    st.fractions(max_denominator=12).map(str),
    st.text(max_size=5),
)


class TestFuzz:
    """Corrupted containers and exponent text exit 0 or 2, never with a traceback."""

    @given(n=st.sampled_from([1, 2]), kind=st.sampled_from(["lebesgue", "hsigma", "amalgam"]),
           cut=st.one_of(st.none(), st.integers(0, 2100)), tail=st.binary(max_size=40),
           patch=st.lists(st.tuples(st.integers(0, 47), st.integers(0, 255)), max_size=6),
           length=st.one_of(st.none(), st.floats()))
    @settings(max_examples=200, deadline=None)
    def test_corrupted_container(self, n, kind, cut, tail, patch, length):
        # two zero-mean slices on 8^n points; the header (n, L, N, slices) is 32
        # bytes and the two instants fill bytes 32..47
        from amalgam.grid import SpaceTimeField, read_spacetime, write_spacetime
        g = amalgam.GridSpec(n, 2.0, 8)
        values = np.cos(np.arange(2 * g.size)).reshape((2,) + g.shape) * (0.5 - 0.25j)
        values -= values.mean(axis=tuple(range(1, n + 1)), keepdims=True)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "field.bin"
            write_spacetime(SpaceTimeField(g, [0.0, 0.5], values), path)
            raw = bytearray(path.read_bytes())
            if length is not None:
                raw[8:16] = struct.pack("<d", length)
            for pos, byte in patch:
                raw[pos] = byte
            path.write_bytes(bytes(raw[:cut]) + tail)
            try:
                stf = read_spacetime(path)
            except ValueError as exc:
                assert path.name in str(exc)
            else:
                assert isinstance(stf, SpaceTimeField)
                assert stf.values.shape == stf.times.shape + stf.grid.shape
            code, err = _run_quietly(["norm", "--kind", kind, "--sigma", "0.3",
                                      "--input", str(path), "--out", tmp])
        # a container of two slices draws one warning line before the norm runs
        lines = err.splitlines()
        assert code in (0, 2)
        assert [ln for ln in lines if not ln.startswith("warning: ")] == lines[-1:] * (code == 2)
        assert all(ln.startswith(("warning: ", "usage error: ")) for ln in lines) and len(lines) <= 2

    @given(cset=st.sampled_from(["classical", "cn2", "theorem", "proposition", "corollary"]),
           n=_TOKENS, sigma=_TOKENS, qt=_TOKENS, rt=_TOKENS, q=_TOKENS, r=_TOKENS)
    @settings(max_examples=300, deadline=None)
    def test_check_tuple_tokens(self, cset, n, sigma, qt, rt, q, r):
        with tempfile.TemporaryDirectory() as tmp:
            code, err = _run_quietly(["check-tuple", f"--set={cset}", f"--n={n}",
                                      f"--sigma={sigma}", f"--qt={qt}", f"--rt={rt}",
                                      f"--q={q}", f"--r={r}", "--out", tmp])
        assert code in (0, 2)
        assert code == 0 or err.count("\n") == 1, err

    @given(cset=st.sampled_from(["classical", "cn2", "theorem", "proposition", "corollary"]),
           n=_TOKENS, sigma=_TOKENS,
           free=st.lists(st.sampled_from(["qt", "rt", "q", "r", "bogus", ""]), max_size=3),
           fixed=st.lists(st.tuples(st.sampled_from(["qt", "rt", "q", "r", "bogus", ""]), _TOKENS),
                          max_size=3),
           resolution=st.sampled_from(["0", "1", "3", "-2", "x", "2.5"]))
    @settings(max_examples=150, deadline=None)
    def test_region_tokens(self, cset, n, sigma, free, fixed, resolution):
        # resolutions stay small: a huge one is a valid request for a huge mesh
        with tempfile.TemporaryDirectory() as tmp:
            code, err = _run_quietly(["region", f"--set={cset}", f"--n={n}", f"--sigma={sigma}",
                                      f"--free={','.join(free)}",
                                      f"--fixed={','.join('='.join(kv) for kv in fixed)}",
                                      f"--resolution={resolution}", "--out", tmp])
        assert code in (0, 2)
        assert code == 0 or err.count("\n") == 1, err

    @given(lines=st.lists(st.one_of(
        st.tuples(st.sampled_from(["n", "sigma", "qt", "rt", "q", "r", "set", "seed", "grid_npts",
                                   "save-field", "bogus"]), _TOKENS).map(" = ".join),
        st.text(max_size=12)), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_config_text(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("\n".join(lines))
            code, err = _run_quietly(["--config", str(cfg), "check-tuple", "--out", tmp])
        assert code in (0, 2)
        assert code == 0 or err.count("\n") == 1, err
