import contextlib
import csv
import io
import json
import os
import resource
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amalgam
from amalgam import cli
from amalgam.cli import run
from amalgam.grid import GridSpec


def invoke(args, out):
    """run's exit code; run records warnings instead of raising them, so a numpy
    floating-point warning in the run's manifest fails the test here."""
    code = run(list(args) + ["--out", str(out)])
    manifest = Path(out) / "manifest.json"
    if manifest.exists():
        notes = json.loads(manifest.read_text())["warnings"]
        assert not [w for w in notes if " encountered in " in w], notes
    return code


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


# a valid value for each flag that has no default
_VALID = {"--set": "theorem", "--n": "1", "--free": "qt,q", "--kind": "lebesgue",
          "--sigma": "0.3", "--qt": "2", "--rt": "inf", "--q": "10", "--r": "inf",
          "--p": "4/3", "--alpha": "0.5"}
_NO_DEFAULT = [(name, action.option_strings[0])
               for name, sp in cli._build_parser()[1].items() for action in sp._actions
               if action.default is None and action.dest not in ("out", "input", "window_norm")]


class TestUsageErrors:
    @pytest.mark.parametrize("command,flag", _NO_DEFAULT,
                             ids=[f"{c}/{f}" for c, f in _NO_DEFAULT])
    def test_flag_without_default_is_required(self, tmp_path, capsys, command, flag):
        given = [tok for other, value in _VALID.items() if other != flag
                 and (command, other) in _NO_DEFAULT for tok in (other, value)]
        assert invoke([command, *given], tmp_path) == 2
        # argparse's own line: each flag declares whether it is required
        err = capsys.readouterr().err
        assert err == f"usage error: the following arguments are required: {flag}\n"
        assert not (tmp_path / "manifest.json").exists()

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

    def test_grid_too_large_to_hold(self, tmp_path, capsys):
        # 65536^3 samples: the datum's first allocation, 2 PiB, fails before any work
        assert invoke(["norm", "--kind", "lebesgue", "--grid-n", "3", "--grid-npts", "65536"],
                      tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error: Unable to allocate")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed" and "MemoryError" in manifest["error"]

    def test_lattice_radii_fail_on_the_whole_array(self, tmp_path):
        # band-limited data need |k| on the lattice, allocated whole before any square is
        # added: under a 4 GiB address-space cap it is the (N, N, N) array that cannot be
        # had, not a 32 GiB (N, N, 1) partial sum.  The cap holds in the child only.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (4 * 2 ** 30, 4 * 2 ** 30))

        proc = subprocess.run(
            [sys.executable, "-m", "amalgam.cli", "norm", "--kind", "lebesgue",
             "--gen", "band-limited", "--grid-n", "3", "--grid-npts", "65536",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=_SRC_ENV, preexec_fn=cap)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "(65536, 65536, 65536)" in lines[0]

    def test_non_finite_evolution_names_the_instant(self, tmp_path, capsys):
        # t |xi|^2 overflows at t = 1e308, so that slice's phase is not below 2^44
        assert invoke(["evolve", "--times", "0.5,1e308", "--grid-npts", "64"], tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("usage error: the phase t |xi|^2 at t = 1e+308 is not below 2^44, "
                           "so float64 cannot resolve it to 2^-9 rad")

    def test_overflowing_phase_is_refused_before_any_exp(self, tmp_path, capsys):
        # the phase is checked before exp, so numpy raises no overflow or invalid warning
        assert invoke(["evolve", "--times", "1e308", "--grid-npts", "64"], tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("usage error: the phase t |xi|^2 at t = 1e+308 is not below 2^44, "
                       "so float64 cannot resolve it to 2^-9 rad\n")
        assert json.loads((tmp_path / "manifest.json").read_text())["warnings"] == []

    def test_unresolved_phase_is_refused(self, tmp_path, capsys):
        # the phase at t = 1e300 is finite, but float64 spaces phases there about 1e286
        # rad apart, so the slice would be rounding noise
        assert invoke(["evolve", "--times", "1e300", "--grid-npts", "64"], tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("usage error: the phase t |xi|^2 at t = 1e+300 is not below 2^44, "
                       "so float64 cannot resolve it to 2^-9 rad\n")
        assert json.loads((tmp_path / "manifest.json").read_text())["warnings"] == []
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("argv, code, line", [
        (["fit-decay", "--sigma", "0.3", "--rt", "1", "--r", "inf"], 2,
         "usage error: rt and r must lie in [2, inf]"),
        (["kernel-profile", "--sigma", "0.3", "--rt", "inf", "--r", "inf", "--tmin", "2"], 2,
         "usage error: need 0 < tmin < 1 < tmax"),
        (["norm", "--kind", "amalgam", "--grid-npts", "64", "--window-radius", "-1"], 2,
         "usage error: radius and step must be positive"),
        (["norm", "--kind", "amalgam", "--grid-npts", "64", "--window-step", "0"], 2,
         "usage error: radius and step must be positive"),
        (["hls", "--p", "1/2", "--alpha", "0.9"], 0,
         "reject: need 1 <= p < q, got p=1/2, q=10/19"),
        (["check-tuple", "--set", "theorem", "--n", "1", "--config", "x"], 2,
         "usage error: unrecognized arguments: --config x"),
        # the range check comes before any zero-mode read, which would warn of the gaussian
        (["evolve", "--sigma", "0.5", "--gen", "gaussian", "--grid-npts", "64"], 2,
         "usage error: sigma must lie in [0, n/2) = [0, 0.5), got 0.5"),
        # |xi|^(2 sigma) may overflow where the norm does not; here the norm does, 5e383
        (["norm", "--kind", "hsigma", "--sigma", "200", "--gen", "band-limited"], 2,
         "usage error: the norm exceeds the float64 range"),
        # |K_t(0)| = c t^-1.5 at t = 1e-250, in closed form and as the lattice's kernel
        (["kernel-profile", "--n", "3", "--sigma", "0", "--rt", "inf", "--r", "inf",
          "--tmin", "1e-250", "--per-decade", "1"], 2,
         "usage error: |K_t(0)| at t = 1e-250 exceeds the float64 range"),
        (["kernel-profile", "--n", "3", "--sigma", "0", "--rt", "4", "--r", "10", "--grid-l",
          "2", "--grid-npts", "16", "--tmin", "1e-250", "--per-decade", "1"], 2,
         "usage error: |K_t(0)| at t = 1e-250 exceeds the float64 range"),
    ], ids=["fit-decay-rt", "kernel-profile-tmin", "window-radius", "window-step", "hls-p",
            "config", "evolve-sigma", "hsigma-sigma", "peak-closed-form", "peak-lattice"])
    def test_refusal_is_one_line(self, tmp_path, capsys, argv, code, line):
        # a refused value exits 2 with one stderr line; hls's reject is a verdict, exit 0
        assert invoke(argv, tmp_path) == code
        out, err = capsys.readouterr()
        assert (err if code else out).splitlines() == [line]


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
        # every set checks the whole tuple, the exponents its clauses do not use included
        ["check-tuple", "--set", "classical", "--n", "2", "--q", "1/2", "--r", "2"],
        ["check-tuple", "--set", "proposition", "--n", "1", "--sigma", "-1",
         "--rt", "inf", "--r", "10"],
    ], ids=["classical-q0", "proposition-r0", "norm-p-1/0", "norm-p-1e400",
            "proposition-sigma-inf", "classical-q-half", "proposition-sigma-neg"])
    def test_exit_two_with_one_line(self, tmp_path, capsys, argv):
        assert invoke(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:")

    def test_zero_denominator_names_the_token(self, tmp_path, capsys):
        assert invoke(["norm", "--kind", "lebesgue", "--p", "1/0"], tmp_path) == 2
        assert "'1/0'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag,hint", [
        (["norm", "--kind", "hsigma", "--sigma", "1e400", "--grid-npts", "64"], "--sigma", ""),
        (["evolve", "--sigma", "1e400", "--grid-npts", "64"], "--sigma", ""),
        (["fit-decay", "--sigma", "1e400", "--rt", "inf", "--r", "inf"], "--sigma", ""),
        (["norm", "--kind", "lebesgue", "--p", "1e400", "--grid-npts", "64"], "--p",
         "; use inf"),
    ], ids=["norm-sigma", "evolve-sigma", "fit-decay-sigma", "norm-p"])
    def test_value_beyond_float_range_names_the_flag(self, tmp_path, capsys, argv, flag, hint):
        # inf is suggested only to an exponent: --sigma refuses it
        assert invoke(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: argument {flag}: beyond the float64 range{hint}\n"

    def test_slack_beyond_float_range(self, tmp_path):
        # sigma > 0 and sigma < n/2 hold by about +1e400 and -1e400, exactly; their
        # float forms are "inf" and "-inf"
        assert invoke(["check-tuple", "--set", "theorem", "--n", "1", "--sigma", "1e400"],
                      tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [c["slack_float"] for c in report["constraints"]][5:7] == ["inf", "-inf"]

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
        # float flags are finite: inf used to end in a traceback or in numpy's
        # "Maximum allowed size exceeded"
        (["kernel-profile", "--n", "1", "--sigma", "0.2", "--rt", "inf", "--r", "10",
          "--tmax", "inf"], "--tmax"),
        (["norm", "--kind", "amalgam", "--window", "gaussian", "--window-norm", "l2",
          "--window-step", "inf", "--grid-npts", "64"], "--window-step"),
        (["ratio", "--sigma", "0.3", "--qt", "2", "--rt", "inf", "--q", "10", "--r", "inf",
          "--t-outer", "inf"], "--t-outer"),
        (["norm", "--kind", "lebesgue", "--grid-npts", "64", "--width", "nan"], "--width"),
        (["norm", "--kind", "lebesgue", "--grid-npts", "64", "--width", "1e400"], "--width"),
        # orders are finite rationals: inf used to end in a message that named no flag
        (["norm", "--kind", "hsigma", "--sigma", "inf", "--grid-npts", "64"], "--sigma"),
        (["hls", "--p", "4/3", "--alpha", "inf"], "--alpha"),
    ], ids=["int", "float", "exponent", "times", "fixed", "free", "tmax-inf",
            "window-step-inf", "t-outer-inf", "width-nan", "width-1e400", "sigma-inf",
            "alpha-inf"])
    def test_bad_value_is_a_parse_error(self, tmp_path, capsys, argv, flag):
        assert invoke(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"usage error: argument {flag}:")
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("extra,name", [
        (["--kind", "lebesgue", "--width", "1e200"], "width"),
        (["--kind", "lebesgue", "--width", "0"], "width"),
        (["--kind", "lebesgue", "--width", "1e-300"], "width"),
        (["--kind", "hsigma", "--width", "1e-300"], "width"),
        (["--kind", "lebesgue", "--width", "-1"], "width"),
        (["--kind", "amalgam", "--window", "gaussian", "--window-norm", "l2",
          "--window-radius", "1e-200"], "radius"),
        (["--kind", "amalgam", "--window", "gaussian", "--window-norm", "l2",
          "--window-radius", "1e200"], "radius"),
    ], ids=["width-1e200", "width-0", "width-1e-300", "hsigma-width-1e-300", "width-neg",
            "radius-1e-200", "radius-1e200"])
    def test_gaussian_scale_has_a_finite_square(self, tmp_path, capsys, extra, name):
        # these printed numpy warnings and then a message that did not name the flag,
        # a traceback, or (--width -1) the width-1 norm
        assert invoke(["norm", "--grid-npts", "64", "--grid-l", "8", *extra], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:") and name in err
        assert "warning:" not in err

    def test_one_type_per_flag_name(self):
        # a flag name means one thing wherever it appears; _float reads its type by name
        types = {}
        for sp in cli._build_parser()[1].values():
            for action in sp._actions:
                for opt in action.option_strings:
                    types.setdefault(opt, set()).add(action.type)
        assert {opt: t for opt, t in types.items() if len(t) > 1} == {}

    def test_manifest_writes_exponents_as_text(self, tmp_path):
        def no_constants(token):
            raise AssertionError(f"manifest holds the JSON constant {token}")

        assert invoke(["check-tuple", "--set", "classical", "--n", "2", "--q", "10/3",
                       "--r", "inf"], tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(),
                              parse_constant=no_constants)
        assert manifest["params"]["q"] == "10/3" and manifest["params"]["r"] == "inf"
        assert manifest["params"]["n"] == 2 and manifest["params"]["qt"] == "2"


class TestStrictJson:
    """Every JSON file a command writes is standard JSON: inf and rationals are text."""

    @pytest.mark.parametrize("argv,name,key,want", [
        (["norm", "--kind", "lebesgue", "--p", "inf", "--grid-npts", "64"],
         "manifest.json", ("params", "p"), "inf"),
        (["check-tuple", "--set", "theorem", "--n", "1", "--sigma", "1e400"],
         "report.json", ("constraints", 6, "slack_float"), "-inf"),
        (["kernel-profile", "--n", "1", "--sigma", "0.2", "--rt", "inf", "--r", "10",
          "--grid-l", "8", "--grid-npts", "64", "--per-decade", "2"],
         "manifest.json", ("params", "rt"), "inf"),
        (["check-tuple", "--set", "classical", "--n", "2", "--q", "10/3", "--r", "5"],
         "manifest.json", ("params", "q"), "10/3"),
    ], ids=["norm", "check-tuple", "kernel-profile", "manifest"])
    def test_no_json_constants(self, tmp_path, argv, name, key, want):
        def constant(token):
            raise AssertionError(f"{name} holds the JSON constant {token}")

        assert invoke(argv, tmp_path) == 0
        for path in tmp_path.glob("*.json"):
            json.loads(path.read_text(), parse_constant=constant)
        value = json.loads((tmp_path / name).read_text())
        for k in key:
            value = value[k]
        assert value == want


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

    @pytest.mark.parametrize("gen, warned", [("gaussian", True), ("modulated", False)])
    def test_smoothed_evolution_warns_of_zero_mode_mass(self, tmp_path, capsys, gen, warned):
        # at sigma > 0 the smoothing weight drops the zero mode: the gaussian's l2 column
        # reads 1.59868, 25% under its closed form sqrt(Gamma(0.2)) = 2.14263
        assert invoke(["evolve", "--sigma", "0.3", "--gen", gen], tmp_path) == 0
        err = capsys.readouterr().err
        line = ("zero-mode mass fraction 1.11e-01 >= 1e-10; "
                "the smoothing weight drops it, so the norm undercounts this field")
        assert err == f"warning: {line}\n" * warned
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["warnings"] == [line] * warned

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


# one small run of every command, and the files it writes: each computed number goes
# to one of them, with the run's parameters and health fields in manifest.json
_OUTPUTS = {
    "check-tuple": (["--set", "theorem", "--n", "1", "--sigma", "0.3", "--qt", "2", "--rt", "inf",
                     "--q", "10", "--r", "inf"], {"report.json"}),
    "region": (["--set", "theorem", "--n", "1", "--sigma", "0.3", "--fixed", "rt=inf",
                "--free", "qt,q", "--resolution", "8"], {"mesh.csv"}),
    "norm": (["--kind", "hsigma", "--sigma", "0.3", "--gen", "modulated", "--grid-npts", "64"],
             {"results.csv"}),
    "evolve": (["--grid-npts", "64", "--save-field"], {"results.csv", "evolved.bin"}),
    "kernel-profile": (["--n", "1", "--sigma", "0.3", "--rt", "inf", "--r", "inf"],
                       {"results.csv"}),
    "fit-decay": (["--n", "1", "--sigma", "0.3", "--rt", "inf", "--r", "inf"], {"results.csv"}),
    "ratio": (["--sigma", "0.3", "--qt", "2", "--rt", "inf", "--q", "10", "--r", "inf",
               "--grid-npts", "64", "--t-outer", "2"], {"results.csv"}),
    "suite": (["--corpus-size", "4"], {"results.csv"}),
    "hls": (["--p", "4/3", "--alpha", "0.5", "--trials", "2"], {"results.csv"}),
    "bilinear": (["--grid-npts", "16", "--ntimes", "3", "--pairs", "1"], {"results.csv"}),
}


class TestOutputFiles:
    def test_every_command_is_listed(self):
        assert set(_OUTPUTS) == set(cli._build_parser()[1])

    @pytest.mark.parametrize("command", list(_OUTPUTS))
    def test_files_written(self, tmp_path, command):
        flags, files = _OUTPUTS[command]
        assert invoke([command, *flags], tmp_path) == 0
        assert {p.name for p in tmp_path.iterdir()} == files | {"manifest.json"}
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "complete"

    def test_norm_health_and_source_are_manifest_fields(self, tmp_path):
        assert invoke(["evolve", "--grid-npts", "64", "--times", "0.5", "--save-field"],
                      tmp_path / "evolve") == 0
        assert invoke(["norm", "--kind", "amalgam", "--window", "bump", "--window-radius", "1",
                       "--input", str(tmp_path / "evolve" / "evolved.bin")], tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["window_blocks"] >= 1
        assert manifest["input_grid"] == {"n": 1, "length": 16.0, "npts": 64}
        assert (manifest["input_slices"], manifest["input_time"]) == (1, 0.5)
        assert invoke(["norm", "--kind", "hsigma", "--sigma", "0.3", "--grid-npts", "64"],
                      tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["zero_mode_fraction"] > 0.1  # the gaussian's, which draws a warning
        assert len(manifest["warnings"]) == 1 and "input_grid" not in manifest


class TestCommands:
    def test_evolve_writes_slices(self, tmp_path):
        code = invoke(["evolve", "--gen", "gaussian", "--grid-npts", "256",
                       "--times", "0.1,0.5,1.0", "--save-field"], tmp_path)
        assert code == 0
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 slices
        assert (tmp_path / "evolved.bin").exists()

    def test_suite_counterexamples_reach_the_manifest(self, tmp_path, monkeypatch):
        # the suite tests' corruption of row 3 (a spike): three properties fail, and
        # the manifest names each with its first failing field
        from amalgam import verify
        from amalgam.verify import _amalgam_norms

        def corrupted(values, p, q, window, grid):
            norms, blocks = _amalgam_norms(values, p, q, window, grid)
            norms[3] = 10.0 * norms[3] + 1.0
            return norms, blocks

        monkeypatch.setattr(verify, "_amalgam_norms", corrupted)
        assert invoke(["suite", "--corpus-size", "8"], tmp_path) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "complete" and manifest["passed"] is False
        found = manifest["counterexamples"]
        assert set(found) == {"diagonal identity W(p,p) = L^p (unit cubes)",
                              "homogeneity of the amalgam norm", "triangle inequality"}
        for worst in found.values():
            assert (worst["index"], worst["label"]) == (3, "spike[3]")
            assert worst["detail"]

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
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["input_grid"] == {"n": 1, "length": 16.0, "npts": 128}
        assert manifest["input_slices"] == 2
        assert manifest["input_time"] == 0.2

    @pytest.mark.parametrize("window,radius", [("bump", "1"), ("gaussian", "0.5")])
    def test_window_norm_default_follows_window(self, tmp_path, window, radius):
        # the default was partition, which both smooth windows refuse (exit 2)
        argv = ["norm", "--kind", "amalgam", "--window", window, "--window-radius", radius,
                "--grid-npts", "256"]
        assert invoke(argv, tmp_path / "default") == 0
        assert invoke(argv + ["--window-norm", "l2"], tmp_path / "l2") == 0
        assert ((tmp_path / "default" / "results.csv").read_text()
                == (tmp_path / "l2" / "results.csv").read_text())
        manifest = json.loads((tmp_path / "default" / "manifest.json").read_text())
        assert manifest["params"]["window_norm"] == "l2"

    @pytest.mark.parametrize("kind", ["lebesgue", "amalgam", "hsigma"])
    def test_norm_of_huge_container_is_finite(self, tmp_path, capsys, kind):
        from amalgam.grid import write_container
        g = GridSpec(1, 4.0, 64)
        path = tmp_path / "big.bin"
        write_container(path, g, [0.0], [np.full((1, 64), 1e300 + 0j)])
        capsys.readouterr()
        assert invoke(["norm", "--kind", kind, "--input", str(path)], tmp_path) == 0
        out, err = capsys.readouterr()
        assert err == ""
        # 1e300 over a box of measure 8: 1e300 * sqrt(8) in L^2, in W(L^2, L^2)
        # on unit cubes and in H^0 (the defaults p = q = 2, sigma = 0)
        assert float(out.split(":")[1]) == pytest.approx(1e300 * 8 ** 0.5, rel=1e-11)

    @pytest.mark.parametrize("args", [["--kind", "lebesgue", "--p", "2"],
                                      ["--kind", "amalgam", "--p", "2", "--q", "2"]])
    def test_norm_past_float64_range_is_usage_error(self, tmp_path, capsys, args):
        # finite samples of modulus 1e308 whose norm, 1e308 * sqrt(8), is not finite
        from amalgam.grid import write_container
        g = GridSpec(1, 4.0, 64)
        path = tmp_path / "big.bin"
        write_container(path, g, [0.0], [np.full((1, 64), 1e308 + 0j)])
        capsys.readouterr()
        assert invoke(["norm", *args, "--input", str(path)], tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("usage error:")
        assert "float64 range" in err and "warning:" not in err

    @pytest.mark.parametrize("args", [["norm", "--kind", "hsigma", "--sigma", "0.3"],
                                      ["ratio", "--sigma", "0.3", "--qt", "2", "--rt", "inf",
                                       "--q", "10", "--r", "inf"]])
    def test_huge_datum_is_homogeneous(self, tmp_path, capsys, args):
        # samples of modulus 1e307, whose bare forward transform would overflow: the
        # spectrum is the Fourier coefficients, so every norm is 1e307 times the unit
        # datum's and the ratio is the unit datum's, bit for bit
        from amalgam.grid import write_container
        from amalgam.verify import modulated_gaussian
        g = GridSpec(1, 16.0, 1024)
        rows = {}
        for scale in (1.0, 1e307):
            path = tmp_path / f"{scale:g}.bin"
            write_container(path, g, [0.0], [scale * modulated_gaussian(g, mode=40).values[None]])
            assert invoke(args + ["--input", str(path)], tmp_path / f"{scale:g}") == 0
            with open(tmp_path / f"{scale:g}" / "results.csv") as fh:
                (rows[scale],) = csv.DictReader(fh)
        assert capsys.readouterr().err == ""
        unit, huge = ({k: float(v) for k, v in rows[s].items() if k != "space"}
                      for s in (1.0, 1e307))
        if "ratio" in unit:
            assert huge.pop("ratio") == unit.pop("ratio")
        assert huge == {k: 1e307 * v for k, v in unit.items()}

    @pytest.mark.parametrize("args", [["norm", "--kind", "hsigma", "--sigma", "0.3"],
                                      ["evolve", "--sigma", "0.3"]])
    def test_zero_mode_share_of_a_huge_datum(self, tmp_path, capsys, args):
        # 1e307 times the default gaussian, whose plain sum overflows: the one warning is
        # the zero-mode share's, and the share recorded is the unit datum's, 1.11e-01
        from amalgam.grid import write_container
        from amalgam.verify import gaussian_datum
        g = GridSpec(1, 16.0, 1024)
        path = tmp_path / "huge.bin"
        write_container(path, g, [0.0], [1e307 * gaussian_datum(g).values[None]])
        assert invoke(args + ["--input", str(path)], tmp_path / "out") == 0
        err = capsys.readouterr().err
        assert err == ("warning: zero-mode mass fraction 1.11e-01 >= 1e-10; the smoothing "
                       "weight drops it, so the norm undercounts this field\n")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        if args[0] == "norm":
            assert manifest["zero_mode_fraction"] == pytest.approx(0.11077836568159476,
                                                                   rel=1e-12)

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

    def test_results_csv_quotes_commas(self, tmp_path):
        # three property names hold a comma; each row is still (property, passed)
        assert invoke(["suite", "--corpus-size", "20"], tmp_path) == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["property", "passed"] and len(rows) == 8
        assert all(len(row) == 2 and row[1] == "1" for row in rows[1:])
        assert any("," in row[0] for row in rows[1:])

    @pytest.mark.parametrize("args", [["suite", "--corpus-size", "0"],
                                      ["suite", "--corpus-size", "-3"],
                                      ["suite", "--corpus-size", "1"],
                                      ["bilinear", "--pairs", "0"]])
    def test_check_over_too_few_cases_is_usage_error(self, tmp_path, capsys, args):
        # a check with nothing to test must not print PASS
        assert invoke(args, tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("usage error:")

    def test_hls_reject_and_accept(self, tmp_path):
        assert invoke(["hls", "--p", "2", "--alpha", "0.5"], tmp_path) == 0
        assert invoke(["hls", "--p", "4/3", "--alpha", "0.5",
                       "--trials", "20"], tmp_path) == 0

    def test_hls_p_inf_is_a_rejection(self, tmp_path, capsys):
        # 1/q = 1/p + alpha - 1 = -1/2 at p = inf: a verdict, not a usage error
        assert invoke(["hls", "--p", "inf", "--alpha", "0.5"], tmp_path) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == ["reject: q = inf excluded (need q < inf)"] and err == ""
        assert (tmp_path / "results.csv").read_text().splitlines() == [
            "verdict,reason", "reject,q = inf excluded (need q < inf)"]

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

    def test_fit_decay_at_a_subnormal_tmin(self, tmp_path, capsys):
        # 1 / tmin overflows to inf at tmin = 1e-310; |K_t(0)| there is about 1e217
        assert invoke(["fit-decay", "--n", "2", "--sigma", "0.3", "--rt", "inf", "--r", "inf",
                       "--tmin", "1e-310"], tmp_path) == 0
        slopes = [line.split()[2] for line in capsys.readouterr().out.splitlines()]
        assert slopes == ["-0.7000", "-0.7000"]

    @pytest.mark.parametrize("r,route", [("inf", "closed-form"), ("10", "lattice")])
    def test_profile_records_its_route(self, tmp_path, r, route):
        base = ["--n", "1", "--sigma", "0.3", "--rt", "inf", "--r", r,
                "--grid-l", "8", "--grid-npts", "64", "--per-decade", "8"]
        for command in ("kernel-profile", "fit-decay"):
            # on this small grid, fit-decay's slopes at r = 10 miss their predictions
            assert invoke([command, *base], tmp_path / command) in (0, 1)
            manifest = json.loads((tmp_path / command / "manifest.json").read_text())
            assert manifest["route"] == route

    def test_closed_form_profile_ignores_the_grid(self, tmp_path):
        # at rt = r = inf the profile is |K_t(0)|, so the grid flags change nothing, but
        # a bad value is still a usage error
        base = ["kernel-profile", "--n", "2", "--sigma", "0.3", "--rt", "inf", "--r", "inf"]
        for name, grid in (("a", ["--grid-l", "8", "--grid-npts", "64"]),
                           ("b", ["--grid-l", "3", "--grid-npts", "1024"])):
            assert invoke([*base, *grid], tmp_path / name) == 0
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())
        assert invoke([*base, "--grid-npts", "100"], tmp_path / "c") == 2
        assert invoke([*base, "--grid-l", "0"], tmp_path / "d") == 2

    def test_fit_decay_predicts_from_the_exact_tuple(self, tmp_path):
        # -1/6 rounds to -0.16666666666666666; the float sigma's round trip through str
        # gave -0.16666666666666671
        invoke(["fit-decay", "--n", "1", "--sigma", "1/3", "--rt", "inf", "--r", "inf",
                "--grid-l", "32", "--grid-npts", "1024", "--per-decade", "8"], tmp_path)
        with open(tmp_path / "results.csv") as fh:
            predicted = [r["predicted"] for r in csv.DictReader(fh)]
        assert predicted == [repr(-1 / 6)] * 2

    @pytest.mark.parametrize("tol", ["inf", "nan", "-0.01"])
    def test_fit_decay_tolerance_must_be_finite_and_non_negative(self, tmp_path, capsys, tol):
        # inf used to pass both slopes whatever they were, and nan to fail both
        assert invoke(["fit-decay", "--n", "1", "--sigma", "0.3", "--rt", "inf", "--r", "inf",
                       "--grid-l", "8", "--grid-npts", "64", "--per-decade", "8",
                       "--tol", tol], tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("usage error:") and "--tol" in err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("command", ["kernel-profile", "fit-decay"])
    @pytest.mark.parametrize("per_decade", ["0", "-2"])
    def test_per_decade_below_one_is_usage_error(self, tmp_path, capsys, command, per_decade):
        # 0 used to give a profile of 2 instants, and -2 numpy's message
        assert invoke([command, "--n", "1", "--sigma", "0.2", "--rt", "inf", "--r", "10",
                       "--grid-l", "8", "--grid-npts", "64", "--per-decade", per_decade],
                      tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("usage error:")
        assert f"per_decade must be >= 1, got {per_decade}" in err
        assert not (tmp_path / "results.csv").exists()


_RATIO = ["ratio", "--sigma", "0.3", "--qt", "2", "--rt", "inf", "--q", "10", "--r", "inf"]


class TestStreaming:
    """evolve and --input go one grid._blocks block of slices at a time and keep every check."""

    def _container(self, tmp_path) -> Path:
        # three zero-mode-free slices of 2^16 points: one slice per block
        from amalgam.grid import _blocks, write_container
        from amalgam.verify import modulated_gaussian
        g = GridSpec(1, 16.0, 2 ** 16)
        assert len(_blocks(3, g.size)) == 3
        values = np.repeat(modulated_gaussian(g, mode=40).values[None], 3, axis=0)
        path = tmp_path / "three.bin"
        write_container(path, g, [0.0, 0.5, 1.0], [values])
        return path

    @staticmethod
    def _usage_error(args, path, out, capsys) -> str:
        """The one stderr line of a usage error that names the container."""
        capsys.readouterr()
        assert invoke(args + ["--input", str(path)], out) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.count("\n") == 1 and err.startswith("usage error:") and str(path) in err
        return err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("args", [["norm", "--kind", "lebesgue"], ["evolve"], _RATIO])
    def test_non_finite_last_slice_is_usage_error(self, tmp_path, capsys, bad, args):
        path = self._container(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-16:-8] = struct.pack("<d", bad)  # the real part of the last slice's last sample
        path.write_bytes(bytes(raw))
        assert "non-finite" in self._usage_error(args, path, tmp_path, capsys)

    @pytest.mark.parametrize("args", [["norm", "--kind", "lebesgue"], ["evolve"], _RATIO])
    def test_instants_that_do_not_increase_are_usage_error(self, tmp_path, capsys, args):
        path = self._container(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[48:56] = struct.pack("<d", 0.25)  # the instants become 0, 0.5, 0.25
        path.write_bytes(bytes(raw))
        assert "strictly increasing" in self._usage_error(args, path, tmp_path, capsys)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("args", [["norm", "--kind", "lebesgue"], ["evolve"], _RATIO])
    def test_non_finite_instant_is_usage_error(self, tmp_path, capsys, bad, args):
        path = self._container(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[48:56] = struct.pack("<d", bad)  # the instants become 0, 0.5, bad
        path.write_bytes(bytes(raw))
        assert f"finite, got {bad} at index 2" in self._usage_error(args, path, tmp_path, capsys)

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_times_flag_is_usage_error(self, tmp_path, capsys, bad):
        assert invoke(["evolve", "--save-field", "--times", f"0,0.1,{bad}"], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"finite, got {float(bad)} at index 2" in err
        assert not (tmp_path / "evolved.bin").exists()

    def test_failed_evolve_leaves_no_container(self, tmp_path, capsys):
        # the container's header is written before the first block: a failure removes it;
        # the phase t |xi|^2 at t = 1e300 is past 2^44, which fails the first block
        assert invoke(["evolve", "--save-field", "--times", "1e300"], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("usage error:") == 1 and "not below 2^44" in err
        assert not (tmp_path / "evolved.bin").exists()

    def test_failure_in_a_later_block_leaves_no_container(self, tmp_path, capsys):
        # blocks of 16 slices at 4096 points; the 21st instant, 1e308, puts the phase
        # t |xi|^2 past 2^44 and fails the second block after the first was written
        times = ",".join([f"{k / 10:g}" for k in range(20)] + ["1e308"])
        assert invoke(["evolve", "--save-field", "--grid-npts", "4096", "--times", times],
                      tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("usage error:") == 1 and "not below 2^44" in err
        assert not (tmp_path / "evolved.bin").exists()
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("sigma", ["0", "0.3"])
    @pytest.mark.parametrize("n, npts", [(1, 4096), (2, 64), (3, 16)])
    def test_streamed_evolve_is_bit_identical(self, tmp_path, n, npts, sigma):
        # T = 37 instants in blocks of 16, 16 and 5 slices, against one array of all 37
        # evolved by one batched inverse transform, and the container's bytes packed here
        from amalgam.grid import _blocks, _lq
        from amalgam.propagator import _propagate, _spectrum
        from amalgam.verify import gaussian_datum
        g = GridSpec(n, 16.0, npts)
        times = [k / 10 - 1 for k in range(37)]
        assert [len(range(37)[b]) for b in _blocks(37, g.size)] == [16, 16, 5]
        assert invoke(["evolve", "--save-field", "--grid-n", str(n), "--grid-npts", str(npts),
                       "--sigma", sigma, "--times=" + ",".join(map(repr, times))],
                      tmp_path / "cli") == 0
        values = _propagate(_spectrum(gaussian_datum(g).values, float(sigma), g), times, g)
        (tmp_path / "evolved.bin").write_bytes(
            struct.pack("<qdqq", n, 16.0, npts, 37) + np.array(times, dtype="<f8").tobytes()
            + values.astype("<c16").tobytes())
        axes = tuple(range(1, n + 1))
        a = np.abs(values)
        sup = _lq(a, np.inf, axes)
        cli.write_csv(tmp_path / "results.csv", ["t", "l2", "sup"],
                      zip(np.array(times), _lq(a, 2, axes, g.cell_volume), sup))
        for name in ("results.csv", "evolved.bin"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_memory_is_one_block_of_slices(self, tmp_path):
        # the benchmark's evolve: 64 slices of 256^2 take 67 MB as one array; holding it,
        # evolve peaked at 105 MiB of Python heap and norm --input at 76 MiB
        times = ",".join(f"{k / 10:g}" for k in range(64))
        evolve = ["evolve", "--save-field", "--gen", "band-limited", "--grid-n", "2",
                  "--times", times]
        norm = ["norm", "--kind", "hsigma", "--sigma", "0.3", "--input"]
        # a first run on a small grid does the imports, which tracemalloc would count
        assert invoke(evolve + ["--grid-npts", "8"], tmp_path / "warm") == 0
        assert invoke(norm + [str(tmp_path / "warm" / "evolved.bin")], tmp_path / "warm") == 0
        for argv in (evolve + ["--grid-npts", "256"], norm + [str(tmp_path / "evolved.bin")]):
            tracemalloc.start()
            try:
                code = invoke(argv, tmp_path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 16 * 2 ** 20, (argv[0], peak)

    def test_ratio_outer_time_below_one_is_usage_error(self, tmp_path, capsys):
        assert invoke(_RATIO + ["--grid-npts", "512", "--t-outer", "0.5"], tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("usage error:") and "t_outer" in err

    @pytest.mark.parametrize("t_outer, count", [("1e300", "1.60e+301"), ("1e8", "1.60e+9"),
                                                ("8188.125", "1.31e+5")])
    def test_ratio_instants_over_the_cap_are_usage_error(self, tmp_path, capsys, monkeypatch,
                                                          t_outer, count):
        # the count is refused before any instant or datum is built
        from amalgam import verify

        def unbuilt(*args, **kwargs):
            raise AssertionError("built before the count was checked")

        monkeypatch.setattr(verify, "default_ratio_times", unbuilt)
        monkeypatch.setattr(cli, "_field_from", unbuilt)
        assert invoke(_RATIO + ["--t-outer", t_outer], tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"usage error: --t-outer {float(t_outer):g} needs {count} instants, "
                       f"over the cap of 131072\n")

    def test_ratio_instant_cap_admits_its_own_count(self, tmp_path, capsys, monkeypatch):
        from amalgam import verify
        assert len(verify.default_ratio_times(t_outer=8188.0)) == cli.MAX_RATIO_INSTANTS

        def reached(*args, **kwargs):
            raise ValueError("reached the instants")

        monkeypatch.setattr(verify, "default_ratio_times", reached)
        assert invoke(_RATIO + ["--grid-npts", "64", "--t-outer", "8188"], tmp_path) == 2
        assert capsys.readouterr().err == "usage error: reached the instants\n"

    def test_ratio_of_zero_mode_datum_is_usage_error(self, tmp_path, capsys):
        assert invoke(["ratio", "--gen", "gaussian", "--sigma", "0.3", "--qt", "2", "--rt", "inf",
                       "--q", "10", "--r", "inf", "--grid-npts", "256"], tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("warning: zero-mode mass fraction 1.11e-01 >= 1e-10; the smoothing weight "
                       "drops it, so the norm undercounts this field\n"
                       "usage error: datum has zero-mode mass fraction 1.11e-01; "
                       "use a zero-mode-free generator\n")

    def test_ratio_refuses_at_the_warning_threshold(self, tmp_path, capsys):
        # a zero-mode share of 8.72e-10 draws the warning, so the ratio, whose denominator
        # undercounts the datum, is refused at the same threshold
        assert invoke(["ratio", "--sigma", "0.3", "--qt", "2", "--rt", "inf", "--q", "10",
                       "--r", "inf", "--mode", "22", "--t-outer", "2"], tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("warning: zero-mode mass fraction 8.72e-10 >= 1e-10; the smoothing weight "
                       "drops it, so the norm undercounts this field\n"
                       "usage error: datum has zero-mode mass fraction 8.72e-10; "
                       "use a zero-mode-free generator\n")

    def test_ratio_of_another_dimension_is_usage_error(self, tmp_path, capsys):
        # admissible at n = 1, rejected by the theorem at n = 2: generated and loaded fields
        from amalgam.grid import write_container
        from amalgam.verify import modulated_gaussian
        g = GridSpec(2, 16.0, 64)
        path = tmp_path / "n2.bin"
        write_container(path, g, [0.0], [modulated_gaussian(g, mode=20).values[None]])
        for field in (["--grid-n", "2", "--grid-npts", "64"], ["--input", str(path)]):
            assert invoke(_RATIO + ["--n", "1", "--t-outer", "2"] + field, tmp_path) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.count("\n") == 1 and "dimension n = 1 is not the field's, 2" in err

    def test_ratio_of_rejected_tuple_is_usage_error(self, tmp_path, capsys):
        # the theorem's region is checked before any datum is built
        argv = ["ratio", "--sigma", "0.3", "--qt", "10", "--rt", "inf", "--q", "10", "--r", "inf"]
        assert invoke(argv, tmp_path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("usage error: tuple outside the admissible region: "
                       "qt < q, 2/qt + (n-1)/rt > n/2 - sigma\n")
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"
        assert not (tmp_path / "results.csv").exists()

    def test_ratio_manifest_records_instants(self, tmp_path):
        from amalgam.verify import default_ratio_times
        assert invoke(_RATIO + ["--grid-npts", "512", "--t-outer", "2"], tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["t_span"] == [-2.0, 2.0]
        assert manifest["ntimes"] == len(default_ratio_times(t_outer=2.0))


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
print(json.dumps(sorted(m for m in json.loads(sys.argv[3]) if m in sys.modules)))
"""


def _modules_after(commands, out,
                   names=("numpy", "numpy.ma", "numpy.random", "scipy", "scipy.special")) -> list:
    """Which of names (by default numpy, numpy.ma, numpy.random, scipy, scipy.special) a
    fresh interpreter holds after running commands."""
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(commands), str(out),
                           json.dumps(names)], capture_output=True, text=True, env=_SRC_ENV)
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

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["check-tuple", "--set", "theorem", "--n", "1", "--sigma", "0.3", "--qt", "2",
         "--rt", "inf", "--q", "10", "--r", "inf"],
        ["region", "--set", "theorem", "--n", "1", "--sigma", "0.3", "--fixed", "rt=inf",
         "--free", "qt,q", "--resolution", "8"],
    ], ids=["help", "check-tuple", "region"])
    def test_verdict_commands_skip_dataclasses(self, tmp_path, argv):
        # the exponent engine's records are namedtuples and one plain class, so these
        # commands import neither dataclasses nor inspect (numpy imports both)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "amalgam.cli", *argv],
                              capture_output=True, text=True,
                              env=dict(_SRC_ENV, AMALGAM_OUT=str(tmp_path)))
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "amalgam.exponents" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    def test_field_commands_skip_scipy(self, tmp_path):
        assert _modules_after([
            ["norm", "--kind", "amalgam", "--grid-npts", "64"],
            ["evolve", "--grid-npts", "64", "--times", "0.1,0.2"],
            ["ratio", "--n", "1", "--sigma", "0.3", "--qt", "2", "--rt", "inf",
             "--q", "10", "--r", "inf", "--grid-npts", "128", "--t-outer", "2"],
            ["bilinear", "--grid-npts", "16", "--ntimes", "3", "--pairs", "1"],
            ["suite", "--corpus-size", "4"],
        ], tmp_path) == ["numpy"]

    def test_seeded_commands_skip_numpy_random(self, tmp_path):
        # seeded data come from the standard library's generator
        assert _modules_after([
            ["evolve", "--gen", "band-limited", "--grid-npts", "64", "--times", "0.1,0.2"],
            ["norm", "--kind", "lebesgue", "--gen", "spike", "--grid-npts", "64"],
            ["bilinear", "--grid-npts", "16", "--ntimes", "3", "--pairs", "1"],
            ["suite", "--corpus-size", "4"],
            ["hls", "--p", "4/3", "--alpha", "0.5", "--trials", "2"],
        ], tmp_path) == ["numpy"]

    def test_hls_skips_scipy(self, tmp_path):
        assert _modules_after([
            ["hls", "--p", "4/3", "--alpha", "0.5", "--trials", "2"],
        ], tmp_path) == ["numpy"]

    def test_hls_skips_numpy_fft(self, tmp_path):
        # each trial is a direct sum over its bump's support
        assert _modules_after([
            ["hls", "--p", "4/3", "--alpha", "0.5", "--trials", "2"],
        ], tmp_path, ("numpy", "numpy.fft")) == ["numpy"]

    def test_kernel_commands_skip_scipy(self, tmp_path):
        assert _modules_after([
            ["kernel-profile", "--n", "1", "--sigma", "0.2", "--rt", "inf", "--r", "10",
             "--grid-l", "8", "--grid-npts", "64", "--per-decade", "2"],
            ["fit-decay", "--n", "1", "--sigma", "0.3", "--rt", "inf", "--r", "inf",
             "--grid-l", "8", "--grid-npts", "64", "--per-decade", "8"],
        ], tmp_path) == ["numpy"]

    @pytest.mark.parametrize("argv", [
        ["kernel-profile", "--n", "1", "--sigma", "0.2", "--rt", "inf", "--r", "10"],
        ["fit-decay", "--n", "2", "--sigma", "0.3", "--rt", "4", "--r", "inf", "--grid-l", "16",
         "--grid-npts", "64"],
    ], ids=["kernel-profile", "fit-decay"])
    def test_kernel_commands_call_no_lapack(self, tmp_path, argv):
        # the Gauss-Laguerre rule comes from its recurrence: with numpy's LAPACK entry points
        # raising, the kernel's quadrature still runs (this fit-decay misses its slopes, exit 1)
        code = ("import sys, numpy.linalg\n"
                "def refuse(*args, **kwargs):\n"
                "    raise RuntimeError('LAPACK called')\n"
                "for name in ('eigh', 'eigvalsh', 'eig', 'solve', 'lstsq', 'inv'):\n"
                "    setattr(numpy.linalg, name, refuse)\n"
                "from amalgam.cli import run\n"
                "sys.exit(run(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path)],
                              capture_output=True, text=True, env=_SRC_ENV)
        assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr, proc.stderr
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "complete" and manifest["route"] == "lattice"

    @pytest.mark.parametrize("argv", [
        ["ratio", "--n", "1", "--sigma", "0.3", "--qt", "2", "--rt", "inf", "--q", "10",
         "--r", "inf", "--grid-npts", "128"],
        ["kernel-profile", "--n", "1", "--sigma", "0.2", "--rt", "inf", "--r", "10",
         "--grid-l", "8", "--grid-npts", "64", "--per-decade", "8"],
        ["hls", "--p", "4/3", "--alpha", "0.5", "--trials", "4"],
    ], ids=["ratio", "kernel-profile", "hls"])
    def test_commands_skip_numpy_ma(self, tmp_path, argv):
        # instant lists are built increasing and medians read sorted data, so nothing calls
        # np.unique without indices or np.median, which import numpy.ma
        assert _modules_after([argv], tmp_path) == ["numpy"]

    def test_numeric_layers_skip_exponents(self):
        # exact exponent arithmetic stays in the engine and the command line
        code = ("import sys, amalgam.propagator; "
                "assert {'amalgam.grid', 'amalgam.wiener'} <= set(sys.modules); "
                "assert 'amalgam.exponents' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_SRC_ENV)
        assert proc.returncode == 0, proc.stderr

    def test_package_import_loads_no_layer(self):
        code = ("import sys, amalgam; assert 'numpy' not in sys.modules; "
                "assert not [m for m in sys.modules if m.startswith('amalgam.')]")
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
    # a torus side of 2e-12 rounds to 0 unit cubes, and once made a 4e12-sample window
    @example(n=1, kind="amalgam", cut=None, tail=b"", patch=[], length=1e-12)
    def test_corrupted_container(self, n, kind, cut, tail, patch, length, unpack_container):
        # two zero-mean slices on 8^n points; the header (n, L, N, slices) is 32
        # bytes and the two instants fill bytes 32..47
        from amalgam.grid import read_container, write_container
        g = GridSpec(n, 2.0, 8)
        values = np.cos(np.arange(2 * g.size)).reshape((2,) + g.shape) * (0.5 - 0.25j)
        values -= values.mean(axis=tuple(range(1, n + 1)), keepdims=True)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "field.bin"
            write_container(path, g, [0.0, 0.5], [values])
            grid, times, unpacked = unpack_container(path)
            assert grid == g and times.tolist() == [0.0, 0.5]
            assert np.array_equal(unpacked, values)
            raw = bytearray(path.read_bytes())
            if length is not None:
                raw[8:16] = struct.pack("<d", length)
            for pos, byte in patch:
                raw[pos] = byte
            path.write_bytes(bytes(raw[:cut]) + tail)
            try:
                grid, times, first = read_container(path)
            except ValueError as exc:
                assert path.name in str(exc)
            else:
                # what the reader accepts, the format's layout reads the same
                want = unpack_container(path)
                assert grid == want[0] and np.array_equal(times, want[1])
                assert np.array_equal(first, want[2][0])
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
