"""Command-line front end: every operation as a manifest-logged command.

Exit codes: 0 success (a reject verdict is still a success), 1 when an
asserted invariant fails, 2 on usage errors.  Every flag is typed: its
value is parsed once, and a value it cannot take is a usage error that
names the flag.  The token ``inf`` denotes infinity in every exponent
flag; exponents parse as exact rationals (``10``, ``10/3``, ``0.3``).  A
config file of ``key = value`` lines may supply any flag (``key = true``
sets a flag that takes no value); explicit command-line flags override it.
The output directory comes from --out, else $AMALGAM_OUT, else
./amalgam-out.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import exponents as expo
from .extreal import as_extended, fmt, to_float

USAGE_ERROR = 2
CHECK_FAILED = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# flag types
# ---------------------------------------------------------------------------

def _exponent(text: str):
    """An exact rational, or inf."""
    try:
        return as_extended(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _axis(name: str) -> str:
    name = name.strip()
    if name not in expo.AXES:
        raise argparse.ArgumentTypeError(
            f"{name!r} is not an exponent name; choose from {', '.join(expo.AXES)}")
    return name


def _axes(text: str) -> list:
    return [_axis(s) for s in text.split(",") if s.strip()]


def _fixed(text: str) -> dict:
    fixed = {}
    for item in text.split(",") if text else ():
        name, eq, val = item.partition("=")
        if not eq:
            raise argparse.ArgumentTypeError(f"takes name=value items, got {item!r}")
        fixed[_axis(name)] = _exponent(val)
    return fixed


def _times(text: str) -> list:
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of instants, got {text!r}") from None


# One type per flag name: a --config file is parsed by every subcommand.
_TYPES = {
    **dict.fromkeys(("seed", "n", "resolution", "grid-n", "grid-npts", "mode", "per-decade",
                     "corpus-size", "trials", "ntimes", "pairs"), int),
    **dict.fromkeys(("grid-l", "width", "window-radius", "window-step", "tmin", "tmax",
                     "tol", "t-outer"), float),
    **dict.fromkeys(("sigma", "qt", "rt", "q", "r", "p", "alpha"), _exponent),
    "free": _axes, "fixed": _fixed, "times": _times,
}
_HELP = {"free": "comma list, e.g. qt,q", "fixed": "comma list name=value",
         "times": "comma list of instants"}


def _flags(sp, **defaults) -> None:
    """A typed --flag per keyword (``_`` becomes ``-``); a text default parses as a value."""
    for key, default in defaults.items():
        name = key.replace("_", "-")
        sp.add_argument(f"--{name}", type=_TYPES[name], default=default, help=_HELP.get(name))


def _build_parser() -> tuple:
    """(the parser, its subcommand parsers by name)."""
    p = _Parser(prog="amalgam", description=__doc__, allow_abbrev=False,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="key = value file supplying default flags")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_):
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        sp.add_argument("--out", help="output directory (default $AMALGAM_OUT or ./amalgam-out)")
        _flags(sp, seed="0")
        return sp

    sp = add("check-tuple", "run an admissibility predicate on one tuple")
    sp.add_argument("--set", dest="condition_set", choices=expo.CONDITION_SETS)
    _flags(sp, n=None, sigma="0", qt="2", rt="2", q="2", r="2")

    sp = add("region", "scan an admissibility region in reciprocal coordinates")
    sp.add_argument("--set", dest="condition_set", choices=expo.CONDITION_SETS)
    _flags(sp, n=None, sigma="0", free=None, fixed="", resolution="64")

    sp = add("norm", "compute a norm of a generated or loaded field")
    sp.add_argument("--kind", choices=["lebesgue", "hsigma", "amalgam"])
    _field_flags(sp)
    _flags(sp, p="2", q="2", sigma="0", window_radius="0.5", window_step="1")
    sp.add_argument("--window", default="cube", choices=["cube", "gaussian", "bump"])
    sp.add_argument("--window-norm", default="partition", choices=["l2", "partition"])

    sp = add("evolve", "free evolution of a datum over a time list")
    _field_flags(sp)
    _flags(sp, sigma="0", times="0.5")
    sp.add_argument("--save-field", action="store_true",
                    help="also write the evolved slices as a binary container")

    for name, help_ in (("kernel-profile", "windowed kernel norm h(t) over log-spaced times"),
                        ("fit-decay", "kernel profile plus two-regime slope fit")):
        sp = add(name, help_)
        _flags(sp, n="1", sigma=None, rt=None, r=None, grid_l="64", grid_npts="4096",
               tmin="0.02", tmax="50", per_decade="24")
    _flags(sp, tol="0.05")  # fit-decay's

    sp = add("ratio", "space-time amalgam norm over data norm for one tuple")
    _field_flags(sp)
    sp.set_defaults(gen="modulated")  # ratio needs zero-mode-free data
    _flags(sp, n="1", sigma=None, qt=None, rt=None, q=None, r=None, t_outer="32")
    sp.add_argument("--weak", action="store_true")

    sp = add("suite", "lattice identity / inequality property suite")
    _flags(sp, corpus_size="100")

    sp = add("hls", "1-D fractional-integration ratio check")
    _flags(sp, p=None, alpha=None, trials="200")

    sp = add("bilinear", "double-integral vs factorized bilinear form")
    _flags(sp, grid_n="1", grid_l="8", grid_npts="64", sigma="0.3", ntimes="9", pairs="10")
    return p, sub.choices


def _field_flags(sp):
    sp.add_argument("--input", help="binary field container to load")
    sp.add_argument("--gen", default="gaussian",
                    choices=["gaussian", "modulated", "band-limited", "spike"])
    _flags(sp, width="1", mode="40", grid_n="1", grid_l="16", grid_npts="1024")


def _load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"config file {path}: line without '=': {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key.replace("_", "-")] = val
    return out


def _parse(argv) -> argparse.Namespace:
    """Parse argv over the defaults that a --config file (anywhere in argv) supplies.

    Each subcommand parses the config entries it knows as flags, so its own
    types and choices check them; the results become its defaults, which
    explicit flags override.
    """
    parser, commands = _build_parser()
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config:
        tokens = [f"--{key}" if val == "true" else f"--{key}={val}"
                  for key, val in _load_config(known.config).items()]
        for sp in commands.values():
            try:
                sp.set_defaults(**vars(sp.parse_known_args(tokens)[0]))
            except _UsageError as exc:
                raise _UsageError(f"config file {known.config}: {exc}") from None
    args = parser.parse_args(rest)
    for name in _REQUIRED.get(args.command, ()):
        if getattr(args, name, None) is None:
            flag = "--set" if name == "condition_set" else f"--{name.replace('_', '-')}"
            raise _UsageError(f"{flag} is required for {args.command}")
    return args


def _outdir(args) -> Path:
    out = args.out or os.environ.get("AMALGAM_OUT") or "amalgam-out"
    return Path(out)


def _window_from(args):
    from .wiener import WindowSpec
    kind = {"cube": "cube-indicator", "gaussian": "gaussian", "bump": "smooth-bump"}[args.window]
    return WindowSpec(kind=kind, radius=args.window_radius, step=args.window_step,
                      normalization=args.window_norm)


def _field_from(args) -> tuple:
    """(datum, source fields for report.json).

    A container's first slice is the datum; the source fields name its slice
    count and instant, and a container of several slices draws a warning.
    """
    from . import verify
    from .grid import GridSpec, SampledField, read_spacetime
    if args.input:
        stf = read_spacetime(args.input)
        slices, t0 = len(stf.times), float(stf.times[0])
        if slices > 1:
            warnings.warn(f"{args.input} holds {slices} slices; using the first, t = {t0:g}")
        return SampledField(stf.grid, stf.values[0]), {"input_slices": slices, "input_time": t0}
    grid = GridSpec(args.grid_n, args.grid_l, args.grid_npts)
    if args.gen == "gaussian":
        return verify.gaussian_datum(grid, width=args.width), {}
    if args.gen == "modulated":
        return verify.modulated_gaussian(grid, width=args.width, mode=args.mode), {}
    if args.gen == "band-limited":
        return verify.band_limited_field(grid, args.seed), {}
    return verify.spike_field(grid, args.seed), {}


def _tuple_from(args) -> expo.ExponentTuple:
    return expo.ExponentTuple(args.n, args.sigma, args.qt, args.rt, args.q, args.r)


# ---------------------------------------------------------------------------
# command handlers: each writes its outputs into outdir and returns
# (exit code, extra manifest fields)
# ---------------------------------------------------------------------------

def _cmd_check_tuple(args, outdir):
    if args.condition_set == "classical":
        rep = expo.is_schrodinger_admissible(args.q, args.r, args.n)
    elif args.condition_set == "proposition":
        rep = expo.satisfies_prop_kernel(args.n, args.sigma, args.rt, args.r)
    else:
        rep = expo.predicate_for(args.condition_set)(_tuple_from(args))
    (outdir / "report.json").write_text(json.dumps(rep.to_json_dict(), indent=2) + "\n")
    rows = [(c.name, int(c.passed), "" if c.slack is None else fmt(c.slack))
            for c in rep.constraints]
    write_csv(outdir / "results.csv", ["constraint", "passed", "slack"], rows)
    print(f"{args.condition_set}: {'accept' if rep.verdict else 'reject'}")
    for c in rep.constraints:
        mark = "ok " if c.passed else "VIOLATED"
        print(f"  [{mark}] {c.name}" + ("" if c.slack is None else f"  (slack {fmt(c.slack)})"))
    return 0, {"verdict": rep.verdict}


def _cmd_region(args, outdir):
    res = args.resolution
    scan = expo.sample_region(args.condition_set, n=args.n, sigma=args.sigma,
                              free=args.free, fixed=args.fixed, resolution=res)
    labels = [fmt(Fraction(k, res)) for k in range(res + 1)]
    edge = set(scan.edge)
    cells = map(",".join, itertools.product(labels, repeat=len(scan.axes)))
    lines = [",".join([f"recip_{a}" for a in scan.axes] + ["accept", "boundary"])]
    lines += [f"{cell},{int(verdict)},{int(k in edge)}"
              for k, (cell, verdict) in enumerate(zip(cells, scan.verdicts))]
    (outdir / "mesh.csv").write_text("\n".join(lines) + "\n")
    accepted = sum(scan.verdicts)
    print(f"{args.condition_set}: {accepted}/{len(scan.verdicts)} accepted, "
          f"{len(edge)} boundary cells -> {outdir / 'mesh.csv'}")
    return 0, {"accepted": int(accepted)}


def _cmd_norm(args, outdir):
    from .grid import lebesgue_norm
    from .propagator import hsigma_norm
    from .wiener import amalgam_norm
    fld, source = _field_from(args)
    if args.kind == "lebesgue":
        res = lebesgue_norm(fld, args.p)
    elif args.kind == "hsigma":
        res = hsigma_norm(fld, to_float(args.sigma))
    else:
        res = amalgam_norm(fld, args.p, args.q, _window_from(args))
    report = {**res.to_json_dict(), **source}
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    write_csv(outdir / "results.csv", ["space", "value"], [(res.space, res.value)])
    print(f"{res.space}: {res.value:.12g}")
    return 0, {}


def _cmd_evolve(args, outdir):
    import numpy as np

    from .grid import _lq, write_spacetime
    from .propagator import evolve_series
    fld, _ = _field_from(args)
    stf = evolve_series(fld, np.array(args.times), to_float(args.sigma))
    axes = tuple(range(1, stf.grid.n + 1))
    write_csv(outdir / "results.csv", ["t", "l2", "sup"],
              zip(stf.times, _lq(np.abs(stf.values), 2, axes, stf.grid.cell_volume),
                  _lq(np.abs(stf.values), np.inf, axes)))
    if args.save_field:
        write_spacetime(stf, outdir / "evolved.bin")
    print(f"evolved {len(args.times)} slice(s) -> {outdir / 'results.csv'}")
    return 0, {}


def _profile_from(args):
    """The kernel's decay profile, and its health fields for the manifest."""
    from .grid import GridSpec
    from .propagator import kernel_amalgam_profile, profile_times
    from .wiener import unit_cube_partition
    grid = GridSpec(args.n, args.grid_l, args.grid_npts)
    times = profile_times(args.tmin, args.tmax, args.per_decade)
    prof = kernel_amalgam_profile(args.n, to_float(args.sigma), args.rt, args.r,
                                  unit_cube_partition(), times, grid)
    return prof, {"max_est_error": float(prof.est_error.max())}


def _cmd_kernel_profile(args, outdir):
    prof, health = _profile_from(args)
    write_csv(outdir / "results.csv", ["t", "value", "est_error"],
              list(zip(prof.times, prof.values, prof.est_error)))
    (outdir / "profile.json").write_text(json.dumps(
        {"meta": prof.meta, "times": list(prof.times), "values": list(prof.values),
         "est_error": list(prof.est_error)}, indent=2, default=float) + "\n")
    print(f"profile over {len(prof.times)} instants -> {outdir / 'results.csv'}")
    return 0, health


def _cmd_fit_decay(args, outdir):
    from .verify import fit_decay
    prof, health = _profile_from(args)
    small, large = fit_decay(prof)
    write_csv(outdir / "results.csv",
              ["regime", "slope", "predicted", "abs_error", "r_squared"],
              [(f.regime, f.slope, f.predicted, f.abs_error, f.r_squared)
               for f in (small, large)])
    ok = True
    for f in (small, large):
        status = "ok" if (f.abs_error is not None and f.abs_error <= args.tol) else "FAIL"
        ok = ok and status == "ok"
        print(f"{f.regime}-time: slope {f.slope:+.4f}  predicted "
              f"{f.predicted:+.4f}  |err| {f.abs_error:.4f}  [{status}]")
    return (0 if ok else CHECK_FAILED), {
        "within_tolerance": ok, **health,
        "r_squared": {f.regime: f.r_squared for f in (small, large)}}


def _cmd_ratio(args, outdir):
    from .verify import default_ratio_times, strichartz_ratio
    from .wiener import unit_cube_partition
    tup = _tuple_from(args)
    fld, _ = _field_from(args)
    times = default_ratio_times(t_outer=args.t_outer)
    res = strichartz_ratio(fld, tup, unit_cube_partition(),
                           unit_cube_partition(), times=times, weak=args.weak)
    write_csv(outdir / "results.csv", ["ratio", "numerator", "denominator"],
              [(res.value, res.numerator, res.denominator)])
    print(f"ratio = {res.value:.6g}  (numerator {res.numerator:.6g}, "
          f"denominator {res.denominator:.6g})")
    return 0, {"ratio": res.value}


def _cmd_suite(args, outdir):
    from .verify import property_suite
    rep = property_suite(seed=args.seed, corpus_size=args.corpus_size)
    write_csv(outdir / "results.csv", ["property", "passed"],
              [(r.name, int(r.passed)) for r in rep.results])
    print(rep.summary())
    return (0 if rep.passed else CHECK_FAILED), {"passed": rep.passed}


def _cmd_hls(args, outdir):
    import numpy as np

    from .verify import hls_check_1d
    rep = hls_check_1d(args.p, args.alpha, trials=args.trials, seed=args.seed)
    if not rep.accepted:
        print(f"reject: {rep.reason}")
        write_csv(outdir / "results.csv", ["verdict", "reason"], [("reject", rep.reason)])
        return 0, {"verdict": "reject"}
    write_csv(outdir / "results.csv", ["max_ratio", "median_ratio", "refined_max"],
              [(rep.max_ratio, float(np.median(rep.ratios)), rep.refined_max)])
    stable = rep.refinement_stable
    print(f"q = {fmt(rep.q)}; max ratio {rep.max_ratio:.6g}, refined {rep.refined_max:.6g}, "
          f"stable within x1.5: {stable}")
    return (0 if stable else CHECK_FAILED), {"stable": stable}


def _cmd_bilinear(args, outdir):
    import numpy as np

    from .grid import GridSpec
    from .verify import bilinear_form, factorized_bilinear_form
    grid = GridSpec(args.grid_n, args.grid_l, args.grid_npts)
    times = np.linspace(-1.0, 1.0, args.ntimes)
    sigma = to_float(args.sigma)
    worst = 0.0
    rows = []
    for k in range(args.pairs):
        F = _random_stf(grid, times, args.seed + 2 * k)
        G = _random_stf(grid, times, args.seed + 2 * k + 1)
        direct = bilinear_form(F, G, sigma)
        fact = factorized_bilinear_form(F, G, sigma)
        rel = abs(direct - fact) / max(abs(direct), 1e-300)
        worst = max(worst, rel)
        rows.append((k, direct.real, direct.imag, rel))
    write_csv(outdir / "results.csv", ["pair", "re", "im", "rel_diff"], rows)
    ok = worst <= 1e-8
    print(f"max relative difference over {args.pairs} pairs: {worst:.3e}  "
          f"[{'ok' if ok else 'FAIL'}]")
    return (0 if ok else CHECK_FAILED), {"max_rel_diff": worst}


def _random_stf(grid, times, seed):
    import numpy as np

    from .grid import SpaceTimeField
    from .verify import band_limited_field
    return SpaceTimeField(grid, times, np.array(
        [band_limited_field(grid, seed * 1000 + i).values for i in range(len(times))]))


# ---------------------------------------------------------------------------
# run manifests / CSV output
# ---------------------------------------------------------------------------

def _fmt_float(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _plain(v):
    """v for JSON: exact exponents and non-finite floats as text (``10/3``, ``inf``)."""
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, Fraction) or (isinstance(v, float) and not math.isfinite(v)):
        return str(v)
    return v


def _write_manifest(outdir: Path, manifest: dict) -> None:
    text = json.dumps(_plain(manifest), indent=2, sort_keys=True, default=str)
    (outdir / "manifest.json").write_text(text + "\n")


_REQUIRED = {
    "check-tuple": ("condition_set", "n"),
    "region": ("condition_set", "n", "free"),
    "norm": ("kind",),
    "kernel-profile": ("sigma", "rt", "r"),
    "fit-decay": ("sigma", "rt", "r"),
    "ratio": ("sigma", "qt", "rt", "q", "r"),
    "hls": ("p", "alpha"),
}


_HANDLERS = {
    "check-tuple": _cmd_check_tuple,
    "region": _cmd_region,
    "norm": _cmd_norm,
    "evolve": _cmd_evolve,
    "kernel-profile": _cmd_kernel_profile,
    "fit-decay": _cmd_fit_decay,
    "ratio": _cmd_ratio,
    "suite": _cmd_suite,
    "hls": _cmd_hls,
    "bilinear": _cmd_bilinear,
}


def run(argv) -> int:
    """Run one command; its manifest is written before the handler and again after it.

    A handler that raises leaves the manifest ``failed`` with the error; a
    ValueError or OSError (bad input) is a one-line usage error.  Every
    distinct warning raised is listed in the manifest and echoed as one
    ``warning:`` line on stderr.
    """
    try:
        args = _parse(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    outdir = _outdir(args)
    params = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    manifest = {"command": args.command, "params": params, "seed": args.seed,
                "status": "incomplete", "tool_version": __version__, "wall_time_s": None}
    started = time.time()
    written, error = False, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            _write_manifest(outdir, manifest)
            written = True
            code, extra = _HANDLERS[args.command](args, outdir)
            manifest.update(extra, status="complete")
        except Exception as exc:
            error = exc
            manifest.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    notes = list(dict.fromkeys(" ".join(str(w.message).split()) for w in caught))
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    manifest.update(warnings=notes, wall_time_s=round(time.time() - started, 3))
    if written:
        _write_manifest(outdir, manifest)
    if error is None:
        return code
    if not isinstance(error, (ValueError, OSError)):
        raise error
    print(f"usage error: {error}", file=sys.stderr)
    return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
