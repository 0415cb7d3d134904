"""Command-line front end: every operation as a manifest-logged command.

Exit codes: 0 success (a reject verdict is still a success), 1 when an
asserted invariant fails, 2 on usage errors.  Every flag is typed: its
value is parsed once, and a value it cannot take is a usage error that
names the flag.  The token ``inf`` denotes infinity in every exponent
flag; exponents parse as exact rationals (``10``, ``10/3``, ``0.3``).  The
orders --sigma and --alpha are finite exact rationals.  A flag with no
default is required, except --out, --input and --window-norm, which follows
--window (partition for cube, l2 for gaussian and bump).  The output
directory comes from --out, else $AMALGAM_OUT, else ./amalgam-out.  Every
JSON file written is standard JSON, with exponents and non-finite floats as
text.
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
from .exponents import as_extended, as_rational, fmt

USAGE_ERROR = 2
CHECK_FAILED = 1
MAX_RATIO_INSTANTS = 2 ** 17  # ratio's --t-outer up to 8188; README's largest, 4000, needs 64 064


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


def _order(text: str) -> Fraction:
    """An exact rational; an order, unlike an exponent, is never inf."""
    try:
        return as_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite(text: str) -> float:
    try:
        if math.isfinite(val := float(text)):
            return val
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


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


# One type per flag name, in every subcommand that takes the flag.
_TYPES = {
    **dict.fromkeys(("seed", "n", "resolution", "grid-n", "grid-npts", "mode", "per-decade",
                     "corpus-size", "trials", "ntimes", "pairs"), int),
    **dict.fromkeys(("grid-l", "width", "window-radius", "window-step", "tmin", "tmax",
                     "tol", "t-outer"), _finite),
    **dict.fromkeys(("qt", "rt", "q", "r", "p"), _exponent),
    "sigma": _order, "alpha": _order,
    "free": _axes, "fixed": _fixed, "times": _times,
}
_HELP = {"free": "comma list, e.g. qt,q", "fixed": "comma list name=value",
         "times": "comma list of instants"}


def _flags(sp, **defaults) -> None:
    """A typed --flag per keyword (``_`` becomes ``-``); a text default parses as a value,
    and a flag without one is required."""
    for key, default in defaults.items():
        name = key.replace("_", "-")
        sp.add_argument(f"--{name}", type=_TYPES[name], default=default,
                        required=default is None, help=_HELP.get(name))


def _build_parser() -> tuple:
    """(the parser, its subcommand parsers by name)."""
    p = _Parser(prog="amalgam", description=__doc__, allow_abbrev=False,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, handler):
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        sp.set_defaults(handler=handler)
        sp.add_argument("--out", help="output directory (default $AMALGAM_OUT or ./amalgam-out)")
        _flags(sp, seed="0")
        return sp

    sp = add("check-tuple", "run an admissibility predicate on one tuple", _cmd_check_tuple)
    sp.add_argument("--set", dest="condition_set", choices=expo.CONDITION_SETS, required=True)
    _flags(sp, n=None, sigma="0", qt="2", rt="2", q="2", r="2")

    sp = add("region", "scan an admissibility region in reciprocal coordinates", _cmd_region)
    sp.add_argument("--set", dest="condition_set", choices=expo.CONDITION_SETS, required=True)
    _flags(sp, n=None, sigma="0", free=None, fixed="", resolution="64")

    sp = add("norm", "compute a norm of a generated or loaded field", _cmd_norm)
    sp.add_argument("--kind", choices=["lebesgue", "hsigma", "amalgam"], required=True)
    _field_flags(sp)
    _flags(sp, p="2", q="2", sigma="0", window_radius="0.5", window_step="1")
    sp.add_argument("--window", default="cube", choices=["cube", "gaussian", "bump"])
    sp.add_argument("--window-norm", choices=["l2", "partition"],
                    help="default: partition for cube, l2 for gaussian and bump")

    sp = add("evolve", "free evolution of a datum over a time list", _cmd_evolve)
    _field_flags(sp)
    _flags(sp, sigma="0", times="0.5")
    sp.add_argument("--save-field", action="store_true",
                    help="also write the evolved slices as a binary container")

    for sp in (add("kernel-profile", "windowed kernel norm h(t) over log-spaced times",
                   _cmd_kernel_profile),
               add("fit-decay", "kernel profile plus two-regime slope fit", _cmd_fit_decay)):
        _flags(sp, n="1", sigma=None, rt=None, r=None, grid_l="64", grid_npts="4096",
               tmin="0.02", tmax="50", per_decade="24")
    _flags(sp, tol="0.05")  # fit-decay's

    sp = add("ratio", "space-time amalgam norm over data norm for one tuple", _cmd_ratio)
    _field_flags(sp)
    sp.set_defaults(gen="modulated")  # ratio needs zero-mode-free data
    _flags(sp, n="1", sigma=None, qt=None, rt=None, q=None, r=None, t_outer="32")

    sp = add("suite", "lattice identity / inequality property suite", _cmd_suite)
    _flags(sp, corpus_size="100")

    sp = add("hls", "1-D fractional-integration ratio check", _cmd_hls)
    _flags(sp, p=None, alpha=None, trials="200")

    sp = add("bilinear", "double-integral vs factorized bilinear form", _cmd_bilinear)
    _flags(sp, grid_n="1", grid_l="8", grid_npts="64", sigma="0.3", ntimes="9", pairs="10")
    return p, sub.choices


def _field_flags(sp):
    sp.add_argument("--input", help="binary field container to load")
    sp.add_argument("--gen", default="gaussian",
                    choices=["gaussian", "modulated", "band-limited", "spike"])
    _flags(sp, width="1", mode="40", grid_n="1", grid_l="16", grid_npts="1024")


def _parse(argv) -> argparse.Namespace:
    """argv's flags; --window-norm, when not given, follows --window."""
    args = _build_parser()[0].parse_args(argv)
    if args.command == "norm" and args.window_norm is None:  # partition needs cube indicators
        args.window_norm = "partition" if args.window == "cube" else "l2"
    return args


def _window_from(args):
    from .wiener import WindowSpec
    kind = {"cube": "cube-indicator", "gaussian": "gaussian", "bump": "smooth-bump"}[args.window]
    return WindowSpec(kind=kind, radius=args.window_radius, step=args.window_step,
                      normalization=args.window_norm)


def _field_from(args) -> tuple:
    """(datum, source fields for the manifest).

    A container's first slice is the datum; the source fields name its grid, slice
    count and instant, and a container of several slices draws a warning.
    """
    from . import verify
    from .grid import GridSpec, SampledField, read_container
    if args.input:
        grid, times, first = read_container(args.input)
        slices, t0 = len(times), float(times[0])
        if slices > 1:
            warnings.warn(f"{args.input} holds {slices} slices; using the first, t = {t0:g}")
        return SampledField(grid, first), {"input_grid": vars(grid), "input_slices": slices,
                                           "input_time": t0}
    grid = GridSpec(args.grid_n, args.grid_l, args.grid_npts)
    if args.gen == "gaussian":
        return verify.gaussian_datum(grid, width=args.width), {}
    if args.gen == "modulated":
        return verify.modulated_gaussian(grid, width=args.width, mode=args.mode), {}
    if args.gen == "band-limited":
        return verify.band_limited_field(grid, args.seed), {}
    return verify.spike_field(grid, args.seed), {}


def _float(args, name: str) -> float:
    """The exact value of --name as a float; beyond the float64 range it is a ValueError
    that names the flag, and suggests inf only to a flag that takes it."""
    try:
        return float(getattr(args, name))
    except OverflowError:
        hint = "; use inf" if _TYPES[name] is _exponent else ""
        raise ValueError(f"argument --{name}: beyond the float64 range{hint}") from None


def _tuple_from(args) -> expo.ExponentTuple:
    return expo.ExponentTuple(args.n, args.sigma, args.qt, args.rt, args.q, args.r)


# ---------------------------------------------------------------------------
# command handlers: each writes its outputs into outdir and returns
# (exit code, extra manifest fields)
# ---------------------------------------------------------------------------

def _approx(x) -> float:
    """float(x); an exact value beyond the float64 range is +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _cmd_check_tuple(args, outdir):
    rep = expo.check(args.condition_set, _tuple_from(args))
    verdict = "accept" if rep.verdict else "reject"
    _write_json(outdir / "report.json", {
        "label": rep.label, "verdict": verdict, "case": rep.case,
        "constraints": [{"name": c.name, "passed": c.passed, "slack": c.slack,
                         "slack_float": _approx(c.slack)} for c in rep.constraints]})
    print(f"{args.condition_set}: {verdict}")
    for c in rep.constraints:
        mark = "ok " if c.passed else "VIOLATED"
        print(f"  [{mark}] {c.name}  (slack {fmt(c.slack)})")
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
        res = lebesgue_norm(fld, _float(args, "p"))
    elif args.kind == "hsigma":
        res = hsigma_norm(fld, _float(args, "sigma"))
    else:
        res = amalgam_norm(fld, _float(args, "p"), _float(args, "q"), _window_from(args))
    write_csv(outdir / "results.csv", ["space", "value"], [(res.space, res.value)])
    print(f"{res.space}: {res.value:.12g}")
    health = {k: res.meta[k] for k in ("zero_mode_fraction", "window_blocks") if k in res.meta}
    return 0, {**health, **source}


def _cmd_evolve(args, outdir):
    """evolve_blocks, one block at a time: each block is reduced to its l2 and sup
    rows and appended to the container."""
    import numpy as np

    from .grid import _lq, write_container
    from .propagator import evolve_blocks
    sigma = _float(args, "sigma")
    fld, source = _field_from(args)
    g = fld.grid
    axes = tuple(range(1, g.n + 1))
    rows = []

    def slices():
        for times, block in evolve_blocks(fld, args.times, sigma):
            a = np.abs(block)
            sup = _lq(a, np.inf, axes)  # leaves a intact; the l2 reduction then overwrites it
            rows.extend(zip(times, _lq(a, 2, axes, g.cell_volume), sup))
            yield block

    if args.save_field:
        write_container(outdir / "evolved.bin", g, args.times, slices())
    else:
        for _ in slices():
            pass
    write_csv(outdir / "results.csv", ["t", "l2", "sup"], rows)
    print(f"evolved {len(rows)} slice(s) -> {outdir / 'results.csv'}")
    return 0, source


def _profile_from(args):
    """The kernel's decay profile, and its health fields for the manifest."""
    from .grid import GridSpec
    from .propagator import kernel_amalgam_profile, profile_times
    grid = GridSpec(args.n, args.grid_l, args.grid_npts)
    times = profile_times(args.tmin, args.tmax, args.per_decade)
    prof = kernel_amalgam_profile(*(_float(args, a) for a in ("sigma", "rt", "r")), times, grid)
    return prof, {"max_est_error": float(prof.est_error.max()), "route": prof.route}


def _cmd_kernel_profile(args, outdir):
    prof, health = _profile_from(args)
    write_csv(outdir / "results.csv", ["t", "value", "est_error"],
              list(zip(prof.times, prof.values, prof.est_error)))
    print(f"profile over {len(prof.times)} instants -> {outdir / 'results.csv'}")
    return 0, health


def _cmd_fit_decay(args, outdir):
    from .verify import fit_decay
    if args.tol < 0:
        raise ValueError(f"--tol must be >= 0, got {args.tol}")
    prof, health = _profile_from(args)
    predicted = expo.predicted_kernel_decay(args.n, args.sigma, args.rt, args.r)
    small, large = fit_decay(prof, predicted)
    write_csv(outdir / "results.csv",
              ["regime", "slope", "predicted", "abs_error", "r_squared"],
              [(f.regime, f.slope, f.predicted, f.abs_error, f.r_squared)
               for f in (small, large)])
    ok = True
    for f in (small, large):
        status = "ok" if f.abs_error <= args.tol else "FAIL"
        ok = ok and status == "ok"
        print(f"{f.regime}-time: slope {f.slope:+.4f}  predicted "
              f"{f.predicted:+.4f}  |err| {f.abs_error:.4f}  [{status}]")
    return (0 if ok else CHECK_FAILED), {
        "within_tolerance": ok, **health,
        "r_squared": {f.regime: f.r_squared for f in (small, large)}}


def _cmd_ratio(args, outdir):
    from .verify import default_ratio_times, ratio_instant_count, strichartz_ratio
    tup = _tuple_from(args)
    rep = expo.check("theorem", tup)
    if not rep.verdict:
        failed = ", ".join(c.name for c in rep.failed())
        raise ValueError(f"tuple outside the admissible region: {failed}")
    for name in expo.AXES:  # strichartz_ratio takes the exponents as floats
        _float(args, name)
    if (count := ratio_instant_count(args.t_outer)) > MAX_RATIO_INSTANTS:
        from decimal import Decimal  # formats a count beyond the float64 range
        raise ValueError(f"--t-outer {args.t_outer:g} needs {Decimal(count):.3g} instants, "
                         f"over the cap of {MAX_RATIO_INSTANTS}")
    fld, source = _field_from(args)
    times = default_ratio_times(t_outer=args.t_outer)
    res = strichartz_ratio(fld, tup, times=times)
    write_csv(outdir / "results.csv", ["ratio", "numerator", "denominator"],
              [(res.value, res.numerator, res.denominator)])
    print(f"ratio = {res.value:.6g}  (numerator {res.numerator:.6g}, "
          f"denominator {res.denominator:.6g})")
    return 0, {"ratio": res.value, "t_span": (float(times[0]), float(times[-1])),
               "ntimes": len(times), **source}


def _cmd_suite(args, outdir):
    from .verify import property_suite
    rep = property_suite(seed=args.seed, corpus_size=args.corpus_size)
    write_csv(outdir / "results.csv", ["property", "passed"],
              [(r.name, int(r.passed)) for r in rep.results])
    print(rep.summary())
    return (0 if rep.passed else CHECK_FAILED), {"passed": rep.passed, "counterexamples": {
        r.name: r.counterexample for r in rep.results if not r.passed}}


def _cmd_hls(args, outdir):
    from .verify import hls_check_1d
    rep = hls_check_1d(args.p, args.alpha, trials=args.trials, seed=args.seed)
    if not rep.accepted:
        print(f"reject: {rep.reason}")
        write_csv(outdir / "results.csv", ["verdict", "reason"], [("reject", rep.reason)])
        return 0, {"verdict": "reject"}
    r = sorted(rep.ratios)  # the median is the mean of the middle one or two
    write_csv(outdir / "results.csv", ["max_ratio", "median_ratio", "refined_max"],
              [(rep.max_ratio, (r[(len(r) - 1) // 2] + r[len(r) // 2]) / 2, rep.refined_max)])
    stable = rep.refinement_stable
    print(f"q = {fmt(rep.q)}; max ratio {rep.max_ratio:.6g}, refined {rep.refined_max:.6g}, "
          f"stable within x1.5: {stable}")
    return (0 if stable else CHECK_FAILED), {"stable": stable}


def _cmd_bilinear(args, outdir):
    import numpy as np

    from .grid import GridSpec
    from .verify import bilinear_form, factorized_bilinear_form
    if args.pairs < 1:
        raise ValueError(f"--pairs must be >= 1, got {args.pairs}")
    grid = GridSpec(args.grid_n, args.grid_l, args.grid_npts)
    times = np.linspace(-1.0, 1.0, args.ntimes)
    sigma = _float(args, "sigma")
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
    from .grid import SpaceTimeField
    from .verify import band_limited_stack
    seeds = range(seed * 1000, seed * 1000 + len(times))
    return SpaceTimeField(grid, times, band_limited_stack(grid, seeds))


# ---------------------------------------------------------------------------
# run manifests / CSV and JSON output
# ---------------------------------------------------------------------------

def _fmt_float(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows) -> None:
    import csv  # here, so that --help imports nothing more
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [header] + [[_fmt_float(v) for v in row] for row in rows])


def _plain(v):
    """v for JSON: numpy scalars and arrays as Python numbers and lists, exact exponents
    and non-finite floats as text (``10/3``, ``inf``)."""
    if type(v).__module__ == "numpy":  # told apart without importing numpy
        v = v.tolist()
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, Fraction) or (isinstance(v, float) and not math.isfinite(v)):
        return str(v)
    return v


def _write_json(path, data, sort_keys: bool = False) -> None:
    """data as standard JSON: no NaN or Infinity token is ever written."""
    text = json.dumps(_plain(data), indent=2, sort_keys=sort_keys, allow_nan=False)
    Path(path).write_text(text + "\n")


def run(argv) -> int:
    """Run one command; its manifest is written before the handler and again after it.

    A handler that raises leaves the manifest ``failed`` with the error; a
    ValueError, OSError or MemoryError (bad input, or a grid too large to hold)
    is a one-line usage error.  Every distinct warning raised is listed in the
    manifest and echoed as one ``warning:`` line on stderr.
    """
    try:
        args = _parse(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    outdir = Path(args.out or os.environ.get("AMALGAM_OUT") or "amalgam-out")
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "handler") and v is not None}
    manifest = {"command": args.command, "params": params, "seed": args.seed,
                "status": "incomplete", "tool_version": __version__, "wall_time_s": None}
    started = time.time()
    written, error = False, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            _write_json(outdir / "manifest.json", manifest, sort_keys=True)
            written = True
            code, extra = args.handler(args, outdir)
            manifest.update(extra, status="complete")
        except Exception as exc:
            error = exc
            manifest.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    notes = list(dict.fromkeys(" ".join(str(w.message).split()) for w in caught))
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    manifest.update(warnings=notes, wall_time_s=round(time.time() - started, 3))
    if written:
        _write_json(outdir / "manifest.json", manifest, sort_keys=True)
    if error is None:
        return code
    if not isinstance(error, (ValueError, OSError, MemoryError)):
        raise error
    print(f"usage error: {error or 'out of memory'}", file=sys.stderr)
    return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
