"""Command-line front end: every operation as a manifest-logged command.

Exit codes: 0 success (a reject verdict is still a success), 1 when an
asserted invariant fails, 2 on usage errors.  The token ``inf`` denotes
infinity in every exponent flag; exponents parse as exact rationals
(``10``, ``10/3``, ``0.3``).  A config file of ``key = value`` lines may
supply any flag (``key = true`` sets a flag that takes no value);
explicit command-line flags override it.  The output directory comes
from --out, else $AMALGAM_OUT, else ./amalgam-out.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

from . import exponents as expo
from .extreal import as_extended, fmt, to_float

USAGE_ERROR = 2
CHECK_FAILED = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> tuple:
    """(the parser, its subcommand parsers by name)."""
    p = _Parser(prog="amalgam", description=__doc__, allow_abbrev=False,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="key = value file supplying default flags")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_):
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        sp.add_argument("--out", help="output directory (default $AMALGAM_OUT or ./amalgam-out)")
        sp.add_argument("--seed", type=int, default=0)
        return sp

    sp = add("check-tuple", "run an admissibility predicate on one tuple")
    sp.add_argument("--set", default=None, dest="condition_set",
                    choices=["classical", "cn2", "theorem", "proposition", "corollary"])
    sp.add_argument("--n", default=None)
    sp.add_argument("--sigma", default="0")
    for f in ("qt", "rt", "q", "r"):
        sp.add_argument(f"--{f}", default=None)

    sp = add("region", "scan an admissibility region in reciprocal coordinates")
    sp.add_argument("--set", default=None, dest="condition_set",
                    choices=["classical", "cn2", "theorem", "proposition", "corollary"])
    sp.add_argument("--n", default=None)
    sp.add_argument("--sigma", default="0")
    sp.add_argument("--free", default=None, help="comma list, e.g. qt,q")
    sp.add_argument("--fixed", default="", help="comma list name=value")
    sp.add_argument("--resolution", default="64")

    sp = add("norm", "compute a norm of a generated or loaded field")
    sp.add_argument("--kind", default=None,
                    choices=["lebesgue", "hsigma", "amalgam"])
    _field_flags(sp)
    sp.add_argument("--p", default="2")
    sp.add_argument("--q", default="2")
    sp.add_argument("--sigma", default="0")
    _window_flags(sp)

    sp = add("evolve", "free evolution of a datum over a time list")
    _field_flags(sp)
    sp.add_argument("--sigma", default="0")
    sp.add_argument("--times", default="0.5", help="comma list of instants")
    sp.add_argument("--save-field", action="store_true",
                    help="also write the evolved slices as a binary container")

    sp = add("kernel-profile", "windowed kernel norm h(t) over log-spaced times")
    _profile_flags(sp)

    sp = add("fit-decay", "kernel profile plus two-regime slope fit")
    _profile_flags(sp)
    sp.add_argument("--tol", default="0.05")

    sp = add("ratio", "space-time amalgam norm over data norm for one tuple")
    _field_flags(sp)
    sp.set_defaults(gen="modulated")  # ratio needs zero-mode-free data
    sp.add_argument("--n", default="1")
    sp.add_argument("--sigma", default=None)
    for f in ("qt", "rt", "q", "r"):
        sp.add_argument(f"--{f}", default=None)
    sp.add_argument("--weak", action="store_true")
    sp.add_argument("--t-outer", default="32")

    sp = add("suite", "lattice identity / inequality property suite")
    sp.add_argument("--corpus-size", default="100")

    sp = add("hls", "1-D fractional-integration ratio check")
    sp.add_argument("--p", default=None)
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--trials", default="200")

    sp = add("bilinear", "double-integral vs factorized bilinear form")
    sp.add_argument("--grid-n", default="1")
    sp.add_argument("--grid-l", default="8")
    sp.add_argument("--grid-npts", default="64")
    sp.add_argument("--sigma", default="0.3")
    sp.add_argument("--ntimes", default="9")
    sp.add_argument("--pairs", default="10")
    return p, sub.choices


def _field_flags(sp):
    sp.add_argument("--input", help="binary field container to load")
    sp.add_argument("--gen", default="gaussian",
                    choices=["gaussian", "modulated", "band-limited", "spike"])
    sp.add_argument("--width", default="1")
    sp.add_argument("--mode", default="40")
    sp.add_argument("--grid-n", default="1")
    sp.add_argument("--grid-l", default="16")
    sp.add_argument("--grid-npts", default="1024")


def _window_flags(sp):
    sp.add_argument("--window", default="cube",
                    choices=["cube", "gaussian", "bump"])
    sp.add_argument("--window-radius", default="0.5")
    sp.add_argument("--window-step", default="1")
    sp.add_argument("--window-norm", default="partition", choices=["l2", "partition"])


def _profile_flags(sp):
    sp.add_argument("--n", default="1")
    sp.add_argument("--sigma", default=None)
    sp.add_argument("--rt", default=None)
    sp.add_argument("--r", default=None)
    sp.add_argument("--grid-l", default="64")
    sp.add_argument("--grid-npts", default="4096")
    sp.add_argument("--tmin", default="0.02")
    sp.add_argument("--tmax", default="50")
    sp.add_argument("--per-decade", default="24")


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
    return WindowSpec(kind=kind, radius=float(args.window_radius),
                      step=float(args.window_step), normalization=args.window_norm)


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
    grid = GridSpec(int(args.grid_n), float(args.grid_l), int(args.grid_npts))
    seed = args.seed
    gen = args.gen
    if gen == "gaussian":
        return verify.gaussian_datum(grid, width=float(args.width)), {}
    if gen == "modulated":
        return verify.modulated_gaussian(grid, width=float(args.width), mode=int(args.mode)), {}
    if gen == "band-limited":
        return verify.band_limited_field(grid, seed), {}
    return verify.spike_field(grid, seed), {}


def _tuple_from(args) -> expo.ExponentTuple:
    def pick(name, default="2"):
        val = getattr(args, name, None)
        return as_extended(val if val is not None else default)

    return expo.ExponentTuple(
        n=int(args.n), sigma=as_extended(args.sigma),
        qt=pick("qt"), rt=pick("rt"), q=pick("q"), r=pick("r"))


# ---------------------------------------------------------------------------
# command handlers: each writes its outputs into outdir and returns
# (exit code, extra manifest fields)
# ---------------------------------------------------------------------------

def _cmd_check_tuple(args, outdir):
    if args.condition_set == "classical":
        rep = expo.is_schrodinger_admissible(
            as_extended(args.q or "2"), as_extended(args.r or "2"), int(args.n))
    elif args.condition_set == "proposition":
        rep = expo.satisfies_prop_kernel(
            int(args.n), as_extended(args.sigma),
            as_extended(args.rt or "2"), as_extended(args.r or "2"))
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
    free = tuple(s.strip() for s in args.free.split(",") if s.strip())
    fixed = {}
    if args.fixed:
        for item in args.fixed.split(","):
            name, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"--fixed takes name=value items, got {item!r}")
            fixed[name.strip()] = as_extended(val.strip())
    res = int(args.resolution)
    scan = expo.sample_region(args.condition_set, n=int(args.n),
                              sigma=as_extended(args.sigma),
                              free=free, fixed=fixed, resolution=res)
    labels = [fmt(Fraction(k, res)) for k in range(res + 1)]
    edge = set(scan.edge)
    rows = [(*point, int(verdict), int(k in edge)) for k, (point, verdict) in
            enumerate(zip(itertools.product(labels, repeat=len(scan.axes)), scan.verdicts))]
    header = [f"recip_{a}" for a in scan.axes] + ["accept", "boundary"]
    write_csv(outdir / "mesh.csv", header, rows)
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
        res = lebesgue_norm(fld, to_float(as_extended(args.p)))
    elif args.kind == "hsigma":
        res = hsigma_norm(fld, float(args.sigma))
    else:
        res = amalgam_norm(fld, to_float(as_extended(args.p)),
                           to_float(as_extended(args.q)), _window_from(args))
    report = {**res.to_json_dict(), **source}
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    write_csv(outdir / "results.csv", ["space", "value"], [(res.space, res.value)])
    print(f"{res.space}: {res.value:.12g}")
    return 0, {}


def _cmd_evolve(args, outdir):
    import numpy as np

    from .grid import _lp, write_spacetime
    from .propagator import evolve_series
    fld, _ = _field_from(args)
    times = np.array([float(s) for s in args.times.split(",")])
    stf = evolve_series(fld, times, float(args.sigma))
    write_csv(outdir / "results.csv", ["t", "l2", "sup"],
              zip(stf.times, _lp(stf.values, 2, stf.grid), _lp(stf.values, np.inf, stf.grid)))
    if args.save_field:
        write_spacetime(stf, outdir / "evolved.bin")
    print(f"evolved {len(times)} slice(s) -> {outdir / 'results.csv'}")
    return 0, {}


def _profile_from(args):
    """The kernel's decay profile, and its health fields for the manifest."""
    from .grid import GridSpec
    from .propagator import kernel_amalgam_profile, profile_times
    from .wiener import unit_cube_partition
    grid = GridSpec(int(args.n), float(args.grid_l), int(args.grid_npts))
    times = profile_times(float(args.tmin), float(args.tmax), int(args.per_decade))
    prof = kernel_amalgam_profile(int(args.n), float(args.sigma),
                                  as_extended(args.rt), as_extended(args.r),
                                  unit_cube_partition(), times, grid)
    return prof, {"converged": prof.converged, "max_est_error": float(prof.est_error.max())}


def _cmd_kernel_profile(args, outdir):
    prof, health = _profile_from(args)
    write_csv(outdir / "results.csv", ["t", "value", "est_error"],
              list(zip(prof.times, prof.values, prof.est_error)))
    (outdir / "profile.json").write_text(json.dumps(
        {"meta": prof.meta, "converged": prof.converged,
         "times": list(prof.times), "values": list(prof.values),
         "est_error": list(prof.est_error)}, indent=2, default=float) + "\n")
    print(f"profile over {len(prof.times)} instants -> {outdir / 'results.csv'}"
          + ("" if prof.converged else "  [kernel flags: not fully converged]"))
    return 0, health


def _cmd_fit_decay(args, outdir):
    from .verify import fit_decay
    prof, health = _profile_from(args)
    small, large = fit_decay(prof)
    write_csv(outdir / "results.csv",
              ["regime", "slope", "predicted", "abs_error", "r_squared"],
              [(f.regime, f.slope, f.predicted, f.abs_error, f.r_squared)
               for f in (small, large)])
    tol = float(args.tol)
    ok = True
    for f in (small, large):
        status = "ok" if (f.abs_error is not None and f.abs_error <= tol) else "FAIL"
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
    times = default_ratio_times(t_outer=float(args.t_outer))
    res = strichartz_ratio(fld, tup, unit_cube_partition(),
                           unit_cube_partition(), times=times,
                           weak=bool(args.weak))
    write_csv(outdir / "results.csv", ["ratio", "numerator", "denominator"],
              [(res.value, res.numerator, res.denominator)])
    print(f"ratio = {res.value:.6g}  (numerator {res.numerator:.6g}, "
          f"denominator {res.denominator:.6g})")
    return 0, {"ratio": res.value}


def _cmd_suite(args, outdir):
    from .verify import property_suite
    rep = property_suite(seed=args.seed, corpus_size=int(args.corpus_size))
    write_csv(outdir / "results.csv", ["property", "passed"],
              [(r.name, int(r.passed)) for r in rep.results])
    print(rep.summary())
    return (0 if rep.passed else CHECK_FAILED), {"passed": rep.passed}


def _cmd_hls(args, outdir):
    import numpy as np

    from .verify import hls_check_1d
    rep = hls_check_1d(args.p, args.alpha, trials=int(args.trials), seed=args.seed)
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
    grid = GridSpec(int(args.grid_n), float(args.grid_l), int(args.grid_npts))
    ntimes = int(args.ntimes)
    times = np.linspace(-1.0, 1.0, ntimes)
    rng_base = args.seed
    sigma = float(args.sigma)
    worst = 0.0
    rows = []
    for k in range(int(args.pairs)):
        F = _random_stf(grid, times, rng_base + 2 * k)
        G = _random_stf(grid, times, rng_base + 2 * k + 1)
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


def write_manifest(outdir, command: str, params: dict, seed: int | None = None,
                   status: str = "incomplete", extra: dict | None = None) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    from . import __version__
    manifest = {
        "command": command,
        "params": params,
        "seed": seed,
        "status": status,
        "tool_version": __version__,
        "wall_time_s": None,
    }
    if extra:
        manifest.update(extra)
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return path


def finalize_manifest(path, started: float, status: str = "complete",
                      extra: dict | None = None) -> None:
    path = Path(path)
    manifest = json.loads(path.read_text())
    manifest["status"] = status
    manifest["wall_time_s"] = round(time.time() - started, 3)
    if extra:
        manifest.update(extra)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")


def _params(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("command",) and v is not None}


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
    """Run one command; its manifest is written first and finalised last.

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
    started = time.time()
    manifest = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            manifest = write_manifest(outdir, args.command, _params(args), args.seed)
            code, extra = _HANDLERS[args.command](args, outdir)
        except Exception as exc:
            error = exc
    notes = list(dict.fromkeys(" ".join(str(w.message).split()) for w in caught))
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    if error is None:
        finalize_manifest(manifest, started, extra={**extra, "warnings": notes})
        return code
    if manifest is not None:
        finalize_manifest(manifest, started, "failed", extra={
            "error": f"{type(error).__name__}: {error}", "warnings": notes})
    if not isinstance(error, (ValueError, OSError)):
        raise error
    print(f"usage error: {error}", file=sys.stderr)
    return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
