"""The benchmark's workloads: fixed lists of `amalgam` commands, each with an oracle.

A command's ``check`` receives the command's :class:`Output` and returns a
list of problems; an empty list means the output passed its oracle.  A
check that raises (a missing file, an unparsable line) counts as a miss.

Seeded outputs (band-limited data, ``bilinear``, ``suite``, ``hls``) are
checked only with identities that hold for every seed.  Deterministic
outputs are compared with ``references.json``, which holds values recorded
from the seed implementation (the windows there come from its roll loop,
the brute-force translate sum).  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCES = json.loads(Path(__file__).with_name("references.json").read_text())

# Recorded values come from deterministic code; a faster implementation may
# reorder sums (FFT correlation, batched transforms), so allow round-off.
REF_RTOL = 1e-9
# The README states that profile values match exact kernel values to better
# than 3e-4; the recorded profile and a new evaluator may each be off by that.
PROFILE_RTOL = 2 * 3e-4
# Criterion 1 tolerance on fitted decay slopes.
SLOPE_TOL = 0.05
# fit-decay at n = 1, sigma = 0.3, rt = r = inf: both regimes predict
# -n/2 + sigma + (n-1)/rt (+ n/r for large t) = -0.2.
FLAT_SLOPE = -0.2


@dataclass
class Output:
    code: int | None       # exit code; None when the command raised in-process
    stdout: str
    outdir: Path           # this command's --out directory
    dirs: dict             # command id -> --out directory, for the whole pass


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple            # arguments after `amalgam`; "{id}" names another command's --out
    check: Callable[[Output], list]


def _rows(outdir: Path, name: str = "results.csv") -> list:
    with open(outdir / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _off(got: float, want: float, rtol: float) -> bool:
    return not abs(got - want) <= rtol * abs(want)


def _exit(code: int | None, want: int = 0) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

def _check_fit_decay(out: Output) -> list:
    problems = _exit(out.code)
    rows = {r["regime"]: r for r in _rows(out.outdir)}
    for regime in ("small", "large"):
        slope = float(rows[regime]["slope"])
        if abs(slope - FLAT_SLOPE) > SLOPE_TOL:
            problems.append(f"{regime}-time slope {slope:+.4f} misses {FLAT_SLOPE} by > {SLOPE_TOL}")
        if float(rows[regime]["predicted"]) != FLAT_SLOPE:
            problems.append(f"{regime}-time prediction {rows[regime]['predicted']} != {FLAT_SLOPE}")
    return problems


def _check_profile(out: Output) -> list:
    problems = _exit(out.code)
    ref = REFERENCES["kernel_profile"]
    rows = _rows(out.outdir)
    if len(rows) != len(ref["times"]):
        return problems + [f"{len(rows)} profile instants, expected {len(ref['times'])}"]
    for row, t, v in zip(rows, ref["times"], ref["values"]):
        if _off(float(row["t"]), t, 1e-12):
            problems.append(f"instant {row['t']} != {t}")
        elif _off(float(row["value"]), v, PROFILE_RTOL):
            problems.append(f"h({t:.4g}) = {row['value']}, reference {v}")
    return problems


DECAY = [
    Command("fit_decay", ("fit-decay", "--n", "1", "--sigma", "0.3", "--rt", "inf", "--r", "inf",
                          "--per-decade", "8"), _check_fit_decay),
    Command("kernel_profile", ("kernel-profile", "--n", "1", "--sigma", "0.2", "--rt", "inf",
                               "--r", "10", "--per-decade", "8"), _check_profile),
]


# ---------------------------------------------------------------------------
# spacetime
# ---------------------------------------------------------------------------

EVOLVE_TIMES = [k / 10 for k in range(64)]
EVOLVE_GRID = (2, 256)   # (n, npts) of the evolved band-limited field
HSIGMA_SIGMA = 0.3


def _check_reference(key: str, columns: tuple):
    def check(out: Output) -> list:
        problems = _exit(out.code)
        (row,) = _rows(out.outdir)
        for col in columns:
            want = REFERENCES[key][col]
            if _off(float(row[col]), want, REF_RTOL):
                problems.append(f"{col} = {row[col]}, reference {want!r}")
        return problems
    return check


def _check_evolve(out: Output) -> list:
    problems = _exit(out.code)
    rows = _rows(out.outdir)
    if len(rows) != len(EVOLVE_TIMES):
        return problems + [f"{len(rows)} slices, expected {len(EVOLVE_TIMES)}"]
    for row, t in zip(rows, EVOLVE_TIMES):
        # sigma = 0 evolution of a unit-L2 datum is unitary on the lattice
        if float(row["t"]) != t or abs(float(row["l2"]) - 1.0) > 1e-10:
            problems.append(f"slice t={row['t']}: L2 norm {row['l2']}, expected 1")
    n, npts = EVOLVE_GRID
    size = (out.outdir / "evolved.bin").stat().st_size
    want = 32 + 8 * len(EVOLVE_TIMES) + 16 * len(EVOLVE_TIMES) * npts ** n
    if size != want:
        problems.append(f"container holds {size} bytes, expected {want}")
    return problems


def _hsigma_of_first_slice(path: Path, sigma: float) -> float:
    """Independent reading of the container format and of the Sobolev norm.

    Container: little-endian header (int64 n, float64 L, int64 N, int64 T),
    T float64 instants, then T slices of interleaved re/im float64.  The
    norm is sqrt(sum |xi|^(2 sigma) |f^(xi)|^2 (dxi / 2 pi)^n) with the
    forward transform dx^n * fftn up to a unimodular phase.
    """
    import numpy as np

    head = np.dtype([("n", "<i8"), ("L", "<f8"), ("N", "<i8"), ("T", "<i8")])
    (n, length, npts, nslices), = np.fromfile(path, dtype=head, count=1).tolist()
    count = npts ** n
    inter = np.fromfile(path, dtype="<f8", count=2 * count, offset=head.itemsize + 8 * nslices)
    vals = (inter[0::2] + 1j * inter[1::2]).reshape((npts,) * n)
    dx, dxi = 2.0 * length / npts, math.pi / length
    spec2 = np.abs(np.fft.fftn(vals) * dx ** n) ** 2
    k = np.fft.fftfreq(npts, d=1.0 / npts) * dxi
    xi2 = sum(c ** 2 for c in np.meshgrid(*((k,) * n), indexing="ij"))
    weight = np.where(xi2 > 0, xi2 ** sigma, 0.0)
    return float(np.sqrt(np.sum(weight * spec2) * (dxi / (2.0 * math.pi)) ** n))


def _check_hsigma(out: Output) -> list:
    problems = _exit(out.code)
    (row,) = _rows(out.outdir)
    want = _hsigma_of_first_slice(out.dirs["evolve"] / "evolved.bin", HSIGMA_SIGMA)
    if _off(float(row["value"]), want, REF_RTOL):
        problems.append(f"hsigma norm {row['value']}, independent value {want!r}")
    return problems


def _check_bilinear(pairs: int):
    def check(out: Output) -> list:
        problems = _exit(out.code)
        rows = _rows(out.outdir)
        if "[ok]" not in out.stdout or len(rows) != pairs:
            problems.append(f"bilinear self-check not ok over {pairs} pairs: {out.stdout.strip()!r}")
        worst = max(float(r["rel_diff"]) for r in rows)
        if not worst <= 1e-8:
            problems.append(f"double integral and factorized form differ by {worst:.3e}")
        return problems
    return check


_RATIO_COLUMNS = ("ratio", "numerator", "denominator")

SPACETIME = [
    Command("ratio_n2", ("ratio", "--n", "2", "--grid-n", "2", "--grid-npts", "128",
                         "--grid-l", "16", "--sigma", "0.3", "--qt", "2", "--rt", "inf",
                         "--q", "20/7", "--r", "inf"),
            _check_reference("ratio_n2", _RATIO_COLUMNS)),
    Command("ratio_n1", ("ratio", "--n", "1", "--grid-npts", "4096", "--mode", "400",
                         "--sigma", "0.3", "--qt", "2", "--rt", "inf", "--q", "10",
                         "--r", "inf"),
            _check_reference("ratio_n1", _RATIO_COLUMNS)),
    Command("evolve", ("evolve", "--save-field", "--gen", "band-limited",
                       "--grid-n", str(EVOLVE_GRID[0]), "--grid-npts", str(EVOLVE_GRID[1]),
                       "--times", ",".join(f"{t:g}" for t in EVOLVE_TIMES)),
            _check_evolve),
    Command("hsigma", ("norm", "--kind", "hsigma", "--sigma", str(HSIGMA_SIGMA),
                       "--input", "{evolve}/evolved.bin"), _check_hsigma),
    Command("bilinear_n1", ("bilinear", "--grid-n", "1", "--grid-npts", "256",
                            "--ntimes", "65", "--pairs", "10"), _check_bilinear(10)),
    Command("bilinear_n2", ("bilinear", "--grid-n", "2", "--grid-npts", "64",
                            "--ntimes", "33", "--pairs", "10"), _check_bilinear(10)),
]


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def _norm(*flags):
    return ("norm", "--kind", "amalgam", "--q", "4") + flags


_BUMP = ("--window", "bump", "--window-radius", "1", "--window-norm", "l2")

WINDOWS = [
    Command("bump_n3", _norm(*_BUMP, "--p", "2", "--grid-n", "3", "--grid-npts", "64",
                             "--grid-l", "4"),
            _check_reference("bump_n3", ("value",))),
    Command("bump_n2", _norm(*_BUMP, "--p", "2", "--grid-n", "2", "--grid-npts", "256"),
            _check_reference("bump_n2", ("value",))),
    Command("bump_n2_pinf", _norm(*_BUMP, "--p", "inf", "--grid-n", "2", "--grid-npts", "256"),
            _check_reference("bump_n2_pinf", ("value",))),
    Command("gaussian_n1", _norm("--window", "gaussian", "--window-radius", "0.5",
                                 "--window-norm", "l2", "--p", "2", "--grid-n", "1",
                                 "--grid-npts", "4096"),
            _check_reference("gaussian_n1", ("value",))),
    Command("cube_n3", _norm("--window", "cube", "--p", "2", "--grid-n", "3", "--grid-npts", "64",
                             "--grid-l", "4"),
            _check_reference("cube_n3", ("value",))),
]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _check_verdict(condition_set: str, verdict: str, case: str | None):
    def check(out: Output) -> list:
        problems = _exit(out.code)
        first = out.stdout.splitlines()[0] if out.stdout else ""
        if first != f"{condition_set}: {verdict}":
            problems.append(f"printed {first!r}, expected {condition_set}: {verdict}")
        report = json.loads((out.outdir / "report.json").read_text())
        if report["verdict"] != verdict or report["case"] != case:
            problems.append(f"report verdict/case {report['verdict']}/{report['case']}, "
                            f"expected {verdict}/{case}")
        return problems
    return check


# Criterion 6: (condition set, flags, verdict, proposition case), all five sets.
CRITERION_6 = [
    ("theorem", "--n 1 --sigma 0.3 --qt 2 --rt inf --q 10 --r inf", "accept", None),
    ("theorem", "--n 1 --sigma 0.3 --qt 10 --rt inf --q 10 --r inf", "reject", None),
    ("theorem", "--n 1 --sigma 0.5 --qt 2 --rt inf --q 10 --r inf", "reject", None),
    ("proposition", "--n 1 --sigma 0.2 --rt inf --r 10", "accept", "c3"),
    ("proposition", "--n 1 --sigma 0.3 --rt inf --r 4", "reject", "c4"),
    ("corollary", "--n 1 --sigma 0.2 --qt 4 --rt 4 --q 10 --r 10", "accept", None),
    ("classical", "--n 2 --q 2 --r inf", "reject", None),
    ("classical", "--n 3 --q inf --r 2", "accept", None),
    ("classical", "--n 2 --q 4 --r 4", "accept", None),
    ("cn2", "--n 3 --sigma 0 --qt 2 --rt 6 --q 2 --r 6", "accept", None),
    ("cn2", "--n 2 --sigma 0 --qt 2 --rt 2 --q 2 --r inf", "reject", None),
]

REGION_RESOLUTION = 128


def _theorem_region_counts(res: int) -> tuple:
    """(points, accepted, boundary cells) of the n = 1, sigma = 3/10, rt = inf scan.

    Worked by hand in reciprocal coordinates a = 1/qt = i/res, b = 1/q = j/res:
    the trade-off equality gives 1/r = 1/5 - 2b, which must lie in [0, 1], and
    the remaining conditions reduce to 0 < b <= 1/10, b < a <= 1/2 and a > 1/10.
    A boundary cell is an accepted cell with a rejected or missing grid neighbour.
    At res = 256 this gives 2575 accepted and 252 boundary cells.
    """
    def accept(i, j):  # also false for every (i, j) outside the grid
        return 0 < j < i and 10 * j <= res < 10 * i and 2 * i <= res

    cells = [(i, j) for i in range(res + 1) for j in range(res + 1) if accept(i, j)]
    boundary = [c for c in cells if not all(accept(c[0] + di, c[1] + dj)
                                            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))]
    return (res + 1) ** 2, len(cells), len(boundary)


def _check_region(out: Output) -> list:
    problems = _exit(out.code)
    points, accepted, boundary = _theorem_region_counts(REGION_RESOLUTION)
    want = f"theorem: {accepted}/{points} accepted, {boundary} boundary cells"
    if not out.stdout.startswith(want):
        problems.append(f"printed {out.stdout.strip()!r}, expected {want!r}")
    rows = _rows(out.outdir, "mesh.csv")
    counts = (len(rows), sum(int(r["accept"]) for r in rows), sum(int(r["boundary"]) for r in rows))
    if counts != (points, accepted, boundary):
        problems.append(f"mesh.csv has (points, accepted, boundary) = {counts}, "
                        f"expected {(points, accepted, boundary)}")
    return problems


SUITE_PROPERTIES = 7


def _check_suite(out: Output) -> list:
    problems = _exit(out.code)
    lines = out.stdout.splitlines()
    # property names may hold commas, which results.csv does not quote
    flags = [line.rsplit(",", 1)[1] for line in (out.outdir / "results.csv").read_text().splitlines()[1:]]
    if (len(lines) != SUITE_PROPERTIES or not all(s.startswith("PASS") for s in lines)
            or flags != ["1"] * SUITE_PROPERTIES):
        problems.append(f"suite did not pass all {SUITE_PROPERTIES} properties: {out.stdout!r}")
    return problems


def _check_hls(out: Output) -> list:
    problems = _exit(out.code)
    (row,) = _rows(out.outdir)
    # 1/q + 1 = 1/p + alpha with p = 4/3, alpha = 1/2 gives q = 4 exactly
    if not out.stdout.startswith("q = 4;"):
        problems.append(f"printed {out.stdout.strip()!r}, expected q = 4")
    a, b = float(row["max_ratio"]), float(row["refined_max"])
    if not (a > 0 and b > 0 and max(a, b) <= 1.5 * min(a, b)):
        problems.append(f"refinement unstable: max ratio {a}, refined {b}")
    return problems


VERDICTS = [
    Command(f"check_{i}", ("check-tuple", "--set", cset, *flags.split()),
            _check_verdict(cset, verdict, case))
    for i, (cset, flags, verdict, case) in enumerate(CRITERION_6)
] + [
    Command("region", ("region", "--set", "theorem", "--n", "1", "--sigma", "0.3",
                       "--fixed", "rt=inf", "--free", "qt,q",
                       "--resolution", str(REGION_RESOLUTION)),
            _check_region),
    Command("suite", ("suite", "--corpus-size", "100"), _check_suite),
    Command("hls", ("hls", "--p", "4/3", "--alpha", "0.5", "--trials", "50"), _check_hls),
]


WORKLOADS = {
    "decay": DECAY,
    "spacetime": SPACETIME,
    "windows": WINDOWS,
    "verdicts": VERDICTS,
}
