"""End-to-end and per-layer benchmark of the `amalgam` command line.

Run from the repository root:

    python3 bench/run.py --workload decay --seed 1 --seconds 10 --trace 0

One client runs a workload's command list one command at a time (a closed
loop), repeating whole passes until --seconds have elapsed.  With
--trace 0 each command is a subprocess and the run reports end-to-end
metrics: the medians over passes of wall_s, max_cmd_s and peak_rss_mb, and
setup_s, the median of several `python -m amalgam.cli --help` runs.
With --trace 1 the same argument lists run in this process through
`amalgam.cli.run`: a warm-up pass, an untraced pass, and a pass with every
layer function wrapped; it reports per-layer metrics (see layers.py).
Every command's output is checked by its oracle (see workloads.py).

A summary line prints every metric with its unit, and failed_frac.  The
last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics (all but max_cmd_s); a fuller record of the
run is written to bench/runs/.  `--workload all` runs each workload once.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import layers
from workloads import WORKLOADS, Command, Output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

SETUP_REPS = 5
IMPORT_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "max_cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded, but not in the result line's metrics: the time of one 2-4 s command
# spread by up to 0.27 of its median between runs on a shared 2-vCPU VM.
UNGATED = {"max_cmd_s"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list, log_stem: Path) -> tuple:
    """Run argv to completion; (exit code, stdout, wall seconds, max RSS in MB).

    The child's own rusage comes from os.wait4, so the maximum RSS is that
    child's alone, not a maximum over every child this process has reaped.
    """
    out_path, err_path = log_stem.with_suffix(".stdout"), log_stem.with_suffix(".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), wall, usage.ru_maxrss / 1024.0


def _resolve(cmd: Command, dirs: dict, seed: int) -> list:
    argv = [a.format_map({k: str(v) for k, v in dirs.items()}) for a in cmd.argv]
    return argv + ["--out", str(dirs[cmd.id]), "--seed", str(seed)]


def _check(cmd: Command, out: Output) -> list:
    try:
        return cmd.check(out)
    except Exception as exc:  # an unreadable output is a miss, not a crash
        return [f"oracle could not read the output: {exc!r}"]


class Run:
    """One benchmark run: a fresh directory, the passes, and the tallies."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.commands = WORKLOADS[workload]
        stamp = time.strftime("%Y%m%dT%H%M%S")
        self.dir = RUNS / f"{workload}-seed{seed}-{stamp}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.problems: list = []

    def tally(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.problems.append({"command": what, "problems": problems})

    def _pass(self, label: str, execute) -> list:
        """One pass over the command list; per-command (id, wall, rss) records.

        execute(cmd, argv, outdir) returns (code, stdout, wall, rss or None).
        Outputs are checked after the last command, so that wall times are
        contiguous; the pass directory is deleted afterwards.
        """
        pdir = self.dir / label
        dirs = {c.id: pdir / c.id for c in self.commands}
        pdir.mkdir()
        outputs, records = [], []
        for cmd in self.commands:
            code, stdout, wall, rss = execute(cmd, _resolve(cmd, dirs, self.seed), pdir)
            outputs.append(Output(code, stdout, dirs[cmd.id], dirs))
            records.append({"id": cmd.id, "wall_s": wall, "rss_mb": rss, "code": code})
        for cmd, out in zip(self.commands, outputs):
            self.tally(f"{label}/{cmd.id}", _check(cmd, out))
        shutil.rmtree(pdir)
        return records

    def subprocess_pass(self, label: str) -> list:
        def execute(cmd, argv, pdir):
            return _spawn([sys.executable, "-m", "amalgam.cli", *argv], pdir / cmd.id)
        return self._pass(label, execute)

    def inprocess_pass(self, label: str, tracer=None) -> list:
        from amalgam.cli import run as cli_run

        def execute(cmd, argv, pdir):
            if tracer is not None:
                tracer.command = f"{label}/{cmd.id}"
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli_run(argv)
            except Exception:
                traceback.print_exc()
                code = None
            return code, buf.getvalue(), time.perf_counter() - start, None
        return self._pass(label, execute)

    def setup_times(self) -> list:
        """`amalgam --help` as a subprocess: interpreter start plus every import."""
        times = []
        for rep in range(SETUP_REPS + 1):
            code, stdout, wall, _ = _spawn([sys.executable, "-m", "amalgam.cli", "--help"],
                                           self.dir / f"help{rep}")
            self.tally(f"setup/{rep}", [] if code == 0 and "check-tuple" in stdout
                       else [f"--help exited {code}"])
            if rep:  # the first run fills the bytecode cache
                times.append(wall)
        return times


def _import_times() -> tuple:
    """Medians of (bare interpreter, `import amalgam.cli`, scipy within it) in seconds."""
    interp, total, scipy_s = [], [], []
    env = _child_env()
    for _ in range(IMPORT_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        interp.append(time.perf_counter() - start)
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import amalgam.cli"],
                             check=True, env=env, capture_output=True, text=True).stderr
        t_all, t_scipy = _parse_importtime(err)
        total.append(t_all)
        scipy_s.append(t_scipy)
    return statistics.median(interp), statistics.median(total), statistics.median(scipy_s)


def _parse_importtime(text: str) -> tuple:
    """(cumulative seconds of top-level amalgam imports, of outermost scipy imports)."""
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)) // 2, int(m.group(2)) * 1e-6, m.group(4)))
    total = sum(cum for depth, cum, name in entries if depth == 0 and name.startswith("amalgam"))
    # entries are printed children first; walk parents first to find outermost scipy imports
    scipy_s, stack = 0.0, []
    for depth, cum, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            scipy_s += cum
        stack.append((depth, name))
    return total, scipy_s


def _summary(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "count": len(values)}


def _environment(seed: int) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = re.search(r"model name\s*:\s*(.*)", cpuinfo)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{read(index / 'level')}{read(index / 'type')}"] = read(index / "size")
    mem = re.search(r"MemTotal:\s*(\d+) kB", read("/proc/meminfo") or "")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without .git; source_sha256 identifies the code
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1) if model else platform.processor(),
        "caches": caches,
        "ram_gib": round(int(mem.group(1)) / 2 ** 20, 2) if mem else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure_end_to_end(run: Run, seconds: float) -> tuple:
    setup = run.setup_times()
    passes, start = [], time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run.subprocess_pass(f"pass{len(passes)}"))
    samples = {
        "wall_s": [sum(r["wall_s"] for r in p) for p in passes],
        "max_cmd_s": [max(r["wall_s"] for r in p) for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [max(r["rss_mb"] for r in p) for p in passes],
    }
    return samples, {"passes": passes}


def measure_layers(run: Run) -> tuple:
    import amalgam.cli  # noqa: F401  (imports every layer before timing)

    interp_s, import_s, scipy_s = _import_times()
    run.inprocess_pass("warmup")  # lazy imports and first-call caches, e.g. scipy.signal in hls
    plain = run.inprocess_pass("untraced")
    tracer = layers.Tracer()
    with tracer.installed():
        traced = run.inprocess_pass("traced", tracer)
    tracer.write(run.dir / "spans.jsonl.gz")
    wall = {f"traced/{r['id']}": r["wall_s"] for r in traced}
    covered = dict.fromkeys(wall, 0.0)
    for s in tracer.spans:
        if s.parent is None:
            covered[s.command] += s.end - s.start
    metrics = layers.layer_metrics(tracer)
    metrics.update({
        "cli.interp_s": interp_s,
        "cli.import_s": import_s,
        "cli.import.scipy_s": scipy_s,
        "cli.self_s": sum(wall.values()) - sum(covered.values()),
        "trace.coverage": sum(covered.values()) / sum(wall.values()),
        "trace.overhead_frac": sum(wall.values()) / sum(r["wall_s"] for r in plain) - 1.0,
    })
    samples = {name: [metrics[name]] for name, _ in layers.PER_LAYER}
    detail = {"untraced": plain, "traced": traced,
              "coverage_by_command": {c: covered[c] / wall[c] for c in wall},
              "computed_metrics": sorted(layers.COMPUTED), "spans": len(tracer.spans)}
    return samples, detail


def bench(workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    """Run one workload; (the result line's object, path of the run record)."""
    run = Run(workload, seed)
    if traced:
        samples, detail = measure_layers(run)
        units = dict(layers.PER_LAYER)
    else:
        samples, detail = measure_end_to_end(run, seconds)
        units = END_TO_END_UNITS
    stats = {name: _summary(vals) for name, vals in samples.items()}
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": {name: {"value": stats[name]["median"], "unit": units[name]}
                    for name in units if name not in UNGATED},
    }
    record = {"workload": workload, "trace": int(traced), "seconds": seconds,
              "environment": _environment(seed), "result": result, "units": units,
              "metrics": stats, "samples": samples, "problems": run.problems, "detail": detail}
    path = run.dir / "record.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, path


def _report(workload: str, seed: int, result: dict, path: Path) -> None:
    record = json.loads(path.read_text())
    parts = [f"{name} {record['metrics'][name]['median']:.6g} {unit}"
             for name, unit in record["units"].items()]
    frac = result["failed"] / result["attempted"]
    parts.append(f"failed_frac {frac:.6g} fraction ({result['failed']}/{result['attempted']})")
    print(f"{workload} seed={seed}: " + " | ".join(parts))
    for miss in record["problems"]:
        print(f"  MISS {miss['command']}: {'; '.join(miss['problems'])}")
    print(f"  record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "amalgam" / "cli.py").is_file():
        print(f"error: no amalgam sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        result, record = bench(name, args.seed, args.seconds, bool(args.trace))
        _report(name, args.seed, result, record)
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
