"""Peak memory and wall time of every benchmark command on two source trees, as one
Markdown table.

    python .github/bench_rss.py <base src> <head src> <out>

runs each argv list of this checkout's bench/workloads.py as a `python -m amalgam.cli`
subprocess with `--seed 1` on copies of <base src> and of <head src>, command <id> into
<out>/<copy>/<workload>/<id>, with "{id}" in an argument replaced by that command's
directory, as bench/run.py does.  The benchmark's commands run with no bytecode cache, so
each compiles the amalgam modules it imports: each tree is copied to a temporary
directory without its __pycache__ folders and runs with PYTHONDONTWRITEBYTECODE=1, where
a tree that pytest has run would read lower.  What the compiler leaves behind moves a
command's maximum RSS by a few tenths of a MB with edits to code the command never runs,
so each tree has a second copy, compiled with compileall before the runs and run with
PYTHONDONTWRITEBYTECODE=1 as well: a change that moves both columns changed the working
set, one that moves only the first moved the compile's leftovers.  Each command runs
RUNS times per copy, base and head alternating and taking turns to go first, so that a
drift of the machine's speed falls on both.  Each run's maximum RSS is its own, read from
os.wait4 as bench/run.py's _spawn reads it, and its wall time spans the subprocess from
start to exit.  The table (command; base and head median MB, without and with bytecode;
base and head median ms without bytecode; exit codes other than 0) goes to stdout, with
one more row per workload: its largest command on each copy, the command that sets the
workload's peak_rss_mb in bench/run.py.
"""

import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS  # noqa: E402

RUNS = 3


def measure(argv: list, src: str) -> tuple:
    """(exit code, maximum RSS in MB, wall time in ms) of one command run on the given
    source tree."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "amalgam.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = 1000.0 * (time.perf_counter() - start)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, wall


copies = Path(tempfile.mkdtemp())
trees = {}
for tree, src in (("base", sys.argv[1]), ("head", sys.argv[2])):
    for copy in (tree, f"{tree} pyc"):
        trees[copy] = str(shutil.copytree(src, copies / copy.replace(" ", "-"),
                                          ignore=shutil.ignore_patterns("__pycache__")))
    compileall.compile_dir(trees[f"{tree} pyc"], quiet=1)
out = Path(sys.argv[3]).resolve()
print("| command | base MB | head MB | base MB (pyc) | head MB (pyc) | base ms | head ms |\n"
      "|---|---|---|---|---|---|---|")
for workload, commands in WORKLOADS.items():
    # each copy runs the workload's commands in order: a command may read an earlier
    # one's output in its own copy
    dirs = {copy: {c.id: out / copy.replace(" ", "-") / workload / c.id for c in commands}
            for copy in trees}
    largest = dict.fromkeys(trees, (0.0, ""))
    for cmd in commands:
        runs = {copy: [] for copy in trees}
        for i in range(RUNS):
            for copy, src in list(trees.items())[::1 if i % 2 == 0 else -1]:
                paths = {k: str(v) for k, v in dirs[copy].items()}
                argv = [a.format_map(paths) for a in cmd.argv]
                runs[copy].append(measure(argv + ["--out", paths[cmd.id], "--seed", "1"], src))
        mb, ms = {}, {}
        for copy, results in runs.items():
            codes = sorted({code for code, _, _ in results} - {0})
            mb[copy] = statistics.median(r[1] for r in results)
            ms[copy] = f"{statistics.median(r[2] for r in results):.0f}" + "".join(
                f" (exit {code})" for code in codes)
            largest[copy] = max(largest[copy], (mb[copy], cmd.id))
        print(f"| {workload}/{cmd.id} | {mb['base']:.1f} | {mb['head']:.1f} "
              f"| {mb['base pyc']:.1f} | {mb['head pyc']:.1f} | {ms['base']} | {ms['head']} |")
    peaks = [f"**{largest[copy][0]:.1f}** ({largest[copy][1]})"
             for copy in ("base", "head", "base pyc", "head pyc")]
    print(f"| **{workload} peak** | {' | '.join(peaks)} | | |")
shutil.rmtree(copies)
