"""Peak memory and wall time of every benchmark command on two source trees, as one
Markdown table.

    python .github/bench_rss.py <base src> <head src> <out>

runs each argv list of this checkout's bench/workloads.py as a `python -m amalgam.cli`
subprocess with `--seed 1` on a copy of <base src> and on a copy of <head src>, command
<id> into <out>/<tree>/<workload>/<id>, with "{id}" in an argument replaced by that
command's directory, as bench/run.py does.  The benchmark's commands run with no bytecode
cache, so each compiles the amalgam modules it imports: each tree is copied to a temporary
directory without its __pycache__ folders and runs with PYTHONDONTWRITEBYTECODE=1, where
a tree that pytest has run would read lower.  Each command runs RUNS times per tree,
base and head alternating and taking turns to go first, so that a drift of the machine's
speed falls on both.  Each run's maximum RSS is its own, read from os.wait4 as
bench/run.py's _spawn reads it, and its wall time spans the subprocess from start to
exit.  The table (command, base and head median MB, base and head median ms, and exit
codes other than 0) goes to stdout, with one more row per workload: its largest command
on each tree, the command that sets the workload's peak_rss_mb in bench/run.py.
"""

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
trees = {tree: str(shutil.copytree(src, copies / tree,
                                   ignore=shutil.ignore_patterns("__pycache__")))
         for tree, src in (("base", sys.argv[1]), ("head", sys.argv[2]))}
out = Path(sys.argv[3]).resolve()
print("| command | base MB | head MB | base ms | head ms |\n|---|---|---|---|---|")
for workload, commands in WORKLOADS.items():
    # each tree runs the workload's commands in order: a command may read an earlier
    # one's output in its own tree
    dirs = {tree: {c.id: out / tree / workload / c.id for c in commands} for tree in trees}
    largest = dict.fromkeys(trees, (0.0, ""))
    for cmd in commands:
        runs = {tree: [] for tree in trees}
        for i in range(RUNS):
            for tree, src in list(trees.items())[::1 if i % 2 == 0 else -1]:
                paths = {k: str(v) for k, v in dirs[tree].items()}
                argv = [a.format_map(paths) for a in cmd.argv]
                runs[tree].append(measure(argv + ["--out", paths[cmd.id], "--seed", "1"], src))
        mb, ms = {}, {}
        for tree, results in runs.items():
            codes = sorted({code for code, _, _ in results} - {0})
            mb[tree] = statistics.median(r[1] for r in results)
            ms[tree] = f"{statistics.median(r[2] for r in results):.0f}" + "".join(
                f" (exit {code})" for code in codes)
            largest[tree] = max(largest[tree], (mb[tree], cmd.id))
        print(f"| {workload}/{cmd.id} | {mb['base']:.1f} | {mb['head']:.1f} "
              f"| {ms['base']} | {ms['head']} |")
    peaks = [f"**{largest[tree][0]:.1f}** ({largest[tree][1]})" for tree in trees]
    print(f"| **{workload} peak** | {peaks[0]} | {peaks[1]} | | |")
shutil.rmtree(copies)
