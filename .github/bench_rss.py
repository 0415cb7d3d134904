"""Peak memory of every benchmark command on two source trees, as one Markdown table.

    python .github/bench_rss.py <base src> <head src> <out>

runs each argv list of this checkout's bench/workloads.py as a `python -m amalgam.cli`
subprocess with `--seed 1`, once with PYTHONPATH=<base src> and once with
PYTHONPATH=<head src>, command <id> into <out>/<tree>/<workload>/<id>, with "{id}" in
an argument replaced by that command's directory, as bench/run.py does.  Each
command's maximum RSS is its own, read from os.wait4 as bench/run.py's _spawn reads
it.  The table (command, base MB, head MB, and exit codes other than 0) goes to stdout,
with one more row per workload: its largest command on each tree, the command that sets
the workload's peak_rss_mb in bench/run.py.
"""

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS  # noqa: E402


def max_rss(argv: list, src: str) -> tuple:
    """(exit code, maximum RSS in MB) of one command run on the given source tree."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "amalgam.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


trees = {"base": os.path.abspath(sys.argv[1]), "head": os.path.abspath(sys.argv[2])}
out = Path(sys.argv[3]).resolve()
print("| command | base MB | head MB |\n|---|---|---|")
for workload, commands in WORKLOADS.items():
    # each tree runs the whole workload in order: a command may read an earlier one's output
    rows = {c.id: [] for c in commands}
    peaks = []
    for tree, src in trees.items():
        dirs = {c.id: out / tree / workload / c.id for c in commands}
        largest = (0.0, "")
        for cmd in commands:
            argv = [a.format_map({k: str(v) for k, v in dirs.items()}) for a in cmd.argv]
            code, mb = max_rss(argv + ["--out", str(dirs[cmd.id]), "--seed", "1"], src)
            rows[cmd.id].append(f"{mb:.1f}" + ("" if code == 0 else f" (exit {code})"))
            largest = max(largest, (mb, cmd.id))
        peaks.append(f"**{largest[0]:.1f}** ({largest[1]})")
    for cid, (base, head) in rows.items():
        print(f"| {workload}/{cid} | {base} | {head} |")
    print(f"| **{workload} peak** | {peaks[0]} | {peaks[1]} |")
