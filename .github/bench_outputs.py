"""Run every argv list of bench/workloads.py once, in process, and keep the outputs.

    PYTHONPATH=<src> python .github/bench_outputs.py <out>

imports `amalgam` from <src> and the command lists from this checkout's
bench/workloads.py, and runs each workload's commands in order through
`amalgam.cli.run` with `--seed 1`, command <id> into <out>/<workload>/<id>, with
"{id}" in an argument replaced by that command's directory, as bench/run.py does.
Each command's exit code and stdout go to <out>/<workload>/<id>.stdout, with <out>
written as "OUT".  Two trees made from two source trees compare with
.github/bench_diff.py, which reads the manifests without their wall times and with
each tree's root written as "OUT".
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import amalgam  # noqa: E402
from amalgam.cli import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

out = Path(sys.argv[1]).resolve()
print(f"amalgam from {Path(amalgam.__file__).parent}", file=sys.stderr)
for workload, commands in WORKLOADS.items():
    dirs = {c.id: out / workload / c.id for c in commands}
    for cmd in commands:
        argv = [a.format_map({k: str(v) for k, v in dirs.items()}) for a in cmd.argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(argv + ["--out", str(dirs[cmd.id]), "--seed", "1"])
        text = stdout.getvalue().replace(str(out), "OUT")
        (out / workload / f"{cmd.id}.stdout").write_text(f"exit {code}\n{text}")
