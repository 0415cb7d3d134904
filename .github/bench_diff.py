"""Compare two trees of benchmark outputs written by .github/bench_outputs.py.

    python .github/bench_diff.py <base> <head>

prints "benchmark outputs against the base: identical", or "... these differ" and one
line per file whose bytes differ.  A CSV file gets its largest relative difference over
the cells that read as numbers in both trees, or "shape differs" when its rows do not
line up cell for cell; a text cell that differs is named as well.  Any other file is
listed by name.  A manifest.json holds wall times and paths and is skipped.  The exit
status is 0 whatever differs: a change that speeds a computation up may move its
round-off.
"""

import csv
import math
import sys
from pathlib import Path


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_difference(a: Path, b: Path) -> str:
    """The largest relative difference between two CSV files' numeric cells."""
    ra, rb = _rows(a), _rows(b)
    if [len(r) for r in ra] != [len(r) for r in rb]:
        return "shape differs"
    worst, text = 0.0, False
    for row_a, row_b in zip(ra, rb):
        for x, y in zip(row_a, row_b):
            u, v = _number(x), _number(y)
            if u is None or v is None:
                text = text or x != y
            elif u != v and not (math.isnan(u) and math.isnan(v)):
                finite = math.isfinite(u) and math.isfinite(v)
                worst = max(worst, abs(u - v) / max(abs(u), abs(v)) if finite else math.inf)
    return f"largest relative difference {worst:.3g}" + (", text cells differ" if text else "")


def main(base: Path, head: Path) -> list:
    """One line per differing file, in path order."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.name != "manifest.json"}

    ours, theirs = files(base), files(head)
    lines = [f"only in {'base' if rel in ours else 'head'}: {rel}"
             for rel in sorted(ours ^ theirs)]
    for rel in sorted(ours & theirs):
        a, b = base / rel, head / rel
        if a.read_bytes() != b.read_bytes():
            note = f": {csv_difference(a, b)}" if rel.suffix == ".csv" else ""
            lines.append(f"{rel}{note}")
    return lines


if __name__ == "__main__":
    lines = main(Path(sys.argv[1]), Path(sys.argv[2]))
    head = "benchmark outputs against the base: " + ("these differ" if lines else "identical")
    print("\n".join([head] + lines))
