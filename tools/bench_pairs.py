"""Run the benchmark in alternating parent/change pairs and judge the result.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload replay-verify --workload scripted-suite --pairs 10 --out pairs.json

Each side runs from the committed files of its revision, extracted with
`git archive` into a temporary directory that is removed when the driver
ends, however it ends; the repository's `.git` is only read.
Pair i (from 0) runs `bench/run.py --workload W --seed i+1 --seconds S
--trace 0` once on each side, back to back, with S BENCHMARK.json's
`run_seconds`; the parent runs first in even pairs and the change first
in odd ones.  For every end-to-end metric that BENCHMARK.json lists, the
summary gives each side's median and quartiles, how many pairs the
change won (ties count for neither), the claim rule (at least ten pairs
ran, every change run is correct, the change fails no more operations
than the parent, wins at least nine tenths of the pairs, and its median
is better by more than the parent's interquartile range) and the regression rule (the change's
median is no worse than the parent's by more than the metric's bound;
"unresolved" when the parent's own spread is wider than the bound and
not every change run beats every parent run).  Seeds 1 to 10 are the
ones bench/baseline.py uses.  The summary also gives the change's
`src_lines` and `tests_lines`: lines added, deleted and net under `src/`
and under `tests/`, from one `git diff --numstat`.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fewer pairs than this reach no claim verdict, however clearly the change wins.
MIN_PAIRS = 10


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Judge paired runs of one workload.

    `parent[i]` and `change[i]` are the last-line JSON objects of pair i's
    two `bench/run.py` runs; `metrics` are BENCHMARK.json's end-to-end
    entries (name, unit, better, bound).
    """
    pairs = len(parent)
    out: dict = {
        "pairs": pairs,
        "correct": {
            "parent": all(run["correct"] for run in parent),
            "change": all(run["correct"] for run in change),
        },
        "failed": {
            "parent": sum(run["failed"] for run in parent),
            "change": sum(run["failed"] for run in change),
        },
        "metrics": {},
    }
    # A gain does not count on too few pairs, or when the change is wrong or
    # fails more operations.
    sound = (
        pairs >= MIN_PAIRS
        and out["correct"]["change"]
        and out["failed"]["change"] <= out["failed"]["parent"]
    )
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        (p_q1, p_median, p_q3), (c_q1, c_median, c_q3) = _quartiles(p), _quartiles(c)
        wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
        gain = sign * (c_median - p_median)  # > 0: the change's median is better
        scale = abs(p_median) or 1.0
        if gain / scale < -metric["bound"]:
            regression = "worse than bound"
        elif (p_q3 - p_q1) / scale > metric["bound"] and not (
            min(sign * v for v in c) > max(sign * v for v in p)
        ):
            regression = "unresolved"
        else:
            regression = "within bound"
        out["metrics"][name] = {
            "unit": metric["unit"],
            "parent": {"median": p_median, "q1": p_q1, "q3": p_q3, "values": p},
            "change": {"median": c_median, "q1": c_q1, "q3": c_q3, "values": c},
            "change_wins": wins,
            "median_better_by": gain / scale,
            "parent_iqr": p_q3 - p_q1,
            "claim_met": sound and wins >= math.ceil(0.9 * pairs) and gain > p_q3 - p_q1,
            "regression": regression,
        }
    return out


def lines_under(top: str, numstat: str) -> dict:
    """Lines added, deleted and net under directory `top` over `git diff
    --numstat --no-renames` output; a binary file's `-` is 0."""
    added = deleted = 0
    for line in numstat.splitlines():
        plus, minus, path = line.split("\t", 2)
        if not path.startswith(f"{top}/"):
            continue
        added += int(plus) if plus != "-" else 0
        deleted += int(minus) if minus != "-" else 0
    return {"added": added, "deleted": deleted, "net": added - deleted}


def _git(*args: str) -> str:
    cmd = ["git", "-C", str(ROOT), *args]
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


def extract(repo: Path, rev: str, dest: Path) -> None:
    """Write the files committed at `rev` in `repo` into directory `dest`."""
    cmd = ["git", "-C", str(repo), "archive", "--format=tar", rev]
    tar = subprocess.run(cmd, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tree.name}: bench/run.py printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])  # a failed gate still reports, with correct: false


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", required=True, help="revision of the change side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="file for the JSON summary (default: stdout)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, metrics = benchmark["run_seconds"], benchmark["end_to_end"]

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {side: scratch / side for side in ("parent", "change")}
    numstat = _git("diff", "--numstat", "--no-renames", args.parent, args.change)
    summary = {
        "parent": args.parent,
        "change": args.change,
        "src_lines": lines_under("src", numstat),
        "tests_lines": lines_under("tests", numstat),
        "seconds": seconds,
        "workloads": {},
    }
    try:
        for side, tree in trees.items():
            extract(ROOT, getattr(args, side), tree)
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("change", "parent") if i % 2 else ("parent", "change")
                for side in order:
                    runs[side].append(_bench(trees[side], workload, i + 1, seconds))
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"{runs[side][-1]['metrics']['ops_per_s']['value']:.1f} ops/s",
                          file=sys.stderr)
            summary["workloads"][workload] = summarize(runs["parent"], runs["change"], metrics)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
