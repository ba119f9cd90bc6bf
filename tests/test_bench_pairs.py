"""The pair driver's verdicts on fixed numbers."""

from __future__ import annotations

import importlib.util
import subprocess

from conftest import REPO

spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def runs(ops_per_s, op_ms_p50, failed=0):
    return [
        {
            "correct": failed == 0,
            "attempted": 100,
            "failed": failed,
            "metrics": {"ops_per_s": {"value": ops}, "op_ms_p50": {"value": ms}},
        }
        for ops, ms in zip(ops_per_s, op_ms_p50)
    ]


def test_a_clear_gain_meets_the_claim_rule():
    parent = runs([100, 102, 98, 101, 99, 103, 97, 100, 102, 98], [10.0] * 10)
    # Nine of ten pairs won; the median moves by 20 against a parent IQR of 4.
    change_ops = [120, 122, 118, 121, 119, 123, 117, 120, 122, 95]
    change = runs(change_ops, [10.0] * 10)
    ops = bench_pairs.summarize(parent, change, METRICS)["metrics"]["ops_per_s"]
    assert ops["change_wins"] == 9
    assert ops["parent"]["median"] == 100.0
    assert (ops["parent"]["q1"], ops["parent"]["q3"]) == (98.0, 102.0)
    assert ops["parent_iqr"] == 4.0
    assert ops["change"]["median"] == 120.0
    assert ops["median_better_by"] == 0.2
    assert ops["claim_met"] is True
    assert ops["regression"] == "within bound"
    # The same wins do not count when the change fails an operation the parent did not.
    failing = bench_pairs.summarize(parent, runs(change_ops, [10.0] * 10, failed=1), METRICS)
    assert failing["metrics"]["ops_per_s"]["change_wins"] == 9
    assert failing["metrics"]["ops_per_s"]["claim_met"] is False


def test_fewer_than_ten_pairs_do_not_meet_it():
    # Six of six pairs win by 20 against a parent IQR of 2.5.
    parent, change = runs([100, 102, 98, 101, 99, 100], [10.0] * 6), runs([120] * 6, [10.0] * 6)
    ops = bench_pairs.summarize(parent, change, METRICS)["metrics"]["ops_per_s"]
    assert (ops["change_wins"], ops["median_better_by"]) == (6, 0.2)
    assert ops["claim_met"] is False


def test_eight_wins_or_a_small_move_do_not_meet_it():
    parent = runs([100] * 10, [10.0, 9.0, 11.0, 10.0, 8.0, 12.0, 10.0, 10.0, 9.0, 11.0])
    change = runs([110] * 8 + [90, 90], [9.9, 8.9, 10.9, 9.9, 7.9, 11.9, 9.9, 9.9, 9.0, 11.0])
    judged = bench_pairs.summarize(parent, change, METRICS)["metrics"]
    assert (judged["ops_per_s"]["change_wins"], judged["ops_per_s"]["claim_met"]) == (8, False)
    # Lower is better: eight wins, and a median move of 0.1 ms inside a 1.5 ms IQR.
    assert judged["op_ms_p50"]["change_wins"] == 8
    assert judged["op_ms_p50"]["claim_met"] is False


def test_regressions_are_judged_against_the_bound_and_the_spread():
    steady = [100.0] * 10
    wide = [60, 140, 60, 140, 60, 140, 60, 140, 60, 140]
    summary = bench_pairs.summarize(runs(steady, wide), runs([70.0] * 10, wide, failed=2), METRICS)
    assert summary["metrics"]["ops_per_s"]["regression"] == "worse than bound"
    assert summary["metrics"]["op_ms_p50"]["regression"] == "unresolved"
    assert summary["correct"] == {"parent": True, "change": False}
    assert summary["failed"] == {"parent": 0, "change": 20}


def test_lines_under_sums_numstat_per_directory_and_counts_a_binary_file_as_zero():
    numstat = (
        "12\t30\tsrc/tandem/protocol.py\n"
        "5\t0\tsrc/tandem/harness.py\n"
        "-\t-\tsrc/tandem/data/logo.png\n"
        "40\t9\ttests/test_protocol.py\n"
        "3\t1\tbench/tests/test_bench_gate.py\n"
        "2\t2\tsrcdump/notes.txt\n"
    )
    assert bench_pairs.lines_under("src", numstat) == {"added": 17, "deleted": 30, "net": -13}
    assert bench_pairs.lines_under("tests", numstat) == {"added": 40, "deleted": 9, "net": 31}
    assert bench_pairs.lines_under("src", "") == {"added": 0, "deleted": 0, "net": 0}


def test_extract_writes_a_revisions_files_and_leaves_git_alone(tmp_path):
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)

    git("init", "-q")
    (repo / "bench" / "run.py").write_text("first\n", encoding="utf-8")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "first")
    (repo / "bench" / "run.py").write_text("second\n", encoding="utf-8")
    (repo / "untracked.txt").write_text("not committed\n", encoding="utf-8")
    git("add", "bench")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "second")

    dest = tmp_path / "parent"
    bench_pairs.extract(repo, "HEAD~1", dest)
    assert sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*")) == [
        "bench", "bench/run.py"
    ]
    assert (dest / "bench" / "run.py").read_text(encoding="utf-8") == "first\n"
    assert not (repo / ".git" / "worktrees").exists()
