"""The tandem benchmark: one command per workload and seed.

    python3 bench/run.py --workload scripted-suite --seed 1 --seconds 20 --trace 0

Runs fresh child interpreters (bench/child.py) one after another, one
timed pass each, until ``--seconds`` have passed and at least
MIN_PASSES passes and MIN_OPS ops are done.  Load is one closed loop in
one process at a time.  Prints each metric by name with its unit and
sample count, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` passes alternate untraced and traced; the metrics are the
per-layer ones from the traced passes plus the tracing overhead, the
traced passes' mean op time over the untraced passes'.

Exit status is 0 only when every op's outcome matched its expected value
and every pass produced the same outputs (transcripts minus wall-clock
fields, or replay verdicts).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
MIN_OPS = 100
MIN_PASSES = 4
CHILD_TIMEOUT_S = 150


def _run_child(workload: str, seed: int, traced: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--traced", str(int(traced)),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark pass exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(passes: list[dict]) -> tuple[dict, list[str]]:
    # Throughput and efficiency pool every pass (total over total): on a
    # host whose speed swings within seconds this is steadier than the
    # median of per-pass rates.
    op_ms = [ms for p in passes for ms in p["op_ms"]]
    wall = sum(p["wall_s"] for p in passes)
    if passes[0]["injected_s"]:
        # Injected model seconds spread over the workers, against pass wall.
        injected = sum(p["injected_s"] for p in passes)
        efficiency = sum(p["injected_s"] / p["workers"] for p in passes) / wall
        efficiency_note = f"{injected:.2f} s injected model time / {passes[0]['workers']} workers / {wall:.2f} s wall"
    else:
        # One worker and no injected latency: the share of op wall time the
        # worker spent on its own CPU rather than waiting.  A faster op
        # shrinks both sides alike.
        cpu_s = sum(ms for p in passes for ms in p["op_cpu_ms"]) / 1e3
        efficiency = cpu_s / (sum(op_ms) / 1e3)
        efficiency_note = f"{cpu_s:.2f} s op thread CPU / {sum(op_ms) / 1e3:.2f} s op wall"
    n, k = len(op_ms), len(passes)
    rows = {
        "ops_per_s": (n / wall, "1/s", f"{n} ops over {wall:.2f} s of {k} passes"),
        "op_ms_p50": (statistics.median(op_ms), "ms", f"n={n} ops"),
        "op_ms_p90": (statistics.quantiles(op_ms, n=10, method="inclusive")[8], "ms", f"n={n} ops"),
        "parallel_efficiency": (efficiency, "ratio", efficiency_note),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s", f"median of {k} set-ups"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB", f"median of {k} processes"),
    }
    return {name: (value, unit) for name, (value, unit, _) in rows.items()}, [
        f"  {name:<22} {value:>12.4f} {unit:<6} ({note})" for name, (value, unit, note) in rows.items()
    ]


def _per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    from workload import per_layer_metrics

    ops = sum(len(p["op_ms"]) for p in traced)
    sums: dict[str, float] = {}
    for p in traced:
        for key, value in p["layers"].items():
            sums[key] = sums.get(key, 0.0) + value
    metrics = per_layer_metrics(sums, ops)
    plain_ms = statistics.fmean(ms for p in plain for ms in p["op_ms"])
    traced_ms = statistics.fmean(ms for p in traced for ms in p["op_ms"])
    metrics["tracing.overhead_pct"] = ((traced_ms / plain_ms - 1) * 100, "%")
    lines = [f"  {name:<36} {value:>12.4f} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"  (per op over {ops} traced ops in {len(traced)} passes; overhead against "
        f"{sum(len(p['op_ms']) for p in plain)} untraced ops: {traced_ms:.3f} vs {plain_ms:.3f} ms mean)"
    )
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "tandem" / "__init__.py").is_file():
        print(f"error: no tandem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workload

    parser = argparse.ArgumentParser(description="tandem benchmark")
    parser.add_argument("--workload", choices=workload.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(_run_child(args.workload, args.seed, traced))
        passes[-1]["traced"] = traced
        if (
            time.perf_counter() - started >= args.seconds
            and len(passes) >= MIN_PASSES
            and sum(len(p["op_ms"]) for p in passes) >= MIN_OPS
        ):
            break

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = {p["digest"] for p in passes}
    correct = not failures and len(digests) == 1

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, {attempted} ops")
    if args.trace:
        metrics, lines = _per_layer(
            [p for p in passes if not p["traced"]], [p for p in passes if p["traced"]]
        )
    else:
        metrics, lines = _end_to_end(passes)
    print("\n".join(lines))
    print(f"  {'op_fail_frac':<22} {len(failures) / attempted:>12.4f} ratio  ({len(failures)}/{attempted} ops)")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    if len(digests) != 1:
        print(f"  FAILED passes over the same inputs produced {len(digests)} different outputs")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
