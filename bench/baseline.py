"""Record bench/baseline.json: every workload over ten seeds, plus a traced run.

    python3 bench/baseline.py

For each workload it runs ``run.py --trace 0`` once per seed, each run
as long as BENCHMARK.json's ``run_seconds``, and records every
end-to-end metric's values, median, quartiles and spread (the distance
between the first and third quartile as a share of the median).  Then it
runs ``run.py --trace 1`` on the first seed for the per-layer numbers and
the tracing overhead.  Any failing run stops the recording.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from workload import WORKLOADS  # noqa: E402

SEEDS = tuple(range(1, 11))
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
OUT = BENCH_DIR / "baseline.json"


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    record: dict = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(_run(workload, seed, trace=0))
            print(workload, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
        end_to_end = {
            name: {"unit": unit["unit"], **_summary([r["metrics"][name]["value"] for r in runs])}
            for name, unit in runs[0]["metrics"].items()
        }
        traced = _run(workload, SEEDS[0], trace=1)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {"seed": SEEDS[0], **traced["metrics"]},
        }
        for name, row in end_to_end.items():
            print(f"{workload} {name:<22} median {row['median']:10.4f} spread {row['spread']:.4f}", flush=True)
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
