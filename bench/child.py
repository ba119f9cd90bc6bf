"""One benchmark process: set up, run one timed pass, check it, report.

run.py starts a fresh interpreter per pass, so per-process caches warm
up inside the pass the way they do in one ``tandem suite`` invocation.

    python3 bench/child.py --workload W --seed N --workdir DIR --traced 0|1

prints one JSON line: set-up seconds, op latencies, the pass's wall and
injected model time, failures, an output digest, peak RSS and, when
traced, the per-layer sums.  A traced pass also writes its spans to
``spans-<workload>-seed<n>.jsonl`` beside its work directory.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]

import tandem  # noqa: E402

import workload  # noqa: E402
from spantrace import Tracer  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(tandem.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"tandem imported from {tandem.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 2

    inputs = workload.prepare(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - _STARTED

    tracer = Tracer(workload.targets(args.workload, bool(args.traced)))
    with tracer:
        result = workload.run_pass(args.workload, inputs, args.workdir / "out")
    failures, digest = workload.check_pass(args.workload, inputs, result)

    op_name = tracer.targets[0].name
    ops = [s for s in tracer.finished() if s.name == op_name]
    out = {
        "setup_s": setup_s,
        "attempted": result.attempted,
        "failures": failures,
        "wall_s": result.wall_s,
        "injected_s": result.injected_s,
        "workers": workload.WORKERS[args.workload],
        "op_ms": [(s.t1 - s.t0) * 1e3 for s in ops],
        "op_cpu_ms": [s.cpu * 1e3 for s in ops],
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.traced:
        out["layers"] = workload.layer_sums(tracer, result.injected_s)
        tracer.dump(args.workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
