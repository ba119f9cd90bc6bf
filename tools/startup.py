"""Measure tandem's start-up at two revisions, side by side.

    python3 tools/startup.py --parent HEAD~1 --change HEAD --runs 7

Each side runs from the committed files of its revision, extracted with
`bench_pairs.extract` into a temporary directory that is removed when the
probe ends, however it ends.  Run i (from 0) measures each side in turn,
the parent first in even runs and the change first in odd ones:

  import_cached_*     a fresh interpreter's in-process `import tandem.cli`
                      time and its peak RSS (ru_maxrss), with bytecode
                      cached under a private temporary PYTHONPYCACHEPREFIX
                      that one warm-up import and one warm-up live run fill
  import_compiling_*  the same with PYTHONDONTWRITEBYTECODE=1, so tandem
                      compiles from source each time
  replay_wall_ms      the wall time of `tandem replay
                      tests/recorded/scn-overrule.transcript.jsonl`, with
                      bytecode cached
  live_first_request_ms
                      the wall time from launching `tandem run
                      src/tandem/data/tasks/scn-happy.yaml --backend http`
                      to its first POST reaching a loopback stub inside this
                      probe, with bytecode cached; the stub answers 400,
                      which fails without a retry, so the run exits 2 at once

It prints one JSON object: the revisions, the number of runs, per side
each figure's median and values, and the change's median minus the
parent's.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, extract  # noqa: E402

REPLAYED = "tests/recorded/scn-overrule.transcript.jsonl"
LIVE_TASK = "src/tandem/data/tasks/scn-happy.yaml"

# Prints the import's milliseconds, the peak RSS in KiB (ru_maxrss on
# Linux) and the file tandem.cli was imported from.
_IMPORT_PROBE = """\
import resource, time
started = time.perf_counter()
import tandem.cli
ms = (time.perf_counter() - started) * 1e3
print(ms, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, tandem.cli.__file__)
"""


def _env(tree: Path, **extra: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **extra}
    for name in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE"):
        if name not in extra:
            env.pop(name, None)
    return env


def _import(tree: Path, env: dict) -> tuple[float, float]:
    """One fresh interpreter's `import tandem.cli`: milliseconds and peak RSS in MB."""
    cmd = [sys.executable, "-c", _IMPORT_PROBE]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    ms, rss_kib, path = out.split()
    if not Path(path).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"tandem imported from {path}, not from {tree}")
    return float(ms), int(rss_kib) / 1024


def _replay_ms(tree: Path, env: dict) -> float:
    cmd = [sys.executable, "-m", "tandem.cli", "replay", REPLAYED]
    started = time.perf_counter()
    subprocess.run(cmd, cwd=tree, env=env, capture_output=True, check=True)
    return (time.perf_counter() - started) * 1e3


class _Stub(BaseHTTPRequestHandler):
    """Notes in its server's `arrivals` when each POST arrives, then answers 400."""

    def do_POST(self):  # noqa: N802 (stdlib naming)
        self.server.arrivals.append(time.perf_counter())
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_error(400)

    def log_message(self, *args):
        pass


def _first_request_ms(tree: Path, env: dict, stub: HTTPServer) -> float:
    """Milliseconds from launching a live `tandem run` to its first POST reaching `stub`."""
    url = f"http://127.0.0.1:{stub.server_port}/v1/chat/completions"
    cmd = [sys.executable, "-m", "tandem.cli", "run", LIVE_TASK,
           "--backend", "http", "--endpoint", url, "--model", "m"]
    env = {k: v for k, v in env.items() if not k.lower().endswith("_proxy")}
    stub.arrivals = []
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 2 or not stub.arrivals:
        raise SystemExit(f"live run exited {proc.returncode} without a request:\n{proc.stderr}")
    return (stub.arrivals[0] - started) * 1e3


def measure(tree: Path, cache: Path, stub: HTTPServer) -> dict:
    """One run's figures for the tree; `cache` is its bytecode prefix."""
    cached = _env(tree, PYTHONPYCACHEPREFIX=str(cache))
    compiling = _env(tree, PYTHONDONTWRITEBYTECODE="1")
    cached_ms, cached_mb = _import(tree, cached)
    compiling_ms, compiling_mb = _import(tree, compiling)
    return {
        "import_cached_ms": cached_ms,
        "import_cached_rss_mb": cached_mb,
        "import_compiling_ms": compiling_ms,
        "import_compiling_rss_mb": compiling_mb,
        "replay_wall_ms": _replay_ms(tree, cached),
        "live_first_request_ms": _first_request_ms(tree, cached, stub),
    }


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Each side's medians and values, and the change's medians minus the parent's."""
    out: dict = {}
    for side, measured in runs.items():
        out[side] = {
            name: {"median": statistics.median(r[name] for r in measured),
                   "values": [r[name] for r in measured]}
            for name in measured[0]
        }
    out["change_minus_parent"] = {
        name: out["change"][name]["median"] - out["parent"][name]["median"]
        for name in out["parent"]
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", required=True, help="revision of the change side")
    parser.add_argument("--runs", type=int, default=7)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    scratch = Path(tempfile.mkdtemp(prefix="startup-"))
    stub = HTTPServer(("127.0.0.1", 0), _Stub)
    threading.Thread(target=stub.serve_forever, args=(0.01,), daemon=True).start()
    try:
        sides = {}
        for side in ("parent", "change"):
            tree, cache = scratch / side, scratch / f"{side}-pycache"
            extract(ROOT, getattr(args, side), tree)
            cached = _env(tree, PYTHONPYCACHEPREFIX=str(cache))
            _import(tree, cached)  # fills the cache
            _first_request_ms(tree, cached, stub)  # and with the HTTP client's modules
            sides[side] = tree, cache
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.runs):
            for side in ("change", "parent") if i % 2 else ("parent", "change"):
                runs[side].append(measure(*sides[side], stub))
    finally:
        stub.shutdown()
        stub.server_close()
        shutil.rmtree(scratch, ignore_errors=True)

    revisions = {"parent": args.parent, "change": args.change}
    summary = {"revisions": revisions, "runs": args.runs, **summarize(runs)}
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
