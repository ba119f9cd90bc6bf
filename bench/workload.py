"""The benchmark's three workloads, their correctness gate and layer sums.

Each workload drives the public tandem API the way the command line
does: ``load_suite`` on a manifest, ``cli.make_backend_factory`` on a
``scripted:<dir>`` spec, ``harness.run_suite`` with an ``--out``
directory, and ``harness.replay_transcript`` per transcript.  Harness
functions are looked up on their module at call time, so the tracer's
wrappers see the calls.

    scripted-suite    run_suite, parallel=1, scripted backend
    latency-parallel  the same suite, every complete() behind a fixed
                      in-process 20 ms sleep, parallel=2
    replay-verify     the scripted-suite transcripts, recorded during
                      set-up, each checked with replay_transcript
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import tandem.cli
import tandem.harness as harness
from tandem.protocol import Budgets
from tandem.transcript import read_transcript, strip_volatile

import taskgen
from spantrace import LAYERS, Target, Tracer

__all__ = [
    "PER_LAYER",
    "WORKLOADS",
    "LatencyBackend",
    "PassResult",
    "TaskBackends",
    "check_pass",
    "layer_sums",
    "per_layer_metrics",
    "prepare",
    "run_pass",
    "targets",
]

WORKLOADS = ("scripted-suite", "latency-parallel", "replay-verify")
INJECTED_LATENCY_S = 0.020
# Worker threads per workload; never more than the 2 cores of the
# machine the benchmark was sized on.
WORKERS = {"scripted-suite": 1, "latency-parallel": 2, "replay-verify": 1}


class LatencyBackend:
    """Sleeps a fixed time, then delegates: a model with constant latency."""

    def __init__(self, inner, latency_s: float) -> None:
        self.inner = inner
        self.latency_s = latency_s
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        time.sleep(self.latency_s)
        return self.inner.complete(request)


class TaskBackends:
    """The backend factory run_suite calls, wrapping the CLI's.

    With a latency set, each backend sleeps before every completion.  A
    named callable, so the tracer can open each task's op where run_suite
    starts the task: at this call, just before run_single.
    """

    def __init__(self, factory, latency_s: float) -> None:
        self.factory = factory
        self.latency_s = latency_s
        self.backends: list[LatencyBackend] = []

    def __call__(self, task):
        backend = self.factory(task)
        if self.latency_s:
            backend = LatencyBackend(backend, self.latency_s)
            self.backends.append(backend)
        return backend


def targets(workload: str, traced: bool) -> tuple[Target, ...]:
    """The op boundary, plus every layer boundary when traced."""
    if workload == "replay-verify":
        op = Target("harness.replay_transcript", "tandem.harness:replay_transcript", op=True)
        complete = "tandem.transcript:ReplayBackend.complete"
    else:
        # A task's op spans building its backend (the per-task script
        # load) and running it, as one task of `tandem suite` does.
        op = Target(
            "harness.run_single",
            "tandem.harness:run_single",
            op=True,
            begin="workload:TaskBackends.__call__",
        )
        complete = (
            "workload:LatencyBackend.complete"
            if workload == "latency-parallel"
            else "tandem.backend:ScriptedBackend.complete"
        )
    if not traced:
        return (op,)
    return (op, Target("backend.complete", complete), *LAYERS)


# =====================================================================
# Passes
# =====================================================================


@dataclass
class Inputs:
    dir: Path
    plan: dict
    transcripts: list[tuple[str, Path]] = field(default_factory=list)


@dataclass
class PassResult:
    """A timed pass: its wall time, injected model time and raw results.

    `results` holds (group, SuiteReport, out dir) per suite call, or
    (task id, ReplayResult) per replayed transcript.
    """

    attempted: int
    wall_s: float
    injected_s: float
    results: list


def prepare(workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate the seeded inputs; replay-verify also records transcripts."""
    inputs = Inputs(dir=workdir / "inputs", plan=taskgen.generate(seed, workdir / "inputs"))
    if workload == "replay-verify":
        recorded = _suite_pass(inputs, workdir / "recorded", workers=1, latency_s=0.0)
        failures, _ = check_pass("scripted-suite", inputs, recorded)
        if failures:
            raise RuntimeError("recording for replay failed: " + "; ".join(failures))
        for _, report, _ in recorded.results:
            inputs.transcripts += [(r.task.id, Path(r.transcript_path)) for r in report.runs]
    return inputs


def run_pass(workload: str, inputs: Inputs, out: Path) -> PassResult:
    """One timed pass over the seeded task set."""
    if workload == "replay-verify":
        started = time.perf_counter()
        results = [(task_id, harness.replay_transcript(path)) for task_id, path in inputs.transcripts]
        return PassResult(len(results), time.perf_counter() - started, 0.0, results)
    latency = INJECTED_LATENCY_S if workload == "latency-parallel" else 0.0
    return _suite_pass(inputs, out, workers=WORKERS[workload], latency_s=latency)


def _suite_pass(inputs: Inputs, out: Path, workers: int, latency_s: float) -> PassResult:
    factories: list[TaskBackends] = []
    results = []
    started = time.perf_counter()
    for group in inputs.plan["groups"]:
        tasks = harness.load_suite(inputs.dir / group["manifest"])
        factory, label = tandem.cli.make_backend_factory(
            f"scripted:{inputs.dir / 'scripts'}", argparse.Namespace(), tasks
        )
        factories.append(TaskBackends(factory, latency_s))
        group_out = out / Path(group["manifest"]).stem
        report = harness.run_suite(
            tasks,
            factories[-1],
            Budgets(max_exchanges=group["max_exchanges"]),
            out_dir=group_out,
            parallel=workers,
            backend_label=label,
        )
        results.append((group, report, group_out))
    wall = time.perf_counter() - started
    attempted = sum(len(report.runs) for _, report, _ in results)
    injected = sum(b.calls for f in factories for b in f.backends) * latency_s
    return PassResult(attempted, wall, injected, results)


# =====================================================================
# Correctness gate
# =====================================================================


def check_pass(workload: str, inputs: Inputs, result: PassResult) -> tuple[list[str], str]:
    """(one message per failed op, digest of the pass's outputs).

    The digest covers every transcript minus its wall-clock fields, or
    every replay verdict, so two passes over the same inputs must agree.
    """
    expected = inputs.plan["expected"]
    failures: list[str] = []
    digest = hashlib.sha256()
    if workload == "replay-verify":
        for task_id, replay in result.results:
            got = _outcome(replay.outcome) if replay.outcome is not None else None
            if not replay.ok or got != expected[task_id]:
                failures.append(
                    f"{task_id}: replay ok={replay.ok} ({replay.message}); "
                    f"outcome {got} != expected {expected[task_id]}"
                )
            digest.update(json.dumps([task_id, replay.ok, got], sort_keys=True).encode())
        return failures, digest.hexdigest()
    for _, report, group_out in result.results:
        failures += check_suite(expected, report, group_out / "report.json")
        for run in report.runs:
            digest.update(_transcript_digest(Path(run.transcript_path)))
    return failures, digest.hexdigest()


def _outcome(outcome) -> dict:
    return {
        "success": outcome.success,
        "termination": outcome.termination.value,
        "exchanges_used": outcome.exchanges_used,
    }


def check_suite(expected: dict, report, report_path: Path) -> list[str]:
    """One message per failed op: outcomes against expected, report.json recounted.

    A report.json that does not recount fails every op of its suite.
    """
    failures, failed = [], set()
    for run in report.runs:
        got, want = _outcome(run.outcome), expected.get(run.task.id)
        if got != want:
            failures.append(f"{run.task.id}: outcome {got} != expected {want}")
            failed.add(run.task.id)
    problems = _recount(harness.load_report(report_path), report)
    if problems:
        failures += [
            f"{run.task.id}: {report_path.name} does not recount: {'; '.join(problems)}"
            for run in report.runs
            if run.task.id not in failed
        ]
    return failures


def _recount(raw: dict, report) -> list[str]:
    rows = raw.get("tasks", [])
    problems = []
    got_rows = [(r.get("task_id"), r.get("success"), r.get("termination"), r.get("exchanges_used")) for r in rows]
    want_rows = [
        (r.outcome.task_id, r.outcome.success, r.outcome.termination.value, r.outcome.exchanges_used)
        for r in report.runs
    ]
    if got_rows != want_rows:
        problems.append("task rows differ from the run outcomes")
    if raw.get("n_tasks") != len(rows) or raw.get("n_success") != sum(bool(r.get("success")) for r in rows):
        problems.append("n_tasks/n_success do not match the rows")
    for key, table in (("site_category", "categories"), ("difficulty", "difficulties")):
        counts: dict[str, tuple[int, int]] = {}
        for row in rows:
            group = row.get(key) or "uncategorized"
            s, n = counts.get(group, (0, 0))
            counts[group] = (s + bool(row.get("success")), n + 1)
        fresh = {g: harness.success_rate(s, n) for g, (s, n) in counts.items()}
        stored = {g: Decimal(str(v)) for g, v in raw.get(table, {}).items()}
        if fresh != stored:
            problems.append(f"{table} rates {stored} != recounted {fresh}")
        if key == "site_category" and counts:
            if Decimal(str(raw.get("overall_sr"))) != harness.overall_rate(counts):
                problems.append("overall_sr does not recount")
    return problems


def _transcript_digest(path: Path) -> bytes:
    """Transcript minus wall-clock fields and the run-specific backend label."""
    header, events, _ = read_transcript(path)
    header = {k: v for k, v in header.items() if k != "backend"}
    body = [header] + [strip_volatile(e) for e in events]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).digest()


# =====================================================================
# Per-layer metrics
# =====================================================================


def layer_sums(tracer: Tracer, injected_s: float) -> dict[str, float]:
    """Additive per-layer totals of one traced pass (calls, self ms, ...)."""
    sums: dict[str, float] = {}
    for name, row in tracer.totals().items():
        sums[f"{name}.calls"] = row["calls"]
        sums[f"{name}.ok"] = row["calls"] - row["failed"]
        sums[f"{name}.self_ms"] = row["self_s"] * 1e3
        if name == "harness.run_single":
            sums[f"{name}.cpu_ms"] = row["cpu_s"] * 1e3
            sums[f"{name}.wait_ms"] = (row["wall_s"] - row["cpu_s"] - injected_s) * 1e3
    return sums


# Per-layer metrics, per op.  "<layer>.ms" and "<layer>.self_ms" are both
# self time: span duration minus the time its child spans cover.
PER_LAYER = (
    "webenv.load_fixture.calls",
    "webenv.load_fixture.ms",
    "backend.load_script_file.calls",
    "backend.load_script_file.ms",
    "prompts.libraries.calls",
    "prompts.get.calls",
    "prompts.get.ms",
    "prompts.context_block.ms",
    "webenv.apply.calls",
    "webenv.apply.ms",
    "webenv.observe.calls",
    "webenv.observe.ms",
    "webenv.render_nodes.calls",
    "webenv.render_nodes.ms",
    "webenv.renders_per_action",
    "transcript.write_transcript.ms",
    "protocol.to_json.ms",
    "transcript.append.calls",
    "transcript.read_transcript.ms",
    "protocol.from_dict.ms",
    "transcript.first_divergence.ms",
    "backend.call_llm.calls",
    "backend.call_llm.self_ms",
    "backend.complete.ms",
    "harness.run_single.self_ms",
    "harness.run_single.cpu_ms",
    "harness.run_single.wait_ms",
    "grammar.parse.calls",
    "grammar.parse.ms",
    "grammar.parse_ok_ratio",
    "planner.render_prompt.ms",
    "executor.render_prompt.ms",
    "executor.execute_actions.self_ms",
    "orchestrator.run_task.self_ms",
    "orchestrator.step.calls",
    "harness.run_suite.self_ms",
    "harness.replay_transcript.self_ms",
)
# The metrics that are ratios of two sums rather than per-op values.
RATIOS = {
    "webenv.renders_per_action": ("webenv.render_nodes.calls", "webenv.apply.calls"),
    "grammar.parse_ok_ratio": ("grammar.parse.ok", "grammar.parse.calls"),
}


def per_layer_metrics(sums: dict[str, float], ops: int) -> dict[str, tuple[float, str]]:
    """(value, unit) per metric from the layer sums of `ops` traced ops."""
    out = {}
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = (sums.get(num, 0) / sums[den] if sums.get(den) else 0.0, "ratio")
        elif name.endswith(".calls"):
            out[name] = (sums.get(name, 0) / ops, "calls/op")
        else:
            key = name.removesuffix(".ms") + ".self_ms" if name.endswith(".ms") else name
            out[name] = (sums.get(key, 0.0) / ops, "ms/op")
    return out
