"""Batch evaluation: task files, suite manifests, aggregation, replay.

Success rates follow the convention 100 * n_success / n_tasks rounded
half-up to one decimal.  The overall rate over categories of equal size
is the unweighted mean of the per-category rates; with unequal sizes it
is the pooled task-weighted rate.
"""

import json
import logging
import math
import os
from decimal import ROUND_HALF_UP, Decimal
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .backend import ChatBackend, SearchProvider, StaticSearchProvider
from .executor import LocalExecutor
from .orchestrator import TaskOutcome, Termination, record_result, run_task
from .planner import GlobalPlanner
from .prompts import PromptLibrary
from .protocol import (
    STRING,
    Budgets,
    InputError,
    RunHeader,
    Task,
    load_yaml,
    packaged,
    read_data,
    version_mismatch,
)
from .transcript import (
    ReplayBackend,
    ReplayDivergence,
    RunRecorder,
    first_divergence,
    is_closed,
    read_transcript,
    write_transcript,
)
from .webenv import WebEnv, load_fixture

logger = logging.getLogger(__name__)

TASK_FORMAT = "tandem-task"
SUITE_FORMAT = "tandem-suite"
REPORT_FORMAT = "tandem-report"
REPORT_VERSION = 1

# The start of the TaskResult detail of a run that crashed outside the protocol.
CRASH_PREFIX = "harness: "

__all__ = [
    "ReplayResult",
    "SuiteReport",
    "TaskRun",
    "aggregate",
    "check_report",
    "load_manifest",
    "load_suite",
    "load_task_file",
    "overall_rate",
    "render_report",
    "replay_transcript",
    "resolve_search_provider",
    "run_suite",
    "run_single",
    "success_rate",
]


# =====================================================================
# Metric arithmetic
# =====================================================================


def success_rate(n_success: int, n_tasks: int) -> Decimal:
    """100 * n_success / n_tasks, rounded half-up to one decimal."""
    if n_tasks <= 0:
        raise ValueError("success_rate needs at least one task")
    if not 0 <= n_success <= n_tasks:
        raise ValueError("n_success out of range")
    rate = Decimal(100) * Decimal(n_success) / Decimal(n_tasks)
    return rate.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


def overall_rate(counts: Mapping[str, tuple[int, int]]) -> Decimal:
    """Aggregate per-group (n_success, n_tasks) counts into one rate.

    Equal group sizes: unweighted mean of the per-group rates.  Unequal
    sizes: pooled rate over all tasks.
    """
    if not counts:
        raise ValueError("overall_rate needs at least one group")
    sizes = {n for _, n in counts.values()}
    if len(sizes) == 1:
        rates = [success_rate(s, n) for s, n in counts.values()]
        mean = sum(rates, Decimal(0)) / Decimal(len(rates))
        return mean.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    total_success = sum(s for s, _ in counts.values())
    total_tasks = sum(n for _, n in counts.values())
    return success_rate(total_success, total_tasks)


# =====================================================================
# Task and suite files
# =====================================================================


def load_task_file(path: str | Path) -> Task:
    """Load one task file; a task that breaks a field rule is an InputError."""
    return read_data(path, load_yaml, TASK_FORMAT, Task.from_dict)


def load_manifest(path: str | Path) -> list[Task]:
    """Load a suite manifest; task paths resolve relative to it."""
    path = Path(path)

    def decode(raw: dict) -> list[Task]:
        entries = raw.get("tasks")
        if not isinstance(entries, list) or not entries:
            raise ValueError("manifest lists no tasks")
        tasks = [
            load_task_file((path.parent / STRING.check(entry, f"tasks[{i}]")).resolve())
            for i, entry in enumerate(entries)
        ]
        seen: set[str] = set()
        for task in tasks:
            if task.id in seen:
                raise ValueError(f"duplicate task id {task.id!r}")
            seen.add(task.id)
        return tasks

    return read_data(path, load_yaml, SUITE_FORMAT, decode)


_BUNDLED_SUITES = {"bundled": "bundled.yaml", "demo": "demo.yaml"}


def load_suite(name_or_path: str | Path) -> list[Task]:
    name = str(name_or_path)
    if name in _BUNDLED_SUITES:
        return load_manifest(packaged("suites", _BUNDLED_SUITES[name]))
    path = Path(name_or_path)
    if not path.exists():
        raise InputError(name, "no bundled suite or manifest file of this name")
    return load_manifest(path)


def resolve_search_provider(spec: str) -> StaticSearchProvider:
    """Map a provider spec to a search provider.

    "bundled" loads the packaged passage file; anything else is a
    filesystem path to a passage file.
    """
    return StaticSearchProvider.from_file(
        packaged("search", "passages.yaml") if spec == "bundled" else spec
    )


# =====================================================================
# Suite running
# =====================================================================


class TaskRun(NamedTuple):
    task: Task
    outcome: TaskOutcome
    transcript_path: str = ""


class SuiteReport(NamedTuple):
    runs: list[TaskRun]
    per_category: dict[str, Decimal]
    per_difficulty: dict[str, Decimal]
    overall: Decimal
    n_tasks: int
    n_success: int

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "n_tasks": self.n_tasks,
            "n_success": self.n_success,
            "overall_sr": float(self.overall),
            "categories": {k: float(v) for k, v in sorted(self.per_category.items())},
            "difficulties": {k: float(v) for k, v in sorted(self.per_difficulty.items())},
            "tasks": [_task_row(run) for run in self.runs],
        }


def _task_row(run: TaskRun) -> dict:
    """One task's row in report.json; the rates are counted over these rows."""
    return {
        **run.outcome.to_dict(),
        "site_category": run.task.site_category,
        "difficulty": run.task.difficulty.value,
        "transcript": run.transcript_path,
    }


def _group_counts(rows: Sequence[dict], key: str) -> dict[str, tuple[int, int]]:
    counts: dict[str, tuple[int, int]] = {}
    for row in rows:
        group = row[key] or "uncategorized"
        s, n = counts.get(group, (0, 0))
        counts[group] = (s + (1 if row["success"] else 0), n + 1)
    return counts


def _tally(rows: Sequence[dict], runs: Sequence[TaskRun] = ()) -> SuiteReport:
    """The report's rates and counts over its task rows."""
    by_cat, by_diff = _group_counts(rows, "site_category"), _group_counts(rows, "difficulty")
    return SuiteReport(
        runs=list(runs),
        per_category={k: success_rate(s, n) for k, (s, n) in by_cat.items()},
        per_difficulty={k: success_rate(s, n) for k, (s, n) in by_diff.items()},
        overall=overall_rate(by_cat),
        n_tasks=len(rows),
        n_success=sum(s for s, _ in by_cat.values()),
    )


def aggregate(runs: Sequence[TaskRun]) -> SuiteReport:
    if not runs:
        raise ValueError("aggregate needs at least one run")
    return _tally([_task_row(run) for run in runs], runs)


def check_report(raw: dict, report_dir: str | Path) -> tuple[str, list[str]]:
    """Rebuild a loaded report.json from its transcripts, as a suite builds
    it, and compare the two as JSON, which tells 1 from true and 6.0 from 6.

    A row's transcript is read by its file name from `report_dir`, where a
    suite writes both; its header gives the task and its events the
    outcome.  Returns the rebuilt rate tables and one line per summary or
    row field (the transcript path aside) that differs, stored-only ones
    included, and per row whose task id an earlier row has.  A row whose
    transcript is missing or has no closing TaskResult is one line and
    nothing more; the summary is then neither compared nor tabled.
    """
    rows = raw["tasks"]
    runs, lines = [], []
    first: dict[str, int] = {}  # each task id's first row; load_manifest refuses duplicates
    for i, row in enumerate(rows):
        task_id = row.get("task_id")
        if isinstance(task_id, str) and first.setdefault(task_id, i) != i:
            lines.append(f"tasks[{i}].task_id: {task_id!r} is also tasks[{first[task_id]}]'s")
        path = Path(report_dir, Path(str(row.get("transcript") or "")).name)
        if not path.is_file():
            lines.append(f"tasks[{i}]: no transcript at {path}")
            continue
        header, events, _ = read_transcript(path)
        if not is_closed(events):
            lines.append(f"tasks[{i}]: transcript {path} has no closing TaskResult")
            continue
        try:
            task = RunHeader.from_dict(header).task
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(path, f"bad transcript header: {exc}") from exc
        runs.append(TaskRun(task, TaskOutcome.from_events(task.id, events)))
        lines += _differences(row, _task_row(runs[-1]), f"tasks[{i}].", "transcript", "transcript")
    if len(runs) < len(rows):
        return "", lines
    rebuilt = aggregate(runs)
    summary = _differences(raw, rebuilt.to_dict(), "", "recounted", "tasks")
    return "\n".join(_rate_lines(rebuilt)), summary + lines


def _differences(stored: dict, rebuilt: dict, where: str, source: str, skip: str) -> list[str]:
    """One line per key but `skip` whose values differ as JSON, `rebuilt`'s keys first."""
    return [
        f"{where}{key}: stored {stored.get(key)!r} != {source} {rebuilt.get(key)!r}"
        for key in {**rebuilt, **stored}
        if key != skip
        and json.dumps(stored.get(key), sort_keys=True)
        != json.dumps(rebuilt.get(key), sort_keys=True)
    ]


def _wire(
    task: Task, backend: ChatBackend, budgets: Budgets, *, library: PromptLibrary | None,
    temperature: float, search_provider: SearchProvider | None,
) -> tuple[RunRecorder, Callable[[], TaskOutcome]]:
    """Wire a fresh env, recorder, planner and executor to one task.

    Returns the recorder and the run_task call.  The fixture loads here,
    so a fixture problem raises before the caller's handling of run
    failures begins.
    """
    env = WebEnv(load_fixture(task.env_fixture))
    recorder = RunRecorder()
    planner = GlobalPlanner(
        backend, library=library, temperature=temperature, search_provider=search_provider
    )
    executor = LocalExecutor(backend, library=library, temperature=temperature)
    return recorder, partial(run_task, task, planner, executor, env, budgets, recorder)


def _check_temperature(temperature: float, name: str = "--temperature") -> None:
    # The transcript header records it as JSON, which has no NaN or infinity.
    if not math.isfinite(temperature) or temperature < 0:
        raise InputError(name, f"must be a finite number >= 0, got {temperature}")


def run_single(
    task: Task,
    backend: ChatBackend,
    budgets: Budgets,
    *,
    library: PromptLibrary | None = None,
    temperature: float = 1.0,
    search_provider: SearchProvider | None = None,
    out_dir: str | Path | None = None,
    backend_label: str = "",
) -> TaskRun:
    """Run one task with its own environment and recorder; `out_dir`, if given, must exist."""
    _check_temperature(temperature)
    recorder, run = _wire(
        task, backend, budgets, library=library, temperature=temperature,
        search_provider=search_provider,
    )
    try:
        outcome = run()
    except Exception as exc:  # harness must survive any single bad task
        logger.exception("task %s crashed outside the protocol", task.id)
        detail = f"{CRASH_PREFIX}{type(exc).__name__}: {exc}"
        record_result(recorder, False, "", Termination.PROTOCOL_ERROR, detail)
        outcome = TaskOutcome.from_events(task.id, recorder.events)
    transcript_path = ""
    if out_dir is not None:
        dest = Path(out_dir) / f"{task.id}.transcript.jsonl"
        header = RunHeader(task, budgets, backend_label, temperature, search_provider is not None)
        write_transcript(dest, header.to_dict(), recorder.events)
        transcript_path = str(dest)
    return TaskRun(task=task, outcome=outcome, transcript_path=transcript_path)


def run_suite(
    tasks: Sequence[Task],
    backend_factory: Callable[[Task], ChatBackend],
    budgets: Budgets,
    *,
    library: PromptLibrary | None = None,
    temperature: float = 1.0,
    search_provider: SearchProvider | None = None,
    out_dir: str | Path | None = None,
    parallel: int = 1,
    backend_label: str = "",
) -> SuiteReport:
    """Run every task and aggregate.  Results keep manifest order."""
    if not tasks:
        raise ValueError("run_suite needs at least one task")
    if parallel < 1:
        raise InputError("--parallel", "parallel must be >= 1")
    _check_temperature(temperature)
    if out_dir is not None:
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(out_dir, f"not a usable output directory: {exc.strerror}") from exc

    def one(task: Task) -> TaskRun:
        return run_single(
            task,
            backend_factory(task),
            budgets,
            library=library,
            temperature=temperature,
            search_provider=search_provider,
            out_dir=out_dir,
            backend_label=backend_label,
        )

    if parallel == 1:
        runs = [one(task) for task in tasks]
    else:
        # Imported here: a serial run, replay or report never loads the pool.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallel) as pool:
            runs = list(pool.map(one, tasks))

    report = aggregate(runs)
    if out_dir is not None:
        out = Path(out_dir)
        _replace_file(out / "report.json", json.dumps(report.to_dict(), indent=2, sort_keys=True))
        _replace_file(out / "report.txt", render_report(report))
    return report


def _replace_file(path: Path, text: str) -> None:
    """Write `text` plus a newline to a temp file beside `path`, then move it
    into place, so a crash leaves the old file or the new one, never a torn one.
    A file that cannot be written is an InputError."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise InputError(path, f"cannot write: {exc.strerror or exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


# =====================================================================
# Replay
# =====================================================================


class ReplayResult(NamedTuple):
    ok: bool
    message: str
    divergence_seq: int | None = None
    outcome: TaskOutcome | None = None


def replay_transcript(
    path: str | Path, *, library: PromptLibrary | None = None
) -> ReplayResult:
    """Re-run a recorded task against its own transcript.

    The recorded responses are served back in order while every prompt
    is byte-compared against the recording; the verdict rests on the seq
    of the first event where the regenerated stream differs from the
    recorded one (timestamps and latencies excluded).  A recording that
    ends there, with no TaskResult or with a crash TaskResult, ended
    before its run did.
    """
    raw, events, warnings = read_transcript(path)
    for w in warnings:
        logger.warning("replay %s: %s", path, w)
    try:
        header = RunHeader.from_dict(raw)
        _check_temperature(header.temperature, "temperature")  # the rule the run was held to
    except (KeyError, TypeError, ValueError) as exc:
        return ReplayResult(ok=False, message=f"bad transcript header: {exc}")

    recorder, run = _wire(
        header.task, ReplayBackend(events), header.budgets, library=library,
        temperature=header.temperature,
        search_provider=resolve_search_provider("bundled") if header.augment_search else None,
    )
    outcome = stopped = None
    try:
        outcome = run()
    except ReplayDivergence as exc:
        stopped = exc
    where = first_divergence(events, recorder.events)
    if where is None and stopped is not None:  # every recorded event, then one call more
        where = len(events)
    if where is None:
        return ReplayResult(ok=True, message="replay reproduced the recording", outcome=outcome)

    closed = is_closed(events)
    if not closed and where == len(events):
        after = f"seq {events[-1].seq}" if events else "the header"
        return ReplayResult(ok=False, message=f"recording is incomplete: no TaskResult after {after}")
    if closed and where == len(events) - 1:
        recorded = TaskOutcome.from_events(header.task.id, events)
        crashed = recorded.detail.startswith(CRASH_PREFIX)
        if crashed and recorded.termination is Termination.PROTOCOL_ERROR:
            message = f"recorded run crashed: {recorded.detail}"
            return ReplayResult(ok=False, message=message, outcome=recorded)
    if stopped is not None:
        message = f"prompt diverged from recording: divergence at seq {where}: {stopped}"
    else:
        message = f"event stream diverged at seq {where}"
    return ReplayResult(ok=False, message=message, divergence_seq=where, outcome=outcome)


# =====================================================================
# Report rendering
# =====================================================================


def _render_table(title: str, rows: dict[str, Decimal], counts: dict[str, tuple[int, int]]) -> list[str]:
    lines = [title, f"{'group':<24}{'tasks':>7}{'success':>9}{'SR%':>8}"]
    for name in sorted(rows):
        s, n = counts[name]
        lines.append(f"{name:<24}{n:>7}{s:>9}{str(rows[name]):>8}")
    return lines


def _rate_lines(report: SuiteReport) -> list[str]:
    rows = [_task_row(run) for run in report.runs]
    by_cat, by_diff = _group_counts(rows, "site_category"), _group_counts(rows, "difficulty")
    return [
        *_render_table("success rate by site category", report.per_category, by_cat),
        "",
        *_render_table("success rate by difficulty", report.per_difficulty, by_diff),
        "",
        f"{'overall':<24}{report.n_tasks:>7}{report.n_success:>9}{str(report.overall):>8}",
    ]


def render_report(report: SuiteReport) -> str:
    lines = _rate_lines(report)
    terminations: dict[str, int] = {}
    for run in report.runs:
        key = run.outcome.termination.value
        terminations[key] = terminations.get(key, 0) + 1
    parts = ", ".join(f"{k}={v}" for k, v in sorted(terminations.items()))
    lines.append(f"terminations: {parts}")
    exchanges = sum(r.outcome.exchanges_used for r in report.runs)
    lines.append(f"total exchanges: {exchanges}")
    return "\n".join(lines)


def _report(raw: dict) -> dict:
    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list) or not all(isinstance(row, dict) for row in tasks):
        raise TypeError("tasks must be a list of objects")
    if not tasks:
        raise ValueError("report lists no tasks")
    if mismatch := version_mismatch(raw, REPORT_VERSION):
        raise ValueError(mismatch)
    return raw


def load_report(path: str | Path) -> dict:
    """Load a report.json of REPORT_VERSION that lists at least one task row."""
    return read_data(path, json.loads, REPORT_FORMAT, _report)
