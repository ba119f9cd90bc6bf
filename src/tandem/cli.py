"""Command line interface.

Verbs:
    run      one task file against a backend
    suite    a manifest (or bundled suite name) of tasks
    replay   re-run a recorded transcript and check fidelity
    report   re-render and integrity-check a report.json against its
             transcripts

Exit codes: 0 run completed, 1 configuration or input error or a closed
stdout pipe, 2 backend unreachable (every task died on transport
errors).  Every input error, a missing flag or a file that cannot be
read or decoded, is an InputError and prints one line,
``error: <path or flag>: <reason>``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .backend import HttpChatBackend, ScriptedBackend, load_script_file
from .harness import (
    SuiteReport,
    check_report,
    load_report,
    load_suite,
    load_task_file,
    render_report,
    replay_transcript,
    resolve_search_provider,
    run_suite,
)
from .orchestrator import Termination
from .prompts import PromptLibrary
from .protocol import Budgets, InputError, Task
from .transcript import ReplayBackend, read_transcript

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNREACHABLE = 2


# =====================================================================
# Backend resolution
# =====================================================================


def make_backend_factory(spec: str, args: argparse.Namespace, tasks: list[Task]):
    """Return (factory, label) for a --backend spec.

    "http" talks to a chat-completions endpoint; "scripted:<path>" plays
    canned exchanges (a directory means one <task_id>.yaml per task);
    "replay:<file>" serves the responses out of a recorded transcript.
    A single script file or transcript is read once, here; each task
    still gets a fresh backend over it.
    """
    if spec == "http":
        endpoint = args.endpoint or os.environ.get("TANDEM_ENDPOINT", "")
        model = args.model or os.environ.get("TANDEM_MODEL", "")
        api_key = os.environ.get("TANDEM_API_KEY", "")
        if not endpoint or not model:
            raise InputError(
                "--backend http",
                "http backend needs --endpoint/--model or TANDEM_ENDPOINT/TANDEM_MODEL",
            )
        backend = HttpChatBackend(endpoint=endpoint, model=model, api_key=api_key)
        return (lambda task: backend), f"http:{endpoint}"

    if spec.startswith("scripted:"):
        path = Path(spec.split(":", 1)[1])
        if not path.exists():
            raise InputError(path, "script path does not exist")
        if path.is_dir():
            missing = [t.id for t in tasks if not (path / f"{t.id}.yaml").exists()]
            if missing:
                raise InputError(path, f"script directory lacks files for: {', '.join(missing)}")
            return (
                lambda task: ScriptedBackend(load_script_file(path / f"{task.id}.yaml"))
            ), f"scripted:{path}"
        exchanges = load_script_file(path)
        return (lambda task: ScriptedBackend(exchanges)), f"scripted:{path}"

    if spec.startswith("replay:"):
        path = Path(spec.split(":", 1)[1])
        if not path.is_file():
            raise InputError(path, "transcript does not exist")
        _, events, _ = read_transcript(path)
        return (lambda task: ReplayBackend(events)), f"replay:{path}"

    raise InputError(
        "--backend", f"unknown backend {spec!r}; expected http, scripted:<path> or replay:<file>"
    )


def _budgets(args: argparse.Namespace) -> Budgets:
    try:
        return Budgets(
            max_exchanges=args.max_exchanges,
            max_local_revisions_per_phase=args.max_local_revisions,
            max_replan_requests_per_task=args.max_replan_requests,
            force_stop_enabled=args.force_stop,
        )
    except ValueError as exc:
        raise InputError("budget flags", str(exc)) from exc


def _backend_unreachable(report: SuiteReport) -> bool:
    # run_task writes a protocol error's detail as "<exception class>: <message>".
    return all(
        run.outcome.termination is Termination.PROTOCOL_ERROR
        and run.outcome.detail.startswith("TransportError: ")
        for run in report.runs
    )


def _common_setup(args: argparse.Namespace) -> PromptLibrary | None:
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return PromptLibrary(override_dir=args.prompt_dir) if args.prompt_dir else None


def _search_provider(args: argparse.Namespace):
    if args.augment_search:
        return resolve_search_provider(args.search_passages or "bundled")
    if args.search_passages:
        raise InputError("--search-passages", "needs --augment-search")
    return None


# =====================================================================
# Verbs
# =====================================================================


def cmd_run(args: argparse.Namespace) -> int:
    tasks = [load_task_file(args.task)]
    return _execute(args, tasks, parallel=1)


def cmd_suite(args: argparse.Namespace) -> int:
    tasks = load_suite(args.suite)
    return _execute(args, tasks, parallel=args.parallel)


def _execute(args: argparse.Namespace, tasks: list[Task], parallel: int) -> int:
    library = _common_setup(args)
    provider = _search_provider(args)
    factory, label = make_backend_factory(args.backend, args, tasks)
    report = run_suite(
        tasks,
        factory,
        _budgets(args),
        library=library,
        temperature=args.temperature,
        search_provider=provider,
        out_dir=args.out,
        parallel=parallel,
        backend_label=label,
    )
    for run in report.runs:
        o = run.outcome
        print(
            f"{o.task_id}: success={o.success} termination={o.termination.value} "
            f"exchanges={o.exchanges_used} answer={o.final_answer!r}"
        )
    print()
    print(render_report(report))
    if _backend_unreachable(report):
        print("backend unreachable: every task failed on transport errors", file=sys.stderr)
        return EXIT_UNREACHABLE
    return EXIT_OK


# The shared flags replay does not read, by what replay uses instead.
_REPLAY_IGNORES = {
    "replay serves the recorded responses": ("backend", "endpoint", "model"),
    "replay takes the run settings from the transcript": (
        "max_exchanges",
        "max_local_revisions",
        "max_replan_requests",
        "force_stop",
        "temperature",
    ),
    "replay takes search from the transcript": ("augment_search", "search_passages"),
    "replay writes no files": ("out",),
}


def cmd_replay(args: argparse.Namespace) -> int:
    reasons = {dest: reason for reason, dests in _REPLAY_IGNORES.items() for dest in dests}
    for dest, default in vars(_common_parser().parse_args([])).items():
        if dest in reasons and getattr(args, dest) != default:
            raise InputError("--" + dest.replace("_", "-"), reasons[dest])
    library = _common_setup(args)
    result = replay_transcript(args.transcript, library=library)
    print(result.message)
    if result.outcome is not None:
        o = result.outcome
        print(
            f"{o.task_id}: success={o.success} termination={o.termination.value} "
            f"exchanges={o.exchanges_used}"
        )
    return EXIT_OK if result.ok else EXIT_CONFIG


def cmd_report(args: argparse.Namespace) -> int:
    raw = load_report(args.report)
    table, mismatches, notes = check_report(raw, Path(args.report).parent)
    print(table)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for m in mismatches:
        print(f"integrity mismatch - {m}", file=sys.stderr)
    return EXIT_CONFIG if mismatches else EXIT_OK


# =====================================================================
# Parser
# =====================================================================


def _common_parser() -> argparse.ArgumentParser:
    """The flags run, suite and replay share."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--backend", default="", help="http | scripted:<path> | replay:<file>")
    common.add_argument("--endpoint", default="", help="chat completions URL for the http backend")
    common.add_argument("--model", default="", help="model name for the http backend")
    common.add_argument("--max-exchanges", type=int, default=30)
    common.add_argument("--max-local-revisions", type=int, default=3)
    common.add_argument("--max-replan-requests", type=int, default=3)
    common.add_argument(
        "--force-stop",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="stop the run the moment the exchange cap is hit",
    )
    common.add_argument("--temperature", type=float, default=1.0)
    common.add_argument(
        "--augment-search",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="prepend retrieved passages to planning prompts",
    )
    common.add_argument(
        "--search-passages",
        default="",
        help="passage file for --augment-search ('bundled' for the packaged one)",
    )
    common.add_argument("--out", default=None, help="directory for transcripts and reports")
    common.add_argument("--prompt-dir", default=None, help="directory overriding bundled prompts")
    common.add_argument("-v", "--verbose", action="store_true")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tandem",
        description="Two-agent web task runner with a simulated environment.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    common = _common_parser()

    p_run = sub.add_parser("run", parents=[common], help="run one task file")
    p_run.add_argument("task", help="task yaml file")
    p_run.set_defaults(fn=cmd_run)

    p_suite = sub.add_parser("suite", parents=[common], help="run a suite manifest")
    p_suite.add_argument("suite", help="manifest yaml, or a bundled suite name")
    p_suite.add_argument("--parallel", type=int, default=1)
    p_suite.set_defaults(fn=cmd_suite)

    p_replay = sub.add_parser("replay", parents=[common], help="replay a transcript")
    p_replay.add_argument("transcript", help="recorded transcript jsonl")
    p_replay.set_defaults(fn=cmd_replay)

    p_report = sub.add_parser("report", help="re-render and check a report.json")
    p_report.add_argument("report", help="report.json from a suite run")
    p_report.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb in ("run", "suite") and not args.backend:
            raise InputError("--backend", "--backend is required for run/suite")
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here rather than at exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the exit flush stays
        # quiet, and exit 1 as Python itself does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
