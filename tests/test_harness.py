from __future__ import annotations

import json
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

from tandem import harness
from tandem.cli import main
from tandem.backend import ScriptedBackend, ScriptedExchange, load_script_file
from tandem.harness import (
    SuiteReport,
    TaskRun,
    aggregate,
    load_manifest,
    load_report,
    load_suite,
    load_task_file,
    overall_rate,
    render_report,
    replay_transcript,
    resolve_search_provider,
    run_single,
    run_suite,
    success_rate,
)
from tandem.orchestrator import TaskOutcome, Termination
from tandem.protocol import (
    PAYLOADS,
    Budgets,
    Difficulty,
    EventKind,
    InputError,
    ReplanRequest,
)
from tandem.transcript import read_transcript

from conftest import (
    DATA,
    REPO,
    assert_declared,
    golden_budgets,
    load_golden,
    make_task,
    scenario_backend,
    scenario_task,
)

# ---------------------------------------------------------------------
# Metric arithmetic
# ---------------------------------------------------------------------


def test_success_rate_basics():
    assert success_rate(12, 100) == Decimal("12.0")
    assert success_rate(0, 30) == Decimal("0.0")
    assert success_rate(30, 30) == Decimal("100.0")


def test_success_rate_rounds_half_up():
    assert success_rate(1, 16) == Decimal("6.3")  # 6.25 rounds up
    assert success_rate(1, 3) == Decimal("33.3")
    assert success_rate(2, 3) == Decimal("66.7")
    assert success_rate(1, 8) == Decimal("12.5")


def test_success_rate_rejects_bad_counts():
    with pytest.raises(ValueError):
        success_rate(1, 0)
    with pytest.raises(ValueError):
        success_rate(-1, 10)
    with pytest.raises(ValueError):
        success_rate(11, 10)


def test_overall_rate_equal_groups_is_mean_of_rates():
    counts = {"a": (12, 100), "b": (11, 100), "c": (9, 100), "d": (7, 100), "e": (8, 100)}
    assert overall_rate(counts) == Decimal("9.4")


def test_overall_rate_second_benchmark_row():
    counts = {"a": (22, 100), "b": (14, 100), "c": (12, 100), "d": (9, 100), "e": (12, 100)}
    assert overall_rate(counts) == Decimal("13.8")


def test_overall_rate_means_rounded_group_rates():
    # per-group rounding happens first: (16.7 + 0.0) / 2 = 8.35 -> 8.4,
    # while the pooled rate over the same runs would be 1/12 -> 8.3
    assert overall_rate({"a": (1, 6), "b": (0, 6)}) == Decimal("8.4")


def test_overall_rate_pools_unequal_groups():
    assert overall_rate({"a": (1, 2), "b": (0, 8)}) == Decimal("10.0")
    assert overall_rate({"a": (1, 6), "b": (0, 7)}) == Decimal("7.7")


def test_overall_rate_rejects_empty():
    with pytest.raises(ValueError):
        overall_rate({})


# ---------------------------------------------------------------------
# aggregate / SuiteReport
# ---------------------------------------------------------------------


def fake_run(task_id, category, difficulty, success) -> TaskRun:
    task = make_task(
        id=task_id, site_category=category, difficulty=Difficulty(difficulty)
    )
    outcome = TaskOutcome(
        task_id=task_id,
        success=success,
        final_answer="a",
        termination=Termination.COMPLETED,
        exchanges_used=6,
        plan_versions=1,
    )
    return TaskRun(task=task, outcome=outcome, transcript_path=f"/tmp/{task_id}.jsonl")


def test_aggregate_groups_by_category_and_difficulty():
    runs = [
        fake_run("t1", "shopping", "Easy", True),
        fake_run("t2", "shopping", "Medium", False),
        fake_run("t3", "cms", "Easy", True),
        fake_run("t4", "cms", "Hard", False),
    ]
    report = aggregate(runs)
    assert report.n_tasks == 4
    assert report.n_success == 2
    assert report.per_category["shopping"] == Decimal("50.0")
    assert report.per_category["cms"] == Decimal("50.0")
    assert report.per_difficulty["Easy"] == Decimal("100.0")
    assert report.per_difficulty["Hard"] == Decimal("0.0")
    assert report.overall == Decimal("50.0")


def test_suite_report_to_dict_round_trips_through_json(tmp_path):
    report = aggregate([fake_run("t1", "shopping", "Easy", True)])
    raw = report.to_dict()
    assert raw["format"] == "tandem-report"
    assert raw["version"] == 1
    assert raw["overall_sr"] == 100.0
    assert raw["categories"] == {"shopping": 100.0}
    assert raw["difficulties"] == {"Easy": 100.0}
    row = raw["tasks"][0]
    assert row["task_id"] == "t1"
    assert row["site_category"] == "shopping"
    assert row["difficulty"] == "Easy"
    assert row["transcript"] == "/tmp/t1.jsonl"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert load_report(path)["overall_sr"] == 100.0


def test_load_report_rejects_wrong_format(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"format": "other"}', encoding="utf-8")
    with pytest.raises(InputError):
        load_report(path)


def test_render_report_mentions_groups_and_overall():
    report = aggregate(
        [fake_run("t1", "shopping", "Easy", True), fake_run("t2", "cms", "Hard", False)]
    )
    text = render_report(report)
    assert "success rate by site category" in text
    assert "shopping" in text
    assert "Hard" in text
    assert "overall" in text
    assert "50.0" in text
    assert "terminations: completed=2" in text


# ---------------------------------------------------------------------
# Task and manifest loading
# ---------------------------------------------------------------------


def test_load_task_file_full_round_trip(tmp_path):
    path = tmp_path / "task.yaml"
    path.write_text(
        """\
format: tandem-task
id: demo-1
objective: Find the cheapest pair of shoes.
env_fixture: shop
site_category: shopping
difficulty: EASY
evaluator:
  kind: must_include
  expected: ["19.99"]
""",
        encoding="utf-8",
    )
    task = load_task_file(path)
    assert task.id == "demo-1"
    assert task.difficulty is Difficulty.EASY
    assert task.evaluator.kind == "must_include"
    assert task.evaluator.expected == ("19.99",)


def test_load_task_file_rejects_unknown_difficulty(tmp_path):
    path = tmp_path / "task.yaml"
    path.write_text(
        "format: tandem-task\nid: x\nobjective: y\nenv_fixture: shop\n"
        "difficulty: brutal\nevaluator: {kind: must_include, expected: [a]}\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError):
        load_task_file(path)


def test_load_task_file_rejects_wrong_format(tmp_path):
    path = tmp_path / "task.yaml"
    path.write_text("format: nope\nid: x\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_task_file(path)


VALID_TASK = {
    "format": "tandem-task",
    "id": "x",
    "objective": "Find the price.",
    "env_fixture": "shop",
    "evaluator": {"kind": "must_include", "expected": ["34.50"]},
}


def write_task(tmp_path, **changes):
    path = tmp_path / "task.yaml"
    path.write_text(json.dumps({**VALID_TASK, **changes}), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "changes",
    [
        {"evaluator": {"kind": "bogus", "expected": ["34.50"]}},
        {"evaluator": {"kind": "must_include", "expected": []}},
        {"evaluator": {"kind": "must_include", "expected": [""]}},
        {"evaluator": {"kind": "must_include", "expected": [34.5]}},
        {"evaluator": {"kind": "must_include"}},
        {"evaluator": "must_include"},
        {"objective": "  "},
        {"id": 7},
        {"id": ""},
        {"env_fixture": " "},
    ],
    ids=[
        "unknown-kind",
        "no-expected-values",
        "empty-expected-value",
        "number-expected-value",
        "missing-expected",
        "evaluator-not-a-mapping",
        "blank-objective",
        "numeric-id",
        "blank-id",
        "blank-env-fixture",
    ],
)
def test_load_task_file_rejects_invalid_task(tmp_path, changes):
    with pytest.raises(InputError):
        load_task_file(write_task(tmp_path, **changes))


def test_load_task_file_reads_a_bare_expected_string_as_one_value(tmp_path):
    path = write_task(tmp_path, evaluator={"kind": "must_include", "expected": "34.50"})
    assert load_task_file(path).evaluator.expected == ("34.50",)


def test_load_manifest_resolves_relative_paths(tmp_path):
    (tmp_path / "tasks").mkdir()
    (tmp_path / "tasks" / "a.yaml").write_text(
        "format: tandem-task\nid: a\nobjective: o\nenv_fixture: shop\n"
        "evaluator: {kind: must_include, expected: [x]}\n",
        encoding="utf-8",
    )
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(
        "format: tandem-suite\nname: mini\ntasks:\n  - tasks/a.yaml\n", encoding="utf-8"
    )
    tasks = load_manifest(manifest)
    assert [t.id for t in tasks] == ["a"]


def test_load_manifest_rejects_duplicate_ids(tmp_path):
    (tmp_path / "a.yaml").write_text(
        "format: tandem-task\nid: same\nobjective: o\nenv_fixture: shop\n"
        "evaluator: {kind: must_include, expected: [x]}\n",
        encoding="utf-8",
    )
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(
        "format: tandem-suite\nname: dup\ntasks:\n  - a.yaml\n  - a.yaml\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError):
        load_manifest(manifest)


def test_load_manifest_rejects_missing_file(tmp_path):
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(
        "format: tandem-suite\nname: ghost\ntasks:\n  - nowhere.yaml\n", encoding="utf-8"
    )
    with pytest.raises(InputError):
        load_manifest(manifest)


def test_bundled_suite_has_the_advertised_shape():
    tasks = load_suite("bundled")
    assert len(tasks) == 30
    histogram = Counter(t.difficulty for t in tasks)
    # 30 / 50 / 20 percent of 30 tasks
    assert histogram[Difficulty.EASY] == 9
    assert histogram[Difficulty.MEDIUM] == 15
    assert histogram[Difficulty.HARD] == 6
    assert len({t.id for t in tasks}) == 30
    assert {t.env_fixture for t in tasks} <= {"shop", "cms", "gitlab"}


def test_demo_suite_lists_the_five_scenarios_plus_one():
    tasks = load_suite("demo")
    assert len(tasks) == 6
    ids = {t.id for t in tasks}
    assert {"scn-happy", "scn-revise", "scn-replan", "scn-overrule"} <= ids


def test_load_suite_rejects_unknown_name():
    with pytest.raises(InputError):
        load_suite("not-a-suite")


# ---------------------------------------------------------------------
# Search provider resolution
# ---------------------------------------------------------------------


def test_resolve_search_provider():
    bundled = resolve_search_provider("bundled")
    assert bundled is not None
    assert bundled.search("how many electronics products are there")
    from_path = resolve_search_provider(str(DATA / "search" / "passages.yaml"))
    assert from_path is not None


# ---------------------------------------------------------------------
# run_single / run_suite
# ---------------------------------------------------------------------


def test_run_single_writes_a_replayable_transcript(tmp_path):
    task = scenario_task("scn-happy")
    run = run_single(
        task,
        scenario_backend("scn-happy"),
        Budgets(),
        out_dir=tmp_path,
        backend_label="scripted",
    )
    assert run.outcome.success
    assert run.outcome.exchanges_used == 6
    assert run.transcript_path is not None
    header, events, warnings = read_transcript(run.transcript_path)
    assert warnings == []
    assert header["task"]["id"] == "scn-happy"
    assert header["budgets"]["max_exchanges"] == 30
    assert header["backend"] == "scripted"
    assert header["temperature"] == 1.0
    assert header["augment_search"] is False
    assert events[-1].kind.value == "TaskResult"


class CrashOnCall:
    """scn-happy's scripted backend, raising RuntimeError on call number `n`."""

    def __init__(self, n: int) -> None:
        self.inner, self.n, self.calls = scenario_backend("scn-happy"), n, 0

    def complete(self, request):
        self.calls += 1
        if self.calls == self.n:
            raise RuntimeError("wild failure")
        return self.inner.complete(request)


@pytest.mark.parametrize(
    "crash_on, plan_versions", [(1, 0), (3, 1)], ids=["before-the-plan", "after-the-plan"]
)
def test_run_single_survives_crashing_backend(tmp_path, crash_on, plan_versions):
    tasks = [scenario_task("scn-happy")]
    report = run_suite(tasks, lambda task: CrashOnCall(crash_on), Budgets(), out_dir=tmp_path)
    outcome = report.runs[0].outcome
    assert not outcome.success
    assert outcome.termination is Termination.PROTOCOL_ERROR
    assert outcome.detail == "harness: RuntimeError: wild failure"
    assert outcome.exchanges_used == crash_on - 1
    assert outcome.plan_versions == plan_versions

    [row] = load_report(tmp_path / "report.json")["tasks"]
    _, events, _ = read_transcript(row["transcript"])
    assert events[-1].kind.value == "TaskResult"
    assert events[-1].payload == {
        "success": False,
        "answer": "",
        "termination": "protocol_error",
        "detail": "harness: RuntimeError: wild failure",
    }
    from_transcript = TaskOutcome.from_events("scn-happy", events).to_dict()
    assert {key: row[key] for key in from_transcript} == from_transcript


def test_replay_reports_a_recorded_crash(tmp_path, capsys):
    tasks = [scenario_task("scn-happy")]
    run_suite(tasks, lambda task: CrashOnCall(3), Budgets(), out_dir=tmp_path)
    path = tmp_path / "scn-happy.transcript.jsonl"
    assert main(["replay", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "recorded run crashed: harness: RuntimeError: wild failure",
        "scn-happy: success=False termination=protocol_error exchanges=2",
    ]

    # A replay that strays before the crash still reports its divergence.
    stray_env_steps(path)
    result = replay_transcript(path)
    assert not result.ok
    assert result.message.startswith("prompt diverged from recording: ")
    assert result.divergence_seq == 3  # the first EnvStep


def stray_env_steps(path):
    """Edit every recorded EnvStep action, so a replay strays from the recording."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        record = json.loads(line) if line.endswith("\n") else {}
        if record.get("kind") == "EnvStep":
            record["payload"]["action"] = "go_back"
            lines[i] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


# Two shapes a run killed mid-write leaves: a torn last line, which
# read_transcript drops, and a file that stops at a line end.
INCOMPLETE = {
    "cut-200-bytes": (lambda data: data[:-200], 15),
    "no-last-line": (lambda data: data[: data.rindex(b"\n", 0, -1) + 1], 16),
}


@pytest.mark.parametrize("cut", INCOMPLETE)
def test_replay_reports_an_incomplete_recording(tmp_path, capsys, cut):
    shorten, last_seq = INCOMPLETE[cut]
    path = tmp_path / "scn-replan.transcript.jsonl"
    run_single(scenario_task("scn-replan"), scenario_backend("scn-replan"), Budgets(), out_dir=tmp_path)
    path.write_bytes(shorten(path.read_bytes()))
    assert read_transcript(path)[1][-1].seq == last_seq
    assert main(["replay", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"recording is incomplete: no TaskResult after seq {last_seq}"
    ]

    # A replay that strays before the end still reports its divergence.
    stray_env_steps(path)
    result = replay_transcript(path)
    assert not result.ok
    assert "diverge" in result.message
    assert result.divergence_seq == 3  # the first EnvStep


def first_payload(records, kind, where=lambda payload: True):
    return next(r["payload"] for r in records if r["kind"] == kind and where(r["payload"]))


def edit_first_env_step(header, records):
    first_payload(records, "EnvStep")["action"] = "go_back"


def tamper_an_action_response(header, records):
    is_actions = lambda payload: payload["response"].startswith("**Action 1:**")
    first_payload(records, "LlmCall", is_actions)["response"] = "**Action 1:** go_back"


def edit_the_first_prompt(header, records):
    first_payload(records, "LlmCall")["prompt"] += "x"


def drop_the_last_llm_call(header, records):
    del records[max(i for i, r in enumerate(records) if r["kind"] == "LlmCall")]
    for seq, record in enumerate(records):
        record["seq"] = seq


def happy_script(edit):
    """scn-happy's scripted backend, its exchanges edited by `edit`."""
    return ScriptedBackend(edit(load_script_file(DATA / "scripts" / "scn-happy.yaml")))


# The recorded runs: their task and a fresh backend for them.  The last
# two each meet a failed model call, which the transcript records.
RECORDINGS = {
    "scn-replan": ("scn-replan", lambda: scenario_backend("scn-replan")),
    "crash": ("scn-happy", lambda: CrashOnCall(3)),
    # Collation gets a blank reply, and the run completes on the stop answer.
    "blank-collation": (
        "scn-happy",
        lambda: happy_script(
            lambda exchanges: [*exchanges[:-1], ScriptedExchange("Produce the final answer", "   ")]
        ),
    ),
    # Only the plan is scripted: the first phase's call finds no exchange.
    "plan-only": ("scn-happy", lambda: happy_script(lambda exchanges: exchanges[:1])),
}

REPRODUCED = "replay reproduced the recording"
NEEDS_MORE = "run needs more LLM calls than were recorded"

# (recorded run, edit to its header and events, bytes cut off the end, message,
# divergence_seq).
# scn-replan records 18 events: EnvSteps at 3, 12 and 13, LlmCalls at 0, 2,
# 4, 6, 7, 11, 14 and 16, its TaskResult at 17.
REPLAY_VERDICTS = {
    "intact": ("scn-replan", None, 0, REPRODUCED, None),
    "cut-200-bytes": (
        "scn-replan", None, 200, "recording is incomplete: no TaskResult after seq 15", None
    ),
    "first-env-step-edited": (
        "scn-replan", edit_first_env_step, 0, "event stream diverged at seq 3", 3
    ),
    "action-response-tampered": (
        "scn-replan", tamper_an_action_response, 0,
        "prompt diverged from recording: divergence at seq 3: "
        "rendered prompt differs from recording (recorded call #3)",
        3,
    ),
    "last-llm-call-dropped": (
        "scn-replan", drop_the_last_llm_call, 0,
        f"prompt diverged from recording: divergence at seq 16: {NEEDS_MORE}",
        16,
    ),
    "first-prompt-edited": (
        "scn-replan", edit_the_first_prompt, 0,
        "prompt diverged from recording: divergence at seq 0: "
        "rendered prompt differs from recording (recorded call #1)",
        0,
    ),
    # The edited EnvStep is the first differing event, not the event after
    # the last recorded LlmCall.
    "first-env-step-edited-then-cut": (
        "scn-replan", edit_first_env_step, 200,
        f"prompt diverged from recording: divergence at seq 3: {NEEDS_MORE}",
        3,
    ),
    "recorded-crash": (
        "crash", None, 0, "recorded run crashed: harness: RuntimeError: wild failure", None
    ),
    "blank-collation": ("blank-collation", None, 0, REPRODUCED, None),
    "plan-only": ("plan-only", None, 0, REPRODUCED, None),
    # A header setting of the wrong JSON type is a bad header, not a
    # setting read some other way.
    "augment-search-a-string": (
        "scn-replan", lambda header, records: header.update(augment_search="false"), 0,
        "bad transcript header: augment_search: expected a boolean, got str 'false'", None,
    ),
    "backend-a-number": (
        "scn-replan", lambda header, records: header.update(backend=5), 0,
        "bad transcript header: backend: expected a string, got int 5", None,
    ),
    "temperature-a-bool": (
        "scn-replan", lambda header, records: header.update(temperature=True), 0,
        "bad transcript header: temperature: expected a number, got bool True", None,
    ),
    # A header temperature the run itself would have refused.
    "temperature-nan": (
        "scn-replan", lambda header, records: header.update(temperature=float("nan")), 0,
        "bad transcript header: temperature: must be a finite number >= 0, got nan", None,
    ),
    "temperature-negative": (
        "scn-replan", lambda header, records: header.update(temperature=-3), 0,
        "bad transcript header: temperature: must be a finite number >= 0, got -3", None,
    ),
    "force-stop-a-string": (
        "scn-replan", lambda header, records: header["budgets"].update(force_stop_enabled="no"), 0,
        "bad transcript header: force_stop_enabled: expected a boolean, got str 'no'", None,
    ),
    "max-exchanges-a-bool": (
        "scn-replan", lambda header, records: header["budgets"].update(max_exchanges=True), 0,
        "bad transcript header: max_exchanges: expected an integer, got bool True", None,
    ),
}


@pytest.mark.parametrize("shape", REPLAY_VERDICTS)
def test_replay_verdicts(tmp_path, shape):
    recorded, edit, cut, message, seq = REPLAY_VERDICTS[shape]
    task_id, backend = RECORDINGS[recorded]
    run = run_single(scenario_task(task_id), backend(), Budgets(), out_dir=tmp_path)
    path = Path(run.transcript_path)
    data = path.read_bytes()
    if edit is not None:
        header, *records = map(json.loads, data.decode("utf-8").splitlines())
        edit(header, records)
        data = "".join(json.dumps(record) + "\n" for record in [header, *records]).encode()
    path.write_bytes(data[: len(data) - cut])
    result = replay_transcript(path)
    assert (result.ok, result.message, result.divergence_seq) == (message == REPRODUCED, message, seq)
    if result.ok:
        assert result.outcome == run.outcome


def test_a_failed_model_call_is_recorded(tmp_path):
    blank = run_single(scenario_task("scn-happy"), RECORDINGS["blank-collation"][1](), Budgets())
    assert (blank.outcome.success, blank.outcome.exchanges_used) == (True, 5)

    run = run_single(
        scenario_task("scn-happy"), RECORDINGS["plan-only"][1](), Budgets(), out_dir=tmp_path
    )
    assert run.outcome.detail.startswith("BackendExhausted: no unconsumed scripted exchange")
    _, events, _ = read_transcript(run.transcript_path)
    assert [e.kind.value for e in events] == ["LlmCall", "PlanIssued", "LlmFailed", "TaskResult"]
    assert events[2].payload["role"] == "local"
    assert events[2].payload["error"] == run.outcome.detail


class AnswerWith:
    """scn-happy's scripted backend, whose final answer holds `text`."""

    def __init__(self, text: str) -> None:
        self.inner, self.answer = scenario_backend("scn-happy"), f"The kettle{text}costs $34.50."

    def complete(self, request):
        response = self.inner.complete(request)
        return self.answer if "Produce the final answer" in request.rendered() else response


@pytest.mark.parametrize(
    "separator", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"]
)
def test_a_unicode_line_separator_round_trips_through_a_transcript(tmp_path, separator):
    backend = AnswerWith(separator)
    run = run_single(scenario_task("scn-happy"), backend, Budgets(), out_dir=tmp_path)
    assert separator in (tmp_path / "scn-happy.transcript.jsonl").read_text(encoding="utf-8")
    _, events, warnings = read_transcript(run.transcript_path)
    assert warnings == []
    assert [e.kind.value for e in events[-2:]] == ["LlmCall", "TaskResult"]
    assert events[-2].payload["response"] == events[-1].payload["answer"] == backend.answer
    result = replay_transcript(run.transcript_path)
    assert result.ok, result.message
    assert result.outcome == run.outcome


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -1.0], ids=str)
def test_a_bad_temperature_is_an_input_error_before_any_file(tmp_path, temperature):
    task, backend = scenario_task("scn-happy"), scenario_backend("scn-happy")
    error = f"--temperature: must be a finite number >= 0, got {temperature}"
    with pytest.raises(InputError) as raised:
        run_single(task, backend, Budgets(), temperature=temperature, out_dir=tmp_path)
    assert str(raised.value) == error
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "out"
    with pytest.raises(InputError) as raised:
        run_suite([task], lambda t: backend, Budgets(), temperature=temperature, out_dir=out)
    assert str(raised.value) == error
    assert not out.exists()


def demo_tasks_and_factory():
    tasks = load_suite("demo")
    return tasks, lambda task: scenario_backend(task.id)


def test_every_written_event_has_its_declared_fields(tmp_path):
    tasks, factory = demo_tasks_and_factory()
    run_suite(tasks, factory, Budgets(), out_dir=tmp_path)
    # A demo suite writes no ForceStop and no LlmFailed: add a capped run
    # and one whose script runs dry after its first exchange.
    capped, dry = tmp_path / "capped", tmp_path / "dry"
    capped.mkdir()
    dry.mkdir()
    task = scenario_task("scn-forcestop")
    run_single(task, scenario_backend(task.id), golden_budgets(load_golden(task.id)), out_dir=capped)
    script = load_script_file(DATA / "scripts" / "scn-happy.yaml")[:1]
    run = run_single(scenario_task("scn-happy"), ScriptedBackend(script), Budgets(), out_dir=dry)
    assert run.outcome.detail.startswith("BackendExhausted: ")
    paths = [*tmp_path.rglob("*.transcript.jsonl"), *RECORDED.glob("*.transcript.jsonl")]
    assert len(paths) == len(tasks) + 4
    kinds, rulings = set(), set()
    for path in paths:
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            record = json.loads(line)
            kind = EventKind(record["kind"])
            assert_declared(kind, record["payload"])
            kinds.add(kind)
            if kind is EventKind.DECISION_ISSUED:
                rulings.add(record["payload"]["ruling"])
    # Every kind's event is among them, with both rulings.
    assert kinds == set(PAYLOADS) == set(EventKind)
    assert rulings == {"revise", "overrule"}


def test_run_suite_serial(tmp_path):
    tasks, factory = demo_tasks_and_factory()
    report = run_suite(tasks, factory, Budgets(), out_dir=tmp_path)
    assert report.n_tasks == 6
    assert report.n_success == 6
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.txt").exists()
    raw = load_report(tmp_path / "report.json")
    assert raw["n_tasks"] == 6
    assert len(raw["tasks"]) == 6


def test_run_suite_parallel_matches_serial(tmp_path):
    tasks, factory = demo_tasks_and_factory()
    serial = run_suite(tasks, factory, Budgets(), out_dir=tmp_path / "serial")
    parallel = run_suite(
        tasks, factory, Budgets(), out_dir=tmp_path / "parallel", parallel=4
    )
    serial_rows = [r.outcome.to_dict() for r in serial.runs]
    parallel_rows = [r.outcome.to_dict() for r in parallel.runs]
    assert serial_rows == parallel_rows
    assert serial.overall == parallel.overall


def _torn_open(fault_on: int):
    """An `open` whose `fault_on`-th file writes half its text, then fails."""
    calls = []

    def fake_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        calls.append(path)
        if len(calls) != fault_on:
            return fh

        class Torn:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, text):
                fh.write(text[: len(text) // 2])
                raise OSError("disk full")

        return Torn()

    return fake_open


def _failing_replace(fault_on: int):
    """An `os.replace` whose `fault_on`-th call fails before moving anything."""
    calls = []
    real_replace = harness.os.replace

    def fake_replace(src, dst):
        calls.append(dst)
        if len(calls) == fault_on:
            raise OSError("killed")
        real_replace(src, dst)

    return fake_replace


REPORT_FAULTS = {
    "torn report.json": ("open", _torn_open, 1, ("old", "old")),
    "torn report.txt": ("open", _torn_open, 2, ("new", "old")),
    "crash before report.json moves": ("os.replace", _failing_replace, 1, ("old", "old")),
    "crash between the two reports": ("os.replace", _failing_replace, 2, ("new", "old")),
}


@pytest.mark.parametrize("fault", sorted(REPORT_FAULTS))
def test_a_failed_report_write_leaves_the_old_report_or_the_new_one(tmp_path, monkeypatch, fault):
    name, make_fake, fault_on, expected = REPORT_FAULTS[fault]
    tasks, factory = demo_tasks_and_factory()
    names = ("report.json", "report.txt")

    def reports() -> list[bytes]:
        return [(tmp_path / n).read_bytes() for n in names]

    run_suite(tasks[:2], factory, Budgets(), out_dir=tmp_path)
    old = reports()
    with monkeypatch.context() as patch:
        if name == "open":
            patch.setattr(harness, "open", make_fake(fault_on), raising=False)
        else:
            patch.setattr(harness.os, "replace", make_fake(fault_on))
        with pytest.raises(InputError, match="cannot write: "):
            run_suite(tasks, factory, Budgets(), out_dir=tmp_path)
    after_fault = reports()
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")) == []
    run_suite(tasks, factory, Budgets(), out_dir=tmp_path)
    new = reports()
    assert old != new
    sides = {"old": old, "new": new}
    assert after_fault == [sides[side][i] for i, side in enumerate(expected)]


# ---------------------------------------------------------------------
# Replay fidelity
# ---------------------------------------------------------------------


def fresh_transcript(tmp_path, task_id="scn-happy"):
    run = run_single(
        scenario_task(task_id), scenario_backend(task_id), Budgets(), out_dir=tmp_path
    )
    return run.transcript_path


def test_replay_reproduces_a_recording(tmp_path):
    path = fresh_transcript(tmp_path)
    result = replay_transcript(path)
    assert result.ok, result.message
    assert result.outcome is not None
    assert result.outcome.success


def test_replay_detects_a_tampered_response(tmp_path):
    path = fresh_transcript(tmp_path)
    with open(path, encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    for i, line in enumerate(raw_lines[1:], start=1):
        record = json.loads(line)
        if record["kind"] == "LlmCall" and "click" in record["payload"]["response"]:
            record["payload"]["response"] = record["payload"]["response"].replace(
                "click [9]", "click [8]"
            )
            raw_lines[i] = json.dumps(record)
            break
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(raw_lines) + "\n", encoding="utf-8")
    result = replay_transcript(tampered)
    assert not result.ok
    assert result.divergence_seq is not None


RECORDED = REPO / "tests" / "recorded"


def recorded_events(task_id):
    return read_transcript(RECORDED / f"{task_id}.transcript.jsonl")[1]


def test_recorded_transcripts_cover_both_rulings_and_plan_versions():
    replan, overrule = recorded_events("scn-replan"), recorded_events("scn-overrule")
    versions = [
        e.payload["plan"]["plan_version"] for e in replan if e.kind.value == "PlanIssued"
    ]
    assert versions == [1, 2]
    [request] = [e for e in replan if e.kind.value == "ReplanRequested"]
    assert ReplanRequest.from_dict(request.payload["request"]).report.steps
    rulings = [
        e.payload["ruling"] for e in replan + overrule if e.kind.value == "DecisionIssued"
    ]
    assert rulings == ["revise", "overrule"]


@pytest.mark.parametrize("task_id", ["scn-replan", "scn-overrule"])
def test_replay_reproduces_a_transcript_recorded_by_earlier_code(task_id):
    result = replay_transcript(RECORDED / f"{task_id}.transcript.jsonl")
    assert result.ok, result.message
    assert result.outcome == TaskOutcome.from_events(task_id, recorded_events(task_id))


def with_header(tmp_path, task_id, edit):
    lines = (RECORDED / f"{task_id}.transcript.jsonl").read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    edit(header)
    path = tmp_path / f"{task_id}.transcript.jsonl"
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "key",
    [
        "max_exchanges",
        "max_local_revisions_per_phase",
        "max_replan_requests_per_task",
        "force_stop_enabled",
    ],
)
def test_replay_rejects_a_header_missing_a_budget(tmp_path, key):
    path = with_header(tmp_path, "scn-replan", lambda h: h["budgets"].pop(key))
    result = replay_transcript(path)
    assert not result.ok
    assert result.message.startswith("bad transcript header")


@pytest.mark.parametrize(
    "key, value", [("max_exchanges", 0), ("max_local_revisions_per_phase", -1)]
)
def test_replay_rejects_a_header_with_an_out_of_range_budget(tmp_path, key, value):
    path = with_header(tmp_path, "scn-replan", lambda h: h["budgets"].update({key: value}))
    result = replay_transcript(path)
    assert not result.ok
    assert result.message.startswith("bad transcript header")
    assert key in result.message


def test_replay_rejects_a_header_with_an_invalid_task(tmp_path):
    path = with_header(
        tmp_path, "scn-replan", lambda h: h["task"]["evaluator"].update(kind="bogus")
    )
    result = replay_transcript(path)
    assert not result.ok
    assert result.message.startswith("bad transcript header")
    assert "bogus" in result.message


def test_replay_rejects_a_headerless_file(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"format": "tandem-transcript", "version": 1}\n', encoding="utf-8"
    )
    result = replay_transcript(path)
    assert not result.ok
    assert "header" in result.message
