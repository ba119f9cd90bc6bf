from __future__ import annotations

import pytest

from tandem.backend import ScriptedBackend, ScriptedExchange
from tandem.executor import LocalExecutor
from tandem.grammar import ActionParseError, EmptyPlan, VerdictParseError
from tandem.protocol import ActionKind, VerdictDecision
from tandem.transcript import RunRecorder
from tandem.webenv import ERR_UNKNOWN_NODE, WebEnv, load_fixture

from conftest import action, make_obs, make_phase

ACTIONS_TEXT = "**Action 1:** click [5]\n**Action 2:** stop [done]"


def executor_with(script: list[tuple[str, str]]) -> LocalExecutor:
    return LocalExecutor(ScriptedBackend([ScriptedExchange(m, r) for m, r in script]))


# ---------------------------------------------------------------------
# Prompt rendering
# ---------------------------------------------------------------------


def test_plan_prompt_carries_phase_objective():
    executor = executor_with([])
    text = executor.render_prompt("plan", make_phase(1), make_obs())
    assert "Work out the action sequence" in text
    assert "OBJECTIVE: Open the kitchen category (expected state: Kitchen listing visible)" in text
    assert "[1] heading 'Shop Home'" in text


def test_revise_prompt_formats_reasons():
    executor = executor_with([])
    text = executor.render_prompt("revise", make_phase(1), make_obs(), reasons="clicked a dead link")
    assert "You decided to adjust your action sequence" in text
    assert "clicked a dead link" in text


def test_overruled_prompt_formats_guidance():
    executor = executor_with([])
    text = executor.render_prompt("overruled", make_phase(1), make_obs(), guidance="scroll down first")
    assert "kept the global plan" in text
    assert "scroll down first" in text


def test_false_check_prompt_formats_feedback():
    executor = executor_with([])
    text = executor.render_prompt("false_check", make_phase(1), make_obs(), feedback="step 1 failed: boom")
    assert "An action in this phase failed" in text
    assert "step 1 failed: boom" in text


def test_pass_check_prompt_mentions_clean_run():
    executor = executor_with([])
    text = executor.render_prompt("pass_check", make_phase(1), make_obs())
    assert "ran without errors" in text


# ---------------------------------------------------------------------
# actions: the plan, revise and overruled prompts
# ---------------------------------------------------------------------


def test_actions_plan_parses_actions():
    executor = executor_with([("Work out the action sequence", ACTIONS_TEXT)])
    recorder = RunRecorder()
    seq = executor.actions("plan", make_phase(1), make_obs(), recorder)
    assert [a.kind for a in seq] == [ActionKind.CLICK, ActionKind.STOP]
    assert seq[0].target == 5
    assert recorder.exchanges == 1


def test_actions_plan_repairs_once():
    executor = executor_with(
        [
            ("Work out the action sequence", "I would click around"),
            ("Work out the action sequence", ACTIONS_TEXT),
        ]
    )
    recorder = RunRecorder()
    seq = executor.actions("plan", make_phase(1), make_obs(), recorder)
    assert len(seq) == 2
    assert recorder.exchanges == 2


def test_actions_plan_gives_up_after_one_repair():
    # second response has no action lines at all
    executor = executor_with(
        [
            ("Work out the action sequence", "nope"),
            ("Work out the action sequence", "still nope"),
        ]
    )
    with pytest.raises(EmptyPlan):
        executor.actions("plan", make_phase(1), make_obs(), RunRecorder())
    # second response has an action line with an unknown verb
    executor = executor_with(
        [
            ("Work out the action sequence", "nope"),
            ("Work out the action sequence", "**Action 1:** tap [3]"),
        ]
    )
    with pytest.raises(ActionParseError):
        executor.actions("plan", make_phase(1), make_obs(), RunRecorder())


def test_actions_revise_uses_revise_prompt():
    executor = executor_with([("You decided to adjust your action sequence", ACTIONS_TEXT)])
    seq = executor.actions("revise", make_phase(1), make_obs(), RunRecorder(), reasons="bad node id")
    assert len(seq) == 2


def test_actions_revise_without_reasons_is_refused():
    executor = executor_with([("You decided to adjust your action sequence", ACTIONS_TEXT)])
    recorder = RunRecorder()
    with pytest.raises(TypeError, match="prompt local/revise takes fields"):
        executor.actions("revise", make_phase(1), make_obs(), recorder)
    assert recorder.exchanges == 0


def test_actions_overruled_uses_overruled_prompt():
    executor = executor_with([("kept the global plan", ACTIONS_TEXT)])
    seq = executor.actions(
        "overruled", make_phase(1), make_obs(), RunRecorder(), guidance="scroll down"
    )
    assert len(seq) == 2


# ---------------------------------------------------------------------
# execute_actions
# ---------------------------------------------------------------------


@pytest.fixture
def env() -> WebEnv:
    env = WebEnv(load_fixture("shop"))
    env.reset()
    return env


def test_execute_runs_all_actions(env):
    seq = (action("click", target=5), action("click", target=9))
    report = executor_with([]).execute_actions(seq, env)
    assert len(report.steps) == 2
    assert not report.raised_exception
    assert report.final_observation.url == "http://shop.local/product/copper-pour-over-kettle"


def test_execute_halts_at_first_error(env):
    seq = (action("click", target=999), action("click", target=5))
    report = executor_with([]).execute_actions(seq, env)
    assert report.raised_exception
    assert len(report.steps) == 1
    assert report.steps[0].outcome.error == ERR_UNKNOWN_NODE
    # the failed click left the page alone
    assert report.final_observation.url == "http://shop.local/"


def test_execute_halts_at_stop_without_error(env):
    seq = (
        action("stop", target="answer text"),
        action("click", target=5),  # never reached
    )
    report = executor_with([]).execute_actions(seq, env)
    assert not report.raised_exception
    assert len(report.steps) == 1
    assert env.stop_answer == "answer text"


# ---------------------------------------------------------------------
# Self-checks
# ---------------------------------------------------------------------


def good_report(env):
    seq = (action("click", target=5),)
    return executor_with([]).execute_actions(seq, env)


def bad_report(env):
    seq = (action("click", target=999),)
    return executor_with([]).execute_actions(seq, env)


def test_check_after_clean_run_allows_move(env):
    executor = executor_with([("ran without errors", "Action: ```move```\nReasons: page matches")])
    verdict = executor.check(good_report(env), make_phase(1), RunRecorder())
    assert verdict.decision is VerdictDecision.MOVE


def test_check_after_error_rejects_move(env):
    executor = executor_with(
        [
            ("An action in this phase failed", "Action: ```move```\nReasons: fine anyway"),
            ("An action in this phase failed", "Action: ```revise```\nReasons: wrong node id"),
        ]
    )
    recorder = RunRecorder()
    verdict = executor.check(bad_report(env), make_phase(1), recorder)
    assert verdict.decision is VerdictDecision.REVISE
    assert "wrong node id" in verdict.reasons
    assert "step 1 (click [999]) failed: unknown node id" in recorder.events[0].payload["prompt"]


def test_false_check_prompt_embeds_error_feedback(env):
    report = bad_report(env)
    executor = executor_with([])
    text = executor.render_prompt(
        "false_check", make_phase(1), env.observe(),
        feedback="step 1 (click [999]) failed: unknown node id",
    )
    assert "click [999]" in text
    assert report.steps[0].outcome.error in text


def test_check_after_error_double_garbage_raises(env):
    executor = executor_with(
        [
            ("An action in this phase failed", "no idea"),
            ("An action in this phase failed", "really no idea"),
        ]
    )
    with pytest.raises(VerdictParseError):
        executor.check(bad_report(env), make_phase(1), RunRecorder())


def test_check_after_clean_run_request_verdict(env):
    executor = executor_with(
        [("ran without errors", "Action: ```request```\nReasons: plan assumes a page that is missing")]
    )
    verdict = executor.check(good_report(env), make_phase(1), RunRecorder())
    assert verdict.decision is VerdictDecision.REQUEST
