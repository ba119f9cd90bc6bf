from __future__ import annotations

import pytest

from tandem.backend import (
    BackendExhausted,
    ChatMessage,
    ChatRequest,
    ProviderError,
    RetrievedPassage,
    ScriptedBackend,
    ScriptedExchange,
    StaticSearchProvider,
    TransportError,
)
from tandem.grammar import DecisionParseError, PlanParseError, render_plan_text
from tandem.planner import GlobalPlanner, render_report_text
from tandem.protocol import (
    ExecutionReport,
    ExecutionStep,
    GlobalPlan,
    ReplanRequest,
    StepOutcome,
)
from tandem.transcript import RunRecorder

from conftest import action, make_obs, make_phase, make_task

PLAN_TEXT = (
    "Phase 1: Open the kitchen category | Expected: kitchen listing visible\n"
    "Phase 2: Read the kettle price and stop | Expected: price reported"
)
NEW_PLAN_TEXT = (
    "Phase 1: Search for the kettle directly | Expected: search results visible\n"
    "Phase 2: Open the kettle page and stop | Expected: price reported"
)


def make_plan(version: int = 1) -> GlobalPlan:
    return GlobalPlan(phases=(make_phase(1), make_phase(2)), plan_version=version)


def make_report(raised: bool = False) -> ExecutionReport:
    steps = (ExecutionStep(action=action("click", target=3), outcome=StepOutcome(ok=not raised, error="" if not raised else "unknown node id")),)
    return ExecutionReport(steps=steps, final_observation=make_obs(), raised_exception=raised)


def planner_with(script: list[tuple[str, str]], **kwargs) -> GlobalPlanner:
    backend = ScriptedBackend([ScriptedExchange(m, r) for m, r in script])
    return GlobalPlanner(backend, **kwargs)


# ---------------------------------------------------------------------
# Prompt rendering
# ---------------------------------------------------------------------


def test_plan_prompt_carries_objective_and_observation():
    planner = planner_with([])
    task = make_task()
    text = planner.render_prompt("plan", task, make_obs())
    assert "Construct the global plan" in text
    assert "OBJECTIVE: " + task.objective in text
    assert "[1] heading 'Shop Home'" in text
    assert "Background passages" not in text


def test_plan_prompt_inserts_passages_between_meta_and_context():
    provider = StaticSearchProvider([("kettle", "kettles pour water", "guide")])
    planner = planner_with([], search_provider=provider)
    passages = planner.fetch_passages("where is the kettle")
    text = planner.render_prompt("plan", make_task(), make_obs(), passages=passages)
    meta_at = text.index("Construct the global plan")
    passages_at = text.index("Background passages gathered")
    context_at = text.index("OBSERVATION:")
    assert meta_at < passages_at < context_at
    assert "kettles pour water (source: guide)" in text


def test_decide_prompt_quotes_reasons_and_phase():
    planner = planner_with([])
    text = planner.render_prompt(
        "decide", make_task(), make_obs(), reasons="page is wrong", phase_index=2,
        previous_plan=render_plan_text(make_plan()),
    )
    assert "Judge whether the fault lies" in text
    assert "page is wrong" in text
    assert "phase 2" in text
    assert "Background passages" not in text


def test_revise_prompt_quotes_the_previous_plan():
    planner = planner_with([])
    text = planner.render_prompt(
        "revise", make_task(), make_obs(), reasons="dead link", phase_index=1,
        previous_plan=render_plan_text(make_plan()),
    )
    assert "You accepted the replan request" in text
    assert "Open the kitchen category" in text  # old plan is quoted verbatim


def test_revise_prompt_can_carry_passages():
    planner = planner_with([])
    passages = (RetrievedPassage(query="q", passage="useful fact", source="doc"),)
    text = planner.render_prompt(
        "revise", make_task(), make_obs(), passages, reasons="stuck", phase_index=1,
        previous_plan=render_plan_text(make_plan()),
    )
    assert "You accepted the replan request" in text
    assert "useful fact" in text


def test_collate_prompt_quotes_the_report():
    planner = planner_with([])
    text = planner.render_prompt(
        "collate", make_task(), make_obs(), report=render_report_text(make_report())
    )
    assert "Produce the final answer" in text
    assert "click [3]" in text  # the report's steps are quoted


def test_unknown_prompt_action_rejected():
    planner = planner_with([])
    # an action with no prompt file at all
    with pytest.raises(KeyError):
        planner.render_prompt("negotiate", make_task(), make_obs())


# ---------------------------------------------------------------------
# Passage fetching
# ---------------------------------------------------------------------


def test_fetch_passages_requires_provider():
    planner = planner_with([])
    assert planner.fetch_passages("kettle question") == ()


class _FailingProvider:
    def search(self, query: str):
        raise ProviderError("index offline")


def test_fetch_passages_swallows_provider_errors():
    planner = planner_with([], search_provider=_FailingProvider())
    assert planner.fetch_passages("anything") == ()


# ---------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------


def test_plan_happy_path():
    planner = planner_with([("Construct the global plan", PLAN_TEXT)])
    recorder = RunRecorder()
    plan = planner.plan(make_task(), make_obs(), recorder)
    assert plan.plan_version == 1
    assert [p.index for p in plan.phases] == [1, 2]
    assert plan.phases[0].subtask == "Open the kitchen category"
    assert recorder.exchanges == 1


def test_plan_repairs_once():
    planner = planner_with(
        [
            ("Construct the global plan", "sorry, no plan here"),
            ("Construct the global plan", PLAN_TEXT),
        ]
    )
    recorder = RunRecorder()
    plan = planner.plan(make_task(), make_obs(), recorder)
    assert plan.plan_version == 1
    assert recorder.exchanges == 2


def test_plan_fails_after_one_repair():
    planner = planner_with(
        [
            ("Construct the global plan", "garbage"),
            ("Construct the global plan", "more garbage"),
        ]
    )
    recorder = RunRecorder()
    with pytest.raises(PlanParseError):
        planner.plan(make_task(), make_obs(), recorder)
    assert recorder.exchanges == 2


# ---------------------------------------------------------------------
# decide_replan
# ---------------------------------------------------------------------


def make_request_obj() -> ReplanRequest:
    return ReplanRequest(phase_index=1, reasons="the category link is missing", report=make_report(raised=True))


def test_decide_overrule_single_call():
    planner = planner_with(
        [("Judge whether the fault lies", "```overrule```\nScroll down before giving up.")]
    )
    recorder = RunRecorder()
    decision = planner.decide_replan(
        make_request_obj(), make_task(), make_obs(), make_plan(), recorder
    )
    assert decision.ruling == "overrule"
    assert "Scroll down" in decision.guidance
    assert decision.new_plan is None
    assert recorder.exchanges == 1


def test_decide_revise_costs_a_second_call():
    planner = planner_with(
        [
            ("Judge whether the fault lies", "```revise```\nThe plan assumed a dead link."),
            ("You accepted the replan request", NEW_PLAN_TEXT),
        ]
    )
    recorder = RunRecorder()
    old = make_plan(version=1)
    decision = planner.decide_replan(make_request_obj(), make_task(), make_obs(), old, recorder)
    assert decision.ruling == "revise"
    assert decision.new_plan is not None
    assert decision.new_plan.plan_version == 2
    assert decision.new_plan.phases[0].subtask == "Search for the kettle directly"
    assert recorder.exchanges == 2


def test_decide_repairs_unparseable_ruling():
    planner = planner_with(
        [
            ("Judge whether the fault lies", "hmm, tough call"),
            ("Judge whether the fault lies", "```overrule```\nKeep going, scroll down."),
        ]
    )
    recorder = RunRecorder()
    decision = planner.decide_replan(
        make_request_obj(), make_task(), make_obs(), make_plan(), recorder
    )
    assert decision.ruling == "overrule"
    assert recorder.exchanges == 2


def test_overrule_without_guidance_is_a_parse_error():
    planner = planner_with(
        [
            ("Judge whether the fault lies", "```overrule```"),
            ("Judge whether the fault lies", "```overrule```"),
        ]
    )
    with pytest.raises(DecisionParseError):
        planner.decide_replan(
            make_request_obj(), make_task(), make_obs(), make_plan(), RunRecorder()
        )


def test_planning_calls_fetch_their_own_passages():
    provider = StaticSearchProvider([("kettle", "kettles pour water", "guide")])
    planner = planner_with(
        [
            ("Construct the global plan", PLAN_TEXT),
            ("Judge whether the fault lies", "```revise```\nThe plan assumed a dead link."),
            ("You accepted the replan request", NEW_PLAN_TEXT),
        ],
        search_provider=provider,
    )
    recorder = RunRecorder()
    plan = planner.plan(make_task(), make_obs(), recorder)
    planner.decide_replan(make_request_obj(), make_task(), make_obs(), plan, recorder)
    prompts = [e.payload["prompt"] for e in recorder.events]
    assert ["kettles pour water" in p for p in prompts] == [True, False, True]


def test_plan_revision_repairs_once():
    planner = planner_with(
        [
            ("You accepted the replan request", "no plan, sorry"),
            ("You accepted the replan request", NEW_PLAN_TEXT),
        ]
    )
    recorder = RunRecorder()
    request = make_request_obj()
    plan = planner.plan(
        make_task(), make_obs(), recorder, make_plan(version=3),
        reasons=request.reasons, phase_index=request.phase_index,
    )
    assert plan.plan_version == 4
    assert recorder.exchanges == 2


# ---------------------------------------------------------------------
# collate
# ---------------------------------------------------------------------


def test_collate_returns_stripped_answer():
    planner = planner_with([("Produce the final answer", "  $34.50  ")])
    answer = planner.collate(make_report(), make_task(), make_obs(), RunRecorder())
    assert answer == "$34.50"


def test_collate_blank_answer_falls_back_to_stop_answer():
    planner = planner_with([("Produce the final answer", "   ")])
    answer = planner.collate(
        make_report(), make_task(), make_obs(), RunRecorder(), stop_answer="kettle is $34.50"
    )
    assert answer == "kettle is $34.50"


class _DeadBackend:
    def complete(self, request):
        raise TransportError("connection refused")


def test_collate_survives_transport_failure():
    planner = GlobalPlanner(_DeadBackend())
    answer = planner.collate(
        make_report(), make_task(), make_obs(), RunRecorder(), stop_answer="fallback"
    )
    assert answer == "fallback"


def test_collate_survives_backend_exhaustion():
    planner = planner_with([])  # empty script: the collate call raises BackendExhausted
    probe = ChatRequest(system_prompt="s", messages=(ChatMessage("user", "x"),))
    with pytest.raises(BackendExhausted):
        planner.backend.complete(probe)
    answer = planner.collate(make_report(), make_task(), make_obs(), RunRecorder())
    assert answer == ""
