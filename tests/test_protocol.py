from __future__ import annotations

import json

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tandem.protocol import (
    ActionKind,
    Budgets,
    Difficulty,
    EvaluatorSpec,
    EventKind,
    ExecutionReport,
    ExecutionStep,
    GlobalDecision,
    GlobalPlan,
    LocalVerdict,
    Observation,
    PageAction,
    PhaseSpec,
    ReplanRequest,
    Ruling,
    StepOutcome,
    Task,
    TranscriptEvent,
    load_yaml,
)

from conftest import DATA, make_task

from conftest import make_obs, make_task


def make_report(ok: bool = True) -> ExecutionReport:
    outcome = StepOutcome.success() if ok else StepOutcome.env_error("unknown node id")
    return ExecutionReport(
        steps=(ExecutionStep(PageAction(ActionKind.CLICK, target=3), outcome),),
        final_observation=make_obs(),
        raised_exception=not ok,
    )


# ---------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------


def test_task_round_trip():
    task = make_task(difficulty=Difficulty.HARD, site_category="shopping", task_class="lookup")
    assert Task.from_dict(task.to_dict()) == task


def test_observation_round_trip():
    obs = Observation(
        axtree="[1] heading 'x'\n[2] link 'y'",
        url="http://shop.local/",
        open_tabs=("http://shop.local/",),
        previous_action="click [2]",
    )
    assert Observation.from_dict(obs.to_dict()) == obs


def test_a_tuple_field_is_decoded_only_from_an_array():
    raw = {**make_obs().to_dict(), "open_tabs": "xyz"}
    with pytest.raises(TypeError) as excinfo:
        Observation.from_dict(raw)
    assert str(excinfo.value) == "open_tabs: expected an array, got str 'xyz'"


@pytest.mark.parametrize(
    "action",
    [
        PageAction(ActionKind.CLICK, target=7),
        PageAction(ActionKind.TYPE, target=2, text="mug"),
        PageAction(ActionKind.SCROLL, target="down"),
        PageAction(ActionKind.GOTO, target="http://shop.local/"),
        PageAction(ActionKind.GO_BACK),
        PageAction(ActionKind.STOP, target="the answer"),
    ],
)
def test_page_action_round_trip(action):
    assert PageAction.from_dict(action.to_dict()) == action


def test_plan_round_trip_and_phase_lookup():
    plan = GlobalPlan(
        phases=(PhaseSpec(1, "open category", "listing visible"), PhaseSpec(2, "read", "done")),
        plan_version=3,
    )
    assert GlobalPlan.from_dict(plan.to_dict()) == plan
    assert plan.phase(2).subtask == "read"
    with pytest.raises(KeyError):
        plan.phase(5)


def test_report_request_decision_round_trip():
    report = make_report(ok=False)
    assert ExecutionReport.from_dict(report.to_dict()) == report
    request = ReplanRequest(phase_index=1, reasons="bad url", report=report)
    assert ReplanRequest.from_dict(request.to_dict()) == request
    plan = GlobalPlan(phases=(PhaseSpec(1, "a", "b"),), plan_version=2)
    revise = GlobalDecision(Ruling.REVISE, new_plan=plan)
    overrule = GlobalDecision(Ruling.OVERRULE, guidance="try the link")
    for decision in (revise, overrule):
        assert GlobalDecision.from_dict(decision.to_dict()) == decision


@pytest.mark.parametrize(
    "raw, named",
    [
        ({"ruling": "veto", "guidance": "x"}, "'veto'"),
        ({"ruling": "revise"}, "new_plan"),
        ({"ruling": "overrule"}, "guidance"),
    ],
    ids=["unknown-ruling", "revise-without-plan", "overrule-without-guidance"],
)
def test_decision_rejects_a_ruling_it_cannot_carry_out(raw, named):
    with pytest.raises(ValueError, match=named):
        GlobalDecision.from_dict(raw)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LocalVerdict(decision="move"), "LocalVerdict.decision: 'move' is not a VerdictDecision"),
        (lambda: GlobalDecision(ruling="revise"), "GlobalDecision.ruling: 'revise' is not a Ruling"),
    ],
    ids=["verdict", "ruling"],
)
def test_plain_string_protocol_values_are_refused(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


def test_budgets_defaults_and_round_trip():
    budgets = Budgets()
    assert budgets.max_exchanges == 30
    assert budgets.max_local_revisions_per_phase == 3
    assert budgets.max_replan_requests_per_task == 3
    assert budgets.force_stop_enabled is True
    assert Budgets.from_dict(budgets.to_dict()) == budgets


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Budgets(max_exchanges=0), "Budgets.max_exchanges: max_exchanges must be positive"),
        (
            lambda: Budgets(max_replan_requests_per_task=-1, force_stop_enabled=False),
            "Budgets.max_replan_requests_per_task: max_replan_requests_per_task must be >= 0",
        ),
        (
            lambda: make_task(id=" ", objective=""),
            "Task.id: task id must be nonempty; Task.objective: objective must be nonempty",
        ),
        (
            lambda: make_task(evaluator=EvaluatorSpec(kind="bogus", expected=("",))),
            "Task.evaluator.kind: unknown evaluator kind 'bogus'; Task.evaluator.expected: "
            "every expected value must be a nonempty string",
        ),
    ],
    ids=["max-exchanges", "replan-requests", "id-and-objective", "evaluator"],
)
def test_task_and_budgets_keep_their_field_rules_when_built(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_transcript_event_json_round_trip():
    event = TranscriptEvent(
        seq=4, timestamp=123.5, kind=EventKind.ENV_STEP, payload={"action": "click [3]", "ok": True}
    )
    back = TranscriptEvent.from_dict(json.loads(event.to_json()))
    assert back == event
    assert back.kind is EventKind.ENV_STEP


@settings(max_examples=200)
@given(
    phases=st.lists(
        st.tuples(
            st.text(st.characters(blacklist_characters="\n|", blacklist_categories=("Cs",)), min_size=1, max_size=40).map(str.strip).filter(bool),
            st.text(st.characters(blacklist_characters="\n|", blacklist_categories=("Cs",)), min_size=1, max_size=40).map(str.strip).filter(bool),
        ),
        min_size=1,
        max_size=6,
    ),
    version=st.integers(min_value=1, max_value=9),
)
def test_plan_dict_round_trip_property(phases, version):
    plan = GlobalPlan(
        phases=tuple(PhaseSpec(i + 1, s, e) for i, (s, e) in enumerate(phases)),
        plan_version=version,
    )
    assert GlobalPlan.from_dict(plan.to_dict()) == plan


def test_record_dicts_keep_the_wire_order():
    plan = GlobalPlan(phases=(PhaseSpec(1, "a", "b"),), plan_version=2)
    assert list(plan.to_dict()) == ["plan_version", "phases"]
    assert list(make_task().to_dict()) == [
        "id", "objective", "env_fixture", "evaluator", "difficulty", "site_category", "task_class",
    ]
    assert list(Budgets().to_dict()) == [
        "max_exchanges", "max_local_revisions_per_phase", "max_replan_requests_per_task",
        "force_stop_enabled",
    ]


def test_a_checked_record_keeps_its_rules_however_it_is_built():
    with pytest.raises(ValueError, match="^Budgets.max_exchanges: "):
        Budgets(0)  # positionally
    with pytest.raises(ValueError, match="^Budgets.max_exchanges: "):
        Budgets.from_dict({**Budgets().to_dict(), "max_exchanges": 0})
    with pytest.raises(ValueError, match="^GlobalDecision.new_plan: "):
        GlobalDecision(Ruling.REVISE, None, "advice")


def test_frozen_types_reject_mutation():
    task = make_task()
    with pytest.raises(AttributeError):
        task.id = "other"  # type: ignore[misc]


# ---------------------------------------------------------------------
# YAML data files
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "path", sorted(DATA.rglob("*.yaml")), ids=lambda p: str(p.relative_to(DATA))
)
def test_load_yaml_decodes_packaged_data_like_the_pure_python_loader(path):
    text = path.read_text(encoding="utf-8")
    assert load_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader)
