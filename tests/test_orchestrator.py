from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from tandem.backend import ScriptedBackend, ScriptedExchange
from tandem.executor import LocalExecutor
from tandem.orchestrator import (
    BudgetTripped,
    Executed,
    IllegalTransition,
    Mode,
    OrchestratorState,
    PlanReady,
    TaskOutcome,
    Termination,
    VerdictReady,
    run_task,
    step,
)
from tandem.planner import GlobalPlanner
from tandem.protocol import (
    ActionSequence,
    Budgets,
    ExecutionReport,
    ExecutionStep,
    GlobalPlan,
    LocalVerdict,
    StepOutcome,
    VerdictDecision,
)
from tandem.transcript import RunRecorder
from tandem.webenv import WebEnv, load_fixture

from conftest import (
    SCENARIOS,
    action,
    golden_budgets,
    load_golden,
    make_obs,
    make_phase,
    make_task,
    outcome_dict,
    project,
    run_scenario,
)

FUZZ_RUNS = 1000
FUZZ_SEED = 977


# ---------------------------------------------------------------------
# step(): transition legality
# ---------------------------------------------------------------------


def fresh_state(mode: Mode = Mode.PLANNING, plan: GlobalPlan | None = None) -> OrchestratorState:
    state = OrchestratorState(task=make_task(), recorder=RunRecorder())
    state.mode = mode
    state.plan = plan
    return state


def make_plan(n_phases: int = 2, version: int = 1) -> GlobalPlan:
    return GlobalPlan(
        phases=tuple(make_phase(i) for i in range(1, n_phases + 1)), plan_version=version
    )


def ok_report() -> ExecutionReport:
    return ExecutionReport(
        steps=(ExecutionStep(action=action("click", target=3), outcome=StepOutcome(ok=True, error="")),),
        final_observation=make_obs(),
        raised_exception=False,
    )


def test_plan_only_accepted_while_planning():
    state = fresh_state(Mode.PHASE_EXECUTION, plan=make_plan())
    with pytest.raises(IllegalTransition):
        step(state, PlanReady(make_plan(version=2)))


def test_report_only_accepted_in_execution_modes():
    state = fresh_state(Mode.PLANNING)
    with pytest.raises(IllegalTransition):
        step(state, Executed(ok_report()))
    state = fresh_state(Mode.COLLATION, plan=make_plan())
    with pytest.raises(IllegalTransition):
        step(state, Executed(ok_report()))


def test_move_verdict_rejected_after_error():
    state = fresh_state(Mode.FAIL_CHECK, plan=make_plan())
    state.phase_index = 1
    before = len(state.recorder.events)
    with pytest.raises(IllegalTransition):
        step(state, VerdictReady(LocalVerdict(decision=VerdictDecision.MOVE, reasons="fine")))
    # nothing was recorded and the mode did not change
    assert len(state.recorder.events) == before
    assert state.mode is Mode.FAIL_CHECK


def test_verdict_needs_a_check_mode():
    state = fresh_state(Mode.PHASE_EXECUTION, plan=make_plan())
    with pytest.raises(IllegalTransition):
        step(state, VerdictReady(LocalVerdict(decision=VerdictDecision.REVISE, reasons="x")))


def test_move_advances_phase_then_collates():
    state = fresh_state(Mode.PLANNING)
    step(state, PlanReady(make_plan(n_phases=2)))
    assert (state.mode, state.phase_index) == (Mode.PHASE_EXECUTION, 1)
    step(state, Executed(ok_report()))
    assert state.mode is Mode.PASS_CHECK
    step(state, VerdictReady(LocalVerdict(decision=VerdictDecision.MOVE, reasons="done")))
    assert (state.mode, state.phase_index) == (Mode.PHASE_EXECUTION, 2)
    step(state, Executed(ok_report()))
    step(state, VerdictReady(LocalVerdict(decision=VerdictDecision.MOVE, reasons="done")))
    assert state.mode is Mode.COLLATION


def test_revision_counter_resets_on_phase_advance():
    state = fresh_state(Mode.PLANNING)
    step(state, PlanReady(make_plan(n_phases=2)))
    state.revisions_this_phase = 2
    step(state, Executed(ok_report()))
    step(state, VerdictReady(LocalVerdict(decision=VerdictDecision.MOVE, reasons="done")))
    assert state.revisions_this_phase == 0


def test_budget_trip_cannot_happen_twice():
    state = fresh_state(Mode.PHASE_EXECUTION, plan=make_plan())
    step(state, BudgetTripped("max_exchanges", 30))
    assert state.mode is Mode.FORCE_STOPPED
    assert state.termination is Termination.FORCE_STOPPED
    with pytest.raises(IllegalTransition):
        step(state, BudgetTripped("max_exchanges", 30))


def test_budget_trip_reason_selects_termination():
    state = fresh_state(Mode.PASS_CHECK, plan=make_plan())
    step(state, BudgetTripped("local_revisions", 7))
    assert state.termination is Termination.BUDGET_EXHAUSTED
    assert state.termination_detail == "local_revisions"


def test_terminal_state_rejects_everything_after_close():
    outcome, recorder, _ = run_scenario("scn-happy")
    assert recorder.closed
    state = OrchestratorState(task=make_task(), recorder=recorder)
    state.mode = Mode.DONE
    with pytest.raises(IllegalTransition):
        step(state, PlanReady(make_plan()))


# ---------------------------------------------------------------------
# Golden scenarios
# ---------------------------------------------------------------------


@pytest.mark.parametrize("task_id", SCENARIOS)
def test_scenario_matches_golden_trace(task_id):
    golden = load_golden(task_id)
    outcome, recorder, _ = run_scenario(task_id, golden_budgets(golden))
    assert project(recorder.events) == golden["events"]
    assert outcome_dict(outcome) == golden["outcome"]


def test_overrule_keeps_plan_identical():
    _, recorder, _ = run_scenario("scn-overrule")
    plans = [e for e in recorder.events if e.kind.value == "PlanIssued"]
    rulings = [e for e in recorder.events if e.kind.value == "DecisionIssued"]
    assert len(plans) == 1
    assert [e.payload["ruling"] for e in rulings] == ["overrule"]


def test_replan_restarts_phase_numbering():
    _, recorder, _ = run_scenario("scn-replan")
    plans = [e.payload["plan"]["plan_version"] for e in recorder.events if e.kind.value == "PlanIssued"]
    assert plans == [1, 2]
    # the replan decision arrives before any further environment step
    kinds = [e.kind.value for e in recorder.events]
    req_at = kinds.index("ReplanRequested")
    assert kinds[req_at + 1] == "DecisionIssued"


# ---------------------------------------------------------------------
# Scripted budget exhaustion (force stop disabled)
# ---------------------------------------------------------------------

PLAN_ONE_PHASE = "Phase 1: Open the kitchen category | Expected: kitchen visible"
BAD_CLICK = "**Action 1:** click [999]"
GOOD_CLICK = "**Action 1:** click [5]"
REVISE_VERDICT = "Action: ```revise```\nReasons: wrong node id"
REQUEST_VERDICT = "Action: ```request```\nReasons: the plan names a missing page"


def run_with_script(script: list[tuple[str, str]], budgets: Budgets):
    task = make_task()
    env = WebEnv(load_fixture(task.env_fixture))
    cap = budgets.max_exchanges if budgets.force_stop_enabled else None
    recorder = RunRecorder(exchange_cap=cap)
    backend = ScriptedBackend([ScriptedExchange(m, r) for m, r in script])
    outcome = run_task(task, GlobalPlanner(backend), LocalExecutor(backend), env, budgets, recorder)
    return outcome, recorder


def test_local_revision_budget_exhausts():
    budgets = Budgets(max_local_revisions_per_phase=2, force_stop_enabled=False)
    script = [
        ("Construct the global plan", PLAN_ONE_PHASE),
        ("Work out the action sequence", BAD_CLICK),
        ("An action in this phase failed", REVISE_VERDICT),
        ("You decided to adjust your action sequence", BAD_CLICK),
        ("An action in this phase failed", REVISE_VERDICT),
        ("You decided to adjust your action sequence", BAD_CLICK),
        ("An action in this phase failed", REVISE_VERDICT),
    ]
    outcome, recorder = run_with_script(script, budgets)
    assert outcome.termination is Termination.BUDGET_EXHAUSTED
    assert outcome.detail == "local_revisions"
    assert not outcome.success
    assert outcome.exchanges_used == 7
    force_stops = [e for e in recorder.events if e.kind.value == "ForceStop"]
    assert [e.payload["reason"] for e in force_stops] == ["local_revisions"]
    assert recorder.events[-1].kind.value == "TaskResult"


def test_replan_budget_exhausts():
    budgets = Budgets(max_replan_requests_per_task=1, force_stop_enabled=False)
    script = [
        ("Construct the global plan", PLAN_ONE_PHASE),
        ("Work out the action sequence", GOOD_CLICK),
        ("ran without errors", REQUEST_VERDICT),
        ("Judge whether the fault lies", "```overrule```\nThe kitchen page is fine, look again."),
        ("kept the global plan", "**Action 1:** click [2]"),
        ("ran without errors", REQUEST_VERDICT),
    ]
    outcome, recorder = run_with_script(script, budgets)
    assert outcome.termination is Termination.BUDGET_EXHAUSTED
    assert outcome.detail == "replan_requests"
    assert outcome.exchanges_used == 6
    # the first request was granted a ruling, the second tripped the budget
    kinds = [e.kind.value for e in recorder.events]
    assert kinds.count("ReplanRequested") == 1
    assert kinds.count("DecisionIssued") == 1
    assert kinds.count("ForceStop") == 1


def test_plan_parse_failure_becomes_protocol_error():
    script = [
        ("Construct the global plan", "no plan from me"),
        ("Construct the global plan", "still refusing"),
    ]
    outcome, recorder = run_with_script(script, Budgets())
    assert outcome.termination is Termination.PROTOCOL_ERROR
    assert "PlanParseError" in outcome.detail
    assert not outcome.success
    assert recorder.events[-1].kind.value == "TaskResult"


def test_backend_exhaustion_becomes_protocol_error():
    outcome, recorder = run_with_script([("Construct the global plan", PLAN_ONE_PHASE)], Budgets())
    assert outcome.termination is Termination.PROTOCOL_ERROR
    assert "BackendExhausted" in outcome.detail


def test_force_stop_during_collation_downgrades_the_run():
    # scn-happy needs 6 exchanges; a cap of 5 trips on the collate call
    budgets = Budgets(max_exchanges=5, force_stop_enabled=True)
    outcome, recorder, env = run_scenario("scn-happy", budgets)
    assert outcome.termination is Termination.FORCE_STOPPED
    assert outcome.exchanges_used == 5
    assert not outcome.success
    # the fallback answer is whatever the execution agent stopped with
    assert outcome.final_answer == (env.stop_answer or "")
    assert outcome.final_answer  # scn-happy does stop with an answer
    kinds = [e.kind.value for e in recorder.events]
    assert kinds[-2:] == ["ForceStop", "TaskResult"]


# ---------------------------------------------------------------------
# Adversarial fuzz: the protocol must never wedge, crash, or overspend
# ---------------------------------------------------------------------

PLAN_POOL = (
    "Phase 1: Open a category | Expected: listing visible",
    "Phase 1: Open a category | Expected: listing visible\n"
    "Phase 2: Read the details | Expected: answer known",
    "Phase 1: Search the site | Expected: results visible\n"
    "Phase 2: Open the best match | Expected: detail page\n"
    "Phase 3: Report the answer | Expected: task done",
    "I cannot plan this right now.",
    "",
)

ACTION_POOL = (
    "**Action 1:** click [3]\n**Action 2:** stop [found it]",
    "**Action 1:** click [5]",
    "**Action 1:** click [99]",
    "**Action 1:** click [2]\n**Action 2:** click [4]",
    "**Action 1:** goto [http://shop.local/category/kitchen]",
    "**Action 1:** goto [http://nowhere.invalid/]",
    "**Action 1:** scroll [down]\n**Action 2:** scroll [up]",
    "**Action 1:** go_back\n**Action 2:** stop",
    "**Action 1:** stop [the answer is 42]",
    "**Action 1:** tap [3]",
    "let me think about this",
    "",
)

PASS_VERDICT_POOL = (
    "Action: ```move```\nReasons: the page matches the expected state",
    "Action: ```revise```\nReasons: landed on the wrong page",
    "Action: ```request```\nReasons: the plan references a page that does not exist",
    "Action: proceed",
    "",
)

FAIL_VERDICT_POOL = (
    "Action: ```revise```\nReasons: the node id was wrong",
    "Action: ```request```\nReasons: the planned page is missing",
    "Action: ```move```\nReasons: it is probably fine",
    "whatever",
)

DECISION_POOL = (
    "```revise```\nThe plan assumed a dead page.",
    "```overrule```\nScroll down and retry the same phase.",
    "```overrule```",
    "no ruling from me",
)

COLLATE_POOL = (
    "The answer is 42.",
    "",
    "   ",
)


class AdversarialBackend:
    """Answers every prompt with a seeded draw from a per-role pool."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def complete(self, request) -> str:
        prompt = request.rendered()
        if "Construct the global plan" in prompt or "You accepted the replan request" in prompt:
            return self.rng.choice(PLAN_POOL)
        if (
            "Work out the action sequence" in prompt
            or "You decided to adjust your action sequence" in prompt
            or "kept the global plan" in prompt
        ):
            return self.rng.choice(ACTION_POOL)
        if "ran without errors" in prompt:
            return self.rng.choice(PASS_VERDICT_POOL)
        if "An action in this phase failed" in prompt:
            return self.rng.choice(FAIL_VERDICT_POOL)
        if "Judge whether the fault lies" in prompt:
            return self.rng.choice(DECISION_POOL)
        if "Produce the final answer" in prompt:
            return self.rng.choice(COLLATE_POOL)
        return "???"


def check_invariants(outcome: TaskOutcome, recorder: RunRecorder, budgets: Budgets) -> None:
    events = recorder.events
    kinds = [e.kind.value for e in events]

    assert recorder.closed
    assert kinds[-1] == "TaskResult"
    assert kinds.count("TaskResult") == 1

    seqs = [e.seq for e in events]
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))

    assert kinds.count("LlmCall") == outcome.exchanges_used == recorder.exchanges

    if budgets.force_stop_enabled:
        assert outcome.exchanges_used <= budgets.max_exchanges
        if outcome.termination is Termination.FORCE_STOPPED:
            assert outcome.exchanges_used == budgets.max_exchanges
    else:
        assert outcome.termination is not Termination.FORCE_STOPPED

    if outcome.termination is Termination.BUDGET_EXHAUSTED:
        assert not budgets.force_stop_enabled
        assert outcome.detail in ("local_revisions", "replan_requests")

    if outcome.success:
        assert outcome.termination is Termination.COMPLETED

    # every filed replan request is ruled on immediately
    for i, kind in enumerate(kinds):
        if kind == "ReplanRequested":
            assert kinds[i + 1] == "DecisionIssued", kinds
    assert kinds.count("ReplanRequested") == kinds.count("DecisionIssued")

    # plan versions are dense from 1; overrules never mint a version
    versions = [
        e.payload["plan"]["plan_version"] for e in events if e.kind.value == "PlanIssued"
    ]
    assert versions == list(range(1, len(versions) + 1))
    revises = sum(
        1 for e in events if e.kind.value == "DecisionIssued" and e.payload["ruling"] == "revise"
    )
    if versions:
        assert len(versions) == 1 + revises
    assert outcome.plan_versions == len(versions)


def run_adversarial(n_runs: int, seed: int) -> Counter:
    fixtures = {name: load_fixture(name) for name in ("shop", "cms", "gitlab")}
    terminations: Counter = Counter()
    for i in range(n_runs):
        rng = random.Random(seed * 100003 + i)
        fixture_name = rng.choice(("shop", "cms", "gitlab"))
        budgets = Budgets(
            max_exchanges=rng.randint(4, 12),
            max_local_revisions_per_phase=rng.randint(0, 3),
            max_replan_requests_per_task=rng.randint(0, 2),
            force_stop_enabled=rng.random() < 0.7,
        )
        task = make_task(id=f"fuzz-{i}", env_fixture=fixture_name)
        env = WebEnv(fixtures[fixture_name])
        cap = budgets.max_exchanges if budgets.force_stop_enabled else None
        recorder = RunRecorder(exchange_cap=cap)
        backend = AdversarialBackend(rng)
        outcome = run_task(
            task, GlobalPlanner(backend), LocalExecutor(backend), env, budgets, recorder
        )
        check_invariants(outcome, recorder, budgets)
        terminations[outcome.termination.value] += 1
    return terminations


def test_adversarial_runs_stay_sane_and_fast():
    started = time.monotonic()
    terminations = run_adversarial(FUZZ_RUNS, FUZZ_SEED)
    elapsed = time.monotonic() - started
    assert sum(terminations.values()) == FUZZ_RUNS
    assert elapsed < 60.0, f"fuzz took {elapsed:.1f}s"
    # the pools are adversarial enough to exercise every termination kind
    assert set(terminations) == {
        "completed",
        "force_stopped",
        "budget_exhausted",
        "protocol_error",
    }, terminations
