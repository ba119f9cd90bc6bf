from __future__ import annotations

import hashlib
import json
import random
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest

from tandem.backend import ScriptedBackend, ScriptedExchange
from tandem.executor import LocalExecutor
from tandem.harness import replay_transcript
from tandem.orchestrator import (
    BudgetTripped,
    Finalized,
    IllegalTransition,
    Mode,
    OrchestratorState,
    ProtocolFailed,
    TaskOutcome,
    Termination,
    run_task,
    step,
)
from tandem.planner import GlobalPlanner
from tandem.protocol import (
    Budgets,
    EventKind,
    ExecutionReport,
    ExecutionStep,
    GlobalDecision,
    GlobalPlan,
    LocalVerdict,
    ReplanRequest,
    Ruling,
    StepOutcome,
    VerdictDecision,
)
from tandem.transcript import RunRecorder, is_closed, strip_volatile, write_transcript
from tandem.webenv import WebEnv, load_fixture

from conftest import (
    SCENARIOS,
    action,
    assert_declared,
    golden_budgets,
    load_golden,
    make_obs,
    make_phase,
    make_task,
    outcome_dict,
    project,
    run_scenario,
    scenario_backend,
    scenario_task,
)

FUZZ_RUNS = 1000
FUZZ_SEED = 977
# sha256 over every fuzz run's events (minus ts and latency) and outcome.
# A change that is meant to alter what runs record must recompute it: print
# run_adversarial(FUZZ_RUNS, FUZZ_SEED)[1] and paste the value here.
FUZZ_DIGEST = "b9cceaaa6e2cdc71fa00c0a78930f5693b7a85b50ee990770643c5ec86cdd2a6"


# ---------------------------------------------------------------------
# step(): transition legality
# ---------------------------------------------------------------------


def fresh_state(mode: Mode = Mode.PLANNING, plan: GlobalPlan | None = None) -> OrchestratorState:
    state = OrchestratorState(recorder=RunRecorder())
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


# Every step input by name, built fresh for each case.
STEP_INPUTS = {
    "plan": lambda: make_plan(version=2),
    "report": ok_report,
    "move": lambda: LocalVerdict(decision=VerdictDecision.MOVE, reasons="done"),
    "revise": lambda: LocalVerdict(decision=VerdictDecision.REVISE, reasons="again"),
    "request": lambda: ReplanRequest(phase_index=1, reasons="dead page", report=ok_report()),
    "ruling": lambda: GlobalDecision(Ruling.OVERRULE, guidance="look again"),
    "budget": lambda: BudgetTripped(3),
    "failure": lambda: ProtocolFailed("GrammarError: no plan"),
    "finalized_success": lambda: Finalized(success=True, answer="42"),
    "finalized_failure": lambda: Finalized(success=False, answer="42"),
    "unknown": lambda: object(),
}

ACTIVE_MODES = [m for m in Mode if m not in (Mode.DONE, Mode.FORCE_STOPPED)]

# The modes each input is legal in, and the mode it moves to from each.
LEGAL = {
    "plan": {Mode.PLANNING: Mode.PHASE_EXECUTION},
    "report": {Mode.PHASE_EXECUTION: Mode.PASS_CHECK, Mode.LOCAL_REVISION: Mode.PASS_CHECK},
    "move": {Mode.PASS_CHECK: Mode.PHASE_EXECUTION},
    "revise": {Mode.PASS_CHECK: Mode.LOCAL_REVISION, Mode.FAIL_CHECK: Mode.LOCAL_REVISION},
    "request": {Mode.REPLAN_PENDING: Mode.AWAITING_DECISION},
    "ruling": {Mode.AWAITING_DECISION: Mode.LOCAL_REVISION},
    "budget": dict.fromkeys(ACTIVE_MODES, Mode.FORCE_STOPPED),
    "failure": dict.fromkeys(ACTIVE_MODES, Mode.DONE),
    "finalized_success": {Mode.COLLATION: Mode.DONE},
    "finalized_failure": {Mode.COLLATION: Mode.DONE, Mode.FORCE_STOPPED: Mode.FORCE_STOPPED},
    "unknown": {},
}


@pytest.mark.parametrize("name", STEP_INPUTS)
@pytest.mark.parametrize("mode", Mode, ids=lambda m: m.value)
def test_step_legality_table(mode, name):
    state = fresh_state(mode, plan=make_plan())
    state.phase_index, state.last_report = 1, ok_report()
    if mode is Mode.FORCE_STOPPED:  # entered as a run enters it, by a ForceStop event
        state.mode = Mode.PHASE_EXECUTION
        step(state, BudgetTripped(3))
    before = list(state.recorder.events)
    inp = STEP_INPUTS[name]()
    if mode in LEGAL[name]:
        step(state, inp)
        assert len(state.recorder.events) > len(before)
        assert state.mode is LEGAL[name][mode]
    else:
        with pytest.raises(IllegalTransition):
            step(state, inp)
        assert state.recorder.events == before
        assert state.mode is mode


def test_step_dispatches_by_class_not_by_items():
    # A record is a tuple and equals a plain tuple of its items; step reads the class.
    plan = make_plan()
    assert tuple(plan) == plan
    state = fresh_state()
    with pytest.raises(IllegalTransition, match="unknown input tuple"):
        step(state, tuple(plan))
    assert state.recorder.events == [] and state.mode is Mode.PLANNING


def test_move_advances_phase_then_collates():
    state = fresh_state(Mode.PLANNING)
    step(state, make_plan(n_phases=2))
    assert (state.mode, state.phase_index) == (Mode.PHASE_EXECUTION, 1)
    step(state, ok_report())
    assert state.mode is Mode.PASS_CHECK
    step(state, LocalVerdict(decision=VerdictDecision.MOVE, reasons="done"))
    assert (state.mode, state.phase_index) == (Mode.PHASE_EXECUTION, 2)
    step(state, ok_report())
    step(state, LocalVerdict(decision=VerdictDecision.MOVE, reasons="done"))
    assert state.mode is Mode.COLLATION


def test_revision_counter_resets_on_phase_advance():
    state = fresh_state(Mode.PLANNING)
    step(state, make_plan(n_phases=2))
    state.revisions_this_phase = 2
    step(state, ok_report())
    step(state, LocalVerdict(decision=VerdictDecision.MOVE, reasons="done"))
    assert state.revisions_this_phase == 0


def result_after_finalizing(state: OrchestratorState) -> dict:
    step(state, Finalized(success=False, answer=""))
    return state.recorder.events[-1].payload


def test_budget_trip_cannot_happen_twice():
    state = fresh_state(Mode.PHASE_EXECUTION, plan=make_plan())
    step(state, BudgetTripped(30))
    assert state.mode is Mode.FORCE_STOPPED
    with pytest.raises(IllegalTransition):
        step(state, BudgetTripped(30))
    result = result_after_finalizing(state)
    assert (result["termination"], result["detail"]) == ("force_stopped", "max_exchanges")


# Each limit: the verdict it counts, the counter, the Budgets field, the
# ForceStop reason past the limit and the mode below it.
LIMITS = [
    pytest.param(
        VerdictDecision.REVISE,
        "revisions_this_phase",
        "max_local_revisions_per_phase",
        "local_revisions",
        Mode.LOCAL_REVISION,
        id="revise",
    ),
    pytest.param(
        VerdictDecision.REQUEST,
        "replan_requests",
        "max_replan_requests_per_task",
        "replan_requests",
        Mode.REPLAN_PENDING,
        id="request",
    ),
]


def verdict_state(counter: str, used: int, limit_field: str, force_stop: bool) -> OrchestratorState:
    budgets = Budgets(**{limit_field: 2, "force_stop_enabled": force_stop})
    state = OrchestratorState(recorder=RunRecorder(), budgets=budgets)
    state.mode, state.plan, state.phase_index = Mode.FAIL_CHECK, make_plan(), 1
    setattr(state, counter, used)
    for _ in range(3):
        state.recorder.append(
            EventKind.LLM_CALL,
            {"role": "local", "prompt": "prompt", "response": "response", "latency": 0.0},
        )
    return state


@pytest.mark.parametrize("decision,counter,limit_field,reason,next_mode", LIMITS)
def test_verdict_at_its_limit_force_stops(decision, counter, limit_field, reason, next_mode):
    state = verdict_state(counter, 2, limit_field, force_stop=False)
    step(state, LocalVerdict(decision=decision, reasons="again"))
    tail = state.recorder.events[-2:]
    assert [e.kind.value for e in tail] == ["VerdictIssued", "ForceStop"]
    assert tail[1].payload == {"exchange_count": 3, "reason": reason}
    assert state.mode is Mode.FORCE_STOPPED
    assert getattr(state, counter) == 2
    result = result_after_finalizing(state)
    assert (result["termination"], result["detail"]) == ("budget_exhausted", reason)


@pytest.mark.parametrize("decision,counter,limit_field,reason,next_mode", LIMITS)
def test_verdict_below_its_limit_is_counted(decision, counter, limit_field, reason, next_mode):
    state = verdict_state(counter, 1, limit_field, force_stop=False)
    step(state, LocalVerdict(decision=decision, reasons="again"))
    assert state.recorder.events[-1].kind.value == "VerdictIssued"
    assert state.mode is next_mode
    assert getattr(state, counter) == 2


@pytest.mark.parametrize("decision,counter,limit_field,reason,next_mode", LIMITS)
def test_limits_do_not_bind_with_force_stop(decision, counter, limit_field, reason, next_mode):
    state = verdict_state(counter, 2, limit_field, force_stop=True)
    step(state, LocalVerdict(decision=decision, reasons="again"))
    assert state.recorder.events[-1].kind.value == "VerdictIssued"
    assert state.mode is next_mode
    assert getattr(state, counter) == 3


def test_terminal_state_rejects_everything_after_close():
    outcome, recorder, _ = run_scenario("scn-happy")
    assert is_closed(recorder.events)
    state = OrchestratorState(recorder=recorder)
    state.mode = Mode.DONE
    with pytest.raises(IllegalTransition):
        step(state, make_plan())


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
    recorder = RunRecorder()
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


def test_run_arms_a_bare_recorder_from_its_budgets():
    # scn-happy needs 6 exchanges; the run alone must hold it to 3
    task = scenario_task("scn-happy")
    backend = scenario_backend("scn-happy")
    recorder = RunRecorder()
    outcome = run_task(
        task, GlobalPlanner(backend), LocalExecutor(backend), WebEnv(load_fixture(task.env_fixture)),
        Budgets(max_exchanges=3), recorder,
    )
    assert outcome.termination is Termination.FORCE_STOPPED
    assert outcome.exchanges_used == recorder.exchanges == 3
    assert recorder.events[-2].payload == {"exchange_count": 3, "reason": "max_exchanges"}


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

    assert kinds[-1] == "TaskResult"
    assert kinds.count("TaskResult") == 1

    seqs = [e.seq for e in events]
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))

    assert kinds.count("LlmCall") == outcome.exchanges_used == recorder.exchanges
    for e in events:
        assert_declared(e.kind, e.payload)

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


def run_adversarial(n_runs: int, seed: int) -> tuple[Counter, str]:
    """Termination counts over `n_runs` seeded runs, and FUZZ_DIGEST's value for them.

    Each run is written out as a transcript and must replay with its own outcome.
    """
    fixtures = {name: load_fixture(name) for name in ("shop", "cms", "gitlab")}
    terminations: Counter = Counter()
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
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
            recorder = RunRecorder()
            backend = AdversarialBackend(rng)
            outcome = run_task(
                task, GlobalPlanner(backend), LocalExecutor(backend), env, budgets, recorder
            )
            check_invariants(outcome, recorder, budgets)
            terminations[outcome.termination.value] += 1
            run = [*map(strip_volatile, recorder.events), outcome.to_dict()]
            digest.update(json.dumps(run, sort_keys=True).encode())

            path = Path(tmp, f"{task.id}.transcript.jsonl")
            header = {"task": task.to_dict(), "budgets": budgets.to_dict()}
            write_transcript(path, header, recorder.events)
            replayed = replay_transcript(path)
            assert (replayed.ok, replayed.outcome) == (True, outcome), (i, replayed.message)
    return terminations, digest.hexdigest()


def test_adversarial_runs_stay_sane_and_fast():
    started = time.monotonic()
    terminations, digest = run_adversarial(FUZZ_RUNS, FUZZ_SEED)
    elapsed = time.monotonic() - started
    assert sum(terminations.values()) == FUZZ_RUNS
    assert elapsed < 60.0, f"fuzz took {elapsed:.1f}s"
    assert digest == FUZZ_DIGEST, (
        "the fuzz runs recorded different events or outcomes; if that is intended, "
        f"set FUZZ_DIGEST = {digest!r}"
    )
    # the pools are adversarial enough to exercise every termination kind
    assert set(terminations) == {
        "completed",
        "force_stopped",
        "budget_exhausted",
        "protocol_error",
    }, terminations
