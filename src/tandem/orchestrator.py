"""Orchestration of one task run.

The dialogue between planner, executor and environment is driven as an
explicit state machine.  ``step`` is the transition function: it takes
the current state plus one input, either a protocol message (a
GlobalPlan, ExecutionReport, LocalVerdict, ReplanRequest or
GlobalDecision) or one of the run's own events (BudgetTripped,
ProtocolFailed, Finalized), appends the transcript events that
transition represents, and moves the mode.  ``run_task`` is the driver
that produces those inputs by calling the agents and the environment in
the right order.

Mode graph (inputs in parentheses):

    Planning --(GlobalPlan)--> PhaseExecution(k=1)
    PhaseExecution | LocalRevision --(ExecutionReport)--> PassCheck | FailCheck
    PassCheck --(LocalVerdict move)--> PhaseExecution(k+1) | Collation (last phase)
    PassCheck | FailCheck --(LocalVerdict revise)--> LocalRevision
    PassCheck | FailCheck --(LocalVerdict request)--> ReplanPending
    PassCheck | FailCheck --(revise | request past its limit, force stop off)--> ForceStopped
    ReplanPending --(ReplanRequest)--> AwaitingDecision
    AwaitingDecision --(GlobalDecision revise)--> PhaseExecution(k=1, new plan)
    AwaitingDecision --(GlobalDecision overrule)--> LocalRevision
    Collation --(Finalized)--> Done
    any active --(BudgetTripped)--> ForceStopped
    any active --(ProtocolFailed)--> Done

Budget semantics: ``OrchestratorState`` arms its recorder's exchange gate
from its budgets.  With force stop enabled the gate interrupts the run
the moment a call would exceed max_exchanges; with it disabled the gate
is off and ``step`` applies the per-phase revision and per-task replan
limits to each revise or request verdict.  Either way the budget event
is a ForceStop whose ``reason`` says which limit tripped, and the run's
TaskResult takes its termination and detail from it and never succeeds.
"""

from enum import Enum
from typing import NamedTuple

from .backend import BackendError
from .executor import LocalExecutor
from .grammar import GrammarError, render_action
from .planner import GlobalPlanner
from .protocol import (
    Budgets,
    EnvStep,
    EventKind,
    ExecutionReport,
    ForceStop,
    GlobalDecision,
    GlobalPlan,
    LocalVerdict,
    ReplanRequest,
    Ruling,
    Task,
    TaskResult,
    Termination,
    TranscriptEvent,
    VerdictDecision,
    record,
)
from .transcript import ForceStopInterrupt, RunRecorder, is_closed
from .webenv import WebEnv, evaluate

__all__ = [
    "BudgetTripped",
    "Finalized",
    "IllegalTransition",
    "Mode",
    "OrchestratorState",
    "ProtocolFailed",
    "TaskOutcome",
    "Termination",
    "record_result",
    "run_task",
    "step",
]


class Mode(Enum):
    PLANNING = "Planning"
    PHASE_EXECUTION = "PhaseExecution"
    PASS_CHECK = "PassCheck"
    FAIL_CHECK = "FailCheck"
    LOCAL_REVISION = "LocalRevision"
    REPLAN_PENDING = "ReplanPending"
    AWAITING_DECISION = "AwaitingDecision"
    COLLATION = "Collation"
    DONE = "Done"
    FORCE_STOPPED = "ForceStopped"


TERMINAL_MODES = (Mode.DONE, Mode.FORCE_STOPPED)


class IllegalTransition(Exception):
    pass


# =====================================================================
# Step inputs besides the protocol messages
# =====================================================================


class BudgetTripped(NamedTuple):
    exchange_count: int


class ProtocolFailed(NamedTuple):
    detail: str
    answer: str = ""


class Finalized(NamedTuple):
    success: bool
    answer: str


StepInput = (
    GlobalPlan | ExecutionReport | LocalVerdict | ReplanRequest | GlobalDecision
    | BudgetTripped | ProtocolFailed | Finalized
)


# =====================================================================
# State
# =====================================================================


class OrchestratorState:
    """The mutable state ``step`` moves; building it arms the recorder's
    exchange gate: a cap only with force stop on."""

    def __init__(self, recorder: RunRecorder, budgets: Budgets = Budgets()) -> None:
        self.recorder = recorder
        self.budgets = budgets
        self.mode = Mode.PLANNING
        self.phase_index = 0
        self.plan: GlobalPlan | None = None
        self.replan_requests = 0
        self.revisions_this_phase = 0
        self.last_report: ExecutionReport | None = None
        recorder.exchange_cap = budgets.max_exchanges if budgets.force_stop_enabled else None


@record
class TaskOutcome(NamedTuple):
    task_id: str
    success: bool
    final_answer: str
    termination: Termination
    exchanges_used: int
    plan_versions: int
    detail: str = ""

    @classmethod
    def from_events(cls, task_id: str, events: list[TranscriptEvent]) -> "TaskOutcome":
        """The outcome recorded by a run's closing TaskResult, its LlmCall
        count and its last PlanIssued's version (0 with no plan)."""
        success, answer, termination, detail = TaskResult.from_dict(events[-1].payload)
        plans = [e.payload["plan"] for e in events if e.kind is EventKind.PLAN_ISSUED]
        exchanges = sum(e.kind is EventKind.LLM_CALL for e in events)
        version = plans[-1]["plan_version"] if plans else 0
        return cls(task_id, success, answer, termination, exchanges, version, detail)


# =====================================================================
# Transition function
# =====================================================================


def step(state: OrchestratorState, inp: StepInput) -> OrchestratorState:
    """Apply exactly one transition; appends at least one event.

    Raises IllegalTransition when `inp` is not legal in the current
    mode, leaving the state untouched.
    """
    mode = state.mode
    rec = state.recorder

    if mode in TERMINAL_MODES and is_closed(rec.events):
        raise IllegalTransition(f"{mode.value} is terminal")

    if isinstance(inp, BudgetTripped):
        if mode in TERMINAL_MODES:
            raise IllegalTransition(f"{mode.value} cannot trip a budget")
        _force_stop(state, "max_exchanges", inp.exchange_count)
        return state

    if isinstance(inp, ProtocolFailed):
        if mode in TERMINAL_MODES:
            raise IllegalTransition(f"{mode.value} cannot fail")
        record_result(rec, False, inp.answer, Termination.PROTOCOL_ERROR, inp.detail)
        state.mode = Mode.DONE
        return state

    if isinstance(inp, GlobalPlan):
        if mode is not Mode.PLANNING:
            raise IllegalTransition(f"{mode.value} cannot accept a fresh plan")
        _issue_plan(state, inp)
        return state

    if isinstance(inp, ExecutionReport):
        if mode not in (Mode.PHASE_EXECUTION, Mode.LOCAL_REVISION):
            raise IllegalTransition(f"{mode.value} cannot accept an execution report")
        for s in inp.steps:
            rec.append(EventKind.ENV_STEP, EnvStep(render_action(s.action), *s.outcome).to_dict())
        state.last_report = inp
        state.mode = Mode.FAIL_CHECK if inp.raised_exception else Mode.PASS_CHECK
        return state

    if isinstance(inp, LocalVerdict):
        if mode not in (Mode.PASS_CHECK, Mode.FAIL_CHECK):
            raise IllegalTransition(f"{mode.value} cannot accept a verdict")
        decision = inp.decision
        if decision is VerdictDecision.MOVE and mode is Mode.FAIL_CHECK:
            raise IllegalTransition("move verdict is not allowed after an execution error")
        rec.append(EventKind.VERDICT_ISSUED, inp.to_dict())
        if decision is VerdictDecision.MOVE:
            assert state.plan is not None
            if state.phase_index < len(state.plan.phases):
                state.phase_index += 1
                state.revisions_this_phase = 0
                state.mode = Mode.PHASE_EXECUTION
            else:
                state.mode = Mode.COLLATION
        elif decision is VerdictDecision.REVISE:
            limit = state.budgets.max_local_revisions_per_phase
            if _within_limit(state, state.revisions_this_phase, limit, "local_revisions"):
                state.revisions_this_phase += 1
                state.mode = Mode.LOCAL_REVISION
        else:
            limit = state.budgets.max_replan_requests_per_task
            if _within_limit(state, state.replan_requests, limit, "replan_requests"):
                state.replan_requests += 1
                state.mode = Mode.REPLAN_PENDING
        return state

    if isinstance(inp, ReplanRequest):
        if mode is not Mode.REPLAN_PENDING:
            raise IllegalTransition(f"{mode.value} cannot file a replan request")
        rec.append(EventKind.REPLAN_REQUESTED, {"request": inp.to_dict()})
        state.mode = Mode.AWAITING_DECISION
        return state

    if isinstance(inp, GlobalDecision):
        if mode is not Mode.AWAITING_DECISION:
            raise IllegalTransition(f"{mode.value} cannot accept a ruling")
        rec.append(EventKind.DECISION_ISSUED, inp.to_dict())
        if inp.ruling is Ruling.REVISE:
            _issue_plan(state, inp.new_plan)
        else:
            state.mode = Mode.LOCAL_REVISION
        return state

    if isinstance(inp, Finalized):
        if mode is Mode.COLLATION:
            termination, detail = Termination.COMPLETED, ""
            state.mode = Mode.DONE
        elif mode is Mode.FORCE_STOPPED and not inp.success:  # its ForceStop says why
            stop = next(e for e in reversed(rec.events) if e.kind is EventKind.FORCE_STOP)
            detail = stop.payload["reason"]
            exhausted = detail != "max_exchanges"  # a revision or replan limit
            termination = Termination.BUDGET_EXHAUSTED if exhausted else Termination.FORCE_STOPPED
        else:  # a force-stopped run fails
            raise IllegalTransition(f"{mode.value} cannot finalize with success={inp.success}")
        record_result(rec, inp.success, inp.answer, termination, detail)
        return state

    raise IllegalTransition(f"unknown input {type(inp).__name__}")


def _within_limit(state: OrchestratorState, used: int, limit: int, reason: str) -> bool:
    """Whether the run may take one more revision or replan request.

    The per-phase revision and per-task replan limits bind only with force
    stop disabled; a verdict past its limit force-stops the run instead.
    """
    if state.budgets.force_stop_enabled or used < limit:
        return True
    _force_stop(state, reason, state.recorder.exchanges)
    return False


def _force_stop(state: OrchestratorState, reason: str, exchange_count: int) -> None:
    state.recorder.append(EventKind.FORCE_STOP, ForceStop(exchange_count, reason).to_dict())
    state.mode = Mode.FORCE_STOPPED


def record_result(
    recorder: RunRecorder, success: bool, answer: str, termination: Termination, detail: str
) -> None:
    """Close the transcript with its TaskResult; the one writer of that payload."""
    result = TaskResult(success, answer, termination, detail)
    recorder.append(EventKind.TASK_RESULT, result.to_dict())


def _issue_plan(state: OrchestratorState, plan: GlobalPlan) -> None:
    state.plan = plan
    state.phase_index = 1
    state.revisions_this_phase = 0
    state.recorder.append(EventKind.PLAN_ISSUED, {"plan": plan.to_dict()})
    state.mode = Mode.PHASE_EXECUTION


# =====================================================================
# Driver
# =====================================================================


def run_task(
    task: Task,
    planner: GlobalPlanner,
    executor: LocalExecutor,
    env: WebEnv,
    budgets: Budgets,
    recorder: RunRecorder,
) -> TaskOutcome:
    """Run one task end to end and return the outcome its events record.

    Each mode asks one agent method for the next step input: the
    executor's ``actions`` with the prompt the last step calls for (plan
    in a new phase, revise after a revise verdict, overruled after an
    overrule), its ``check`` on the last report, and the planner's
    ``decide_replan`` on a request and ``collate`` in Collation.  Parse
    failures that survive their repair round become a protocol_error
    outcome; environment load problems raise before any LLM call.  A
    force-stopped run closes with the stop answer and no collation call.
    """
    state = OrchestratorState(recorder=recorder, budgets=budgets)

    obs = env.reset()
    follow_up: tuple[str, dict[str, str]] = ("plan", {})  # the next action prompt, its fields

    try:
        step(state, planner.plan(task, obs, recorder))

        while state.mode not in TERMINAL_MODES:
            assert state.plan is not None
            phase = state.plan.phase(state.phase_index)
            if state.mode in (Mode.PHASE_EXECUTION, Mode.LOCAL_REVISION):
                if state.mode is Mode.PHASE_EXECUTION:
                    follow_up = "plan", {}
                action, values = follow_up
                seq = executor.actions(action, phase, env.observe(), recorder, **values)
                step(state, executor.execute_actions(seq, env))

            elif state.mode in (Mode.PASS_CHECK, Mode.FAIL_CHECK):
                assert state.last_report is not None
                verdict = executor.check(state.last_report, phase, recorder)
                follow_up = "revise", {"reasons": verdict.reasons}
                step(state, verdict)

            elif state.mode is Mode.REPLAN_PENDING:
                request = ReplanRequest(
                    phase_index=state.phase_index,
                    reasons=verdict.reasons,
                    report=state.last_report,
                )
                decision = planner.decide_replan(
                    request, task, env.observe(), state.plan, recorder
                )
                step(state, request)
                step(state, decision)
                if decision.ruling is Ruling.OVERRULE:
                    follow_up = "overruled", {"guidance": decision.guidance}

            else:  # Collation
                answer = planner.collate(
                    state.last_report, task, env.observe(), recorder, stop_answer=env.stop_answer
                )
                step(state, Finalized(evaluate(answer, env, task.evaluator), answer))

    except ForceStopInterrupt as fs:
        step(state, BudgetTripped(fs.exchange_count))
    except (GrammarError, BackendError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
        step(state, ProtocolFailed(detail=detail, answer=env.stop_answer or ""))

    if state.mode is Mode.FORCE_STOPPED:
        step(state, Finalized(success=False, answer=(env.stop_answer or "").strip()))
    return TaskOutcome.from_events(task.id, recorder.events)
