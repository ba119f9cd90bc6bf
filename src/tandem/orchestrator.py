"""Orchestration of one task run.

The dialogue between planner, executor and environment is driven as an
explicit state machine.  ``step`` is the transition function: it takes
the current state plus one typed input, appends the transcript events
that transition represents, and moves the mode.  ``run_task`` is the
driver that produces those inputs by calling the agents and the
environment in the right order.

Mode graph (inputs in parentheses):

    Planning --(PlanReady)--> PhaseExecution(k=1)
    PhaseExecution | LocalRevision --(Executed)--> PassCheck | FailCheck
    PassCheck --(move)--> PhaseExecution(k+1) | Collation (last phase)
    PassCheck | FailCheck --(revise)--> LocalRevision
    PassCheck | FailCheck --(request)--> ReplanPending
    PassCheck | FailCheck --(revise | request past its limit, force stop off)--> ForceStopped
    ReplanPending --(RequestReady)--> AwaitingDecision
    AwaitingDecision --(revise ruling)--> PhaseExecution(k=1, new plan)
    AwaitingDecision --(overrule ruling)--> LocalRevision
    Collation --(Finalized)--> Done
    any active --(BudgetTripped)--> ForceStopped
    any active --(ProtocolFailed)--> Done

Budget semantics: with force stop enabled the recorder's exchange gate
interrupts the run the moment a call would exceed max_exchanges; with it
disabled, ``step`` applies the per-phase revision and per-task replan
limits to each revise or request verdict.  Either way the budget event
recorded is a ForceStop event whose ``reason`` field says which limit
tripped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .backend import BackendExhausted, ResponseEmpty, TransportError
from .executor import LocalExecutor
from .grammar import GrammarError, render_action
from .planner import GlobalPlanner, MissingContextField, PlannerContext
from .protocol import (
    Budgets,
    DictCodec,
    EventKind,
    ExecutionReport,
    GlobalDecision,
    GlobalPlan,
    LocalVerdict,
    ReplanRequest,
    Task,
    VerdictDecision,
)
from .transcript import ForceStopInterrupt, RunRecorder
from .webenv import WebEnv, evaluate

__all__ = [
    "BudgetTripped",
    "Executed",
    "Finalized",
    "IllegalTransition",
    "Mode",
    "OrchestratorState",
    "PlanReady",
    "ProtocolFailed",
    "RequestReady",
    "DecisionReady",
    "TaskOutcome",
    "Termination",
    "VerdictReady",
    "finalize",
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


class Termination(str, Enum):
    COMPLETED = "completed"
    FORCE_STOPPED = "force_stopped"
    BUDGET_EXHAUSTED = "budget_exhausted"
    PROTOCOL_ERROR = "protocol_error"


class IllegalTransition(Exception):
    pass


# =====================================================================
# Step inputs
# =====================================================================


@dataclass(frozen=True)
class PlanReady:
    plan: GlobalPlan


@dataclass(frozen=True)
class Executed:
    report: ExecutionReport


@dataclass(frozen=True)
class VerdictReady:
    verdict: LocalVerdict


@dataclass(frozen=True)
class RequestReady:
    request: ReplanRequest


@dataclass(frozen=True)
class DecisionReady:
    decision: GlobalDecision


@dataclass(frozen=True)
class BudgetTripped:
    reason: str  # "max_exchanges"
    exchange_count: int


@dataclass(frozen=True)
class ProtocolFailed:
    detail: str
    answer: str = ""


@dataclass(frozen=True)
class Finalized:
    success: bool
    answer: str


StepInput = (
    PlanReady
    | Executed
    | VerdictReady
    | RequestReady
    | DecisionReady
    | BudgetTripped
    | ProtocolFailed
    | Finalized
)


# =====================================================================
# State
# =====================================================================


@dataclass
class OrchestratorState:
    task: Task
    recorder: RunRecorder
    budgets: Budgets = field(default_factory=Budgets)
    mode: Mode = Mode.PLANNING
    phase_index: int = 0
    plan: GlobalPlan | None = None
    replan_requests: int = 0
    revisions_this_phase: int = 0
    termination: Termination = Termination.COMPLETED
    termination_detail: str = ""
    last_report: ExecutionReport | None = None


@dataclass(frozen=True)
class TaskOutcome(DictCodec):
    task_id: str
    success: bool
    final_answer: str
    termination: Termination
    exchanges_used: int
    plan_versions: int
    detail: str = ""


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

    if mode in TERMINAL_MODES and rec.closed:
        raise IllegalTransition(f"{mode.value} is terminal")

    if isinstance(inp, BudgetTripped):
        if mode in TERMINAL_MODES:
            raise IllegalTransition(f"{mode.value} cannot trip a budget")
        _force_stop(state, inp.reason, inp.exchange_count)
        return state

    if isinstance(inp, ProtocolFailed):
        if mode in TERMINAL_MODES:
            raise IllegalTransition(f"{mode.value} cannot fail")
        state.termination = Termination.PROTOCOL_ERROR
        state.termination_detail = inp.detail
        _record_result(state, False, inp.answer)
        state.mode = Mode.DONE
        return state

    if isinstance(inp, PlanReady):
        if mode is not Mode.PLANNING:
            raise IllegalTransition(f"{mode.value} cannot accept a fresh plan")
        _issue_plan(state, inp.plan)
        return state

    if isinstance(inp, Executed):
        if mode not in (Mode.PHASE_EXECUTION, Mode.LOCAL_REVISION):
            raise IllegalTransition(f"{mode.value} cannot accept an execution report")
        for s in inp.report.steps:
            rec.append(
                EventKind.ENV_STEP,
                {
                    "action": render_action(s.action),
                    "ok": s.outcome.ok,
                    "error": s.outcome.error,
                },
            )
        state.last_report = inp.report
        state.mode = Mode.FAIL_CHECK if inp.report.raised_exception else Mode.PASS_CHECK
        return state

    if isinstance(inp, VerdictReady):
        if mode not in (Mode.PASS_CHECK, Mode.FAIL_CHECK):
            raise IllegalTransition(f"{mode.value} cannot accept a verdict")
        decision = inp.verdict.decision
        if decision is VerdictDecision.MOVE and mode is Mode.FAIL_CHECK:
            raise IllegalTransition("move verdict is not allowed after an execution error")
        rec.append(
            EventKind.VERDICT_ISSUED,
            {"decision": decision.value, "reasons": inp.verdict.reasons},
        )
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

    if isinstance(inp, RequestReady):
        if mode is not Mode.REPLAN_PENDING:
            raise IllegalTransition(f"{mode.value} cannot file a replan request")
        rec.append(EventKind.REPLAN_REQUESTED, {"request": inp.request.to_dict()})
        state.mode = Mode.AWAITING_DECISION
        return state

    if isinstance(inp, DecisionReady):
        if mode is not Mode.AWAITING_DECISION:
            raise IllegalTransition(f"{mode.value} cannot accept a ruling")
        decision = inp.decision
        rec.append(EventKind.DECISION_ISSUED, decision.to_dict())
        if decision.ruling == "revise":
            assert decision.new_plan is not None
            _issue_plan(state, decision.new_plan)
        else:
            state.mode = Mode.LOCAL_REVISION
        return state

    if isinstance(inp, Finalized):
        if mode not in (Mode.COLLATION, Mode.FORCE_STOPPED):
            raise IllegalTransition(f"{mode.value} cannot finalize")
        _record_result(state, inp.success, inp.answer)
        if mode is Mode.COLLATION:
            state.mode = Mode.DONE
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
    state.recorder.append(
        EventKind.FORCE_STOP, {"exchange_count": exchange_count, "reason": reason}
    )
    state.termination = (
        Termination.FORCE_STOPPED if reason == "max_exchanges" else Termination.BUDGET_EXHAUSTED
    )
    state.termination_detail = reason
    state.mode = Mode.FORCE_STOPPED


def _record_result(state: OrchestratorState, success: bool, answer: str) -> None:
    state.recorder.append(
        EventKind.TASK_RESULT,
        {
            "success": success,
            "answer": answer,
            "termination": state.termination.value,
            "detail": state.termination_detail,
        },
    )


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
    """Run one task end to end and return its outcome.

    Parse failures that survive their repair round become a
    protocol_error outcome rather than an exception; environment load
    problems raise before any LLM call.  The recorder, whose exchange
    cap the caller sets from the budgets, ends up holding the full
    transcript.
    """
    state = OrchestratorState(task=task, recorder=recorder, budgets=budgets)

    obs = env.reset()
    pending_reasons = ""
    pending_guidance: str | None = None

    try:
        ctx = PlannerContext(
            task=task, observation=obs, passages=planner.fetch_passages(task.objective)
        )
        plan = planner.make_global_plan(ctx, recorder)
        step(state, PlanReady(plan))

        while state.mode not in (Mode.COLLATION, *TERMINAL_MODES):
            assert state.plan is not None
            phase = state.plan.phase(state.phase_index)
            if state.mode in (Mode.PHASE_EXECUTION, Mode.LOCAL_REVISION):
                obs = env.observe()
                if state.mode is Mode.PHASE_EXECUTION:
                    seq = executor.plan_phase(phase, obs, recorder)
                elif pending_guidance is not None:
                    seq = executor.handle_overrule(pending_guidance, phase, obs, recorder)
                    pending_guidance = None
                else:
                    seq = executor.revise_local(pending_reasons, phase, obs, recorder)
                step(state, Executed(executor.execute_actions(seq, env)))

            elif state.mode in (Mode.PASS_CHECK, Mode.FAIL_CHECK):
                assert state.last_report is not None
                report = state.last_report
                check = (
                    executor.check_pass
                    if state.mode is Mode.PASS_CHECK
                    else executor.check_fail
                )
                verdict = check(report, phase, report.final_observation, recorder)
                pending_reasons = verdict.reasons
                step(state, VerdictReady(verdict))

            elif state.mode is Mode.REPLAN_PENDING:
                request = ReplanRequest(
                    phase_index=state.phase_index,
                    reasons=pending_reasons,
                    report=state.last_report,
                )
                replan_ctx = PlannerContext(
                    task=task,
                    observation=env.observe(),
                    previous_plan=state.plan,
                    passages=planner.fetch_passages(task.objective),
                )
                decision = planner.decide_replan(request, state.plan, replan_ctx, recorder)
                step(state, RequestReady(request))
                step(state, DecisionReady(decision))
                if decision.ruling == "overrule":
                    pending_guidance = decision.guidance

            else:  # pragma: no cover - defensive
                raise IllegalTransition(f"driver stuck in mode {state.mode.value}")

    except ForceStopInterrupt as fs:
        step(state, BudgetTripped("max_exchanges", fs.exchange_count))
    except (
        GrammarError, MissingContextField, TransportError, BackendExhausted, ResponseEmpty
    ) as exc:
        detail = f"{type(exc).__name__}: {exc}"
        step(state, ProtocolFailed(detail=detail, answer=env.stop_answer or ""))

    if state.mode in (Mode.COLLATION, Mode.FORCE_STOPPED):
        finalize(state, planner, env)

    result = recorder.events[-1].payload
    return TaskOutcome(
        task_id=task.id,
        success=result["success"],
        final_answer=result["answer"],
        termination=Termination(result["termination"]),
        exchanges_used=recorder.exchanges,
        plan_versions=state.plan.plan_version if state.plan is not None else 0,
        detail=result["detail"],
    )


def finalize(state: OrchestratorState, planner: GlobalPlanner, env: WebEnv) -> None:
    """Collate the final answer, evaluate it, and write the TaskResult.

    Only a run that reached Collation on its own merits gets a collation
    LLM call; force-stopped or budget-exhausted runs fall back to the
    execution agent's stop answer (or "") without burning an exchange.
    A force stop tripping on the collation call itself downgrades the
    run to ForceStopped.  Called from any other mode, it raises
    IllegalTransition at ``step(Finalized)`` without calling the backend.
    """
    answer = (env.stop_answer or "").strip()
    if (
        state.mode is Mode.COLLATION
        and state.termination is Termination.COMPLETED
        and state.plan is not None
        and state.last_report is not None
    ):
        ctx = PlannerContext(
            task=state.task, observation=env.observe(), previous_plan=state.plan
        )
        try:
            answer = planner.collate(
                state.last_report, ctx, state.recorder, stop_answer=env.stop_answer
            )
        except ForceStopInterrupt as fs:
            step(state, BudgetTripped("max_exchanges", fs.exchange_count))
            answer = (env.stop_answer or "").strip()

    passed = evaluate(answer, env, state.task.evaluator)
    success = passed and state.termination is Termination.COMPLETED
    step(state, Finalized(success=success, answer=answer))
