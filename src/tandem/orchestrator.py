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
    ReplanPending --(RequestReady)--> AwaitingDecision
    AwaitingDecision --(revise ruling)--> PhaseExecution(k=1, new plan)
    AwaitingDecision --(overrule ruling)--> LocalRevision
    Collation --(Finalized)--> Done
    any active --(BudgetTripped)--> ForceStopped
    any active --(ProtocolFailed)--> Done

Budget semantics: with force stop enabled the recorder's exchange gate
interrupts the run the moment a call would exceed max_exchanges; the
per-phase revision and per-task replan limits bind only when force stop
is disabled.  Either way the budget event recorded is a ForceStop event
whose ``reason`` field says which limit tripped.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "BudgetCounters",
    "BudgetTripped",
    "BudgetVerdict",
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
    "enforce_budget",
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
    reason: str  # "max_exchanges" | "local_revisions" | "replan_requests"
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
    budgets: Budgets
    recorder: RunRecorder
    mode: Mode = Mode.PLANNING
    phase_index: int = 0
    plan: GlobalPlan | None = None
    replan_requests: int = 0
    revisions_this_phase: int = 0
    termination: Termination = Termination.COMPLETED
    termination_detail: str = ""
    last_report: ExecutionReport | None = None
    success: bool = False
    final_answer: str = ""


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
# Budget enforcement
# =====================================================================


@dataclass(frozen=True)
class BudgetCounters:
    exchanges: int = 0
    replan_requests: int = 0
    revisions_this_phase: int = 0


class BudgetVerdict(Enum):
    CONTINUE = "Continue"
    FORCE_STOP_NOW = "ForceStopNow"
    BUDGET_EXHAUSTED = "BudgetExhausted"


def enforce_budget(
    counters: BudgetCounters, budgets: Budgets, about_to: str = "exchange"
) -> BudgetVerdict:
    """Judge whether the contemplated next step fits the budgets.

    `about_to` names what the caller wants to do next: "exchange" (any
    LLM call), "local_revision" or "replan_request".  With force stop
    enabled only the exchange cap binds; with it disabled only the
    revision/replan limits do.
    """
    if budgets.force_stop_enabled:
        if counters.exchanges >= budgets.max_exchanges:
            return BudgetVerdict.FORCE_STOP_NOW
        return BudgetVerdict.CONTINUE
    if (
        about_to == "local_revision"
        and counters.revisions_this_phase >= budgets.max_local_revisions_per_phase
    ):
        return BudgetVerdict.BUDGET_EXHAUSTED
    if (
        about_to == "replan_request"
        and counters.replan_requests >= budgets.max_replan_requests_per_task
    ):
        return BudgetVerdict.BUDGET_EXHAUSTED
    return BudgetVerdict.CONTINUE


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
        rec.append(
            EventKind.FORCE_STOP,
            {"exchange_count": inp.exchange_count, "reason": inp.reason},
        )
        state.termination = (
            Termination.FORCE_STOPPED
            if inp.reason == "max_exchanges"
            else Termination.BUDGET_EXHAUSTED
        )
        state.termination_detail = inp.reason
        state.mode = Mode.FORCE_STOPPED
        return state

    if isinstance(inp, ProtocolFailed):
        if mode in TERMINAL_MODES:
            raise IllegalTransition(f"{mode.value} cannot fail")
        state.termination = Termination.PROTOCOL_ERROR
        state.termination_detail = inp.detail
        state.success = False
        state.final_answer = inp.answer
        _record_result(state)
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
            state.mode = Mode.LOCAL_REVISION
        else:
            state.mode = Mode.REPLAN_PENDING
        return state

    if isinstance(inp, RequestReady):
        if mode is not Mode.REPLAN_PENDING:
            raise IllegalTransition(f"{mode.value} cannot file a replan request")
        rec.append(EventKind.REPLAN_REQUESTED, {"request": inp.request.to_dict()})
        state.replan_requests += 1
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
        state.success = inp.success
        state.final_answer = inp.answer
        _record_result(state)
        if mode is Mode.COLLATION:
            state.mode = Mode.DONE
        return state

    raise IllegalTransition(f"unknown input {type(inp).__name__}")


def _record_result(state: OrchestratorState) -> None:
    state.recorder.append(
        EventKind.TASK_RESULT,
        {
            "success": state.success,
            "answer": state.final_answer,
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


def _counters(state: OrchestratorState) -> BudgetCounters:
    return BudgetCounters(
        exchanges=state.recorder.exchanges,
        replan_requests=state.replan_requests,
        revisions_this_phase=state.revisions_this_phase,
    )


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
    state = OrchestratorState(task=task, budgets=budgets, recorder=recorder)

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
            if state.mode in (Mode.PHASE_EXECUTION, Mode.LOCAL_REVISION):
                assert state.plan is not None
                phase = state.plan.phase(state.phase_index)
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
                assert state.plan is not None and state.last_report is not None
                phase = state.plan.phase(state.phase_index)
                report = state.last_report
                check = (
                    executor.check_pass
                    if state.mode is Mode.PASS_CHECK
                    else executor.check_fail
                )
                verdict = check(report, phase, report.final_observation, recorder)
                step(state, VerdictReady(verdict))

                if verdict.decision is VerdictDecision.REVISE:
                    ruling = enforce_budget(_counters(state), budgets, "local_revision")
                    if ruling is BudgetVerdict.BUDGET_EXHAUSTED:
                        step(state, BudgetTripped("local_revisions", recorder.exchanges))
                    else:
                        state.revisions_this_phase += 1
                        pending_reasons = verdict.reasons

                elif verdict.decision is VerdictDecision.REQUEST:
                    ruling = enforce_budget(_counters(state), budgets, "replan_request")
                    if ruling is BudgetVerdict.BUDGET_EXHAUSTED:
                        step(state, BudgetTripped("replan_requests", recorder.exchanges))
                    else:
                        request = ReplanRequest(
                            phase_index=state.phase_index,
                            reasons=verdict.reasons,
                            report=report,
                        )
                        replan_ctx = PlannerContext(
                            task=task,
                            observation=env.observe(),
                            previous_plan=state.plan,
                            passages=planner.fetch_passages(task.objective),
                        )
                        decision = planner.decide_replan(
                            request, state.plan, replan_ctx, recorder
                        )
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

    return TaskOutcome(
        task_id=task.id,
        success=state.success,
        final_answer=state.final_answer,
        termination=state.termination,
        exchanges_used=recorder.exchanges,
        plan_versions=state.plan.plan_version if state.plan is not None else 0,
        detail=state.termination_detail,
    )


def finalize(state: OrchestratorState, planner: GlobalPlanner, env: WebEnv) -> None:
    """Collate the final answer, evaluate it, and write the TaskResult.

    Only a run that reached Collation on its own merits gets a collation
    LLM call; force-stopped or budget-exhausted runs fall back to the
    execution agent's stop answer (or "") without burning an exchange.
    A force stop tripping on the collation call itself downgrades the
    run to ForceStopped.
    """
    if state.mode not in (Mode.COLLATION, Mode.FORCE_STOPPED):
        raise IllegalTransition(f"cannot finalize from {state.mode.value}")

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
                state.last_report,
                state.plan,
                ctx,
                state.recorder,
                stop_answer=env.stop_answer,
            )
        except ForceStopInterrupt as fs:
            step(state, BudgetTripped("max_exchanges", fs.exchange_count))
            answer = (env.stop_answer or "").strip()

    passed = evaluate(answer, env, state.task.evaluator)
    success = passed and state.termination is Termination.COMPLETED
    step(state, Finalized(success=success, answer=answer))
