"""The local execution agent.

Turns one plan phase at a time into concrete page actions, runs them
against the environment, and self-checks the result.  Two check flavors
exist: check_pass after a clean run (may conclude move, revise or
request) and check_fail after an environment error (move is off the
table).  Like the planner, every parse failure gets one repair round.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from . import prompts as prompt_texts
from .backend import Agent, ChatRequest, ask_with_repair, call_llm
from .grammar import (
    parse_action_sequence,
    parse_verdict,
    render_action,
)
from .prompts import context_block
from .protocol import (
    ActionKind,
    ExecutionReport,
    ExecutionStep,
    LocalVerdict,
    Observation,
    PageAction,
    PhaseSpec,
)
from .transcript import RunRecorder
from .webenv import WebEnv

__all__ = ["LocalExecutor"]


def _phase_objective(phase: PhaseSpec) -> str:
    return f"{phase.subtask} (expected state: {phase.expected_state})"


def _error_feedback(report: ExecutionReport) -> str:
    for i, step in enumerate(report.steps, start=1):
        if not step.outcome.ok:
            return f"step {i} ({render_action(step.action)}) failed: {step.outcome.error}"
    return "no error recorded"


class LocalExecutor(Agent):
    role = "local"

    # -- prompt construction -------------------------------------------

    def render_prompt(self, action: str, phase: PhaseSpec, obs: Observation, **values: str) -> str:
        """Prompt text for an executor action; `values` fill its meta-prompt's fields."""
        meta = self.library.render(f"local/{action}", **values)
        return "\n\n".join([meta, context_block(obs, _phase_objective(phase))])

    def _ask(
        self, chat: ChatRequest, recorder: RunRecorder, parse: Callable[[str], Any],
        repair_text: str,
    ) -> Any:
        return ask_with_repair(
            lambda c: call_llm(self.backend, c, self.role, recorder), chat, parse, repair_text
        )

    def _actions_via(
        self, chat: ChatRequest, recorder: RunRecorder
    ) -> tuple[PageAction, ...]:
        return self._ask(chat, recorder, parse_action_sequence, prompt_texts.REPAIR_ACTIONS)

    # -- operations ------------------------------------------------------

    def plan_phase(
        self, phase: PhaseSpec, obs: Observation, recorder: RunRecorder
    ) -> tuple[PageAction, ...]:
        """Plan the action sequence for a phase from the current page."""
        return self._actions_via(
            self._request(self.render_prompt("plan", phase, obs)), recorder
        )

    def execute_actions(self, actions: tuple[PageAction, ...], env: WebEnv) -> ExecutionReport:
        """Run actions in order, halting at the first error or at stop.

        No LLM involvement: this is pure environment work.  The final
        observation is taken after the last successfully applied action;
        a failed action leaves the page as it was.
        """
        steps: list[ExecutionStep] = []
        failed = False
        for action in actions:
            outcome = env.apply(action)
            steps.append(ExecutionStep(action=action, outcome=outcome))
            if not outcome.ok:
                failed = True
                break
            if action.kind is ActionKind.STOP:
                break
        return ExecutionReport(
            steps=tuple(steps),
            final_observation=env.observe(),
            raised_exception=failed,
        )

    def check_pass(
        self, report: ExecutionReport, phase: PhaseSpec, recorder: RunRecorder
    ) -> LocalVerdict:
        """Self-check on a clean run's final page; move/revise/request all allowed."""
        return self._verdict_via(
            self._request(self.render_prompt("pass_check", phase, report.final_observation)),
            recorder,
            allow_move=True,
        )

    def check_fail(
        self, report: ExecutionReport, phase: PhaseSpec, recorder: RunRecorder
    ) -> LocalVerdict:
        """Self-check after an environment error; move is rejected."""
        chat = self._request(
            self.render_prompt(
                "false_check", phase, report.final_observation, feedback=_error_feedback(report)
            )
        )
        return self._verdict_via(chat, recorder, allow_move=False)

    def _verdict_via(
        self, chat: ChatRequest, recorder: RunRecorder, allow_move: bool
    ) -> LocalVerdict:
        parse = partial(parse_verdict, allow_move=allow_move)
        return self._ask(chat, recorder, parse, prompt_texts.REPAIR_VERDICT)

    def revise_local(
        self, reasons: str, phase: PhaseSpec, obs: Observation, recorder: RunRecorder
    ) -> tuple[PageAction, ...]:
        """Produce a corrected sequence for the same phase."""
        return self._actions_via(
            self._request(self.render_prompt("revise", phase, obs, reasons=reasons)),
            recorder,
        )

    def handle_overrule(
        self, guidance: str, phase: PhaseSpec, obs: Observation, recorder: RunRecorder
    ) -> tuple[PageAction, ...]:
        """Retry the phase under the planner's guidance, plan unchanged."""
        return self._actions_via(
            self._request(
                self.render_prompt("overruled", phase, obs, guidance=guidance)
            ),
            recorder,
        )
