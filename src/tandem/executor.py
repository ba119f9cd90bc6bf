"""The local execution agent.

Turns one plan phase at a time into concrete page actions, runs them
against the environment, and self-checks the result.  It has one method
per reply grammar: ``actions`` asks for an action sequence with the
prompt the caller names (plan, revise or overruled), and ``check`` asks
for a verdict, with the pass check after a clean run (move, revise or
request) and the false check after an environment error (move is off the
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

    # -- operations ------------------------------------------------------

    def actions(
        self, action: str, phase: PhaseSpec, obs: Observation, recorder: RunRecorder,
        **values: str,
    ) -> tuple[PageAction, ...]:
        """The phase's action sequence from prompt `local/<action>`: plan, revise
        (`reasons`) or overruled (`guidance`, the planner's advice)."""
        chat = self._request(self.render_prompt(action, phase, obs, **values))
        return self._ask(chat, recorder, parse_action_sequence, prompt_texts.REPAIR_ACTIONS)

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

    def check(
        self, report: ExecutionReport, phase: PhaseSpec, recorder: RunRecorder
    ) -> LocalVerdict:
        """Self-check on the report's final page; after an environment error
        the prompt quotes the error and a move verdict is rejected."""
        failed = report.raised_exception
        obs = report.final_observation
        if failed:
            prompt = self.render_prompt("false_check", phase, obs, feedback=_error_feedback(report))
        else:
            prompt = self.render_prompt("pass_check", phase, obs)
        parse = partial(parse_verdict, allow_move=not failed)
        return self._ask(self._request(prompt), recorder, parse, prompt_texts.REPAIR_VERDICT)
