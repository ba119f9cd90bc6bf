"""The global planning agent.

Wraps an LLM backend with prompt construction and response parsing for
the planner's five responsibilities: issuing the initial plan, ruling on
replan requests (decide), rebuilding the plan when a request is accepted
(revise), implicitly overruling with guidance, and collating the final
answer.  Ruling and rebuilding are two separate LLM calls; an overrule
costs only the ruling call because its guidance rides in the same
response.

Every operation takes the task, the current observation and, where its
prompt quotes it, the plan in force as arguments; the planning calls
(plan and revise) fetch their own background passages.  Each parse
failure earns exactly one repair round (a follow-up message restating
the output format) before the typed error propagates.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Any, Callable

from . import prompts as prompt_texts
from .backend import (
    Agent,
    BackendError,
    ChatBackend,
    ChatRequest,
    ProviderError,
    RetrievedPassage,
    SearchProvider,
    ask_with_repair,
    augment_with_search,
    call_llm,
)
from .grammar import (
    DecisionParseError,
    parse_decision,
    parse_global_plan,
    render_action,
    render_plan_text,
)
from .prompts import PromptLibrary, context_block
from .protocol import (
    ExecutionReport,
    GlobalDecision,
    GlobalPlan,
    Observation,
    ReplanRequest,
    Ruling,
    Task,
)
from .transcript import RunRecorder

logger = logging.getLogger(__name__)

__all__ = [
    "GlobalPlanner",
    "render_report_text",
]


def render_report_text(report: ExecutionReport) -> str:
    """Compact human-readable rendering of an execution report."""
    lines = []
    for i, step in enumerate(report.steps, start=1):
        status = "ok" if step.outcome.ok else f"error({step.outcome.error})"
        lines.append(f"step {i}: {render_action(step.action)} -> {status}")
    lines.append(f"final url: {report.final_observation.url}")
    return "\n".join(lines)


class GlobalPlanner(Agent):
    role = "global"

    def __init__(
        self, backend: ChatBackend, library: PromptLibrary | None = None,
        temperature: float = 1.0, search_provider: SearchProvider | None = None,
    ) -> None:
        super().__init__(backend, library, temperature)
        self.search_provider = search_provider

    # -- prompt construction -------------------------------------------

    def fetch_passages(self, objective: str) -> tuple[RetrievedPassage, ...]:
        """Passages for planning, none without a provider; provider failures are non-fatal."""
        if self.search_provider is None:
            return ()
        try:
            return augment_with_search(objective, self.search_provider)
        except ProviderError as exc:
            logger.warning("search provider failed, planning without passages: %s", exc)
            return ()

    def render_prompt(
        self,
        action: str,
        task: Task,
        observation: Observation,
        passages: tuple[RetrievedPassage, ...] = (),
        **values: str | int,
    ) -> str:
        """Full prompt text for a planner action (used verbatim by tests).

        Layout: action meta-prompt with `values` filling its fields,
        background passages (planning actions only), then the shared
        context block ending in the objective and previous action.
        """
        parts = [self.library.render(f"global/{action}", **values)]
        if action in ("plan", "revise") and passages:
            passage_lines = ["Background passages gathered for this objective:"]
            passage_lines += [
                f"- {p.passage}" + (f" (source: {p.source})" if p.source else "")
                for p in passages
            ]
            parts.append("\n".join(passage_lines))
        parts.append(context_block(observation, task.objective))
        return "\n\n".join(parts)

    def _ask(
        self, chat: ChatRequest, recorder: RunRecorder, parse: Callable[[str], Any],
        repair_text: str,
    ) -> Any:
        return ask_with_repair(
            lambda c: call_llm(self.backend, c, self.role, recorder), chat, parse, repair_text
        )

    # -- operations ------------------------------------------------------

    def make_global_plan(
        self, task: Task, observation: Observation, recorder: RunRecorder
    ) -> GlobalPlan:
        """Issue plan version 1. One repair round, then PlanParseError."""
        passages = self.fetch_passages(task.objective)
        chat = self._request(self.render_prompt("plan", task, observation, passages=passages))
        parse = partial(parse_global_plan, plan_version=1)
        return self._ask(chat, recorder, parse, prompt_texts.REPAIR_PLAN)

    def decide_replan(
        self, request: ReplanRequest, task: Task, observation: Observation, plan: GlobalPlan,
        recorder: RunRecorder,
    ) -> GlobalDecision:
        """Rule on a replan request.

        An accepted request costs a second LLM call (revise_plan) and
        yields a revise ruling carrying the replacement plan; an
        overrule reuses the ruling response's remaining text as guidance
        and never touches the plan.
        """
        chat = self._request(
            self.render_prompt(
                "decide", task, observation, reasons=request.reasons,
                phase_index=request.phase_index, previous_plan=render_plan_text(plan),
            )
        )
        ruling, guidance = self._ask(chat, recorder, self._parse_ruling, prompt_texts.REPAIR_DECISION)
        if ruling is Ruling.OVERRULE:
            return GlobalDecision(ruling, guidance=guidance)
        return GlobalDecision(ruling, self.revise_plan(request, task, observation, plan, recorder))

    @staticmethod
    def _parse_ruling(response: str) -> tuple[Ruling, str]:
        ruling, guidance = parse_decision(response)
        if ruling is Ruling.OVERRULE and not guidance.strip():
            raise DecisionParseError("overrule ruling carries no guidance text")
        return ruling, guidance

    def revise_plan(
        self, request: ReplanRequest, task: Task, observation: Observation, plan: GlobalPlan,
        recorder: RunRecorder,
    ) -> GlobalPlan:
        """Build the replacement plan; version bumps by exactly one."""
        chat = self._request(
            self.render_prompt(
                "revise", task, observation, self.fetch_passages(task.objective),
                reasons=request.reasons, phase_index=request.phase_index,
                previous_plan=render_plan_text(plan),
            )
        )
        parse = partial(parse_global_plan, plan_version=plan.plan_version + 1)
        return self._ask(chat, recorder, parse, prompt_texts.REPAIR_PLAN)

    def collate(
        self, final_report: ExecutionReport, task: Task, observation: Observation,
        recorder: RunRecorder, stop_answer: str | None = None,
    ) -> str:
        """Assemble the final answer from the last execution report.

        Falls back to the execution agent's stop answer (or "") when the
        planner's call fails, a blank reply included; never fatal.
        """
        report = render_report_text(final_report)
        chat = self._request(self.render_prompt("collate", task, observation, report=report))
        try:
            return call_llm(self.backend, chat, self.role, recorder).strip()
        except BackendError as exc:
            # Collation must not sink an otherwise finished run.
            logger.warning("collation call failed (%s); using fallback answer", exc)
            return (stop_answer or "").strip()
