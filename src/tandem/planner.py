"""The global planning agent.

Wraps an LLM backend with prompt construction and response parsing, one
method per reply grammar: ``plan`` makes the initial plan or, given the
plan it replaces, the revised one; ``decide_replan`` rules on a replan
request, rebuilding the plan through ``plan`` when it accepts and
overruling with guidance otherwise; ``collate`` gives the final answer.
Ruling and rebuilding are two separate LLM calls; an overrule costs only
the ruling call because its guidance rides in the same response.

Every operation takes the task and the current observation as arguments;
``plan`` fetches its own background passages.  Each parse failure earns
exactly one repair round (a follow-up message restating the output
format) before the typed error propagates.
"""

from __future__ import annotations

import logging
from functools import partial

from . import prompts as prompt_texts
from .backend import (
    Agent,
    BackendError,
    ChatBackend,
    ProviderError,
    RetrievedPassage,
    SearchProvider,
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

    # -- operations ------------------------------------------------------

    def plan(
        self, task: Task, observation: Observation, recorder: RunRecorder,
        previous: GlobalPlan | None = None, **values: str | int,
    ) -> GlobalPlan:
        """Plan version 1 or, from the revise prompt, the `previous` plan's
        replacement, one version on; `values` fill that prompt's request
        fields.  One repair round, then PlanParseError."""
        passages = self.fetch_passages(task.objective)
        if previous is None:
            action, version = "plan", 1
        else:
            action, version = "revise", previous.plan_version + 1
            values["previous_plan"] = render_plan_text(previous)
        prompt = self.render_prompt(action, task, observation, passages, **values)
        parse = partial(parse_global_plan, plan_version=version)
        return self._ask(call_llm, prompt, recorder, parse, prompt_texts.REPAIR_PLAN)

    def decide_replan(
        self, request: ReplanRequest, task: Task, observation: Observation, plan: GlobalPlan,
        recorder: RunRecorder,
    ) -> GlobalDecision:
        """Rule on a replan request.

        An accepted request costs a second LLM call (``plan``) and
        yields a revise ruling carrying the replacement plan; an
        overrule reuses the ruling response's remaining text as guidance
        and never touches the plan.
        """
        prompt = self.render_prompt(
            "decide", task, observation, reasons=request.reasons,
            phase_index=request.phase_index, previous_plan=render_plan_text(plan),
        )
        ruling, guidance = self._ask(
            call_llm, prompt, recorder, self._parse_ruling, prompt_texts.REPAIR_DECISION
        )
        if ruling is Ruling.OVERRULE:
            return GlobalDecision(ruling, guidance=guidance)
        new_plan = self.plan(
            task, observation, recorder, plan, reasons=request.reasons, phase_index=request.phase_index
        )
        return GlobalDecision(ruling, new_plan)

    @staticmethod
    def _parse_ruling(response: str) -> tuple[Ruling, str]:
        ruling, guidance = parse_decision(response)
        if ruling is Ruling.OVERRULE and not guidance.strip():
            raise DecisionParseError("overrule ruling carries no guidance text")
        return ruling, guidance

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
