"""The global planning agent.

Wraps an LLM backend with prompt construction and response parsing for
the planner's five responsibilities: issuing the initial plan, ruling on
replan requests (decide), rebuilding the plan when a request is accepted
(revise), implicitly overruling with guidance, and collating the final
answer.  Ruling and rebuilding are two separate LLM calls; an overrule
costs only the ruling call because its guidance rides in the same
response.

Each parse failure earns exactly one repair round (a follow-up message
restating the output format) before the typed error propagates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from . import prompts as prompt_texts
from .backend import (
    BackendExhausted,
    ChatBackend,
    ChatMessage,
    ChatRequest,
    ProviderError,
    ResponseEmpty,
    RetrievedPassage,
    SearchProvider,
    TransportError,
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
    Task,
)
from .transcript import RunRecorder

logger = logging.getLogger(__name__)

__all__ = [
    "GlobalPlanner",
    "MissingContextField",
    "PlannerContext",
    "render_report_text",
]

ROLE = "global"


class MissingContextField(ValueError):
    """A planner operation was invoked without a field its prompt needs."""


@dataclass(frozen=True)
class PlannerContext:
    """Everything the planner may interpolate into a prompt."""

    task: Task
    observation: Observation
    previous_plan: GlobalPlan | None = None
    passages: tuple[RetrievedPassage, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "passages", tuple(self.passages))


def render_report_text(report: ExecutionReport) -> str:
    """Compact human-readable rendering of an execution report."""
    lines = []
    for i, step in enumerate(report.steps, start=1):
        status = "ok" if step.outcome.ok else f"error({step.outcome.error})"
        lines.append(f"step {i}: {render_action(step.action)} -> {status}")
    lines.append(f"final url: {report.final_observation.url}")
    return "\n".join(lines)


class GlobalPlanner:
    def __init__(
        self,
        backend: ChatBackend,
        library: PromptLibrary | None = None,
        temperature: float = 1.0,
        max_response_tokens: int = 1024,
        search_provider: SearchProvider | None = None,
        augment_search: bool = False,
    ) -> None:
        self.backend = backend
        self.library = library or PromptLibrary()
        self.temperature = temperature
        self.max_response_tokens = max_response_tokens
        self.search_provider = search_provider
        self.augment_search = augment_search

    # -- prompt construction -------------------------------------------

    def fetch_passages(self, objective: str) -> tuple[RetrievedPassage, ...]:
        """Background passages for planning; provider failures are non-fatal."""
        if not self.augment_search or self.search_provider is None:
            return ()
        try:
            return augment_with_search(objective, self.search_provider)
        except ProviderError as exc:
            logger.warning("search provider failed, planning without passages: %s", exc)
            return ()

    def render_prompt(
        self,
        action: str,
        ctx: PlannerContext,
        reasons: str = "",
        phase_index: int = 0,
        report: ExecutionReport | None = None,
    ) -> str:
        """Full prompt text for a planner action (used verbatim by tests).

        Layout: role introduction, action meta-prompt, background
        passages (planning actions only), then the shared context block
        ending in the objective and previous action.
        """
        meta = self.library.get(f"global/{action}")
        if action in ("decide", "revise"):
            if not reasons.strip():
                raise MissingContextField(f"{action} prompt requires the proposed reasons")
            if ctx.previous_plan is None:
                raise MissingContextField(f"{action} prompt requires the current plan")
            meta = meta.format(
                reasons=reasons,
                phase_index=phase_index,
                previous_plan=render_plan_text(ctx.previous_plan),
            )
        elif action == "collate":
            if report is None:
                raise MissingContextField("collate prompt requires the final report")
            meta = meta.format(report=render_report_text(report))
        elif action != "plan":
            raise MissingContextField(f"unknown planner action {action!r}")

        parts = [meta]
        if action in ("plan", "revise") and ctx.passages:
            passage_lines = ["Background passages gathered for this objective:"]
            passage_lines += [
                f"- {p.passage}" + (f" (source: {p.source})" if p.source else "")
                for p in ctx.passages
            ]
            parts.append("\n".join(passage_lines))
        parts.append(context_block(ctx.observation, ctx.task.objective))
        return "\n\n".join(parts)

    def _request(self, user_text: str) -> ChatRequest:
        return ChatRequest(
            system_prompt=self.library.get("global/intro"),
            messages=(ChatMessage("user", user_text),),
            temperature=self.temperature,
            max_response_tokens=self.max_response_tokens,
        )

    def _ask(
        self, chat: ChatRequest, recorder: RunRecorder, parse: Callable[[str], Any],
        repair_text: str,
    ) -> Any:
        return ask_with_repair(
            lambda c: call_llm(self.backend, c, ROLE, recorder), chat, parse, repair_text
        )

    # -- operations ------------------------------------------------------

    def make_global_plan(self, ctx: PlannerContext, recorder: RunRecorder) -> GlobalPlan:
        """Issue plan version 1. One repair round, then PlanParseError."""
        if ctx.previous_plan is not None:
            raise MissingContextField("make_global_plan must not receive a previous plan")
        chat = self._request(self.render_prompt("plan", ctx))
        parse = partial(parse_global_plan, plan_version=1)
        return self._ask(chat, recorder, parse, prompt_texts.REPAIR_PLAN)

    def decide_replan(
        self, request: ReplanRequest, current_plan: GlobalPlan, ctx: PlannerContext,
        recorder: RunRecorder,
    ) -> GlobalDecision:
        """Rule on a replan request.

        An accepted request costs a second LLM call (revise_plan) and
        yields a Revise decision carrying the replacement plan; an
        overrule reuses the ruling response's remaining text as guidance
        and never touches the plan.
        """
        if ctx.previous_plan is None:
            raise MissingContextField("decide_replan requires the current plan in context")
        chat = self._request(
            self.render_prompt(
                "decide", ctx, reasons=request.reasons, phase_index=request.phase_index
            )
        )
        token, guidance = self._ask(chat, recorder, self._parse_ruling, prompt_texts.REPAIR_DECISION)
        if token == "overrule":
            return GlobalDecision.overrule(guidance)
        new_plan = self.revise_plan(request, current_plan, ctx, recorder)
        return GlobalDecision.revise(new_plan)

    @staticmethod
    def _parse_ruling(response: str) -> tuple[str, str]:
        token, guidance = parse_decision(response)
        if token == "overrule" and not guidance.strip():
            raise DecisionParseError("overrule ruling carries no guidance text")
        return token, guidance

    def revise_plan(
        self, request: ReplanRequest, old_plan: GlobalPlan, ctx: PlannerContext,
        recorder: RunRecorder,
    ) -> GlobalPlan:
        """Build the replacement plan; version bumps by exactly one."""
        chat = self._request(
            self.render_prompt(
                "revise", ctx, reasons=request.reasons, phase_index=request.phase_index
            )
        )
        parse = partial(parse_global_plan, plan_version=old_plan.plan_version + 1)
        return self._ask(chat, recorder, parse, prompt_texts.REPAIR_PLAN)

    def collate(
        self, final_report: ExecutionReport, plan: GlobalPlan, ctx: PlannerContext,
        recorder: RunRecorder, stop_answer: str | None = None,
    ) -> str:
        """Assemble the final answer from the last execution report.

        Falls back to the execution agent's stop answer (or "") when the
        planner's response is empty; never fatal.
        """
        chat = self._request(self.render_prompt("collate", ctx, report=final_report))
        try:
            response = call_llm(self.backend, chat, ROLE, recorder)
        except (TransportError, BackendExhausted, ResponseEmpty) as exc:
            # Collation must not sink an otherwise finished run.
            logger.warning("collation call failed (%s); using fallback answer", exc)
            response = ""
        answer = response.strip()
        if not answer:
            answer = (stop_answer or "").strip()
        return answer
