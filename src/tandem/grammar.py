"""Textual grammars spoken between the agents and the runtime.

Four small languages live here, each with a parser and a canonical
renderer:

  plans      one phase per line, ``Phase <k>: <subtask> | Expected: <state>``
             (a plain numbered-list variant is accepted and normalized)
  actions    ``click [id]``, ``type [id] [text]``, ``scroll [up|down]``,
             ``goto [url]``, ``go_back``, ``stop [answer]``; sequences
             arrive as ``**Action k:** <action>`` lines and parse to a
             tuple of PageAction
  verdicts   an ``Action:`` token, one per VerdictDecision value
             (move/revise/request), plus a ``Reasons:`` tail; fenced
             tokens (```move```) also accepted
  decisions  a token, one per Ruling value (revise/overrule), remaining
             text is guidance

Parsers are tolerant of surrounding prose but never guess: anything that
cannot be normalized raises a typed error so the caller can run its one
repair round and then give up.
"""

from __future__ import annotations

import re
from functools import cache

from .protocol import (
    ActionKind,
    GlobalPlan,
    LocalVerdict,
    PageAction,
    PhaseSpec,
    Ruling,
    VerdictDecision,
)

__all__ = [
    "ActionParseError",
    "DecisionParseError",
    "EmptyPlan",
    "GrammarError",
    "PlanParseError",
    "VerdictParseError",
    "parse_action_sequence",
    "parse_action_text",
    "parse_decision",
    "parse_global_plan",
    "parse_verdict",
    "render_action",
    "render_action_sequence",
    "render_plan_text",
]


class GrammarError(ValueError):
    """Base class for all structured-output parse failures."""


class PlanParseError(GrammarError):
    pass


class ActionParseError(GrammarError):
    pass


class EmptyPlan(GrammarError):
    """A response that should carry actions contained none."""


class VerdictParseError(GrammarError):
    pass


class DecisionParseError(GrammarError):
    pass


# =====================================================================
# Plan grammar
# =====================================================================

# Canonical form and the tolerated numbered-list variant.
_PHASE_LINE = re.compile(r"^\s*(?:phase\s+(\d+)\s*:|(\d+)\s*[.)])\s*(.+?)\s*$", re.IGNORECASE)
_EXPECTED_SEP = re.compile(r"\|\s*expected\s*:", re.IGNORECASE)


def _split_phase_body(body: str) -> tuple[str, str] | None:
    # Split on the LAST "| Expected:" so subtask text containing the
    # delimiter still round-trips.
    matches = list(_EXPECTED_SEP.finditer(body))
    if not matches:
        return None
    last = matches[-1]
    subtask = body[: last.start()].strip()
    expected = body[last.end() :].strip()
    if not subtask or not expected:
        return None
    return subtask, expected


def parse_global_plan(text: str, plan_version: int = 1) -> GlobalPlan:
    """Parse an LLM plan response into a GlobalPlan.

    Lines that do not look like phases (preamble, closing remarks) are
    skipped.  Phase numbering in the response is normalized to a
    contiguous 1..N sequence in order of appearance.  Raises
    PlanParseError when no phase can be extracted or a phase line is
    missing its subtask or expected state.
    """
    phases: list[PhaseSpec] = []
    for raw in text.splitlines():
        m = _PHASE_LINE.match(raw)
        if not m:
            continue
        body = m.group(3)
        parts = _split_phase_body(body)
        if parts is None:
            raise PlanParseError(
                f"phase line missing '| Expected:' separator or a field: {raw.strip()!r}"
            )
        subtask, expected = parts
        phases.append(PhaseSpec(index=len(phases) + 1, subtask=subtask, expected_state=expected))
    if not phases:
        raise PlanParseError("no phase lines found in plan response")
    return GlobalPlan(phases=tuple(phases), plan_version=plan_version)


def render_plan_text(plan: GlobalPlan) -> str:
    """Canonical one-line-per-phase rendering; parse_global_plan inverts it."""
    return "\n".join(
        f"Phase {p.index}: {p.subtask} | Expected: {p.expected_state}" for p in plan.phases
    )


# =====================================================================
# Action grammar
# =====================================================================

_CLICK = re.compile(r"^click\s*\[\s*(\d+)\s*\]$", re.IGNORECASE)
_TYPE = re.compile(r"^type\s*\[\s*(\d+)\s*\]\s*\[(.*)\]$", re.IGNORECASE)
_SCROLL = re.compile(r"^scroll\s*\[\s*(up|down)\s*\]$", re.IGNORECASE)
_GOTO = re.compile(r"^goto\s*\[(.+)\]$", re.IGNORECASE)
_GO_BACK = re.compile(r"^go[_ ]back$", re.IGNORECASE)
_STOP = re.compile(r"^stop(?:\s*\[(.*)\])?$", re.IGNORECASE)


def parse_action_text(text: str) -> PageAction:
    """Parse a single action in the bracketed grammar."""
    s = text.strip()
    if m := _CLICK.match(s):
        return PageAction(ActionKind.CLICK, target=int(m.group(1)))
    if m := _TYPE.match(s):
        return PageAction(ActionKind.TYPE, target=int(m.group(1)), text=m.group(2))
    if m := _SCROLL.match(s):
        return PageAction(ActionKind.SCROLL, target=m.group(1).lower())
    if m := _GOTO.match(s):
        return PageAction(ActionKind.GOTO, target=m.group(1).strip())
    if _GO_BACK.match(s):
        return PageAction(ActionKind.GO_BACK)
    if m := _STOP.match(s):
        return PageAction(ActionKind.STOP, target=m.group(1) or "")
    raise ActionParseError(f"unrecognized action: {text.strip()!r}")


def render_action(action: PageAction) -> str:
    """Canonical text for an action; parse_action_text inverts it."""
    kind = action.kind
    if kind is ActionKind.CLICK:
        return f"click [{action.target}]"
    if kind is ActionKind.TYPE:
        return f"type [{action.target}] [{action.text}]"
    if kind is ActionKind.SCROLL:
        return f"scroll [{action.target}]"
    if kind is ActionKind.GOTO:
        return f"goto [{action.target}]"
    if kind is ActionKind.GO_BACK:
        return "go_back"
    if kind is ActionKind.STOP:
        return f"stop [{action.target}]"
    raise ActionParseError(f"cannot render action kind {kind!r}")


_ACTION_LINE = re.compile(r"^\s*\*\*Action\s+\d+\s*:\*\*\s*(.+?)\s*$", re.IGNORECASE)


def parse_action_sequence(text: str) -> tuple[PageAction, ...]:
    """Extract ``**Action k:**`` lines from a response and parse each.

    stop is terminal: anything listed after the first stop is dropped.
    Raises EmptyPlan when no action line is present and ActionParseError
    when a present line does not parse.
    """
    actions: list[PageAction] = []
    for raw in text.splitlines():
        m = _ACTION_LINE.match(raw)
        if not m:
            continue
        action = parse_action_text(m.group(1))
        actions.append(action)
        if action.kind is ActionKind.STOP:
            break
    if not actions:
        raise EmptyPlan("no '**Action k:**' lines found in response")
    return tuple(actions)


def render_action_sequence(actions: tuple[PageAction, ...]) -> str:
    return "\n".join(
        f"**Action {i}:** {render_action(a)}" for i, a in enumerate(actions, start=1)
    )


# =====================================================================
# Verdict and decision grammars
# =====================================================================


@cache
def _token_pattern(tokens: tuple[str, ...]) -> re.Pattern[str]:
    alternatives = "|".join(tokens)
    return re.compile(rf"```\s*({alternatives})\s*```|\b({alternatives})\b", re.IGNORECASE)


def _first_token(text: str, tokens: tuple[str, ...]) -> tuple[str, int, int] | None:
    """Find the first fenced or standalone occurrence of any token.

    Returns (token, start, end) of the earliest match, or None.  Fenced
    (```token```) and bare word-boundary occurrences are both accepted;
    the first position wins.
    """
    m = _token_pattern(tokens).search(text)
    if not m:
        return None
    token = (m.group(1) or m.group(2)).lower()
    return token, m.start(), m.end()


_REASONS = re.compile(r"reasons?\s*:\s*(.*)", re.IGNORECASE | re.DOTALL)

VERDICT_TOKENS = tuple(decision.value for decision in VerdictDecision)


def parse_verdict(text: str, allow_move: bool = True) -> LocalVerdict:
    """Parse a self-check response into a LocalVerdict.

    With allow_move=False (the after-an-exception check) a leading move
    token is rejected rather than accepted.  Revise/request verdicts must
    carry a nonempty Reasons: tail.
    """
    found = _first_token(text, VERDICT_TOKENS)
    if found is None:
        raise VerdictParseError(f"no verdict token in response: {text.strip()[:80]!r}")
    token = found[0]
    if token == "move" and not allow_move:
        raise VerdictParseError("'move' is not a valid verdict after an execution error")
    decision = VerdictDecision(token)
    reasons = ""
    if m := _REASONS.search(text):
        reasons = m.group(1).strip()
    if decision is not VerdictDecision.MOVE and not reasons:
        raise VerdictParseError(f"verdict {token!r} requires a 'Reasons:' line")
    return LocalVerdict(decision=decision, reasons=reasons)


DECISION_TOKENS = tuple(ruling.value for ruling in Ruling)


def parse_decision(text: str) -> tuple[Ruling, str]:
    """Parse a replan ruling: returns (ruling, guidance).

    guidance is the response text with the token occurrence removed,
    stripped; it matters only for overrule rulings (the caller enforces
    non-emptiness there).
    """
    found = _first_token(text, DECISION_TOKENS)
    if found is None:
        raise DecisionParseError(f"no ruling token in response: {text.strip()[:80]!r}")
    token, start, end = found
    guidance = (text[:start] + " " + text[end:]).strip()
    return Ruling(token), guidance
