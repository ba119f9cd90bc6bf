from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandem.grammar import (
    ActionParseError,
    DecisionParseError,
    EmptyPlan,
    PlanParseError,
    VerdictParseError,
    parse_action_sequence,
    parse_action_text,
    parse_decision,
    parse_global_plan,
    parse_verdict,
    render_action,
    render_action_sequence,
    render_plan_text,
)
from tandem.protocol import (
    ActionKind,
    GlobalPlan,
    PageAction,
    PhaseSpec,
    VerdictDecision,
)

SEED = 20260819

_WORDS = (
    "open", "the", "kitchen", "category", "page", "and", "report", "its",
    "price", "sort", "listing", "by", "rating", "then", "click", "first",
    "item", "check", "reviews", "for", "grip", "notes", "count", "rows",
)


def _phrase(rng: random.Random, max_words: int = 8) -> str:
    n = rng.randint(1, max_words)
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _random_plan(rng: random.Random) -> GlobalPlan:
    phases = []
    for i in range(rng.randint(1, 8)):
        subtask = _phrase(rng)
        # Sometimes embed the separator inside the subtask to exercise
        # the split-on-last rule.
        if rng.random() < 0.15:
            subtask = f"{subtask} | Expected: {_phrase(rng, 3)}"
        phases.append(PhaseSpec(index=i + 1, subtask=subtask, expected_state=_phrase(rng)))
    return GlobalPlan(phases=tuple(phases), plan_version=rng.randint(1, 5))


def _random_action(rng: random.Random, allow_stop: bool) -> PageAction:
    safe = string.ascii_letters + string.digits + " .,:/?-_='"
    text = lambda n: "".join(rng.choice(safe) for _ in range(rng.randint(1, n))).strip() or "x"
    kinds = ["click", "type", "scroll", "goto", "go_back"] + (["stop"] if allow_stop else [])
    kind = rng.choice(kinds)
    if kind == "click":
        return PageAction(ActionKind.CLICK, target=rng.randint(1, 500))
    if kind == "type":
        return PageAction(ActionKind.TYPE, target=rng.randint(1, 500), text=text(20))
    if kind == "scroll":
        return PageAction(ActionKind.SCROLL, target=rng.choice(["up", "down"]))
    if kind == "goto":
        return PageAction(ActionKind.GOTO, target="http://site.local/" + text(12).replace(" ", "-"))
    if kind == "go_back":
        return PageAction(ActionKind.GO_BACK)
    return PageAction(ActionKind.STOP, target=text(30))


def _random_sequence(rng: random.Random) -> tuple[PageAction, ...]:
    n = rng.randint(1, 6)
    actions = [_random_action(rng, allow_stop=False) for _ in range(n - 1)]
    actions.append(_random_action(rng, allow_stop=True))
    return tuple(actions)


# ---------------------------------------------------------------------
# Round trips (the 10^4-case oracle)
# ---------------------------------------------------------------------


def test_plan_round_trip_bulk():
    rng = random.Random(SEED)
    for _ in range(6000):
        plan = _random_plan(rng)
        back = parse_global_plan(render_plan_text(plan), plan_version=plan.plan_version)
        assert back == plan


def test_action_sequence_round_trip_bulk():
    rng = random.Random(SEED + 1)
    for _ in range(6000):
        seq = _random_sequence(rng)
        back = parse_action_sequence(render_action_sequence(seq))
        assert back == seq


def test_single_action_round_trip_bulk():
    rng = random.Random(SEED + 2)
    for _ in range(2000):
        action = _random_action(rng, allow_stop=True)
        assert parse_action_text(render_action(action)) == action


@settings(max_examples=300)
@given(
    target=st.integers(min_value=1, max_value=10**6),
    text=st.text(
        st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=40,
    ).map(str.strip).filter(lambda s: s and s.endswith(tuple(string.ascii_letters + string.digits))),
)
def test_type_action_round_trip_property(target, text):
    action = PageAction(ActionKind.TYPE, target=target, text=text)
    assert parse_action_text(render_action(action)) == action


# ---------------------------------------------------------------------
# Plan parsing specifics
# ---------------------------------------------------------------------


def test_plan_parser_skips_preamble_and_accepts_numbered_lists():
    text = (
        "Here is how to tackle the objective.\n"
        "1. Open the orders listing | Expected: rows visible\n"
        "2) Read the newest order | Expected: total reported\n"
        "Good luck."
    )
    plan = parse_global_plan(text)
    assert [p.index for p in plan.phases] == [1, 2]
    assert plan.phases[1].subtask == "Read the newest order"


def test_plan_parser_renumbers_noncontiguous_phases():
    text = "Phase 3: alpha | Expected: one\nPhase 9: beta | Expected: two"
    plan = parse_global_plan(text)
    assert [p.index for p in plan.phases] == [1, 2]


def test_plan_parser_rejects_missing_expected():
    with pytest.raises(PlanParseError):
        parse_global_plan("Phase 1: do the thing")


def test_plan_parser_rejects_empty_fields():
    with pytest.raises(PlanParseError):
        parse_global_plan("Phase 1:  | Expected: fine")
    with pytest.raises(PlanParseError):
        parse_global_plan("Phase 1: fine | Expected:   ")


def test_plan_parser_rejects_planless_text():
    with pytest.raises(PlanParseError):
        parse_global_plan("I would start by looking at the home page.")


def test_plan_version_is_carried():
    plan = parse_global_plan("Phase 1: a | Expected: b", plan_version=4)
    assert plan.plan_version == 4


# ---------------------------------------------------------------------
# Action parsing specifics
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("click [12]", PageAction(ActionKind.CLICK, target=12)),
        ("CLICK [ 12 ]", PageAction(ActionKind.CLICK, target=12)),
        ("type [2] [mug]", PageAction(ActionKind.TYPE, target=2, text="mug")),
        ("scroll [down]", PageAction(ActionKind.SCROLL, target="down")),
        ("goto [http://shop.local/]", PageAction(ActionKind.GOTO, target="http://shop.local/")),
        ("go_back", PageAction(ActionKind.GO_BACK)),
        ("go back", PageAction(ActionKind.GO_BACK)),
        ("stop [done]", PageAction(ActionKind.STOP, target="done")),
        ("stop", PageAction(ActionKind.STOP, target="")),
    ],
)
def test_action_text_accepted_forms(text, expected):
    assert parse_action_text(text) == expected


@pytest.mark.parametrize(
    "text",
    ["tap [3]", "click [x]", "click 3", "scroll [left]", "type [2]", "goto []", ""],
)
def test_action_text_rejected_forms(text):
    with pytest.raises(ActionParseError):
        parse_action_text(text)


def test_sequence_requires_action_lines():
    with pytest.raises(EmptyPlan):
        parse_action_sequence("I will click the link and then stop.")


def test_sequence_truncates_after_stop():
    text = (
        "**Action 1:** click [3]\n"
        "**Action 2:** stop [done]\n"
        "**Action 3:** click [4]\n"
    )
    seq = parse_action_sequence(text)
    assert [a.kind for a in seq] == [ActionKind.CLICK, ActionKind.STOP]


def test_sequence_propagates_bad_action():
    with pytest.raises(ActionParseError):
        parse_action_sequence("**Action 1:** click [3]\n**Action 2:** frobnicate [9]")


def test_sequence_ignores_surrounding_prose():
    text = "Plan:\n**Action 1:** goto [http://x.local/]\nThat should do it."
    seq = parse_action_sequence(text)
    assert len(seq) == 1


# ---------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------


def test_verdict_fenced_token():
    v = parse_verdict("Action: ```move```\nReasons: all good")
    assert v.decision is VerdictDecision.MOVE


def test_verdict_bare_token_case_insensitive():
    v = parse_verdict("I think MOVE is right here.")
    assert v.decision is VerdictDecision.MOVE


def test_verdict_first_token_wins():
    v = parse_verdict("revise first, definitely not move\nReasons: selector was stale")
    assert v.decision is VerdictDecision.REVISE


def test_verdict_move_rejected_after_failure():
    with pytest.raises(VerdictParseError):
        parse_verdict("```move```", allow_move=False)


def test_verdict_revise_requires_reasons():
    with pytest.raises(VerdictParseError):
        parse_verdict("```revise```")
    v = parse_verdict("```revise```\nReasons: node id vanished")
    assert v.reasons == "node id vanished"


def test_verdict_request_after_failure():
    v = parse_verdict(
        "Action: ```request```\nReasons: the plan assumes a page that does not exist",
        allow_move=False,
    )
    assert v.decision is VerdictDecision.REQUEST
    assert "does not exist" in v.reasons


def test_verdict_rejects_tokenless_text():
    with pytest.raises(VerdictParseError):
        parse_verdict("Action: proceed")


def test_verdict_embedded_words_do_not_match():
    # "removed" and "revised" must not register as tokens.
    with pytest.raises(VerdictParseError):
        parse_verdict("The filter was removed and the plan revised accordingly.")


# ---------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------


def test_decision_revise_token():
    token, _ = parse_decision("```revise```\nThe category assumption was wrong.")
    assert token == "revise"


def test_decision_overrule_guidance_is_text_minus_token():
    token, guidance = parse_decision("overrule: click the boots link and read the price")
    assert token == "overrule"
    assert "click the boots link" in guidance
    assert "overrule" not in guidance


def test_decision_rejects_tokenless_text():
    with pytest.raises(DecisionParseError):
        parse_decision("The request seems reasonable to me.")


def test_decision_first_token_wins():
    token, _ = parse_decision("overrule, do not revise\nkeep going")
    assert token == "overrule"
