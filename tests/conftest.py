from __future__ import annotations

import json
from pathlib import Path

import pytest

from tandem.backend import ScriptedBackend, load_script_file
from tandem.executor import LocalExecutor
from tandem.harness import load_task_file
from tandem.orchestrator import run_task
from tandem.planner import GlobalPlanner
from tandem.protocol import (
    EVENT_FIELDS,
    ActionKind,
    Budgets,
    EvaluatorSpec,
    EventKind,
    GlobalDecision,
    GlobalPlan,
    LocalVerdict,
    Observation,
    PageAction,
    PhaseSpec,
    ReplanRequest,
    Task,
)
from tandem.transcript import RunRecorder
from tandem.webenv import WebEnv, load_fixture

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "src" / "tandem" / "data"
GOLDEN = REPO / "tests" / "golden"


# ---------------------------------------------------------------------
# Constructors used across test modules
# ---------------------------------------------------------------------


def make_task(**overrides) -> Task:
    base = dict(
        id="t-1",
        objective="Find the price of the Copper Pour-Over Kettle and report it.",
        env_fixture="shop",
        evaluator=EvaluatorSpec(kind="must_include", expected=("34.50",)),
    )
    base.update(overrides)
    return Task(**base)


def make_obs(**overrides) -> Observation:
    base = dict(axtree="[1] heading 'Shop Home'", url="http://shop.local/")
    base.update(overrides)
    return Observation(**base)


def make_phase(index: int = 1, **overrides) -> PhaseSpec:
    base = dict(subtask="Open the kitchen category", expected_state="Kitchen listing visible")
    base.update(overrides)
    return PhaseSpec(index=index, **base)


def action(kind: str, target=None, text=None) -> PageAction:
    return PageAction(kind=ActionKind(kind), target=target, text=text)


# ---------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------


def scenario_task(task_id: str) -> Task:
    return load_task_file(DATA / "tasks" / f"{task_id}.yaml")


def scenario_backend(task_id: str) -> ScriptedBackend:
    return ScriptedBackend(load_script_file(DATA / "scripts" / f"{task_id}.yaml"))


def run_scenario(task_id: str, budgets: Budgets | None = None):
    """Run one packaged scenario; returns (outcome, recorder, env)."""
    task = scenario_task(task_id)
    budgets = budgets or Budgets()
    env = WebEnv(load_fixture(task.env_fixture))
    recorder = RunRecorder()
    backend = scenario_backend(task_id)
    planner = GlobalPlanner(backend)
    executor = LocalExecutor(backend)
    outcome = run_task(task, planner, executor, env, budgets, recorder)
    return outcome, recorder, env


def load_golden(task_id: str) -> dict:
    return json.loads((GOLDEN / f"{task_id}.json").read_text(encoding="utf-8"))


def golden_budgets(golden: dict) -> Budgets:
    override = golden.get("budgets_override") or {}
    return Budgets(**override) if override else Budgets()


def project(events) -> list[dict]:
    """Reduce a transcript to the fields the golden traces pin down."""
    out: list[dict] = []
    for e in events:
        kind = getattr(e.kind, "value", e.kind)
        p = e.payload
        if kind == "LlmCall":
            out.append({"kind": kind, "role": p["role"]})
        elif kind == "EnvStep":
            out.append({"kind": kind, "action": p["action"], "ok": p["ok"]})
        elif kind == "PlanIssued":
            out.append(
                {
                    "kind": kind,
                    "version": p["plan"]["plan_version"],
                    "phases": len(p["plan"]["phases"]),
                }
            )
        elif kind == "VerdictIssued":
            out.append({"kind": kind, "decision": p["decision"]})
        elif kind == "ReplanRequested":
            out.append({"kind": kind, "phase": p["request"]["phase_index"]})
        elif kind == "DecisionIssued":
            out.append({"kind": kind, "ruling": p["ruling"]})
        elif kind == "ForceStop":
            out.append(
                {"kind": kind, "exchange_count": p["exchange_count"], "reason": p["reason"]}
            )
        elif kind == "TaskResult":
            out.append({"kind": kind, "success": p["success"], "termination": p["termination"]})
        else:  # pragma: no cover - taxonomy is closed
            raise AssertionError(f"unknown event kind {kind!r}")
    return out


def outcome_dict(outcome) -> dict:
    return {
        "success": outcome.success,
        "termination": outcome.termination.value,
        "exchanges_used": outcome.exchanges_used,
        "plan_versions": outcome.plan_versions,
        "final_answer": outcome.final_answer,
    }


SCENARIOS = ("scn-happy", "scn-revise", "scn-replan", "scn-overrule", "scn-forcestop")


@pytest.fixture()
def shop_env() -> WebEnv:
    env = WebEnv(load_fixture("shop"))
    env.reset()
    return env


def assert_declared(kind: EventKind, payload: dict) -> None:
    """`payload` has exactly the keys EVENT_FIELDS declares for `kind`, in the
    declared order, each with its declared JSON type."""
    fields, optional = EVENT_FIELDS[kind]
    assert set(optional) <= set(fields), kind
    assert list(payload) == [key for key in fields if key in payload], (kind, list(payload))
    for key, json_type in fields.items():
        if key in payload:
            json_type.check(payload[key], key)
        else:
            assert key in optional, (kind, key)


# The protocol value each of these events records, and the payload key that
# holds it (None: the payload is the value itself).
PAYLOAD_VALUES = {
    EventKind.PLAN_ISSUED: (GlobalPlan, "plan"),
    EventKind.VERDICT_ISSUED: (LocalVerdict, None),
    EventKind.REPLAN_REQUESTED: (ReplanRequest, "request"),
    EventKind.DECISION_ISSUED: (GlobalDecision, None),
}


def assert_codec_output(kind: EventKind, payload: dict) -> None:
    """A protocol value's event payload is what its value's codec writes of it,
    key order included; other events pass."""
    if kind not in PAYLOAD_VALUES:
        return
    cls, key = PAYLOAD_VALUES[kind]
    value = cls.from_dict(payload if key is None else payload[key]).to_dict()
    rebuilt = value if key is None else {key: value}
    assert json.dumps(rebuilt) == json.dumps(payload), (kind, payload)
