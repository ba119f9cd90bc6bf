"""Shared protocol types for the two-agent runtime.

Every value that crosses a module boundary (tasks, observations, plans,
action sequences, reports, verdicts, decisions, budgets, transcript events)
is defined here as an immutable dataclass.  All of them but
TranscriptEvent share one field-driven JSON-dict codec.  The module
deliberately contains no behavior beyond validation and
(de)serialization; agents, environment and orchestrator build on top.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import cache
from types import UnionType
from typing import Any, Callable, NamedTuple, get_args, get_origin, get_type_hints

__all__ = [
    "ActionKind",
    "ActionSequence",
    "Budgets",
    "DictCodec",
    "Difficulty",
    "EvaluatorSpec",
    "EventKind",
    "ExecutionReport",
    "ExecutionStep",
    "GlobalDecision",
    "GlobalPlan",
    "LocalVerdict",
    "Observation",
    "PageAction",
    "PhaseSpec",
    "ReplanRequest",
    "StepOutcome",
    "Task",
    "TranscriptEvent",
    "ValidationResult",
    "VerdictDecision",
    "Violation",
    "validate",
]


# =====================================================================
# Enumerations
# =====================================================================


class Difficulty(str, Enum):
    EASY = "Easy"
    MEDIUM = "Medium"
    HARD = "Hard"
    UNLABELED = "Unlabeled"


class ActionKind(str, Enum):
    CLICK = "click"
    TYPE = "type"
    SCROLL = "scroll"
    GOTO = "goto"
    GO_BACK = "go_back"
    STOP = "stop"


class VerdictDecision(str, Enum):
    MOVE = "move"
    REVISE = "revise"
    REQUEST = "request"


class EventKind(str, Enum):
    LLM_CALL = "LlmCall"
    ENV_STEP = "EnvStep"
    PLAN_ISSUED = "PlanIssued"
    VERDICT_ISSUED = "VerdictIssued"
    REPLAN_REQUESTED = "ReplanRequested"
    DECISION_ISSUED = "DecisionIssued"
    FORCE_STOP = "ForceStop"
    TASK_RESULT = "TaskResult"


EVALUATOR_KINDS = ("exact_match", "must_include", "url_match")

# Directions accepted by scroll actions.
SCROLL_DIRECTIONS = ("up", "down")


# =====================================================================
# Dict codec
# =====================================================================


class DictCodec:
    """Field-driven JSON-dict codec for frozen dataclasses.

    to_dict writes the fields in declaration order: enums as their value,
    tuples as lists, nested values through their own to_dict, and None
    values left out.  from_dict decodes each field by its type hint and
    checks that str fields hold strings.  A missing key takes the field's
    default; a field without one, or any field of a class that sets
    `_all_keys_required`, raises KeyError.  Tuple fields given any other
    sequence store it as a tuple, so values stay hashable and comparable.
    """

    _all_keys_required = False

    def __post_init__(self) -> None:
        for f in _fields_of(type(self)):
            value = getattr(self, f.name)
            if f.is_tuple and not isinstance(value, tuple):
                object.__setattr__(self, f.name, tuple(value))

    def to_dict(self) -> dict:
        return {
            f.name: _encode(value)
            for f in _fields_of(type(self))
            if (value := getattr(self, f.name)) is not None
        }

    @classmethod
    def from_dict(cls, d: dict) -> Any:
        kwargs = {}
        for f in _fields_of(cls):
            if f.name in d:
                kwargs[f.name] = f.decode(d[f.name])
            elif f.required or cls._all_keys_required:
                raise KeyError(f.name)
        return cls(**kwargs)


class _Field(NamedTuple):
    name: str
    decode: Callable[[Any], Any]
    required: bool
    is_tuple: bool


@cache
def _fields_of(cls: type) -> tuple[_Field, ...]:
    """Each field's codec rules, resolved from the type hints once per class."""
    hints = get_type_hints(cls)
    return tuple(
        _Field(
            f.name,
            _decoder(hints[f.name]),
            f.default is MISSING and f.default_factory is MISSING,
            get_origin(hints[f.name]) is tuple,
        )
        for f in fields(cls)
    )


def _encode(value: Any) -> Any:
    if isinstance(value, DictCodec):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _as_is(value: Any) -> Any:
    return value


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__} {value!r}")
    return value


def _decoder(hint: Any) -> Callable[[Any], Any]:
    """The function that turns a JSON value into a field of type `hint`."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        item = _decoder(args[0])
        return lambda value: tuple(item(v) for v in value)
    if origin is UnionType:
        inner = [a for a in args if a is not type(None)]
        item = _decoder(inner[0]) if len(inner) == 1 else _as_is
        return lambda value: None if value is None else item(value)
    if hint is str:
        return _string
    if isinstance(hint, type) and issubclass(hint, DictCodec):
        return hint.from_dict
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint
    return _as_is


# =====================================================================
# Task and evaluation
# =====================================================================


@dataclass(frozen=True)
class EvaluatorSpec(DictCodec):
    """How a task's final answer / final env state is judged.

    kind is one of:
      exact_match   answer equals one of `expected` after whitespace/case
                    normalization
      must_include  every string in `expected` occurs in the answer,
                    case-insensitively
      url_match     final page URL equals one of `expected` modulo a
                    trailing slash
    """

    kind: str
    expected: tuple[str, ...]

    @classmethod
    def from_dict(cls, d: dict) -> "EvaluatorSpec":
        # A bare string is a single expected value, not a run of characters.
        if isinstance(d, dict) and isinstance(d.get("expected"), str):
            d = {**d, "expected": [d["expected"]]}
        return super().from_dict(d)


@dataclass(frozen=True)
class Task(DictCodec):
    """One benchmark task: an objective against a named site fixture."""

    id: str
    objective: str
    env_fixture: str
    evaluator: EvaluatorSpec
    difficulty: Difficulty = Difficulty.UNLABELED
    site_category: str = ""
    # Free-form class label from the difficulty taxonomy shipped with the
    # bundled fixtures (e.g. "Order Management"); empty when unused.
    task_class: str = ""


# =====================================================================
# Observations and page actions
# =====================================================================


@dataclass(frozen=True)
class Observation(DictCodec):
    """What an agent sees: rendered accessibility tree plus page context."""

    axtree: str
    url: str
    open_tabs: tuple[str, ...] = ()
    previous_action: str = "None"


@dataclass(frozen=True)
class PageAction(DictCodec):
    """A single browser-level action.

    `target` holds the element id for click/type, the direction for
    scroll, the URL for goto and the final answer for stop.  `text` is
    only used by type.
    """

    kind: ActionKind
    target: int | str | None = None
    text: str | None = None


@dataclass(frozen=True)
class ActionSequence(DictCodec):
    """Ordered actions planned for one phase."""

    actions: tuple[PageAction, ...]


# =====================================================================
# Plans
# =====================================================================


@dataclass(frozen=True)
class PhaseSpec(DictCodec):
    """One phase of a global plan: a subtask and its expected end state."""

    index: int
    subtask: str
    expected_state: str


@dataclass(frozen=True, kw_only=True)
class GlobalPlan(DictCodec):
    """A versioned multi-phase plan produced by the planning agent."""

    # Declared first so the wire form leads with the version.
    plan_version: int = 1
    phases: tuple[PhaseSpec, ...]

    def phase(self, index: int) -> PhaseSpec:
        for p in self.phases:
            if p.index == index:
                return p
        raise KeyError(f"plan v{self.plan_version} has no phase {index}")


# =====================================================================
# Execution reporting
# =====================================================================


@dataclass(frozen=True)
class StepOutcome(DictCodec):
    """Result of applying one action: Ok, or an environment error."""

    ok: bool
    error: str = ""

    @classmethod
    def success(cls) -> "StepOutcome":
        return cls(ok=True)

    @classmethod
    def env_error(cls, message: str) -> "StepOutcome":
        return cls(ok=False, error=message)


@dataclass(frozen=True)
class ExecutionStep(DictCodec):
    action: PageAction
    outcome: StepOutcome


@dataclass(frozen=True)
class ExecutionReport(DictCodec):
    """What happened when an action sequence ran against the environment."""

    steps: tuple[ExecutionStep, ...]
    final_observation: Observation
    raised_exception: bool


# =====================================================================
# Verdicts, replanning and decisions
# =====================================================================


@dataclass(frozen=True)
class LocalVerdict(DictCodec):
    """The execution agent's self-check after running a phase."""

    decision: VerdictDecision
    reasons: str = ""


@dataclass(frozen=True)
class ReplanRequest(DictCodec):
    """Escalation from the execution agent asking for a new global plan."""

    phase_index: int
    reasons: str
    report: ExecutionReport


@dataclass(frozen=True)
class GlobalDecision(DictCodec):
    """The planner's ruling on a replan request.

    ruling == "revise": `new_plan` carries the replacement plan.
    ruling == "overrule": `guidance` carries advice for the execution
    agent; the current plan stays in force, byte for byte.
    """

    ruling: str
    new_plan: GlobalPlan | None = None
    guidance: str = ""

    @classmethod
    def revise(cls, new_plan: GlobalPlan) -> "GlobalDecision":
        return cls(ruling="revise", new_plan=new_plan)

    @classmethod
    def overrule(cls, guidance: str) -> "GlobalDecision":
        return cls(ruling="overrule", guidance=guidance)

    def to_dict(self) -> dict:
        d = super().to_dict()
        if not self.guidance:  # a revise ruling carries no guidance
            del d["guidance"]
        return d


# =====================================================================
# Budgets
# =====================================================================


@dataclass(frozen=True)
class Budgets(DictCodec):
    """Dialogue limits for one task run.

    max_exchanges caps the total number of completed agent LLM calls and
    only binds while force_stop_enabled is true.  The per-phase revision
    and per-task replan limits bind only when force stop is disabled.
    """

    max_exchanges: int = 30
    max_local_revisions_per_phase: int = 3
    max_replan_requests_per_task: int = 3
    force_stop_enabled: bool = True

    # A transcript header must spell out every limit it ran under.
    _all_keys_required = True


# =====================================================================
# Transcript events
# =====================================================================


@dataclass(frozen=True)
class TranscriptEvent:
    """One record in a task's append-only event log.

    Payload schema by kind:
      LlmCall          {role, prompt, response, latency}
      EnvStep          {action, ok, error}
      PlanIssued       {plan}
      VerdictIssued    {decision, reasons}
      ReplanRequested  {request}
      DecisionIssued   {ruling, new_plan?|guidance?}
      ForceStop        {exchange_count, reason}
      TaskResult       {success, answer, termination, detail}
    """

    seq: int
    timestamp: float
    kind: EventKind
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.timestamp,
            "kind": self.kind.value,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TranscriptEvent":
        return cls(
            seq=d["seq"],
            timestamp=d["ts"],
            kind=EventKind(d["kind"]),
            payload=d.get("payload", {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "TranscriptEvent":
        return cls.from_dict(json.loads(line))


_PAYLOAD_REQUIRED_KEYS: dict[EventKind, tuple[str, ...]] = {
    EventKind.LLM_CALL: ("role", "prompt", "response", "latency"),
    EventKind.ENV_STEP: ("action", "ok"),
    EventKind.PLAN_ISSUED: ("plan",),
    EventKind.VERDICT_ISSUED: ("decision",),
    EventKind.REPLAN_REQUESTED: ("request",),
    EventKind.DECISION_ISSUED: ("ruling",),
    EventKind.FORCE_STOP: ("exchange_count", "reason"),
    EventKind.TASK_RESULT: ("success", "answer", "termination"),
}


# =====================================================================
# Validation
# =====================================================================


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _violations_for(value: Any, path: str) -> list[Violation]:
    out: list[Violation] = []

    def bad(msg: str, sub: str = "") -> None:
        out.append(Violation(path + sub, msg))

    if isinstance(value, Task):
        if not value.id.strip():
            bad("task id must be nonempty", ".id")
        if not value.objective.strip():
            bad("objective must be nonempty", ".objective")
        if not value.env_fixture.strip():
            bad("env_fixture must be nonempty", ".env_fixture")
        out.extend(_violations_for(value.evaluator, path + ".evaluator"))

    elif isinstance(value, EvaluatorSpec):
        if value.kind not in EVALUATOR_KINDS:
            bad(f"unknown evaluator kind {value.kind!r}", ".kind")
        if not value.expected:
            bad("expected values must be nonempty", ".expected")
        elif any(not isinstance(e, str) or not e for e in value.expected):
            bad("every expected value must be a nonempty string", ".expected")

    elif isinstance(value, Observation):
        if not value.axtree.strip():
            bad("axtree must be nonempty", ".axtree")
        if not value.previous_action:
            bad("previous_action must be nonempty (use 'None')", ".previous_action")

    elif isinstance(value, PageAction):
        kind = value.kind
        if kind in (ActionKind.CLICK, ActionKind.TYPE):
            if not isinstance(value.target, int):
                bad("target must be an integer element id", ".target")
            if kind is ActionKind.TYPE and not isinstance(value.text, str):
                bad("type action requires text", ".text")
        elif kind is ActionKind.SCROLL:
            if value.target not in SCROLL_DIRECTIONS:
                bad("scroll direction must be 'up' or 'down'", ".target")
        elif kind is ActionKind.GOTO:
            if not isinstance(value.target, str) or not value.target.strip():
                bad("goto requires a nonempty url", ".target")
        elif kind is ActionKind.GO_BACK:
            if value.target is not None or value.text is not None:
                bad("go_back takes no arguments", ".target")
        elif kind is ActionKind.STOP:
            if not isinstance(value.target, str):
                bad("stop requires an answer string (may be empty)", ".target")

    elif isinstance(value, ActionSequence):
        if not value.actions:
            bad("action sequence must be nonempty", ".actions")
        for i, a in enumerate(value.actions):
            out.extend(_violations_for(a, f"{path}.actions[{i}]"))
            if a.kind is ActionKind.STOP and i != len(value.actions) - 1:
                bad("no action may follow a stop", f".actions[{i}]")

    elif isinstance(value, PhaseSpec):
        if value.index < 1:
            bad("phase index must be >= 1", ".index")
        if not value.subtask.strip():
            bad("subtask must be nonempty", ".subtask")
        if not value.expected_state.strip():
            bad("expected_state must be nonempty", ".expected_state")

    elif isinstance(value, GlobalPlan):
        if not value.phases:
            bad("plan must have at least one phase", ".phases")
        if value.plan_version < 1:
            bad("plan_version must be >= 1", ".plan_version")
        for i, p in enumerate(value.phases):
            out.extend(_violations_for(p, f"{path}.phases[{i}]"))
        indices = [p.index for p in value.phases]
        if indices != list(range(1, len(indices) + 1)):
            bad(f"phase indices must be contiguous from 1, got {indices}", ".phases")

    elif isinstance(value, ExecutionReport):
        if not value.steps:
            bad("report must contain at least one step", ".steps")
        for i, s in enumerate(value.steps):
            out.extend(_violations_for(s.action, f"{path}.steps[{i}].action"))
        any_error = any(not s.outcome.ok for s in value.steps)
        if value.raised_exception != any_error:
            bad(
                "raised_exception must equal the presence of an EnvError step",
                ".raised_exception",
            )
        out.extend(_violations_for(value.final_observation, path + ".final_observation"))

    elif isinstance(value, LocalVerdict):
        if value.decision in (VerdictDecision.REVISE, VerdictDecision.REQUEST):
            if not value.reasons.strip():
                bad("reasons required for revise/request verdicts", ".reasons")

    elif isinstance(value, ReplanRequest):
        if value.phase_index < 1:
            bad("phase_index must be >= 1", ".phase_index")
        if not value.reasons.strip():
            bad("reasons must be nonempty", ".reasons")
        out.extend(_violations_for(value.report, path + ".report"))

    elif isinstance(value, GlobalDecision):
        if value.ruling not in ("revise", "overrule"):
            bad(f"unknown ruling {value.ruling!r}", ".ruling")
        elif value.ruling == "revise":
            if value.new_plan is None:
                bad("revise ruling requires new_plan", ".new_plan")
            else:
                out.extend(_violations_for(value.new_plan, path + ".new_plan"))
        elif not value.guidance.strip():
            bad("overrule ruling requires nonempty guidance", ".guidance")

    elif isinstance(value, Budgets):
        if value.max_exchanges <= 0:
            bad("max_exchanges must be positive", ".max_exchanges")
        if value.max_local_revisions_per_phase < 0:
            bad("max_local_revisions_per_phase must be >= 0", ".max_local_revisions_per_phase")
        if value.max_replan_requests_per_task < 0:
            bad("max_replan_requests_per_task must be >= 0", ".max_replan_requests_per_task")

    elif isinstance(value, TranscriptEvent):
        if value.seq < 0:
            bad("seq must be >= 0", ".seq")
        required = _PAYLOAD_REQUIRED_KEYS[value.kind]
        missing = [k for k in required if k not in value.payload]
        if missing:
            bad(f"payload missing keys {missing} for kind {value.kind.value}", ".payload")

    else:
        bad(f"no validation rules for type {type(value).__name__}")

    return out


def validate(value: Any) -> ValidationResult:
    """Check a protocol value against its structural invariants."""
    return ValidationResult(violations=tuple(_violations_for(value, type(value).__name__)))
