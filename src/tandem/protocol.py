"""Shared protocol types for the two-agent runtime.

Every value that crosses a module boundary is defined here and is
immutable.  Tasks, observations, page actions, plans, reports,
verdicts, decisions, budgets, a run's closing TaskResult and the
transcript header (RunHeader) are NamedTuples that `record` gives one
field-driven JSON-dict codec, and each closed set of words
(difficulties, action kinds, verdicts, rulings, event kinds,
terminations) is an Enum.  A transcript event is a NamedTuple with its
own codec.  A record is a tuple, so it equals any tuple of the same
items.  Every file tandem reads (tasks, suites, fixtures, scripts,
passages, reports, transcripts and prompt overrides) is read by
`read_text` and decoded by `read_data`/`parse_data`, which turn any way
a file can be bad into one `InputError`; `decode_at` decodes a record
inside one and names its place in any error.  Beyond (de)serialization
the module holds the field rules Task, Budgets, LocalVerdict and
GlobalDecision check when built (see `checked`), and the transcript's
payload tables, MESSAGE_RECORDS and EVENT_FIELDS; the rest builds on top.
"""

import json
from enum import Enum
from functools import cache, partial
from pathlib import Path
from types import UnionType
from typing import IO, Any, Callable, NamedTuple, TypeVar, get_args, get_origin, get_type_hints

import yaml

__all__ = [
    "ARRAY",
    "ActionKind",
    "BOOLEAN",
    "Budgets",
    "Difficulty",
    "EvaluatorSpec",
    "EVENT_FIELDS",
    "EventKind",
    "ExecutionReport",
    "ExecutionStep",
    "GlobalDecision",
    "GlobalPlan",
    "INTEGER",
    "InputError",
    "JsonType",
    "LocalVerdict",
    "MESSAGE_RECORDS",
    "NUMBER",
    "OBJECT",
    "Observation",
    "PageAction",
    "PhaseSpec",
    "ReplanRequest",
    "Ruling",
    "RunHeader",
    "StepOutcome",
    "STRING",
    "Task",
    "TaskResult",
    "Termination",
    "TranscriptEvent",
    "VerdictDecision",
    "checked",
    "decode_at",
    "load_yaml",
    "packaged",
    "parse_data",
    "read_data",
    "read_text",
    "record",
    "version_mismatch",
]


# =====================================================================
# Enumerations
# =====================================================================


class Difficulty(str, Enum):
    EASY = "Easy"
    MEDIUM = "Medium"
    HARD = "Hard"
    UNLABELED = "Unlabeled"

    @classmethod
    def _missing_(cls, value: object) -> "Difficulty | None":
        # Task files spell difficulties in any case ("easy", "EASY").
        return next((d for d in cls if d.value.casefold() == str(value).casefold()), None)


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


class Ruling(str, Enum):
    REVISE = "revise"
    OVERRULE = "overrule"


class EventKind(str, Enum):
    LLM_CALL = "LlmCall"
    LLM_FAILED = "LlmFailed"
    ENV_STEP = "EnvStep"
    PLAN_ISSUED = "PlanIssued"
    VERDICT_ISSUED = "VerdictIssued"
    REPLAN_REQUESTED = "ReplanRequested"
    DECISION_ISSUED = "DecisionIssued"
    FORCE_STOP = "ForceStop"
    TASK_RESULT = "TaskResult"


class Termination(str, Enum):
    COMPLETED = "completed"
    FORCE_STOPPED = "force_stopped"
    BUDGET_EXHAUSTED = "budget_exhausted"
    PROTOCOL_ERROR = "protocol_error"


EVALUATOR_KINDS = ("exact_match", "must_include", "url_match")


# =====================================================================
# Dict codec
# =====================================================================


_Record = TypeVar("_Record", bound=type)
_Checked = TypeVar("_Checked", bound=tuple)


def checked(cls: _Record) -> _Record:
    """Make NamedTuple `cls`'s constructor pass each record it builds through
    `cls._checked`, which raises ValueError for a broken rule and returns the
    record to keep: the one it was given, or one with a field normalised.

    `_make` and `_replace` skip the hook, so no code calls them on a
    checked record.
    """
    build, check = cls.__new__, cls._checked

    def __new__(cls: type, *args: Any, **kwargs: Any) -> Any:
        return check(build(cls, *args, **kwargs))

    cls.__new__ = staticmethod(__new__)
    return cls


def record(cls: _Record) -> _Record:
    """Give NamedTuple `cls` the field-driven JSON-dict codec, and a checked
    constructor if it defines `_checked`.

    to_dict writes the fields in declaration order: enums as their value,
    tuples as lists, nested records through their own to_dict, and None
    values left out.  from_dict decodes each field by its type hint; a str,
    int, float or bool field that holds no JSON string, integer, number or
    boolean raises a TypeError naming it, and an Enum field holding none
    of its values a ValueError.  A missing key takes the field's default; a
    field without one, or any field of a class that sets
    `_all_keys_required`, raises KeyError.  A class keeps a to_dict or
    from_dict of its own.
    """
    if "to_dict" not in vars(cls):
        cls.to_dict = _to_dict
    if "from_dict" not in vars(cls):
        cls.from_dict = classmethod(_from_dict)
    return checked(cls) if "_checked" in vars(cls) else cls


def _to_dict(self: tuple) -> dict:
    return {
        name: _encode(value) for name, value in zip(self._fields, self) if value is not None
    }


def _from_dict(cls: type, d: dict) -> Any:
    if type(d) is not dict:  # `in` on a string would test for a substring
        raise TypeError(OBJECT.mismatch(d, cls.__name__))
    kwargs = {}
    for f in _fields_of(cls):
        if f.name in d:
            kwargs[f.name] = f.decode(d[f.name])
        elif f.required:
            raise KeyError(f.name)
    return cls(**kwargs)


def decode_at(kind: Any, raw: Any, where: str) -> Any:
    """`kind.from_dict(raw)`, with `where` in front of any error it raises."""
    try:
        return kind.from_dict(raw)
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _check_rules(value: _Checked, *rules: tuple[bool, str, str]) -> _Checked:
    """`value`, or one ValueError naming each (broken, field path, message) rule of it.

    A message is a `str.format` template over `self`, filled in only when
    its rule is broken: a record on the hot path builds no text.
    """
    name = type(value).__name__
    broken = [f"{name}.{path}: {text.format(self=value)}" for bad, path, text in rules if bad]
    if broken:
        raise ValueError("; ".join(broken))
    return value


class _Field(NamedTuple):
    name: str
    decode: Callable[[Any], Any]
    required: bool


@cache
def _fields_of(cls: type) -> tuple[_Field, ...]:
    """Each field's codec rules, resolved from the type hints once per class."""
    hints = get_type_hints(cls)
    every = getattr(cls, "_all_keys_required", False)
    return tuple(
        _Field(name, _decoder(hints[name], name), every or name not in cls._field_defaults)
        for name in cls._fields
    )


def _encode(value: Any) -> Any:
    if isinstance(value, tuple):
        to_dict = getattr(value, "to_dict", None)  # a record
        return to_dict() if to_dict is not None else [_encode(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value


def _as_is(value: Any) -> Any:
    return value


class JsonType(NamedTuple):
    """A JSON value type as the exact Python types a decoder makes of it (a bool is no number)."""

    name: str
    types: tuple[type, ...]

    def check(self, value: Any, key: str) -> Any:
        """`value`, if its type is one of `types`; else a TypeError naming `key`."""
        if type(value) not in self.types:
            raise TypeError(self.mismatch(value, key))
        return value

    def mismatch(self, value: Any, key: str) -> str:
        return f"{key}: expected {self.name}, got {type(value).__name__} {value!r}"


STRING = JsonType("a string", (str,))
NUMBER = JsonType("a number", (int, float))
INTEGER = JsonType("an integer", (int,))
BOOLEAN = JsonType("a boolean", (bool,))
OBJECT = JsonType("an object", (dict,))
ARRAY = JsonType("an array", (list,))
_SCALARS = {str: STRING, int: INTEGER, float: NUMBER, bool: BOOLEAN}


def _decoder(hint: Any, name: str) -> Callable[[Any], Any]:
    """The function that turns a JSON value into field `name` of type `hint`."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        item = _decoder(args[0], name)
        return lambda value: tuple(item(v) for v in ARRAY.check(value, name))
    if origin is UnionType:
        inner = [a for a in args if a is not type(None)]
        item = _decoder(inner[0], name) if len(inner) == 1 else _as_is
        return lambda value: None if value is None else item(value)
    if hint in _SCALARS:
        return partial(_SCALARS[hint].check, key=name)
    if isinstance(hint, type) and issubclass(hint, tuple) and hasattr(hint, "from_dict"):
        return hint.from_dict
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint
    return _as_is


# =====================================================================
# Input files
# =====================================================================


# libyaml's safe loader decodes the same documents as the pure-Python
# one, several times faster; PyYAML built without libyaml lacks it.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(stream: str | IO[str]) -> Any:
    """Decode one YAML document with the safe loader; errors raise yaml.YAMLError."""
    return yaml.load(stream, Loader=_YAML_LOADER)


class InputError(ValueError):
    """A file (or the flag that should name one) that tandem cannot use."""

    def __init__(self, path: str | Path, reason: str) -> None:
        self.path = str(path)
        self.reason = " ".join(reason.split())  # YAML errors span several lines
        super().__init__(f"{path}: {self.reason}")


def packaged(*parts: str) -> Path:
    """The path of a file under the package's data directory, which ships as plain files."""
    return Path(__file__).resolve().parent.joinpath("data", *parts)


def read_text(path: str | Path) -> str:
    """The UTF-8 text of `path`; a file that cannot be read is an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(path, exc.strerror or str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError(path, f"not UTF-8 text: {exc}") from exc


def parse_data(path: str | Path, text: str, parse: Callable, fmt: str, decode: Callable) -> Any:
    """`decode` of the mapping `parse` (`load_yaml` or `json.loads`) makes of `text`.

    A syntax error, a document that is not a mapping whose `format` is
    `fmt`, or a KeyError, TypeError, ValueError or AttributeError from
    `decode` is an InputError naming `path`.  An InputError from a file
    `decode` reads in turn keeps its own path after `path`.
    """
    try:
        doc = parse(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: json.JSONDecodeError
        raise InputError(path, f"syntax error: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise InputError(path, f"not a {fmt} file")
    try:
        return decode(doc)
    except KeyError as exc:
        raise InputError(path, f"missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputError(path, str(exc)) from exc


def read_data(path: str | Path, parse: Callable, fmt: str, decode: Callable) -> Any:
    """`parse_data` over the text of the file at `path`."""
    return parse_data(path, read_text(path), parse, fmt, decode)


def version_mismatch(doc: dict, version: int) -> str | None:
    """Why `doc` is not of format version `version`, or None if it is.

    The version must be that JSON integer: a boolean, a float or a missing
    version counts as another one."""
    found = doc.get("version")
    if type(found) is int and found == version:
        return None
    return f"version {found!r}: this tandem reads only version {version}"


# =====================================================================
# Task and evaluation
# =====================================================================


@record
class EvaluatorSpec(NamedTuple):
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
        return _from_dict(cls, d)


@record
class Task(NamedTuple):
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

    def _checked(self) -> "Task":
        kind, expected = self.evaluator
        return _check_rules(
            self,
            (not self.id.strip(), "id", "task id must be nonempty"),
            (
                "/" in self.id or "\\" in self.id or self.id in (".", ".."),
                "id",
                "task id must be one path component: no '/' or '\\', and not '.' or '..'",
            ),
            (not self.objective.strip(), "objective", "objective must be nonempty"),
            (not self.env_fixture.strip(), "env_fixture", "env_fixture must be nonempty"),
            (kind not in EVALUATOR_KINDS, "evaluator.kind",
             "unknown evaluator kind {self.evaluator.kind!r}"),
            (not expected, "evaluator.expected", "expected values must be nonempty"),
            (
                not all(expected),
                "evaluator.expected",
                "every expected value must be a nonempty string",
            ),
        )


# =====================================================================
# Observations and page actions
# =====================================================================


@record
class Observation(NamedTuple):
    """What an agent sees: rendered accessibility tree plus page context."""

    axtree: str
    url: str
    open_tabs: tuple[str, ...] = ()
    previous_action: str = "None"


@record
class PageAction(NamedTuple):
    """A single browser-level action.

    `target` holds the element id for click/type, the direction for
    scroll, the URL for goto and the final answer for stop.  `text` is
    only used by type.
    """

    kind: ActionKind
    target: int | str | None = None
    text: str | None = None


# =====================================================================
# Plans
# =====================================================================


@record
class PhaseSpec(NamedTuple):
    """One phase of a global plan: a subtask and its expected end state."""

    index: int
    subtask: str
    expected_state: str


@record
class GlobalPlan(NamedTuple):
    """A versioned multi-phase plan produced by the planning agent."""

    phases: tuple[PhaseSpec, ...]
    plan_version: int = 1

    def to_dict(self) -> dict:
        # The wire form leads with the version.
        return {"plan_version": self.plan_version, "phases": [p.to_dict() for p in self.phases]}

    def phase(self, index: int) -> PhaseSpec:
        for p in self.phases:
            if p.index == index:
                return p
        raise KeyError(f"plan v{self.plan_version} has no phase {index}")


# =====================================================================
# Execution reporting
# =====================================================================


@record
class StepOutcome(NamedTuple):
    """Result of applying one action: Ok, or an environment error."""

    ok: bool
    error: str = ""

    @classmethod
    @cache
    def success(cls) -> "StepOutcome":
        """The one shared Ok outcome; an outcome is immutable."""
        return cls(ok=True)

    @classmethod
    def env_error(cls, message: str) -> "StepOutcome":
        return cls(ok=False, error=message)


@record
class ExecutionStep(NamedTuple):
    action: PageAction
    outcome: StepOutcome


@record
class ExecutionReport(NamedTuple):
    """What happened when an action sequence ran against the environment."""

    steps: tuple[ExecutionStep, ...]
    final_observation: Observation
    raised_exception: bool


# =====================================================================
# Verdicts, replanning and decisions
# =====================================================================


@record
class LocalVerdict(NamedTuple):
    """The execution agent's self-check after running a phase."""

    decision: VerdictDecision
    reasons: str = ""

    def _checked(self) -> "LocalVerdict":
        return _check_rules(
            self,
            (not isinstance(self.decision, VerdictDecision), "decision",
             "{self.decision!r} is not a VerdictDecision"),
        )


@record
class ReplanRequest(NamedTuple):
    """Escalation from the execution agent asking for a new global plan."""

    phase_index: int
    reasons: str
    report: ExecutionReport


@record
class GlobalDecision(NamedTuple):
    """The planner's ruling on a replan request.

    Ruling.REVISE: `new_plan` carries the replacement plan.
    Ruling.OVERRULE: `guidance` carries advice for the execution agent;
    the current plan stays in force, byte for byte.  A ruling without its
    field is a ValueError.  Each ruling leaves the other's field None, so
    its wire form omits it.
    """

    ruling: Ruling
    new_plan: GlobalPlan | None = None
    guidance: str | None = None

    def _checked(self) -> "GlobalDecision":
        return _check_rules(
            self,
            (not isinstance(self.ruling, Ruling), "ruling", "{self.ruling!r} is not a Ruling"),
            (self.ruling is Ruling.REVISE and self.new_plan is None, "new_plan",
             "a revise ruling needs new_plan"),
            (self.ruling is Ruling.OVERRULE and self.guidance is None, "guidance",
             "an overrule ruling needs guidance"),
        )


# =====================================================================
# Budgets
# =====================================================================


@record
class Budgets(NamedTuple):
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

    def _checked(self) -> "Budgets":
        limits = ("max_local_revisions_per_phase", "max_replan_requests_per_task")
        return _check_rules(
            self,
            (self.max_exchanges <= 0, "max_exchanges", "max_exchanges must be positive"),
            *((getattr(self, name) < 0, name, f"{name} must be >= 0") for name in limits),
        )


# =====================================================================
# Transcript events
# =====================================================================


# ensure_ascii=False, built once: json.dumps builds an encoder per call
# whenever it is given an option.
_EVENT_ENCODER = json.JSONEncoder(ensure_ascii=False)


@record
class TaskResult(NamedTuple):
    """A run's closing transcript event: whether it succeeded, its answer,
    how it ended, and why it ended (empty on completion)."""

    success: bool
    answer: str
    termination: Termination
    detail: str


# The transcript format, which read_transcript checks.  A protocol message's
# payload, and a TaskResult's, is its record's wire form, under one key or
# (None) as a whole.
MESSAGE_RECORDS: dict[EventKind, tuple[type, str | None]] = {
    EventKind.PLAN_ISSUED: (GlobalPlan, "plan"),
    EventKind.VERDICT_ISSUED: (LocalVerdict, None),
    EventKind.REPLAN_REQUESTED: (ReplanRequest, "request"),
    EventKind.DECISION_ISSUED: (GlobalDecision, None),
    EventKind.TASK_RESULT: (TaskResult, None),
}
# Each other kind's payload keys in the order the writers emit them, with
# their JSON types; a writer leaves none out.
EVENT_FIELDS: dict[EventKind, dict[str, JsonType]] = {
    EventKind.LLM_CALL: {"role": STRING, "prompt": STRING, "response": STRING, "latency": NUMBER},
    EventKind.LLM_FAILED: {"role": STRING, "prompt": STRING, "error": STRING, "latency": NUMBER},
    EventKind.ENV_STEP: {"action": STRING, "ok": BOOLEAN, "error": STRING},
    EventKind.FORCE_STOP: {"exchange_count": INTEGER, "reason": STRING},
}


@record
class RunHeader(NamedTuple):
    """A transcript's first line: the task and the settings its run was held to."""

    task: Task
    budgets: Budgets
    backend: str = ""
    temperature: float = 1.0
    augment_search: bool = False


_KINDS = {kind.value: kind for kind in EventKind}


class TranscriptEvent(NamedTuple):
    """One record in a task's append-only event log; MESSAGE_RECORDS or
    EVENT_FIELDS gives its payload."""

    seq: int
    timestamp: float
    kind: EventKind
    payload: dict

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.timestamp,
            "kind": self.kind.value,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TranscriptEvent":
        """The event `d` holds: `seq` an integer, `ts` a number, `payload` an object."""
        if type(d) is not dict:
            raise TypeError(OBJECT.mismatch(d, cls.__name__))
        payload = OBJECT.check(d.get("payload", {}), "payload")
        seq, ts, kind = INTEGER.check(d["seq"], "seq"), NUMBER.check(d["ts"], "ts"), d["kind"]
        try:  # a dict read; an Enum call by value costs ten times as much
            kind = _KINDS[kind]
        except (KeyError, TypeError):  # not a kind's value: EventKind words the error
            kind = EventKind(kind)
        return cls(seq, ts, kind, payload)

    def to_json(self) -> str:
        return _EVENT_ENCODER.encode(self.to_dict())
