"""Transcript recording, persistence and replay.

A transcript is one header line followed by line-delimited JSON events
with gap-free seq numbers from 0, each payload as `protocol.EVENT_FIELDS`
declares it.  RunRecorder is the live sink: every LLM call (LlmCall),
failed LLM call (LlmFailed), environment step, verdict, decision and
budget event lands here, and `append` counts each LlmCall as one exchange.

ReplayBackend turns a recorded transcript back into a backend: it serves
the recorded responses in order, raises each recorded failure again, and
raises ReplayDivergence the moment a rendered prompt stops matching the
recording or the run asks for a call past its end.  The exception says
only why the run stopped; the replay check finds where by comparing the
event streams.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .backend import BackendError, ChatRequest
from .protocol import (
    EVENT_FIELDS,
    EventKind,
    InputError,
    TranscriptEvent,
    parse_data,
    read_text,
    version_mismatch,
)

__all__ = [
    "ForceStopInterrupt",
    "ReplayBackend",
    "ReplayDivergence",
    "RunRecorder",
    "TranscriptCorrupt",
    "read_transcript",
    "strip_volatile",
    "write_transcript",
]

TRANSCRIPT_FORMAT = "tandem-transcript"
TRANSCRIPT_VERSION = 1


class TranscriptCorrupt(InputError):
    """A structurally invalid record before the end of the file."""

    def __init__(self, path: str | Path, line_no: int, message: str) -> None:
        super().__init__(path, f"line {line_no}: {message}")
        self.line_no = line_no


class ForceStopInterrupt(Exception):
    """Raised by the recorder when the next exchange would exceed the cap."""

    def __init__(self, exchange_count: int) -> None:
        super().__init__(f"exchange budget spent at {exchange_count}")
        self.exchange_count = exchange_count


class ReplayDivergence(Exception):
    """A replayed run asked for a call its recording cannot serve."""


class RunRecorder:
    """Append-only event sink for one task run.

    exchange_cap, when set, arms the force-stop gate:
    check_exchange_budget raises ForceStopInterrupt as soon as the
    completed-call count has reached the cap, i.e. before the call that
    would exceed it.  A run's `orchestrator.OrchestratorState` sets it
    from the run's budgets, so a run's caller passes a bare recorder.
    """

    def __init__(self) -> None:
        self.exchange_cap: int | None = None
        self.events: list[TranscriptEvent] = []
        self.exchanges = 0

    # -- budget gate --------------------------------------------------

    def check_exchange_budget(self) -> None:
        if self.exchange_cap is not None and self.exchanges >= self.exchange_cap:
            raise ForceStopInterrupt(self.exchanges)

    # -- appends ------------------------------------------------------

    def append(self, kind: EventKind, payload: dict) -> TranscriptEvent:
        if self.closed:
            raise RuntimeError("transcript already terminated by a TaskResult")
        event = TranscriptEvent(len(self.events), time.time(), kind, payload)
        self.events.append(event)
        if kind is EventKind.LLM_CALL:
            self.exchanges += 1
        return event

    @property
    def closed(self) -> bool:
        """True once a TaskResult has terminated the transcript."""
        return bool(self.events) and self.events[-1].kind is EventKind.TASK_RESULT


# =====================================================================
# Persistence
# =====================================================================


def write_transcript(path: str | Path, header: dict, events: list[TranscriptEvent]) -> None:
    """Write a header line plus one JSON line per event; the directory must exist."""
    full_header = {"format": TRANSCRIPT_FORMAT, "version": TRANSCRIPT_VERSION, **header}
    lines = [json.dumps(full_header, ensure_ascii=False), *(event.to_json() for event in events)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# json.loads hands each str to a decoder like this one; calling it
# directly skips the per-call argument checks.
_DECODER = json.JSONDecoder()


def read_transcript(path: str | Path) -> tuple[dict, list[TranscriptEvent], list[str]]:
    """Read a transcript, tolerating a truncated final record.

    Returns (header, events, warnings).  A file cut off mid-write yields
    every complete event plus a warning; structural damage before the
    last line raises TranscriptCorrupt with the offending line number, as
    does an event payload that is not an object or breaks EVENT_FIELDS: a
    required key missing, a value of another type, and, for line 1, a
    header whose version is not TRANSCRIPT_VERSION.  A file that cannot
    be read is an InputError.  Records end at line feeds only, so a
    string value may hold U+2028 or any other line break raw.
    """
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise TranscriptCorrupt(path, 1, "empty file")
    try:
        header = parse_data(path, lines[0], json.loads, TRANSCRIPT_FORMAT, dict)
    except InputError as exc:
        raise TranscriptCorrupt(path, 1, exc.reason) from exc

    events: list[TranscriptEvent] = []
    warnings: list[str] = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        last = i == len(lines)
        try:
            record = _DECODER.decode(line)
        except ValueError:  # json.JSONDecodeError
            if last:
                warnings.append(f"line {i}: truncated record dropped")
                break
            raise TranscriptCorrupt(path, i, "invalid JSON before end of file") from None
        try:
            event = TranscriptEvent.from_dict(record)
        except (KeyError, ValueError, TypeError) as exc:
            raise TranscriptCorrupt(path, i, f"bad event record: {exc}") from None
        payload = event.payload
        fields, optional = EVENT_FIELDS[event.kind]
        for key, json_type in fields.items():  # inline checks: this loop is replay's hot path
            if key in payload:
                if type(payload[key]) not in json_type.types:
                    error = json_type.mismatch(payload[key], key)
                    raise TranscriptCorrupt(path, i, f"{event.kind.value} payload {error}")
            elif key not in optional:
                raise TranscriptCorrupt(path, i, f"{event.kind.value} payload lacks {key}")
        if event.seq != len(events):
            raise TranscriptCorrupt(path, i, f"seq {event.seq} breaks gap-free order")
        events.append(event)
    if mismatch := version_mismatch(header, TRANSCRIPT_VERSION):
        raise TranscriptCorrupt(path, 1, mismatch)
    return header, events, warnings


# =====================================================================
# Comparison helpers
# =====================================================================

_VOLATILE_KEYS = ("latency",)


def strip_volatile(event: TranscriptEvent) -> dict:
    """Event as a dict minus wall-clock fields, for fidelity comparisons."""
    d = event.to_dict()
    d.pop("ts", None)
    payload = dict(d.get("payload", {}))
    for key in _VOLATILE_KEYS:
        payload.pop(key, None)
    d["payload"] = payload
    return d


_ABSENT = object()


def _same_event(x: TranscriptEvent, y: TranscriptEvent) -> bool:
    """strip_volatile(x) == strip_volatile(y), without building either dict."""
    if x.seq != y.seq or x.kind is not y.kind:
        return False
    p, q = x.payload, y.payload
    return all(
        p.get(key, _ABSENT) == q.get(key, _ABSENT)
        for key in p.keys() | q.keys()
        if key not in _VOLATILE_KEYS
    )


def first_divergence(a: list[TranscriptEvent], b: list[TranscriptEvent]) -> int | None:
    """Seq of the first differing event, or None when sequences match."""
    for i in range(max(len(a), len(b))):
        if i >= len(a) or i >= len(b) or not _same_event(a[i], b[i]):
            return i
    return None


# =====================================================================
# Replay backend
# =====================================================================


# The BackendError an LlmFailed event's "<Type>: <message>" names.
_FAILURES = {cls.__name__: cls for cls in BackendError.__subclasses__()}
_CALL_KINDS = (EventKind.LLM_CALL, EventKind.LLM_FAILED)


class ReplayBackend:
    """Feeds a new run from the LlmCall and LlmFailed events of a recorded one.

    Each complete() takes the next recorded call when the incoming
    rendered prompt matches the recorded one: it returns an LlmCall's
    response, and raises an LlmFailed's error as the BackendError
    subclass it names, with its message.  A different prompt (an edited
    fixture, changed prompt resources, different budgets) or a call past
    the last recorded one raises ReplayDivergence.
    """

    def __init__(self, events: list[TranscriptEvent]) -> None:
        self._calls = enumerate([e for e in events if e.kind in _CALL_KINDS], start=1)

    def complete(self, request: ChatRequest) -> str:
        n, recorded = next(self._calls, (0, None))
        if recorded is None:
            raise ReplayDivergence("run needs more LLM calls than were recorded")
        if request.rendered() != recorded.payload["prompt"]:
            raise ReplayDivergence(f"rendered prompt differs from recording (recorded call #{n})")
        if recorded.kind is EventKind.LLM_FAILED:
            name, _, message = recorded.payload["error"].partition(": ")
            raise _FAILURES.get(name, BackendError)(message)
        return recorded.payload["response"]
