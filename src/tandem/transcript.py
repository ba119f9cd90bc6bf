"""Transcript recording, persistence and replay.

A transcript is one header line followed by line-delimited JSON events
with gap-free seq numbers from 0.  RunRecorder is the live sink: every
LLM call, environment step, verdict, decision and budget event lands
here, and the exchange counter it maintains is by construction equal to
the number of LlmCall events.

ReplayBackend turns a recorded transcript back into a backend: it serves
the recorded responses in order and raises ReplayDivergence the moment a
rendered prompt stops matching the recording.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .backend import ChatRequest
from .protocol import EventKind, TranscriptEvent

__all__ = [
    "ForceStopInterrupt",
    "ReplayBackend",
    "ReplayDivergence",
    "RunRecorder",
    "TranscriptCorrupt",
    "events_equal",
    "read_transcript",
    "strip_volatile",
    "write_transcript",
]

TRANSCRIPT_FORMAT = "tandem-transcript"
TRANSCRIPT_VERSION = 1


class TranscriptCorrupt(Exception):
    """A structurally invalid record before the end of the file."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ForceStopInterrupt(Exception):
    """Raised by the recorder when the next exchange would exceed the cap."""

    def __init__(self, exchange_count: int) -> None:
        super().__init__(f"exchange budget spent at {exchange_count}")
        self.exchange_count = exchange_count


class ReplayDivergence(Exception):
    """A replayed run stopped matching its recording at event `seq`."""

    def __init__(self, seq: int, message: str) -> None:
        super().__init__(f"divergence at seq {seq}: {message}")
        self.seq = seq


class RunRecorder:
    """Append-only event sink for one task run.

    exchange_cap, when set, arms the force-stop gate:
    check_exchange_budget raises ForceStopInterrupt as soon as the
    completed-call count has reached the cap, i.e. before the call that
    would exceed it.
    """

    def __init__(self, exchange_cap: int | None = None) -> None:
        self.exchange_cap = exchange_cap
        self.events: list[TranscriptEvent] = []
        self.exchanges = 0
        self._closed = False

    # -- budget gate --------------------------------------------------

    def check_exchange_budget(self) -> None:
        if self.exchange_cap is not None and self.exchanges >= self.exchange_cap:
            raise ForceStopInterrupt(self.exchanges)

    # -- appends ------------------------------------------------------

    def append(self, kind: EventKind, payload: dict) -> TranscriptEvent:
        if self._closed:
            raise RuntimeError("transcript already terminated by a TaskResult")
        event = TranscriptEvent(
            seq=len(self.events), timestamp=time.time(), kind=kind, payload=payload
        )
        self.events.append(event)
        if kind is EventKind.TASK_RESULT:
            self._closed = True
        return event

    def record_llm_call(self, role: str, prompt: str, response: str, latency: float) -> None:
        self.append(
            EventKind.LLM_CALL,
            {"role": role, "prompt": prompt, "response": response, "latency": latency},
        )
        self.exchanges += 1

    @property
    def closed(self) -> bool:
        return self._closed


# =====================================================================
# Persistence
# =====================================================================


def write_transcript(path: str | Path, header: dict, events: list[TranscriptEvent]) -> None:
    """Write a header line plus one JSON line per event."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    full_header = {"format": TRANSCRIPT_FORMAT, "version": TRANSCRIPT_VERSION, **header}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(full_header, ensure_ascii=False) + "\n")
        for event in events:
            fh.write(event.to_json() + "\n")


def read_transcript(path: str | Path) -> tuple[dict, list[TranscriptEvent], list[str]]:
    """Read a transcript, tolerating a truncated final record.

    Returns (header, events, warnings).  A file cut off mid-write yields
    every complete event plus a warning; structural damage before the
    last line raises TranscriptCorrupt with the offending line number.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TranscriptCorrupt(1, "empty file")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TranscriptCorrupt(1, f"unreadable header: {exc}") from exc
    if header.get("format") != TRANSCRIPT_FORMAT:
        raise TranscriptCorrupt(1, f"not a {TRANSCRIPT_FORMAT} file")

    events: list[TranscriptEvent] = []
    warnings: list[str] = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        last = i == len(lines)
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if last:
                warnings.append(f"line {i}: truncated record dropped")
                break
            raise TranscriptCorrupt(i, "invalid JSON before end of file") from None
        try:
            event = TranscriptEvent.from_dict(record)
        except (KeyError, ValueError, TypeError) as exc:
            raise TranscriptCorrupt(i, f"bad event record: {exc}") from None
        if event.seq != len(events):
            raise TranscriptCorrupt(i, f"seq {event.seq} breaks gap-free order")
        events.append(event)
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


def events_equal(a: list[TranscriptEvent], b: list[TranscriptEvent]) -> bool:
    return [strip_volatile(e) for e in a] == [strip_volatile(e) for e in b]


def first_divergence(a: list[TranscriptEvent], b: list[TranscriptEvent]) -> int | None:
    """Seq of the first differing event, or None when sequences match."""
    for i in range(max(len(a), len(b))):
        if i >= len(a) or i >= len(b):
            return i
        if strip_volatile(a[i]) != strip_volatile(b[i]):
            return i
    return None


# =====================================================================
# Replay backend
# =====================================================================


class ReplayBackend:
    """Feeds a new run from the LlmCall events of a recorded one.

    Each complete() compares the incoming rendered prompt against the
    recorded prompt; any difference (an edited fixture, changed prompt
    resources, different budgets) raises ReplayDivergence at the
    recorded event's seq.
    """

    def __init__(self, events: list[TranscriptEvent]) -> None:
        self._calls = [e for e in events if e.kind is EventKind.LLM_CALL]
        self._cursor = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        _, events, _ = read_transcript(path)
        return cls(events)

    @property
    def remaining(self) -> int:
        return len(self._calls) - self._cursor

    def complete(self, request: ChatRequest) -> str:
        if self._cursor >= len(self._calls):
            last_seq = self._calls[-1].seq if self._calls else 0
            raise ReplayDivergence(last_seq + 1, "run needs more LLM calls than were recorded")
        recorded = self._calls[self._cursor]
        self._cursor += 1
        prompt = request.rendered()
        if prompt != recorded.payload["prompt"]:
            raise ReplayDivergence(
                recorded.seq,
                "rendered prompt differs from recording "
                f"(recorded call #{self._cursor})",
            )
        return recorded.payload["response"]
